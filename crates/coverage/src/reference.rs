//! A naive greedy max-coverage reference for tests. Every round recounts
//! each node's gain over the still-uncovered sets and scans all `n`
//! nodes, so it shares no data structure with the lazy heap it checks.
//!
//! It implements the documented selection contract: each round takes the
//! maximum `(gain, id)` pair, ties going to the largest id; once every
//! gain is 0 it pads with the smallest unselected id, so a run returns
//! `min(k, n)` seeds.
//!
//! Only `std` types appear here, so integration tests outside this crate
//! can include the file with `#[path]`.

/// Seeds, per-seed marginal gains and the number of covered sets of a
/// greedy run over `sets`, whose members lie in `0..universe`.
pub fn naive_greedy(universe: usize, sets: &[&[u32]], k: usize) -> (Vec<u32>, Vec<usize>, usize) {
    let mut covered = vec![false; sets.len()];
    let mut selected = vec![false; universe];
    let mut seeds = Vec::new();
    let mut marginal = Vec::new();
    for _ in 0..k.min(universe) {
        let mut gain = vec![0usize; universe];
        for (members, _) in sets.iter().zip(&covered).filter(|(_, &c)| !c) {
            for &v in *members {
                gain[v as usize] += 1;
            }
        }
        let unselected = || (0..universe).filter(|&v| !selected[v]);
        let best = unselected().max_by_key(|&v| (gain[v], v)).unwrap();
        let v = if gain[best] > 0 {
            best
        } else {
            unselected().next().unwrap()
        };
        selected[v] = true;
        for (members, c) in sets.iter().zip(covered.iter_mut()) {
            *c |= members.contains(&(v as u32));
        }
        seeds.push(v as u32);
        marginal.push(gain[v]);
    }
    let total = covered.iter().filter(|&&c| c).count();
    (seeds, marginal, total)
}
