//! Greedy maximum-coverage solvers (Algorithm 1, lines 3–7).
//!
//! Maximum coverage is NP-hard; the greedy algorithm that repeatedly picks
//! the node covering the most still-uncovered sets is a `(1 − 1/e)`
//! approximation (Vazirani \[29\]), and that factor is what Theorem 1's
//! guarantee rests on.
//!
//! Two implementations with identical greedy semantics:
//!
//! - [`greedy_max_cover`]: a lazy max-heap. Coverage gain is submodular
//!   (marginal counts only decrease), so re-evaluating a popped entry whose
//!   stored gain is stale and pushing it back is exact — the same trick
//!   CELF applies to spread estimation.
//! - [`greedy_max_cover_bucket`]: bucket queue indexed by count, giving the
//!   O(Σ|R|) linear-time bound quoted in §3.1.

use crate::{SetCollection, SetsAccess};
use std::collections::BinaryHeap;
use tim_graph::NodeId;

/// Result of a greedy max-coverage run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverResult {
    /// The selected nodes, in selection order.
    pub seeds: Vec<NodeId>,
    /// Marginal number of sets newly covered by each selected node.
    pub marginal: Vec<usize>,
    /// Total number of sets covered by `seeds`.
    pub covered: usize,
}

impl CoverResult {
    /// Fraction of the collection's sets covered by the selection.
    pub fn coverage_fraction(&self, total_sets: usize) -> f64 {
        if total_sets == 0 {
            0.0
        } else {
            self.covered as f64 / total_sets as f64
        }
    }
}

/// Work counters for one greedy max-coverage run.
///
/// The counters measure *algorithmic* work, not wall-clock: `evals` is
/// the number of candidate nodes whose current gain was inspected while
/// searching for an argmax (the serial CELF heap and the sharded solver's
/// per-worker heaps keep this near O(1) per round, where a full node scan
/// would pay `n`), `repushes` counts stale heap entries refiled at their
/// current gain, and `dirty` counts the distinct nodes per worker slice
/// whose gain the apply phase changed (the invalidation traffic the
/// sharded solver pays instead of rescanning).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Greedy rounds run (selected seeds plus padding rounds).
    pub rounds: usize,
    /// Candidate gain evaluations across all rounds and workers.
    pub evals: usize,
    /// Stale lazy-heap entries re-pushed at their current gain.
    pub repushes: usize,
    /// Gain-invalidation events: distinct dirty nodes per worker slice,
    /// summed over rounds (0 for solvers that do not track dirt).
    pub dirty: usize,
}

impl EvalStats {
    /// Mean candidate evaluations per greedy round (0 when no rounds ran).
    pub fn evals_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.evals as f64 / self.rounds as f64
        }
    }

    /// Accumulates another worker's counters into this one. `rounds` is
    /// taken as the max, not the sum — workers run the same rounds.
    pub fn absorb(&mut self, other: &EvalStats) {
        self.rounds = self.rounds.max(other.rounds);
        self.evals += other.evals;
        self.repushes += other.repushes;
        self.dirty += other.dirty;
    }
}

/// Greedy max-coverage with a lazy max-heap.
///
/// Picks `k` distinct nodes (padding with arbitrary unselected nodes once
/// every set is covered, so the result always has `min(k, n)` seeds, as
/// Algorithm 1 always returns a size-`k` set).
///
/// ```
/// use tim_coverage::{greedy_max_cover, SetCollection};
///
/// let mut sets = SetCollection::new(5);
/// sets.push(&[0, 1]);
/// sets.push(&[0, 2]);
/// sets.push(&[3]);
/// let cover = greedy_max_cover(&mut sets, 2);
/// assert_eq!(cover.seeds[0], 0); // covers two sets
/// assert_eq!(cover.covered, 3);
/// ```
pub fn greedy_max_cover(collection: &mut SetCollection, k: usize) -> CoverResult {
    collection.ensure_inverted_index();
    greedy_max_cover_indexed(collection, k)
}

/// [`greedy_max_cover`] over a shared (`&`) collection whose inverted
/// index is already built — generic over the [`SetsAccess`] backing, so
/// the same monomorphized loop serves heap collections and mapped
/// `.timp` v2 pools.
///
/// The solver itself never mutates the collection — the `&mut` in
/// [`greedy_max_cover`] exists only to build the lazy index. Hot query
/// paths that keep the index warm (e.g. `tim_engine`'s shared pools
/// serving concurrent readers) call this variant directly.
///
/// # Panics
/// Panics if the inverted index is stale
/// ([`SetsAccess::has_inverted_index`] is false).
pub fn greedy_max_cover_indexed<C: SetsAccess>(collection: &C, k: usize) -> CoverResult {
    greedy_max_cover_indexed_stats(collection, k).0
}

/// [`greedy_max_cover_indexed`] with its [`EvalStats`] work counters:
/// `evals` counts heap pops whose gain was compared against the current
/// table, `repushes` the stale entries refiled. The `CoverResult` is the
/// same object the uninstrumented entry point returns.
///
/// # Panics
/// Panics if the inverted index is stale
/// ([`SetsAccess::has_inverted_index`] is false).
pub fn greedy_max_cover_indexed_stats<C: SetsAccess>(
    collection: &C,
    k: usize,
) -> (CoverResult, EvalStats) {
    assert!(
        collection.has_inverted_index(),
        "inverted index is stale; call ensure_inverted_index first"
    );
    let n = collection.universe();
    let k = k.min(n);

    let mut covered = vec![false; collection.len()];
    // Current marginal gain per node; starts at the hypergraph degree.
    let mut gain: Vec<usize> = (0..n as NodeId).map(|v| collection.degree(v)).collect();
    let mut selected = vec![false; n];

    // Heap of (stored_gain, node); stale entries are detected by comparing
    // against `gain[node]` and reinserted with the current value.
    let mut heap: BinaryHeap<(usize, NodeId)> = (0..n as NodeId)
        .filter(|&v| gain[v as usize] > 0)
        .map(|v| (gain[v as usize], v))
        .collect();

    let mut result = CoverResult {
        seeds: Vec::with_capacity(k),
        marginal: Vec::with_capacity(k),
        covered: 0,
    };
    let mut stats = EvalStats::default();

    while result.seeds.len() < k {
        stats.rounds += 1;
        let best = loop {
            match heap.pop() {
                Some((stored, v)) => {
                    if selected[v as usize] {
                        continue;
                    }
                    stats.evals += 1;
                    let current = gain[v as usize];
                    if stored == current {
                        break Some(v);
                    }
                    if current > 0 {
                        heap.push((current, v));
                        stats.repushes += 1;
                    }
                }
                None => break None,
            }
        };
        match best {
            Some(v) => {
                selected[v as usize] = true;
                let mut newly = 0usize;
                for &set_id in collection.sets_containing(v) {
                    let s = set_id as usize;
                    if !covered[s] {
                        covered[s] = true;
                        newly += 1;
                        for &u in collection.set(s) {
                            gain[u as usize] -= 1;
                        }
                    }
                }
                debug_assert_eq!(gain[v as usize], 0);
                result.covered += newly;
                result.seeds.push(v);
                result.marginal.push(newly);
            }
            None => {
                // All remaining nodes have zero gain: pad with arbitrary
                // unselected nodes so |S| = k, as Algorithm 1 requires.
                let pad = (0..n as NodeId).find(|&v| !selected[v as usize]);
                match pad {
                    Some(v) => {
                        selected[v as usize] = true;
                        result.seeds.push(v);
                        result.marginal.push(0);
                    }
                    None => {
                        // The universe ran out before round k: the round
                        // did no work, so do not count it.
                        stats.rounds -= 1;
                        break;
                    }
                }
            }
        }
    }
    (result, stats)
}

/// Greedy max-coverage with a bucket queue (linear-time variant).
///
/// Functionally identical to [`greedy_max_cover`]; kept separate as the
/// `max_cover` bench's ablation target for the selection data structure.
pub fn greedy_max_cover_bucket(collection: &mut SetCollection, k: usize) -> CoverResult {
    collection.ensure_inverted_index();
    greedy_max_cover_bucket_indexed(collection, k)
}

/// [`greedy_max_cover_bucket`] over a shared (`&`) collection whose
/// inverted index is already built; see [`greedy_max_cover_indexed`] for
/// why the `&self` variant exists and what the generic parameter buys.
///
/// # Panics
/// Panics if the inverted index is stale
/// ([`SetsAccess::has_inverted_index`] is false).
pub fn greedy_max_cover_bucket_indexed<C: SetsAccess>(collection: &C, k: usize) -> CoverResult {
    assert!(
        collection.has_inverted_index(),
        "inverted index is stale; call ensure_inverted_index first"
    );
    let n = collection.universe();
    let k = k.min(n);

    let mut covered = vec![false; collection.len()];
    let mut gain: Vec<usize> = (0..n as NodeId).map(|v| collection.degree(v)).collect();
    let mut selected = vec![false; n];

    let max_gain = gain.iter().copied().max().unwrap_or(0);
    // buckets[g] holds candidate nodes whose gain was g at insertion; stale
    // entries are filtered on pop (gains only decrease, so scanning from the
    // top bucket downward is amortised linear).
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); max_gain + 1];
    for v in 0..n as NodeId {
        if gain[v as usize] > 0 {
            buckets[gain[v as usize]].push(v);
        }
    }
    let mut cursor = max_gain;

    let mut result = CoverResult {
        seeds: Vec::with_capacity(k),
        marginal: Vec::with_capacity(k),
        covered: 0,
    };

    while result.seeds.len() < k {
        // Find the true current maximum by draining stale entries.
        let mut best: Option<NodeId> = None;
        while cursor > 0 {
            match buckets[cursor].pop() {
                Some(v) => {
                    if selected[v as usize] {
                        continue;
                    }
                    let g = gain[v as usize];
                    if g == cursor {
                        best = Some(v);
                        break;
                    }
                    if g > 0 {
                        buckets[g].push(v); // re-file at current gain
                    }
                }
                None => cursor -= 1,
            }
        }
        match best {
            Some(v) => {
                selected[v as usize] = true;
                let mut newly = 0usize;
                for &set_id in collection.sets_containing(v) {
                    let s = set_id as usize;
                    if !covered[s] {
                        covered[s] = true;
                        newly += 1;
                        for &u in collection.set(s) {
                            gain[u as usize] -= 1;
                        }
                    }
                }
                result.covered += newly;
                result.seeds.push(v);
                result.marginal.push(newly);
            }
            None => {
                let pad = (0..n as NodeId).find(|&v| !selected[v as usize]);
                match pad {
                    Some(v) => {
                        selected[v as usize] = true;
                        result.seeds.push(v);
                        result.marginal.push(0);
                    }
                    None => break,
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collection(sets: &[&[NodeId]], n: usize) -> SetCollection {
        let mut c = SetCollection::new(n);
        for s in sets {
            c.push(s);
        }
        c
    }

    #[test]
    fn picks_the_dominant_node_first() {
        // Node 9 covers 3 sets, others 1 each.
        let mut c = collection(&[&[9, 0], &[9, 1], &[9, 2], &[3]], 10);
        let r = greedy_max_cover(&mut c, 2);
        assert_eq!(r.seeds[0], 9);
        assert_eq!(r.marginal[0], 3);
        assert_eq!(r.seeds[1], 3);
        assert_eq!(r.covered, 4);
    }

    #[test]
    fn bucket_variant_agrees_on_coverage() {
        let mut c1 = collection(&[&[9, 0], &[9, 1], &[9, 2], &[3]], 10);
        let mut c2 = c1.clone();
        let a = greedy_max_cover(&mut c1, 2);
        let b = greedy_max_cover_bucket(&mut c2, 2);
        assert_eq!(a.covered, b.covered);
        assert_eq!(a.seeds[0], b.seeds[0]);
    }

    #[test]
    fn marginal_gains_are_non_increasing_in_effect() {
        // Greedy marginals on a coverage instance are non-increasing.
        let mut c = collection(&[&[0, 1], &[0, 2], &[0, 3], &[1, 2], &[4], &[4, 1]], 6);
        let r = greedy_max_cover(&mut c, 4);
        for w in r.marginal.windows(2) {
            assert!(
                w[0] >= w[1],
                "marginals must be non-increasing: {:?}",
                r.marginal
            );
        }
    }

    #[test]
    fn covered_equals_sum_of_marginals_and_matches_fraction() {
        let mut c = collection(&[&[0], &[1], &[2], &[0, 1]], 4);
        let r = greedy_max_cover(&mut c, 3);
        assert_eq!(r.covered, r.marginal.iter().sum::<usize>());
        let frac = r.coverage_fraction(c.len());
        assert_eq!(frac, r.covered as f64 / 4.0);
        assert_eq!(c.count_covered(&r.seeds), r.covered);
    }

    #[test]
    fn greedy_is_optimal_on_small_instances() {
        // Brute-force check of the (1 - 1/e) bound — on tiny instances
        // greedy is usually optimal; we check it is never below the bound.
        let sets: Vec<&[NodeId]> = vec![&[0, 1, 2], &[2, 3], &[3, 4], &[4, 0], &[1, 3]];
        let n = 5;
        for k in 1..=3 {
            let mut c = collection(&sets, n);
            let greedy = greedy_max_cover(&mut c, k);
            // Brute force all k-subsets of the universe.
            let mut best = 0;
            let nodes: Vec<NodeId> = (0..n as NodeId).collect();
            let mut idx = vec![0usize; k];
            fn combos(
                nodes: &[NodeId],
                k: usize,
                start: usize,
                cur: &mut Vec<NodeId>,
                best: &mut usize,
                c: &SetCollection,
            ) {
                if cur.len() == k {
                    *best = (*best).max(c.count_covered(cur));
                    return;
                }
                for i in start..nodes.len() {
                    cur.push(nodes[i]);
                    combos(nodes, k, i + 1, cur, best, c);
                    cur.pop();
                }
            }
            let mut cur = Vec::new();
            combos(&nodes, k, 0, &mut cur, &mut best, &c);
            idx.clear();
            let bound = (1.0 - 1.0 / std::f64::consts::E) * best as f64;
            assert!(
                greedy.covered as f64 >= bound - 1e-9,
                "k={k}: greedy {} below bound {bound} (opt {best})",
                greedy.covered
            );
        }
    }

    #[test]
    fn pads_to_k_seeds_when_everything_is_covered() {
        let mut c = collection(&[&[0]], 5);
        let r = greedy_max_cover(&mut c, 3);
        assert_eq!(r.seeds.len(), 3);
        assert_eq!(r.covered, 1);
        // Padded seeds contribute zero marginal.
        assert_eq!(r.marginal[1], 0);
        assert_eq!(r.marginal[2], 0);

        let mut c2 = collection(&[&[0]], 5);
        let r2 = greedy_max_cover_bucket(&mut c2, 3);
        assert_eq!(r2.seeds.len(), 3);
    }

    #[test]
    fn k_larger_than_universe_is_clamped() {
        let mut c = collection(&[&[0, 1]], 2);
        let r = greedy_max_cover(&mut c, 10);
        assert_eq!(r.seeds.len(), 2);
    }

    #[test]
    fn seeds_are_distinct() {
        let mut c = collection(&[&[0, 1], &[1, 2], &[2, 0], &[3, 1]], 4);
        for k in 1..=4 {
            let mut cc = c.clone();
            let r = greedy_max_cover(&mut cc, k);
            let mut s = r.seeds.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), r.seeds.len(), "duplicate seeds at k={k}");
            let mut cc2 = c.clone();
            let r2 = greedy_max_cover_bucket(&mut cc2, k);
            let mut s2 = r2.seeds.clone();
            s2.sort_unstable();
            s2.dedup();
            assert_eq!(s2.len(), r2.seeds.len());
        }
        let _ = &mut c;
    }

    #[test]
    fn indexed_variants_match_the_mutable_entry_points() {
        let mut c = collection(&[&[9, 0], &[9, 1], &[9, 2], &[3], &[1, 2]], 10);
        let want_heap = greedy_max_cover(&mut c.clone(), 3);
        let want_bucket = greedy_max_cover_bucket(&mut c.clone(), 3);
        c.ensure_inverted_index();
        let shared: &SetCollection = &c;
        assert_eq!(greedy_max_cover_indexed(shared, 3), want_heap);
        assert_eq!(greedy_max_cover_bucket_indexed(shared, 3), want_bucket);
    }

    #[test]
    fn stats_variant_counts_lazy_heap_work() {
        let mut c = collection(&[&[9, 0], &[9, 1], &[9, 2], &[3], &[1, 2]], 10);
        c.ensure_inverted_index();
        let (result, stats) = greedy_max_cover_indexed_stats(&c, 3);
        assert_eq!(result, greedy_max_cover_indexed(&c, 3));
        assert_eq!(stats.rounds, 3);
        // Every selected round evaluates at least the fresh argmax pop.
        assert!(stats.evals >= stats.rounds, "{stats:?}");
        assert_eq!(stats.dirty, 0, "serial solver tracks no dirt");
        // Padding rounds (everything covered) still count as rounds.
        let mut tiny = collection(&[&[0]], 5);
        tiny.ensure_inverted_index();
        let (r, s) = greedy_max_cover_indexed_stats(&tiny, 4);
        assert_eq!(r.seeds.len(), 4);
        assert_eq!(s.rounds, 4);
    }

    #[test]
    fn stats_absorb_sums_work_and_maxes_rounds() {
        let mut a = EvalStats {
            rounds: 5,
            evals: 10,
            repushes: 2,
            dirty: 7,
        };
        let b = EvalStats {
            rounds: 5,
            evals: 4,
            repushes: 1,
            dirty: 3,
        };
        a.absorb(&b);
        assert_eq!(
            a,
            EvalStats {
                rounds: 5,
                evals: 14,
                repushes: 3,
                dirty: 10,
            }
        );
        assert_eq!(a.evals_per_round(), 14.0 / 5.0);
        assert_eq!(EvalStats::default().evals_per_round(), 0.0);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn indexed_variant_panics_without_an_index() {
        let c = collection(&[&[0, 1]], 3);
        let _ = greedy_max_cover_indexed(&c, 1);
    }

    #[test]
    fn empty_collection_still_returns_k_seeds() {
        let mut c = SetCollection::new(4);
        let r = greedy_max_cover(&mut c, 2);
        assert_eq!(r.seeds.len(), 2);
        assert_eq!(r.covered, 0);
    }

    #[test]
    fn variants_agree_on_random_instances() {
        use tim_rng::{RandomSource, Rng};
        let mut rng = Rng::seed_from_u64(42);
        for trial in 0..20 {
            let n = 30;
            let mut c = SetCollection::new(n);
            let sets = 50;
            for _ in 0..sets {
                let size = 1 + rng.next_index(5);
                let members: Vec<NodeId> = {
                    let mut m: Vec<NodeId> =
                        (0..size).map(|_| rng.next_index(n) as NodeId).collect();
                    m.sort_unstable();
                    m.dedup();
                    m
                };
                c.push(&members);
            }
            let mut c2 = c.clone();
            let k = 1 + rng.next_index(8);
            let a = greedy_max_cover(&mut c, k);
            let b = greedy_max_cover_bucket(&mut c2, k);
            // Tie-breaking may differ, but every greedy run is a
            // (1 - 1/e)-approximation, so neither can fall below that
            // fraction of the other.
            let (lo, hi) = (a.covered.min(b.covered), a.covered.max(b.covered));
            assert!(
                lo as f64 >= (1.0 - 1.0 / std::f64::consts::E) * hi as f64,
                "trial {trial} k={k}: {lo} vs {hi}"
            );
        }
    }
}
