//! Property tests for the sharded greedy solver's determinism contract:
//! for arbitrary set collections, shard counts, and thread counts,
//!
//! 1. per-shard coverage counts always **sum** to the serial counts (the
//!    apply phase partitions, never loses or double-counts),
//! 2. the merged argmax — including the largest-id tie-break and the
//!    smallest-id padding fallback — equals the serial argmax at **every**
//!    greedy round, not just in the final seed list,
//! 3. the end-to-end sharded run is byte-identical to the serial run.
//!
//! The per-round oracle is an independent O(n·θ) reference greedy written
//! here from the contract (max `(gain, node)`, pad with the smallest
//! unselected id), so these tests would also catch the serial lazy-heap
//! and the sharded solver agreeing on a *wrong* order.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use tim_coverage::sharded::{
    apply_pick_in_range, greedy_max_cover_sharded_indexed, greedy_max_cover_sharded_indexed_stats,
    merge_votes, sets_in_range, shard_prefix_ranges, worker_set_ranges, RoundPick, ShardVote,
    SELECT_SHARDS,
};
use tim_coverage::{greedy_max_cover, SetCollection};
use tim_rng::{RandomSource, Rng};

/// Builds a random collection: `sets` sets over universe `n`, each with
/// up to `max_size` distinct members. Deterministic in `seed`.
fn random_collection(seed: u64, n: usize, sets: usize, max_size: usize) -> SetCollection {
    let mut rng = Rng::seed_from_u64(seed);
    let mut c = SetCollection::new(n);
    for _ in 0..sets {
        let size = rng.next_index(max_size + 1);
        let mut members: Vec<u32> = (0..size).map(|_| rng.next_index(n) as u32).collect();
        members.sort_unstable();
        members.dedup();
        c.push(&members);
    }
    c.ensure_inverted_index();
    c
}

/// One round of the reference greedy: the serial pick over a plain gain
/// table, straight from the contract.
fn reference_pick(gain: &[usize], selected: &[bool]) -> RoundPick {
    let best = (0..gain.len())
        .filter(|&v| !selected[v] && gain[v] > 0)
        .map(|v| (gain[v], v as u32))
        .max();
    if let Some((gain, node)) = best {
        return RoundPick::Select { node, gain };
    }
    match (0..gain.len()).find(|&v| !selected[v]) {
        Some(v) => RoundPick::Pad(v as u32),
        None => RoundPick::Exhausted,
    }
}

/// Votes for one round under an arbitrary contiguous node partition.
fn votes_for(
    ranges: &[std::ops::Range<usize>],
    gain: &[usize],
    selected: &[bool],
) -> Vec<ShardVote> {
    ranges
        .iter()
        .map(|r| ShardVote {
            best: r
                .clone()
                .filter(|&v| !selected[v] && gain[v] > 0)
                .map(|v| (gain[v], v as u32))
                .max(),
            min_unselected: r.clone().find(|&v| !selected[v]).map(|v| v as u32),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// At every round of the greedy, (a) each worker's slice of the apply
    /// phase covers a disjoint share of the chosen node's sets that sums
    /// to the serial marginal, and (b) the merged vote equals the serial
    /// argmax with its tie-break.
    #[test]
    fn per_round_merge_and_counts_match_serial(
        seed in 0u64..1_000_000,
        n in 2usize..40,
        sets in 0usize..80,
        node_shards in 1usize..9,
        threads in 1usize..9,
    ) {
        let c = random_collection(seed, n, sets, 5);
        let node_ranges = shard_prefix_ranges(n, node_shards);
        let set_ranges = worker_set_ranges(c.len(), threads);

        let mut gain: Vec<usize> = (0..n as u32).map(|v| c.degree(v)).collect();
        let mut selected = vec![false; n];
        let mut covered = vec![false; c.len()];

        for round in 0..n {
            let want = reference_pick(&gain, &selected);
            let got = merge_votes(&votes_for(&node_ranges, &gain, &selected));
            prop_assert_eq!(got, want, "round {}", round);

            let chosen = match want {
                RoundPick::Select { node, gain: marginal } => {
                    // (a) the shard slices partition the membership list...
                    let per_shard: Vec<&[u32]> = set_ranges
                        .iter()
                        .map(|r| sets_in_range(&c, node, r))
                        .collect();
                    let total: usize = per_shard.iter().map(|s| s.len()).sum();
                    prop_assert_eq!(total, c.sets_containing(node).len());
                    // ...and the per-shard *newly covered* counts sum to
                    // the serial marginal.
                    let newly_sum: usize = per_shard
                        .iter()
                        .flat_map(|s| s.iter())
                        .filter(|&&s| !covered[s as usize])
                        .count();
                    prop_assert_eq!(newly_sum, marginal, "round {}", round);
                    // Apply serially for the next round's oracle state.
                    for &s in c.sets_containing(node) {
                        if !covered[s as usize] {
                            covered[s as usize] = true;
                            for &u in c.set(s as usize) {
                                gain[u as usize] -= 1;
                            }
                        }
                    }
                    node
                }
                RoundPick::Pad(node) => node,
                RoundPick::Exhausted => break,
            };
            selected[chosen as usize] = true;
        }
    }

    /// End-to-end: sharded == serial (seeds, marginals, covered) for
    /// arbitrary instances and thread counts.
    #[test]
    fn sharded_run_is_byte_identical_to_serial(
        seed in 0u64..1_000_000,
        n in 2usize..50,
        sets in 0usize..100,
        k_frac in 0.0f64..1.0,
        threads in 2usize..12,
    ) {
        let mut c = random_collection(seed, n, sets, 6);
        let k = 1 + (k_frac * (n - 1) as f64) as usize;
        let want = greedy_max_cover(&mut c, k);
        let got = greedy_max_cover_sharded_indexed(&c, k, threads);
        prop_assert_eq!(&got, &want, "threads {}", threads);
        prop_assert_eq!(got.seeds.len(), k.min(n));
    }

    /// The lazy solver agrees with the independent reference oracle at
    /// **every round**: replaying the lazy run's seed sequence against a
    /// plain gain table must reproduce both the pick (with the largest-id
    /// tie-break and smallest-id padding) and the recorded marginal.
    /// This would catch a stale heap entry surviving a round it should
    /// not, even if it and the serial heap agreed on a wrong order.
    #[test]
    fn lazy_rounds_match_the_reference_oracle(
        seed in 0u64..1_000_000,
        n in 2usize..50,
        sets in 0usize..100,
        k_frac in 0.0f64..1.0,
        threads in 2usize..10,
    ) {
        let c = random_collection(seed, n, sets, 6);
        let k = 1 + (k_frac * (n - 1) as f64) as usize;
        let (got, stats) = greedy_max_cover_sharded_indexed_stats(&c, k, threads);
        prop_assert_eq!(got.seeds.len(), k.min(n));
        prop_assert_eq!(stats.rounds, k.min(n));

        let mut gain: Vec<usize> = (0..n as u32).map(|v| c.degree(v)).collect();
        let mut selected = vec![false; n];
        let mut covered = vec![false; c.len()];
        for (round, &node) in got.seeds.iter().enumerate() {
            match reference_pick(&gain, &selected) {
                RoundPick::Select { node: want, gain: marginal } => {
                    prop_assert_eq!(node, want, "round {}", round);
                    prop_assert_eq!(got.marginal[round], marginal, "round {}", round);
                    for &s in c.sets_containing(node) {
                        if !covered[s as usize] {
                            covered[s as usize] = true;
                            for &u in c.set(s as usize) {
                                gain[u as usize] -= 1;
                            }
                        }
                    }
                }
                RoundPick::Pad(want) => {
                    prop_assert_eq!(node, want, "round {} (pad)", round);
                    prop_assert_eq!(got.marginal[round], 0, "round {} (pad)", round);
                }
                RoundPick::Exhausted => prop_assert!(false, "round {}: oracle exhausted", round),
            }
            selected[node as usize] = true;
        }
    }

    /// Dirty-set soundness: at every greedy round, every node whose true
    /// gain changed during the apply phase appears in the dirty set the
    /// apply phase computed — and (completeness, which the lazy solver
    /// does not strictly need but the implementation guarantees) no node
    /// whose gain did not change does. Each per-worker dirty list must
    /// come back sorted and deduplicated, since the lazy vote phase
    /// binary-searches it.
    #[test]
    fn dirty_sets_are_sound_over_full_runs(
        seed in 0u64..1_000_000,
        n in 2usize..40,
        sets in 0usize..80,
        threads in 1usize..6,
    ) {
        let c = random_collection(seed, n, sets, 5);
        let set_ranges = worker_set_ranges(c.len(), threads);
        let gain: Vec<AtomicUsize> =
            (0..n as u32).map(|v| AtomicUsize::new(c.degree(v))).collect();
        let mut covered = vec![false; c.len()];
        let mut selected = vec![false; n];
        let mut scratch = Vec::new();

        for round in 0..n {
            let before: Vec<usize> = gain.iter().map(|g| g.load(Relaxed)).collect();
            let node = match reference_pick(&before, &selected) {
                RoundPick::Select { node, .. } => node,
                RoundPick::Pad(node) => node,
                RoundPick::Exhausted => break,
            };
            let mut dirty_union: Vec<u32> = Vec::new();
            for r in &set_ranges {
                apply_pick_in_range(
                    &c,
                    node,
                    r,
                    &mut covered[r.start..r.end],
                    &gain,
                    &mut scratch,
                );
                prop_assert!(
                    scratch.windows(2).all(|w| w[0] < w[1]),
                    "round {}: worker dirty list not sorted+deduped", round
                );
                dirty_union.extend_from_slice(&scratch);
            }
            dirty_union.sort_unstable();
            dirty_union.dedup();
            let after: Vec<usize> = gain.iter().map(|g| g.load(Relaxed)).collect();
            for u in 0..n {
                let changed = before[u] != after[u];
                let flagged = dirty_union.binary_search(&(u as u32)).is_ok();
                prop_assert_eq!(
                    changed, flagged,
                    "round {}, node {}: gain {} -> {}", round, u, before[u], after[u]
                );
            }
            selected[node as usize] = true;
        }
    }

    /// The set-space partition is sound for arbitrary sizes: contiguous,
    /// complete, balanced-by-shard, and worker boundaries land on shard
    /// boundaries (so selection workers own whole sampling shards).
    #[test]
    fn partitions_cover_without_overlap(
        len in 0usize..5_000,
        shards in 1usize..100,
        threads in 1usize..40,
    ) {
        let ranges = shard_prefix_ranges(len, shards);
        prop_assert_eq!(ranges.len(), shards);
        let mut prev = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, prev);
            prop_assert!(r.len() == len / shards || r.len() == len / shards + 1);
            prev = r.end;
        }
        prop_assert_eq!(prev, len);

        let workers = worker_set_ranges(len, threads);
        prop_assert_eq!(workers.len(), threads);
        let shard_starts = shard_prefix_ranges(len, SELECT_SHARDS);
        let mut prev = 0usize;
        for w in &workers {
            prop_assert_eq!(w.start, prev);
            prop_assert!(
                w.end == len || shard_starts.iter().any(|s| s.start == w.end),
                "worker boundary {} off-shard (len {}, threads {})",
                w.end, len, threads
            );
            prev = w.end;
        }
        prop_assert_eq!(prev, len);
    }
}
