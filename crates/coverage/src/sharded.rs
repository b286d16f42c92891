//! Sharded greedy maximum coverage: saturate cores on one query.
//!
//! [`greedy_max_cover_sharded`] parallelizes the greedy solver across
//! worker threads while returning results **byte-identical** to
//! [`greedy_max_cover_indexed`](crate::greedy_max_cover_indexed) at any
//! thread count. The serial solver's lazy max-heap converges, each round,
//! to the node maximizing the `(current_gain, node_id)` tuple — ties
//! break toward the **largest** id — and pads with the **smallest**
//! unselected id once every remaining gain is zero. The sharded solver
//! makes that contract explicit and distributes the two phases of each
//! round:
//!
//! 1. **Vote** — every worker finds its contiguous node range's local
//!    `(gain, node)` maximum (and its smallest unselected id, for
//!    padding) and publishes a [`ShardVote`].
//! 2. **Merge + apply** — the votes merge through the deterministic
//!    reduction [`merge_votes`] (replicated on every worker: the merge is
//!    a pure function of the votes, so no coordinator is needed). Each
//!    worker then applies the chosen node to its own slice of the RR-set
//!    space — the sets are partitioned by the same balanced shard-prefix
//!    arithmetic as `tim_core::parallel::shard_layout`
//!    ([`shard_prefix_ranges`]) — marking newly covered sets and
//!    decrementing member gains atomically.
//!
//! Each worker finds its local argmax with a CELF-style max-heap of
//! `(cached_gain, node)` over its range. Coverage gain is submodular
//! (gains only ever decrease), so a cached entry is an upper bound on the
//! node's current gain and a popped entry whose cached value is still
//! current is *exactly* the range argmax — the same staleness trick the
//! serial solver plays. Between rounds workers exchange **dirty-node
//! lists** — the only gains that change are members of sets newly covered
//! by the last pick, computed for free during the apply phase's
//! posting-list walk — so a worker whose cached vote's node is untouched
//! re-publishes it without touching its heap at all.
//!
//! Determinism survives sharding because both halves of the round are
//! order-free: the merged argmax is a pure reduction over the
//! votes, and the gain updates are sums of decrements (commutative,
//! applied through atomics), so at the barrier between rounds every
//! worker observes exactly the gains the serial solver would hold. The
//! partition affects only *which worker* does the arithmetic, never its
//! result.

use crate::greedy::{greedy_max_cover_indexed_stats, CoverResult, EvalStats};
use crate::{SetCollection, SetsAccess};
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering::Relaxed};
use std::sync::{Barrier, Mutex};
use tim_graph::NodeId;

/// Number of balanced shards the RR-set space is partitioned into —
/// mirrors `tim_core::parallel::SHARDS` (pinned equal by a test there),
/// so selection workers own whole sampling shards.
pub const SELECT_SHARDS: usize = 64;

/// Splits `0..len` into `shards` contiguous balanced ranges: shard `i`
/// gets `len / shards`, plus one more when `i < len % shards` — the same
/// arithmetic as `tim_core::parallel::shard_layout`, so range `i` holds
/// exactly sampling shard `i`'s sets when `len` is a pool's θ.
pub fn shard_prefix_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    assert!(shards >= 1, "shards must be at least 1");
    let per = len / shards;
    let extra = len % shards;
    let mut start = 0usize;
    (0..shards)
        .map(|i| {
            let count = per + usize::from(i < extra);
            let r = start..start + count;
            start += count;
            r
        })
        .collect()
}

/// Partitions `0..len` set ids into `threads` contiguous ranges of whole
/// [`SELECT_SHARDS`] shards (`ceil(SELECT_SHARDS / threads)` shards per
/// worker, like `tim_core::parallel`'s sampling chunks). Workers beyond
/// the shard count own empty ranges.
pub fn worker_set_ranges(len: usize, threads: usize) -> Vec<Range<usize>> {
    assert!(threads >= 1, "threads must be at least 1");
    let shards = shard_prefix_ranges(len, SELECT_SHARDS);
    let chunk = SELECT_SHARDS.div_ceil(threads);
    let bound = |shard: usize| {
        if shard >= SELECT_SHARDS {
            len
        } else {
            shards[shard].start
        }
    };
    (0..threads)
        .map(|t| bound(t * chunk)..bound((t + 1) * chunk))
        .collect()
}

/// The worker index owning node `u` under [`shard_prefix_ranges`]`(n,
/// threads)`, in O(1): the first `extra = n % threads` ranges hold `per +
/// 1` nodes, the rest `per`. Lazy workers use this to route each dirty
/// node to the one consumer whose range holds it.
fn node_owner(per: usize, extra: usize, u: usize) -> usize {
    debug_assert!(per >= 1, "threads are clamped to the universe");
    let cut = (per + 1) * extra;
    if u < cut {
        u / (per + 1)
    } else {
        extra + (u - cut) / per
    }
}

/// The ids of the sets containing `v` whose id falls in `range` — one
/// worker's slice of the apply phase. The inverted index stores set ids
/// ascending (heap builds produce them so; the mapped backing validates
/// it at open), so this is two binary searches on
/// [`SetsAccess::sets_containing`].
///
/// # Panics
/// Panics if the collection's inverted index is stale.
pub fn sets_in_range<'a, C: SetsAccess>(
    collection: &'a C,
    v: NodeId,
    range: &Range<usize>,
) -> &'a [u32] {
    let ids = collection.sets_containing(v);
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "index ids not sorted");
    let lo = ids.partition_point(|&s| (s as usize) < range.start);
    let hi = ids.partition_point(|&s| (s as usize) < range.end);
    &ids[lo..hi]
}

/// One worker's slice of the apply phase: covers `node`'s still-uncovered
/// sets within `sets` (a `covered[set_id - sets.start]` bitmap slice) and
/// decrements every member's gain atomically. `dirty` is reset to the
/// slice's **dirty nodes** — the distinct members whose gain this call
/// changed, sorted ascending — which is the invalidation set the workers
/// ship to each other: a node outside it cannot have changed gain this
/// round. Returns the newly covered count.
///
/// # Panics
/// Panics if the collection's inverted index is stale.
pub fn apply_pick_in_range<C: SetsAccess>(
    collection: &C,
    node: NodeId,
    sets: &Range<usize>,
    covered: &mut [bool],
    gain: &[AtomicUsize],
    dirty: &mut Vec<NodeId>,
) -> usize {
    dirty.clear();
    let mut newly = 0usize;
    for &set_id in sets_in_range(collection, node, sets) {
        let s = set_id as usize;
        if !covered[s - sets.start] {
            covered[s - sets.start] = true;
            newly += 1;
            for &u in collection.set(s) {
                gain[u as usize].fetch_sub(1, Relaxed);
                dirty.push(u);
            }
        }
    }
    dirty.sort_unstable();
    dirty.dedup();
    newly
}

/// One worker's report for one greedy round, over its node range.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardVote {
    /// The highest `(current_gain, node)` tuple among the range's
    /// unselected nodes with positive gain, if any.
    pub best: Option<(usize, NodeId)>,
    /// The smallest unselected node id in the range, if any.
    pub min_unselected: Option<NodeId>,
}

/// The merged outcome of one greedy round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundPick {
    /// A positive-gain argmax exists: select `node`, covering `gain`
    /// still-uncovered sets.
    Select {
        /// The chosen node.
        node: NodeId,
        /// Its marginal coverage count.
        gain: usize,
    },
    /// Every unselected node has gain 0: pad with the smallest
    /// unselected id, at marginal 0.
    Pad(NodeId),
    /// Every node is already selected.
    Exhausted,
}

/// The deterministic reduction at the heart of the sharded solver: the
/// serial argmax `max (gain, node)` (ties toward the **largest** id),
/// falling back to the smallest unselected id when every gain is zero —
/// exactly the serial lazy-heap's selection and padding order. Pure and
/// associative-by-construction: any vote partition merges to the same
/// pick.
pub fn merge_votes(votes: &[ShardVote]) -> RoundPick {
    let best = votes
        .iter()
        .filter_map(|v| v.best)
        .max_by_key(|&(gain, node)| (gain, node));
    if let Some((gain, node)) = best {
        return RoundPick::Select { node, gain };
    }
    match votes.iter().filter_map(|v| v.min_unselected).min() {
        Some(node) => RoundPick::Pad(node),
        None => RoundPick::Exhausted,
    }
}

/// Per-worker mailbox the barrier-phased rounds communicate through.
/// Plain slots written before / read after a [`Barrier`] (which provides
/// the happens-before edges), so `Relaxed` suffices throughout.
struct WorkerSlot {
    /// Vote: best local gain (0 = no candidate) and its node.
    best_gain: AtomicUsize,
    best_node: AtomicU32,
    /// Vote: smallest unselected node id (`u32::MAX` = none).
    min_unselected: AtomicU32,
    /// Apply: sets newly covered in this worker's set range this round.
    newly: AtomicUsize,
}

/// [`greedy_max_cover_sharded_indexed`] over a `&mut` collection,
/// building the inverted index first (the exact analogue of
/// [`greedy_max_cover`](crate::greedy_max_cover)).
pub fn greedy_max_cover_sharded(
    collection: &mut SetCollection,
    k: usize,
    threads: usize,
) -> CoverResult {
    collection.ensure_inverted_index();
    greedy_max_cover_sharded_indexed(collection, k, threads)
}

/// Sharded greedy max-coverage over a shared collection with a built
/// inverted index. Byte-identical to
/// [`greedy_max_cover_indexed`](crate::greedy_max_cover_indexed) — seeds,
/// marginals, and covered count — at **any** `threads` value;
/// `threads <= 1` runs the serial solver directly.
///
/// # Panics
/// Panics if the inverted index is stale
/// ([`SetsAccess::has_inverted_index`] is false).
pub fn greedy_max_cover_sharded_indexed<C: SetsAccess>(
    collection: &C,
    k: usize,
    threads: usize,
) -> CoverResult {
    greedy_max_cover_sharded_indexed_stats(collection, k, threads).0
}

/// [`greedy_max_cover_sharded_indexed`] plus the run's [`EvalStats`]
/// (candidate evaluations, heap re-pushes, and dirty-set sizes summed
/// over workers). `threads <= 1` and `k == 0` delegate to the serial
/// instrumented solver, so the stats stay comparable across the whole
/// `select_threads` range.
///
/// # Panics
/// Panics if the inverted index is stale
/// ([`SetsAccess::has_inverted_index`] is false).
pub fn greedy_max_cover_sharded_indexed_stats<C: SetsAccess>(
    collection: &C,
    k: usize,
    threads: usize,
) -> (CoverResult, EvalStats) {
    assert!(
        collection.has_inverted_index(),
        "inverted index is stale; call ensure_inverted_index first"
    );
    let n = collection.universe();
    let k = k.min(n);
    // More workers than nodes would leave some with nothing to vote on.
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 || k == 0 {
        return greedy_max_cover_indexed_stats(collection, k);
    }

    let node_ranges = shard_prefix_ranges(n, threads);
    let set_ranges = worker_set_ranges(collection.len(), threads);
    let (per, extra) = (n / threads, n % threads);
    let gain: Vec<AtomicUsize> = (0..n as NodeId)
        .map(|v| AtomicUsize::new(collection.degree(v)))
        .collect();
    let slots: Vec<WorkerSlot> = (0..threads)
        .map(|_| WorkerSlot {
            best_gain: AtomicUsize::new(0),
            best_node: AtomicU32::new(u32::MAX),
            min_unselected: AtomicU32::new(u32::MAX),
            newly: AtomicUsize::new(0),
        })
        .collect();
    // Dirty mailboxes, one per (producer, consumer) pair: producer `p`
    // appends into `dirty[p * threads + c]` during its apply phase, the
    // single consumer `c` drains it during its next vote phase. The round
    // barriers order every write before every read (and every drain
    // before the next write), so a plain Mutex per cell suffices and is
    // never contended.
    let dirty: Vec<Mutex<Vec<NodeId>>> = (0..threads * threads)
        .map(|_| Mutex::new(Vec::new()))
        .collect();
    let barrier = Barrier::new(threads);
    let total_stats = Mutex::new(EvalStats::default());

    let mut result = CoverResult {
        seeds: Vec::with_capacity(k),
        marginal: Vec::with_capacity(k),
        covered: 0,
    };

    // One worker body, run by `threads - 1` scoped threads plus the
    // caller's thread (worker 0, which also records the rounds).
    let run_worker = |t: usize, result: Option<&mut CoverResult>| {
        let nodes = node_ranges[t].clone();
        let sets = set_ranges[t].clone();
        let mut selected = vec![false; nodes.len()];
        let mut covered = vec![false; sets.len()];
        let mut stats = EvalStats::default();
        let mut recorder = result;

        // The CELF heap over this worker's range, the vote carried from
        // the previous round (`None` = not yet computed, `Some(None)` = no
        // positive-gain candidate — reusable forever, since gains never
        // increase), the monotone padding cursor, and reusable dirty
        // buffers.
        let mut heap: BinaryHeap<(usize, NodeId)> = nodes
            .clone()
            .filter(|&v| collection.degree(v as NodeId) > 0)
            .map(|v| (collection.degree(v as NodeId), v as NodeId))
            .collect();
        let mut cached: Option<Option<(usize, NodeId)>> = None;
        let mut pad_cursor = nodes.start;
        let mut dirty_local: Vec<NodeId> = Vec::new();
        let mut outbox: Vec<Vec<NodeId>> = vec![Vec::new(); threads];

        for _round in 0..k {
            // Vote phase: local argmax and local padding candidate.
            // First drain incoming dirt from the previous apply phase.
            // The cached vote survives only if its node's gain is
            // untouched (gains elsewhere in the range can only have
            // decreased, so they cannot overtake it).
            let mut cached_node_dirty = false;
            for p in 0..threads {
                let mut cell = dirty[p * threads + t].lock().unwrap();
                // A cell holds one producer's single sorted append
                // per round (drained here before the next), so a
                // binary search suffices.
                if let Some(Some((_, v))) = cached {
                    if cell.binary_search(&v).is_ok() {
                        cached_node_dirty = true;
                    }
                }
                cell.clear();
            }
            let reusable = match cached {
                Some(Some((_, v))) => !cached_node_dirty && !selected[v as usize - nodes.start],
                Some(None) => true,
                None => false,
            };
            let best = if reusable {
                cached.unwrap()
            } else {
                // CELF lazy pops: a popped entry whose cached gain is
                // still current is the exact range argmax, because
                // every other entry's cached gain is an upper bound
                // on its current gain (submodularity).
                let found = loop {
                    match heap.pop() {
                        Some((stored, v)) => {
                            if selected[v as usize - nodes.start] {
                                continue;
                            }
                            stats.evals += 1;
                            let current = gain[v as usize].load(Relaxed);
                            if stored == current {
                                // Fresh: keep the entry for later
                                // rounds and vote with it.
                                heap.push((current, v));
                                break Some((current, v));
                            }
                            if current > 0 {
                                heap.push((current, v));
                                stats.repushes += 1;
                            }
                        }
                        None => break None,
                    }
                };
                cached = Some(found);
                found
            };
            while pad_cursor < nodes.end && selected[pad_cursor - nodes.start] {
                pad_cursor += 1;
            }
            let min_unselected = if pad_cursor < nodes.end {
                pad_cursor as NodeId
            } else {
                u32::MAX
            };
            let slot = &slots[t];
            let (bg, bv) = best.unwrap_or((0, u32::MAX));
            slot.best_gain.store(bg, Relaxed);
            slot.best_node.store(bv, Relaxed);
            slot.min_unselected.store(min_unselected, Relaxed);
            barrier.wait();

            // Merge phase, replicated: every worker decodes the same
            // votes and reduces them identically.
            let votes: Vec<ShardVote> = slots
                .iter()
                .map(|s| {
                    let g = s.best_gain.load(Relaxed);
                    let min = s.min_unselected.load(Relaxed);
                    ShardVote {
                        best: (g > 0).then(|| (g, s.best_node.load(Relaxed))),
                        min_unselected: (min != u32::MAX).then_some(min),
                    }
                })
                .collect();
            let pick = merge_votes(&votes);

            // Apply phase: mark the pick selected in its owner's range,
            // and cover the chosen node's sets within this worker's
            // set-id slice, decrementing member gains atomically, and
            // route each dirty node to its owner's mailbox.
            let chosen = match pick {
                RoundPick::Select { node, .. } => {
                    let newly = apply_pick_in_range(
                        collection,
                        node,
                        &sets,
                        &mut covered,
                        &gain,
                        &mut dirty_local,
                    );
                    slot.newly.store(newly, Relaxed);
                    stats.dirty += dirty_local.len();
                    for &u in &dirty_local {
                        outbox[node_owner(per, extra, u as usize)].push(u);
                    }
                    for (c, buf) in outbox.iter_mut().enumerate() {
                        if !buf.is_empty() {
                            dirty[t * threads + c].lock().unwrap().append(buf);
                        }
                    }
                    node
                }
                RoundPick::Pad(node) => node,
                // k is clamped to n and every round selects a distinct
                // node, so rounds never outrun the universe.
                RoundPick::Exhausted => unreachable!("fewer rounds than nodes"),
            };
            if nodes.contains(&(chosen as usize)) {
                selected[chosen as usize - nodes.start] = true;
            }
            barrier.wait();

            // Record phase (worker 0 only): the merged marginal is the
            // sum of the per-worker newly-covered counts — the other
            // workers are already voting on the next round, which cannot
            // touch the `newly` slots before the next barrier.
            if let Some(rec) = recorder.as_deref_mut() {
                match pick {
                    RoundPick::Select { node, .. } => {
                        let newly: usize = slots.iter().map(|s| s.newly.load(Relaxed)).sum();
                        debug_assert_eq!(gain[node as usize].load(Relaxed), 0);
                        rec.covered += newly;
                        rec.seeds.push(node);
                        rec.marginal.push(newly);
                    }
                    RoundPick::Pad(node) => {
                        rec.seeds.push(node);
                        rec.marginal.push(0);
                    }
                    RoundPick::Exhausted => unreachable!(),
                }
            }
        }
        stats.rounds = k;
        total_stats.lock().unwrap().absorb(&stats);
    };

    std::thread::scope(|scope| {
        for t in 1..threads {
            let worker = &run_worker;
            scope.spawn(move || worker(t, None));
        }
        run_worker(0, Some(&mut result));
    });
    let stats = total_stats.into_inner().unwrap();
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy_max_cover, greedy_max_cover_indexed};
    use tim_rng::{RandomSource, Rng};

    fn collection(sets: &[&[NodeId]], n: usize) -> SetCollection {
        let mut c = SetCollection::new(n);
        for s in sets {
            c.push(s);
        }
        c
    }

    fn random_collection(rng: &mut Rng, n: usize, sets: usize, max_size: usize) -> SetCollection {
        let mut c = SetCollection::new(n);
        for _ in 0..sets {
            let size = rng.next_index(max_size + 1);
            let mut members: Vec<NodeId> = (0..size).map(|_| rng.next_index(n) as u32).collect();
            members.sort_unstable();
            members.dedup();
            c.push(&members);
        }
        c
    }

    #[test]
    fn shard_prefix_ranges_are_balanced_and_cover() {
        for (len, shards) in [(0, 4), (1, 4), (7, 3), (64, 64), (100, 64), (5, 8)] {
            let ranges = shard_prefix_ranges(len, shards);
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, len);
            let mut total = 0;
            let mut prev_end = 0;
            for r in &ranges {
                assert_eq!(r.start, prev_end, "ranges must be contiguous");
                prev_end = r.end;
                total += r.len();
                assert!(r.len() == len / shards || r.len() == len / shards + 1);
            }
            assert_eq!(total, len);
        }
    }

    #[test]
    fn node_owner_matches_the_prefix_ranges() {
        for (n, threads) in [(1, 1), (7, 3), (8, 3), (64, 8), (100, 7), (5, 5)] {
            let ranges = shard_prefix_ranges(n, threads);
            let (per, extra) = (n / threads, n % threads);
            for u in 0..n {
                let want = ranges.iter().position(|r| r.contains(&u)).unwrap();
                assert_eq!(
                    node_owner(per, extra, u),
                    want,
                    "n={n} threads={threads} u={u}"
                );
            }
        }
    }

    #[test]
    fn worker_set_ranges_cover_and_respect_shard_boundaries() {
        for (len, threads) in [(0, 2), (100, 1), (100, 2), (100, 8), (100, 100), (3, 4)] {
            let ranges = worker_set_ranges(len, threads);
            assert_eq!(ranges.len(), threads);
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, len);
            let shards = shard_prefix_ranges(len, SELECT_SHARDS);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                // Worker boundaries always land on shard boundaries.
                assert!(
                    w[0].end == len || shards.iter().any(|s| s.start == w[0].end),
                    "len={len} threads={threads}: boundary {} off-shard",
                    w[0].end
                );
            }
        }
    }

    #[test]
    fn sets_in_range_partitions_the_membership_list() {
        let mut c = collection(&[&[1], &[0, 1], &[1, 2], &[2], &[1]], 3);
        c.ensure_inverted_index();
        assert_eq!(c.sets_containing(1), &[0, 1, 2, 4]);
        assert_eq!(sets_in_range(&c, 1, &(0..2)), &[0, 1]);
        assert_eq!(sets_in_range(&c, 1, &(2..5)), &[2, 4]);
        assert_eq!(sets_in_range(&c, 1, &(3..4)), &[] as &[u32]);
        assert_eq!(sets_in_range(&c, 1, &(0..5)), &[0, 1, 2, 4]);
        // Any partition of 0..len splits the list without loss.
        for mid in 0..=5 {
            let left = sets_in_range(&c, 1, &(0..mid)).len();
            let right = sets_in_range(&c, 1, &(mid..5)).len();
            assert_eq!(left + right, 4);
        }
    }

    #[test]
    fn apply_pick_collects_exactly_the_changed_gains() {
        let mut c = collection(&[&[1], &[0, 1], &[1, 2], &[2], &[1]], 3);
        c.ensure_inverted_index();
        let gain: Vec<AtomicUsize> = (0..3).map(|v| AtomicUsize::new(c.degree(v))).collect();
        let before: Vec<usize> = gain.iter().map(|g| g.load(Relaxed)).collect();
        let mut covered = vec![false; c.len()];
        // Pre-cover set 1 so node 0 must stay clean.
        covered[1] = true;
        let mut dirty = vec![99u32]; // stale content must be cleared
        let newly = apply_pick_in_range(&c, 1, &(0..5), &mut covered, &gain, &mut dirty);
        assert_eq!(newly, 3, "sets 0, 2, 4 newly covered");
        assert_eq!(dirty, vec![1, 2], "members of newly covered sets only");
        for v in 0..3u32 {
            let changed = gain[v as usize].load(Relaxed) != before[v as usize];
            assert_eq!(changed, dirty.contains(&v), "node {v}");
        }
    }

    #[test]
    fn merge_votes_reduces_like_the_serial_heap() {
        // Max (gain, node), ties toward the larger id.
        let pick = merge_votes(&[
            ShardVote {
                best: Some((3, 7)),
                min_unselected: Some(0),
            },
            ShardVote {
                best: Some((3, 9)),
                min_unselected: Some(8),
            },
            ShardVote {
                best: Some((2, 11)),
                min_unselected: None,
            },
        ]);
        assert_eq!(pick, RoundPick::Select { node: 9, gain: 3 });
        // All-zero gains pad with the globally smallest unselected id.
        let pick = merge_votes(&[
            ShardVote {
                best: None,
                min_unselected: Some(5),
            },
            ShardVote {
                best: None,
                min_unselected: Some(2),
            },
        ]);
        assert_eq!(pick, RoundPick::Pad(2));
        // Nothing left anywhere.
        assert_eq!(merge_votes(&[ShardVote::default()]), RoundPick::Exhausted);
        assert_eq!(merge_votes(&[]), RoundPick::Exhausted);
    }

    #[test]
    fn sharded_matches_serial_on_fixed_instances() {
        let cases: &[(&[&[NodeId]], usize, usize)] = &[
            (&[&[9, 0], &[9, 1], &[9, 2], &[3]], 10, 2),
            (&[&[0, 1], &[1, 2], &[2, 0], &[3, 1]], 4, 4),
            (&[&[0]], 5, 3),                // padding rounds
            (&[&[0, 1, 2], &[2, 3]], 5, 5), // covers everything then pads
        ];
        for &(sets, n, k) in cases {
            let mut c = collection(sets, n);
            let want = greedy_max_cover(&mut c, k);
            for threads in [1, 2, 3, 4, 8, 64, 100] {
                let got = greedy_max_cover_sharded_indexed(&c, k, threads);
                assert_eq!(got, want, "threads={threads} n={n} k={k}");
            }
        }
    }

    #[test]
    fn sharded_matches_serial_on_random_instances() {
        let mut rng = Rng::seed_from_u64(0x5EED);
        for trial in 0..30 {
            let n = 2 + rng.next_index(60);
            let sets = rng.next_index(120);
            let mut c = random_collection(&mut rng, n, sets, 6);
            let k = 1 + rng.next_index(n);
            let want = greedy_max_cover(&mut c, k);
            for threads in [2, 3, 4, 7, 8] {
                let got = greedy_max_cover_sharded_indexed(&c, k, threads);
                assert_eq!(got, want, "trial={trial} threads={threads}");
            }
        }
    }

    #[test]
    fn lazy_evaluates_fewer_candidates_than_eager() {
        // A skewed instance with many rounds: an eager full-range scan
        // would pay all n nodes every round, the lazy heaps a handful of
        // pops.
        let mut rng = Rng::seed_from_u64(0xCE1F);
        let mut c = random_collection(&mut rng, 400, 2_000, 8);
        c.ensure_inverted_index();
        let (lazy, ls) = greedy_max_cover_sharded_indexed_stats(&c, 40, 4);
        assert_eq!(lazy, greedy_max_cover_indexed(&c, 40));
        assert_eq!(ls.rounds, 40);
        assert!(ls.dirty > 0, "selected rounds must report dirty nodes");
        let full_scan = c.universe() * ls.rounds;
        assert!(
            ls.evals * 5 <= full_scan,
            "lazy {} vs full-scan {} evaluations",
            ls.evals,
            full_scan
        );
    }

    #[test]
    fn mut_entry_point_builds_the_index() {
        let mut c = collection(&[&[0, 1], &[1, 2]], 3);
        assert!(!c.has_inverted_index());
        let got = greedy_max_cover_sharded(&mut c, 2, 4);
        assert!(c.has_inverted_index());
        assert_eq!(got, greedy_max_cover_indexed(&c, 2));
    }

    #[test]
    fn empty_collection_pads_identically() {
        let mut c = SetCollection::new(4);
        c.ensure_inverted_index();
        let want = greedy_max_cover_indexed(&c, 3);
        for threads in [2, 4] {
            assert_eq!(greedy_max_cover_sharded_indexed(&c, 3, threads), want);
        }
        assert_eq!(want.seeds, vec![0, 1, 2], "padding picks smallest ids");
    }

    #[test]
    fn k_larger_than_universe_is_clamped() {
        let mut c = collection(&[&[0, 1]], 2);
        c.ensure_inverted_index();
        let got = greedy_max_cover_sharded_indexed(&c, 10, 4);
        assert_eq!(got.seeds.len(), 2);
        assert_eq!(got, greedy_max_cover_indexed(&c, 10));
    }

    #[test]
    fn single_thread_stats_match_the_serial_solver() {
        let mut c = collection(&[&[9, 0], &[9, 1], &[9, 2], &[3], &[1, 2]], 10);
        c.ensure_inverted_index();
        let want = greedy_max_cover_indexed_stats(&c, 3);
        assert_eq!(greedy_max_cover_sharded_indexed_stats(&c, 3, 1), want);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_index_panics() {
        let c = collection(&[&[0, 1]], 3);
        let _ = greedy_max_cover_sharded_indexed(&c, 1, 2);
    }
}
