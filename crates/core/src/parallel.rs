//! Deterministic (optionally parallel) bulk RR-set generation.
//!
//! The paper lists distributing TIM as future work (§8); sampling θ
//! independent RR sets is embarrassingly parallel, so this module provides
//! it as an extension. Determinism is preserved by sharding the work into a
//! fixed number of shards with `jump()`-separated RNG streams: the produced
//! multiset of RR sets is a pure function of `(seed, θ)` and identical for
//! every thread count.

use tim_coverage::SetCollection;
use tim_diffusion::{DiffusionModel, RrSampler, RrStats};
use tim_graph::CsrAccess;
use tim_rng::Rng;

/// Fixed shard count, chosen so shards are plentiful enough to balance yet
/// results never depend on how many threads execute them.
pub const SHARDS: u64 = 64;

/// Per-shard set counts for a `theta`-set generation run: shard `i`
/// produces `shard_layout(theta)[i]` sets, and the output collection is
/// the shard-order concatenation.
///
/// Two properties make pools **prefix-composable**, which `tim_engine`
/// exploits to serve smaller-θ queries from a larger persisted pool
/// without resampling:
///
/// 1. shard `i`'s RNG stream depends only on `(seed, i)`, never on θ, so
///    shard `i`'s `j`-th set is the same in every run that reaches it;
/// 2. `shard_layout(θ)[i]` is non-decreasing in θ (growing θ by one adds
///    exactly one set to one shard).
///
/// Hence the collection for any `θ' ≤ θ` is recovered exactly by taking
/// the first `shard_layout(θ')[i]` sets of each shard of the θ-run.
pub fn shard_layout(theta: u64) -> Vec<u64> {
    let shards = SHARDS.min(theta.max(1));
    let per = theta / shards;
    let extra = theta % shards;
    (0..shards).map(|i| per + u64::from(i < extra)).collect()
}

/// Aggregate statistics of a bulk generation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BulkStats {
    /// Σ w(R) over all generated sets.
    pub total_width: u64,
    /// Σ draws over all generated sets.
    pub total_draws: u64,
    /// Σ |R| over all generated sets.
    pub total_nodes: u64,
}

impl BulkStats {
    fn add(&mut self, s: RrStats) {
        self.total_width += s.width;
        self.total_draws += s.draws;
        self.total_nodes += s.nodes;
    }

    fn merge(&mut self, o: BulkStats) {
        self.total_width += o.total_width;
        self.total_draws += o.total_draws;
        self.total_nodes += o.total_nodes;
    }
}

/// Generates `theta` random RR sets into a [`SetCollection`] — the
/// node-selection stream.
///
/// `threads = 1` runs inline; larger values use scoped worker threads. The
/// output is identical for any `threads` value — and for any graph
/// backing: the shard RNG streams depend only on `(seed, shard)`, so a
/// heap [`Graph`](tim_graph::Graph) and an
/// [`MmapCsr`](tim_graph::MmapCsr) view of the same snapshot produce
/// bit-identical collections.
///
/// IC nodes whose in-edges share one probability are drawn by geometric
/// jumps ([`RrSampler::jumping`]); the estimation phases sample with
/// [`generate_rr_sets_per_edge`] instead.
pub fn generate_rr_sets<G: CsrAccess, M: DiffusionModel<G> + Sync>(
    graph: &G,
    model: &M,
    theta: u64,
    seed: u64,
    threads: usize,
) -> (SetCollection, BulkStats) {
    generate(graph, model, theta, seed, threads, RrSampler::jumping)
}

/// [`generate_rr_sets`] with one coin per in-edge under IC, as the paper
/// samples ([`RrSampler::new`]). Same distribution, different stream:
/// the estimation phases keep it so their RR sets — and hence KPT⁺ and
/// every θ — do not depend on the selection sampler.
pub fn generate_rr_sets_per_edge<G: CsrAccess, M: DiffusionModel<G> + Sync>(
    graph: &G,
    model: &M,
    theta: u64,
    seed: u64,
    threads: usize,
) -> (SetCollection, BulkStats) {
    generate(graph, model, theta, seed, threads, RrSampler::new)
}

fn generate<'m, G: CsrAccess, M: DiffusionModel<G> + Sync>(
    graph: &G,
    model: &'m M,
    theta: u64,
    seed: u64,
    threads: usize,
    sampler: fn(&'m M) -> RrSampler<&'m M>,
) -> (SetCollection, BulkStats) {
    assert!(graph.n() >= 1, "generate_rr_sets: empty graph");
    let mut base = Rng::seed_from_u64(seed);
    let shard_counts = shard_layout(theta);
    let shards = shard_counts.len() as u64;
    let mut shard_rngs: Vec<Rng> = (0..shards).map(|_| base.split_off()).collect();

    // Without the `parallel` feature every request runs the inline path;
    // output is identical either way, only wall-clock differs.
    let threads = if cfg!(feature = "parallel") {
        threads.max(1).min(shards as usize)
    } else {
        1
    };
    if threads == 1 {
        let mut collection =
            SetCollection::with_capacity(graph.n(), theta as usize, theta as usize * 2);
        let mut stats = BulkStats::default();
        let mut sampler = sampler(model);
        let mut buf = Vec::new();
        for (rng, &count) in shard_rngs.iter_mut().zip(&shard_counts) {
            for _ in 0..count {
                let (_, s) = sampler.sample_random(graph, rng, &mut buf);
                stats.add(s);
                collection.push(&buf);
            }
        }
        return (collection, stats);
    }

    // Parallel path: each shard produces a local collection; merge in shard
    // order so the result is thread-count independent.
    let mut locals: Vec<Option<(SetCollection, BulkStats)>> =
        (0..shards as usize).map(|_| None).collect();
    let chunk = (shards as usize).div_ceil(threads);
    std::thread::scope(|scope| {
        for ((rng_chunk, count_chunk), out_chunk) in shard_rngs
            .chunks_mut(chunk)
            .zip(shard_counts.chunks(chunk))
            .zip(locals.chunks_mut(chunk))
        {
            scope.spawn(move || {
                let mut sampler = sampler(model);
                let mut buf = Vec::new();
                for ((rng, &count), slot) in rng_chunk
                    .iter_mut()
                    .zip(count_chunk)
                    .zip(out_chunk.iter_mut())
                {
                    let mut local =
                        SetCollection::with_capacity(graph.n(), count as usize, count as usize * 2);
                    let mut stats = BulkStats::default();
                    for _ in 0..count {
                        let (_, s) = sampler.sample_random(graph, rng, &mut buf);
                        stats.add(s);
                        local.push(&buf);
                    }
                    *slot = Some((local, stats));
                }
            });
        }
    });

    let mut collection =
        SetCollection::with_capacity(graph.n(), theta as usize, theta as usize * 2);
    let mut stats = BulkStats::default();
    for slot in locals {
        let (local, s) = slot.expect("all shards must complete");
        stats.merge(s);
        for i in 0..local.len() {
            collection.push(local.set(i));
        }
    }
    (collection, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tim_diffusion::IndependentCascade;
    use tim_graph::{gen, weights, Graph};

    fn graph() -> Graph {
        let mut g = gen::barabasi_albert(200, 4, 0.0, 1);
        weights::assign_weighted_cascade(&mut g);
        g
    }

    #[test]
    fn generates_exactly_theta_sets() {
        let g = graph();
        let (c, stats) = generate_rr_sets(&g, &IndependentCascade, 500, 2, 1);
        assert_eq!(c.len(), 500);
        assert_eq!(stats.total_nodes as usize, c.total_members());
    }

    #[test]
    fn parallel_output_is_identical_to_serial() {
        let g = graph();
        let (c1, s1) = generate_rr_sets(&g, &IndependentCascade, 300, 3, 1);
        let (c4, s4) = generate_rr_sets(&g, &IndependentCascade, 300, 3, 4);
        assert_eq!(c1.len(), c4.len());
        assert_eq!(s1.total_width, s4.total_width);
        assert_eq!(s1.total_nodes, s4.total_nodes);
        for i in 0..c1.len() {
            assert_eq!(c1.set(i), c4.set(i), "set {i} differs");
        }
    }

    #[test]
    fn different_seeds_give_different_collections() {
        let g = graph();
        let (c1, _) = generate_rr_sets(&g, &IndependentCascade, 100, 4, 2);
        let (c2, _) = generate_rr_sets(&g, &IndependentCascade, 100, 5, 2);
        let same = (0..100).all(|i| c1.set(i) == c2.set(i));
        assert!(!same);
    }

    #[test]
    fn theta_smaller_than_shards_works() {
        let g = graph();
        let (c, _) = generate_rr_sets(&g, &IndependentCascade, 3, 6, 8);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn pools_are_prefix_composable() {
        // The property tim_engine's warm-pool replay rests on: a θ'-run is
        // recovered exactly from a θ-run (θ' <= θ) by taking the first
        // shard_layout(θ')[i] sets of each shard.
        let g = graph();
        let (big, _) = generate_rr_sets(&g, &IndependentCascade, 500, 9, 2);
        let big_counts = shard_layout(500);
        for theta in [1u64, 3, 63, 64, 65, 200, 499, 500] {
            let (small, _) = generate_rr_sets(&g, &IndependentCascade, theta, 9, 1);
            let want = shard_layout(theta);
            let mut idx = 0usize;
            let mut start = 0usize;
            for (i, &pool_count) in big_counts.iter().enumerate() {
                let take = want.get(i).copied().unwrap_or(0) as usize;
                for j in 0..take {
                    assert_eq!(
                        small.set(idx),
                        big.set(start + j),
                        "theta={theta} shard={i} set={j}"
                    );
                    idx += 1;
                }
                start += pool_count as usize;
            }
            assert_eq!(idx, small.len());
        }
    }

    #[test]
    fn shard_layout_sums_to_theta_and_is_monotone() {
        let mut prev = shard_layout(0);
        assert_eq!(prev.iter().sum::<u64>(), 0);
        for theta in 1..300u64 {
            let counts = shard_layout(theta);
            assert_eq!(counts.iter().sum::<u64>(), theta);
            assert!(counts.len() as u64 <= SHARDS);
            for (i, &c) in counts.iter().enumerate() {
                let p = prev.get(i).copied().unwrap_or(0);
                assert!(c >= p, "theta={theta} shard={i}: {c} < {p}");
            }
            prev = counts;
        }
    }

    #[test]
    fn select_sharding_matches_sampling_shard_layout() {
        // The sharded greedy solver partitions the pool by the same
        // shard-prefix arithmetic that sampling uses, so a "shard" means
        // the same slice of sets in both phases. Pin the two together.
        use tim_coverage::sharded::{shard_prefix_ranges, SELECT_SHARDS};
        assert_eq!(SELECT_SHARDS as u64, SHARDS);
        for theta in [64u64, 65, 100, 1_000, 4_099] {
            let counts = shard_layout(theta);
            let ranges = shard_prefix_ranges(theta as usize, SELECT_SHARDS);
            assert_eq!(counts.len(), ranges.len());
            for (i, (c, r)) in counts.iter().zip(&ranges).enumerate() {
                assert_eq!(*c, r.len() as u64, "theta={theta} shard={i}");
            }
        }
    }

    #[test]
    fn zero_theta_yields_empty_collection() {
        let g = graph();
        let (c, stats) = generate_rr_sets(&g, &IndependentCascade, 0, 7, 2);
        assert!(c.is_empty());
        assert_eq!(stats.total_nodes, 0);
    }
}
