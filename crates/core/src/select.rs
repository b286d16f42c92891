//! Algorithm 1 — `NodeSelection`.
//!
//! Samples θ random RR sets and solves the induced maximum-coverage
//! instance greedily. Given θ ≥ λ/OPT (Equation 5), the returned seed set
//! is a `(1 − 1/e − ε)`-approximation with probability `1 − n^(−ℓ)`
//! (Theorem 1).

use crate::parallel::{generate_rr_sets, BulkStats};
use crate::tim::GreedyImpl;
use tim_coverage::{greedy_max_cover_bucket, greedy_max_cover_sharded, CoverResult, SetCollection};
use tim_diffusion::DiffusionModel;
use tim_graph::{CsrAccess, NodeId};

/// Resolves a `select_threads` knob to a worker count: `0` means all
/// cores, anything else is taken literally. Without the `parallel`
/// feature every value resolves to 1 (serial), like sampling.
pub fn resolve_select_threads(select_threads: usize) -> usize {
    if !cfg!(feature = "parallel") {
        return 1;
    }
    if select_threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        select_threads
    }
}

/// Runs the configured greedy solver over `collection`, sharding the
/// lazy-heap solver across [`resolve_select_threads`]`(select_threads)`
/// workers (one worker runs the serial solver). The thread count never
/// changes the result — the sharded solver is byte-identical to the
/// serial one — so callers may tune it freely.
pub(crate) fn run_greedy(
    collection: &mut SetCollection,
    k: usize,
    greedy: GreedyImpl,
    select_threads: usize,
) -> CoverResult {
    match greedy {
        GreedyImpl::LazyHeap => {
            greedy_max_cover_sharded(collection, k, resolve_select_threads(select_threads))
        }
        GreedyImpl::BucketQueue => greedy_max_cover_bucket(collection, k),
    }
}

/// Output of [`node_selection`].
#[derive(Debug)]
pub struct Selection {
    /// The chosen size-`k` seed set, in greedy order.
    pub seeds: Vec<NodeId>,
    /// `n · F_R(S)`: the coverage-based unbiased estimate of `E[I(S)]`
    /// (Corollary 1).
    pub estimated_spread: f64,
    /// Fraction of RR sets covered by the seeds.
    pub coverage_fraction: f64,
    /// Number of RR sets sampled (θ).
    pub theta: u64,
    /// Peak bytes held by the RR-set arena (Figure 12's dominant term).
    pub rr_memory_bytes: usize,
    /// Aggregate sampling statistics.
    pub stats: BulkStats,
}

/// Runs Algorithm 1: samples `theta` RR sets under `model` and greedily
/// selects `k` nodes. `threads` drives sampling, `select_threads` the
/// greedy phase ([`resolve_select_threads`]; 1 = serial, 0 = all cores);
/// neither ever changes the answer.
#[allow(clippy::too_many_arguments)]
pub fn node_selection<G: CsrAccess, M: DiffusionModel<G> + Sync>(
    graph: &G,
    model: &M,
    k: usize,
    theta: u64,
    seed: u64,
    threads: usize,
    select_threads: usize,
    greedy: GreedyImpl,
) -> Selection {
    let (mut collection, stats) = generate_rr_sets(graph, model, theta, seed, threads);
    let rr_memory_bytes = collection.memory_bytes();
    let cover: CoverResult = run_greedy(&mut collection, k, greedy, select_threads);
    let frac = cover.coverage_fraction(collection.len());
    Selection {
        estimated_spread: frac * graph.n() as f64,
        coverage_fraction: frac,
        seeds: cover.seeds,
        theta,
        rr_memory_bytes: rr_memory_bytes.max(collection.memory_bytes()),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tim_diffusion::{IndependentCascade, SpreadEstimator};
    use tim_graph::{gen, weights, GraphBuilder};

    #[test]
    fn selects_k_distinct_seeds() {
        let mut g = gen::barabasi_albert(150, 3, 0.0, 1);
        weights::assign_weighted_cascade(&mut g);
        let sel = node_selection(
            &g,
            &IndependentCascade,
            10,
            2_000,
            2,
            1,
            1,
            GreedyImpl::LazyHeap,
        );
        assert_eq!(sel.seeds.len(), 10);
        let mut s = sel.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10);
        assert!(sel.coverage_fraction > 0.0 && sel.coverage_fraction <= 1.0);
    }

    #[test]
    fn obvious_hub_is_selected_first() {
        // Star: 0 -> everyone with p = 1. RR set of any node contains 0.
        let n = 50;
        let mut b = GraphBuilder::new(n);
        for v in 1..n as u32 {
            b.add_edge_with_probability(0, v, 1.0);
        }
        let g = b.build();
        let sel = node_selection(
            &g,
            &IndependentCascade,
            1,
            500,
            3,
            1,
            1,
            GreedyImpl::LazyHeap,
        );
        assert_eq!(sel.seeds, vec![0]);
        assert_eq!(sel.coverage_fraction, 1.0);
        assert_eq!(sel.estimated_spread, n as f64);
    }

    #[test]
    fn coverage_estimate_tracks_monte_carlo_spread() {
        let mut g = gen::barabasi_albert(300, 4, 0.0, 4);
        weights::assign_weighted_cascade(&mut g);
        let sel = node_selection(
            &g,
            &IndependentCascade,
            5,
            20_000,
            5,
            2,
            2,
            GreedyImpl::LazyHeap,
        );
        let mc = SpreadEstimator::new(IndependentCascade)
            .runs(20_000)
            .seed(6)
            .estimate(&g, &sel.seeds);
        let rel = (sel.estimated_spread - mc).abs() / mc;
        assert!(
            rel < 0.1,
            "coverage estimate {} vs MC {} (rel {rel})",
            sel.estimated_spread,
            mc
        );
    }

    #[test]
    fn greedy_variants_give_same_quality() {
        let mut g = gen::barabasi_albert(200, 3, 0.0, 7);
        weights::assign_weighted_cascade(&mut g);
        let a = node_selection(
            &g,
            &IndependentCascade,
            8,
            5_000,
            8,
            1,
            1,
            GreedyImpl::LazyHeap,
        );
        let b = node_selection(
            &g,
            &IndependentCascade,
            8,
            5_000,
            8,
            1,
            1,
            GreedyImpl::BucketQueue,
        );
        let rel = (a.coverage_fraction - b.coverage_fraction).abs() / a.coverage_fraction.max(1e-9);
        assert!(
            rel < 0.02,
            "lazy {} vs bucket {}",
            a.coverage_fraction,
            b.coverage_fraction
        );
    }

    #[test]
    fn selection_is_deterministic_across_thread_counts() {
        let mut g = gen::barabasi_albert(150, 3, 0.0, 9);
        weights::assign_weighted_cascade(&mut g);
        let a = node_selection(
            &g,
            &IndependentCascade,
            5,
            3_000,
            10,
            1,
            1,
            GreedyImpl::LazyHeap,
        );
        // Both sampling and selection thread counts vary; the answer may
        // not (0 = all cores exercises the auto-resolution path too).
        for (threads, select_threads) in [(4, 2), (2, 4), (1, 8), (4, 0)] {
            let b = node_selection(
                &g,
                &IndependentCascade,
                5,
                3_000,
                10,
                threads,
                select_threads,
                GreedyImpl::LazyHeap,
            );
            assert_eq!(a.seeds, b.seeds, "select_threads={select_threads}");
            assert_eq!(a.estimated_spread, b.estimated_spread);
        }
    }
}
