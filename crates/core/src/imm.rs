//! IMM — Influence Maximization via Martingales (Tang, Shi, Xiao;
//! SIGMOD 2015), the authors' follow-up that supersedes TIM+'s parameter
//! estimation.
//!
//! This is the extension feature of this workspace (the TIM paper's §8
//! future work points toward cheaper estimation; IMM is what the authors
//! published next). Differences from TIM+:
//!
//! - **One sampling pool.** IMM grows a single RR-set collection across
//!   estimation iterations and reuses it for the final selection. The sets
//!   are no longer independent given the data-dependent stopping rule, but
//!   martingale concentration bounds replace the Chernoff bounds, so the
//!   `(1 − 1/e − ε)` guarantee survives with probability `1 − n^(−ℓ)`.
//! - **Search for a lower bound `LB` on OPT** by statistical testing: at
//!   iteration `i`, with `x = n/2^i` and `θ_i = λ′/x` sets, run greedy; if
//!   the covered fraction certifies spread ≥ `(1 + ε′)·x`, stop with
//!   `LB = n·F_R(S_i)/(1 + ε′)`.
//! - Final θ = `λ*/LB` with the tighter constant
//!   `λ* = 2n·((1 − 1/e)·α + β)²·ε^(−2)`.
//!
//! The module reuses this workspace's RR sampler and coverage solver, so
//! IMM, TIM and TIM+ are directly comparable (see the `ablation`
//! experiment).

use crate::math::ln_choose;
use crate::select::run_greedy;
use crate::tim::{GreedyImpl, PhaseTimings};
use std::time::Instant;
use tim_coverage::{CoverResult, SetCollection};
use tim_diffusion::{DiffusionModel, RrSampler};
use tim_graph::{Graph, NodeId};
use tim_rng::Rng;

/// Output of an IMM run.
#[derive(Debug, Clone)]
pub struct ImmResult {
    /// The selected size-`k` seed set, in greedy order.
    pub seeds: Vec<NodeId>,
    /// Total RR sets in the final collection (sampling + top-up).
    pub theta: u64,
    /// The certified lower bound on OPT found by the sampling phase.
    pub lb: f64,
    /// Iterations used by the sampling phase.
    pub sampling_iterations: u32,
    /// `n · F_R(S)` for the final seeds.
    pub estimated_spread: f64,
    /// Fraction of RR sets covered by the final seeds.
    pub coverage_fraction: f64,
    /// Peak bytes of the RR arena.
    pub rr_memory_bytes: usize,
    /// Wall-clock per phase (`parameter_estimation` = sampling phase,
    /// `refinement` unused, `node_selection` = final greedy).
    pub phases: PhaseTimings,
}

/// The IMM algorithm.
#[derive(Debug, Clone)]
pub struct Imm<M> {
    model: M,
    epsilon: f64,
    ell: f64,
    seed: u64,
    select_threads: usize,
    greedy: GreedyImpl,
}

impl<M: DiffusionModel + Sync> Imm<M> {
    /// Creates an IMM runner with the paper's defaults (ε = 0.1, ℓ = 1).
    pub fn new(model: M) -> Self {
        Self {
            model,
            epsilon: 0.1,
            ell: 1.0,
            seed: 0,
            select_threads: 1,
            greedy: GreedyImpl::LazyHeap,
        }
    }

    /// Sets the approximation slack ε.
    #[must_use]
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        self.epsilon = epsilon;
        self
    }

    /// Sets the failure exponent ℓ.
    #[must_use]
    pub fn ell(mut self, ell: f64) -> Self {
        assert!(ell > 0.0, "ell must be positive");
        self.ell = ell;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads for the greedy selection steps (default 1 = serial;
    /// 0 = all cores). Never changes the answer.
    #[must_use]
    pub fn select_threads(mut self, select_threads: usize) -> Self {
        self.select_threads = select_threads;
        self
    }

    /// Chooses the greedy max-coverage implementation.
    #[must_use]
    pub fn greedy(mut self, greedy: GreedyImpl) -> Self {
        self.greedy = greedy;
        self
    }

    fn cover(&self, collection: &mut SetCollection, k: usize) -> CoverResult {
        run_greedy(collection, k, self.greedy, self.select_threads)
    }

    /// Selects `k` seeds on `graph`.
    ///
    /// # Panics
    /// Panics if the graph has fewer than 2 nodes or no edges, or `k == 0`.
    pub fn run(&self, graph: &Graph, k: usize) -> ImmResult {
        assert!(k >= 1, "k must be at least 1");
        assert!(graph.n() >= 2, "graph must have at least 2 nodes");
        assert!(graph.m() >= 1, "graph must have at least 1 edge");
        let k = k.min(graph.n());
        let n = graph.n() as f64;
        let n_u = graph.n() as u64;

        // IMM §4.2: run with ℓ' = ℓ·(1 + ln 2 / ln n) so the union of the
        // two phases' failure probabilities stays below n^-ℓ.
        let ell = self.ell * (1.0 + 2.0f64.ln() / n.ln());
        let eps = self.epsilon;
        let ln_cnk = ln_choose(n_u, k as u64);
        let log2n = n.log2();

        // Sampling phase (IMM Algorithm 2).
        let eps_p = eps * std::f64::consts::SQRT_2;
        let lambda_p =
            (2.0 + 2.0 * eps_p / 3.0) * (ln_cnk + ell * n.ln() + log2n.max(1.0).ln()) * n
                / (eps_p * eps_p);

        let mut rng = Rng::seed_from_u64(self.seed);
        let mut sampler = RrSampler::new(&self.model);
        let mut collection = SetCollection::new(graph.n());
        let mut buf: Vec<NodeId> = Vec::new();

        let t0 = Instant::now();
        let mut lb = 1.0f64;
        let mut iterations = 0u32;
        let max_iter = (log2n.floor() as i64 - 1).max(1) as u32;
        for i in 1..=max_iter {
            iterations = i;
            let x = n / (1u64 << i) as f64;
            let theta_i = (lambda_p / x).ceil() as u64;
            while (collection.len() as u64) < theta_i {
                sampler.sample_random(graph, &mut rng, &mut buf);
                collection.push(&buf);
            }
            let cover = self.cover(&mut collection, k);
            let frac = cover.coverage_fraction(collection.len());
            if n * frac >= (1.0 + eps_p) * x {
                lb = n * frac / (1.0 + eps_p);
                break;
            }
        }
        let sampling_time = t0.elapsed();

        // Final θ (IMM Equation 6): λ* = 2n·((1 - 1/e)·α + β)² / ε².
        let alpha = (ell * n.ln() + 2.0f64.ln()).sqrt();
        let beta =
            ((1.0 - 1.0 / std::f64::consts::E) * (ln_cnk + ell * n.ln() + 2.0f64.ln())).sqrt();
        let lambda_star =
            2.0 * n * ((1.0 - 1.0 / std::f64::consts::E) * alpha + beta).powi(2) / (eps * eps);
        let theta = (lambda_star / lb).ceil().max(1.0) as u64;

        // Top up the shared pool to θ (the martingale reuse).
        let t1 = Instant::now();
        while (collection.len() as u64) < theta {
            sampler.sample_random(graph, &mut rng, &mut buf);
            collection.push(&buf);
        }
        let rr_memory_bytes = collection.memory_bytes();
        let cover = self.cover(&mut collection, k);
        let selection_time = t1.elapsed();
        let frac = cover.coverage_fraction(collection.len());

        ImmResult {
            seeds: cover.seeds,
            theta: collection.len() as u64,
            lb,
            sampling_iterations: iterations,
            estimated_spread: frac * n,
            coverage_fraction: frac,
            rr_memory_bytes,
            phases: PhaseTimings {
                parameter_estimation: sampling_time,
                refinement: std::time::Duration::ZERO,
                node_selection: selection_time,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimPlus;
    use tim_diffusion::{IndependentCascade, LinearThreshold, SpreadEstimator};
    use tim_graph::{gen, weights};

    fn wc_graph(n: usize, seed: u64) -> Graph {
        let mut g = gen::barabasi_albert(n, 4, 0.0, seed);
        weights::assign_weighted_cascade(&mut g);
        g
    }

    #[test]
    fn returns_k_distinct_seeds() {
        let g = wc_graph(300, 1);
        let r = Imm::new(IndependentCascade).epsilon(0.5).seed(2).run(&g, 8);
        assert_eq!(r.seeds.len(), 8);
        let mut s = r.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 8);
        assert!(r.theta >= 1);
        assert!(r.lb >= 1.0);
        assert!(r.sampling_iterations >= 1);
    }

    #[test]
    fn lb_is_bounded_by_opt_proxy() {
        let g = wc_graph(400, 3);
        let k = 10;
        let r = Imm::new(IndependentCascade).epsilon(0.4).seed(4).run(&g, k);
        let spread = SpreadEstimator::new(IndependentCascade)
            .runs(10_000)
            .seed(5)
            .estimate(&g, &r.seeds);
        // LB certifies a lower bound on OPT; the selected seeds' spread is
        // also a lower bound on OPT, and LB should not exceed it by much.
        assert!(
            r.lb <= 1.2 * spread,
            "LB {} vs achieved spread {spread}",
            r.lb
        );
    }

    #[test]
    fn quality_matches_tim_plus() {
        let g = wc_graph(400, 6);
        let k = 10;
        let imm = Imm::new(IndependentCascade).epsilon(0.5).seed(7).run(&g, k);
        let timp = TimPlus::new(IndependentCascade)
            .epsilon(0.5)
            .seed(7)
            .run(&g, k);
        let est = SpreadEstimator::new(IndependentCascade)
            .runs(10_000)
            .seed(8);
        let s_imm = est.estimate(&g, &imm.seeds);
        let s_timp = est.estimate(&g, &timp.seeds);
        let rel = (s_imm - s_timp).abs() / s_timp;
        assert!(rel < 0.1, "IMM {s_imm} vs TIM+ {s_timp}");
    }

    #[test]
    fn imm_uses_fewer_or_comparable_rr_sets_than_tim_plus() {
        // IMM's headline improvement: smaller sampling effort. Because our
        // TIM+ already refines aggressively, allow parity with slack.
        let g = wc_graph(500, 9);
        let k = 20;
        let imm = Imm::new(IndependentCascade)
            .epsilon(0.3)
            .seed(10)
            .run(&g, k);
        let timp = TimPlus::new(IndependentCascade)
            .epsilon(0.3)
            .seed(10)
            .run(&g, k);
        assert!(
            (imm.theta as f64) < 2.0 * timp.theta as f64,
            "IMM theta {} should be in the same ballpark as TIM+ theta {}",
            imm.theta,
            timp.theta
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = wc_graph(200, 11);
        let a = Imm::new(IndependentCascade)
            .epsilon(0.6)
            .seed(12)
            .run(&g, 5);
        let b = Imm::new(IndependentCascade)
            .epsilon(0.6)
            .seed(12)
            .run(&g, 5);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.theta, b.theta);
        assert_eq!(a.lb, b.lb);
        for select_threads in [2, 4, 0] {
            let c = Imm::new(IndependentCascade)
                .epsilon(0.6)
                .seed(12)
                .select_threads(select_threads)
                .run(&g, 5);
            assert_eq!(a.seeds, c.seeds, "select_threads={select_threads}");
            assert_eq!(a.lb, c.lb);
        }
    }

    #[test]
    fn works_under_lt() {
        let mut g = gen::barabasi_albert(250, 4, 0.0, 13);
        weights::assign_lt_normalized(&mut g, 14);
        let r = Imm::new(LinearThreshold).epsilon(0.5).seed(15).run(&g, 6);
        assert_eq!(r.seeds.len(), 6);
        assert!(r.estimated_spread >= 1.0);
    }

    #[test]
    fn theta_scales_with_epsilon() {
        let g = wc_graph(250, 16);
        let loose = Imm::new(IndependentCascade)
            .epsilon(1.0)
            .seed(17)
            .run(&g, 5);
        let tight = Imm::new(IndependentCascade)
            .epsilon(0.4)
            .seed(17)
            .run(&g, 5);
        assert!(
            tight.theta > loose.theta,
            "theta should grow as eps shrinks: {} vs {}",
            tight.theta,
            loose.theta
        );
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        let g = wc_graph(50, 18);
        Imm::new(IndependentCascade).run(&g, 0);
    }
}
