//! IRIE — Influence Ranking + Influence Estimation (Jung, Heo, Chen \[16\]).
//!
//! The state-of-the-art IC heuristic the paper compares against in
//! Figures 8–9. IRIE alternates two components:
//!
//! - **IR** (influence ranking): a PageRank-like fixed point
//!   `r(u) = (1 − AP(u)) · (1 + α · Σ_{v ∈ out(u)} p(u,v) · r(v))`,
//!   whose top node approximates the best next seed;
//! - **IE** (influence estimation): `AP(u)`, the probability that `u` is
//!   already activated by the current seed set, which discounts nodes whose
//!   influence region is already claimed.
//!
//! The original IE uses a PMIA-style local estimation; we estimate `AP` by
//! Monte Carlo over the triggering model instead, which keeps the module
//! model-generic and is an accuracy-favouring substitution. `α = 0.7` and 20 ranking iterations follow the paper's
//! recommended settings (§7.3).

use crate::SeedSelector;
use tim_diffusion::{DiffusionModel, SimWorkspace};
use tim_graph::{Graph, NodeId};
use tim_rng::Rng;

/// The IRIE heuristic.
#[derive(Debug, Clone)]
pub struct Irie<M> {
    model: M,
    alpha: f64,
    ranking_iterations: usize,
    ap_runs: usize,
    seed: u64,
}

impl<M: DiffusionModel> Irie<M> {
    /// Creates an IRIE runner with the recommended α = 0.7, 20 ranking
    /// iterations, and 200 Monte Carlo runs for AP estimation.
    pub fn new(model: M) -> Self {
        Self {
            model,
            alpha: 0.7,
            ranking_iterations: 20,
            ap_runs: 200,
            seed: 0,
        }
    }

    /// Sets the damping factor α.
    #[must_use]
    pub fn alpha(mut self, alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        self.alpha = alpha;
        self
    }

    /// Sets the number of fixed-point iterations for the ranking.
    #[must_use]
    pub fn ranking_iterations(mut self, iters: usize) -> Self {
        assert!(iters > 0, "iterations must be positive");
        self.ranking_iterations = iters;
        self
    }

    /// Sets the Monte Carlo runs used to estimate activation probabilities.
    #[must_use]
    pub fn ap_runs(mut self, runs: usize) -> Self {
        assert!(runs > 0, "ap_runs must be positive");
        self.ap_runs = runs;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// One IR fixed-point solve given activation probabilities `ap`.
    fn rank(&self, graph: &Graph, ap: &[f64]) -> Vec<f64> {
        let n = graph.n();
        let mut r = vec![1.0f64; n];
        let mut next = vec![0.0f64; n];
        for _ in 0..self.ranking_iterations {
            for u in 0..n {
                let mut acc = 0.0f64;
                let nbrs = graph.out_neighbors(u as NodeId);
                let probs = graph.out_probabilities(u as NodeId);
                for (&v, &p) in nbrs.iter().zip(probs) {
                    acc += p as f64 * r[v as usize];
                }
                next[u] = (1.0 - ap[u]) * (1.0 + self.alpha * acc);
            }
            std::mem::swap(&mut r, &mut next);
        }
        r
    }

    /// Monte Carlo estimate of each node's probability of being activated
    /// by `seeds`.
    fn activation_probabilities(&self, graph: &Graph, seeds: &[NodeId]) -> Vec<f64> {
        let mut ap = vec![0.0f64; graph.n()];
        if seeds.is_empty() {
            return ap;
        }
        let mut rng = Rng::seed_from_u64(self.seed ^ 0xA5A5_5A5A_D00D_F00D);
        let mut ws = SimWorkspace::new();
        for _ in 0..self.ap_runs {
            self.model.simulate(&mut ws, graph, seeds, &mut rng);
            for &v in ws.activated() {
                ap[v as usize] += 1.0;
            }
        }
        for a in &mut ap {
            *a /= self.ap_runs as f64;
        }
        ap
    }
}

impl<M: DiffusionModel> SeedSelector for Irie<M> {
    fn select(&self, graph: &Graph, k: usize) -> Vec<NodeId> {
        assert!(k >= 1, "k must be at least 1");
        let n = graph.n();
        let k = k.min(n);
        let mut seeds: Vec<NodeId> = Vec::with_capacity(k);
        let mut selected = vec![false; n];
        let mut ap = vec![0.0f64; n];
        for _ in 0..k {
            let r = self.rank(graph, &ap);
            let best = (0..n)
                .filter(|&u| !selected[u])
                .max_by(|&a, &b| r[a].total_cmp(&r[b]))
                .expect("unselected node must exist");
            selected[best] = true;
            seeds.push(best as NodeId);
            ap = self.activation_probabilities(graph, &seeds);
        }
        seeds
    }

    fn name(&self) -> String {
        format!("IRIE(alpha={})", self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tim_diffusion::{IndependentCascade, SpreadEstimator};
    use tim_graph::{gen, weights, GraphBuilder};

    #[test]
    fn picks_the_hub_of_a_star() {
        let mut b = GraphBuilder::new(20);
        for v in 1..20u32 {
            b.add_edge_with_probability(0, v, 0.5);
        }
        let g = b.build();
        let seeds = Irie::new(IndependentCascade).seed(1).select(&g, 1);
        assert_eq!(seeds, vec![0]);
    }

    #[test]
    fn second_seed_avoids_covered_region() {
        // Hub 0 -> {2..12}, hub 1 -> {12..17}, p = 1. After picking 0,
        // the discount must steer the second pick to 1, not to a leaf of 0.
        let mut b = GraphBuilder::new(17);
        for leaf in 2..12 {
            b.add_edge_with_probability(0, leaf, 1.0);
        }
        for leaf in 12..17 {
            b.add_edge_with_probability(1, leaf, 1.0);
        }
        let g = b.build();
        let seeds = Irie::new(IndependentCascade).seed(2).select(&g, 2);
        assert_eq!(seeds, vec![0, 1]);
    }

    #[test]
    fn returns_k_distinct_seeds() {
        let mut g = gen::barabasi_albert(150, 3, 0.0, 3);
        weights::assign_weighted_cascade(&mut g);
        let seeds = Irie::new(IndependentCascade).seed(4).select(&g, 10);
        assert_eq!(seeds.len(), 10);
        let mut s = seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn beats_random_seeds_on_scale_free_graphs() {
        let mut g = gen::barabasi_albert(300, 4, 0.0, 5);
        weights::assign_weighted_cascade(&mut g);
        let seeds = Irie::new(IndependentCascade).seed(6).select(&g, 8);
        let est = SpreadEstimator::new(IndependentCascade).runs(3_000).seed(7);
        let irie_spread = est.estimate(&g, &seeds);
        let random: Vec<u32> = (200..208).collect();
        let random_spread = est.estimate(&g, &random);
        assert!(
            irie_spread > random_spread,
            "IRIE {irie_spread} vs random {random_spread}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut g = gen::barabasi_albert(100, 3, 0.0, 8);
        weights::assign_weighted_cascade(&mut g);
        let irie = Irie::new(IndependentCascade).seed(9);
        assert_eq!(irie.select(&g, 5), irie.select(&g, 5));
    }

    #[test]
    fn alpha_zero_degenerates_to_degree_like_ranking() {
        // With alpha = 0 all ranks are 1 - AP(u); the first pick is then
        // just the lowest-indexed node, exercising the code path.
        let mut g = gen::erdos_renyi_gnm(30, 90, 10);
        weights::assign_weighted_cascade(&mut g);
        let seeds = Irie::new(IndependentCascade)
            .alpha(0.0)
            .seed(11)
            .select(&g, 2);
        assert_eq!(seeds.len(), 2);
    }
}
