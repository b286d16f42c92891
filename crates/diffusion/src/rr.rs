//! Random reverse-reachable (RR) set sampling.
//!
//! An RR set for node `v` (Definition 1) is the set of nodes that can reach
//! `v` in a random live-edge graph; a *random* RR set (Definition 2) roots
//! at a uniformly random node. [`RrSampler`] implements the paper's
//! randomised reverse BFS (§3.1 "Implementation" and its §4.2 triggering
//! generalisation): dequeue a node, sample its triggering set, enqueue
//! unvisited members.
//!
//! Under IC the paper flips one coin per in-edge of every visited node, so
//! an RR set costs its width `w(R)` (§3.1, §7.2). A [`RrSampler::jumping`]
//! sampler instead draws a node's live in-edges by geometric jumps when
//! they all share one probability `p` — true at every node under weighted
//! cascade — in `O(1 + d·p)` rather than `O(d)` (the technique SUBSIM,
//! Guo et al. SIGMOD 2020, applies to RR sampling). The live set has the
//! same distribution either way; only the random stream consumed differs.
//!
//! The sampler owns its scratch memory (epoch-stamped visited array, BFS
//! queue), so generating millions of RR sets performs no allocation beyond
//! the output vector growth.

use crate::model::DiffusionModel;
use tim_graph::{CsrAccess, NodeId};
use tim_rng::{RandomSource, Rng};

/// Cost accounting for one generated RR set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RrStats {
    /// `w(R)` from Equation 1: the number of edges in `G` pointing to nodes
    /// in `R` (Σ in-degree over `R`). Drives `EPT` and `κ(R)`. The same on
    /// both sampling paths: it counts edges, not the work spent on them.
    pub width: u64,
    /// Number of random draws consumed expanding the set's nodes. Per-edge
    /// sampling: one per in-edge for IC, one per visited node for LT (the
    /// §7.2 cost asymmetry). A node drawn by geometric jumps consumes one
    /// draw per live in-edge plus one that jumps past the last in-edge.
    /// The root's draw (uniform root choice) is not counted.
    pub draws: u64,
    /// `|R|`: number of nodes in the set (root included).
    pub nodes: u64,
}

impl RrStats {
    /// Nodes-plus-edges examined; the quantity RIS thresholds on (§2.3).
    #[inline]
    pub fn examined(&self) -> u64 {
        self.nodes + self.width
    }
}

/// Cost of one geometric jump (a uniform, a logarithm, a multiply and the
/// bounds check) measured in per-edge coin flips. A jump-eligible node of
/// in-degree `d` and shared probability `p` takes about `1 + d·p` jumps
/// versus `d` coins, so it jumps only when `(1 + d·p) · JUMP_COST < d`.
/// Measured on a 2-vCPU Intel Xeon VM by timing in-stars of in-degree
/// 2–128 at `d·p ∈ {0.5, 1, 2}` both ways: a coin costs ~2.5 ns, a jump
/// ~13 ns, and the two paths break even near `d = 10` at `d·p = 1`.
const JUMP_COST: f64 = 5.0;

/// Jump-cache state of a node not classified yet. Classified nodes hold
/// [`PER_EDGE`] or their (negative) jump factor `1 / ln(1 − p)`.
const UNCLASSIFIED: f32 = 0.0;
const PER_EDGE: f32 = 1.0;

/// The jump-cache entry for a node whose in-edges carry `probs`.
fn classify(probs: &[f32]) -> f32 {
    let Some(&p) = probs.first() else {
        return PER_EDGE;
    };
    let d = probs.len() as f64;
    if !(p > 0.0 && p < 1.0) || (1.0 + d * f64::from(p)) * JUMP_COST >= d {
        return PER_EDGE;
    }
    if probs.iter().any(|&q| q != p) {
        return PER_EDGE;
    }
    // p ∈ (0, 1) makes the factor negative. It is stored as f32, which
    // keeps the cache the size of `visited` and perturbs jump lengths by
    // a relative 2⁻²⁴; a p below ~1e-38 overflows it to -inf and is
    // refused.
    let factor = (1.0 / (-f64::from(p)).ln_1p()) as f32;
    if factor.is_finite() {
        factor
    } else {
        PER_EDGE
    }
}

/// Appends the live members of `nbrs` — each live independently with the
/// shared probability `p`, where `factor = 1 / ln(1 − p)` — in
/// in-neighbour order, and returns the draws consumed.
///
/// `⌊ln U / ln(1 − p)⌋` with `U` uniform on `(0, 1]` is geometric,
/// `Pr[K ≥ k] = (1 − p)^k`: exactly the number of dead edges before the
/// next live one under per-edge Bernoulli(p) coins. Skipping `K` edges and
/// taking the next therefore draws the same live set.
#[inline]
fn draw_by_jumps(nbrs: &[NodeId], factor: f32, rng: &mut Rng, out: &mut Vec<NodeId>) -> u64 {
    let factor = f64::from(factor);
    let mut draws = 0;
    let mut i = 0usize;
    loop {
        draws += 1;
        // `as` saturates, so a skip past usize::MAX cannot wrap.
        let skip = ((1.0 - rng.next_f64()).ln() * factor) as usize;
        i = i.saturating_add(skip);
        if i >= nbrs.len() {
            return draws;
        }
        out.push(nbrs[i]);
        i += 1;
    }
}

/// Reusable sampler of random RR sets for a diffusion model.
///
/// ```
/// use tim_diffusion::{IndependentCascade, RrSampler};
/// use tim_graph::GraphBuilder;
/// use tim_rng::Rng;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge_with_probability(0, 1, 1.0);
/// b.add_edge_with_probability(1, 2, 1.0);
/// let g = b.build();
///
/// let mut sampler = RrSampler::new(IndependentCascade);
/// let mut rng = Rng::seed_from_u64(7);
/// let mut rr = Vec::new();
/// let stats = sampler.sample_for(&g, 2, &mut rng, &mut rr);
/// // Deterministic edges: the RR set of node 2 is all its ancestors.
/// assert_eq!(rr[0], 2);
/// assert_eq!(stats.nodes, 3);
/// ```
#[derive(Debug)]
pub struct RrSampler<M> {
    model: M,
    /// Epoch stamps marking visited nodes.
    visited: Vec<u32>,
    epoch: u32,
    /// Scratch for triggering-set samples.
    trig: Vec<NodeId>,
    /// Draw uniform-probability IC nodes by geometric jumps.
    jumps: bool,
    /// Per-node jump cache, filled lazily on first visit (see
    /// [`classify`]); empty unless `jumps`.
    jump: Vec<f32>,
    /// `(n, m, address of the in-probability array)` of the graph `jump`
    /// describes, so a sampler handed another graph starts afresh.
    jump_graph: (usize, usize, usize),
}

impl<M> RrSampler<M> {
    /// Creates a sampler that flips one coin per in-edge under IC, as the
    /// paper does; scratch arrays grow to the first graph's size.
    pub fn new(model: M) -> Self {
        Self {
            model,
            visited: Vec::new(),
            epoch: 0,
            trig: Vec::new(),
            jumps: false,
            jump: Vec::new(),
            jump_graph: (0, 0, 0),
        }
    }

    /// Creates a sampler that, when the model has
    /// [independent in-edges](DiffusionModel::independent_in_edges), draws
    /// a node's live in-edges by geometric jumps wherever they share one
    /// probability `p ∈ (0, 1)` and jumping is cheaper than `d` coins.
    /// Other nodes and models take the per-edge path of
    /// [`new`](Self::new). RR sets have the same distribution as
    /// [`new`](Self::new)'s but come from a different random stream.
    ///
    /// Each node's decision is made on its first visit and cached for the
    /// graph being sampled. Handing the sampler a graph of another size or
    /// address starts a fresh cache; a graph whose probabilities change in
    /// place needs a fresh sampler.
    pub fn jumping(model: M) -> Self {
        Self {
            jumps: true,
            ..Self::new(model)
        }
    }

    /// The wrapped diffusion model.
    pub fn model(&self) -> &M {
        &self.model
    }

    fn begin(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visited.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Points the jump cache at `graph`, clearing it if it described
    /// another graph.
    fn begin_jumps<G: CsrAccess>(&mut self, graph: &G) {
        let id = (
            graph.n(),
            graph.m(),
            graph.in_probabilities(0).as_ptr() as usize,
        );
        if self.jump_graph != id {
            self.jump_graph = id;
            self.jump.clear();
            self.jump.resize(graph.n(), UNCLASSIFIED);
        }
    }

    /// Generates the RR set rooted at `root`, appending its nodes (root
    /// first) to `out`. `out` is cleared first.
    ///
    /// Generic over the graph backing: the same randomness is consumed
    /// whether `graph` is a heap [`Graph`](tim_graph::Graph) or an
    /// [`MmapCsr`](tim_graph::MmapCsr) view, so RR sets are bit-identical
    /// across backings.
    pub fn sample_for<G: CsrAccess>(
        &mut self,
        graph: &G,
        root: NodeId,
        rng: &mut Rng,
        out: &mut Vec<NodeId>,
    ) -> RrStats
    where
        M: DiffusionModel<G>,
    {
        debug_assert!((root as usize) < graph.n(), "root out of range");
        self.begin(graph.n());
        // One dispatch per set into two monomorphised loops: the per-edge
        // one is the plain reverse BFS, with no per-node jump test.
        if self.jumps && self.model.independent_in_edges() {
            self.begin_jumps(graph);
            self.reverse_bfs::<G, true>(graph, root, rng, out)
        } else {
            self.reverse_bfs::<G, false>(graph, root, rng, out)
        }
    }

    fn reverse_bfs<G: CsrAccess, const JUMP: bool>(
        &mut self,
        graph: &G,
        root: NodeId,
        rng: &mut Rng,
        out: &mut Vec<NodeId>,
    ) -> RrStats
    where
        M: DiffusionModel<G>,
    {
        out.clear();
        let mut stats = RrStats::default();

        self.visited[root as usize] = self.epoch;
        out.push(root);
        stats.nodes = 1;
        stats.width = graph.in_degree(root) as u64;
        // The per-edge loop counts draws as nodes join; the jump loop as
        // they expand, when a jump node's count is known. Either way each
        // node of the set is counted once.
        if !JUMP {
            stats.draws = self.model.draws_per_node(graph, root);
        }

        // `out` doubles as the BFS queue: nodes are appended in visit order
        // and `head` walks it.
        let mut head = 0usize;
        while head < out.len() {
            let v = out[head];
            head += 1;
            self.trig.clear();
            if JUMP {
                let slot = &mut self.jump[v as usize];
                if *slot == UNCLASSIFIED {
                    *slot = classify(graph.in_probabilities(v));
                }
                let factor = *slot;
                if factor < 0.0 {
                    stats.draws +=
                        draw_by_jumps(graph.in_neighbors(v), factor, rng, &mut self.trig);
                } else {
                    stats.draws += self.model.draws_per_node(graph, v);
                    self.model
                        .sample_triggering_set(graph, v, rng, &mut self.trig);
                }
            } else {
                self.model
                    .sample_triggering_set(graph, v, rng, &mut self.trig);
            }
            for i in 0..self.trig.len() {
                let u = self.trig[i];
                debug_assert!((u as usize) < graph.n());
                if self.visited[u as usize] != self.epoch {
                    self.visited[u as usize] = self.epoch;
                    out.push(u);
                    stats.nodes += 1;
                    stats.width += graph.in_degree(u) as u64;
                    if !JUMP {
                        stats.draws += self.model.draws_per_node(graph, u);
                    }
                }
            }
        }
        stats
    }

    /// Generates a random RR set (uniformly random root), appending its
    /// nodes to `out` and returning `(root, stats)`.
    pub fn sample_random<G: CsrAccess>(
        &mut self,
        graph: &G,
        rng: &mut Rng,
        out: &mut Vec<NodeId>,
    ) -> (NodeId, RrStats)
    where
        M: DiffusionModel<G>,
    {
        assert!(graph.n() > 0, "cannot sample an RR set on an empty graph");
        let root = rng.next_index(graph.n()) as NodeId;
        let stats = self.sample_for(graph, root, rng, out);
        (root, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{IndependentCascade, LinearThreshold};
    use tim_graph::{weights, Graph, GraphBuilder};

    fn chain(p: f32) -> Graph {
        // 0 -> 1 -> 2 -> 3
        let mut b = GraphBuilder::new(4);
        for i in 0..3 {
            b.add_edge_with_probability(i, i + 1, p);
        }
        b.build()
    }

    #[test]
    fn rr_set_contains_root_first() {
        let g = chain(1.0);
        let mut s = RrSampler::new(IndependentCascade);
        let mut rng = Rng::seed_from_u64(1);
        let mut out = Vec::new();
        s.sample_for(&g, 2, &mut rng, &mut out);
        assert_eq!(out[0], 2);
    }

    #[test]
    fn deterministic_chain_rr_set_is_all_ancestors() {
        let g = chain(1.0);
        let mut s = RrSampler::new(IndependentCascade);
        let mut rng = Rng::seed_from_u64(2);
        let mut out = Vec::new();
        let stats = s.sample_for(&g, 3, &mut rng, &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert_eq!(stats.nodes, 4);
        // Width: each of 1, 2, 3 has in-degree 1; node 0 has 0.
        assert_eq!(stats.width, 3);
    }

    #[test]
    fn zero_probability_rr_set_is_singleton() {
        let g = chain(0.0);
        let mut s = RrSampler::new(IndependentCascade);
        let mut rng = Rng::seed_from_u64(3);
        let mut out = Vec::new();
        let stats = s.sample_for(&g, 3, &mut rng, &mut out);
        assert_eq!(out, vec![3]);
        assert_eq!(stats.nodes, 1);
        assert_eq!(stats.width, 1);
    }

    #[test]
    fn width_equals_sum_of_in_degrees() {
        let mut g = tim_graph::gen::erdos_renyi_gnm(100, 500, 4);
        weights::assign_constant(&mut g, 0.4);
        let mut s = RrSampler::new(IndependentCascade);
        let mut rng = Rng::seed_from_u64(5);
        let mut out = Vec::new();
        for _ in 0..200 {
            let (_, stats) = s.sample_random(&g, &mut rng, &mut out);
            let expect: u64 = out.iter().map(|&v| g.in_degree(v) as u64).sum();
            assert_eq!(stats.width, expect);
            assert_eq!(stats.nodes, out.len() as u64);
        }
    }

    #[test]
    fn rr_set_has_no_duplicates() {
        let mut g = tim_graph::gen::erdos_renyi_gnm(50, 400, 6);
        weights::assign_constant(&mut g, 0.5);
        let mut s = RrSampler::new(IndependentCascade);
        let mut rng = Rng::seed_from_u64(7);
        let mut out = Vec::new();
        for _ in 0..200 {
            s.sample_random(&g, &mut rng, &mut out);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), out.len(), "duplicates in RR set");
        }
    }

    #[test]
    fn rr_membership_frequency_matches_activation_probability() {
        // Single edge 0 -p-> 1. An RR set for root 1 contains node 0 with
        // probability p (Lemma 2 with S = {0}, v = 1).
        let p = 0.35f32;
        let mut b = GraphBuilder::new(2);
        b.add_edge_with_probability(0, 1, p);
        let g = b.build();
        let mut s = RrSampler::new(IndependentCascade);
        let mut rng = Rng::seed_from_u64(8);
        let mut out = Vec::new();
        let trials = 100_000;
        let mut hits = 0usize;
        for _ in 0..trials {
            s.sample_for(&g, 1, &mut rng, &mut out);
            if out.contains(&0) {
                hits += 1;
            }
        }
        let freq = hits as f64 / trials as f64;
        assert!((freq - p as f64).abs() < 0.01, "freq {freq} vs p {p}");
    }

    #[test]
    fn lt_rr_set_is_a_reverse_walk() {
        // With normalised LT weights every node picks exactly one
        // in-neighbour, so the RR set is a path that stops only at a node
        // with no in-edges or a cycle closure.
        let mut g = tim_graph::gen::erdos_renyi_gnm(40, 200, 9);
        weights::assign_lt_normalized(&mut g, 10);
        let mut s = RrSampler::new(LinearThreshold);
        let mut rng = Rng::seed_from_u64(11);
        let mut out = Vec::new();
        for _ in 0..100 {
            let (_, stats) = s.sample_random(&g, &mut rng, &mut out);
            // A reverse walk consumes exactly one draw per visited node.
            assert_eq!(stats.draws, stats.nodes);
            // Every non-terminal hop must be a real edge.
            for w in out.windows(2) {
                assert!(
                    g.in_neighbors(w[0]).contains(&w[1]),
                    "walk steps must follow in-edges"
                );
            }
        }
    }

    #[test]
    fn draws_accounting_differs_between_models() {
        let mut g = tim_graph::gen::erdos_renyi_gnm(100, 800, 12);
        weights::assign_weighted_cascade(&mut g);
        let mut rng = Rng::seed_from_u64(13);
        let mut out = Vec::new();

        let mut ic = RrSampler::new(IndependentCascade);
        let mut ic_draws = 0u64;
        let mut ic_nodes = 0u64;
        for _ in 0..200 {
            let (_, st) = ic.sample_random(&g, &mut rng, &mut out);
            ic_draws += st.draws;
            ic_nodes += st.nodes;
        }
        // IC consumes one draw per examined in-edge == width.
        assert!(
            ic_draws >= ic_nodes,
            "IC draws {ic_draws} < nodes {ic_nodes}"
        );

        let mut lt = RrSampler::new(LinearThreshold);
        for _ in 0..200 {
            let (_, st) = lt.sample_random(&g, &mut rng, &mut out);
            assert_eq!(st.draws, st.nodes);
        }
    }

    #[test]
    fn classify_jumps_only_uniform_nodes_where_jumps_are_cheaper() {
        assert_eq!(classify(&[]), PER_EDGE);
        assert_eq!(classify(&[0.5; 3]), PER_EDGE, "3 coins beat any jump");
        assert_eq!(classify(&[1.0; 100]), PER_EDGE);
        assert_eq!(classify(&[0.0; 100]), PER_EDGE);
        let mut mixed = [0.01f32; 100];
        mixed[99] = 0.02;
        assert_eq!(classify(&mixed), PER_EDGE);
        // Weighted cascade: d·p = 1, so jumps win once d > 2·JUMP_COST.
        assert_eq!(classify(&[0.1; 10]), PER_EDGE);
        let f = classify(&[1.0 / 11.0; 11]);
        assert!(f < 0.0);
        assert!((f64::from(f) - 1.0 / (1.0f64 - 1.0 / 11.0).ln()).abs() < 1e-5);
        // p so small its factor overflows f32: refused, not mis-jumped.
        assert_eq!(classify(&[1e-40; 1000]), PER_EDGE);
    }

    #[test]
    fn single_edge_jump_frequency_is_p() {
        // Lemma 2 on one edge 0 -p-> 1 through the jump primitive itself
        // (the sampler keeps a single in-edge on the per-edge path).
        for p in [0.35f32, 0.02] {
            let factor = (1.0 / (-f64::from(p)).ln_1p()) as f32;
            let mut rng = Rng::seed_from_u64(15);
            let mut out = Vec::new();
            let trials = 100_000;
            let mut draws = 0;
            for _ in 0..trials {
                draws += draw_by_jumps(&[0], factor, &mut rng, &mut out);
            }
            assert!(out.iter().all(|&u| u == 0));
            assert_eq!(draws, out.len() as u64 + trials);
            let freq = out.len() as f64 / trials as f64;
            assert!((freq - p as f64).abs() < 0.01, "freq {freq} vs p {p}");
        }
    }

    #[test]
    fn examined_is_nodes_plus_width() {
        let st = RrStats {
            width: 10,
            draws: 3,
            nodes: 4,
        };
        assert_eq!(st.examined(), 14);
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn sampling_empty_graph_panics() {
        let g = GraphBuilder::new(0).build();
        let mut s = RrSampler::new(IndependentCascade);
        let mut rng = Rng::seed_from_u64(14);
        let mut out = Vec::new();
        s.sample_random(&g, &mut rng, &mut out);
    }
}
