//! SimPath-style LT heuristic (Goyal, Lu, Lakshmanan \[12\]).
//!
//! Under the Linear Threshold model, the spread of a seed set `S` has a
//! closed form as a sum over **simple paths**: `σ(S) = Σ_{u∈S} σ^{V−S+u}(u)`,
//! where `σ^W(u)` sums, over all simple paths in the subgraph induced by
//! `W` that start at `u`, the product of edge weights along the path
//! (Goyal et al., Theorem 1). SimPath enumerates these paths with a
//! pruning threshold `η` — paths whose weight falls below `η` are cut,
//! trading a little accuracy for tractability — and drives selection with
//! CELF-style lazy evaluation, refreshing up to `lookahead` candidates per
//! round (the paper's `ℓ` parameter; §7.3 uses `η = 10⁻³`, `ℓ = 4`).
//!
//! This implementation keeps the path-enumeration semantics and the
//! lookahead batching, but evaluates candidates directly rather than
//! through the vertex-cover / backward-walk optimisations of the original.

use crate::SeedSelector;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tim_graph::{Graph, NodeId};

/// The SimPath heuristic.
#[derive(Debug, Clone)]
pub struct SimPath {
    eta: f64,
    lookahead: usize,
}

impl Default for SimPath {
    fn default() -> Self {
        Self::new()
    }
}

impl SimPath {
    /// Creates a runner with the recommended `η = 10⁻³`, `lookahead = 4`.
    pub fn new() -> Self {
        Self {
            eta: 1e-3,
            lookahead: 4,
        }
    }

    /// Sets the path-pruning threshold η (smaller = more accurate, slower).
    #[must_use]
    pub fn eta(mut self, eta: f64) -> Self {
        assert!(eta > 0.0 && eta <= 1.0, "eta must be in (0, 1]");
        self.eta = eta;
        self
    }

    /// Sets the CELF look-ahead batch size.
    #[must_use]
    pub fn lookahead(mut self, lookahead: usize) -> Self {
        assert!(lookahead >= 1, "lookahead must be at least 1");
        self.lookahead = lookahead;
        self
    }

    /// `σ^W(u)`: simple-path spread of `u` within `V \ blocked`, pruned at
    /// η. Includes the path of length 0 (i.e. `u` itself, weight 1).
    fn sigma_from(&self, graph: &Graph, u: NodeId, blocked: &mut [bool]) -> f64 {
        debug_assert!(!blocked[u as usize]);
        // Iterative DFS over simple paths with weight products.
        // Each stack frame: (node, next-edge index, weight of path prefix).
        let mut total = 1.0f64;
        let mut stack: Vec<(NodeId, usize, f64)> = vec![(u, 0, 1.0)];
        blocked[u as usize] = true; // on-path marker
        while let Some(&(v, mut edge_idx, w)) = stack.last() {
            let nbrs = graph.out_neighbors(v);
            let probs = graph.out_probabilities(v);
            let mut advanced = false;
            while edge_idx < nbrs.len() {
                let t = nbrs[edge_idx];
                let p = probs[edge_idx] as f64;
                edge_idx += 1;
                if blocked[t as usize] {
                    continue;
                }
                let w2 = w * p;
                if w2 < self.eta {
                    continue;
                }
                total += w2;
                blocked[t as usize] = true;
                stack.last_mut().expect("frame exists").1 = edge_idx;
                stack.push((t, 0, w2));
                advanced = true;
                break;
            }
            if !advanced {
                stack.pop();
                blocked[v as usize] = false;
            }
        }
        total
    }

    /// `σ(S)` via the seed-decomposition formula.
    pub fn spread(&self, graph: &Graph, seeds: &[NodeId]) -> f64 {
        let mut blocked = vec![false; graph.n()];
        for &s in seeds {
            assert!((s as usize) < graph.n(), "seed out of range");
            blocked[s as usize] = true;
        }
        let mut total = 0.0f64;
        for &s in seeds {
            blocked[s as usize] = false; // σ^{V - S + s}(s)
            total += self.sigma_from(graph, s, &mut blocked);
            blocked[s as usize] = true;
        }
        total
    }
}

struct Entry {
    gain: f64,
    node: NodeId,
    round: usize,
}
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.gain == other.gain && self.node == other.node
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| self.node.cmp(&other.node))
    }
}

impl SeedSelector for SimPath {
    fn select(&self, graph: &Graph, k: usize) -> Vec<NodeId> {
        assert!(k >= 1, "k must be at least 1");
        let n = graph.n();
        let k = k.min(n);

        // Initial singleton spreads.
        let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(n);
        {
            let mut blocked = vec![false; n];
            for v in 0..n as NodeId {
                let gain = self.sigma_from(graph, v, &mut blocked);
                heap.push(Entry {
                    gain,
                    node: v,
                    round: 0,
                });
            }
        }

        let mut seeds: Vec<NodeId> = Vec::with_capacity(k);
        let mut base = 0.0f64;
        let mut scratch: Vec<NodeId> = Vec::with_capacity(k + 1);
        while seeds.len() < k {
            // Refresh up to `lookahead` stale top candidates in one batch,
            // then re-examine (the SimPath look-ahead optimisation).
            let mut batch: Vec<Entry> = Vec::with_capacity(self.lookahead);
            let mut fresh_top: Option<Entry> = None;
            while batch.len() < self.lookahead {
                match heap.pop() {
                    Some(e) if e.round == seeds.len() => {
                        fresh_top = Some(e);
                        break;
                    }
                    Some(e) => batch.push(e),
                    None => break,
                }
            }
            if let Some(top) = fresh_top {
                // A fresh entry dominates everything still in the heap;
                // compare it against the refreshed batch below.
                batch.push(top);
            }
            if batch.is_empty() {
                break; // heap exhausted (k > n handled by clamp)
            }
            for e in &mut batch {
                if e.round != seeds.len() {
                    scratch.clear();
                    scratch.extend_from_slice(&seeds);
                    scratch.push(e.node);
                    e.gain = self.spread(graph, &scratch) - base;
                    e.round = seeds.len();
                }
            }
            // Select the batch's best if it beats the heap's top bound;
            // otherwise push everything back and loop.
            batch.sort_by(|a, b| b.cmp(a));
            let heap_bound = heap.peek().map_or(f64::NEG_INFINITY, |e| e.gain);
            if batch[0].gain >= heap_bound {
                let chosen = batch.remove(0);
                base += chosen.gain;
                seeds.push(chosen.node);
            }
            for e in batch {
                heap.push(e);
            }
        }
        seeds
    }

    fn name(&self) -> String {
        format!("SimPath(eta={}, l={})", self.eta, self.lookahead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tim_graph::{gen, weights, GraphBuilder};

    #[test]
    fn spread_on_a_path_is_the_geometric_sum() {
        // 0 -w-> 1 -w-> 2 with w = 0.5: σ({0}) = 1 + 0.5 + 0.25.
        let mut b = GraphBuilder::new(3);
        b.add_edge_with_probability(0, 1, 0.5);
        b.add_edge_with_probability(1, 2, 0.5);
        let g = b.build();
        let sp = SimPath::new().eta(1e-6);
        assert!((sp.spread(&g, &[0]) - 1.75).abs() < 1e-9);
    }

    #[test]
    fn spread_counts_each_seed_once() {
        let mut b = GraphBuilder::new(3);
        b.add_edge_with_probability(0, 1, 1.0);
        b.add_edge_with_probability(1, 2, 1.0);
        let g = b.build();
        let sp = SimPath::new();
        // Both seeds: paths from 0 may not pass through seed 1.
        // σ = σ^{V-1}(0) + σ^{V-0}(1) = 1 + 1 + 2 = ... 0 reaches only
        // itself (1 blocked); 1 reaches itself and 2.
        assert!((sp.spread(&g, &[0, 1]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn eta_prunes_long_paths() {
        let mut b = GraphBuilder::new(4);
        b.add_edge_with_probability(0, 1, 0.1);
        b.add_edge_with_probability(1, 2, 0.1);
        b.add_edge_with_probability(2, 3, 0.1);
        let g = b.build();
        let exact = SimPath::new().eta(1e-9).spread(&g, &[0]);
        let pruned = SimPath::new().eta(0.05).spread(&g, &[0]);
        // Edge weights are stored as f32, so compare with f32-level slack.
        assert!((exact - (1.0 + 0.1 + 0.01 + 0.001)).abs() < 1e-6);
        // Pruning at 0.05 keeps only the first hop.
        assert!((pruned - 1.1).abs() < 1e-6);
    }

    #[test]
    fn cycles_do_not_loop_forever() {
        let mut b = GraphBuilder::new(2);
        b.add_edge_with_probability(0, 1, 1.0);
        b.add_edge_with_probability(1, 0, 1.0);
        let g = b.build();
        // Simple paths only: 0 -> 1 once.
        assert!((SimPath::new().spread(&g, &[0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn selects_hub_on_star() {
        let mut b = GraphBuilder::new(10);
        for v in 1..10u32 {
            b.add_edge_with_probability(0, v, 0.9);
        }
        let g = b.build();
        let seeds = SimPath::new().select(&g, 1);
        assert_eq!(seeds, vec![0]);
    }

    #[test]
    fn two_hub_selection_is_greedy_correct() {
        let mut b = GraphBuilder::new(17);
        for leaf in 2..12 {
            b.add_edge_with_probability(0, leaf, 1.0);
        }
        for leaf in 12..17 {
            b.add_edge_with_probability(1, leaf, 1.0);
        }
        let g = b.build();
        let seeds = SimPath::new().select(&g, 2);
        assert_eq!(seeds, vec![0, 1]);
    }

    #[test]
    fn works_on_lt_normalized_graphs() {
        let mut g = gen::barabasi_albert(120, 3, 0.0, 1);
        weights::assign_lt_normalized(&mut g, 2);
        let seeds = SimPath::new().select(&g, 5);
        assert_eq!(seeds.len(), 5);
        let mut s = seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn spread_is_monotone_in_seeds() {
        let mut g = gen::erdos_renyi_gnm(40, 160, 3);
        weights::assign_lt_normalized(&mut g, 4);
        let sp = SimPath::new();
        let s1 = sp.spread(&g, &[0]);
        let s2 = sp.spread(&g, &[0, 1]);
        assert!(s2 >= s1 - 1e-9, "{s1} -> {s2}");
    }

    #[test]
    fn lookahead_one_matches_larger_lookahead_quality() {
        let mut g = gen::barabasi_albert(80, 3, 0.0, 5);
        weights::assign_lt_normalized(&mut g, 6);
        let a = SimPath::new().lookahead(1).select(&g, 4);
        let b = SimPath::new().lookahead(8).select(&g, 4);
        let sp = SimPath::new();
        let qa = sp.spread(&g, &a);
        let qb = sp.spread(&g, &b);
        let rel = (qa - qb).abs() / qa.max(qb);
        assert!(rel < 0.05, "lookahead variants diverge: {qa} vs {qb}");
    }
}
