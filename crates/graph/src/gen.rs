//! Deterministic synthetic graph generators.
//!
//! The paper evaluates on five crawled social networks (Table 2). Those
//! crawls are not redistributable (and the Twitter graph is 1.4 B edges),
//! so this workspace reproduces the experiments on synthetic stand-ins with
//! matching shape: heavy-tailed degree distributions, the same m/n ratio
//! and directedness. `tim_eval::datasets` maps each dataset to its generator.
//!
//! All generators are pure functions of their parameters and a seed.

use crate::{Graph, GraphBuilder, NodeId};
use tim_rng::{RandomSource, Rng};

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct directed edges chosen
/// uniformly among all `n·(n−1)` ordered pairs.
///
/// # Panics
/// Panics if `m` exceeds the number of possible edges.
pub fn erdos_renyi_gnm(n: usize, m: usize, seed: u64) -> Graph {
    let possible = n.saturating_mul(n.saturating_sub(1));
    assert!(
        m <= possible,
        "G(n, m): m = {m} exceeds n(n-1) = {possible}"
    );
    let mut rng = Rng::seed_from_u64(seed);
    let mut chosen = std::collections::HashSet::with_capacity(m * 2);
    let mut b = GraphBuilder::with_edge_capacity(n, m);
    while chosen.len() < m {
        let u = rng.next_index(n) as NodeId;
        let v = rng.next_index(n) as NodeId;
        if u != v && chosen.insert(((u as u64) << 32) | v as u64) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Directed Barabási–Albert preferential attachment.
///
/// Nodes arrive one at a time; each new node adds `m_per_node` out-edges to
/// existing nodes chosen proportionally to (in-degree + 1). With probability
/// `back_prob`, the chosen target also links back, which produces the
/// reciprocity seen in follower networks. In-degrees follow a power law with
/// exponent ≈ 3.
///
/// # Panics
/// Panics if `n < 2`, `m_per_node == 0`, or `back_prob` is not in `[0, 1]`.
pub fn barabasi_albert(n: usize, m_per_node: usize, back_prob: f64, seed: u64) -> Graph {
    assert!(n >= 2, "barabasi_albert: need at least 2 nodes");
    assert!(m_per_node >= 1, "barabasi_albert: m_per_node must be >= 1");
    assert!(
        (0.0..=1.0).contains(&back_prob),
        "barabasi_albert: back_prob {back_prob} must be in [0, 1]"
    );
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_edge_capacity(n, n * m_per_node);
    // `targets` holds one entry per unit of attachment mass: each node
    // appears once at birth (the +1 smoothing) plus once per in-edge.
    let mut targets: Vec<NodeId> = Vec::with_capacity(2 * n * m_per_node);
    targets.push(0);
    for u in 1..n as NodeId {
        let picks = m_per_node.min(u as usize);
        // Draw without replacement from the mass vector (retry duplicates;
        // picks is small so this terminates quickly).
        let mut chosen: Vec<NodeId> = Vec::with_capacity(picks);
        let mut guard = 0usize;
        while chosen.len() < picks {
            let t = targets[rng.next_index(targets.len())];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
            guard += 1;
            if guard > 64 * picks {
                // Extremely skewed mass: fall back to uniform to guarantee
                // termination (only reachable on adversarial inputs).
                let t = rng.next_index(u as usize) as NodeId;
                if !chosen.contains(&t) {
                    chosen.push(t);
                }
            }
        }
        for &t in &chosen {
            b.add_edge(u, t);
            targets.push(t);
            if back_prob > 0.0 && rng.bernoulli(back_prob) {
                b.add_edge(t, u);
            }
        }
        targets.push(u);
    }
    b.build()
}

/// Watts–Strogatz small-world graph (undirected, emitted as arc pairs).
///
/// Starts from a ring lattice where each node connects to its `k` nearest
/// neighbours on each side, then rewires each edge's far endpoint with
/// probability `beta`.
///
/// # Panics
/// Panics if `k == 0`, `2k >= n`, or `beta` is not in `[0, 1]`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Graph {
    assert!(k >= 1, "watts_strogatz: k must be >= 1");
    assert!(2 * k < n, "watts_strogatz: need 2k < n (k={k}, n={n})");
    assert!(
        (0.0..=1.0).contains(&beta),
        "watts_strogatz: beta {beta} must be in [0, 1]"
    );
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_edge_capacity(n, 2 * n * k);
    for u in 0..n {
        for j in 1..=k {
            let mut v = (u + j) % n;
            if rng.bernoulli(beta) {
                // Rewire to a uniform non-self target; duplicates are merged
                // by the builder, mirroring the classic algorithm's "skip if
                // already present" behaviour closely enough for our use.
                let mut w = rng.next_index(n);
                while w == u {
                    w = rng.next_index(n);
                }
                v = w;
            }
            b.add_undirected_edge(u as NodeId, v as NodeId);
        }
    }
    b.build()
}

/// Power-law configuration model (directed).
///
/// Out- and in-degree sequences are drawn i.i.d. from a discrete power law
/// `P(d) ∝ d^(−exponent)` on `[1, max_degree]`, rescaled so the expected
/// average degree is `avg_degree`; stubs are then matched uniformly at
/// random. Self-loops and parallel edges are discarded, so the realised
/// edge count is slightly below the drawn stub count (as is standard).
///
/// This is the stand-in for NetHEPT/DBLP-like collaboration networks; use
/// [`symmetrize`] for an undirected variant.
///
/// # Panics
/// Panics if `n == 0`, `exponent <= 1`, or `avg_degree <= 0`.
pub fn powerlaw_configuration(
    n: usize,
    exponent: f64,
    avg_degree: f64,
    max_degree: usize,
    seed: u64,
) -> Graph {
    assert!(n > 0, "powerlaw_configuration: n must be positive");
    assert!(
        exponent > 1.0,
        "powerlaw_configuration: exponent {exponent} must exceed 1"
    );
    assert!(
        avg_degree > 0.0,
        "powerlaw_configuration: avg_degree must be positive"
    );
    let max_degree = max_degree.max(1).min(n.saturating_sub(1).max(1));
    let mut rng = Rng::seed_from_u64(seed);

    // Discrete power-law pmf over [1, max_degree].
    let weights: Vec<f64> = (1..=max_degree)
        .map(|d| (d as f64).powf(-exponent))
        .collect();
    let raw_mean: f64 = {
        let total: f64 = weights.iter().sum();
        weights
            .iter()
            .enumerate()
            .map(|(i, w)| (i + 1) as f64 * w / total)
            .sum()
    };
    // Thin the sequence towards the requested mean by accepting each unit of
    // degree with probability avg/raw_mean (when avg < raw_mean) or by
    // scaling up (when avg > raw_mean).
    let scale = avg_degree / raw_mean;
    let table = tim_rng::AliasTable::new(&weights);

    let draw_degrees = |rng: &mut Rng| -> Vec<usize> {
        (0..n)
            .map(|_| {
                let d = table.sample(rng) + 1;
                let scaled = d as f64 * scale;
                let base = scaled.floor() as usize;
                let frac = scaled - base as f64;
                base + usize::from(rng.bernoulli(frac))
            })
            .collect()
    };
    let out_deg = draw_degrees(&mut rng);
    let in_deg = draw_degrees(&mut rng);

    // Build stub lists and trim the longer one to match.
    let mut out_stubs: Vec<NodeId> = Vec::new();
    for (v, &d) in out_deg.iter().enumerate() {
        out_stubs.extend(std::iter::repeat_n(v as NodeId, d));
    }
    let mut in_stubs: Vec<NodeId> = Vec::new();
    for (v, &d) in in_deg.iter().enumerate() {
        in_stubs.extend(std::iter::repeat_n(v as NodeId, d));
    }
    rng.shuffle(&mut out_stubs);
    rng.shuffle(&mut in_stubs);
    let m = out_stubs.len().min(in_stubs.len());

    let mut b = GraphBuilder::with_edge_capacity(n, m);
    for i in 0..m {
        // Builder drops self-loops and merges duplicates.
        b.add_edge(out_stubs[i], in_stubs[i]);
    }
    b.build()
}

/// Returns the undirected closure: every edge gains its reverse arc.
pub fn symmetrize(g: &Graph) -> Graph {
    let mut b = GraphBuilder::with_edge_capacity(g.n(), 2 * g.m());
    for (u, v, p) in g.edges() {
        b.add_edge_with_probability(u, v, p);
        b.add_edge_with_probability(v, u, p);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_has_exact_edge_count() {
        let g = erdos_renyi_gnm(100, 500, 1);
        assert_eq!(g.n(), 100);
        assert_eq!(g.m(), 500);
        g.validate().unwrap();
    }

    #[test]
    fn gnm_is_deterministic() {
        let a: Vec<_> = erdos_renyi_gnm(50, 200, 2).edges().collect();
        let b: Vec<_> = erdos_renyi_gnm(50, 200, 2).edges().collect();
        let c: Vec<_> = erdos_renyi_gnm(50, 200, 3).edges().collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn gnm_rejects_impossible_m() {
        let _ = erdos_renyi_gnm(3, 10, 1);
    }

    #[test]
    fn ba_edge_count_close_to_expected() {
        let g = barabasi_albert(1000, 5, 0.0, 4);
        g.validate().unwrap();
        // Each node after the first adds min(m, u) edges; dedup may trim a few.
        let expected: usize = (1..1000usize).map(|u| 5usize.min(u)).sum();
        assert!(g.m() <= expected);
        assert!(g.m() as f64 > 0.95 * expected as f64, "m = {}", g.m());
    }

    #[test]
    fn ba_in_degree_is_heavy_tailed() {
        let g = barabasi_albert(2000, 4, 0.0, 5);
        let stats = g.degree_stats();
        // Preferential attachment: the hub's in-degree is far above average.
        assert!(
            stats.max_in_degree as f64 > 10.0 * stats.avg_degree,
            "max in-degree {} vs avg {}",
            stats.max_in_degree,
            stats.avg_degree
        );
    }

    #[test]
    fn ba_back_prob_adds_reciprocal_edges() {
        let g = barabasi_albert(500, 3, 1.0, 6);
        // With back_prob = 1 every edge must be reciprocated.
        for (u, v, _) in g.edges() {
            assert!(
                g.out_neighbors(v).contains(&u),
                "edge {u}->{v} lacks reciprocal"
            );
        }
    }

    #[test]
    fn watts_strogatz_zero_beta_is_ring_lattice() {
        let g = watts_strogatz(20, 2, 0.0, 7);
        g.validate().unwrap();
        // Ring lattice: every node has exactly 2k undirected neighbours.
        for v in 0..20u32 {
            assert_eq!(g.out_degree(v), 4, "node {v}");
        }
    }

    #[test]
    fn watts_strogatz_rewiring_changes_structure() {
        let a: Vec<_> = watts_strogatz(100, 3, 0.0, 8).edges().collect();
        let b: Vec<_> = watts_strogatz(100, 3, 0.5, 8).edges().collect();
        assert_ne!(a, b);
    }

    #[test]
    fn powerlaw_hits_target_average_degree() {
        let g = powerlaw_configuration(5000, 2.5, 4.0, 1000, 9);
        g.validate().unwrap();
        let avg = g.m() as f64 / g.n() as f64;
        assert!((avg - 4.0).abs() < 0.8, "average degree {avg}, wanted ~4.0");
    }

    #[test]
    fn powerlaw_is_heavy_tailed() {
        let g = powerlaw_configuration(5000, 2.2, 5.0, 2000, 10);
        let stats = g.degree_stats();
        assert!(
            stats.max_in_degree > 20,
            "max in-degree {} suspiciously small",
            stats.max_in_degree
        );
    }

    #[test]
    fn symmetrize_doubles_and_mirrors() {
        let g = erdos_renyi_gnm(50, 100, 11);
        let s = symmetrize(&g);
        s.validate().unwrap();
        for (u, v, _) in s.edges() {
            assert!(s.out_neighbors(v).contains(&u));
        }
        assert!(s.m() >= g.m());
        assert!(s.m() <= 2 * g.m());
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let pairs = [
            barabasi_albert(200, 3, 0.3, 42).m(),
            barabasi_albert(200, 3, 0.3, 42).m(),
        ];
        assert_eq!(pairs[0], pairs[1]);
        let ws = [
            watts_strogatz(100, 2, 0.2, 42).m(),
            watts_strogatz(100, 2, 0.2, 42).m(),
        ];
        assert_eq!(ws[0], ws[1]);
        let pl: Vec<_> = powerlaw_configuration(300, 2.5, 3.0, 100, 42)
            .edges()
            .collect();
        let pl2: Vec<_> = powerlaw_configuration(300, 2.5, 3.0, 100, 42)
            .edges()
            .collect();
        assert_eq!(pl, pl2);
    }
}
