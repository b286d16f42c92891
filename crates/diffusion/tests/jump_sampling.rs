//! Distribution tests for the geometric-jump RR sampler
//! ([`RrSampler::jumping`]) against the per-edge sampler
//! ([`RrSampler::new`]).
//!
//! The two consume different random streams, so equality is statistical
//! where jumps happen and exact where they cannot: on nodes with mixed
//! probabilities, with `p ∈ {0, 1}`, or too few in-edges to be worth a
//! jump, the jumping sampler runs the per-edge loop and must reproduce the
//! per-edge sampler's sets bit for bit from the same seed.

use tim_diffusion::{IndependentCascade, RrSampler, RrStats};
use tim_graph::{gen, weights, Graph, GraphBuilder, NodeId};
use tim_rng::Rng;

/// Tolerance for comparing two binomial counts: `|a − b|` within this many
/// standard deviations of their difference (pooled estimate).
const Z_TOL: f64 = 5.0;

/// A directed BA graph with weighted-cascade weights: in-degree hubs, and
/// every node's in-edges share `p = 1/indeg`.
fn wc_ba() -> Graph {
    let mut g = gen::barabasi_albert(1000, 3, 0.2, 41);
    weights::assign_weighted_cascade(&mut g);
    g
}

/// Per-node membership counts and summed stats over `sets` random RR sets.
fn membership(g: &Graph, jumping: bool, sets: usize, seed: u64) -> (Vec<u64>, RrStats) {
    let mut sampler = if jumping {
        RrSampler::jumping(IndependentCascade)
    } else {
        RrSampler::new(IndependentCascade)
    };
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut counts = vec![0u64; g.n()];
    let mut total = RrStats::default();
    for _ in 0..sets {
        let (_, st) = sampler.sample_random(g, &mut rng, &mut out);
        total.width += st.width;
        total.draws += st.draws;
        total.nodes += st.nodes;
        for &v in &out {
            counts[v as usize] += 1;
        }
    }
    (counts, total)
}

/// Asserts two binomial counts over `trials` each agree within [`Z_TOL`]
/// standard deviations of their difference.
fn assert_same_rate(a: u64, b: u64, trials: u64, what: &str) {
    let f = (a + b) as f64 / (2 * trials) as f64;
    let sd = (2.0 * trials as f64 * f * (1.0 - f)).sqrt();
    let diff = (a as f64 - b as f64).abs();
    assert!(
        diff <= Z_TOL * sd.max(1.0),
        "{what}: {a} vs {b} of {trials} (|Δ| = {diff}, σ = {sd:.1})"
    );
}

#[test]
fn jump_membership_frequencies_match_per_edge_on_a_weighted_cascade_ba_graph() {
    let g = wc_ba();
    let hubs = (0..g.n() as NodeId)
        .filter(|&v| g.in_degree(v) > 30)
        .count();
    assert!(hubs >= 5, "the graph needs in-degree hubs, has {hubs}");

    let sets = 100_000u64;
    let (jump, js) = membership(&g, true, sets as usize, 1);
    let (edge, es) = membership(&g, false, sets as usize, 2);
    // The jump path really ran: it drew far fewer uniforms than edges.
    assert_eq!(es.draws, es.width, "per-edge IC draws one coin per edge");
    assert!(
        js.draws * 2 < js.width,
        "jump draws {} vs width {}",
        js.draws,
        js.width
    );
    for v in 0..g.n() {
        assert_same_rate(jump[v], edge[v], sets, &format!("node {v}"));
    }
    // |R| per set: the same mean (a sum of the per-node frequencies, so
    // a looser check than the above, kept as the headline number).
    let (jn, en) = (js.nodes as f64 / sets as f64, es.nodes as f64 / sets as f64);
    assert!((jn - en).abs() / en < 0.02, "nodes/set {jn} vs {en}");
}

#[test]
fn lemma2_edge_frequency_holds_on_the_jump_path() {
    // Lemma 2 with S = {u}, v = root, once per in-edge: in an in-star the
    // RR set of the centre contains leaf u iff edge (u, 0) is live, so
    // each leaf's frequency is p. 100 in-edges at p = 0.02 take jumps.
    let (d, p) = (100u32, 0.02f32);
    let mut b = GraphBuilder::new(d as usize + 1);
    for u in 1..=d {
        b.add_edge_with_probability(u, 0, p);
    }
    let g = b.build();
    let mut sampler = RrSampler::jumping(IndependentCascade);
    let mut rng = Rng::seed_from_u64(3);
    let mut out = Vec::new();
    let trials = 100_000u64;
    let mut hits = vec![0u64; d as usize + 1];
    let mut draws = 0;
    for _ in 0..trials {
        let st = sampler.sample_for(&g, 0, &mut rng, &mut out);
        draws += st.draws;
        for &u in &out[1..] {
            hits[u as usize] += 1;
        }
    }
    // One uniform per live edge plus the one past the last in-edge.
    let live: u64 = hits.iter().sum();
    assert_eq!(draws, live + trials);
    // All d·trials edge draws pooled: Bin(d·trials, p), whose 5σ band
    // is ±1.1% of the mean, so a bias of a few percent in p fails here.
    let pooled = (d as u64 * trials) as f64;
    let (mean, sd) = (
        pooled * p as f64,
        (pooled * p as f64 * (1.0 - p as f64)).sqrt(),
    );
    assert!(
        (live as f64 - mean).abs() <= Z_TOL * sd,
        "{live} live edges, expected {mean}"
    );
    let sd = (trials as f64 * p as f64 * (1.0 - p as f64)).sqrt();
    for (u, &h) in hits.iter().enumerate().skip(1) {
        let expect = trials as f64 * p as f64;
        assert!(
            (h as f64 - expect).abs() <= Z_TOL * sd,
            "leaf {u}: {h} hits, expected {expect}"
        );
    }
}

/// Asserts the jumping and per-edge samplers give identical RR sets and
/// stats from the same seed on `g` — i.e. the jumping sampler never
/// jumped.
fn assert_per_edge_path(g: &Graph, what: &str) {
    let mut a = RrSampler::jumping(IndependentCascade);
    let mut b = RrSampler::new(IndependentCascade);
    let (mut ra, mut rb) = (Rng::seed_from_u64(9), Rng::seed_from_u64(9));
    let (mut oa, mut ob) = (Vec::new(), Vec::new());
    for i in 0..2_000 {
        let sa = a.sample_random(g, &mut ra, &mut oa);
        let sb = b.sample_random(g, &mut rb, &mut ob);
        assert_eq!(sa, sb, "{what}: set {i} stats");
        assert_eq!(oa, ob, "{what}: set {i}");
    }
}

/// An in-star of `d` leaves into node 0 with edge probabilities `probs`.
fn star(probs: &[f32]) -> Graph {
    let mut b = GraphBuilder::new(probs.len() + 1);
    for (i, &p) in probs.iter().enumerate() {
        b.add_edge_with_probability(i as NodeId + 1, 0, p);
    }
    b.build()
}

#[test]
fn mixed_and_degenerate_nodes_take_the_per_edge_path_and_match() {
    // Trivalency: every hub mixes {0.1, 0.01, 0.001}.
    let mut tri = gen::barabasi_albert(400, 3, 0.2, 5);
    weights::assign_trivalency(&mut tri, 7);
    assert_per_edge_path(&tri, "trivalency");

    // One p = 0 edge among 40 uniform ones.
    let mut probs = vec![0.05f32; 40];
    probs[17] = 0.0;
    assert_per_edge_path(&star(&probs), "one zero edge");

    // All edges deterministic (p = 1), and all dead (p = 0).
    assert_per_edge_path(&star(&[1.0; 40]), "p = 1");
    assert_per_edge_path(&star(&[0.0; 40]), "p = 0");

    // In-degree 0–3 at a shared p: a jump never beats ≤ 3 coins.
    let mut small = GraphBuilder::new(7);
    for (u, v) in [(1, 0), (2, 0), (3, 0), (4, 1), (5, 1), (6, 2)] {
        small.add_edge_with_probability(u, v, 0.5);
    }
    assert_per_edge_path(&small.build(), "in-degree 0-3");
}

#[test]
fn graphs_mixing_jump_and_per_edge_nodes_still_match() {
    // Weighted cascade everywhere, except hubs with an even id get
    // trivalency-like mixed weights: both paths run within one RR set.
    let mut g = wc_ba();
    let indeg: Vec<usize> = (0..g.n() as NodeId).map(|v| g.in_degree(v)).collect();
    g.assign_probabilities(|u, v| {
        let d = indeg[v as usize];
        if d > 10 && v % 2 == 0 {
            [0.1, 0.01, 0.001][(u % 3) as usize]
        } else {
            1.0 / d as f32
        }
    });
    let sets = 100_000u64;
    let (jump, js) = membership(&g, true, sets as usize, 11);
    let (edge, _) = membership(&g, false, sets as usize, 12);
    assert!(js.draws < js.width, "some node must have jumped");
    for v in 0..g.n() {
        assert_same_rate(jump[v], edge[v], sets, &format!("node {v}"));
    }
}

#[test]
fn jump_members_come_in_in_neighbour_order_without_duplicates() {
    // The centre of an in-star expands first, so its triggering set is
    // out[1..] verbatim: strictly increasing in-neighbour positions.
    let g = star(&[0.05; 200]);
    let mut sampler = RrSampler::jumping(IndependentCascade);
    let mut rng = Rng::seed_from_u64(4);
    let mut out = Vec::new();
    let mut nonempty = 0;
    for _ in 0..5_000 {
        sampler.sample_for(&g, 0, &mut rng, &mut out);
        assert_eq!(out[0], 0);
        assert!(out[1..].windows(2).all(|w| w[0] < w[1]), "{out:?}");
        nonempty += usize::from(out.len() > 1);
    }
    assert!(nonempty > 4_000);

    // Whole RR sets on a hub-heavy graph: no node twice.
    let g = wc_ba();
    for _ in 0..5_000 {
        sampler.sample_random(&g, &mut rng, &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), out.len(), "duplicates in {out:?}");
    }
}

#[test]
fn width_and_nodes_keep_their_meaning_on_the_jump_path() {
    let g = wc_ba();
    let mut sampler = RrSampler::jumping(IndependentCascade);
    let mut rng = Rng::seed_from_u64(6);
    let mut out = Vec::new();
    for _ in 0..2_000 {
        let (root, st) = sampler.sample_random(&g, &mut rng, &mut out);
        assert_eq!(out[0], root);
        assert_eq!(st.nodes, out.len() as u64);
        let width: u64 = out.iter().map(|&v| g.in_degree(v) as u64).sum();
        assert_eq!(st.width, width);
        assert!(st.examined() == st.nodes + st.width);
    }
}

#[test]
fn a_jumping_sampler_handed_another_graph_reclassifies_its_nodes() {
    // Same n and m, different probabilities: the cached per-node decision
    // for the first graph must not leak into the second.
    let uniform = star(&[0.05; 60]);
    let mut mixed_probs = vec![0.05f32; 60];
    mixed_probs[0] = 0.5;
    let mixed = star(&mixed_probs);
    let mut sampler = RrSampler::jumping(IndependentCascade);
    let mut rng = Rng::seed_from_u64(8);
    let mut out = Vec::new();
    let st = sampler.sample_for(&uniform, 0, &mut rng, &mut out);
    assert!(st.draws < 60, "uniform star jumps");

    let mut reference = RrSampler::new(IndependentCascade);
    let (mut ra, mut rb) = (Rng::seed_from_u64(10), Rng::seed_from_u64(10));
    let mut ob = Vec::new();
    for _ in 0..100 {
        let a = sampler.sample_for(&mixed, 0, &mut ra, &mut out);
        let b = reference.sample_for(&mixed, 0, &mut rb, &mut ob);
        assert_eq!((a, &out), (b, &ob));
    }
}
