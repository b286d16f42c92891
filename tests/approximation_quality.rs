//! Theorem 1 end-to-end: TIM's output is a `(1 − 1/e − ε)`-approximation.
//!
//! On deterministic graphs (all probabilities 0 or 1) the spread is exact
//! and OPT can be brute-forced, so the guarantee is checked without Monte
//! Carlo noise — for `Tim::run` and for every path the query engine
//! serves answers from (exact replay, fast prefix, a grown pool, sharded
//! selection). On small probabilistic graphs OPT is brute-forced with
//! high-precision estimates.

use tim_influence::prelude::*;

/// Exact spread on a deterministic (p ∈ {0, 1}) graph.
fn exact_spread(g: &Graph, seeds: &[NodeId]) -> f64 {
    let live = {
        // Keep only p = 1 edges.
        let mut b = GraphBuilder::new(g.n());
        for (u, v, p) in g.edges() {
            if p >= 1.0 {
                b.add_edge_with_probability(u, v, 1.0);
            }
        }
        b.build()
    };
    tim_influence::diffusion::live_edge::forward_reachable(&live, seeds)
        .iter()
        .filter(|&&x| x)
        .count() as f64
}

fn brute_force_opt(g: &Graph, k: usize, spread: impl Fn(&[NodeId]) -> f64) -> f64 {
    let nodes: Vec<NodeId> = (0..g.n() as NodeId).collect();
    let mut best = 0.0f64;
    let mut cur: Vec<NodeId> = Vec::with_capacity(k);
    fn rec(
        nodes: &[NodeId],
        k: usize,
        start: usize,
        cur: &mut Vec<NodeId>,
        best: &mut f64,
        spread: &impl Fn(&[NodeId]) -> f64,
    ) {
        if cur.len() == k {
            let s = spread(cur);
            if s > *best {
                *best = s;
            }
            return;
        }
        for i in start..nodes.len() {
            cur.push(nodes[i]);
            rec(nodes, k, i + 1, cur, best, spread);
            cur.pop();
        }
    }
    rec(&nodes, k, 0, &mut cur, &mut best, &spread);
    best
}

/// ε every deterministic-graph check runs at.
const EPS: f64 = 0.3;

/// The largest k the deterministic-graph checks ask for; engines warm
/// their pools for it, so smaller k exercise the subset paths.
const K_MAX: usize = 3;

/// Checks `(1 − 1/e − ε)·OPT` on random deterministic graphs (each edge
/// p = 1 or absent) for k ∈ {1, 2, 3}, with the seed set `pick(graph, k,
/// seed)` returns.
fn assert_guarantee_on_deterministic_graphs(
    path: &str,
    pick: impl Fn(&Graph, usize, u64) -> Vec<NodeId>,
) {
    for seed in 0..5u64 {
        let mut g = gen::erdos_renyi_gnm(14, 30, seed);
        weights::assign_constant(&mut g, 1.0);
        for k in 1..=K_MAX {
            let opt = brute_force_opt(&g, k, |s| exact_spread(&g, s));
            let seeds = pick(&g, k, seed * 31 + k as u64);
            assert_eq!(seeds.len(), k, "{path}: seed {seed}, k={k}");
            let achieved = exact_spread(&g, &seeds);
            let bound = (1.0 - 1.0 / std::f64::consts::E - EPS) * opt;
            assert!(
                achieved >= bound - 1e-9,
                "{path}: seed {seed}, k={k}: achieved {achieved} < bound {bound} (opt {opt})"
            );
        }
    }
}

/// A query engine at ε = [`EPS`] over `g`, its pool warmed for
/// [`K_MAX`].
fn warm_engine(g: &Graph, seed: u64, select_threads: usize) -> QueryEngine<IndependentCascade> {
    let mut engine = QueryEngine::new(g.clone(), IndependentCascade, "ic")
        .epsilon(EPS)
        .seed(seed)
        .k_max(K_MAX)
        .select_threads(select_threads);
    engine.warm();
    engine
}

#[test]
fn tim_meets_guarantee_on_deterministic_graphs() {
    assert_guarantee_on_deterministic_graphs("Tim::run", |g, k, seed| {
        Tim::new(IndependentCascade)
            .epsilon(EPS)
            .seed(seed)
            .run(g, k)
            .seeds
    });
}

#[test]
fn engine_exact_select_meets_guarantee_on_deterministic_graphs() {
    assert_guarantee_on_deterministic_graphs("select", |g, k, seed| {
        warm_engine(g, seed, 1).select(k).seeds
    });
}

#[test]
fn engine_select_fast_meets_guarantee_on_deterministic_graphs() {
    assert_guarantee_on_deterministic_graphs("select_fast", |g, k, seed| {
        warm_engine(g, seed, 1).select_fast(k).seeds
    });
}

#[test]
fn engine_grown_pool_meets_guarantee_on_deterministic_graphs() {
    // A looser-ε query fills the pool first; the tighter one must grow it
    // and still meet the guarantee at its own ε.
    assert_guarantee_on_deterministic_graphs("grown pool", |g, k, seed| {
        let mut engine = QueryEngine::new(g.clone(), IndependentCascade, "ic")
            .epsilon(3.0 * EPS)
            .seed(seed)
            .k_max(K_MAX);
        engine.warm();
        assert!(
            !engine.select(k).resampled,
            "the warm pool serves the loose ε"
        );
        let tight = engine.select_with(k, Some(EPS), None);
        assert!(tight.resampled, "the tighter ε must grow the pool");
        tight.seeds
    });
}

#[test]
fn engine_sharded_select_meets_guarantee_on_deterministic_graphs() {
    assert_guarantee_on_deterministic_graphs("select_threads(2)", |g, k, seed| {
        warm_engine(g, seed, 2).select(k).seeds
    });
}

#[test]
fn tim_plus_meets_guarantee_on_probabilistic_graph() {
    let mut g = gen::erdos_renyi_gnm(12, 40, 42);
    weights::assign_constant(&mut g, 0.4);
    let est = SpreadEstimator::new(IndependentCascade)
        .runs(20_000)
        .seed(1);
    let k = 2;
    let eps = 0.3;
    let opt = brute_force_opt(&g, k, |s| est.estimate(&g, s));
    let r = TimPlus::new(IndependentCascade)
        .epsilon(eps)
        .seed(2)
        .run(&g, k);
    let achieved = SpreadEstimator::new(IndependentCascade)
        .runs(100_000)
        .seed(3)
        .estimate(&g, &r.seeds);
    // 3% slack absorbs Monte Carlo noise in both OPT and the estimate.
    let bound = (1.0 - 1.0 / std::f64::consts::E - eps) * opt * 0.97;
    assert!(
        achieved >= bound,
        "achieved {achieved} < bound {bound} (opt proxy {opt})"
    );
}

#[test]
fn tim_is_near_optimal_in_practice_not_just_in_bound() {
    // Empirically TIM lands within a few percent of brute-force OPT on
    // small instances — far above the worst-case bound.
    let mut g = gen::barabasi_albert(15, 2, 0.3, 7);
    weights::assign_constant(&mut g, 1.0);
    let k = 2;
    let opt = brute_force_opt(&g, k, |s| exact_spread(&g, s));
    let r = TimPlus::new(IndependentCascade)
        .epsilon(0.2)
        .seed(8)
        .run(&g, k);
    let achieved = exact_spread(&g, &r.seeds);
    assert!(
        achieved >= 0.95 * opt,
        "achieved {achieved} vs opt {opt}: deterministic instance should be near-exact"
    );
}
