//! The per-graph KPT memo: plans through [`KptMemo`] are bit-identical to
//! fresh [`TimPlus::try_plan`] runs at every ε, one key is estimated once
//! however many planners race for it, failures are not memoized, and two
//! models on one graph never share an entry.

use std::sync::Barrier;
use std::time::Duration;
use tim_core::{KptMemo, SamplingPlan, TimPlus};
use tim_diffusion::{DiffusionModel, IndependentCascade, LinearThreshold};
use tim_graph::{gen, weights, Graph};

/// Weighted-cascade weights sum to 1 over each node's in-edges, so the
/// same graph is valid under IC and LT.
fn wc_graph() -> Graph {
    let mut g = gen::barabasi_albert(1_000, 4, 0.0, 3);
    weights::assign_weighted_cascade(&mut g);
    g
}

fn planner<M>(model: M, eps: f64) -> TimPlus<M> {
    TimPlus::new(model).epsilon(eps).seed(11).threads(2)
}

/// Every field a plan's answers depend on, floats by their bits.
fn assert_same_plan(memo: &SamplingPlan, fresh: &SamplingPlan, what: &str) {
    assert_eq!(memo.k, fresh.k, "{what}: k");
    assert_eq!(memo.theta, fresh.theta, "{what}: theta");
    assert_eq!(memo.select_seed, fresh.select_seed, "{what}: select_seed");
    let (m_rr, f_rr) = (memo.estimation_rr_sets, fresh.estimation_rr_sets);
    assert_eq!(m_rr, f_rr, "{what}: estimation_rr_sets");
    let bits = |p: &SamplingPlan| {
        (
            p.kpt_star.to_bits(),
            p.kpt_plus.map(f64::to_bits),
            p.epsilon_prime.map(f64::to_bits),
            p.ell_eff.to_bits(),
        )
    };
    assert_eq!(
        bits(memo),
        bits(fresh),
        "{what}: kpt_star/kpt_plus/epsilon_prime/ell_eff"
    );
}

/// Plans `model` under `tag` through `memo` at every (ε, k) of the grid
/// and checks each plan against a fresh one.
fn check_grid<M: DiffusionModel<Graph> + Clone>(g: &Graph, model: M, tag: &str, memo: &KptMemo) {
    for eps in [0.5, 0.75, 1.2] {
        for k in [1, 50] {
            let p = planner(model.clone(), eps);
            let hits = memo.hits();
            let via_memo = p.try_plan_memo(g, k, memo, tag).unwrap();
            let fresh = p.try_plan(g, k).unwrap();
            assert_same_plan(&via_memo, &fresh, &format!("{tag} eps={eps} k={k}"));
            if memo.hits() > hits {
                // A hit skips Algorithm 2 entirely.
                assert_eq!(via_memo.phases.parameter_estimation, Duration::ZERO);
            }
        }
    }
}

#[test]
fn memo_plans_equal_fresh_plans_for_ic_and_lt() {
    let g = wc_graph();
    let memo = KptMemo::new();
    check_grid(&g, IndependentCascade, "ic", &memo);
    // One estimation per k; every other ε reuses it.
    assert_eq!((memo.misses(), memo.hits()), (2, 4));
    // LT on the same graph, same seed/k/ℓ: its own entries, never IC's
    // (sharing them would leave LT plans with IC's KPT* and fail above).
    check_grid(&g, LinearThreshold, "lt", &memo);
    assert_eq!((memo.misses(), memo.hits()), (4, 8));
}

#[test]
fn racing_planners_of_one_key_estimate_once() {
    let g = wc_graph();
    let memo = KptMemo::new();
    let barrier = Barrier::new(4);
    let plans: Vec<SamplingPlan> = std::thread::scope(|s| {
        let handles: Vec<_> = [0.5, 0.6, 0.7, 0.8]
            .into_iter()
            .map(|eps| {
                let (g, memo, barrier) = (&g, &memo, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    planner(IndependentCascade, eps)
                        .try_plan_memo(g, 50, memo, "ic")
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!((memo.misses(), memo.hits()), (1, 3));
    for (plan, eps) in plans.iter().zip([0.5, 0.6, 0.7, 0.8]) {
        let fresh = planner(IndependentCascade, eps).try_plan(&g, 50).unwrap();
        assert_same_plan(plan, &fresh, &format!("racer eps={eps}"));
        assert_eq!(plan.kpt_star.to_bits(), plans[0].kpt_star.to_bits());
    }
}

#[test]
fn failed_estimations_are_returned_and_not_memoized() {
    let g = wc_graph();
    let memo = KptMemo::new();
    let extreme = planner(IndependentCascade, 0.5).ell(1e300);
    for attempt in 1..=2 {
        let err = extreme.try_plan_memo(&g, 5, &memo, "ic").unwrap_err();
        assert!(err.to_string().contains("RR sets"), "{err}");
        assert_eq!((memo.misses(), memo.hits()), (attempt, 0));
    }
    // The memo still plans ordinary keys.
    let ok = planner(IndependentCascade, 0.5).try_plan_memo(&g, 5, &memo, "ic");
    assert!(ok.is_ok());
    assert_eq!((memo.misses(), memo.hits()), (3, 0));
}
