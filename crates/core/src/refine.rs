//! Algorithm 3 — `RefineKPT`, the heuristic that turns TIM into TIM+.
//!
//! Motivation (§4.1): KPT* is often far below OPT on real graphs, making
//! θ = λ/KPT* wastefully large. RefineKPT reuses the last iteration's RR
//! sets to greedily build a *good* candidate seed set `S'_k`, estimates its
//! spread on θ′ = λ′/KPT* fresh RR sets, and scales the estimate down by
//! `(1 + ε′)` so that `KPT′ ≤ E[I(S'_k)] ≤ OPT` holds with probability
//! `1 − n^(−ℓ)` (Lemma 8). The output `KPT⁺ = max(KPT′, KPT*)` is never
//! worse than KPT* and empirically ~3× tighter (paper Figure 5).

use crate::kpt::KptEstimate;
use crate::math::{epsilon_prime, lambda_prime};
use crate::parallel::generate_rr_sets_per_edge;
use crate::select::run_greedy;
use crate::tim::GreedyImpl;
use tim_diffusion::DiffusionModel;
use tim_graph::CsrAccess;
use tim_rng::{RandomSource, Rng};

/// Output of [`refine_kpt`].
#[derive(Debug, Clone)]
pub struct Refined {
    /// `KPT⁺ = max(KPT′, KPT*)`: the tightened lower bound on OPT.
    pub kpt_plus: f64,
    /// The intermediate estimate `KPT′ = f·n/(1 + ε′)`.
    pub kpt_prime: f64,
    /// ε′ used (the paper's §4.1 formula unless overridden).
    pub epsilon_prime: f64,
    /// θ′: number of fresh RR sets sampled for the spread estimate.
    pub theta_prime: u64,
}

/// Runs Algorithm 3.
///
/// `kpt` is the output of [`estimate_kpt`](crate::kpt::estimate_kpt)
/// (consumed for its last-iteration RR sets); `eps_prime_override` forces a
/// specific ε′ (`None` uses `5·(ℓ·ε²/(k+ℓ))^(1/3)`).
#[allow(clippy::too_many_arguments)]
pub fn refine_kpt<G: CsrAccess, M: DiffusionModel<G> + Sync>(
    graph: &G,
    model: &M,
    k: usize,
    epsilon: f64,
    ell: f64,
    mut kpt: KptEstimate,
    eps_prime_override: Option<f64>,
    rng: &mut Rng,
    threads: usize,
    select_threads: usize,
    greedy: GreedyImpl,
) -> Refined {
    let n = graph.n() as u64;
    let eps_p = eps_prime_override.unwrap_or_else(|| epsilon_prime(epsilon, k.max(1) as u64, ell));
    assert!(eps_p > 0.0, "refine_kpt: epsilon_prime must be positive");

    // Lines 2-6: greedy cover on the last iteration's RR sets.
    let cover = run_greedy(&mut kpt.last_iteration_sets, k, greedy, select_threads);
    let candidate = cover.seeds;

    // Lines 7-9: θ' fresh RR sets.
    let lam_p = lambda_prime(n, eps_p, ell);
    let theta_prime = (lam_p / kpt.kpt_star).ceil().max(1.0) as u64;
    let (collection, _) =
        generate_rr_sets_per_edge(graph, model, theta_prime, rng.next_u64(), threads);

    // Lines 10-12.
    let f = collection.coverage_fraction(&candidate);
    let kpt_prime = f * n as f64 / (1.0 + eps_p);
    Refined {
        kpt_plus: kpt_prime.max(kpt.kpt_star),
        kpt_prime,
        epsilon_prime: eps_p,
        theta_prime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kpt::estimate_kpt;
    use tim_diffusion::{IndependentCascade, SpreadEstimator};
    use tim_graph::{gen, weights, Graph};

    fn setup(seed: u64) -> Graph {
        let mut g = gen::barabasi_albert(400, 4, 0.0, seed);
        weights::assign_weighted_cascade(&mut g);
        g
    }

    #[test]
    fn kpt_plus_never_below_kpt_star() {
        let g = setup(1);
        let mut rng = Rng::seed_from_u64(2);
        let kpt = estimate_kpt(&g, &IndependentCascade, 10, 1.0, &mut rng);
        let star = kpt.kpt_star;
        let refined = refine_kpt(
            &g,
            &IndependentCascade,
            10,
            0.5,
            1.0,
            kpt,
            None,
            &mut rng,
            1,
            1,
            GreedyImpl::LazyHeap,
        );
        assert!(refined.kpt_plus >= star);
        assert!(refined.theta_prime >= 1);
    }

    #[test]
    fn kpt_plus_tightens_the_bound_on_scale_free_graphs() {
        // The paper reports KPT+ >= 3x KPT* on NetHEPT; our BA stand-in
        // should show a clear improvement too (>= 1.2x is conservative).
        let g = setup(3);
        let mut rng = Rng::seed_from_u64(4);
        let kpt = estimate_kpt(&g, &IndependentCascade, 20, 1.0, &mut rng);
        let star = kpt.kpt_star;
        let refined = refine_kpt(
            &g,
            &IndependentCascade,
            20,
            0.5,
            1.0,
            kpt,
            None,
            &mut rng,
            1,
            1,
            GreedyImpl::LazyHeap,
        );
        assert!(
            refined.kpt_plus >= 1.2 * star,
            "KPT+ = {} vs KPT* = {star}: refinement should tighten",
            refined.kpt_plus
        );
    }

    #[test]
    fn kpt_plus_stays_below_opt_proxy() {
        // KPT+ <= OPT w.h.p. Compare to the MC spread of TIM's own
        // selection with generous theta, a lower bound on OPT.
        let g = setup(5);
        let k = 10;
        let mut rng = Rng::seed_from_u64(6);
        let kpt = estimate_kpt(&g, &IndependentCascade, k as u64, 1.0, &mut rng);
        let refined = refine_kpt(
            &g,
            &IndependentCascade,
            k,
            0.5,
            1.0,
            kpt,
            None,
            &mut rng,
            1,
            1,
            GreedyImpl::LazyHeap,
        );
        let sel = crate::select::node_selection(
            &g,
            &IndependentCascade,
            k,
            20_000,
            7,
            2,
            1,
            GreedyImpl::LazyHeap,
        );
        let opt_proxy = SpreadEstimator::new(IndependentCascade)
            .runs(20_000)
            .seed(8)
            .estimate(&g, &sel.seeds);
        assert!(
            refined.kpt_plus <= 1.2 * opt_proxy,
            "KPT+ = {} vs OPT proxy {opt_proxy}",
            refined.kpt_plus
        );
    }

    #[test]
    fn epsilon_prime_override_is_respected() {
        let g = setup(9);
        let mut rng = Rng::seed_from_u64(10);
        let kpt = estimate_kpt(&g, &IndependentCascade, 5, 1.0, &mut rng);
        let refined = refine_kpt(
            &g,
            &IndependentCascade,
            5,
            0.5,
            1.0,
            kpt,
            Some(0.25),
            &mut rng,
            1,
            1,
            GreedyImpl::LazyHeap,
        );
        assert_eq!(refined.epsilon_prime, 0.25);
    }

    #[test]
    fn refinement_is_deterministic() {
        let g = setup(11);
        let run = |seed: u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let kpt = estimate_kpt(&g, &IndependentCascade, 8, 1.0, &mut rng);
            refine_kpt(
                &g,
                &IndependentCascade,
                8,
                0.5,
                1.0,
                kpt,
                None,
                &mut rng,
                2,
                2,
                GreedyImpl::LazyHeap,
            )
            .kpt_plus
        };
        assert_eq!(run(12), run(12));
    }
}
