//! Algorithm 3 — `RefineKPT`, the heuristic that turns TIM into TIM+.
//!
//! Motivation (§4.1): KPT* is often far below OPT on real graphs, making
//! θ = λ/KPT* wastefully large. RefineKPT reuses the last iteration's RR
//! sets to greedily build a *good* candidate seed set `S'_k`, estimates its
//! spread on θ′ = λ′/KPT* fresh RR sets, and scales the estimate down by
//! `(1 + ε′)` so that `KPT′ ≤ E[I(S'_k)] ≤ OPT` holds with probability
//! `1 − n^(−ℓ)` (Lemma 8). The output `KPT⁺ = max(KPT′, KPT*)` is never
//! worse than KPT* and empirically ~3× tighter (paper Figure 5).
//!
//! The algorithm runs as two steps: [`refine_candidate`] (lines 2–6) is
//! ε-free and memoizable; [`refine_bound`] (lines 7–12) depends on ε.

use crate::kpt::KptEstimate;
use crate::math::{epsilon_prime, lambda_prime, sample_count, SampleCountError};
use crate::parallel::generate_rr_sets_per_edge;
use tim_coverage::greedy_max_cover;
use tim_diffusion::DiffusionModel;
use tim_graph::{CsrAccess, NodeId};
use tim_rng::{RandomSource, Rng};

/// Output of [`refine_bound`].
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

/// Algorithm 3 lines 2–6: the candidate `S'_k`, a greedy cover of the
/// last KPT iteration's RR sets. ε-free — it depends on the run only
/// through `kpt` — so [`KptMemo`](crate::memo::KptMemo) stores it with
/// KPT*.
pub fn refine_candidate(kpt: &mut KptEstimate, k: usize) -> Vec<NodeId> {
    greedy_max_cover(&mut kpt.last_iteration_sets, k).seeds
}

/// Algorithm 3 lines 7–12: estimates the spread of `candidate` (from
/// [`refine_candidate`]) on θ′ = λ′/KPT* fresh RR sets drawn from `rng`,
/// and scales it down to KPT⁺.
///
/// `eps_prime_override` forces a specific ε′ (`None` uses
/// `5·(ℓ·ε²/(k+ℓ))^(1/3)`). Fails before sampling when θ′ is more than
/// any pool can hold (an extreme ε or ℓ).
#[allow(clippy::too_many_arguments)]
pub fn refine_bound<G: CsrAccess, M: DiffusionModel<G> + Sync>(
    graph: &G,
    model: &M,
    k: usize,
    epsilon: f64,
    ell: f64,
    kpt_star: f64,
    candidate: &[NodeId],
    eps_prime_override: Option<f64>,
    rng: &mut Rng,
    threads: usize,
) -> Result<Refined, SampleCountError> {
    let n = graph.n() as u64;
    let eps_p = eps_prime_override.unwrap_or_else(|| epsilon_prime(epsilon, k.max(1) as u64, ell));
    assert!(eps_p > 0.0, "refine_bound: epsilon_prime must be positive");

    // Lines 7-9: θ' fresh RR sets.
    let lam_p = lambda_prime(n, eps_p, ell);
    let theta_prime = sample_count("theta'", lam_p / kpt_star)?;
    let (collection, _) =
        generate_rr_sets_per_edge(graph, model, theta_prime, rng.next_u64(), threads);

    // Lines 10-12.
    let f = collection.coverage_fraction(candidate);
    let kpt_prime = f * n as f64 / (1.0 + eps_p);
    Ok(Refined {
        kpt_plus: kpt_prime.max(kpt_star),
        kpt_prime,
        epsilon_prime: eps_p,
        theta_prime,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kpt::estimate_kpt;
    use tim_diffusion::{IndependentCascade, SpreadEstimator};
    use tim_graph::{gen, weights, Graph};

    /// Both steps of Algorithm 3 at ε = 0.5, ℓ = 1, as the planner runs
    /// them.
    fn refine(
        g: &Graph,
        k: usize,
        mut kpt: KptEstimate,
        eps_prime_override: Option<f64>,
        rng: &mut Rng,
        threads: usize,
    ) -> Refined {
        let candidate = refine_candidate(&mut kpt, k);
        let (model, star) = (&IndependentCascade, kpt.kpt_star);
        refine_bound(
            g,
            model,
            k,
            0.5,
            1.0,
            star,
            &candidate,
            eps_prime_override,
            rng,
            threads,
        )
        .unwrap()
    }

    fn setup(seed: u64) -> Graph {
        let mut g = gen::barabasi_albert(400, 4, 0.0, seed);
        weights::assign_weighted_cascade(&mut g);
        g
    }

    #[test]
    fn kpt_plus_never_below_kpt_star() {
        let g = setup(1);
        let mut rng = Rng::seed_from_u64(2);
        let kpt = estimate_kpt(&g, &IndependentCascade, 10, 1.0, &mut rng).unwrap();
        let star = kpt.kpt_star;
        let refined = refine(&g, 10, kpt, None, &mut rng, 1);
        assert!(refined.kpt_plus >= star);
        assert!(refined.theta_prime >= 1);
    }

    #[test]
    fn kpt_plus_tightens_the_bound_on_scale_free_graphs() {
        // The paper reports KPT+ >= 3x KPT* on NetHEPT; our BA stand-in
        // should show a clear improvement too (>= 1.2x is conservative).
        let g = setup(3);
        let mut rng = Rng::seed_from_u64(4);
        let kpt = estimate_kpt(&g, &IndependentCascade, 20, 1.0, &mut rng).unwrap();
        let star = kpt.kpt_star;
        let refined = refine(&g, 20, kpt, None, &mut rng, 1);
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
        let kpt = estimate_kpt(&g, &IndependentCascade, k as u64, 1.0, &mut rng).unwrap();
        let refined = refine(&g, k, kpt, None, &mut rng, 1);
        let sel = crate::select::node_selection(&g, &IndependentCascade, k, 20_000, 7, 2);
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
        let kpt = estimate_kpt(&g, &IndependentCascade, 5, 1.0, &mut rng).unwrap();
        let refined = refine(&g, 5, kpt, Some(0.25), &mut rng, 1);
        assert_eq!(refined.epsilon_prime, 0.25);
    }

    #[test]
    fn refinement_is_deterministic() {
        let g = setup(11);
        let run = |seed: u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let kpt = estimate_kpt(&g, &IndependentCascade, 8, 1.0, &mut rng).unwrap();
            refine(&g, 8, kpt, None, &mut rng, 2).kpt_plus
        };
        assert_eq!(run(12), run(12));
    }
}
