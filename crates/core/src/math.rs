//! The paper's numeric ingredients: `ln C(n, k)`, λ, λ′, ε′, `c_i`.
//!
//! All logarithms are natural, matching the paper's convention ("unless
//! otherwise specified, all logarithms in this paper are to the base e").

/// Most RR sets one sample may hold: pools index their sets by 32-bit id.
pub const MAX_SAMPLE_COUNT: u64 = u32::MAX as u64;

/// A sample count (KPT's `c_i`, refinement's θ′, or θ) that no pool can
/// hold: not finite, or more than [`MAX_SAMPLE_COUNT`] RR sets. Extreme
/// ε or ℓ values produce it; the planner reports it before drawing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleCountError {
    /// Which count is out of range (`c_i`, `theta'` or `theta`).
    pub what: &'static str,
    /// The count as computed.
    pub count: f64,
}

impl std::fmt::Display for SampleCountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} = {:.3e} RR sets exceeds the {MAX_SAMPLE_COUNT}-set pool limit; loosen eps or ell",
            self.what, self.count
        )
    }
}

impl std::error::Error for SampleCountError {}

/// Rounds a real-valued sample count up to a whole number of RR sets (at
/// least 1), or reports it when it is not finite or exceeds
/// [`MAX_SAMPLE_COUNT`].
pub fn sample_count(what: &'static str, count: f64) -> Result<u64, SampleCountError> {
    // NaN fails the comparison too.
    if count <= MAX_SAMPLE_COUNT as f64 {
        Ok(count.ceil().max(1.0) as u64)
    } else {
        Err(SampleCountError { what, count })
    }
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// Computed as `Σ_{i=1..k} ln((n − k + i) / i)` — O(k), exact enough for
/// λ's purposes (λ only needs a few significant digits), and safe for
/// n in the millions.
///
/// # Panics
/// Panics if `k > n`.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    assert!(k <= n, "ln_choose: k = {k} exceeds n = {n}");
    let k = k.min(n - k); // symmetry keeps the loop short
    let mut acc = 0.0f64;
    for i in 1..=k {
        acc += (((n - k + i) as f64) / (i as f64)).ln();
    }
    acc
}

/// λ from Equation 4:
/// `λ = (8 + 2ε) · n · (ℓ·ln n + ln C(n, k) + ln 2) / ε²`.
///
/// θ = λ / KPT⁺ is the number of RR sets Algorithm 1 samples.
///
/// # Panics
/// Panics on non-positive `ε`, `ℓ`, `n`, or `k > n`.
pub fn lambda(n: u64, k: u64, epsilon: f64, ell: f64) -> f64 {
    assert!(n > 0, "lambda: n must be positive");
    assert!(epsilon > 0.0, "lambda: epsilon must be positive");
    assert!(ell > 0.0, "lambda: ell must be positive");
    let n_f = n as f64;
    (8.0 + 2.0 * epsilon) * n_f * (ell * n_f.ln() + ln_choose(n, k) + 2.0f64.ln())
        / (epsilon * epsilon)
}

/// λ′ from Algorithm 3 line 7: `λ′ = (2 + ε′) · ℓ · n · ln n / ε′²`.
///
/// θ′ = λ′ / KPT* is the number of RR sets RefineKPT samples to estimate
/// the spread of its candidate seed set.
pub fn lambda_prime(n: u64, epsilon_prime: f64, ell: f64) -> f64 {
    assert!(n > 0, "lambda_prime: n must be positive");
    assert!(
        epsilon_prime > 0.0,
        "lambda_prime: epsilon_prime must be positive"
    );
    assert!(ell > 0.0, "lambda_prime: ell must be positive");
    let n_f = n as f64;
    (2.0 + epsilon_prime) * ell * n_f * n_f.ln() / (epsilon_prime * epsilon_prime)
}

/// The paper's choice of ε′ for TIM+ (§4.1):
/// `ε′ = 5 · (ℓ·ε² / (k + ℓ))^(1/3)`, derived by minimising an
/// approximation of the total RR sets generated by Algorithms 1 and 3.
pub fn epsilon_prime(epsilon: f64, k: u64, ell: f64) -> f64 {
    assert!(
        epsilon > 0.0 && ell > 0.0 && k > 0,
        "epsilon_prime: bad inputs"
    );
    5.0 * (ell * epsilon * epsilon / (k as f64 + ell)).cbrt()
}

/// Per-iteration sample count of Algorithm 2 (Equation 9):
/// `c_i = (6·ℓ·ln n + 6·ln log₂ n) · 2^i`.
pub fn kpt_iteration_samples(n: u64, ell: f64, i: u32) -> Result<u64, SampleCountError> {
    assert!(n >= 2, "kpt_iteration_samples: n must be at least 2");
    let n_f = n as f64;
    let log2n = n_f.log2();
    let base = 6.0 * ell * n_f.ln() + 6.0 * log2n.ln();
    sample_count("c_i", base * (1u64 << i) as f64)
}

/// `κ(R) = 1 − (1 − w(R)/m)^k` from Equation 8, the per-RR-set statistic
/// whose mean (times n) equals KPT (Lemma 5).
pub fn kappa(width: u64, m: u64, k: u64) -> f64 {
    debug_assert!(m > 0, "kappa: graph has no edges");
    let frac = (width as f64 / m as f64).min(1.0);
    1.0 - (1.0 - frac).powi(k.min(i32::MAX as u64) as i32)
}

/// The success-probability adjustment of §3.3 / §4.1: scaling ℓ by
/// `1 + ln c / ln n` turns a `1 − c·n^(−ℓ)` guarantee into `1 − n^(−ℓ)`.
pub fn adjusted_ell(ell: f64, n: u64, c: f64) -> f64 {
    assert!(n >= 2, "adjusted_ell: n must be at least 2");
    ell * (1.0 + c.ln() / (n as f64).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_choose_matches_small_cases() {
        assert_eq!(ln_choose(5, 0), 0.0);
        assert_eq!(ln_choose(5, 5), 0.0);
        assert!((ln_choose(5, 2) - 10.0f64.ln()).abs() < 1e-12);
        assert!((ln_choose(10, 3) - 120.0f64.ln()).abs() < 1e-12);
        assert!((ln_choose(52, 5) - 2_598_960.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn ln_choose_symmetry() {
        for n in [10u64, 50, 100] {
            for k in 0..=n.min(20) {
                assert!(
                    (ln_choose(n, k) - ln_choose(n, n - k)).abs() < 1e-9,
                    "C({n},{k})"
                );
            }
        }
    }

    #[test]
    fn ln_choose_handles_large_n() {
        // C(41.6e6, 50) — the paper's Twitter configuration. Must be finite
        // and roughly k·ln(n/k) + k ≈ 50·ln(832000) + ... (Stirling sanity).
        let v = ln_choose(41_600_000, 50);
        assert!(v.is_finite() && v > 0.0);
        let lower = 50.0 * (41_600_000.0f64 / 50.0).ln();
        let upper = 50.0 * (41_600_000.0f64 * std::f64::consts::E / 50.0).ln();
        assert!(
            v >= lower && v <= upper,
            "v = {v}, bounds [{lower}, {upper}]"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn ln_choose_rejects_k_above_n() {
        ln_choose(3, 4);
    }

    #[test]
    fn lambda_matches_formula_by_hand() {
        // n = 100, k = 1, eps = 0.5, ell = 1:
        // λ = 9 * 100 * (ln 100 + ln 100 + ln 2) / 0.25
        let expect = 9.0 * 100.0 * (100.0f64.ln() + 100.0f64.ln() + 2.0f64.ln()) / 0.25;
        assert!((lambda(100, 1, 0.5, 1.0) - expect).abs() < 1e-6);
    }

    #[test]
    fn lambda_scales_inverse_quadratically_with_epsilon() {
        let a = lambda(1000, 10, 0.1, 1.0);
        let b = lambda(1000, 10, 0.2, 1.0);
        // (8 + 2ε) changes slightly; the dominant factor is ε^-2 = 4x.
        let ratio = a / b;
        assert!((ratio - 4.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn lambda_increases_with_k_and_ell() {
        assert!(lambda(1000, 20, 0.2, 1.0) > lambda(1000, 10, 0.2, 1.0));
        assert!(lambda(1000, 10, 0.2, 2.0) > lambda(1000, 10, 0.2, 1.0));
    }

    #[test]
    fn lambda_prime_matches_formula() {
        let expect = (2.0 + 0.3) * 1.0 * 1000.0 * 1000.0f64.ln() / (0.3 * 0.3);
        assert!((lambda_prime(1000, 0.3, 1.0) - expect).abs() < 1e-6);
    }

    #[test]
    fn epsilon_prime_matches_formula() {
        let e = epsilon_prime(0.1, 50, 1.0);
        let expect = 5.0 * (0.01f64 / 51.0).cbrt();
        assert!((e - expect).abs() < 1e-12);
        // ε' must satisfy ε' >= ε / sqrt(k) for TIM+ to keep TIM's
        // complexity (§4.1).
        assert!(e >= 0.1 / 50.0f64.sqrt());
    }

    #[test]
    fn kpt_iteration_samples_double_per_iteration() {
        let c1 = kpt_iteration_samples(10_000, 1.0, 1).unwrap();
        let c2 = kpt_iteration_samples(10_000, 1.0, 2).unwrap();
        let c3 = kpt_iteration_samples(10_000, 1.0, 3).unwrap();
        assert!(c2 >= 2 * c1 - 2 && c2 <= 2 * c1 + 2);
        assert!(c3 >= 2 * c2 - 2 && c3 <= 2 * c2 + 2);
    }

    #[test]
    fn sample_count_rounds_up_and_rejects_what_no_pool_holds() {
        assert_eq!(sample_count("theta", 0.0), Ok(1));
        assert_eq!(sample_count("theta", 2.1), Ok(3));
        let max = MAX_SAMPLE_COUNT as f64;
        assert_eq!(sample_count("theta", max), Ok(MAX_SAMPLE_COUNT));
        for bad in [max + 1.0, 1e300, f64::INFINITY, f64::NAN] {
            let e = sample_count("theta'", bad).unwrap_err();
            assert_eq!(e.what, "theta'");
            assert!(e.to_string().starts_with("theta' = "), "{e}");
        }
        assert!(kpt_iteration_samples(10_000, 1e300, 1).is_err());
    }

    #[test]
    fn kappa_boundary_values() {
        assert_eq!(kappa(0, 100, 5), 0.0);
        assert_eq!(kappa(100, 100, 5), 1.0);
        // Width above m (possible only through rounding abuse) is clamped.
        assert_eq!(kappa(200, 100, 5), 1.0);
    }

    #[test]
    fn kappa_matches_closed_form() {
        let v = kappa(10, 100, 3);
        let expect = 1.0 - 0.9f64.powi(3);
        assert!((v - expect).abs() < 1e-12);
    }

    #[test]
    fn kappa_increases_with_k_and_width() {
        assert!(kappa(10, 100, 5) > kappa(10, 100, 2));
        assert!(kappa(20, 100, 3) > kappa(10, 100, 3));
    }

    #[test]
    fn adjusted_ell_matches_section_3_3() {
        // ℓ * (1 + ln 2 / ln n) for the 1 - 2n^-ℓ -> 1 - n^-ℓ upgrade.
        let l = adjusted_ell(1.0, 1000, 2.0);
        assert!((l - (1.0 + 2.0f64.ln() / 1000.0f64.ln())).abs() < 1e-12);
        assert!(adjusted_ell(1.0, 1000, 3.0) > l);
    }
}
