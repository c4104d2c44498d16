//! Speedup functions `s(x)` for task cloning.
//!
//! Making `x` parallel copies of a task and keeping the first one to finish
//! reduces its expected duration from `E[p]` to `E[p] / s(x)`. The paper
//! requires the speedup function to be concave, strictly increasing, with
//! `s(1) = 1` and `s(x) ≤ x` (Section III-A). For task durations following a
//! Pareto distribution with shape `α > 1`, the first of `r` i.i.d. copies
//! finishes after an expected `(α − 1)·r / (αr − 1)` of the single-copy
//! mean, which gives the paper's closed form
//!
//! > `s(r) = (αr − 1) / (r(α − 1))`.
//!
//! [`ParetoSpeedup`] implements exactly that closed form, and the property
//! tests in this module check the three structural requirements.

use std::fmt::Debug;

/// A speedup function `s(x)` mapping the number of copies of a task to the
/// factor by which its expected duration shrinks.
///
/// Implementations must satisfy, for all `x ≥ 1`:
/// * `s(1) = 1`,
/// * `s` is non-decreasing and concave,
/// * `s(x) ≤ x`.
pub trait SpeedupFunction: Debug + Send + Sync {
    /// The speedup obtained from `copies` parallel copies. `copies` is a real
    /// number so that analytical experiments can evaluate fractional
    /// allocations (the paper's analysis does exactly this with
    /// `s(w_i M / εW(t))`).
    fn speedup(&self, copies: f64) -> f64;

    /// Expected duration of a task with mean `mean_duration` when `copies`
    /// copies run in parallel.
    fn expected_duration(&self, mean_duration: f64, copies: f64) -> f64 {
        let c = copies.max(1.0);
        mean_duration / self.speedup(c).max(f64::MIN_POSITIVE)
    }
}

/// The Pareto-tail speedup `s(r) = (rα − 1) / (r(α − 1))` derived in
/// Section III-A of the paper for task durations following a Pareto
/// distribution with shape `α > 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoSpeedup {
    /// Shape parameter `α` of the Pareto task-duration distribution.
    pub alpha: f64,
}

impl ParetoSpeedup {
    /// Creates the speedup function for the given Pareto shape.
    ///
    /// # Panics
    /// Panics if `alpha <= 1` (the Pareto mean would be infinite).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 1.0, "Pareto shape must exceed 1, got {alpha}");
        ParetoSpeedup { alpha }
    }
}

impl Default for ParetoSpeedup {
    /// A moderately heavy tail (α = 2), the value most often used in the
    /// straggler literature.
    fn default() -> Self {
        ParetoSpeedup::new(2.0)
    }
}

impl SpeedupFunction for ParetoSpeedup {
    fn speedup(&self, copies: f64) -> f64 {
        let r = copies.max(1.0);
        // The raw Pareto form (rα − 1)/(r(α − 1)) exceeds r for very heavy
        // tails (α < 1 + 1/r); the paper's model additionally requires
        // s(x) ≤ x, so we take the pointwise minimum, which preserves
        // concavity and monotonicity.
        let raw = (r * self.alpha - 1.0) / (r * (self.alpha - 1.0));
        raw.min(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_support::proptest::prelude::*;

    fn check_structural_properties(s: &dyn SpeedupFunction, xs: &[f64]) {
        // s(1) = 1
        assert!((s.speedup(1.0) - 1.0).abs() < 1e-9);
        for &x in xs {
            let v = s.speedup(x);
            // s(x) <= x and s(x) >= 1 for x >= 1
            assert!(v <= x + 1e-9, "s({x}) = {v} exceeds x");
            assert!(v >= 1.0 - 1e-9, "s({x}) = {v} below 1");
        }
        // monotone non-decreasing
        let mut prev = 0.0;
        for &x in xs {
            let v = s.speedup(x);
            assert!(v + 1e-9 >= prev, "not monotone at {x}");
            prev = v;
        }
    }

    #[test]
    fn pareto_speedup_structural_properties() {
        let xs: Vec<f64> = (1..=64).map(|i| i as f64).collect();
        for alpha in [1.1, 1.5, 2.0, 3.0, 10.0] {
            check_structural_properties(&ParetoSpeedup::new(alpha), &xs);
        }
    }

    #[test]
    fn pareto_speedup_matches_closed_form() {
        let s = ParetoSpeedup::new(2.0);
        // s(r) = (2r - 1) / r for alpha = 2
        assert!((s.speedup(2.0) - 1.5).abs() < 1e-12);
        assert!((s.speedup(4.0) - 7.0 / 4.0).abs() < 1e-12);
        // Asymptote: alpha / (alpha - 1) = 2
        assert!(s.speedup(1e6) < 2.0);
        assert!(s.speedup(1e6) > 1.99);
    }

    #[test]
    fn pareto_speedup_is_concave_on_integers() {
        let s = ParetoSpeedup::new(1.8);
        let mut prev_gain = f64::INFINITY;
        for r in 2..40 {
            let gain = s.speedup(r as f64) - s.speedup((r - 1) as f64);
            assert!(gain <= prev_gain + 1e-12, "marginal gain increased at {r}");
            assert!(gain >= -1e-12);
            prev_gain = gain;
        }
    }

    #[test]
    fn expected_duration_shrinks_with_copies() {
        let s = ParetoSpeedup::new(2.0);
        let base = s.expected_duration(100.0, 1.0);
        assert!((base - 100.0).abs() < 1e-9);
        assert!(s.expected_duration(100.0, 2.0) < base);
        assert!(s.expected_duration(100.0, 3.0) < s.expected_duration(100.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "shape must exceed 1")]
    fn pareto_rejects_small_alpha() {
        ParetoSpeedup::new(1.0);
    }

    proptest! {
        #[test]
        fn prop_pareto_speedup_bounds(alpha in 1.01f64..20.0, copies in 1.0f64..256.0) {
            let s = ParetoSpeedup::new(alpha);
            let v = s.speedup(copies);
            prop_assert!(v >= 1.0 - 1e-9);
            prop_assert!(v <= copies + 1e-9);
            prop_assert!(v <= alpha / (alpha - 1.0) + 1e-9);
        }

        #[test]
        fn prop_pareto_speedup_proposition_1(alpha in 1.01f64..20.0, a in 1.0f64..64.0, delta in 0.0f64..64.0) {
            // Proposition 1 of the paper: f(a)/a >= f(b)/b for b >= a > 0 when
            // f is concave with f(0) >= 0.
            let s = ParetoSpeedup::new(alpha);
            let b = a + delta;
            prop_assert!(s.speedup(a) / a + 1e-9 >= s.speedup(b) / b);
        }

        #[test]
        fn prop_expected_duration_monotone(copies in 1.0f64..64.0) {
            let s = ParetoSpeedup::new(2.5);
            prop_assert!(s.expected_duration(100.0, copies + 1.0) <= s.expected_duration(100.0, copies) + 1e-9);
        }
    }
}
