//! Task-duration (workload) distributions.
//!
//! The paper models straggling through the *workload* of a task: every task of
//! a phase draws its workload i.i.d. from a phase-specific distribution with
//! known mean `E` and standard deviation `σ`, and measurement studies cited in
//! the paper (\[4\], \[26\]) report heavy-tailed (Pareto-like) task durations.
//!
//! [`DurationDistribution`] is the single enum the rest of the workspace uses:
//! the trace generator samples ground-truth workloads from it, the simulator
//! resamples clone durations from it, and the schedulers only ever see its
//! first two moments through [`crate::PhaseStats`].

use mapreduce_support::json::{FromJson, JsonError, JsonValue, ToJson};
use mapreduce_support::rng::{LogNormal, Normal, Rng};
use std::fmt;

/// Error produced when constructing a distribution from invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionError {
    message: String,
}

impl DistributionError {
    fn new(message: impl Into<String>) -> Self {
        DistributionError {
            message: message.into(),
        }
    }
}

impl fmt::Display for DistributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameters: {}", self.message)
    }
}

impl std::error::Error for DistributionError {}

/// A distribution over task workloads (equivalently, task durations on a
/// unit-speed machine).
///
/// All variants produce strictly positive samples. The enum is serializable so
/// traces carrying their generating distributions can be exported to JSON.
///
/// ```
/// use mapreduce_workload::DurationDistribution;
/// use mapreduce_support::rng::SimRng;
///
/// let d = DurationDistribution::pareto_from_mean(100.0, 1.8).unwrap();
/// assert!((d.mean() - 100.0).abs() < 1e-9);
/// let mut rng = SimRng::seed_from_u64(1);
/// let x = d.sample(&mut rng);
/// assert!(x > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum DurationDistribution {
    /// Every task takes exactly `value` time units. Zero variance; used for
    /// the "negligible variance" offline analysis (Remark 2).
    Deterministic {
        /// The constant workload.
        value: f64,
    },
    /// Uniform on `[min, max]`.
    Uniform {
        /// Lower bound (inclusive).
        min: f64,
        /// Upper bound (inclusive).
        max: f64,
    },
    /// Exponential with the given mean.
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Pareto distribution with CDF `1 - (scale/t)^shape` for `t >= scale`.
    ///
    /// This is exactly the heavy-tail model used in Section III-A of the paper
    /// to derive the speedup function `s(r) = rα−1 over r(α−1)`... more
    /// precisely `s(r) = (rα − 1) / (r(α − 1))`.
    Pareto {
        /// Scale parameter `µ` (minimum value).
        scale: f64,
        /// Shape parameter `α`. Must exceed 2 for a finite variance.
        shape: f64,
    },
    /// Pareto truncated at `max` (rejection-free: samples above `max` are
    /// clamped). Mirrors the bounded task durations observed in the Google
    /// trace (12.8 s … 22 919.3 s).
    BoundedPareto {
        /// Scale parameter `µ` (minimum value).
        scale: f64,
        /// Shape parameter `α`.
        shape: f64,
        /// Upper clamp applied to samples.
        max: f64,
    },
    /// Log-normal with the given parameters of the underlying normal.
    LogNormal {
        /// Mean of the underlying normal distribution.
        mu: f64,
        /// Standard deviation of the underlying normal distribution.
        sigma: f64,
    },
    /// A truncated normal distribution (resampled below `min`), convenient for
    /// low-variance workloads that are still not deterministic.
    TruncatedNormal {
        /// Mean of the (untruncated) normal.
        mean: f64,
        /// Standard deviation of the (untruncated) normal.
        std_dev: f64,
        /// Lower truncation bound.
        min: f64,
    },
}

impl DurationDistribution {
    /// Constructs a Pareto distribution with the requested mean and shape.
    ///
    /// The Pareto mean is `scale · shape / (shape − 1)`, so the scale is
    /// derived from the mean.
    ///
    /// # Errors
    /// Returns an error if `mean <= 0` or `shape <= 1` (infinite mean).
    pub fn pareto_from_mean(mean: f64, shape: f64) -> Result<Self, DistributionError> {
        if mean.is_nan() || mean <= 0.0 {
            return Err(DistributionError::new("mean must be positive"));
        }
        if shape.is_nan() || shape <= 1.0 {
            return Err(DistributionError::new("Pareto shape must exceed 1"));
        }
        let scale = mean * (shape - 1.0) / shape;
        Ok(DurationDistribution::Pareto { scale, shape })
    }

    /// Constructs a log-normal distribution with the requested mean and
    /// standard deviation (of the log-normal itself, not of the underlying
    /// normal).
    ///
    /// # Errors
    /// Returns an error if `mean <= 0` or `std_dev < 0`.
    pub fn lognormal_from_moments(mean: f64, std_dev: f64) -> Result<Self, DistributionError> {
        if mean.is_nan() || mean <= 0.0 {
            return Err(DistributionError::new("mean must be positive"));
        }
        if std_dev < 0.0 {
            return Err(DistributionError::new("std_dev must be non-negative"));
        }
        if std_dev == 0.0 {
            return Ok(DurationDistribution::Deterministic { value: mean });
        }
        let cv2 = (std_dev / mean).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Ok(DurationDistribution::LogNormal {
            mu,
            sigma: sigma2.sqrt(),
        })
    }

    /// Fits a distribution to a target mean and standard deviation, choosing
    /// the family by the coefficient of variation: deterministic for zero σ,
    /// truncated normal for CV ≤ 0.3, log-normal otherwise.
    ///
    /// # Errors
    /// Returns an error if `mean <= 0` or `std_dev < 0`.
    pub fn fit(mean: f64, std_dev: f64) -> Result<Self, DistributionError> {
        if mean.is_nan() || mean <= 0.0 {
            return Err(DistributionError::new("mean must be positive"));
        }
        if std_dev < 0.0 {
            return Err(DistributionError::new("std_dev must be non-negative"));
        }
        if std_dev == 0.0 {
            Ok(DurationDistribution::Deterministic { value: mean })
        } else if std_dev / mean <= 0.3 {
            Ok(DurationDistribution::TruncatedNormal {
                mean,
                std_dev,
                min: (mean - 4.0 * std_dev).max(mean * 0.01),
            })
        } else {
            Self::lognormal_from_moments(mean, std_dev)
        }
    }

    /// The mean of the distribution (the `E^c_i` the scheduler observes).
    pub fn mean(&self) -> f64 {
        match *self {
            DurationDistribution::Deterministic { value } => value,
            DurationDistribution::Uniform { min, max } => (min + max) / 2.0,
            DurationDistribution::Exponential { mean } => mean,
            DurationDistribution::Pareto { scale, shape } => {
                if shape > 1.0 {
                    scale * shape / (shape - 1.0)
                } else {
                    f64::INFINITY
                }
            }
            DurationDistribution::BoundedPareto { scale, shape, max } => {
                // Mean of a Pareto clamped at `max`:
                // E[min(X, max)] = ∫_scale^max (1-F(t)) dt + scale
                //               = scale + ∫_scale^max (scale/t)^shape dt
                if (shape - 1.0).abs() < 1e-12 {
                    scale + scale * (max / scale).ln()
                } else {
                    scale
                        + scale.powf(shape) / (1.0 - shape)
                            * (max.powf(1.0 - shape) - scale.powf(1.0 - shape))
                }
            }
            DurationDistribution::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            DurationDistribution::TruncatedNormal { mean, .. } => mean,
        }
    }

    /// The variance of the distribution.
    ///
    /// For the clamped/truncated families this is the variance of the
    /// *untruncated* parent, which is the quantity the trace generator
    /// advertises to schedulers; the small bias is irrelevant to the
    /// algorithms (they only use `σ` as a pessimism knob).
    pub fn variance(&self) -> f64 {
        match *self {
            DurationDistribution::Deterministic { .. } => 0.0,
            DurationDistribution::Uniform { min, max } => (max - min).powi(2) / 12.0,
            DurationDistribution::Exponential { mean } => mean * mean,
            DurationDistribution::Pareto { scale, shape }
            | DurationDistribution::BoundedPareto { scale, shape, .. } => {
                if shape > 2.0 {
                    scale * scale * shape / ((shape - 1.0).powi(2) * (shape - 2.0))
                } else {
                    f64::INFINITY
                }
            }
            DurationDistribution::LogNormal { mu, sigma } => {
                let s2 = sigma * sigma;
                (s2.exp() - 1.0) * (2.0 * mu + s2).exp()
            }
            DurationDistribution::TruncatedNormal { std_dev, .. } => std_dev * std_dev,
        }
    }

    /// The standard deviation of the distribution (the `σ^c_i` the scheduler
    /// observes).
    pub fn std_dev(&self) -> f64 {
        let v = self.variance();
        if v.is_finite() {
            v.sqrt()
        } else {
            f64::INFINITY
        }
    }

    /// Draws a single workload sample. Samples are always strictly positive
    /// and at least `f64::MIN_POSITIVE`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let x = match *self {
            DurationDistribution::Deterministic { value } => value,
            DurationDistribution::Uniform { min, max } => {
                if max > min {
                    rng.gen_range(min..=max)
                } else {
                    min
                }
            }
            DurationDistribution::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -mean * u.ln()
            }
            DurationDistribution::Pareto { scale, shape } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                scale / u.powf(1.0 / shape)
            }
            DurationDistribution::BoundedPareto { scale, shape, max } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                (scale / u.powf(1.0 / shape)).min(max)
            }
            DurationDistribution::LogNormal { mu, sigma } => {
                let dist = LogNormal::new(mu, sigma).expect("validated at construction");
                dist.sample(rng)
            }
            DurationDistribution::TruncatedNormal { mean, std_dev, min } => {
                let dist = Normal::new(mean, std_dev).expect("validated at construction");
                let mut v = dist.sample(rng);
                let mut tries = 0;
                while v < min && tries < 64 {
                    v = dist.sample(rng);
                    tries += 1;
                }
                v.max(min)
            }
        };
        x.max(f64::MIN_POSITIVE)
    }

    /// Draws `n` samples into a fresh vector.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// The coefficient of variation `σ / E`, a convenient measure of how
    /// straggler-prone the workload is.
    pub fn coefficient_of_variation(&self) -> f64 {
        let m = self.mean();
        if m > 0.0 {
            self.std_dev() / m
        } else {
            0.0
        }
    }

    /// Returns a copy of this distribution rescaled so its mean becomes
    /// `new_mean` (shape/CV preserved where the family allows it).
    pub fn with_mean(&self, new_mean: f64) -> Self {
        let old_mean = self.mean();
        let ratio = if old_mean > 0.0 && old_mean.is_finite() {
            new_mean / old_mean
        } else {
            1.0
        };
        match *self {
            DurationDistribution::Deterministic { .. } => {
                DurationDistribution::Deterministic { value: new_mean }
            }
            DurationDistribution::Uniform { min, max } => DurationDistribution::Uniform {
                min: min * ratio,
                max: max * ratio,
            },
            DurationDistribution::Exponential { .. } => {
                DurationDistribution::Exponential { mean: new_mean }
            }
            DurationDistribution::Pareto { scale, shape } => DurationDistribution::Pareto {
                scale: scale * ratio,
                shape,
            },
            DurationDistribution::BoundedPareto { scale, shape, max } => {
                DurationDistribution::BoundedPareto {
                    scale: scale * ratio,
                    shape,
                    max: max * ratio,
                }
            }
            DurationDistribution::LogNormal { mu, sigma } => DurationDistribution::LogNormal {
                mu: mu + ratio.ln(),
                sigma,
            },
            DurationDistribution::TruncatedNormal { mean, std_dev, min } => {
                let _ = mean;
                DurationDistribution::TruncatedNormal {
                    mean: new_mean,
                    std_dev: std_dev * ratio,
                    min: min * ratio,
                }
            }
        }
    }
}

impl ToJson for DurationDistribution {
    fn to_json(&self) -> JsonValue {
        // Externally tagged, mirroring serde's default enum representation.
        let (tag, body) = match *self {
            DurationDistribution::Deterministic { value } => (
                "Deterministic",
                JsonValue::object([("value", value.to_json())]),
            ),
            DurationDistribution::Uniform { min, max } => (
                "Uniform",
                JsonValue::object([("min", min.to_json()), ("max", max.to_json())]),
            ),
            DurationDistribution::Exponential { mean } => {
                ("Exponential", JsonValue::object([("mean", mean.to_json())]))
            }
            DurationDistribution::Pareto { scale, shape } => (
                "Pareto",
                JsonValue::object([("scale", scale.to_json()), ("shape", shape.to_json())]),
            ),
            DurationDistribution::BoundedPareto { scale, shape, max } => (
                "BoundedPareto",
                JsonValue::object([
                    ("scale", scale.to_json()),
                    ("shape", shape.to_json()),
                    ("max", max.to_json()),
                ]),
            ),
            DurationDistribution::LogNormal { mu, sigma } => (
                "LogNormal",
                JsonValue::object([("mu", mu.to_json()), ("sigma", sigma.to_json())]),
            ),
            DurationDistribution::TruncatedNormal { mean, std_dev, min } => (
                "TruncatedNormal",
                JsonValue::object([
                    ("mean", mean.to_json()),
                    ("std_dev", std_dev.to_json()),
                    ("min", min.to_json()),
                ]),
            ),
        };
        JsonValue::object([(tag, body)])
    }
}

impl FromJson for DurationDistribution {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let f = |body: &JsonValue, key: &str| -> Result<f64, JsonError> {
            f64::from_json(body.field(key)?)
        };
        if let Some(body) = value.get("Deterministic") {
            Ok(DurationDistribution::Deterministic {
                value: f(body, "value")?,
            })
        } else if let Some(body) = value.get("Uniform") {
            Ok(DurationDistribution::Uniform {
                min: f(body, "min")?,
                max: f(body, "max")?,
            })
        } else if let Some(body) = value.get("Exponential") {
            Ok(DurationDistribution::Exponential {
                mean: f(body, "mean")?,
            })
        } else if let Some(body) = value.get("Pareto") {
            Ok(DurationDistribution::Pareto {
                scale: f(body, "scale")?,
                shape: f(body, "shape")?,
            })
        } else if let Some(body) = value.get("BoundedPareto") {
            Ok(DurationDistribution::BoundedPareto {
                scale: f(body, "scale")?,
                shape: f(body, "shape")?,
                max: f(body, "max")?,
            })
        } else if let Some(body) = value.get("LogNormal") {
            Ok(DurationDistribution::LogNormal {
                mu: f(body, "mu")?,
                sigma: f(body, "sigma")?,
            })
        } else if let Some(body) = value.get("TruncatedNormal") {
            Ok(DurationDistribution::TruncatedNormal {
                mean: f(body, "mean")?,
                std_dev: f(body, "std_dev")?,
                min: f(body, "min")?,
            })
        } else {
            Err(JsonError::new("unknown DurationDistribution variant"))
        }
    }
}

impl fmt::Display for DurationDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurationDistribution::Deterministic { value } => write!(f, "Det({value:.1})"),
            DurationDistribution::Uniform { min, max } => write!(f, "U({min:.1},{max:.1})"),
            DurationDistribution::Exponential { mean } => write!(f, "Exp({mean:.1})"),
            DurationDistribution::Pareto { scale, shape } => {
                write!(f, "Pareto(µ={scale:.1},α={shape:.2})")
            }
            DurationDistribution::BoundedPareto { scale, shape, max } => {
                write!(f, "BPareto(µ={scale:.1},α={shape:.2},max={max:.0})")
            }
            DurationDistribution::LogNormal { mu, sigma } => {
                write!(f, "LogN(µ={mu:.2},σ={sigma:.2})")
            }
            DurationDistribution::TruncatedNormal { mean, std_dev, .. } => {
                write!(f, "TN({mean:.1},{std_dev:.1})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_support::rng::SimRng;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(0xC0FFEE)
    }

    fn empirical_moments(d: &DurationDistribution, n: usize) -> (f64, f64) {
        let mut r = rng();
        let samples = d.sample_n(&mut r, n);
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn deterministic_has_zero_variance() {
        let d = DurationDistribution::Deterministic { value: 5.0 };
        assert_eq!(d.mean(), 5.0);
        assert_eq!(d.std_dev(), 0.0);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 5.0);
        }
    }

    #[test]
    fn pareto_from_mean_matches_requested_mean() {
        let d = DurationDistribution::pareto_from_mean(1179.7, 2.5).unwrap();
        assert!((d.mean() - 1179.7).abs() < 1e-9);
        let (emp_mean, _) = empirical_moments(&d, 200_000);
        assert!(
            (emp_mean - 1179.7).abs() / 1179.7 < 0.05,
            "empirical mean {emp_mean} too far from 1179.7"
        );
    }

    #[test]
    fn pareto_rejects_bad_parameters() {
        assert!(DurationDistribution::pareto_from_mean(-1.0, 2.0).is_err());
        assert!(DurationDistribution::pareto_from_mean(10.0, 1.0).is_err());
        assert!(DurationDistribution::pareto_from_mean(10.0, 0.5).is_err());
    }

    #[test]
    fn lognormal_from_moments_matches_moments() {
        let d = DurationDistribution::lognormal_from_moments(100.0, 80.0).unwrap();
        assert!((d.mean() - 100.0).abs() < 1e-6);
        assert!((d.std_dev() - 80.0).abs() < 1e-6);
        let (emp_mean, emp_std) = empirical_moments(&d, 300_000);
        assert!((emp_mean - 100.0).abs() < 2.0, "empirical mean {emp_mean}");
        assert!((emp_std - 80.0).abs() < 5.0, "empirical std {emp_std}");
    }

    #[test]
    fn lognormal_zero_std_becomes_deterministic() {
        let d = DurationDistribution::lognormal_from_moments(50.0, 0.0).unwrap();
        assert_eq!(d, DurationDistribution::Deterministic { value: 50.0 });
    }

    #[test]
    fn fit_selects_family_by_cv() {
        assert!(matches!(
            DurationDistribution::fit(10.0, 0.0).unwrap(),
            DurationDistribution::Deterministic { .. }
        ));
        assert!(matches!(
            DurationDistribution::fit(10.0, 1.0).unwrap(),
            DurationDistribution::TruncatedNormal { .. }
        ));
        assert!(matches!(
            DurationDistribution::fit(10.0, 20.0).unwrap(),
            DurationDistribution::LogNormal { .. }
        ));
        assert!(DurationDistribution::fit(0.0, 1.0).is_err());
        assert!(DurationDistribution::fit(1.0, -1.0).is_err());
    }

    #[test]
    fn exponential_moments() {
        let d = DurationDistribution::Exponential { mean: 30.0 };
        assert_eq!(d.mean(), 30.0);
        assert_eq!(d.std_dev(), 30.0);
        let (emp_mean, emp_std) = empirical_moments(&d, 200_000);
        assert!((emp_mean - 30.0).abs() < 0.5);
        assert!((emp_std - 30.0).abs() < 0.7);
    }

    #[test]
    fn uniform_moments_and_bounds() {
        let d = DurationDistribution::Uniform {
            min: 10.0,
            max: 20.0,
        };
        assert_eq!(d.mean(), 15.0);
        assert!((d.variance() - 100.0 / 12.0).abs() < 1e-12);
        let mut r = rng();
        for _ in 0..1000 {
            let x = d.sample(&mut r);
            assert!((10.0..=20.0).contains(&x));
        }
    }

    #[test]
    fn bounded_pareto_respects_bounds() {
        let d = DurationDistribution::BoundedPareto {
            scale: 12.8,
            shape: 1.3,
            max: 22_919.3,
        };
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((12.8..=22_919.3).contains(&x));
        }
        assert!(d.mean() > 12.8 && d.mean() < 22_919.3);
    }

    #[test]
    fn bounded_pareto_mean_close_to_empirical() {
        let d = DurationDistribution::BoundedPareto {
            scale: 10.0,
            shape: 1.5,
            max: 1000.0,
        };
        let (emp_mean, _) = empirical_moments(&d, 400_000);
        assert!(
            (emp_mean - d.mean()).abs() / d.mean() < 0.03,
            "analytic {} vs empirical {emp_mean}",
            d.mean()
        );
    }

    #[test]
    fn truncated_normal_never_below_min() {
        let d = DurationDistribution::TruncatedNormal {
            mean: 10.0,
            std_dev: 5.0,
            min: 1.0,
        };
        let mut r = rng();
        for _ in 0..5000 {
            assert!(d.sample(&mut r) >= 1.0);
        }
    }

    #[test]
    fn with_mean_rescales() {
        let base = DurationDistribution::pareto_from_mean(100.0, 2.2).unwrap();
        let scaled = base.with_mean(250.0);
        assert!((scaled.mean() - 250.0).abs() < 1e-6);
        // CV preserved for Pareto
        assert!((scaled.coefficient_of_variation() - base.coefficient_of_variation()).abs() < 1e-9);

        let log = DurationDistribution::lognormal_from_moments(100.0, 150.0).unwrap();
        let log2 = log.with_mean(40.0);
        assert!((log2.mean() - 40.0).abs() < 1e-6);
    }

    #[test]
    fn samples_are_strictly_positive() {
        let dists = vec![
            DurationDistribution::Deterministic { value: 1.0 },
            DurationDistribution::Exponential { mean: 0.001 },
            DurationDistribution::pareto_from_mean(5.0, 3.0).unwrap(),
            DurationDistribution::lognormal_from_moments(2.0, 10.0).unwrap(),
        ];
        let mut r = rng();
        for d in dists {
            for _ in 0..1000 {
                assert!(d.sample(&mut r) > 0.0, "{d} produced non-positive sample");
            }
        }
    }

    #[test]
    fn json_roundtrip_covers_every_variant() {
        let dists = vec![
            DurationDistribution::Deterministic { value: 5.0 },
            DurationDistribution::Uniform { min: 1.0, max: 2.0 },
            DurationDistribution::Exponential { mean: 30.0 },
            DurationDistribution::Pareto {
                scale: 12.8,
                shape: 1.9,
            },
            DurationDistribution::BoundedPareto {
                scale: 12.8,
                shape: 1.3,
                max: 22_919.3,
            },
            DurationDistribution::LogNormal {
                mu: 1.5,
                sigma: 0.25,
            },
            DurationDistribution::TruncatedNormal {
                mean: 10.0,
                std_dev: 2.0,
                min: 1.0,
            },
        ];
        for d in dists {
            let text = d.to_json().to_compact_string();
            let back = DurationDistribution::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
            assert_eq!(back, d, "roundtrip failed for {text}");
        }
    }

    #[test]
    fn display_is_nonempty() {
        let d = DurationDistribution::pareto_from_mean(10.0, 2.0).unwrap();
        assert!(!format!("{d}").is_empty());
        assert!(!format!("{d:?}").is_empty());
    }

    #[test]
    fn sample_n_length() {
        let d = DurationDistribution::Exponential { mean: 1.0 };
        let mut r = rng();
        assert_eq!(d.sample_n(&mut r, 17).len(), 17);
    }
}
