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

    /// The mean of the distribution (the `E^c_i` the scheduler observes).
    pub fn mean(&self) -> f64 {
        match *self {
            DurationDistribution::Deterministic { value } => value,
            DurationDistribution::Exponential { mean } => mean,
            DurationDistribution::Pareto { scale, shape } => {
                if shape > 1.0 {
                    scale * shape / (shape - 1.0)
                } else {
                    f64::INFINITY
                }
            }
            DurationDistribution::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            DurationDistribution::TruncatedNormal { mean, .. } => mean,
        }
    }

    /// The variance of the distribution.
    ///
    /// For the truncated normal this is the variance of the *untruncated*
    /// parent, which is the quantity the trace generator advertises to
    /// schedulers; the small bias is irrelevant to the algorithms (they only
    /// use `σ` as a pessimism knob).
    pub fn variance(&self) -> f64 {
        match *self {
            DurationDistribution::Deterministic { .. } => 0.0,
            DurationDistribution::Exponential { mean } => mean * mean,
            DurationDistribution::Pareto { scale, shape } => {
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
            DurationDistribution::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -mean * u.ln()
            }
            DurationDistribution::Pareto { scale, shape } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                scale / u.powf(1.0 / shape)
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
}

impl ToJson for DurationDistribution {
    fn to_json(&self) -> JsonValue {
        // Externally tagged, mirroring serde's default enum representation.
        let (tag, body) = match *self {
            DurationDistribution::Deterministic { value } => (
                "Deterministic",
                JsonValue::object([("value", value.to_json())]),
            ),
            DurationDistribution::Exponential { mean } => {
                ("Exponential", JsonValue::object([("mean", mean.to_json())]))
            }
            DurationDistribution::Pareto { scale, shape } => (
                "Pareto",
                JsonValue::object([("scale", scale.to_json()), ("shape", shape.to_json())]),
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
        } else if let Some(body) = value.get("Exponential") {
            Ok(DurationDistribution::Exponential {
                mean: f(body, "mean")?,
            })
        } else if let Some(body) = value.get("Pareto") {
            Ok(DurationDistribution::Pareto {
                scale: f(body, "scale")?,
                shape: f(body, "shape")?,
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
            DurationDistribution::Exponential { mean } => write!(f, "Exp({mean:.1})"),
            DurationDistribution::Pareto { scale, shape } => {
                write!(f, "Pareto(µ={scale:.1},α={shape:.2})")
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
    fn exponential_moments() {
        let d = DurationDistribution::Exponential { mean: 30.0 };
        assert_eq!(d.mean(), 30.0);
        assert_eq!(d.std_dev(), 30.0);
        let (emp_mean, emp_std) = empirical_moments(&d, 200_000);
        assert!((emp_mean - 30.0).abs() < 0.5);
        assert!((emp_std - 30.0).abs() < 0.7);
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
            DurationDistribution::Exponential { mean: 30.0 },
            DurationDistribution::Pareto {
                scale: 12.8,
                shape: 1.9,
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
