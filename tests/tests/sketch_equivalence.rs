//! Quantile-sketch laws: shard-mergeability and the documented error bound.
//!
//! The streaming flowtime sketch ([`mapreduce_metrics::QuantileSketch`])
//! underwrites every "CDF without per-job records" path in the repo — the
//! server's `cdf` sweeps, the `metrics` exposition, the stream tiers'
//! percentiles — and is the histogram type of every `MetricsRegistry`.
//! These proptests pin the two contracts everything downstream leans on:
//!
//! 1. **Shard discipline** — folding a value set shard-by-shard and merging,
//!    under any split and any merge tree, is bit-identical to folding the
//!    whole set into one sketch (the law `MetricsRegistry::merge_histogram`
//!    inherits), and the JSON form roundtrips losslessly.
//! 2. **Error bound** — against the exact [`Ecdf`] over the same samples,
//!    every sketch quantile is within `RELATIVE_ERROR` (1/64) of the true
//!    rank-selected sample, and every CDF fraction is bracketed by the exact
//!    fraction at `x` and at `x · (1 + RELATIVE_ERROR)` — a bounded
//!    rightward nudge of the evaluation point, never a miscounted sample.
//!    Pinned both on adversarial synthetic values spanning the full `u64`
//!    dynamic range and on real flowtimes from the golden scheduler suite,
//!    including the sketches folded live by [`SimTelemetry`] during an
//!    observed run.

use mapreduce_baselines::{FairScheduler, Fifo, Late, Mantri, Restart, Sca};
use mapreduce_metrics::{Ecdf, QuantileSketch, SimTelemetry};
use mapreduce_sched::SrptMsC;
use mapreduce_sim::{Scheduler, SimConfig, Simulation, StragglerModel};
use mapreduce_support::json::{FromJson, ToJson};
use mapreduce_support::proptest::prelude::*;
use mapreduce_workload::{ArrivalProcess, DurationDistribution, Trace, WorkloadBuilder};

/// A fresh instance of every scheduler in the golden suite.
fn golden_suite() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(SrptMsC::new(0.6, 3.0)),
        Box::new(Mantri::new()),
        Box::new(Late::new()),
        Box::new(Restart::new()),
        Box::new(FairScheduler::new()),
        Box::new(Fifo::new()),
        Box::new(Sca::new()),
    ]
}

/// Synthetic values spanning the sketch's whole dynamic range: an LCG
/// stream where each draw is right-shifted by a pseudo-random amount, so
/// one vector mixes sub-64 exact values, mid-range buckets, and the top
/// `u64` octaves — the regions where bucket geometry could break.
fn wide_values(len: usize, seed: u64) -> Vec<u64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let shift = (state >> 58) as u32; // 0..=63
            state >> shift
        })
        .collect()
}

/// Folds a slice into a fresh sketch.
fn fold(values: &[u64]) -> QuantileSketch {
    let mut sketch = QuantileSketch::new();
    for &v in values {
        sketch.record(v);
    }
    sketch
}

/// Asserts the documented quantile and fraction bounds of `sketch` against
/// the exact ECDF over the same samples (given as `f64` for the Ecdf side).
fn assert_error_bound(label: &str, sketch: &QuantileSketch, exact: &Ecdf) -> Result<(), String> {
    prop_assert_eq!(sketch.count() as usize, exact.len());
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
        let approx = sketch.quantile(q).expect("non-empty sketch") as f64;
        let true_value = exact.quantile(q).expect("non-empty ecdf");
        // Same rank rule on both sides, so the reported value and the true
        // rank-th sample share a bucket: off by less than one bucket width,
        // i.e. within RELATIVE_ERROR of the true value.
        prop_assert!(
            (approx - true_value).abs() <= true_value * QuantileSketch::RELATIVE_ERROR + 1e-9,
            "{}: q={} sketch {} vs exact {}",
            label,
            q,
            approx,
            true_value
        );
    }
    // Fractions: the sketch counts whole buckets, which equals the exact
    // fraction at a nudged evaluation point x' ∈ [x, x·(1+RELATIVE_ERROR)).
    for &x in exact.values().iter().step_by((exact.len() / 8).max(1)) {
        let approx = sketch.fraction_at_or_below(x as u64);
        let lo = exact.fraction_at_or_below(x);
        let hi = exact.fraction_at_or_below(x * (1.0 + QuantileSketch::RELATIVE_ERROR) + 1e-9);
        prop_assert!(
            approx >= lo - 1e-12 && approx <= hi + 1e-12,
            "{}: fraction at {} = {} outside [{}, {}]",
            label,
            x,
            approx,
            lo,
            hi
        );
    }
    Ok(())
}

/// A small heavy-tailed workload, same shape as the telemetry equivalence
/// suite uses.
fn random_trace(jobs: usize, seed: u64, map_mean: f64) -> Trace {
    WorkloadBuilder::new()
        .num_jobs(jobs)
        .arrivals(ArrivalProcess::Poisson {
            mean_interarrival: 15.0,
        })
        .map_tasks_per_job(1, 5)
        .reduce_tasks_per_job(0, 2)
        .map_duration(DurationDistribution::lognormal_from_moments(map_mean, map_mean).unwrap())
        .reduce_duration(
            DurationDistribution::lognormal_from_moments(map_mean * 1.5, map_mean).unwrap(),
        )
        .weights(&[1.0, 2.0, 5.0])
        .build(seed)
}

/// Stragglers keep detection-based schedulers speculating.
fn config(machines: usize, seed: u64) -> SimConfig {
    SimConfig::new(machines)
        .with_seed(seed)
        .with_straggler_model(StragglerModel::MachineSlowdown {
            probability: 0.15,
            factor: 5.0,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shard discipline on adversarial synthetic values: any three-way
    /// split, merged under either association, is bit-identical to the
    /// single fold — and the JSON form roundtrips.
    #[test]
    fn merge_is_associative_and_matches_the_single_fold(
        len in 1usize..400,
        seed in 0u64..u64::MAX,
        cut_a in 0usize..1000,
        cut_b in 0usize..1000,
    ) {
        let values = wide_values(len, seed);
        let i = cut_a % (len + 1);
        let j = i + cut_b % (len - i + 1);
        let (a, b, c) = (fold(&values[..i]), fold(&values[i..j]), fold(&values[j..]));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        let whole = fold(&values);

        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &whole);
        let reparsed = QuantileSketch::from_json(&whole.to_json())
            .expect("sketch JSON roundtrip");
        prop_assert_eq!(&reparsed, &whole);
    }

    /// The documented error bound holds across the full dynamic range of
    /// synthetic values.
    #[test]
    fn sketch_tracks_the_exact_ecdf_on_synthetic_values(
        len in 1usize..300,
        seed in 0u64..u64::MAX,
    ) {
        let values = wide_values(len, seed);
        let sketch = fold(&values);
        // Values above 2^53 lose precision as f64; clamp the Ecdf side to
        // the same f64 the comparison maths runs in.
        let exact = Ecdf::from_values(&values.iter().map(|&v| v as f64).collect::<Vec<_>>());
        assert_error_bound("synthetic", &sketch, &exact)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Real flowtimes: for every scheduler in the golden suite, the sketch
    /// folded from the outcome's records stays within the documented bound
    /// of the exact ECDF over those records.
    #[test]
    fn sketch_tracks_the_exact_ecdf_across_the_golden_suite(
        jobs in 5usize..20,
        machines in 4usize..32,
        seed in 0u64..1000,
        map_mean in 20.0f64..120.0,
    ) {
        let trace = random_trace(jobs, seed, map_mean);
        for mut scheduler in golden_suite() {
            let outcome = Simulation::new(config(machines, seed), &trace)
                .run(scheduler.as_mut())
                .expect("run must complete");
            let flowtimes: Vec<u64> = outcome.records().iter().map(|r| r.flowtime()).collect();
            let sketch = fold(&flowtimes);
            let exact = Ecdf::from_outcome(&outcome);
            assert_error_bound(scheduler.name(), &sketch, &exact)?;
        }
    }

    /// The sketches [`SimTelemetry`] folds live during an observed run are
    /// exactly the sketches of the outcome's records: total count and
    /// SMALL/BIG window partition match, the JSON payload roundtrips, and
    /// the `all` sketch obeys the error bound against the exact ECDF.
    #[test]
    fn telemetry_sketches_match_the_outcome_records(
        jobs in 5usize..20,
        machines in 4usize..24,
        seed in 0u64..1000,
    ) {
        let trace = random_trace(jobs, seed, 60.0);
        let mut telemetry = SimTelemetry::new();
        let outcome = Simulation::new(config(machines, seed), &trace)
            .run_with_observer(&mut SrptMsC::new(0.6, 3.0), &mut telemetry)
            .expect("observed run must complete");
        let sketches = telemetry.sketches();

        let flowtimes: Vec<u64> = outcome.records().iter().map(|r| r.flowtime()).collect();
        prop_assert_eq!(sketches.all.count() as usize, flowtimes.len());
        prop_assert_eq!(
            sketches.small.count(),
            flowtimes.iter().filter(|&&f| f < 300).count() as u64
        );
        prop_assert_eq!(
            sketches.big.count(),
            flowtimes.iter().filter(|&&f| (300..4000).contains(&f)).count() as u64
        );
        prop_assert_eq!(&sketches.all, &fold(&flowtimes));

        let reparsed = mapreduce_metrics::FlowtimeSketches::from_json(&sketches.to_json())
            .expect("sketches JSON roundtrip");
        prop_assert_eq!(&reparsed, sketches);

        assert_error_bound("telemetry", &sketches.all, &Ecdf::from_outcome(&outcome))?;
    }
}
