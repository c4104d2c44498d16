//! Fig. 4 — CDF of job flowtime for small jobs (0–300 s) under SRPTMS+C, SCA
//! and Mantri.

use crate::runner::{run_scheduler_averaged, SchedulerKind};
use crate::scenario::Scenario;
use mapreduce_metrics::Ecdf;

/// The CDF series of one scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct CdfSeries {
    /// Scheduler label.
    pub scheduler: String,
    /// `(flowtime, cumulative fraction of all jobs)` points.
    pub points: Vec<(f64, f64)>,
}

/// Output of the Fig. 4 / Fig. 5 experiments: one CDF series per scheduler
/// over a flowtime window.
#[derive(Debug, Clone, PartialEq)]
pub struct CdfComparison {
    /// Lower edge of the flowtime window (inclusive).
    pub lo: f64,
    /// Upper edge of the flowtime window (exclusive).
    pub hi: f64,
    /// One series per scheduler, in line-up order.
    pub series: Vec<CdfSeries>,
}

/// Runs a windowed CDF comparison for the given schedulers. The cumulative
/// fraction is normalised by the total number of jobs (as in the paper's
/// figures), pooling all seeds of the scenario.
pub fn run_window(
    scenario: &Scenario,
    kinds: &[SchedulerKind],
    lo: f64,
    hi: f64,
    points: usize,
) -> CdfComparison {
    let series = kinds
        .iter()
        .map(|&kind| {
            let outcomes = run_scheduler_averaged(kind, scenario);
            let mut flowtimes: Vec<f64> = Vec::new();
            let mut total_jobs = 0usize;
            for outcome in &outcomes {
                total_jobs += outcome.records().len();
                flowtimes.extend(outcome.records().iter().map(|r| r.flowtime() as f64));
            }
            let cdf = Ecdf::from_values(&flowtimes);
            CdfSeries {
                scheduler: kind.label(),
                points: cdf.series(lo, hi, points, Some(total_jobs)),
            }
        })
        .collect();
    CdfComparison { lo, hi, series }
}

/// Runs the paper's Fig. 4: small jobs, flowtime window 0–300 s, SRPTMS+C vs
/// SCA vs Mantri.
pub fn run(scenario: &Scenario) -> CdfComparison {
    run_window(scenario, &SchedulerKind::paper_comparison(), 0.0, 300.0, 13)
}

/// Renders a CDF comparison as a text table (one column per scheduler).
pub fn render(comparison: &CdfComparison, title: &str) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!("{:>12}", "flowtime"));
    for s in &comparison.series {
        out.push_str(&format!(" {:>22}", s.scheduler));
    }
    out.push('\n');
    if let Some(first) = comparison.series.first() {
        for (idx, (x, _)) in first.points.iter().enumerate() {
            out.push_str(&format!("{x:>12.0}"));
            for s in &comparison.series {
                out.push_str(&format!(" {:>22.3}", s.points[idx].1));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_comparison_has_monotone_series() {
        let scenario = Scenario::scaled(60, 1);
        let cmp = run_window(
            &scenario,
            &[SchedulerKind::Fair, SchedulerKind::paper_default()],
            0.0,
            300.0,
            7,
        );
        assert_eq!(cmp.series.len(), 2);
        for series in &cmp.series {
            assert_eq!(series.points.len(), 7);
            let mut prev = -1.0;
            for (_, y) in &series.points {
                assert!(*y >= prev);
                assert!((0.0..=1.0).contains(y));
                prev = *y;
            }
        }
        assert_eq!(cmp.series[0].scheduler, "Fair");
    }

    #[test]
    fn render_contains_scheduler_names() {
        let cmp = CdfComparison {
            lo: 0.0,
            hi: 300.0,
            series: vec![CdfSeries {
                scheduler: "SRPTMS+C".into(),
                points: vec![(0.0, 0.0), (300.0, 0.5)],
            }],
        };
        let table = render(&cmp, "Fig. 4");
        assert!(table.contains("SRPTMS+C"));
        assert!(table.contains("Fig. 4"));
    }
}
