//! Fig. 1 — weighted/unweighted average job flowtime as a function of the
//! sharing fraction ε, with r = 0.

use crate::runner::{average_summary, run_scheduler_averaged, SchedulerKind};
use crate::scenario::Scenario;

/// One point of the ε sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Row {
    /// The sharing fraction ε.
    pub epsilon: f64,
    /// Unweighted average job flowtime (seconds).
    pub mean_flowtime: f64,
    /// Weighted average job flowtime (seconds).
    pub weighted_mean_flowtime: f64,
}

/// The ε values swept in the paper's Fig. 1.
pub fn paper_epsilons() -> Vec<f64> {
    (1..=10).map(|i| i as f64 / 10.0).collect()
}

/// Runs the sweep: SRPTMS+C with r = 0 for each ε, averaged over the
/// scenario's seeds.
pub fn run(scenario: &Scenario, epsilons: &[f64]) -> Vec<Fig1Row> {
    epsilons
        .iter()
        .map(|&epsilon| {
            let kind = SchedulerKind::SrptMsC { epsilon, r: 0.0 };
            let outcomes = run_scheduler_averaged(kind, scenario);
            let summary = average_summary(kind, &outcomes);
            Fig1Row {
                epsilon,
                mean_flowtime: summary.mean,
                weighted_mean_flowtime: summary.weighted_mean,
            }
        })
        .collect()
}

/// Renders the sweep as a text table.
pub fn render(rows: &[Fig1Row]) -> String {
    let mut out = String::from("Fig. 1 — average job flowtime vs epsilon (SRPTMS+C, r = 0)\n");
    out.push_str(&format!(
        "{:>8} {:>18} {:>24}\n",
        "epsilon", "avg flowtime (s)", "weighted avg flowtime (s)"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>8.1} {:>18.1} {:>24.1}\n",
            row.epsilon, row.mean_flowtime, row.weighted_mean_flowtime
        ));
    }
    out
}

/// The ε that minimises the unweighted average flowtime (the paper finds
/// ε ≈ 0.6).
pub fn best_epsilon(rows: &[Fig1Row]) -> Option<f64> {
    rows.iter()
        .min_by(|a, b| a.mean_flowtime.total_cmp(&b.mean_flowtime))
        .map(|r| r.epsilon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_row_per_epsilon() {
        let rows = run(&Scenario::scaled(60, 1), &[0.3, 0.6, 1.0]);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.mean_flowtime > 0.0);
            assert!(row.weighted_mean_flowtime > 0.0);
        }
        assert!(best_epsilon(&rows).is_some());
    }

    #[test]
    fn paper_epsilons_cover_unit_interval() {
        let eps = paper_epsilons();
        assert_eq!(eps.len(), 10);
        assert!((eps[0] - 0.1).abs() < 1e-12);
        assert!((eps[9] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_mentions_every_epsilon() {
        let rows = vec![
            Fig1Row {
                epsilon: 0.2,
                mean_flowtime: 100.0,
                weighted_mean_flowtime: 120.0,
            },
            Fig1Row {
                epsilon: 0.8,
                mean_flowtime: 90.0,
                weighted_mean_flowtime: 110.0,
            },
        ];
        let table = render(&rows);
        assert!(table.contains("0.2"));
        assert!(table.contains("0.8"));
        assert_eq!(best_epsilon(&rows), Some(0.8));
    }
}
