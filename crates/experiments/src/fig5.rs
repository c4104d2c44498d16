//! Fig. 5 — CDF of job flowtime for big jobs (300–4000 s) under SRPTMS+C,
//! SCA and Mantri.

use crate::fig4::{run_window, CdfComparison};
use crate::runner::SchedulerKind;
use crate::scenario::Scenario;

/// Runs the paper's Fig. 5: flowtime window 300–4000 s, SRPTMS+C vs SCA vs
/// Mantri, cumulative fraction over all jobs.
pub fn run(scenario: &Scenario) -> CdfComparison {
    run_window(
        scenario,
        &SchedulerKind::paper_comparison(),
        300.0,
        4000.0,
        16,
    )
}

/// Renders the comparison (delegates to the Fig. 4 renderer).
pub fn render(comparison: &CdfComparison) -> String {
    crate::fig4::render(
        comparison,
        "Fig. 5 — cumulative fraction of jobs vs flowtime (300–4000 s window)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_matches_paper() {
        let scenario = Scenario::scaled(50, 1);
        let cmp = run_window(&scenario, &[SchedulerKind::Fifo], 300.0, 4000.0, 5);
        assert!((cmp.lo - 300.0).abs() < 1e-12);
        assert!((cmp.hi - 4000.0).abs() < 1e-12);
        assert_eq!(cmp.series[0].points.len(), 5);
        assert!(render(&cmp).contains("Fig. 5") || !render(&cmp).is_empty());
    }
}
