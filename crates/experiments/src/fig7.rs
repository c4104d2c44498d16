//! Fig. 7 — failure-regime sweep: mean job flowtime as machine MTBF shrinks.
//!
//! Not a figure of the paper: the paper's evaluation assumes a reliable
//! cluster. This sweep crashes machines with exponential up/down epochs
//! (work on a crashed machine is lost and re-executed; see
//! [`mapreduce_sim::FaultPlan`]) and pits the cloning algorithm against
//! speculation and no-clone baselines. The point the figure makes: cloning's
//! flowtime advantage *widens* under churn, because a killed clone still
//! leaves siblings running, while single-copy strategies must restart the
//! task from scratch and re-pay its whole duration.

use crate::runner::{average_summary, run_lineup_averaged, SchedulerKind};
use crate::scenario::Scenario;
use mapreduce_metrics::FlowtimeSummary;
use mapreduce_sim::{FaultClass, FaultPlan};

/// Mean repair time as a fraction of mean up time: MTTR = MTBF / 8, a
/// machine is down ~11 % of the time regardless of the sweep level.
pub const MTTR_FRACTION: f64 = 1.0 / 8.0;

/// One (MTBF level × scheduler) cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Cell {
    /// Scheduler of this cell.
    pub kind: SchedulerKind,
    /// Flowtime summary averaged across the scenario's seeds.
    pub summary: FlowtimeSummary,
    /// Mean machine-slots of progress lost to crashes, across seeds.
    pub wasted_work: f64,
    /// Mean number of copies killed by crashes, across seeds.
    pub copies_killed: f64,
}

/// One MTBF level of the sweep — a row of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Mean up epoch (slots) per machine; `None` is the fault-free baseline.
    pub mtbf: Option<f64>,
    /// One cell per scheduler, in line-up order.
    pub cells: Vec<Fig7Cell>,
}

/// Output of the Fig. 7 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// One row per MTBF level, most reliable first.
    pub rows: Vec<Fig7Row>,
}

/// The scheduler line-up of the failure sweep: the paper's SRPTMS+C against
/// the speculation and restart baselines whose recovery story churn
/// stresses hardest.
pub fn failure_lineup() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::paper_default(),
        SchedulerKind::Mantri,
        SchedulerKind::Late,
        SchedulerKind::Fifo,
        SchedulerKind::Restart,
    ]
}

/// The default MTBF levels: fault-free, mild churn, heavy churn. The values
/// are slots on the scenario's ≈35 000-slot arrival window — at MTBF 2 000
/// every machine crashes many times over a long job's lifetime.
pub fn default_mtbfs() -> Vec<Option<f64>> {
    vec![None, Some(8_000.0), Some(2_000.0)]
}

/// The crash plan of one sweep level: every machine of the scenario fails
/// with the given mean up time and recovers after MTBF × [`MTTR_FRACTION`].
fn plan_for(scenario: &Scenario, mtbf: f64) -> FaultPlan {
    FaultPlan::new(vec![FaultClass::crashes(
        scenario.machines,
        mtbf,
        mtbf * MTTR_FRACTION,
    )])
}

/// Runs the sweep for arbitrary MTBF levels and scheduler line-up. Cells are
/// cache-aware like every other figure (the fault plan is part of the cell
/// fingerprint).
pub fn run_with(scenario: &Scenario, mtbfs: &[Option<f64>], kinds: &[SchedulerKind]) -> Fig7Result {
    let rows = mtbfs
        .iter()
        .map(|&mtbf| {
            let cell_scenario = match mtbf {
                Some(m) => scenario.with_fault(plan_for(scenario, m)),
                None => scenario.clone(),
            };
            // One fan-out per row: the whole line-up × seeds.
            let cells = kinds
                .iter()
                .zip(run_lineup_averaged(kinds, &cell_scenario))
                .map(|(&kind, outcomes)| {
                    let n = outcomes.len() as f64;
                    let wasted_work =
                        outcomes.iter().map(|o| o.wasted_work as f64).sum::<f64>() / n;
                    let copies_killed = outcomes
                        .iter()
                        .map(|o| o.copies_killed_by_fault as f64)
                        .sum::<f64>()
                        / n;
                    Fig7Cell {
                        kind,
                        summary: average_summary(kind, &outcomes),
                        wasted_work,
                        copies_killed,
                    }
                })
                .collect();
            Fig7Row { mtbf, cells }
        })
        .collect();
    Fig7Result { rows }
}

/// Runs the default sweep ([`default_mtbfs`] × [`failure_lineup`]).
pub fn run(scenario: &Scenario) -> Fig7Result {
    run_with(scenario, &default_mtbfs(), &failure_lineup())
}

/// Relative mean-flowtime advantage of SRPTMS+C over the best *no-clone*
/// baseline in a row (positive = SRPTMS+C lower, i.e. better). `None` when
/// the row lacks either side of the comparison.
pub fn srpt_advantage(row: &Fig7Row) -> Option<f64> {
    let srpt = row
        .cells
        .iter()
        .find(|c| matches!(c.kind, SchedulerKind::SrptMsC { .. }))?;
    let best_no_clone = row
        .cells
        .iter()
        .filter(|c| {
            matches!(
                c.kind,
                SchedulerKind::Fifo | SchedulerKind::Restart | SchedulerKind::SrptNoClone { .. }
            )
        })
        .map(|c| c.summary.mean)
        .min_by(f64::total_cmp)?;
    Some((best_no_clone - srpt.summary.mean) / best_no_clone)
}

/// Renders the sweep as a text table: one row per MTBF level, one column per
/// scheduler, plus the per-row cloning advantage and waste accounting.
pub fn render(result: &Fig7Result) -> String {
    let mut out = String::from(
        "Fig. 7 — mean job flowtime vs machine MTBF \
         (crashed machines lose their work; tasks re-execute)\n",
    );
    for row in &result.rows {
        let label = match row.mtbf {
            Some(m) => format!("MTBF {m:>8.0}"),
            None => "no faults    ".to_string(),
        };
        out.push_str(&label);
        for cell in &row.cells {
            out.push_str(&format!(
                "  {} {:>9.1}",
                cell.summary.scheduler, cell.summary.mean
            ));
        }
        if let Some(advantage) = srpt_advantage(row) {
            out.push_str(&format!(
                "  [SRPTMS+C {:+.1} % vs best no-clone]",
                advantage * 100.0
            ));
        }
        out.push('\n');
        if row.mtbf.is_some() {
            let wasted: f64 = row.cells.iter().map(|c| c.wasted_work).sum();
            let killed: f64 = row.cells.iter().map(|c| c.copies_killed).sum();
            out.push_str(&format!(
                "             (row totals: {killed:.0} copies killed, {wasted:.0} machine-slots wasted)\n"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_fully_populated() {
        let scenario = Scenario::scaled(40, 1);
        let mtbfs = [None, Some(3_000.0)];
        let kinds = [
            SchedulerKind::paper_default(),
            SchedulerKind::Fifo,
            SchedulerKind::Restart,
        ];
        let a = run_with(&scenario, &mtbfs, &kinds);
        let b = run_with(&scenario, &mtbfs, &kinds);
        assert_eq!(a, b);
        assert_eq!(a.rows.len(), 2);
        for row in &a.rows {
            assert_eq!(row.cells.len(), 3);
            for cell in &row.cells {
                assert!(cell.summary.mean > 0.0);
                if row.mtbf.is_none() {
                    assert_eq!(cell.wasted_work, 0.0);
                    assert_eq!(cell.copies_killed, 0.0);
                }
            }
        }
        // Churn must actually bite at MTBF 3 000 on a ≈35 000-slot window.
        let churny = &a.rows[1];
        assert!(churny.cells.iter().any(|c| c.copies_killed > 0.0));
        let table = render(&a);
        assert!(table.contains("MTBF"));
        assert!(table.contains("no faults"));
        assert!(table.contains("copies killed"));
    }

    #[test]
    fn cloning_beats_no_clone_baselines_under_churn() {
        // The acceptance property of the figure: under heavy churn the
        // cloning algorithm's advantage over the best no-clone baseline is
        // positive. Two seeds keep the comparison out of single-trace noise.
        let scenario = Scenario::scaled(60, 2);
        let result = run_with(
            &scenario,
            &[Some(2_000.0)],
            &[
                SchedulerKind::paper_default(),
                SchedulerKind::Fifo,
                SchedulerKind::Restart,
            ],
        );
        let advantage = srpt_advantage(&result.rows[0]).expect("both sides present");
        assert!(
            advantage > 0.0,
            "SRPTMS+C should beat no-clone baselines under churn, got {advantage}"
        );
    }
}
