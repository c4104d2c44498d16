//! Writing a custom scheduler against the simulator's `Scheduler` trait.
//!
//! The example implements a "shortest job first with a fixed clone budget"
//! policy from scratch — about thirty lines — and benchmarks it against the
//! paper's SRPTMS+C on the same workload. Use this as the template for
//! experimenting with your own policies.
//!
//! ```text
//! cargo run --release -p mapreduce-experiments --example custom_scheduler
//! ```

use mapreduce_sched::SrptMsC;
use mapreduce_sim::{Action, ClusterState, Scheduler, SimConfig, Simulation};
use mapreduce_workload::{GoogleTraceProfile, TaskId};

/// Shortest-job-first: jobs with the fewest remaining unscheduled tasks go
/// first; every task of a small job (< `clone_threshold` tasks) is launched
/// with two copies.
struct SjfWithClones {
    clone_threshold: usize,
}

impl Scheduler for SjfWithClones {
    fn name(&self) -> &str {
        "sjf-with-clones"
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        let mut budget = state.available_machines();
        let mut actions = Vec::new();
        let mut jobs: Vec<_> = state
            .alive_jobs()
            .filter(|j| j.total_unscheduled() > 0)
            .collect();
        jobs.sort_by_key(|j| (j.total_unscheduled(), j.id()));
        for job in jobs {
            let copies = if job.spec().num_tasks() < self.clone_threshold {
                2
            } else {
                1
            };
            // Map tasks first; reduce tasks once the Map phase completed.
            let Some((phase, unscheduled)) = job.launchable() else {
                continue;
            };
            for &index in unscheduled {
                if budget == 0 {
                    return actions;
                }
                let n = copies.min(budget);
                actions.push(Action::Launch {
                    task: TaskId::new(job.id(), phase, index),
                    copies: n,
                });
                budget -= n;
            }
        }
        actions
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = GoogleTraceProfile::scaled(250).generate(11);
    let config = SimConfig::new(500).with_seed(11);

    let mut custom = SjfWithClones { clone_threshold: 8 };
    let custom_outcome = Simulation::new(config.clone(), &trace).run(&mut custom)?;

    let mut reference = SrptMsC::new(0.6, 3.0);
    let reference_outcome = Simulation::new(config, &trace).run(&mut reference)?;

    println!(
        "{:<20} mean flowtime {:>8.1} s   weighted {:>8.1} s   copies/task {:.2}",
        custom_outcome.scheduler,
        custom_outcome.mean_flowtime(),
        custom_outcome.weighted_mean_flowtime(),
        custom_outcome.mean_copies_per_task()
    );
    println!(
        "{:<20} mean flowtime {:>8.1} s   weighted {:>8.1} s   copies/task {:.2}",
        reference_outcome.scheduler,
        reference_outcome.mean_flowtime(),
        reference_outcome.weighted_mean_flowtime(),
        reference_outcome.mean_copies_per_task()
    );
    Ok(())
}
