//! Decision-path micro-benchmarks: the structures SRPTMS+C reads and
//! re-keys at every decision instant, fed from a recorded SRPTMS+C run
//! rather than synthetic keys.
//!
//! The recorded cell is one 10 000-job streamed trace on 1 000 machines
//! (10 jobs per machine, the arrival window stretched to keep the paper's
//! offered load: the construction of perfbench's `stream_srptmsc`). A
//! recording wrapper around [`SrptMsC`] keeps two launching decision
//! instants, each with its alive jobs as the decision saw them:
//!
//! * the **widest**: the longest ranked prefix the ε-share walk read;
//! * the **busiest**: first launches spread over the most jobs (ties to
//!   more launches).
//!
//! The ids:
//!
//! * `priority/rekey` — replays the busiest instant's first launches
//!   through [`AliveIndex::note_first_launch`] (one `PriorityIndex` re-key
//!   each) on an index rebuilt from its recorded jobs, then flushes it. The
//!   index keeps its per-job facts on the job, so a replay outside the
//!   engine can only re-key a job from its recorded state: the key stays
//!   put, but each call pays the same work as a moving one (`U` from the
//!   unscheduled counts, one tree removal, one insertion, the launchable
//!   fold);
//! * `priority/walk` — walks the widest instant's ranked prefix through the
//!   engine's cursor ([`AliveIndex::ranked_by_priority`]) on a fresh copy of
//!   its rebuilt index, so every sample pays the tree walk, not the prefix
//!   cache;
//! * `shares/prefix_walk` — [`epsilon_fraction_shares_prefix_into`] over the
//!   widest instant's ranking, `W(l)` and cluster size.
//!
//! Each timed sample repeats its operation `REPS` (64) times on fresh
//! copies; divide a reported time by 64 for one decision's cost.
//!
//! Before timing, the bench asserts that each rebuilt index reproduces its
//! recorded ranking and `W(l)`, and that the share walk stops where the
//! recorded decision stopped.
//!
//! Run with `cargo bench -p mapreduce-bench --bench decision_hot`. Results
//! merge into `BENCH_engine.json` under `decision_hot`.

use mapreduce_experiments::{Scenario, WorkloadSource};
use mapreduce_sched::{epsilon_fraction_shares_prefix_into, SrptMsC};
use mapreduce_sim::{Action, AliveIndex, ClusterState, FaultPlan, JobState, Scheduler, Simulation};
use mapreduce_support::criterion::{BenchmarkId, Criterion};
use mapreduce_support::json::ToJson;
use mapreduce_support::{criterion_group, criterion_main};
use mapreduce_workload::{GoogleTraceProfile, JobId};

const JOBS: usize = 10_000;
const EPSILON: f64 = 0.6;
const R: f64 = 3.0;
/// Recorded decisions replayed per timed sample.
const REPS: usize = 64;

/// One recorded decision instant.
#[derive(Default)]
struct Capture {
    /// Ranked entries the ε-share walk read.
    prefix: usize,
    /// Every alive job, before the decision, in index order.
    pre: Vec<(usize, JobState)>,
    /// The job of every task the decision launched, in action order.
    launches: Vec<usize>,
    /// Distinct jobs in `launches`.
    launched_jobs: usize,
    /// The full ranking the decision saw: `(job, weight)`.
    order: Vec<(JobId, f64)>,
    /// `W(l)`: the weight of the alive jobs with unscheduled tasks.
    total_weight: f64,
    machines: usize,
}

impl Capture {
    fn record(state: &ClusterState<'_>, launches: Vec<usize>, launched_jobs: usize) -> Self {
        Capture {
            prefix: state.ranked_prefix_consumed(),
            pre: state
                .alive_jobs()
                .map(|job| (job.id().as_usize(), job.clone()))
                .collect(),
            launches,
            launched_jobs,
            order: state
                .ranked_entries()
                .iter()
                .map(|idx| {
                    let job = state.job_at(idx);
                    (job.id(), job.weight())
                })
                .collect(),
            total_weight: state.total_unscheduled_weight(),
            machines: state.total_machines(),
        }
    }

    /// The engine's index rebuilt from the recorded jobs (which then carry
    /// its per-job facts); asserts it ranks them as the recorded decision
    /// saw them.
    fn rebuild(&mut self) -> AliveIndex {
        let mut index = AliveIndex::new();
        index.enable_priority(R);
        for (idx, job) in &mut self.pre {
            index.insert(*idx, job);
        }
        index.flush_priority();
        let rebuilt: Vec<(JobId, f64)> = index
            .ranked_by_priority()
            .expect("priority maintenance is enabled")
            .iter()
            .map(|idx| {
                let pos = self.pre.binary_search_by_key(&idx, |(i, _)| *i);
                let job = &self.pre[pos.expect("every ranked job is alive")].1;
                (job.id(), job.weight())
            })
            .collect();
        assert_eq!(rebuilt, self.order, "the rebuilt index ranks differently");
        assert_eq!(index.total_unscheduled_weight(), self.total_weight);
        index
    }
}

/// [`SrptMsC`] plus a recorder of its widest and busiest decisions. Only
/// the methods `SrptMsC` implements are forwarded.
struct Recorder {
    inner: SrptMsC,
    widest: Capture,
    busiest: Capture,
}

impl Scheduler for Recorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn priority_r(&self) -> Option<f64> {
        self.inner.priority_r()
    }

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        let before = actions.len();
        self.inner.schedule_into(state, actions);
        if actions.len() == before {
            return;
        }
        let launches: Vec<usize> = actions[before..]
            .iter()
            .filter_map(|action| match *action {
                Action::Launch { task, .. } => Some(task.job.as_usize()),
                Action::CancelCopies { .. } => None,
            })
            .collect();
        let mut jobs = launches.clone();
        jobs.sort_unstable();
        jobs.dedup();
        let busiest = (self.busiest.launched_jobs, self.busiest.launches.len());
        if (jobs.len(), launches.len()) > busiest {
            self.busiest = Capture::record(state, launches.clone(), jobs.len());
        }
        if state.ranked_prefix_consumed() > self.widest.prefix {
            self.widest = Capture::record(state, launches, jobs.len());
        }
    }
}

/// The stream scenario: 10 jobs per machine, the arrival window stretched
/// by the same ratio relative to paper scale.
fn scenario() -> Scenario {
    let machines = JOBS / 10;
    let window = 35_032u64 * (JOBS as u64) * 12_000 / (6_064 * machines as u64);
    Scenario {
        profile: GoogleTraceProfile::scaled(JOBS).with_arrival_window(window),
        machines,
        seeds: vec![2015],
        source: WorkloadSource::Streaming,
        fault: FaultPlan::none(),
    }
}

fn bench_decision_hot(c: &mut Criterion) {
    let scenario = scenario();
    let seed = scenario.seeds[0];
    let mut recorder = Recorder {
        inner: SrptMsC::new(EPSILON, R),
        widest: Capture::default(),
        busiest: Capture::default(),
    };
    Simulation::from_source(scenario.sim_config(seed), scenario.job_source(seed))
        .run(&mut recorder)
        .expect("the recorded run completes");
    let (mut widest, mut busiest) = (recorder.widest, recorder.busiest);
    let walk_base = widest.rebuild();
    let rekey_base = busiest.rebuild();

    // The launched jobs as the rebuilt index left them, and the position in
    // that list of every recorded first launch's job.
    let launched: Vec<(usize, JobState)> = busiest
        .pre
        .iter()
        .filter(|(idx, _)| busiest.launches.contains(idx))
        .cloned()
        .collect();
    let launch_order: Vec<usize> = busiest
        .launches
        .iter()
        .map(|&idx| {
            let pos = launched.binary_search_by_key(&idx, |(i, _)| *i);
            pos.expect("every launched job was alive")
        })
        .collect();

    let mut shares = Vec::new();
    let mut scratch = Vec::new();
    let mut share_walk = |shares: &mut Vec<_>| {
        epsilon_fraction_shares_prefix_into(
            widest.order.iter().copied(),
            widest.total_weight,
            widest.machines,
            EPSILON,
            shares,
            &mut scratch,
        );
        shares.len()
    };
    assert_eq!(
        share_walk(&mut shares),
        widest.prefix,
        "the share walk stops elsewhere than the recorded decision"
    );
    println!(
        "decision_hot: widest instant {} alive / {} ranked jobs, ε-prefix {}; busiest instant \
         {} first launches over {} jobs ({} ranked)",
        widest.pre.len(),
        widest.order.len(),
        widest.prefix,
        busiest.launches.len(),
        busiest.launched_jobs,
        busiest.order.len(),
    );

    // One recorded decision takes well under a microsecond, so every sample
    // repeats it on `REPS` fresh copies to stay clear of timer resolution.
    let mut group = c.benchmark_group("priority");
    group.bench_with_input(BenchmarkId::from_parameter("rekey"), &(), |b, _| {
        b.iter_with_setup(
            || vec![(rekey_base.clone(), launched.clone()); REPS],
            |mut copies| {
                for (alive, jobs) in &mut copies {
                    for &pos in &launch_order {
                        let (idx, job) = &mut jobs[pos];
                        alive.note_first_launch(*idx, job);
                    }
                    alive.flush_priority();
                }
                copies
            },
        )
    });
    group.bench_with_input(BenchmarkId::from_parameter("walk"), &(), |b, _| {
        b.iter_with_setup(
            || vec![walk_base.clone(); REPS],
            |copies| {
                let walked: usize = copies
                    .iter()
                    .map(|alive| {
                        let ranked = alive.ranked_by_priority().expect("enabled");
                        (0..widest.prefix).map(|i| ranked.entry(i)).sum::<usize>()
                    })
                    .sum();
                (copies, walked)
            },
        )
    });
    group.finish();

    let mut group = c.benchmark_group("shares");
    group.bench_with_input(BenchmarkId::from_parameter("prefix_walk"), &(), |b, _| {
        b.iter(|| (0..REPS).map(|_| share_walk(&mut shares)).sum::<usize>())
    });
    group.finish();

    mapreduce_bench::merge_bench_report(
        "decision_hot",
        JOBS,
        scenario.machines,
        c.results(),
        &[
            ("walk_ranked_jobs", widest.order.len().to_json()),
            ("walk_ranked_prefix", widest.prefix.to_json()),
            ("rekey_first_launches", busiest.launches.len().to_json()),
            ("rekey_launched_jobs", busiest.launched_jobs.to_json()),
        ],
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(200);
    targets = bench_decision_hot
}
criterion_main!(benches);
