//! Streaming-workload equivalence tests.
//!
//! The contract of the streaming subsystem is that *how* a workload reaches
//! the engine must not change what happens: feeding jobs lazily through a
//! [`StreamingGenerator`] (pull-ahead admission, per-job RNG streams, job
//! storage released at completion) must produce a **bit-identical**
//! [`SimOutcome`] to materialising the equivalent [`Trace`] up front and
//! running it through the classic trace path — for every scheduler of the
//! golden suite, over randomized profiles, seeds and cluster sizes.

use mapreduce_baselines::{FairScheduler, Fifo, Late, Mantri, Restart, Sca};
use mapreduce_sched::SrptMsC;
use mapreduce_sim::{Scheduler, SimConfig, SimOutcome, Simulation};
use mapreduce_support::proptest::prelude::*;
use mapreduce_workload::{GoogleTraceProfile, JobSource, MaterializedSource, StreamingGenerator};

/// The golden-suite scheduler line-up (fresh instances — schedulers are
/// stateful and never shared across runs).
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

fn run_from_source(
    scheduler: &mut dyn Scheduler,
    source: Box<dyn JobSource>,
    machines: usize,
    seed: u64,
) -> SimOutcome {
    Simulation::from_source(SimConfig::new(machines).with_seed(seed), source)
        .run(scheduler)
        .expect("simulation must complete")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Streaming feed vs materialized twin, bit-identical for every golden
    /// scheduler — the acceptance property of the streaming subsystem.
    #[test]
    fn streaming_and_materialized_outcomes_are_bit_identical(
        jobs in 8usize..40,
        machines in 4usize..64,
        seed in 0u64..1000,
    ) {
        let profile = GoogleTraceProfile::scaled(jobs);
        let stream = StreamingGenerator::new(profile, seed);
        let trace = stream.materialize();
        for (streaming_side, trace_side) in golden_suite().iter_mut().zip(golden_suite().iter_mut()) {
            let a = run_from_source(
                streaming_side.as_mut(),
                Box::new(stream.clone()),
                machines,
                seed,
            );
            // The classic path: whole trace up front through Simulation::new.
            let b = Simulation::new(SimConfig::new(machines).with_seed(seed), &trace)
                .run(trace_side.as_mut())
                .expect("materialized run must complete");
            prop_assert_eq!(&a.scheduler, &b.scheduler);
            prop_assert!(
                a == b,
                "{}: streaming and materialized outcomes diverge (jobs {jobs}, machines \
                 {machines}, seed {seed}): mean flowtime {} vs {}, copies {} vs {}, makespan {} \
                 vs {}, peak resident {} vs {}",
                a.scheduler,
                a.mean_flowtime(),
                b.mean_flowtime(),
                a.total_copies,
                b.total_copies,
                a.makespan,
                b.makespan,
                a.peak_resident_jobs,
                b.peak_resident_jobs
            );
        }
    }

    /// A MaterializedSource feed is equivalent to handing the trace over
    /// directly — the adapter introduces nothing of its own.
    #[test]
    fn materialized_source_matches_direct_trace(
        jobs in 8usize..40,
        machines in 4usize..48,
        seed in 0u64..1000,
    ) {
        let trace = GoogleTraceProfile::scaled(jobs).generate(seed);
        let a = run_from_source(
            &mut SrptMsC::new(0.6, 3.0),
            Box::new(MaterializedSource::from_trace(&trace)),
            machines,
            seed,
        );
        let b = Simulation::new(SimConfig::new(machines).with_seed(seed), &trace)
            .run(&mut SrptMsC::new(0.6, 3.0))
            .expect("materialized run must complete");
        prop_assert!(a == b, "adapter changed the outcome (seed {seed})");
    }
}

/// Streaming keeps the alive window, not the workload: at a scale where the
/// whole trace would be thousands of jobs, the peak resident count stays a
/// small fraction (jobs are admitted on arrival and released on completion).
#[test]
fn streaming_peak_residency_is_a_fraction_of_the_workload() {
    let profile = GoogleTraceProfile::scaled(2_000);
    let stream = StreamingGenerator::new(profile, 1);
    let total = stream.total_jobs();
    let outcome = run_from_source(&mut Fifo::new(), Box::new(stream), 4_000, 1);
    assert_eq!(outcome.records().len(), total);
    assert!(outcome.peak_resident_jobs >= 1);
    assert!(
        outcome.peak_resident_jobs < total / 2,
        "peak resident {} should be well below the {total}-job workload",
        outcome.peak_resident_jobs
    );
    // The copy arena recycles released slots, so its footprint tracks the
    // alive window too instead of the run's total copy count.
    assert!(outcome.peak_copy_slots >= 1);
    assert!(
        outcome.peak_copy_slots < outcome.total_copies / 2,
        "peak copy slots {} should be well below the {} copies launched",
        outcome.peak_copy_slots,
        outcome.total_copies
    );
}

/// The 100k-job fullscale acceptance run (slow: run explicitly with
/// `cargo test -p integration-tests --test streaming_equivalence -- --ignored`;
/// the `workload_stream` bench exercises the same regime in release mode on
/// every CI run).
/// The million-job acceptance run: 1M jobs streamed onto 100k machines
/// complete under FIFO in bounded memory. Debug-mode cost is tens of
/// minutes, so the test stays `#[ignore]`d here; CI covers the same regime
/// in release mode through the `stream1m` bench
/// (`MAPREDUCE_BENCH_SAMPLES=1 cargo bench -p mapreduce-bench --bench
/// stream1m`), which also runs SRPTMS+C over it.
#[test]
#[ignore = "million-job run; covered in release mode by the stream1m bench"]
fn streaming_million_jobs_completes_in_bounded_memory() {
    let scenario = mapreduce_experiments::Scenario::million();
    let seed = scenario.seeds[0];
    let outcome = run_from_source(
        &mut Fifo::new(),
        scenario.job_source(seed),
        scenario.machines,
        seed,
    );
    assert_eq!(outcome.records().len(), 1_000_000);
    // The alive window is what occupies memory, not the million-job
    // workload: the stretched arrival window keeps the paper's offered
    // load, so residency stays a small multiple of the 100k-job tier's.
    assert!(
        outcome.peak_resident_jobs < 100_000,
        "peak resident {} is not bounded",
        outcome.peak_resident_jobs
    );
    assert!(
        outcome.peak_copy_slots < outcome.total_copies / 4,
        "peak copy slots {} vs {} total copies",
        outcome.peak_copy_slots,
        outcome.total_copies
    );
}

/// The ten-million-job acceptance run: the `stream10m` tier completes under
/// FIFO with the alive window — not the workload — occupying memory. Debug
/// mode makes this hours of wall clock, so it stays `#[ignore]`d; run it
/// explicitly in release
/// (`cargo test -p integration-tests --test streaming_equivalence --release
/// -- --ignored streaming_ten_million`), or measure the same regime through
/// the `stream10m` bench, which also runs SRPTMS+C over it.
#[test]
#[ignore = "ten-million-job run; covered in release mode by the stream10m bench"]
fn streaming_ten_million_jobs_completes_in_bounded_memory() {
    let scenario = mapreduce_experiments::Scenario::ten_million();
    let seed = scenario.seeds[0];
    let outcome = run_from_source(
        &mut Fifo::new(),
        scenario.job_source(seed),
        scenario.machines,
        seed,
    );
    assert_eq!(outcome.records().len(), 10_000_000);
    // Residency follows Little's law (arrival rate × flowtime): FIFO's
    // flowtime grows with scale, so the alive window does too — measured
    // 205 847 peak resident at this tier — but it stays two orders of
    // magnitude below the job count. The counter is deterministic, so the
    // 2× headroom here is real margin, not noise allowance.
    assert!(
        outcome.peak_resident_jobs < 400_000,
        "peak resident {} is not bounded",
        outcome.peak_resident_jobs
    );
    assert!(
        outcome.peak_copy_slots < outcome.total_copies / 4,
        "peak copy slots {} vs {} total copies",
        outcome.peak_copy_slots,
        outcome.total_copies
    );
}

#[test]
#[ignore = "fullscale 100k-job run; covered in release mode by the workload_stream bench"]
fn streaming_100k_jobs_completes_in_bounded_memory() {
    let scenario = mapreduce_experiments::Scenario::streaming(100_000, 1);
    let seed = scenario.seeds[0];
    let outcome = run_from_source(
        &mut Fifo::new(),
        scenario.job_source(seed),
        scenario.machines,
        seed,
    );
    assert_eq!(outcome.records().len(), 100_000);
    assert!(outcome.peak_resident_jobs < 20_000);
    // Copy-slot memory is bounded by the alive window, not the ~2.6M copies
    // a 100k-job run launches: the free-list keeps the slot table at the
    // peak alive width.
    assert!(
        outcome.peak_copy_slots < outcome.total_copies / 4,
        "peak copy slots {} vs {} total copies",
        outcome.peak_copy_slots,
        outcome.total_copies
    );
}
