//! Streaming job sources: jobs delivered in arrival order, on demand.
//!
//! A [`Trace`] materialises every [`JobSpec`] of a run up front, which caps
//! scenario scale: at 100 000+ jobs the job specifications (task workload
//! vectors, per-phase distributions) dominate memory long before the
//! simulator itself does. A [`JobSource`] is the lazy counterpart — a
//! pull-based stream of jobs in arrival order — so the engine can admit jobs
//! as they arrive and never needs the whole workload in memory at once.
//!
//! Three implementations ship with the crate:
//!
//! * [`MaterializedSource`] wraps an existing [`Trace`]. Feeding the engine
//!   from it is **bit-identical** to handing the trace over directly; it is
//!   the adapter that lets every trace-based code path run through the
//!   streaming seam.
//! * [`StreamingGenerator`] synthesizes Google-profile jobs lazily with
//!   **deterministic per-job RNG streams**: job `k`'s content depends only on
//!   `(seed, k)`, never on how many jobs were pulled before it. Only the
//!   arrival schedule (16 bytes per job) is precomputed; job bodies — the
//!   expensive part — are synthesized one at a time as the cursor advances,
//!   and [`StreamingGenerator::materialize`] produces the exact [`Trace`] the
//!   stream corresponds to (same jobs, same dense ids).
//! * [`crate::google_csv::GoogleTraceSource`] feeds jobs converted from the
//!   public Google cluster-usage `task_events` CSV schema (see
//!   [`crate::google_csv`]).
//!
//! # Contract
//!
//! Implementations must yield jobs in **non-decreasing arrival order** with
//! **dense job ids**: the `i`-th job returned by [`JobSource::next_job`]
//! carries `JobId(i)` and task ids consistent with it — exactly the invariant
//! [`Trace::new`] enforces, so a consumer can use job ids as vector indices.

use crate::google::{GoogleTraceGenerator, GoogleTraceProfile};
use crate::ids::JobId;
use crate::job::JobSpec;
use crate::trace::Trace;
use mapreduce_support::rng::SimRng;

/// A pull-based stream of jobs in arrival order.
///
/// See the [module documentation](self) for the ordering/id contract.
pub trait JobSource {
    /// Short stable label for reports and benchmark ids.
    fn name(&self) -> &str;

    /// Total number of jobs this source will yield over its lifetime.
    fn total_jobs(&self) -> usize;

    /// The next job in arrival order, or `None` once all jobs were yielded.
    fn next_job(&mut self) -> Option<JobSpec>;

    /// Number of fully materialised [`JobSpec`]s the source currently keeps
    /// resident (memory visibility for benchmarks): a wrapped trace counts
    /// its not-yet-yielded jobs, a lazy generator counts none.
    fn resident_jobs(&self) -> usize;
}

/// A [`JobSource`] over a fully materialised [`Trace`].
///
/// Yields the trace's jobs **by move**, in order — a run through this
/// adapter deep-copies each job exactly once (into the engine's runtime
/// state), the same cost as the pre-streaming trace-vector path. Since
/// [`Trace::new`] already sorted the jobs by arrival and assigned dense ids,
/// the source contract holds by construction.
#[derive(Debug, Clone)]
pub struct MaterializedSource {
    /// Not-yet-yielded jobs, consumed front to back.
    jobs: std::vec::IntoIter<JobSpec>,
    total: usize,
}

impl MaterializedSource {
    /// Wraps an owned trace.
    pub fn new(trace: Trace) -> Self {
        let jobs = trace.into_jobs();
        MaterializedSource {
            total: jobs.len(),
            jobs: jobs.into_iter(),
        }
    }

    /// Wraps a clone of a borrowed trace.
    pub fn from_trace(trace: &Trace) -> Self {
        Self::new(trace.clone())
    }
}

impl JobSource for MaterializedSource {
    fn name(&self) -> &str {
        "materialized"
    }

    fn total_jobs(&self) -> usize {
        self.total
    }

    fn next_job(&mut self) -> Option<JobSpec> {
        self.jobs.next()
    }

    fn resident_jobs(&self) -> usize {
        self.jobs.as_slice().len()
    }
}

/// Lazily synthesizes a Google-profile workload with deterministic per-job
/// RNG streams and constant per-job memory.
///
/// Construction samples only the **arrival schedule**: one arrival draw per
/// job from that job's own stream (derived from `(seed, original index)` via
/// [`SimRng::derive_stream`]), stably sorted by `(arrival, index)` — the
/// exact order [`Trace::new`]'s stable arrival sort produces. Everything else
/// about a job (class, task counts, workloads, distributions, priority) is
/// synthesized on demand when the cursor reaches it, from the same per-job
/// stream, so:
///
/// * pulling the stream twice — or materialising it with
///   [`StreamingGenerator::materialize`] and reading the trace — yields
///   bit-identical jobs, and
/// * memory stays bounded by the 16-byte-per-job schedule (a padded
///   `(u64, u32)` pair) instead of the full job specifications.
///
/// Note the per-job streams make this a *different* (equally valid) trace
/// than [`GoogleTraceProfile::generate`], which threads one sequential RNG
/// through all jobs and therefore cannot synthesize job `k` without
/// synthesizing every job before it.
#[derive(Debug, Clone)]
pub struct StreamingGenerator {
    generator: GoogleTraceGenerator,
    base: SimRng,
    total_fraction: f64,
    /// `(arrival, original job index)`, sorted ascending.
    schedule: Vec<(u64, u32)>,
    cursor: usize,
}

impl StreamingGenerator {
    /// Creates the stream for a profile and seed.
    ///
    /// # Panics
    /// Panics if the profile is invalid (see [`GoogleTraceGenerator::new`])
    /// or has more than `u32::MAX` jobs.
    pub fn new(profile: GoogleTraceProfile, seed: u64) -> Self {
        assert!(
            profile.num_jobs <= u32::MAX as usize,
            "streaming generator supports at most u32::MAX jobs"
        );
        let generator = GoogleTraceGenerator::new(profile);
        let base = SimRng::seed_from_u64(seed);
        let total_fraction = generator.total_fraction();
        let num_jobs = generator.profile().num_jobs;
        let mut schedule: Vec<(u64, u32)> = Vec::with_capacity(num_jobs);
        for k in 0..num_jobs as u32 {
            let mut rng = base.derive_stream(k as u64);
            schedule.push((generator.sample_arrival(&mut rng), k));
        }
        schedule.sort_unstable();
        StreamingGenerator {
            generator,
            base,
            total_fraction,
            schedule,
            cursor: 0,
        }
    }

    /// The profile driving the synthesis.
    pub fn profile(&self) -> &GoogleTraceProfile {
        self.generator.profile()
    }

    /// Synthesizes job `original`'s spec under the given id from its per-job
    /// stream: the canonical draw order (arrival, body, priority) shared by
    /// the streaming cursor and [`StreamingGenerator::materialize`], so the
    /// two can never drift apart.
    fn synthesize_job(&self, original: u32, id: JobId) -> JobSpec {
        let mut rng = self.base.derive_stream(original as u64);
        let arrival = self.generator.sample_arrival(&mut rng);
        let body = self
            .generator
            .sample_job_body(&mut rng, self.total_fraction);
        let priority = self.generator.sample_priority(&mut rng);
        self.generator.build_job(id, arrival, priority, body)
    }

    /// Synthesizes the job at schedule position `dense`. `build_job` derives
    /// the task ids from the job id, so handing it the dense schedule
    /// position reproduces exactly what `Trace::new`'s id reassignment would
    /// have produced.
    fn synthesize(&self, dense: usize) -> JobSpec {
        let (arrival, original) = self.schedule[dense];
        let job = self.synthesize_job(original, JobId::new(dense as u64));
        debug_assert_eq!(job.arrival, arrival, "arrival schedule out of sync");
        job
    }

    /// Materialises the whole stream as a [`Trace`].
    ///
    /// Jobs are synthesized in original-index order and run through
    /// [`Trace::new`] (stable arrival sort + dense id reassignment); the
    /// result is bit-identical to pulling the stream job by job, which is
    /// what the streaming-equivalence proptest pins.
    pub fn materialize(&self) -> Trace {
        let num_jobs = self.generator.profile().num_jobs;
        let jobs: Vec<JobSpec> = (0..num_jobs as u32)
            .map(|k| self.synthesize_job(k, JobId::new(k as u64)))
            .collect();
        Trace::new(jobs).expect("streamed jobs are valid by construction")
    }

    /// Resets the cursor so the stream can be pulled again from the start.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }
}

impl JobSource for StreamingGenerator {
    fn name(&self) -> &str {
        "streaming"
    }

    fn total_jobs(&self) -> usize {
        self.schedule.len()
    }

    fn next_job(&mut self) -> Option<JobSpec> {
        if self.cursor >= self.schedule.len() {
            return None;
        }
        let job = self.synthesize(self.cursor);
        self.cursor += 1;
        Some(job)
    }

    fn resident_jobs(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(source: &mut dyn JobSource) -> Vec<JobSpec> {
        std::iter::from_fn(|| source.next_job()).collect()
    }

    #[test]
    fn materialized_source_yields_the_trace_in_order() {
        let trace = GoogleTraceProfile::scaled(40).generate(3);
        let mut source = MaterializedSource::from_trace(&trace);
        assert_eq!(source.total_jobs(), 40);
        assert_eq!(source.resident_jobs(), 40);
        assert_eq!(source.name(), "materialized");
        let jobs = drain(&mut source);
        assert_eq!(jobs.len(), 40);
        assert_eq!(jobs, trace.jobs());
        assert!(source.next_job().is_none());
    }

    #[test]
    fn streaming_generator_matches_its_materialization() {
        let profile = GoogleTraceProfile::scaled(60);
        let mut stream = StreamingGenerator::new(profile.clone(), 11);
        assert_eq!(stream.total_jobs(), 60);
        assert_eq!(stream.resident_jobs(), 0);
        let materialized = stream.materialize();
        let jobs = drain(&mut stream);
        assert_eq!(jobs.len(), 60);
        assert_eq!(jobs, materialized.jobs());
    }

    #[test]
    fn streaming_jobs_arrive_in_order_with_dense_ids() {
        let mut stream = StreamingGenerator::new(GoogleTraceProfile::scaled(80), 5);
        let jobs = drain(&mut stream);
        let mut prev = 0;
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.id, JobId::new(i as u64));
            assert!(job.arrival >= prev, "arrivals must be non-decreasing");
            assert!(job.validate().is_ok());
            prev = job.arrival;
        }
    }

    #[test]
    fn streaming_is_deterministic_per_seed_and_independent_of_pull_order() {
        let profile = GoogleTraceProfile::scaled(30);
        let mut a = StreamingGenerator::new(profile.clone(), 7);
        let mut b = StreamingGenerator::new(profile.clone(), 7);
        // Pull b partially, reset, and pull fully: same jobs either way.
        for _ in 0..10 {
            b.next_job();
        }
        b.reset();
        assert_eq!(drain(&mut a), drain(&mut b));
        let mut c = StreamingGenerator::new(profile, 8);
        a.reset();
        assert_ne!(drain(&mut a), drain(&mut c));
    }

    #[test]
    fn streaming_respects_profile_clamps() {
        let profile = GoogleTraceProfile::scaled(50);
        let min = profile.min_task_duration;
        let max = profile.max_task_duration;
        let duration = profile.duration;
        let mut stream = StreamingGenerator::new(profile, 2);
        for job in drain(&mut stream) {
            assert!(job.arrival <= duration);
            assert!(job.num_map_tasks() >= 1);
            for t in job.map_tasks.iter().chain(job.reduce_tasks.iter()) {
                assert!(t.workload >= min - 1e-9);
                assert!(t.workload <= max + 1e-9);
            }
        }
    }
}
