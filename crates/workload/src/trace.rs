//! The [`Trace`] container: an ordered set of jobs plus summary statistics and
//! JSON import/export.
//!
//! The paper's evaluation extracts ~6 000 jobs over a 12-hour window from the
//! Google cluster-usage trace and reports the statistics of Table II. A
//! [`TraceStats`] value reproduces exactly those rows so that Table II can be
//! regenerated from any trace, synthetic or imported.

use crate::ids::JobId;
use crate::job::JobSpec;
use mapreduce_support::json::{FromJson, JsonError, JsonValue, ToJson};
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

/// Error type for trace construction and I/O.
#[derive(Debug)]
pub enum TraceError {
    /// A job failed validation (duplicate/inconsistent ids, bad workloads…).
    InvalidJob(String),
    /// Underlying I/O failure while reading or writing a trace file.
    Io(std::io::Error),
    /// The file contents were not a valid JSON trace.
    Format(JsonError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::InvalidJob(msg) => write!(f, "invalid job in trace: {msg}"),
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Format(e) => write!(f, "trace format error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Format(e) => Some(e),
            TraceError::InvalidJob(_) => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<JsonError> for TraceError {
    fn from(e: JsonError) -> Self {
        TraceError::Format(e)
    }
}

/// An ordered collection of [`JobSpec`]s, sorted by arrival time.
///
/// Job ids inside a trace are always the dense indices `0..n` so that the
/// simulator can use them directly as vector indices; [`Trace::new`] enforces
/// (re-assigns) this invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    jobs: Vec<JobSpec>,
}

impl Trace {
    /// Builds a trace from a set of jobs: sorts them by arrival time
    /// (ties broken by original order), re-assigns dense job ids, and
    /// validates every job.
    ///
    /// # Errors
    /// Returns [`TraceError::InvalidJob`] if any job fails validation.
    pub fn new(mut jobs: Vec<JobSpec>) -> Result<Self, TraceError> {
        jobs.sort_by_key(|j| j.arrival);
        for (idx, job) in jobs.iter_mut().enumerate() {
            let new_id = JobId::new(idx as u64);
            job.id = new_id;
            for (i, t) in job.map_tasks.iter_mut().enumerate() {
                t.id.job = new_id;
                t.id.index = i as u32;
            }
            for (i, t) in job.reduce_tasks.iter_mut().enumerate() {
                t.id.job = new_id;
                t.id.index = i as u32;
            }
            job.validate().map_err(TraceError::InvalidJob)?;
        }
        Ok(Trace { jobs })
    }

    /// An empty trace (useful as a base case in tests).
    pub fn empty() -> Self {
        Trace { jobs: Vec::new() }
    }

    /// The jobs, sorted by arrival time, with dense ids.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Consumes the trace, returning the owned jobs (arrival order, dense
    /// ids). Lets [`crate::source::MaterializedSource`] yield by move.
    pub fn into_jobs(self) -> Vec<JobSpec> {
        self.jobs
    }

    /// Looks a job up by id.
    pub fn job(&self, id: JobId) -> Option<&JobSpec> {
        self.jobs.get(id.as_usize())
    }

    /// Number of jobs in the trace.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the trace contains no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Iterates over the jobs in arrival order.
    pub fn iter(&self) -> std::slice::Iter<'_, JobSpec> {
        self.jobs.iter()
    }

    /// Total number of tasks across all jobs.
    pub fn total_tasks(&self) -> usize {
        self.jobs.iter().map(|j| j.num_tasks()).sum()
    }

    /// Returns a new trace containing only the jobs selected by `keep`.
    pub fn filtered<F: FnMut(&JobSpec) -> bool>(&self, mut keep: F) -> Trace {
        let jobs: Vec<JobSpec> = self.jobs.iter().filter(|j| keep(j)).cloned().collect();
        Trace::new(jobs).expect("filtering a valid trace keeps it valid")
    }

    /// Returns a new trace with only the first `n` jobs (by arrival).
    pub fn truncated(&self, n: usize) -> Trace {
        let jobs: Vec<JobSpec> = self.jobs.iter().take(n).cloned().collect();
        Trace::new(jobs).expect("truncating a valid trace keeps it valid")
    }

    /// Returns a new trace whose arrival times are all reset to zero — the
    /// bulk-arrival workload of the offline setting (Section IV).
    pub fn as_bulk_arrival(&self) -> Trace {
        let jobs: Vec<JobSpec> = self
            .jobs
            .iter()
            .cloned()
            .map(|mut j| {
                j.arrival = 0;
                j
            })
            .collect();
        Trace::new(jobs).expect("bulk-arrival conversion keeps the trace valid")
    }

    /// Computes the Table II-style summary statistics of the trace.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_trace(self)
    }

    /// Serializes the trace as pretty JSON into any writer.
    ///
    /// # Errors
    /// Returns an error if serialization or the underlying write fails.
    pub fn to_writer<W: Write>(&self, mut writer: W) -> Result<(), TraceError> {
        writer.write_all(self.to_json().to_pretty_string().as_bytes())?;
        Ok(())
    }

    /// Reads a JSON trace from any reader and validates it.
    ///
    /// # Errors
    /// Returns an error on I/O failure, malformed JSON, or invalid jobs.
    pub fn from_reader<R: Read>(mut reader: R) -> Result<Self, TraceError> {
        let mut text = String::new();
        reader.read_to_string(&mut text)?;
        let value = JsonValue::parse(&text)?;
        let trace = Trace::from_json(&value)?;
        Trace::new(trace.jobs)
    }

    /// Writes the trace to a JSON file.
    ///
    /// # Errors
    /// Returns an error if the file cannot be created or written.
    pub fn save_to_file<P: AsRef<Path>>(&self, path: P) -> Result<(), TraceError> {
        let file = std::fs::File::create(path)?;
        self.to_writer(std::io::BufWriter::new(file))
    }

    /// Loads a trace from a JSON file.
    ///
    /// # Errors
    /// Returns an error if the file cannot be read or parsed.
    pub fn load_from_file<P: AsRef<Path>>(path: P) -> Result<Self, TraceError> {
        let file = std::fs::File::open(path)?;
        Trace::from_reader(std::io::BufReader::new(file))
    }
}

impl ToJson for Trace {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([("jobs", self.jobs.to_json())])
    }
}

impl FromJson for Trace {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(Trace {
            jobs: Vec::from_json(value.field("jobs")?)?,
        })
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a JobSpec;
    type IntoIter = std::slice::Iter<'a, JobSpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.jobs.iter()
    }
}

/// Summary statistics of a trace, mirroring Table II of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total number of jobs.
    pub total_jobs: usize,
    /// Total number of tasks across all jobs.
    pub total_tasks: usize,
    /// Trace duration in slots/seconds (latest arrival − earliest arrival).
    pub duration: u64,
    /// Average number of tasks per job.
    pub mean_tasks_per_job: f64,
    /// Minimum ground-truth task duration in the trace.
    pub min_task_duration: f64,
    /// Maximum ground-truth task duration in the trace.
    pub max_task_duration: f64,
    /// Average ground-truth task duration.
    pub mean_task_duration: f64,
    /// Mean job weight.
    pub mean_weight: f64,
    /// Fraction of all tasks that are map tasks.
    pub map_task_fraction: f64,
}

/// Streaming accumulator behind [`TraceStats::from_trace`] and
/// [`TraceStats::from_source`]: one job at a time, constant memory, and the
/// exact fold order of the original whole-trace scan (jobs in arrival order,
/// map tasks before reduce tasks) so both entry points produce bit-identical
/// floating-point sums.
#[derive(Debug, Default)]
struct StatsAccumulator {
    total_jobs: usize,
    total_tasks: usize,
    map_tasks: usize,
    min_d: f64,
    max_d: f64,
    sum_d: f64,
    sum_w: f64,
    min_arrival: u64,
    max_arrival: u64,
}

impl StatsAccumulator {
    fn new() -> Self {
        StatsAccumulator {
            min_d: f64::INFINITY,
            min_arrival: u64::MAX,
            ..StatsAccumulator::default()
        }
    }

    fn fold(&mut self, job: &JobSpec) {
        self.total_jobs += 1;
        self.total_tasks += job.num_tasks();
        self.map_tasks += job.num_map_tasks();
        self.sum_w += job.weight;
        self.min_arrival = self.min_arrival.min(job.arrival);
        self.max_arrival = self.max_arrival.max(job.arrival);
        for t in job.map_tasks.iter().chain(job.reduce_tasks.iter()) {
            self.min_d = self.min_d.min(t.workload);
            self.max_d = self.max_d.max(t.workload);
            self.sum_d += t.workload;
        }
    }

    fn finish(self) -> TraceStats {
        if self.total_jobs == 0 {
            return TraceStats {
                total_jobs: 0,
                total_tasks: 0,
                duration: 0,
                mean_tasks_per_job: 0.0,
                min_task_duration: 0.0,
                max_task_duration: 0.0,
                mean_task_duration: 0.0,
                mean_weight: 0.0,
                map_task_fraction: 0.0,
            };
        }
        TraceStats {
            total_jobs: self.total_jobs,
            total_tasks: self.total_tasks,
            duration: self.max_arrival - self.min_arrival,
            mean_tasks_per_job: self.total_tasks as f64 / self.total_jobs as f64,
            min_task_duration: self.min_d,
            max_task_duration: self.max_d,
            mean_task_duration: self.sum_d / self.total_tasks as f64,
            mean_weight: self.sum_w / self.total_jobs as f64,
            map_task_fraction: self.map_tasks as f64 / self.total_tasks as f64,
        }
    }
}

impl TraceStats {
    /// Computes the statistics of a trace. All-zero stats for an empty trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut acc = StatsAccumulator::new();
        for job in trace.iter() {
            acc.fold(job);
        }
        acc.finish()
    }

    /// Computes the statistics by folding over a
    /// [`JobSource`](crate::JobSource) — the streaming counterpart of
    /// [`TraceStats::from_trace`]: jobs are pulled
    /// in arrival order, folded, and dropped, so the full workload is never
    /// resident. Feeding the materialised twin of a stream through
    /// [`TraceStats::from_trace`] produces **bit-identical** statistics (the
    /// fold order is the same, so even the floating-point sums agree).
    ///
    /// The source is consumed from its current cursor position; hand in a
    /// fresh source for whole-workload statistics.
    pub fn from_source(source: &mut dyn crate::source::JobSource) -> Self {
        let mut acc = StatsAccumulator::new();
        while let Some(job) = source.next_job() {
            acc.fold(&job);
        }
        acc.finish()
    }

    /// Renders the statistics as a Table II-style two-column text table.
    pub fn to_table(&self) -> String {
        format!(
            "{:<40} {:>12}\n{:<40} {:>12}\n{:<40} {:>12}\n{:<40} {:>12.2}\n{:<40} {:>12.1}\n{:<40} {:>12.1}\n{:<40} {:>12.1}\n{:<40} {:>12.2}\n{:<40} {:>12.2}\n",
            "Total number of Jobs",
            self.total_jobs,
            "Total number of tasks",
            self.total_tasks,
            "Trace duration (s)",
            self.duration,
            "Average number of tasks per job",
            self.mean_tasks_per_job,
            "Minimum task duration (s)",
            self.min_task_duration,
            "Maximum task duration (s)",
            self.max_task_duration,
            "Average task duration (s)",
            self.mean_task_duration,
            "Average job weight",
            self.mean_weight,
            "Fraction of map tasks",
            self.map_task_fraction,
        )
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpecBuilder;

    fn job(arrival: u64, map: &[f64], reduce: &[f64], weight: f64) -> JobSpec {
        let mut b = JobSpecBuilder::new(JobId::new(0))
            .arrival(arrival)
            .weight(weight);
        if !map.is_empty() {
            b = b.map_tasks_from_workloads(map);
        }
        if !reduce.is_empty() {
            b = b.reduce_tasks_from_workloads(reduce);
        }
        b.build()
    }

    fn sample_trace() -> Trace {
        Trace::new(vec![
            job(100, &[10.0, 20.0], &[30.0], 2.0),
            job(0, &[5.0], &[], 1.0),
            job(50, &[1.0, 2.0, 3.0], &[4.0, 5.0], 11.0),
        ])
        .unwrap()
    }

    #[test]
    fn trace_sorts_by_arrival_and_reassigns_ids() {
        let trace = sample_trace();
        assert_eq!(trace.len(), 3);
        let arrivals: Vec<u64> = trace.iter().map(|j| j.arrival).collect();
        assert_eq!(arrivals, vec![0, 50, 100]);
        for (i, j) in trace.iter().enumerate() {
            assert_eq!(j.id, JobId::new(i as u64));
            assert!(j.validate().is_ok());
        }
        assert_eq!(trace.job(JobId::new(1)).unwrap().arrival, 50);
        assert!(trace.job(JobId::new(9)).is_none());
    }

    #[test]
    fn stats_match_hand_computation() {
        let trace = sample_trace();
        let stats = trace.stats();
        assert_eq!(stats.total_jobs, 3);
        assert_eq!(stats.total_tasks, 9);
        assert_eq!(stats.duration, 100);
        assert!((stats.mean_tasks_per_job - 3.0).abs() < 1e-12);
        assert_eq!(stats.min_task_duration, 1.0);
        assert_eq!(stats.max_task_duration, 30.0);
        let expected_mean = (10.0 + 20.0 + 30.0 + 5.0 + 1.0 + 2.0 + 3.0 + 4.0 + 5.0) / 9.0;
        assert!((stats.mean_task_duration - expected_mean).abs() < 1e-12);
        assert!((stats.mean_weight - (2.0 + 1.0 + 11.0) / 3.0).abs() < 1e-12);
        assert!((stats.map_task_fraction - 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_stats_are_zero() {
        let stats = Trace::empty().stats();
        assert_eq!(stats.total_jobs, 0);
        assert_eq!(stats.mean_task_duration, 0.0);
        assert!(Trace::empty().is_empty());
    }

    #[test]
    fn source_fold_matches_trace_stats_bit_for_bit() {
        use crate::google::GoogleTraceProfile;
        use crate::source::{JobSource, MaterializedSource, StreamingGenerator};

        // Materialized source over a trace ≡ the trace's own stats.
        let trace = GoogleTraceProfile::scaled(40).generate(9);
        let mut source = MaterializedSource::from_trace(&trace);
        assert_eq!(TraceStats::from_source(&mut source), trace.stats());

        // Streaming generator ≡ its materialised twin, without the stream
        // ever materialising the trace.
        let mut stream = StreamingGenerator::new(GoogleTraceProfile::scaled(60), 4);
        let twin = stream.materialize();
        assert_eq!(TraceStats::from_source(&mut stream), twin.stats());
        assert_eq!(stream.resident_jobs(), 0);

        // A fully drained source folds to the empty statistics.
        assert_eq!(TraceStats::from_source(&mut stream), Trace::empty().stats());
    }

    #[test]
    fn filtered_and_truncated() {
        let trace = sample_trace();
        let small = trace.filtered(|j| j.num_tasks() <= 2);
        assert_eq!(small.len(), 1);
        let first_two = trace.truncated(2);
        assert_eq!(first_two.len(), 2);
        assert_eq!(first_two.jobs()[1].arrival, 50);
        // Truncating beyond the end is a no-op.
        assert_eq!(trace.truncated(100).len(), 3);
    }

    #[test]
    fn bulk_arrival_resets_arrivals() {
        let bulk = sample_trace().as_bulk_arrival();
        assert!(bulk.iter().all(|j| j.arrival == 0));
        assert_eq!(bulk.len(), 3);
    }

    #[test]
    fn json_roundtrip_via_memory() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        trace.to_writer(&mut buf).unwrap();
        let back = Trace::from_reader(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn file_roundtrip() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join("mapreduce-workload-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        trace.save_to_file(&path).unwrap();
        let back = Trace::load_from_file(&path).unwrap();
        assert_eq!(back, trace);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        let err = Trace::load_from_file("/nonexistent/path/trace.json").unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn malformed_json_errors() {
        let err = Trace::from_reader("not json".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Format(_)));
    }

    #[test]
    fn total_tasks_counts_everything() {
        assert_eq!(sample_trace().total_tasks(), 9);
    }

    #[test]
    fn into_iterator_works() {
        let trace = sample_trace();
        let count = (&trace).into_iter().count();
        assert_eq!(count, 3);
    }

    #[test]
    fn stats_table_mentions_every_row() {
        let table = sample_trace().stats().to_table();
        for needle in [
            "Total number of Jobs",
            "Trace duration",
            "Average number of tasks per job",
            "Minimum task duration",
            "Maximum task duration",
            "Average task duration",
        ] {
            assert!(table.contains(needle), "missing row {needle}");
        }
    }
}
