//! Converter from the public Google cluster-usage `task_events` CSV schema
//! into [`Trace`] / [`JobSource`] form.
//!
//! The paper's evaluation extracts its workload from the Google cluster
//! trace (clusterdata-2011): the `task_events` table records one row per
//! task state transition. This module turns that row stream into the
//! [`JobSpec`](crate::JobSpec)s the simulator consumes, **parsing
//! incrementally** — rows are read line by line and folded into per-task
//! aggregates, so the file is never loaded into memory as a whole.
//!
//! # Field mapping
//!
//! `task_events` columns (0-based, per the trace's `schema.csv`):
//!
//! | column | field            | use here                                        |
//! |--------|------------------|-------------------------------------------------|
//! | 0      | timestamp (µs)   | arrivals (SUBMIT) and durations (SCHEDULE→FINISH)|
//! | 2      | job ID           | groups tasks into jobs                           |
//! | 3      | task index       | task identity within the job                     |
//! | 5      | event type       | 0 = SUBMIT, 1 = SCHEDULE, 4 = FINISH             |
//! | 8      | priority         | job weight = priority + 1 (as in the paper)      |
//!
//! Everything else is ignored. Per task, the ground-truth workload is the
//! wall-clock span from its (latest) SCHEDULE to its FINISH, scaled by
//! [`GoogleCsvOptions::microseconds_per_slot`]; tasks that never finish
//! inside the row stream (evicted, killed, still running at the trace edge)
//! are dropped. A job's arrival is its earliest SUBMIT — falling back to its
//! earliest row for jobs whose submission precedes a partial extract's
//! window — normalised so the earliest arrival in the stream lands at
//! slot 0. The Google trace does
//! not label map/reduce phases, so the first
//! `round(n · map_fraction)` tasks of a job (in task-index order, at least
//! one) become map tasks and the rest reduce tasks — the same split the
//! synthetic [`crate::google`] generator uses. Scheduler-visible phase
//! moments are the empirical mean/std-dev of the converted workloads, and no
//! resampling distribution is attached (clone copies re-use the original
//! durations).

use crate::ids::JobId;
use crate::job::JobSpecBuilder;
use crate::source::JobSource;
use crate::trace::{Trace, TraceError};
use std::collections::BTreeMap;
use std::fmt;
use std::io::BufRead;
use std::path::Path;

/// Event-type codes of the `task_events` table this converter consumes.
const EVENT_SUBMIT: u32 = 0;
const EVENT_SCHEDULE: u32 = 1;
const EVENT_FINISH: u32 = 4;

/// Options of the CSV conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct GoogleCsvOptions {
    /// Trace microseconds per simulation slot. The default (1 000 000) makes
    /// one slot one second, the paper's granularity.
    pub microseconds_per_slot: u64,
    /// Fraction of a job's tasks labelled as map tasks (the trace itself does
    /// not distinguish phases); every job keeps at least one map task.
    pub map_fraction: f64,
    /// Lower clamp on converted task workloads in slots; sub-slot tasks
    /// otherwise round to zero, which [`crate::job::TaskSpec`] rejects.
    pub min_task_slots: f64,
}

impl Default for GoogleCsvOptions {
    fn default() -> Self {
        GoogleCsvOptions {
            microseconds_per_slot: 1_000_000,
            map_fraction: 0.7,
            min_task_slots: 1.0,
        }
    }
}

impl GoogleCsvOptions {
    /// Validates the options.
    ///
    /// # Panics
    /// Panics if the time scale is zero, `map_fraction` is outside `(0, 1]`
    /// or the minimum task length is not positive.
    pub fn validate(&self) {
        assert!(
            self.microseconds_per_slot > 0,
            "microseconds_per_slot must be positive"
        );
        assert!(
            self.map_fraction > 0.0 && self.map_fraction <= 1.0,
            "map_fraction must be in (0, 1]"
        );
        assert!(self.min_task_slots > 0.0, "min_task_slots must be positive");
    }
}

/// Error raised by the CSV conversion.
#[derive(Debug)]
pub enum GoogleCsvError {
    /// Underlying I/O failure while reading the row stream.
    Io(std::io::Error),
    /// A row could not be parsed (1-based line number and reason).
    Row {
        /// 1-based line number of the offending row.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The converted jobs failed [`Trace::new`] validation.
    Trace(TraceError),
    /// The stream contained no convertible (finished) task at all.
    Empty,
}

impl fmt::Display for GoogleCsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoogleCsvError::Io(e) => write!(f, "google csv i/o error: {e}"),
            GoogleCsvError::Row { line, message } => {
                write!(f, "google csv row {line}: {message}")
            }
            GoogleCsvError::Trace(e) => write!(f, "google csv conversion: {e}"),
            GoogleCsvError::Empty => write!(f, "google csv stream contained no finished task"),
        }
    }
}

impl std::error::Error for GoogleCsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GoogleCsvError::Io(e) => Some(e),
            GoogleCsvError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GoogleCsvError {
    fn from(e: std::io::Error) -> Self {
        GoogleCsvError::Io(e)
    }
}

impl From<TraceError> for GoogleCsvError {
    fn from(e: TraceError) -> Self {
        GoogleCsvError::Trace(e)
    }
}

/// Per-task aggregation state while folding the row stream.
#[derive(Debug, Default, Clone, Copy)]
struct TaskAgg {
    /// Timestamp of the latest SCHEDULE not yet matched by a FINISH.
    scheduled_at: Option<u64>,
    /// SCHEDULE→FINISH span in microseconds, once finished.
    duration_us: Option<u64>,
}

/// Per-job aggregation state.
#[derive(Debug, Default, Clone)]
struct JobAgg {
    first_submit_us: Option<u64>,
    /// Earliest timestamp of *any* row of this job — the arrival fallback
    /// for partial extracts whose SUBMIT fell before the window.
    first_seen_us: Option<u64>,
    priority: u32,
    /// Tasks by trace task index (BTreeMap: deterministic emission order).
    tasks: BTreeMap<u64, TaskAgg>,
}

impl JobAgg {
    /// Arrival timestamp: the earliest SUBMIT, falling back to the earliest
    /// row seen for the job (already-running jobs in a mid-trace extract).
    fn arrival_us(&self) -> u64 {
        self.first_submit_us.or(self.first_seen_us).unwrap_or(0)
    }
}

/// Folds a timestamp into an `Option<u64>` minimum.
fn fold_min(slot: &mut Option<u64>, timestamp: u64) {
    *slot = Some(match *slot {
        Some(t) => t.min(timestamp),
        None => timestamp,
    });
}

/// Converts a `task_events` row stream into a [`Trace`].
///
/// Rows are folded incrementally; memory is proportional to the number of
/// distinct jobs/tasks, never to the file size. Blank lines and lines
/// starting with `#` are skipped.
///
/// # Errors
/// Returns an error on I/O failure, an unparsable row, or when no task in
/// the stream ever finished.
pub fn parse_task_events<R: BufRead>(
    reader: R,
    options: &GoogleCsvOptions,
) -> Result<Trace, GoogleCsvError> {
    options.validate();
    let mut jobs: BTreeMap<u64, JobAgg> = BTreeMap::new();

    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let row = |message: String| GoogleCsvError::Row {
            line: idx + 1,
            message,
        };
        let fields: Vec<&str> = trimmed.split(',').collect();
        if fields.len() < 6 {
            return Err(row(format!(
                "expected at least 6 comma-separated fields, got {}",
                fields.len()
            )));
        }
        let timestamp: u64 = fields[0]
            .trim()
            .parse()
            .map_err(|_| row(format!("bad timestamp {:?}", fields[0])))?;
        let job_id: u64 = fields[2]
            .trim()
            .parse()
            .map_err(|_| row(format!("bad job id {:?}", fields[2])))?;
        let task_index: u64 = fields[3]
            .trim()
            .parse()
            .map_err(|_| row(format!("bad task index {:?}", fields[3])))?;
        let event_type: u32 = fields[5]
            .trim()
            .parse()
            .map_err(|_| row(format!("bad event type {:?}", fields[5])))?;
        // Priority (column 8) is optional in partial extracts; empty = 0.
        let priority: u32 = match fields.get(8).map(|s| s.trim()) {
            Some("") | None => 0,
            Some(p) => p.parse().map_err(|_| row(format!("bad priority {p:?}")))?,
        };

        let job = jobs.entry(job_id).or_default();
        job.priority = job.priority.max(priority);
        fold_min(&mut job.first_seen_us, timestamp);
        match event_type {
            EVENT_SUBMIT => {
                fold_min(&mut job.first_submit_us, timestamp);
            }
            EVENT_SCHEDULE => {
                let task = job.tasks.entry(task_index).or_default();
                if task.duration_us.is_none() {
                    task.scheduled_at = Some(timestamp);
                }
            }
            EVENT_FINISH => {
                let task = job.tasks.entry(task_index).or_default();
                if let (Some(start), None) = (task.scheduled_at, task.duration_us) {
                    task.duration_us = Some(timestamp.saturating_sub(start));
                    task.scheduled_at = None;
                }
            }
            // EVICT/FAIL/KILL/LOST/UPDATE rows carry nothing this model
            // consumes; re-scheduled tasks get a fresh SCHEDULE row.
            _ => {}
        }
    }

    // The earliest arrival timestamp across the stream anchors slot 0
    // (earliest SUBMIT, or earliest row for SUBMIT-less jobs of a partial
    // extract).
    let t0 = jobs.values().map(JobAgg::arrival_us).min().unwrap_or(0);

    let scale = options.microseconds_per_slot;
    let mut specs = Vec::new();
    // Iteration over the BTreeMap is Google-job-id order; Trace::new then
    // re-sorts by arrival and assigns the dense ids (the Google job id does
    // not survive the conversion — simulator job ids are vector indices).
    for agg in jobs.values() {
        let durations: Vec<f64> = agg
            .tasks
            .values()
            .filter_map(|t| t.duration_us)
            .map(|us| (us as f64 / scale as f64).max(options.min_task_slots))
            .collect();
        if durations.is_empty() {
            continue;
        }
        let num_map = ((durations.len() as f64 * options.map_fraction).round() as usize)
            .clamp(1, durations.len());
        let arrival = agg.arrival_us().saturating_sub(t0) / scale;
        let mut builder = JobSpecBuilder::new(JobId::new(specs.len() as u64))
            .arrival(arrival)
            .weight((agg.priority + 1) as f64)
            .map_tasks_from_workloads(&durations[..num_map]);
        if num_map < durations.len() {
            builder = builder.reduce_tasks_from_workloads(&durations[num_map..]);
        }
        specs.push(builder.build());
    }
    if specs.is_empty() {
        return Err(GoogleCsvError::Empty);
    }
    Ok(Trace::new(specs)?)
}

/// A [`JobSource`] over a converted Google `task_events` CSV.
///
/// The row stream is parsed incrementally (the file is never resident as a
/// whole); the converted jobs are then held materialised, because arrival
/// sorting and job grouping need the full row stream anyway. Jobs are
/// yielded as clones so the converted trace stays inspectable through
/// [`GoogleTraceSource::trace`].
#[derive(Debug, Clone)]
pub struct GoogleTraceSource {
    trace: Trace,
    cursor: usize,
}

impl GoogleTraceSource {
    /// Converts a row stream into a source.
    ///
    /// # Errors
    /// See [`parse_task_events`].
    pub fn from_reader<R: BufRead>(
        reader: R,
        options: &GoogleCsvOptions,
    ) -> Result<Self, GoogleCsvError> {
        Ok(GoogleTraceSource {
            trace: parse_task_events(reader, options)?,
            cursor: 0,
        })
    }

    /// Converts a CSV file into a source, reading it buffered.
    ///
    /// # Errors
    /// Returns an error if the file cannot be opened or converted.
    pub fn from_csv_file<P: AsRef<Path>>(
        path: P,
        options: &GoogleCsvOptions,
    ) -> Result<Self, GoogleCsvError> {
        let file = std::fs::File::open(path)?;
        Self::from_reader(std::io::BufReader::new(file), options)
    }

    /// The converted trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the source, returning the owned converted trace (no clone).
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl JobSource for GoogleTraceSource {
    fn name(&self) -> &str {
        "google-csv"
    }

    fn total_jobs(&self) -> usize {
        self.trace.len()
    }

    fn next_job(&mut self) -> Option<crate::job::JobSpec> {
        let job = self.trace.jobs().get(self.cursor)?.clone();
        self.cursor += 1;
        Some(job)
    }

    fn resident_jobs(&self) -> usize {
        self.trace.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Phase;

    /// Two jobs: job 100 with three finished tasks (durations 10, 20, 30 s),
    /// job 200 with one finished and one unfinished task, plus junk lines.
    fn sample_csv() -> String {
        let rows = [
            "# timestamp,missing,job,task,machine,event,user,class,priority",
            "1000000,,100,0,m1,0,u,2,3",
            "1000000,,100,1,m1,0,u,2,3",
            "1000000,,100,2,m1,0,u,2,3",
            "2000000,,100,0,m1,1,u,2,3",
            "",
            "2000000,,100,1,m2,1,u,2,3",
            "2000000,,100,2,m3,1,u,2,3",
            "12000000,,100,0,m1,4,u,2,3",
            "22000000,,100,1,m2,4,u,2,3",
            "32000000,,100,2,m3,4,u,2,3",
            "5000000,,200,0,m4,0,u,0,1",
            "5000000,,200,1,m4,0,u,0,1",
            "6000000,,200,0,m4,1,u,0,1",
            "6000000,,200,1,m4,1,u,0,1",
            "66000000,,200,0,m4,4,u,0,1",
            // task 200/1 never finishes: dropped.
            "66000000,,200,1,m4,5,u,0,1",
        ];
        rows.join("\n")
    }

    #[test]
    fn converts_the_sample_stream() {
        let trace =
            parse_task_events(sample_csv().as_bytes(), &GoogleCsvOptions::default()).unwrap();
        assert_eq!(trace.len(), 2);
        // Job 100 arrived at t0 → slot 0; job 200 4 s later.
        let j0 = &trace.jobs()[0];
        let j1 = &trace.jobs()[1];
        assert_eq!(j0.arrival, 0);
        assert_eq!(j1.arrival, 4);
        assert_eq!(j0.weight, 4.0); // priority 3
        assert_eq!(j1.weight, 2.0); // priority 1
        assert_eq!(j0.num_tasks(), 3);
        // map_fraction 0.7: 3 tasks → 2 map + 1 reduce.
        assert_eq!(j0.num_map_tasks(), 2);
        assert_eq!(j0.num_reduce_tasks(), 1);
        let workloads: Vec<f64> = j0
            .tasks(Phase::Map)
            .iter()
            .chain(j0.tasks(Phase::Reduce))
            .map(|t| t.workload)
            .collect();
        assert_eq!(workloads, vec![10.0, 20.0, 30.0]);
        // Job 200: the unfinished task is dropped, one 60 s map task remains.
        assert_eq!(j1.num_tasks(), 1);
        assert_eq!(j1.tasks(Phase::Map)[0].workload, 60.0);
    }

    #[test]
    fn source_wrapper_yields_converted_jobs() {
        let mut source =
            GoogleTraceSource::from_reader(sample_csv().as_bytes(), &GoogleCsvOptions::default())
                .unwrap();
        assert_eq!(source.name(), "google-csv");
        assert_eq!(source.total_jobs(), 2);
        assert_eq!(source.resident_jobs(), 2);
        let first = source.next_job().unwrap();
        assert_eq!(first.id, JobId::new(0));
        assert!(source.next_job().is_some());
        assert!(source.next_job().is_none());
    }

    #[test]
    fn submitless_jobs_fall_back_to_their_earliest_row() {
        // A mid-trace extract: job 1 was submitted inside the window at
        // t=30s; job 2's SUBMIT predates the window, so its arrival is its
        // first visible row (SCHEDULE at t=10s) — which also anchors slot 0.
        let csv = "30000000,,1,0,m,0,u,0,0\n\
                   31000000,,1,0,m,1,u,0,0\n\
                   36000000,,1,0,m,4,u,0,0\n\
                   10000000,,2,0,m,1,u,0,0\n\
                   20000000,,2,0,m,4,u,0,0\n";
        let trace = parse_task_events(csv.as_bytes(), &GoogleCsvOptions::default()).unwrap();
        assert_eq!(trace.len(), 2);
        // Job 2 (earliest row 10s) anchors slot 0; job 1 arrives 20s later.
        assert_eq!(trace.jobs()[0].arrival, 0);
        assert_eq!(trace.jobs()[0].map_tasks[0].workload, 10.0);
        assert_eq!(trace.jobs()[1].arrival, 20);
    }

    #[test]
    fn sub_slot_durations_are_clamped() {
        let csv = "0,,1,0,m,0,u,0,0\n1,,1,0,m,1,u,0,0\n2,,1,0,m,4,u,0,0\n";
        let trace = parse_task_events(csv.as_bytes(), &GoogleCsvOptions::default()).unwrap();
        assert_eq!(trace.jobs()[0].map_tasks[0].workload, 1.0);
    }

    #[test]
    fn bad_rows_are_reported_with_line_numbers() {
        let csv = "0,,1,0,m,0,u,0,0\nnot-a-timestamp,,1,0,m,4,u,0,0\n";
        let err = parse_task_events(csv.as_bytes(), &GoogleCsvOptions::default()).unwrap_err();
        match err {
            GoogleCsvError::Row { line, .. } => assert_eq!(line, 2),
            other => panic!("expected row error, got {other}"),
        }
        let empty = parse_task_events("".as_bytes(), &GoogleCsvOptions::default()).unwrap_err();
        assert!(matches!(empty, GoogleCsvError::Empty));
        assert!(!empty.to_string().is_empty());
    }

    #[test]
    fn short_rows_are_rejected() {
        let err = parse_task_events("1,2,3".as_bytes(), &GoogleCsvOptions::default()).unwrap_err();
        assert!(matches!(err, GoogleCsvError::Row { line: 1, .. }));
    }

    #[test]
    #[should_panic(expected = "map_fraction")]
    fn options_are_validated() {
        let options = GoogleCsvOptions {
            map_fraction: 0.0,
            ..GoogleCsvOptions::default()
        };
        let _ = parse_task_events("".as_bytes(), &options);
    }
}
