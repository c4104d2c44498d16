//! Flowtime metrics, empirical CDFs and comparison reports.
//!
//! The paper's evaluation reports three kinds of numbers, all of which are
//! produced by this crate from one or more [`mapreduce_sim::SimOutcome`]s:
//!
//! * weighted and unweighted **average job flowtime** (Figs. 1, 2, 3, 6) —
//!   [`FlowtimeSummary`];
//! * the **CDF of job flowtime**, restricted to small jobs (0–300 s, Fig. 4)
//!   or big jobs (300–4000 s, Fig. 5) — [`Ecdf`];
//! * side-by-side **algorithm comparisons** — [`ComparisonReport`].
//!
//! On top of the paper-figure metrics, the crate hosts the telemetry
//! consumers of the engine's [`mapreduce_sim::SimObserver`] seam: a
//! counter/histogram [`MetricsRegistry`] with its folding
//! observer [`SimTelemetry`], the streaming [`QuantileSketch`] that yields
//! Fig. 4/5-shaped CDFs and percentiles in O(1) memory (see [`sketch`]),
//! and the bounded Chrome-trace exporter [`TraceRecorder`] (see
//! [`trace_export`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdf;
pub mod registry;
pub mod report;
pub mod sketch;
pub mod summary;
pub mod telemetry;
pub mod trace_export;

pub use cdf::Ecdf;
pub use registry::MetricsRegistry;
pub use report::ComparisonReport;
pub use sketch::{FlowtimeSketches, QuantileSketch};
pub use summary::{FlowtimeBucket, FlowtimeSummary};
pub use telemetry::{fold_run_telemetry, SimTelemetry};
pub use trace_export::{validate_trace, TraceRecorder};
