//! Experiment service: a content-addressed result cache and a multi-tenant
//! sweep server over the simulation engine.
//!
//! Figure sweeps are embarrassingly memoisable: every **cell** (scheduler ×
//! scenario × seed) is a pure function of its inputs, and the same cells
//! recur across figures (Fig. 4 and Fig. 5 run the identical comparison
//! sweep), across reruns, and across tenants sharing a cluster of
//! experiment machines. This crate turns that observation into a service:
//!
//! * [`ResultCache`] — re-exported from `mapreduce-experiments`, where it
//!   lives next to the figures that share it: a store mapping a cell's
//!   [`Fingerprint`] (FNV-1a-128 over the canonical cell description, see
//!   [`mapreduce_experiments::cell_fingerprint`]) to its full
//!   [`mapreduce_sim::SimOutcome`]. The service opens it on a JSON-lines
//!   file: loaded into an in-memory index at open, appended on every store;
//!   corrupt lines are skipped (and recomputed on demand), never fatal.
//! * [`service::SweepServer`] — the request runtime: a [`SweepRequest`]
//!   names a scenario and a scheduler line-up, and the server resolves its
//!   cells through [`mapreduce_experiments::resolve_cells`], the resolver
//!   the figures use. It serves hits from the cache, **dedupes in-flight
//!   duplicates**, and fans the remaining misses out over the deterministic
//!   worker pool ([`mapreduce_support::par_map`], honouring
//!   `RAYON_NUM_THREADS`). The [`SweepResponse`] reports per-cell summaries
//!   plus hit/miss/dedupe counters — a warm rerun of a figure sweep reports
//!   [`SweepResponse::simulated`]` == 0`.
//! * [`protocol::serve_lines`] — a line-delimited JSON protocol over any
//!   reader/writer pair, exposed by the `serve` binary over stdin/stdout so
//!   sweeps can be driven by external tooling (one request per line, one
//!   response per line; malformed input yields an error line, never a
//!   crash).
//!
//! Because streaming workload sources keep the per-cell memory budget flat,
//! a single server process can interleave arbitrarily large sweeps from
//! multiple tenants; the cache makes repeated figure regeneration near-zero
//! simulation work. Cache hits are **bit-identical** to fresh runs — pinned
//! by the `server_cache` proptests against the golden scheduler suite.
//!
//! [`SweepRequest`]: service::SweepRequest
//! [`SweepResponse`]: service::SweepResponse
//! [`SweepResponse::simulated`]: service::SweepResponse::simulated

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod service;

pub use mapreduce_experiments::ResultCache;
pub use mapreduce_support::hash::Fingerprint;
pub use protocol::{
    metrics_exposition, serve_lines, serve_lines_with, Request, ServeOptions, ServeStats,
};
pub use service::{
    CdfRequest, CellResult, SchedulerCdf, SweepRequest, SweepResponse, SweepServer, MAX_CDF_POINTS,
};
