//! Self-contained foundation utilities for the task-cloning reproduction.
//!
//! This workspace builds in containers without crates.io access, so the
//! external crates a project like this would normally lean on are replaced by
//! small, auditable local implementations:
//!
//! * [`rng`] — deterministic xoshiro256++ generator plus the normal and
//!   log-normal samplers the workload model needs (stands in for
//!   `rand`/`rand_chacha`/`rand_distr`).
//! * [`json`] — a JSON value tree, parser and writer with hand-written
//!   [`json::ToJson`]/[`json::FromJson`] traits (stands in for
//!   `serde`/`serde_json`).
//! * [`fs`] — crash-safe file replacement (write a synced temporary file,
//!   rename it over the target), shared by the bench report writer and the
//!   experiment service's cache compaction.
//! * [`hash`] — an FNV-1a 128-bit content hasher and the
//!   [`hash::Fingerprint`] type the experiment service's result cache is
//!   keyed by (stands in for `sha2`/`siphasher`-style crates).
//! * [`parallel`] — order-preserving fork-join map over scoped threads,
//!   honouring `RAYON_NUM_THREADS` (stands in for `rayon`/`crossbeam`).
//! * [`proptest`](mod@proptest) — a miniature property-testing harness with a
//!   `proptest`-flavoured macro surface.
//! * [`criterion`] — a miniature benchmark harness with a
//!   Criterion-flavoured API.
//!
//! Everything here is deliberately dependency-free and deterministic: the
//! acceptance bar for the experiment pipeline is bit-identical results across
//! thread counts and re-runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod criterion;
pub mod fs;
pub mod hash;
pub mod json;
pub mod parallel;
pub mod proptest;
pub mod rng;

pub use hash::{Fingerprint, Fnv1a128};
pub use json::{FromJson, JsonError, JsonValue, ToJson};
pub use parallel::par_map;
pub use rng::{Rng, SimRng};
