//! Frozen oracles: the pre-optimization copies that the optimized code is
//! pinned against bit for bit.
//!
//! * [`srptmsc`] — [`ReferenceSrptMsC`] and the independent full walk of the
//!   ε-fraction rule, [`reference_epsilon_fraction_shares`];
//! * [`baselines`] — the scan-based Fair, FIFO, Mantri, LATE, Restart and SCA
//!   references;
//! * [`event_queue`] — [`HeapEventQueue`], the binary-heap ordering oracle of
//!   the calendar event queue.
//!
//! They live here, next to the tests, rather than in the library crates: no
//! production path calls them, and a copy that shares code with its subject
//! cannot catch a bug in that code. The golden-equivalence,
//! event-queue-equivalence and ε-share-equivalence tests read them, and the
//! `engine_smoke`, `engine_fullscale` and `event_path` benchmarks run them as
//! same-machine baselines (a dev-dependency of `mapreduce-bench`).

pub mod baselines;
pub mod event_queue;
pub mod srptmsc;

pub use baselines::{
    ReferenceFair, ReferenceFifo, ReferenceLate, ReferenceMantri, ReferenceRestart, ReferenceSca,
};
pub use event_queue::HeapEventQueue;
pub use srptmsc::{reference_epsilon_fraction_shares, ReferenceSrptMsC};
