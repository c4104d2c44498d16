//! Baseline schedulers the paper compares SRPTMS+C against, plus a few extra
//! reference points used by the experiments and ablations.
//!
//! * [`Mantri`] — Microsoft Mantri's resource-aware speculative execution:
//!   straggler *detection* based on the remaining-vs-restart comparison
//!   `t_rem > 2·t_new` (\[4\] in the paper). This is the main baseline of the
//!   evaluation section.
//! * [`Sca`] — the Smart Cloning Algorithm of the authors' earlier work
//!   (\[26\]): decides clone counts per job at launch time by (a greedy
//!   water-filling equivalent of) a convex program over the concave speedup
//!   function.
//! * [`FairScheduler`] — Hadoop's weighted fair scheduler, the `ε = 1`
//!   degenerate case of SRPTMS+C; no speculation.
//! * [`Fifo`] — plain FIFO job order without speculation (the simulator
//!   crate's [`mapreduce_sim::schedulers::Fifo`], re-exported).
//! * [`SrptNoClone`] — SRPT by remaining effective workload without cloning,
//!   the `ε → 0` limit of SRPTMS+C.
//! * [`Late`] — the LATE heuristic (longest approximate time to end), an
//!   extra detection-based baseline beyond the paper's line-up.
//! * [`Restart`] — kill-and-restart speculative execution (the
//!   cancellation-heavy strategy of the restart literature in PAPERS.md):
//!   stragglers are cancelled and relaunched instead of duplicated, which
//!   makes it the adversarial workout for the engine's cancellation path.
//!
//! All of them implement [`mapreduce_sim::Scheduler`] and can be swapped into
//! any experiment or example. Each runs at its published parameters, which
//! are module constants (for example [`mantri::THRESHOLD_FACTOR`] or
//! [`sca::MAX_COPIES_PER_TASK`]), not settings: every caller builds the
//! baselines through `new()`. Mantri, LATE and Restart share the detection
//! age, the detection interval and (Mantri and Restart) the `t_new`
//! straggler test in [`detection`].
//!
//! The frozen pre-optimization copies of these schedulers, which the
//! golden-equivalence tests and the benchmark baselines run, live with the
//! tests (`integration_tests::oracles`), not in this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detection;
pub mod fair;
pub mod fifo;
pub mod late;
pub mod mantri;
pub mod restart;
pub mod sca;
pub mod srpt_noclone;

pub use fair::{FairFillScratch, FairScheduler};
pub use fifo::Fifo;
pub use late::Late;
pub use mantri::Mantri;
pub use restart::Restart;
pub use sca::Sca;
pub use srpt_noclone::SrptNoClone;
