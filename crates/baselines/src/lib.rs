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
//! * [`Fifo`] — plain FIFO job order without speculation.
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
//! any experiment or example.
//!
//! The [`reference`](mod@reference) module holds frozen pre-optimization
//! copies of the schedulers, used by the golden-equivalence tests and the
//! benchmark baselines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fair;
pub mod fifo;
pub mod late;
pub mod mantri;
pub mod reference;
pub mod restart;
pub mod sca;
pub mod srpt_noclone;

pub use fair::{FairFillScratch, FairScheduler};
pub use fifo::Fifo;
pub use late::{Late, LateConfig};
pub use mantri::{Mantri, MantriConfig};
pub use reference::{
    ReferenceFair, ReferenceFifo, ReferenceLate, ReferenceMantri, ReferenceRestart, ReferenceSca,
};
pub use restart::{Restart, RestartConfig};
pub use sca::{Sca, ScaConfig};
pub use srpt_noclone::SrptNoClone;
