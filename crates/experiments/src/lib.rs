//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section VI), plus the Theorem-1 offline experiment and the
//! design ablations called out in DESIGN.md.
//!
//! Each `figN` module exposes a function that takes a [`Scenario`] and
//! returns plain-data rows/series, plus a `render` helper producing the text
//! table printed by the `reproduce` binary and asserted on (in shape) by the
//! integration tests. The Criterion benches in `crates/bench` call the same
//! functions at reduced scale.
//!
//! Sweeps are **cache-aware**: every cell (scheduler × scenario × seed) has
//! a canonical content fingerprint ([`cache::cell_fingerprint`]), and one
//! resolver, [`runner::resolve_cells`], looks cells up in an
//! [`cache::OutcomeCache`] before simulating the misses and storing them.
//! The figures reach it through the cache installed process-wide via
//! [`cache::install_global_cache`]; the experiment service in
//! `mapreduce-server` calls it once per sweep request. Both use the one
//! cache type, [`cache::ResultCache`], in memory (`reproduce`) or backed by
//! a JSON-lines file (`serve`).
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`table2`] | Table II — trace statistics |
//! | [`fig1`] | Fig. 1 — flowtime vs ε (r = 0) |
//! | [`fig2`] | Fig. 2 — flowtime vs r (ε = 0.6) |
//! | [`fig3`] | Fig. 3 — flowtime vs cluster size |
//! | [`fig4`] | Fig. 4 — CDF of small-job flowtime, SRPTMS+C vs SCA vs Mantri |
//! | [`fig5`] | Fig. 5 — CDF of big-job flowtime |
//! | [`fig6`] | Fig. 6 — weighted/unweighted average flowtime comparison |
//! | [`fig7`] | Fig. 7 — failure-regime sweep (not in the paper): flowtime vs machine MTBF |
//! | [`theorem1`] | Theorem 1 / Remark 2 — offline bound check |
//! | [`ablation`] | design ablations (cloning, rσ term, ε extremes) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod cache;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod runner;
pub mod scenario;
pub mod table2;
pub mod theorem1;

pub use cache::{
    cell_fingerprint, clear_global_cache, global_cache, install_global_cache, CacheStats,
    OutcomeCache, ResultCache,
};
pub use runner::{
    resolve_cells, run_cell, run_cell_traced, run_cells, run_lineup_averaged, run_scheduler,
    run_scheduler_averaged, ResolvedCells, SchedulerKind,
};
pub use scenario::{Scenario, WorkloadSource};
