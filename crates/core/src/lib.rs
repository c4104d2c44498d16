//! The paper's scheduling algorithms: the offline SRPT-based algorithm
//! (Algorithm 1) and the online **SRPTMS+C** task-cloning scheduler
//! (Algorithm 2), together with the analytical machinery around them
//! (effective-workload priorities, the ε-fraction machine-sharing rule, the
//! Theorem-1 flowtime bounds and the potential function of Theorem 2).
//!
//! Both schedulers implement [`mapreduce_sim::Scheduler`] and therefore run on
//! the cluster simulator unchanged, next to the baselines in
//! `mapreduce-baselines`.
//!
//! # Quick example
//!
//! ```
//! use mapreduce_sched::SrptMsC;
//! use mapreduce_sim::{SimConfig, Simulation};
//! use mapreduce_workload::WorkloadBuilder;
//!
//! let trace = WorkloadBuilder::new().num_jobs(10).build(3);
//! let mut scheduler = SrptMsC::new(0.6, 3.0);
//! let outcome = Simulation::new(SimConfig::new(16), &trace).run(&mut scheduler).unwrap();
//! assert_eq!(outcome.records().len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod offline;
pub mod potential;
pub mod priority;
pub mod sharing;
pub mod srptms;

pub use bounds::{theorem1_bound, theorem1_probability, CompetitiveReport, OfflineBound};
pub use offline::OfflineSrpt;
pub use potential::PotentialFunction;
pub use priority::{offline_priority, online_priority};
pub use sharing::{epsilon_fraction_shares_prefix_into, MachineShare};
pub use srptms::{SrptMsC, SrptMsCConfig};
