//! FIFO job scheduling without speculation — Hadoop's original default.
//!
//! The policy is the simulator crate's [`mapreduce_sim::schedulers::Fifo`];
//! this module re-exports it beside the other baselines. Its behaviour is
//! tested with the type in `mapreduce_sim::schedulers`.

pub use mapreduce_sim::schedulers::Fifo;

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_sim::Scheduler;

    #[test]
    fn name_is_stable() {
        assert_eq!(Fifo::new().name(), "fifo");
    }
}
