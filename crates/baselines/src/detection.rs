//! Straggler detection shared by the detection-based baselines ([`Mantri`],
//! [`Late`] and [`Restart`]).
//!
//! All three judge a task only after it has run for
//! [`MIN_ELAPSED_FOR_DETECTION`] slots and re-examine the running tasks every
//! [`DETECTION_INTERVAL`] slots. Mantri and Restart also share the
//! remaining-vs-restart test `t_rem > threshold · t_new`: `estimate_t_new`
//! is the `t_new` side and `straggler_tail` selects the running tasks that
//! fail it; each scheduler applies its own copy or restart cap on top.
//!
//! [`Mantri`]: crate::Mantri
//! [`Late`]: crate::Late
//! [`Restart`]: crate::Restart

use mapreduce_sim::{JobState, Slot};
use mapreduce_workload::Phase;

/// Minimum elapsed running time (slots) before a task may be judged a
/// straggler: its progress rate is only trustworthy after a while. Hadoop's
/// speculative execution uses a 60 s lag; Mantri reacts earlier, so 30 s.
/// This is exactly the "detection may be too late for helping small jobs"
/// limitation the paper exploits.
pub const MIN_ELAPSED_FOR_DETECTION: Slot = 30;

/// How often (in slots) the detectors re-examine running tasks.
pub const DETECTION_INTERVAL: Slot = 5;

/// Mantri's estimate of the time a restarted copy of a task in `phase` of
/// `job` would take: the mean duration of already-completed tasks of that
/// phase, or the phase's a-priori mean if none completed yet.
///
/// `O(1)`: the engine maintains the completed-duration aggregates
/// incrementally as tasks finish, so nothing is rescanned per wakeup.
fn estimate_t_new(job: &JobState, phase: Phase) -> f64 {
    job.mean_completed_duration(phase)
        .unwrap_or_else(|| job.spec().stats(phase).mean)
}

/// The running tasks of `phase` with `t_rem > threshold_factor · t_new`, as
/// `(earliest finish slot, task index)` entries in finish order.
///
/// The engine keys every running task by its earliest predicted finish slot
/// ([`JobState::running_by_finish`]), and `t_rem(now) = finish − now`, so
/// the straggler condition selects exactly the tail of that order. One
/// `partition_point` finds the cutoff — `O(log running)` per phase instead
/// of re-deriving `t_rem` for every running task on every wakeup.
pub(crate) fn straggler_tail(
    job: &JobState,
    phase: Phase,
    threshold_factor: f64,
    now: Slot,
) -> &[(Slot, u32)] {
    let entries = job.running_by_finish(phase);
    if entries.is_empty() {
        return entries;
    }
    let t_new = estimate_t_new(job, phase);
    let start = entries.partition_point(|&(finish, _)| {
        finish.saturating_sub(now) as f64 <= threshold_factor * t_new
    });
    &entries[start..]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_age_and_interval_are_pinned() {
        assert_eq!(MIN_ELAPSED_FOR_DETECTION, 30);
        assert_eq!(DETECTION_INTERVAL, 5);
    }
}
