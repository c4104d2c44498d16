//! Effective-workload priorities.
//!
//! Both of the paper's algorithms rank jobs by *weight over effective
//! workload*:
//!
//! * the offline algorithm uses the static quantity `w_i / φ_i`, where
//!   `φ_i = m_i(E^m_i + rσ^m_i) + r_i(E^r_i + rσ^r_i)` (Equation (2));
//! * SRPTMS+C uses the dynamic quantity `w_i / U_i(l)`, where `U_i(l)`
//!   replaces the total task counts with the *unscheduled* task counts
//!   (Equation (4)).
//!
//! The standard deviation enters through the pessimism factor `r`: tasks with
//! high variance are treated as heavier, pushing their jobs later, because a
//! single straggling task can hold the whole job's flowtime hostage.

use mapreduce_sim::JobState;
use mapreduce_workload::JobSpec;

/// The offline priority `w_i / φ_i` of a job specification (Algorithm 1).
///
/// Returns `f64::INFINITY` for a job with zero effective workload, which can
/// only happen for degenerate specs.
pub fn offline_priority(spec: &JobSpec, r: f64) -> f64 {
    let phi = spec.effective_workload(r);
    if phi > 0.0 {
        spec.weight / phi
    } else {
        f64::INFINITY
    }
}

/// The online priority `w_i / U_i(l)` of a job's current state (Algorithm 2).
///
/// Jobs whose tasks are all scheduled (U_i = 0) get `f64::INFINITY`; SRPTMS+C
/// filters them out before calling this, because they no longer participate
/// in machine sharing.
pub fn online_priority(job: &JobState, r: f64) -> f64 {
    let u = job.remaining_effective_workload(r);
    if u > 0.0 {
        job.weight() / u
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_workload::{JobId, JobSpecBuilder, PhaseStats};

    fn spec(weight: f64, maps: usize, map_mean: f64, map_std: f64) -> JobSpec {
        JobSpecBuilder::new(JobId::new(0))
            .weight(weight)
            .map_tasks_from_workloads(&vec![map_mean; maps])
            .map_stats(PhaseStats::new(map_mean, map_std))
            .build()
    }

    #[test]
    fn offline_priority_matches_formula() {
        let s = spec(6.0, 3, 10.0, 2.0);
        // φ = 3·(10 + 1·2) = 36 → priority = 6/36
        assert!((offline_priority(&s, 1.0) - 6.0 / 36.0).abs() < 1e-12);
        // r = 0: φ = 30 → 0.2
        assert!((offline_priority(&s, 0.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn higher_variance_lowers_priority() {
        let low_var = spec(1.0, 2, 10.0, 0.0);
        let high_var = spec(1.0, 2, 10.0, 8.0);
        assert!(offline_priority(&low_var, 3.0) > offline_priority(&high_var, 3.0));
        // With r = 0 the variance does not matter.
        assert!((offline_priority(&low_var, 0.0) - offline_priority(&high_var, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn online_priority_tracks_remaining_work() {
        let s = spec(4.0, 4, 5.0, 0.0);
        let job = JobState::new(s);
        // All four map tasks unscheduled: U = 20 → priority 0.2.
        assert!((online_priority(&job, 0.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn small_jobs_rank_before_large_jobs_at_equal_weight() {
        let small = spec(1.0, 2, 10.0, 0.0);
        let large = spec(1.0, 50, 10.0, 0.0);
        assert!(offline_priority(&small, 0.0) > offline_priority(&large, 0.0));
    }
}
