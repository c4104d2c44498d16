//! The production ε-share walk against the frozen full walk.
//!
//! SRPTMS+C computes its machine shares with
//! [`epsilon_fraction_shares_prefix_into`], which stops at the
//! `(1−ε)·W(l)` boundary and rounds with a selection instead of a sort. These
//! properties compare it against [`reference_epsilon_fraction_shares`], the
//! frozen walk over the whole ranked list with its own sort-based
//! largest-remainder rounding. The two share no code, so the comparison
//! checks the rounding too, not only the truncation: the emitted prefix must
//! match the full walk bit for bit, and every entry past it must be zero.

use integration_tests::oracles::reference_epsilon_fraction_shares;
use mapreduce_sched::{epsilon_fraction_shares_prefix_into, MachineShare};
use mapreduce_support::proptest::prelude::*;
use mapreduce_workload::JobId;

/// Runs the prefix walk with the fold-order total weight, the way the
/// scheduler does.
fn prefix_shares(jobs: &[(JobId, f64)], m: usize, eps: f64) -> Vec<MachineShare> {
    let total_weight: f64 = jobs.iter().map(|(_, w)| w).sum();
    let mut shares = Vec::new();
    let mut scratch = Vec::new();
    epsilon_fraction_shares_prefix_into(
        jobs.iter().copied(),
        total_weight,
        m,
        eps,
        &mut shares,
        &mut scratch,
    );
    shares
}

/// The prefix walk must be a bitwise-identical truncation of the full
/// walk: same entries up to the truncation point, all-zero tail beyond
/// it, same integer total.
fn assert_prefix_matches_full(jobs: &[(JobId, f64)], m: usize, eps: f64) -> Result<(), String> {
    let full = reference_epsilon_fraction_shares(jobs, m, eps);
    let prefix = prefix_shares(jobs, m, eps);
    prop_assert!(
        prefix.len() <= full.len(),
        "prefix ({}) longer than full ({})",
        prefix.len(),
        full.len()
    );
    for (i, (p, f)) in prefix.iter().zip(&full).enumerate() {
        prop_assert!(p.job == f.job, "job mismatch at {i}");
        prop_assert!(
            p.fractional.to_bits() == f.fractional.to_bits(),
            "fractional share not bit-identical at {i}: {} vs {}",
            p.fractional,
            f.fractional
        );
        prop_assert!(
            p.machines == f.machines,
            "integer share mismatch at {i}: {} vs {}",
            p.machines,
            f.machines
        );
    }
    for (i, f) in full.iter().enumerate().skip(prefix.len()) {
        prop_assert!(
            f.fractional == 0.0 && f.machines == 0,
            "truncated entry {} is nonzero: fractional {}, machines {}",
            i,
            f.fractional,
            f.machines
        );
    }
    let sum: usize = prefix.iter().map(|s| s.machines).sum();
    prop_assert!(sum == m, "prefix shares sum {sum} != {m}");
    Ok(())
}

proptest! {
    /// The prefix-truncated walk is interchangeable with the full walk over
    /// random ranked lists and ε ∈ (0, 1].
    #[test]
    fn prop_prefix_walk_matches_full_walk(
        weights in collection::vec(0.1f64..20.0, 1..40),
        m in 0usize..200,
        eps in 0.05f64..1.0,
    ) {
        let jobs: Vec<(JobId, f64)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (JobId::new(i as u64), w))
            .collect();
        if m == 0 {
            prop_assert!(prefix_shares(&jobs, 0, eps).is_empty());
        } else {
            // ε = 1.0 is the boundary case; sample the open range here and
            // the exact endpoint separately.
            assert_prefix_matches_full(&jobs, m, eps)?;
            assert_prefix_matches_full(&jobs, m, 1.0)?;
        }
    }

    /// Integer-valued weights are the committed-workload regime where the
    /// incremental W(l) counter is exact. The weights are drawn from that
    /// regime's set, `priority + 1` with `priority <= 11`, so equal weights
    /// (and with them equal rounding remainders) are common and the tie order
    /// of the top-up is exercised.
    #[test]
    fn prop_prefix_walk_matches_full_walk_integer_weights(
        weights in collection::vec(1u32..13, 1..40),
        m in 1usize..200,
        eps in 0.05f64..1.0,
    ) {
        let jobs: Vec<(JobId, f64)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (JobId::new(i as u64), f64::from(w)))
            .collect();
        assert_prefix_matches_full(&jobs, m, eps)?;
    }
}
