//! Order statistics with the benchmark's percentile guard, the flowtime
//! quality metrics, and peak RSS.

use mapreduce_metrics::FlowtimeSummary;
use mapreduce_sim::SimOutcome;

/// Fewest samples a percentile must have strictly beyond it before the
/// benchmark reports it: a tail read off fewer samples is one or two
/// outliers, not a percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice: every timing has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile of `values` by the nearest-rank rule, or `None` when
/// fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn guarded_percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_SAMPLES_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Requests per second in each run of `window` consecutive requests of a
/// closed loop, from the requests' latencies in ms. The median over windows
/// is a throughput that a slow phase of the host shifts only if it covers
/// most of the run.
pub fn windowed_rates(latencies_ms: &[f64], window: usize) -> Vec<f64> {
    latencies_ms
        .chunks_exact(window)
        .map(|chunk| window as f64 * 1e3 / chunk.iter().sum::<f64>())
        .collect()
}

/// The paper's quality metrics over a set of runs, in simulated seconds:
/// `[mean, weighted mean, p99]`. The means are averaged over the runs, the
/// p99 is taken over all their jobs.
pub fn flowtimes(outcomes: &[&SimOutcome]) -> [Option<f64>; 3] {
    let summaries: Vec<FlowtimeSummary> = outcomes
        .iter()
        .map(|o| FlowtimeSummary::from_outcome(o))
        .collect();
    let n = summaries.len() as f64;
    let jobs: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.records())
        .map(|r| r.flowtime() as f64)
        .collect();
    [
        Some(summaries.iter().map(|s| s.mean).sum::<f64>() / n),
        Some(summaries.iter().map(|s| s.weighted_mean).sum::<f64>() / n),
        guarded_percentile(&jobs, 0.99),
    ]
}

/// Peak resident set size (`VmHWM`) of process `pid` in MB (2^20 bytes),
/// read from `/proc/<pid>/status`; `"self"` names this process.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("{path}: bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(guarded_percentile(&values, 0.99), Some(990.0));
        assert_eq!(guarded_percentile(&values[..999], 0.99), None);
        assert_eq!(guarded_percentile(&values[..20], 0.5), Some(10.0));
        assert_eq!(guarded_percentile(&values[..19], 0.5), None);
        assert_eq!(guarded_percentile(&[], 0.5), None);
    }

    #[test]
    fn reads_own_peak_rss() {
        assert!(peak_rss_mb("self").expect("procfs is mounted") > 0.0);
    }
}
