//! Order statistics and the readouts this process takes of itself.

/// Median of `samples` (mean of the two middle values for an even
/// count); 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank `pct`-th percentile of `samples`.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), pct)]
}

fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 10] = [99.9, 99.5, 99.0, 98.0, 97.0, 96.0, 95.0, 90.0, 80.0, 75.0];

/// The highest percentile of the ladder with at least ten of `n`
/// samples beyond it; 50 (the median) when even p75 has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= 40 && n - 1 - rank(n, p) >= 10)
        .unwrap_or(50.0)
}

/// `key:` field of a `/proc` status file, first number.
fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l[key.len()..].split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

fn own_status(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| status_field(&text, key))
        .unwrap_or(0)
}

/// Resident set size now, MB.
pub fn rss_mb() -> f64 {
    own_status("VmRSS:") as f64 / 1024.0
}

/// Peak resident set size of the process, MB.
pub fn peak_rss_mb() -> f64 {
    own_status("VmHWM:") as f64 / 1024.0
}

/// Involuntary context switches of the calling thread so far.
pub fn thread_involuntary_switches() -> u64 {
    std::fs::read_to_string("/proc/thread-self/status")
        .ok()
        .and_then(|text| status_field(&text, "nonvoluntary_ctxt_switches:"))
        .unwrap_or(0)
}

/// Steal ticks of the whole machine so far (`/proc/stat`, `cpu` line,
/// eighth value): time the hypervisor gave this machine's CPUs to
/// someone else.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            text.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(20_000), 99.9);
        for n in [40, 57, 100, 333, 1_000, 5_000] {
            let p = tail_percentile(n);
            assert!(n - 1 - rank(n, p) >= 10, "{n} {p}");
        }
    }
}
