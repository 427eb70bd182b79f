//! Exact order statistics over recorded samples.
//!
//! The benchmark keeps every sample instead of a bucketed histogram, so a
//! percentile is a value some request really saw and two seeds never read
//! the same bucket edge by construction.

/// Nearest-rank percentile of `samples` (`p` in `(0, 100]`); 0 when empty.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    // The epsilon keeps 99.9 % of 1000 at rank 999 despite rounding.
    let rank = (p * samples.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of host-side measurements (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process so far, in MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&mut s, 50.0), 500);
        assert_eq!(percentile(&mut s, 99.9), 999);
        assert_eq!(percentile(&mut [7], 99.0), 7);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
