//! Order statistics over latency samples.

/// Median of `v` (sorts in place). `v` must not be empty.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-quantile (0..=1) of ascending `sorted` nanosecond samples,
/// in microseconds; 0 when there are none.
pub fn quantile_us(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    f64::from(sorted[idx]) / 1e3
}

const STRETCHES: usize = 20;

/// Operations per busy second of one closed-loop client, from its
/// chronological per-op nanosecond samples.
///
/// The samples are cut into twenty equal stretches and the median
/// stretch's rate is reported, so preempted stretches (a neighbour on
/// this shared VM, write-back after a build) do not move the figure
/// until they cover half the run. Fewer than two hundred samples are
/// too few to cut up: the overall rate is reported instead.
pub fn robust_rate(samples: &[u32]) -> f64 {
    let rate = |s: &[u32]| {
        let busy: u64 = s.iter().map(|&ns| u64::from(ns)).sum();
        s.len() as f64 * 1e9 / busy.max(1) as f64
    };
    if samples.len() < 10 * STRETCHES {
        return rate(samples);
    }
    let len = samples.len() / STRETCHES;
    let mut rates: Vec<f64> = samples.chunks_exact(len).map(rate).collect();
    median(&mut rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<u32> = (1..=101).map(|i| i * 1000).collect();
        assert_eq!(quantile_us(&s, 0.5), 51.0);
        assert_eq!(quantile_us(&s, 0.99), 100.0);
        assert_eq!(quantile_us(&[], 0.5), 0.0);
    }

    #[test]
    fn robust_rate_ignores_slow_stretches() {
        // 1000 ops of 1 µs, with two fifths of the run slowed 10x.
        let mut s = vec![1_000u32; 1000];
        for x in &mut s[200..600] {
            *x = 10_000;
        }
        assert!((robust_rate(&s) - 1e6).abs() < 1.0);
        // Too few samples: plain rate.
        assert!((robust_rate(&[2_000; 10]) - 5e5).abs() < 1.0);
    }
}
