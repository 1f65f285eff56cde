//! Order statistics over timing samples.

use std::time::Instant;

/// Fewest samples that must lie beyond a reported percentile. Below this
/// the tail is one or two unlucky samples, not a property of the system.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p < 100) of `samples` by the nearest-rank
/// rule, or `None` unless at least [`MIN_BEYOND`] samples lie strictly
/// beyond the chosen rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile must lie in (0, 100)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize; // 1-based
    let rank = rank.clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The cost of one `Instant::now()` read, nanoseconds: every traced span
/// pays two, so this is the timer's share of each span.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 10_000;
    let batches: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            t.elapsed().as_secs_f64() * 1e9 / f64::from(READS)
        })
        .collect();
    median(&batches)
}

/// `min / median / max` of `samples`, for the human-readable notes.
pub fn spread(samples: &[f64]) -> String {
    let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("{lo:.1} / {:.1} / {hi:.1}", median(samples))
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 beyond rank 990.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
        // One sample fewer leaves only 9 beyond the p99 rank.
        assert_eq!(percentile(&thousand[..999], 99.0), None);
        // p50 of 20 samples: rank 10, ten beyond.
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&twenty, 50.0), Some(10.0));
        assert_eq!(percentile(&twenty[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
