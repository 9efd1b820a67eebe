//! Order statistics over timing samples and the tail-percentile rule.

/// Median of `samples` (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency distribution: the value at the highest
/// percentile that still has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Latency at that percentile.
    pub value: f64,
    /// The percentile, as the share of samples at or below `value` (0–100).
    pub percentile: f64,
    /// Samples strictly beyond `value` in sorted order.
    pub beyond: usize,
    /// All samples.
    pub count: usize,
}

/// Apply the tail rule. With fewer than `TAIL_BEYOND + 1` samples no
/// percentile qualifies; the maximum is reported with `beyond = 0` so the
/// output says plainly that the tail is a single worst case.
pub fn tail(samples: &[f64]) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let idx = n.checked_sub(TAIL_BEYOND + 1).unwrap_or(n - 1);
    Tail {
        value: s[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        beyond: n - 1 - idx,
        count: n,
    }
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
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in 1..400usize {
            // Distinct, shuffled samples: value k sits at rank k.
            let samples: Vec<f64> = (0..n).map(|k| ((k * 7919) % n) as f64).collect();
            let t = tail(&samples);
            assert_eq!(t.count, n);
            let beyond = samples.iter().filter(|&&v| v > t.value).count();
            assert_eq!(beyond, t.beyond);
            if n > TAIL_BEYOND {
                // Exactly ten beyond: one rank higher would leave nine.
                assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
                assert!(t.percentile < 100.0);
            } else {
                assert_eq!(beyond, 0, "n = {n}");
                assert_eq!(t.value, (n - 1) as f64);
            }
        }
    }

    #[test]
    fn tail_percentile_is_share_at_or_below() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
    }
}
