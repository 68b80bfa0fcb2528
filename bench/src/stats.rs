//! Order statistics for timing samples.
//!
//! Timings are reported as medians; a tail percentile only where at least
//! ten samples lie beyond it (so a p99 needs 1 000 samples, a p90 needs
//! 100), and spread as the inter-quartile range over the median — the same
//! measure the driver applies across runs.

/// Tail percentiles a report may quote, highest first.
const TAILS: [u32; 5] = [999, 990, 950, 900, 750];

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile by linear interpolation between closest ranks; `p` in 0..=1.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Inter-quartile range (p75 − p25).
pub fn iqr(values: &[f64]) -> f64 {
    let s = sorted(values);
    percentile(&s, 0.75) - percentile(&s, 0.25)
}

/// IQR ÷ median: the noise floor recorded next to a metric.
pub fn rel_iqr(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        iqr(values) / m.abs()
    }
}

/// The highest tail percentile (in per-mille: 990 = p99) that still has at
/// least ten samples beyond it; `None` below 20 samples, where not even
/// the median's far half holds ten.
pub fn supported_tail(samples: usize) -> Option<u32> {
    if samples < 20 {
        return None;
    }
    TAILS
        .into_iter()
        .find(|&t| samples as f64 * f64::from(1000 - t) / 1000.0 >= 10.0)
}

/// `(per-mille, value)` of the supported tail percentile, if any.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let t = supported_tail(values.len())?;
    Some((t, percentile(&sorted(values), f64::from(t) / 1000.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(19), None);
        // 20..39 samples: ten beyond p50 only, and p50 is not a tail.
        assert_eq!(supported_tail(20), None);
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(750));
        assert_eq!(supported_tail(99), Some(750));
        assert_eq!(supported_tail(100), Some(900));
        assert_eq!(supported_tail(199), Some(900));
        assert_eq!(supported_tail(200), Some(950));
        assert_eq!(supported_tail(999), Some(950));
        assert_eq!(supported_tail(1_000), Some(990));
        assert_eq!(supported_tail(9_999), Some(990));
        assert_eq!(supported_tail(10_000), Some(999));
    }

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(iqr(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0);
        assert_eq!(rel_iqr(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0 / 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(rel_iqr(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_reports_the_supported_percentile() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let (t, x) = tail(&v).unwrap();
        assert_eq!(t, 990);
        assert!((x - 989.01).abs() < 1e-9);
        assert!(tail(&v[..10]).is_none());
    }
}
