//! Order statistics over latency samples.
//!
//! Every percentile here is nearest-rank (the smallest sample whose
//! cumulative frequency reaches `p`), the same rule `spade-server`'s own
//! latency window uses. A failed operation has no latency: it is ranked as
//! `+∞`, so it counts as missing every percentile it lands under.

/// Nearest-rank percentile of `samples` (need not be sorted). `p` is in
/// `(0, 1]`. Returns `None` for an empty slice. Failed operations are passed
/// as `f64::INFINITY`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// How many samples rank strictly beyond the nearest-rank `p` percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `(max − min) ÷ median`: the run-to-run spread `--check-repeat` prints for
/// its handful of sets. (The acceptance rule over ten seeds is stated in
/// quartiles; with two or three values there are no quartiles to speak of.)
pub fn relative_spread(values: &[f64]) -> f64 {
    let (Some(med), Some(max)) = (median(values), percentile(values, 1.0)) else {
        return 0.0;
    };
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    if med == 0.0 {
        0.0
    } else {
        ((max - min) / med).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Two samples: p50 is the smaller, p95 the larger.
        assert_eq!(percentile(&[9.0, 3.0], 0.5), Some(3.0));
        assert_eq!(percentile(&[9.0, 3.0], 0.95), Some(9.0));
    }

    #[test]
    fn failed_ops_rank_as_infinity() {
        // 100 ops, 6 failed: p95 falls on a failure, p90 does not.
        let mut v: Vec<f64> = (1..=94).map(f64::from).collect();
        v.extend(std::iter::repeat_n(f64::INFINITY, 6));
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        assert_eq!(percentile(&v, 0.95), Some(f64::INFINITY));
        // The median is untouched until half the ops fail.
        assert_eq!(median(&v), Some(50.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(100, 0.90), 10);
    }

    #[test]
    fn relative_spread_is_range_over_median() {
        assert!((relative_spread(&[10.0, 12.0]) - 0.2).abs() < 1e-12);
        assert!((relative_spread(&[12.0, 10.0, 11.0]) - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[4.0, 4.0]), 0.0);
        assert_eq!(relative_spread(&[4.0]), 0.0);
        assert_eq!(relative_spread(&[]), 0.0);
        assert_eq!(relative_spread(&[0.0, 0.0]), 0.0);
    }
}
