//! Exact order statistics over recorded samples (no histogram buckets).

/// The nearest-rank percentile `p` (0 < p <= 100) of `sorted`: the
/// smallest sample with at least `p` % of the samples at or below it.
/// `None` for an empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of a few floats (the lower middle for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[(values.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_on_a_known_sample() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(50));
        assert_eq!(percentile(&sorted, 99.0), Some(99));
        assert_eq!(percentile(&sorted, 100.0), Some(100));
        assert_eq!(percentile(&sorted, 0.5), Some(1));
        let odd: Vec<u64> = vec![10, 20, 30, 40, 1_000];
        assert_eq!(percentile(&odd, 50.0), Some(30));
        assert_eq!(percentile(&odd, 99.0), Some(1_000));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
