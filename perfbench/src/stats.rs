//! Order statistics and the op-to-publish matching used by the open loops.

use std::time::Duration;

/// Nearest-rank percentile of `values` (`p` in `(0, 100]`): the smallest
/// sample with at least `p` % of the samples at or below it. Always one of
/// the measured values, never an interpolation or a histogram bucket edge.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Durations in milliseconds.
pub fn ms(durations: &[Duration]) -> Vec<f64> {
    durations.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// Match every operation to the publish that first made it visible.
///
/// `published_ops[j]` is how many operations (in WAL order) had been
/// absorbed when publish `j` ran; it never decreases. Operation `i` is
/// visible from the first publish with `published_ops[j] > i`. Returns, per
/// operation, the index of that publish, or `None` if no publish covered it.
pub fn first_visible(published_ops: &[u64], n_ops: usize) -> Vec<Option<usize>> {
    let mut out = Vec::with_capacity(n_ops);
    let mut j = 0;
    for i in 0..n_ops as u64 {
        while j < published_ops.len() && published_ops[j] <= i {
            j += 1;
        }
        out.push((j < published_ops.len()).then_some(j));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        // Order of the input does not matter.
        let shuffled = [7.0, 3.0, 10.0, 1.0, 9.0, 2.0, 8.0, 4.0, 6.0, 5.0];
        assert_eq!(percentile(&shuffled, 90.0), 9.0);
        // 100 samples: p90 leaves exactly ten samples above it.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), 90.0);
        assert_eq!(median(&hundred), 50.0);
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(median(&[2.0, 1.0, 3.0]), 2.0);
    }

    #[test]
    fn ops_match_the_first_publish_that_includes_them() {
        // Publishes after 2, 2 (a republish), 3 and 6 absorbed ops.
        let published = [2, 2, 3, 6];
        assert_eq!(
            first_visible(&published, 7),
            vec![Some(0), Some(0), Some(2), Some(3), Some(3), Some(3), None]
        );
        assert_eq!(first_visible(&[], 2), vec![None, None]);
        assert_eq!(first_visible(&[5], 0), Vec::<Option<usize>>::new());
    }
}
