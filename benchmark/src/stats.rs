//! Percentiles and means over latency samples.

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample set.
/// Sorts `samples` in place. `None` for an empty set.
pub fn percentile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((samples.len() - 1) as f64 * q).round() as usize;
    Some(samples[rank.min(samples.len() - 1)])
}

/// Median of an unsorted sample set.
pub fn median(samples: &mut [u64]) -> Option<u64> {
    percentile(samples, 0.5)
}

/// Median of floats (`None` when empty). NaN never occurs in the
/// benchmark's own numbers; it would sort last.
pub fn median_f64(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    })
}

/// Geometric mean of positive values (`None` when empty or when a value
/// is not positive).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// The highest percentile that still has at least ten samples beyond
/// it: p99 from 1000 samples on, else p90 (from 100 on), else the
/// median. Returns the quantile chosen with its value.
pub fn tail(samples: &mut [u64]) -> Option<(f64, u64)> {
    let q = match samples.len() {
        0 => return None,
        n if n >= 1000 => 0.99,
        n if n >= 100 => 0.90,
        _ => 0.50,
    };
    percentile(samples, q).map(|v| (q, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_a_known_set() {
        let mut v: Vec<u64> = (1..=101).rev().collect();
        assert_eq!(median(&mut v), Some(51));
        assert_eq!(percentile(&mut v, 0.0), Some(1));
        assert_eq!(percentile(&mut v, 1.0), Some(101));
        assert_eq!(percentile(&mut v, 0.9), Some(91));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn float_median_handles_even_and_odd() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_f64(&mut []), None);
    }

    #[test]
    fn geomean_of_a_known_set() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let mut small: Vec<u64> = (0..50).collect();
        assert_eq!(tail(&mut small).unwrap().0, 0.50);
        let mut mid: Vec<u64> = (0..500).collect();
        assert_eq!(tail(&mut mid).unwrap().0, 0.90);
        let mut big: Vec<u64> = (0..2000).collect();
        assert_eq!(tail(&mut big).unwrap(), (0.99, 1979));
    }
}
