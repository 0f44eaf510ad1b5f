//! Order statistics, means and the cardinality checksum — the arithmetic
//! every reported number goes through.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `q` of the sample at or below it. `None` on an empty sample.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted sample (mean of the two middle values for even
/// sizes). `None` on an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Geometric mean of strictly positive values. `None` when the sample is
/// empty or holds a value that is not positive and finite.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Quartiles by the exclusive method — the same numbers Python's
/// `statistics.quantiles(values, n=4)` returns, so spreads computed here and
/// by the driver agree. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Not clamped: at the ends Python extrapolates past the sample too.
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread a
/// bound is judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// FNV-1a over a cardinality trace, folded to 48 bits so the value survives
/// a round trip through a JSON double unchanged.
pub fn checksum(cards: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in cards {
        for b in c.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h ^ (h >> 48)) & ((1 << 48) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), Some(50));
        assert_eq!(percentile(&s, 0.99), Some(99));
        assert_eq!(percentile(&s, 1.0), Some(100));
        assert_eq!(percentile(&s, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile::<u64>(&[], 0.5), None);
        // 2 000 samples leave exactly 20 beyond p99.
        let s: Vec<u64> = (1..=2000).collect();
        let p99 = percentile(&s, 0.99).unwrap();
        assert_eq!(s.iter().filter(|v| **v > p99).count(), 20);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_of_rates() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        let g = geomean(&[8.0, 8.0, 8.0]).unwrap();
        assert!((g - 8.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, _, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn checksum_sees_order_and_value() {
        let a = checksum([1, 2, 3]);
        assert_eq!(a, checksum([1, 2, 3]));
        assert_ne!(a, checksum([3, 2, 1]));
        assert_ne!(a, checksum([1, 2, 4]));
        assert_ne!(checksum([]), checksum([0]));
        assert!(a < 1 << 48);
    }
}
