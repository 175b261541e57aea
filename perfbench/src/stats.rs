//! Order statistics over timing samples.

/// The median (mean of the middle two for an even count); `None` when
/// there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The smallest sample; NaN when there are none.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// The tail: the highest percentile that still has at least ten samples
/// beyond it, as `(percentile, value)`; `None` below 11 samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return None;
    }
    let i = n - 11;
    Some((100.0 * (i + 1) as f64 / n as f64, v[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert!(fastest(&[]).is_nan());
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, x) = tail(&v).unwrap();
        assert_eq!(x, 90.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
        assert!((p - 90.0).abs() < 1e-9);
    }
}
