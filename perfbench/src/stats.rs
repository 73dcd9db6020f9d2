//! Order statistics over measured samples.

/// Sorts a copy of `values` (NaNs last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for even counts); `0.0`
/// for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank percentile `p` (0–100); `0.0` for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method).
/// Needs at least two samples; one sample gives `(v, v)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |j: usize| {
        // m = n + 1; position j*m/4 (1-based), interpolated.
        let m = (n + 1) as f64;
        let pos = j as f64 * m / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median (`0.0` when the
/// median is `0`).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
    }
}
