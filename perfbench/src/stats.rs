//! Order statistics over samples.

/// Median, first and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// The `p`-quantile (`0 < p < 1`) of a sorted sample by Python's
/// `statistics.quantiles` default ("exclusive") method: linear
/// interpolation at rank `p·(n + 1)`. Like Python, it extrapolates past
/// the ends when that rank falls outside `[1, n]`.
fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let h = p * (n + 1) as f64;
            let j = (h.floor() as usize).clamp(1, n - 1);
            v[j - 1] + (v[j] - v[j - 1]) * (h - j as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles as `statistics.quantiles(data, n=4)` gives them, so the
/// figures stamped here match the ones a reader recomputes from the
/// per-round values. A single sample is its own median and quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        median: median(&v),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
        n: v.len(),
    }
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `pct`-th percentile of a sample (0 when empty), by the same
/// method as the quartiles.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    quantile_sorted(&sorted(values), pct / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentiles_interpolate() {
        // statistics.quantiles(range(1, 202), n=20)[-1] == 191.9
        let v: Vec<f64> = (1..=201).map(f64::from).collect();
        assert!((percentile(&v, 95.0) - 191.9).abs() < 1e-9);
        assert_eq!(percentile(&v, 50.0), 101.0);
        assert_eq!(percentile(&[4.0], 95.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
