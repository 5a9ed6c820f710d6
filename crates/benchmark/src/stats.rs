//! Order statistics over raw samples. Every quantile the benchmark reports
//! comes from here, computed on the full sorted sample — never from the
//! program's log₂ histogram buckets.

/// The `q`-quantile of `sorted` (ascending) by linear interpolation between
/// closest ranks. `NaN` for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// The median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// A sorted copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The percentile a timing's tail is reported at for a sample of `n`: the
/// highest one up to `cap` that still has ten samples beyond it (the median
/// for tiny samples).
pub fn tail_q(n: usize, cap: f64) -> f64 {
    if n < 20 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(cap)
}

/// The cap of `tail_ms`: p90. Not p99: on a shared machine p99 follows the
/// neighbours' scheduling more than the program (its spread across seeds
/// was 0.19–0.57, p90's 0.07–0.12 on quiet hosts).
pub const TAIL: f64 = 0.9;

/// The cap of the reported, ungated `tail_top_ms`: p99.
pub const TOP: f64 = 0.99;

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method) gives
/// them; both equal the value for a single sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn quantile_interpolates_and_tail_keeps_ten_beyond() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(tail_q(5000, TAIL), 0.9);
        assert_eq!(tail_q(5000, TOP), 0.99);
        assert!((tail_q(300, TOP) - (1.0 - 10.0 / 300.0)).abs() < 1e-12);
        assert!((tail_q(45, TAIL) - (1.0 - 10.0 / 45.0)).abs() < 1e-12);
        assert_eq!(tail_q(10, TAIL), 0.5);
    }
}
