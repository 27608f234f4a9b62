//! Order statistics over latency samples and per-second counts.

/// The `p`-th percentile (0–100) of an ascending slice, nearest-rank:
/// the smallest sample with at least `p` % of the samples at or below
/// it. Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (total order; the benchmark never stores NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(f64::total_cmp);
}

/// The median, averaging the two middle samples of an even count.
/// Returns 0 for an empty input.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method: cut point `k` sits at position `k (n + 1) / 4`). The driver
/// judges run-to-run spread with that function, so `compare` and the
/// builder's own spread check must use the same definition. A single
/// value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the quartiles as a share of the median — the spread
/// the driver compares with a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        return 0.0;
    }
    (q3 - q1) / med.abs()
}

/// The highest percentile that still has at least ten samples beyond it
/// (choosing-metrics §1), or `None` with fewer than twenty samples.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    (samples >= 20).then(|| 100.0 * (1.0 - 10.0 / samples as f64))
}

/// Completions per whole second of a phase: `offsets_ns` are completion
/// times since the phase began, `phase_s` its length. The trailing
/// partial second is dropped, so every bucket covers a full second.
pub fn per_second_counts(offsets_ns: &[u64], phase_s: f64) -> Vec<f64> {
    let whole = phase_s.floor() as usize;
    let mut buckets = vec![0.0; whole];
    for &ns in offsets_ns {
        let second = (ns / 1_000_000_000) as usize;
        if second < whole {
            buckets[second] += 1.0;
        }
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// Reference values from CPython:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` →
    /// `[2.75, 5.5, 8.25]`, and for `[10, 20, 40]` → `[10.0, 20.0, 40.0]`.
    #[test]
    fn quartiles_match_python_statistics() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn per_second_counts_drop_the_partial_tail() {
        let s = 1_000_000_000u64;
        let offsets = [0, s - 1, s, 2 * s + 5, 3 * s + 1];
        assert_eq!(per_second_counts(&offsets, 3.4), vec![2.0, 1.0, 1.0]);
        // The sat_kcps definition: median of the per-second counts.
        assert_eq!(median(&per_second_counts(&offsets, 3.4)), 1.0);
    }
}
