//! Order statistics over latency samples and per-second windows.
//!
//! Everything the benchmark reports is a median or a percentile of
//! raw samples; these helpers are the only place that arithmetic
//! lives, and the tests pin them to hand-computed cases.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it. `p` is in
/// `(0, 100]`; an empty slice reads 0.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of unsorted floats (mean of the two middle values for an
/// even count). An empty slice reads 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of the lower half of `values` (the middle one included when
/// the count is odd). For per-window tail latencies: the host only ever
/// adds to a window's tail (see the README on host gaps), so the quiet
/// half of the windows is the program and the rest is the host. An
/// empty slice reads 0.
pub fn lower_half_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let half = &v[..v.len().div_ceil(2)];
    half.iter().sum::<f64>() / half.len() as f64
}

/// Median of per-window values with the first `skip` windows dropped
/// as warm-up.
pub fn window_median(windows: &[f64], skip: usize) -> f64 {
    median(windows.get(skip..).unwrap_or(&[]))
}

/// The quartiles `statistics.quantiles(values, n=4)` returns in Python
/// (the default "exclusive" method) — the rule the benchmark's
/// steadiness is judged by, so the in-run diagnostic uses the same one.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median; 0 when there are too few values or the median is 0.
pub fn quartile_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2,
        _ => 0.0,
    }
}

/// Latency samples stamped with the one-second window they completed
/// in, so the warm-up window can be dropped and percentiles taken per
/// window as well as over the whole run.
#[derive(Default)]
pub struct Samples {
    /// `(window, nanoseconds)` in completion order.
    pub raw: Vec<(u32, u64)>,
}

impl Samples {
    pub fn push(&mut self, window: u32, ns: u64) {
        self.raw.push((window, ns));
    }

    pub fn extend(&mut self, other: &Samples) {
        self.raw.extend_from_slice(&other.raw);
    }

    /// Ascending nanoseconds of the samples in windows `skip..end`.
    pub fn sorted(&self, skip: u32, end: u32) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .raw
            .iter()
            .filter(|(w, _)| *w >= skip && *w < end)
            .map(|&(_, ns)| ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Each window's own `p`-th percentile over windows `skip..end`
    /// (windows without samples are left out).
    pub fn window_percentiles(&self, skip: u32, end: u32, p: f64) -> Vec<f64> {
        (skip..end)
            .filter_map(|w| {
                let s = self.sorted(w, w + 1);
                (!s.is_empty()).then(|| percentile(&s, p))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[7], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn window_median_drops_warm_up() {
        // The slow first window would drag the median to 35.
        assert_eq!(window_median(&[10.0, 40.0, 30.0, 50.0], 1), 40.0);
        assert_eq!(window_median(&[10.0], 1), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quartile_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn samples_filter_by_window() {
        let mut s = Samples::default();
        for (w, ns) in [(0, 900), (1, 10), (1, 30), (2, 20), (2, 40), (3, 1000)] {
            s.push(w, ns);
        }
        assert_eq!(s.sorted(1, 3), vec![10, 20, 30, 40]);
        assert_eq!(s.window_percentiles(1, 4, 99.0), vec![30.0, 40.0, 1000.0]);
        assert_eq!(s.window_percentiles(4, 6, 99.0), Vec::<f64>::new());
    }

    #[test]
    fn lower_half_mean_keeps_the_quiet_windows() {
        // Five values: the three lowest stay.
        assert_eq!(lower_half_mean(&[900.0, 3.0, 5.0, 4.0, 1000.0]), 4.0);
        // Four values: the two lowest.
        assert_eq!(lower_half_mean(&[8.0, 2.0, 4.0, 6.0]), 3.0);
        assert_eq!(lower_half_mean(&[7.0]), 7.0);
        assert_eq!(lower_half_mean(&[]), 0.0);
    }
}
