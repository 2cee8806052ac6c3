//! Order statistics for latency samples.
//!
//! Timings are reported as a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, so a tail figure
//! never rests on a handful of observations. Open-loop phases are long
//! enough that `p99` qualifies; [`Summary::p99_qualified`] records when
//! it does not.

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Percentiles considered for the tail, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`).
/// Returns `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The highest percentile in [`TAIL_CANDIDATES`] with at least
/// [`MIN_BEYOND`] of `n` samples strictly beyond its rank, or `None`
/// when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n >= rank(p, n) + MIN_BEYOND)
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps `99.9 % of 10000` at rank 9990 despite binary rounding.
fn rank(p: f64, n: usize) -> usize {
    (p / 100.0 * n as f64 - 1e-6).ceil().max(0.0) as usize
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Which direction of a figure is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The decile on the good side of many short samples of one figure:
/// the 10th percentile of times, the 90th of rates. The shared host
/// alternates between fast and slow periods (other guests contend for
/// the core and its caches; memory-heavy code runs up to ~40 % slower
/// in a slow period), lasting from milliseconds to minutes, and their
/// mix differs from run to run. Like the minimum of repeated timings,
/// this decile reads the program in the fast periods, so it moves far
/// less between runs than the median, while still resting on a tenth
/// of the samples rather than on one. `NaN` for no samples.
pub fn fast_decile(values: &[f64], better: Better) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p = match better {
        Better::Lower => 10.0,
        Better::Higher => 90.0,
    };
    percentile(&v, p)
}

/// Median latency of consecutive windows of `per_window` samples (the
/// last takes the remainder), taken in schedule order, reported at the
/// fast decile over the windows. Returns the figure and the number of
/// windows.
pub fn windowed_p50(samples: &[f64], per_window: usize) -> (f64, usize) {
    let n = samples.len();
    let windows = (n / per_window.max(1)).max(1);
    let per = n / windows;
    let p50s: Vec<f64> = (0..windows)
        .map(|w| {
            let hi = if w + 1 == windows { n } else { (w + 1) * per };
            let mut chunk = samples[w * per..hi].to_vec();
            chunk.sort_by(f64::total_cmp);
            percentile(&chunk, 50.0)
        })
        .collect();
    (fast_decile(&p50s, Better::Lower), windows)
}

/// Latency summary of one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Windows the samples were split into (see [`summarize`]).
    pub windows: usize,
    /// Median over windows of each window's median.
    pub p50: f64,
    /// Median over windows of each window's 99th percentile.
    pub p99: f64,
    /// Whether every window's p99 had [`MIN_BEYOND`] samples beyond it.
    pub p99_qualified: bool,
    /// The highest percentile the whole sample set supports.
    pub tail: Option<f64>,
}

/// Summarises samples taken in schedule order. The samples are cut
/// into consecutive windows of at least `min_window` samples (at most
/// `max_windows` of them) and the reported p50/p99 are the medians of
/// the per-window figures: one stall on a shared host moves one window,
/// not the result.
pub fn summarize(samples: &[f64], min_window: usize, max_windows: usize) -> Summary {
    let n = samples.len();
    let windows = (n / min_window.max(1)).clamp(1, max_windows.max(1));
    let per = n / windows;
    let mut p50s = Vec::with_capacity(windows);
    let mut p99s = Vec::with_capacity(windows);
    let mut qualified = n > 0;
    for w in 0..windows {
        let hi = if w + 1 == windows { n } else { (w + 1) * per };
        let mut chunk = samples[w * per..hi].to_vec();
        chunk.sort_by(f64::total_cmp);
        p50s.push(percentile(&chunk, 50.0));
        p99s.push(percentile(&chunk, 99.0));
        qualified &= tail_percentile(chunk.len()).is_some_and(|p| p >= 99.0);
    }
    Summary {
        n,
        windows,
        p50: median(&p50s),
        p99: median(&p99s),
        p99_qualified: qualified,
        tail: tail_percentile(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        // 20 samples: the median's rank is 10, leaving exactly 10 beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        // 100 samples: p90 has rank 90 and exactly 10 beyond.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        // 1000 samples: p99 has rank 990 and exactly 10 beyond.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fast_decile_reads_the_good_side() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(fast_decile(&v, Better::Lower), 10.0);
        assert_eq!(fast_decile(&v, Better::Higher), 90.0);
        assert!(fast_decile(&[], Better::Lower).is_nan());
    }

    #[test]
    fn windowed_p50_reads_the_fast_windows() {
        // Twenty windows of 100 samples; all but the first two are twice
        // as slow.
        let mut samples = Vec::new();
        for w in 0..20 {
            let scale = if w >= 2 { 2.0 } else { 1.0 };
            samples.extend((1..=100).map(|i| f64::from(i) * scale));
        }
        assert_eq!(windowed_p50(&samples, 100), (50.0, 20));
        assert_eq!(windowed_p50(&samples[..50], 100), (25.0, 1));
    }

    #[test]
    fn windowed_summary_ignores_one_stalled_window() {
        // Five windows of 1000 samples; one window is uniformly slow.
        let mut samples = Vec::new();
        for w in 0..5 {
            let scale = if w == 2 { 100.0 } else { 1.0 };
            samples.extend((1..=1000).map(|i| f64::from(i) * scale));
        }
        let s = summarize(&samples, 1000, 10);
        assert_eq!(s.windows, 5);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
        assert!(s.p99_qualified);
        assert_eq!(s.tail, Some(99.0));
        let short = summarize(&samples[..500], 1000, 10);
        assert_eq!(short.windows, 1);
        assert!(!short.p99_qualified);
    }
}
