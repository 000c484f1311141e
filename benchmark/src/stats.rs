//! Order statistics. Every percentile here is an exact order statistic of the
//! recorded samples (nearest rank), never a histogram bucket.

/// The percentiles a report may quote, lowest first.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Sort samples for [`percentile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Nearest-rank percentile of sorted samples: the smallest sample with at
/// least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples. The
/// epsilon keeps `99.9 % of 1000` at 999 when the product rounds up to
/// 999.0000000000001.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile of [`LADDER`] that still has at least ten samples
/// beyond it — the highest one `n` samples support. `None` below 20 samples.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// A tail percentile that one bad second cannot move: `samples` (in the order
/// they were taken) are cut into `slices` consecutive equal groups, and the
/// result is the median of the groups' `p`-th percentiles. On this host a
/// window-wide p99 flips between two latency modes from run to run, whichever
/// side of 1 % the slower one lands on; the median of per-second p99s does not.
pub fn sliced_percentile(samples: &[f64], slices: usize, p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let per_slice = samples.len().div_ceil(slices.clamp(1, samples.len()));
    let tails: Vec<f64> = samples
        .chunks(per_slice)
        .map(|slice| percentile(&sorted(slice.to_vec()), p))
        .collect();
    median(&tails)
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), which is what the acceptance rule uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let m = s.len();
    assert!(m >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}
