//! Order statistics over latency samples.
//!
//! Percentiles follow the benchmark's reporting rule: a percentile is
//! only reported when at least [`MIN_BEYOND`] samples lie past it, so a
//! p99 needs 1000 samples and a p90 needs 100. Asking for more than the
//! data supports is an error, never a silently noisy number.

use std::fmt;

/// Fewest samples that must lie strictly past a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile the sample count cannot support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TooFewSamples {
    /// The requested percentile, as a fraction in `(0, 1)`.
    pub p: f64,
    /// Samples available.
    pub have: usize,
    /// Samples the percentile needs.
    pub need: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} needs {} samples ({MIN_BEYOND} past it), have {}",
            self.p * 100.0,
            self.need,
            self.have
        )
    }
}

impl std::error::Error for TooFewSamples {}

/// Smallest sample count for which `p` has [`MIN_BEYOND`] samples past
/// its nearest rank.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| n - rank(p, n) >= MIN_BEYOND)
        .expect("some sample count supports every p < 1")
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `p` percentile of `samples` (any order), refused
/// when fewer than [`MIN_BEYOND`] samples lie past it.
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = samples.len();
    let r = if n == 0 { 0 } else { rank(p, n) };
    if n == 0 || n - r < MIN_BEYOND {
        return Err(TooFewSamples {
            p,
            have: n,
            need: samples_needed(p),
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    Ok(sorted[r - 1])
}

/// Median of `values` (mean of the middle pair for even counts); `NaN`
/// for an empty slice. Used for repeated measurements, which carry no
/// tail to protect.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)` default), so spreads computed
/// here agree with ones computed from the printed results in Python.
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the spread that is
/// compared against each metric's bound in `BENCHMARK.json`.
pub fn iqr_frac(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values))
}
