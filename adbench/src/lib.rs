//! End-to-end benchmark of the K-D Bonsai autonomous-driving stack.
//!
//! Three workloads drive the compressed system (`TreeMode::Bonsai` /
//! `NdtSearchMode::Bonsai`, shipped defaults) and check every output
//! against baseline mode:
//!
//! * [`drive`] — `drive_cluster`: euclidean clustering, rebuild per
//!   frame, closed loop over frames sampled along the paper drive;
//! * [`serve`] — `map_serve`: open-loop radius queries through
//!   `bonsai_serve::Server` over a 32-shard router of a ≈2 M-point map,
//!   with a 10 Hz map-edit writer alongside;
//! * [`ndt`] — `ndt_localize`: NDT alignment of drive scans against a
//!   map built from earlier frames, closed loop.
//!
//! An untraced run reports the end-to-end metrics of one workload. A
//! traced run records spans around calls into each layer (see
//! [`trace`]) on every workload and derives the per-layer metrics from
//! them. See `README.md` beside this crate for the metric table.

pub mod alloc;
pub mod calib;
pub mod drive;
pub mod host;
pub mod loadgen;
pub mod ndt;
pub mod serve;
pub mod stats;
pub mod trace;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// What one invocation measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
}

impl RunConfig {
    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A run's result: the contract's final JSON line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Every output matched baseline mode.
    pub correct: bool,
    /// Operations attempted (frames, alignments, requests, edit ticks).
    pub attempted: u64,
    /// Operations refused or answered with a typed error.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// A report with no operations yet.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records metric `name` (last write wins).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Merges `other`'s counts and metrics into this report.
    pub fn absorb(&mut self, other: Report) {
        self.correct &= other.correct;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (n, v, u) in other.metrics {
            self.metric(&n, v, u);
        }
    }

    /// The recorded metrics, in recording order.
    pub fn metrics(&self) -> &[(String, f64, &'static str)] {
        &self.metrics
    }

    /// The one-line JSON object of the benchmark contract. Non-finite
    /// values (which JSON cannot carry) are written as `null`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// SplitMix64: the benchmark's only source of input randomness, so a
/// seed reproduces every input exactly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        let u1 = self.unit().max(1.0e-7);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }
}

/// Times `f` once, returning its output and elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Heap bytes (counted by [`alloc`]) that `f`'s result holds once `f`
/// returns, with the result.
pub fn heap_held<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = alloc::live_bytes();
    let out = f();
    (out, alloc::live_bytes() - before)
}

/// Converts a refused percentile into the run's error.
pub fn pct(samples: &[f64], p: f64, what: &str) -> Result<f64, String> {
    stats::percentile(samples, p).map_err(|e| format!("{what}: {e}"))
}

/// Fewest whole passes a closed loop runs, so its pass rates have a
/// median even when one pass outlasts the budget.
pub const MIN_PASSES: usize = 2;

/// Runs `op` over the input pool `0..pool` in whole passes, in pool
/// order, until `budget` has passed and at least [`MIN_PASSES`] passes
/// are done, with one calibration slice after every operation. `op`
/// returns the operation's latency in ms; the result holds one vector
/// of latencies per pass, each scaled to the nominal host speed by the
/// slowdown its pass's slices showed (see [`calib`]).
pub fn whole_passes(
    pool: usize,
    budget: Duration,
    cal: &calib::Calibration,
    mut op: impl FnMut(usize) -> f64,
) -> Vec<Vec<f64>> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        let mut slices_ms = 0.0;
        let lat: Vec<f64> = (0..pool)
            .map(|k| {
                let ms = op(k);
                slices_ms += cal.slice();
                ms
            })
            .collect();
        let slowdown = slices_ms / pool as f64 / calib::NOMINAL_MS;
        passes.push(lat.iter().map(|ms| ms / slowdown).collect());
    }
    passes
}

/// Times `reps` repetitions of `f`, each scaled by the slowdown of a
/// short calibration block right after it, and returns the median in
/// seconds with the last repetition's output (earlier outputs are
/// dropped untimed). A set-up is one operation, so it has no pass to
/// calibrate over.
pub fn calibrated_setup<R>(
    cal: &calib::Calibration,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> (f64, R) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (out, s) = timed(&mut f);
        secs.push(s / cal.slowdown(SETUP_SLICES));
        last = Some(out);
    }
    (stats::median(&secs), last.expect("at least one repetition"))
}

/// Calibration slices after each set-up repetition.
const SETUP_SLICES: usize = 8;

/// The latency and throughput metrics of a closed loop run as whole
/// passes ([`whole_passes`]), from host-scaled latencies: `p50_ms` and
/// `tail_ms` are the whole run's median and `tail_p` percentile, and
/// `ops_per_s` the median of the passes' completion rates.
pub fn closed_loop_metrics(
    report: &mut Report,
    passes: &[Vec<f64>],
    tail_p: f64,
) -> Result<(), String> {
    let all = passes.concat();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.len() as f64 * 1e3 / p.iter().sum::<f64>())
        .collect();
    report.metric("p50_ms", pct(&all, 0.5, "p50")?, "ms");
    report.metric("tail_ms", pct(&all, tail_p, "tail")?, "ms");
    report.metric("ops_per_s", stats::median(&rates), "1/s");
    Ok(())
}

/// Mean of every latency of `passes`, ms.
pub fn mean_ms(passes: &[Vec<f64>]) -> f64 {
    let n: usize = passes.iter().map(Vec::len).sum();
    passes.iter().flatten().sum::<f64>() / n.max(1) as f64
}
