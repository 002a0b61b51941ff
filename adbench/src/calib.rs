//! Host-speed calibration.
//!
//! The hosts this benchmark runs on are shared: the same fixed loop
//! runs up to 2.4× slower from one 50 ms stretch to the next, and the
//! host's typical speed drifts by a third over minutes. No statistic
//! over the program's own timings separates that from the program's
//! cost. So the closed loops interleave a fixed calibration kernel —
//! the benchmark's own code, which no change to the program touches —
//! with the measured operations, and scale each pass's timings by how
//! fast the kernel ran during that pass. Reported times are then
//! milliseconds at the host speed where the kernel takes
//! [`NOMINAL_MS`], and a program that gets 10 % slower reports 10 %
//! more time, whatever the host did meanwhile.
//!
//! The kernel sorts a fixed array of floats: branchy, cache-resident
//! work that the host's interference slows by the same factor as the
//! clustering and NDT code (a pointer chase through L3 tracked the
//! workloads several times less closely).

use std::cell::RefCell;
use std::time::Instant;

use crate::Rng;

/// Time one [`Calibration::slice`] takes on the host these bounds were
/// set on (a shared 2-core x86-64 VM) in its quieter stretches, ms.
/// Reported times are scaled to this speed.
pub const NOMINAL_MS: f64 = 1.0;

/// Floats sorted per slice (128 KiB: L2-resident).
const LEN: usize = 32_768;

/// The calibration kernel's fixed input and its sort buffer.
pub struct Calibration {
    values: Vec<f32>,
    /// Reused by every slice, so a slice never allocates: a fresh
    /// 128 KiB buffer per slice sat on the allocator's mmap threshold
    /// and made the kernel's speed differ between runs.
    scratch: RefCell<Vec<f32>>,
}

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration::new()
    }
}

impl Calibration {
    /// The kernel's input, the same on every run.
    pub fn new() -> Calibration {
        let mut rng = Rng::new(0x00ca_11b0, 0);
        let values: Vec<f32> = (0..LEN).map(|_| rng.unit()).collect();
        Calibration {
            scratch: RefCell::new(values.clone()),
            values,
        }
    }

    /// How much slower than nominal the host runs right now: the mean of
    /// `n` slices ÷ [`NOMINAL_MS`].
    pub fn slowdown(&self, n: usize) -> f64 {
        (0..n.max(1)).map(|_| self.slice()).sum::<f64>() / n.max(1) as f64 / NOMINAL_MS
    }

    /// Sorts a copy of the input once and returns the wall time, ms.
    pub fn slice(&self) -> f64 {
        let mut v = self.scratch.borrow_mut();
        let t = Instant::now();
        v.copy_from_slice(&self.values);
        v.sort_unstable_by(f32::total_cmp);
        std::hint::black_box(&*v);
        t.elapsed().as_secs_f64() * 1e3
    }
}
