//! The SIMD lane engine behind the leaf sweeps.
//!
//! K-D Bonsai's `SQDWE` instruction evaluates many squared-distance
//! lanes per cycle; the software reproduction gets the same effect by
//! sweeping each leaf's SoA rows eight `f32` lanes at a time. Leaves
//! are packed (a leaf's slots are `start..start + count`, with no
//! padding after them), so lane width is a concern of the kernels
//! alone: each kernel finishes its own tail and reads nothing past
//! `start + count`. This module owns everything lane-shaped:
//!
//! * the lane width ([`LANES`]),
//! * runtime backend selection ([`active_backend`]): AVX-512 (F + BW +
//!   VL with F16C), AVX2 (with F16C) or SSE2 on `x86_64`, NEON on
//!   `aarch64`, detected once per process, plus a scalar fallback that
//!   is byte-for-byte the pre-SIMD loop,
//! * the vectorized baseline leaf sweep, used by
//!   `KdTree::sweep_leaf_visits` over collected [`LeafVisit`] lists,
//! * the baseline leaf block (`KdTree::leaf_hit_masks`): one leaf's
//!   rows loaded once and compared with a block of queries, one slot
//!   mask per query.
//!
//! # Kernels
//!
//! The baseline `f32` sweep has three lane kernels
//! ([`baseline_sweep_kernel`]). AVX2 (8 lanes) runs two full groups
//! per step, then loads the rest of the leaf with `vmaskmovps` under
//! its live-lane mask and ANDs the compare mask with the live bits;
//! hits leave through the shuffle-table compaction
//! `compact_hits_avx2`, whose `vind` load is masked to the hit lanes.
//! SSE2 and NEON (4 lanes) run whole 4-lane groups, then a scalar
//! remainder that evaluates the same expression in the same order. An
//! AVX-512 host runs the AVX2 kernel; [`LaneBackend::Avx512`] is a
//! superset of [`LaneBackend::Avx2`] at every dispatch site.
//!
//! The leaf block has two kernels. AVX2 loads a leaf's (at most
//! [`BLOCK_SLOTS`]) slots into registers once, then runs per query the
//! group arithmetic `group_hits` that the AVX2 sweep also calls; every
//! other backend runs the scalar block, [`slot_dist_sq`] per (query,
//! slot) like the scalar loop, whose masks equal the SSE2 and NEON
//! sweeps' hits bit for bit.
//!
//! The compressed sweep lives in `bonsai-core` and has an AVX-512
//! kernel (16 lanes, one group per ≤16-point leaf, each row loaded
//! with a masked load of exactly `count` halves), an AVX2 kernel (8
//! lanes, the tail group's live halves copied into a zeroed stack
//! group and the dead lanes masked out of classification) and a scalar
//! one.
//!
//! # Bit-identical by construction
//!
//! Every backend evaluates, per lane, exactly the scalar expression
//! `(x−qx)² + (y−qy)² + (z−qz)²` with the same operation order and no
//! FMA contraction, so the `dist_sq` a hit reports has the same bits
//! whichever backend ran. Hits are compacted from the lane mask in
//! ascending slot order, so the `Neighbor` *sequence* is identical
//! too. Lanes past a leaf's `count` are never read from the rows and
//! are cleared from the hit mask, so they cannot produce a hit
//! (`baseline_kernels_agree_bit_for_bit` plants in-radius points right
//! after every leaf to check it).
//!
//! Everything here is compiled regardless of the `simd` cargo feature
//! so layouts stay stable; without the feature (or on other
//! architectures) [`active_backend`] reports [`LaneBackend::Scalar`]
//! and the sweeps decline, leaving the caller's scalar loop in charge.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use bonsai_geom::Point3;

use crate::search::Neighbor;

/// Lanes per sweep step: the 8-wide `f32` vector the hardware SQDWE
/// model and the AVX2 backend both use (SSE2 and NEON run 4-lane
/// groups).
pub const LANES: usize = 8;

/// The most slots one leaf block covers: one ZipPts buffer, the
/// largest leaf a k-d builder makes (`max_leaf_points ≤ 16`). A block's
/// hit masks carry one bit per slot.
pub const BLOCK_SLOTS: usize = 16;

/// Which lane implementation [`active_backend`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaneBackend {
    /// 16-wide `core::arch::x86_64` AVX-512 (F + BW + VL, with F16C):
    /// a superset of [`Avx2`](LaneBackend::Avx2). The compressed sweep
    /// of `bonsai-core` has a 16-lane kernel for it; the baseline
    /// sweep runs its AVX2 kernel.
    Avx512,
    /// 8-wide `core::arch::x86_64` AVX2 (with F16C, which the
    /// compressed sweep's in-register f16 decode needs).
    Avx2,
    /// 4-wide `core::arch::x86_64` SSE2 (the `x86_64` baseline), with
    /// a scalar remainder per leaf.
    Sse2,
    /// 4-wide `core::arch::aarch64` NEON, with a scalar remainder per
    /// leaf.
    Neon,
    /// The plain scalar loop (no `simd` feature, an unsupported
    /// architecture, or a [`scalar_override`] in force).
    Scalar,
}

impl fmt::Display for LaneBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LaneBackend::Avx512 => "avx512",
            LaneBackend::Avx2 => "avx2",
            LaneBackend::Sse2 => "sse2",
            LaneBackend::Neon => "neon",
            LaneBackend::Scalar => "scalar",
        })
    }
}

/// The best backend this host supports, detected once per process
/// (independent of the `simd` feature and of any override).
pub fn detected_backend() -> LaneBackend {
    static DETECTED: OnceLock<LaneBackend> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            // The compressed sweep decodes its f16 rows with F16C
            // `vcvtph2ps`; every AVX2 part Intel and AMD ship has it.
            // Its AVX-512 kernel loads rows with masked 16-bit loads
            // (BW + VL).
            let avx2 = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("f16c");
            if avx2
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                LaneBackend::Avx512
            } else if avx2 {
                LaneBackend::Avx2
            } else {
                LaneBackend::Sse2
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            LaneBackend::Neon
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            LaneBackend::Scalar
        }
    })
}

/// The kernel the baseline `f32` sweep runs under the active backend:
/// [`active_backend`], except that an AVX-512 host runs the AVX2
/// kernel (there is no 512-bit baseline sweep).
pub fn baseline_sweep_kernel() -> LaneBackend {
    match active_backend() {
        LaneBackend::Avx512 => LaneBackend::Avx2,
        b => b,
    }
}

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// The backend the sweeps will actually use right now.
///
/// [`LaneBackend::Scalar`] when the `simd` feature is off, the host
/// supports no vector backend, or a [`scalar_override`] is active.
pub fn active_backend() -> LaneBackend {
    // HB: none forgone — writers serialize on OVERRIDE_LOCK's mutex;
    // a racing reader at worst picks a backend one toggle stale, and
    // both backends return identical results.
    if !cfg!(feature = "simd") || FORCE_SCALAR.load(Ordering::Relaxed) {
        return LaneBackend::Scalar;
    }
    detected_backend()
}

/// Exclusive handle for toggling the process-wide scalar override —
/// how benches and equivalence tests run the scalar reference path in
/// a SIMD-enabled build. See [`scalar_override`].
#[derive(Debug)]
pub struct ScalarOverride {
    _serialize: MutexGuard<'static, ()>,
}

impl ScalarOverride {
    /// Forces (or releases) the scalar path for every sweep in the
    /// process while this handle is alive.
    pub fn set(&self, force_scalar: bool) {
        // HB: the `_serialize` MutexGuard held by this handle orders
        // every store against other override holders; readers need no
        // edge (see `active_backend`).
        FORCE_SCALAR.store(force_scalar, Ordering::Relaxed);
    }
}

impl Drop for ScalarOverride {
    fn drop(&mut self) {
        // HB: still under the handle's `_serialize` MutexGuard — the
        // release-on-drop store is ordered with `set` by the mutex.
        FORCE_SCALAR.store(false, Ordering::Relaxed);
    }
}

/// Acquires the scalar-override handle, serializing every caller that
/// wants to compare backends (concurrent tests would otherwise flip
/// the flag under each other — results would still be identical, by
/// the module invariant, but the comparison would silently test
/// scalar against scalar). The override is cleared on drop.
pub fn scalar_override() -> ScalarOverride {
    ScalarOverride {
        _serialize: OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner),
    }
}

/// One collected leaf visit of a two-phase radius search: the leaf's
/// id and its `(start, count)` slot range, in traversal order.
/// Produced by `KdTree::collect_leaves_in_radius`, consumed by the
/// range sweeps — collecting first lets a whole query's leaves run
/// through **one** backend dispatch with the lane constants hoisted,
/// instead of paying dispatch + broadcast per leaf.
pub type LeafVisit = (u32, u32, u32);

/// Vectorized baseline sweep over a query's collected leaf visits:
/// for each visit, in order, pushes a [`Neighbor`] for every slot
/// with `(x−q.x)² + (y−q.y)² + (z−q.z)² ≤ r_sq`, in ascending slot
/// order, with bit-identical `dist_sq` to the scalar loop
/// ([`scan_slots_scalar`]). Returns `false` without touching `out`
/// when only the scalar backend is active (the caller then runs its
/// scalar loop).
///
/// The rows and `vind` must cover each visit's `start..start + count`;
/// the kernels read nothing past it.
#[allow(unused_variables)] // scalar-only builds use none of the inputs
#[allow(clippy::needless_return)] // the returns close per-arch cfg arms
#[allow(clippy::too_many_arguments)] // the flattened sweep state
#[allow(clippy::ptr_arg)] // the lane kernels push; scalar builds never touch `out`
#[inline]
pub(crate) fn sweep_baseline_visited(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    vind: &[u32],
    visited: &[LeafVisit],
    query: Point3,
    r_sq: f32,
    out: &mut Vec<Neighbor>,
) -> bool {
    let backend = baseline_sweep_kernel();
    if backend == LaneBackend::Scalar {
        return false;
    }
    let slots = xs.len().min(ys.len()).min(zs.len()).min(vind.len());
    for &(_, start, count) in visited {
        // lint: allow(debug-assert-discipline) — this assert *is* the
        // bounds contract of the unsafe lane kernels below; eliding it
        // in release builds would turn a layout bug into UB.
        assert!(
            start as usize + count as usize <= slots,
            "leaf sweep past the SoA rows: start {start} count {count} rows {slots}"
        );
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        // SAFETY: bounds asserted above; AVX2 presence established by
        // `detected_backend` before that arm is ever selected; SSE2 is
        // part of the x86_64 baseline.
        unsafe {
            match backend {
                LaneBackend::Avx2 => {
                    x86::sweep_visited_avx2(xs, ys, zs, vind, visited, query, r_sq, out)
                }
                LaneBackend::Sse2 => {
                    x86::sweep_visited_sse2(xs, ys, zs, vind, visited, query, r_sq, out)
                }
                _ => unreachable!("the x86_64 baseline sweep runs Avx2 or Sse2"),
            }
        }
        return true;
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    {
        // SAFETY: bounds asserted above; NEON is part of the aarch64
        // baseline.
        unsafe {
            aarch64::sweep_visited_neon(xs, ys, zs, vind, visited, query, r_sq, out);
        }
        return true;
    }
    #[cfg(not(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64"))))]
    {
        unreachable!("active_backend() is Scalar off x86_64/aarch64 or without the simd feature")
    }
}

/// The scalar reference sweep of slots `lo..hi`: pushes a [`Neighbor`]
/// for every slot with `(x−q.x)² + (y−q.y)² + (z−q.z)² ≤ r_sq`, in
/// ascending slot order. The semantics every lane kernel reproduces
/// bit for bit, the loop a scalar backend runs, and the remainder the
/// 4-lane kernels finish a leaf with. Slice windows are hoisted to one
/// exact length so the body indexes without bounds checks.
#[allow(clippy::too_many_arguments)] // the flattened sweep state
#[inline]
pub(crate) fn scan_slots_scalar(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    vind: &[u32],
    lo: usize,
    hi: usize,
    query: Point3,
    r_sq: f32,
    out: &mut Vec<Neighbor>,
) {
    let (xs, ys, zs, vind) = (&xs[lo..hi], &ys[lo..hi], &zs[lo..hi], &vind[lo..hi]);
    for i in 0..hi - lo {
        let d_sq = slot_dist_sq(xs[i], ys[i], zs[i], query);
        if d_sq <= r_sq {
            out.push(Neighbor {
                index: vind[i],
                dist_sq: d_sq,
            });
        }
    }
}

/// One slot's squared distance, `(x−q.x)² + (y−q.y)² + (z−q.z)²` in
/// `f32` with no FMA: the expression every lane kernel reproduces bit
/// for bit, written once for the scalar loop (also the 4-lane kernels'
/// remainder) and the scalar leaf block.
#[inline(always)]
fn slot_dist_sq(x: f32, y: f32, z: f32, query: Point3) -> f32 {
    let dx = x - query.x;
    let dy = y - query.y;
    let dz = z - query.z;
    dx * dx + dy * dy + dz * dz
}

/// The baseline leaf block: for each query, the mask of the slots of
/// the leaf `start..start + count` that a sweep of that leaf with that
/// query reports (bit `j` for slot `start + j`), written to the
/// matching entry of `masks`. The AVX2 kernel loads the leaf's rows
/// once for the whole block and runs the AVX2 sweep's group arithmetic
/// per query; every other backend runs the scalar block. Either way a
/// mask is exactly the sweep's hits (`baseline_kernels_agree_bit_for_bit`
/// checks both kernels).
///
/// # Panics
///
/// Panics when `count > BLOCK_SLOTS`, when `masks` and `queries`
/// differ in length, or when the leaf lies outside the rows.
#[allow(clippy::too_many_arguments)] // the flattened block state
pub(crate) fn baseline_hit_masks(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    start: usize,
    count: usize,
    queries: &[Point3],
    r_sq: f32,
    masks: &mut [u32],
) {
    let slots = xs.len().min(ys.len()).min(zs.len());
    // lint: allow(debug-assert-discipline) — this assert *is* the
    // bounds contract of the unsafe block kernels below (and a short
    // `masks` would leave queries unanswered); eliding it in release
    // builds would turn a layout bug into UB.
    assert!(
        count <= BLOCK_SLOTS && start + count <= slots && masks.len() == queries.len(),
        "leaf block past the SoA rows or wider than {BLOCK_SLOTS} slots: start {start} count {count} rows {slots}, {} masks for {} queries",
        masks.len(),
        queries.len()
    );
    match baseline_sweep_kernel() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        LaneBackend::Avx2 => {
            // SAFETY: the leaf lies within every row and holds at most
            // `BLOCK_SLOTS` slots (asserted above); AVX2 presence was
            // established by `detected_backend` before this arm is
            // ever selected.
            unsafe { x86::hit_masks_avx2(xs, ys, zs, start, count, queries, r_sq, masks) }
        }
        // SSE2, NEON and scalar builds: the scalar block, whose masks
        // equal those kernels' sweeps bit for bit.
        _ => hit_masks_scalar(xs, ys, zs, start, count, queries, r_sq, masks),
    }
}

/// The scalar leaf block: [`slot_dist_sq`] per (query, slot), the
/// scalar loop's compare.
#[allow(clippy::too_many_arguments)] // the flattened block state
fn hit_masks_scalar(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    start: usize,
    count: usize,
    queries: &[Point3],
    r_sq: f32,
    masks: &mut [u32],
) {
    let (xs, ys, zs) = (
        &xs[start..start + count],
        &ys[start..start + count],
        &zs[start..start + count],
    );
    for (&q, mask) in queries.iter().zip(masks) {
        let mut m = 0u32;
        for j in 0..count {
            m |= u32::from(slot_dist_sq(xs[j], ys[j], zs[j], q) <= r_sq) << j;
        }
        *mask = m;
    }
}

/// The AVX2 hit-compaction primitive, shared with the compressed
/// sweep of `bonsai-core` (see its documentation in the `x86` module).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub use x86::compact_hits_avx2;

/// AVX2 / SSE2 lane kernels.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// Lane-compaction shuffle table: entry `m` lists the set bit
    /// positions of `m` in ascending order (tail entries repeat 0 and
    /// are never read past the popcount).
    static COMPACT: [[u32; 8]; 256] = compact_table();

    const fn compact_table() -> [[u32; 8]; 256] {
        let mut t = [[0u32; 8]; 256];
        let mut m = 0usize;
        while m < 256 {
            let mut k = 0usize;
            let mut j = 0usize;
            while j < 8 {
                if m & (1 << j) != 0 {
                    t[m][k] = j as u32;
                    k += 1;
                }
                j += 1;
            }
            m += 1;
        }
        t
    }

    /// Emits the hits of one 8-lane group in ascending lane order with
    /// two vector stores: the distance lanes and the hit lanes' `vind`
    /// entries (a masked load of just those lanes) are compacted
    /// through one shuffle-table permute, then interleaved into
    /// `(index, dist_sq)` pairs — `Neighbor`'s `repr(C)` layout — and
    /// written as whole registers (only the first `popcount(mask)`
    /// pairs become visible via `set_len`). Constant work per group
    /// however many lanes hit, where a bit-scan loop pays per hit.
    ///
    /// # Safety
    ///
    /// `mask` must be an 8-bit lane mask, slot `g + j` must be within
    /// `vind` for every set bit `j` of `mask`, and AVX2 must be
    /// available.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn compact_hits_avx2(
        vind: *const u32,
        g: usize,
        d: __m256,
        mask: u32,
        out: &mut Vec<Neighbor>,
    ) {
        let hits = mask.count_ones() as usize;
        // Lane `j`'s load-mask sign bit is bit `j` of `mask`.
        let lanes = _mm256_sllv_epi32(
            _mm256_set1_epi32(mask as i32),
            _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24),
        );
        // SAFETY: `mask` is an 8-bit lane mask, so it indexes the
        // 256-entry `COMPACT` table, and the masked load reads only the
        // hit lanes, which the function contract puts within `vind`
        // (masked-off lanes are neither read nor faulted on).
        let (first, second) = unsafe {
            let perm = _mm256_loadu_si256(COMPACT[mask as usize].as_ptr() as *const __m256i);
            let dv = _mm256_castps_si256(_mm256_permutevar8x32_ps(d, perm));
            let iv = _mm256_permutevar8x32_epi32(
                _mm256_maskload_epi32(vind.add(g) as *const i32, lanes),
                perm,
            );
            // Interleave to (index, dist) pairs: unpack works per
            // 128-bit half (pairs 0,1|4,5 and 2,3|6,7), the cross-lane
            // permutes restore ascending order.
            let lo = _mm256_unpacklo_epi32(iv, dv);
            let hi = _mm256_unpackhi_epi32(iv, dv);
            (
                _mm256_permute2x128_si256::<0x20>(lo, hi),
                _mm256_permute2x128_si256::<0x31>(lo, hi),
            )
        };
        out.reserve(8);
        let len = out.len();
        // SAFETY: `reserve(8)` guarantees capacity for the two whole
        // 32-byte stores (8 `Neighbor` pairs past `len`); `set_len`
        // exposes only the first `hits ≤ 8` pairs, all initialized by
        // the stores.
        unsafe {
            let p = out.as_mut_ptr().add(len) as *mut __m256i;
            _mm256_storeu_si256(p, first);
            _mm256_storeu_si256(p.add(1), second);
            out.set_len(len + hits);
        }
    }

    /// # Safety
    ///
    /// Caller guarantees every visit's `start..start + count` is within
    /// every slice and AVX2 is available.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)] // the flattened sweep state
    pub(super) unsafe fn sweep_visited_avx2(
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        vind: &[u32],
        visited: &[LeafVisit],
        query: Point3,
        r_sq: f32,
        out: &mut Vec<Neighbor>,
    ) {
        let (px, py, pz) = (xs.as_ptr(), ys.as_ptr(), zs.as_ptr());
        // The lane constants broadcast once per *query*, not per leaf.
        let qx = _mm256_set1_ps(query.x);
        let qy = _mm256_set1_ps(query.y);
        let qz = _mm256_set1_ps(query.z);
        let rs = _mm256_set1_ps(r_sq);
        let lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        for &(_, start, count) in visited {
            let hi = start as usize + count as usize;
            let mut g = start as usize;
            // Two full lane groups per step: independent chains for
            // the OoO core, one hit branch.
            while g + 2 * LANES <= hi {
                // SAFETY: both groups lie within `g..hi`, inside every
                // row per the caller's contract; `group_hits` is
                // register-only and needs AVX2, enabled here.
                let ((d0, m0), (d1, m1)) = unsafe {
                    (
                        group_hits(
                            _mm256_loadu_ps(px.add(g)),
                            _mm256_loadu_ps(py.add(g)),
                            _mm256_loadu_ps(pz.add(g)),
                            qx,
                            qy,
                            qz,
                            rs,
                        ),
                        group_hits(
                            _mm256_loadu_ps(px.add(g + LANES)),
                            _mm256_loadu_ps(py.add(g + LANES)),
                            _mm256_loadu_ps(pz.add(g + LANES)),
                            qx,
                            qy,
                            qz,
                            rs,
                        ),
                    )
                };
                if m0 | m1 != 0 {
                    let vp = vind.as_ptr();
                    // SAFETY: `m0`/`m1` are 8-bit movemask lane masks
                    // over the two in-bounds groups just loaded; AVX2
                    // is enabled on this fn.
                    unsafe {
                        if m0 != 0 {
                            compact_hits_avx2(vp, g, d0, m0, out);
                        }
                        if m1 != 0 {
                            compact_hits_avx2(vp, g + LANES, d1, m1, out);
                        }
                    }
                }
                g += 2 * LANES;
            }
            // The rest of the leaf (under 16 slots): one group at a
            // time through its live-lane mask.
            while g < hi {
                let live = (hi - g).min(LANES);
                let live_lanes = _mm256_cmpgt_epi32(_mm256_set1_epi32(live as i32), lane_ids);
                // SAFETY: the masked loads read only the `live` slots
                // `g..g + live`, within `g..hi` and so inside every
                // row; the mask passed on keeps only those lanes.
                unsafe {
                    let (d, mask) = group_hits(
                        _mm256_maskload_ps(px.add(g), live_lanes),
                        _mm256_maskload_ps(py.add(g), live_lanes),
                        _mm256_maskload_ps(pz.add(g), live_lanes),
                        qx,
                        qy,
                        qz,
                        rs,
                    );
                    let mask = mask & (0xFF >> (LANES - live));
                    if mask != 0 {
                        compact_hits_avx2(vind.as_ptr(), g, d, mask, out);
                    }
                }
                g += LANES;
            }
        }
    }

    /// One 8-lane group over loaded coordinates: the squared distances,
    /// with the scalar loop's exact association `(dx² + dy²) + dz²` and
    /// no FMA, and the 8-bit mask of the lanes within `r²` (ordered ≤:
    /// false for the NaN a non-finite query produces, exactly like the
    /// scalar `<=`). The per-query sweep and the leaf block both call
    /// it; callers clear dead lanes from the mask.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn group_hits(
        x: __m256,
        y: __m256,
        z: __m256,
        qx: __m256,
        qy: __m256,
        qz: __m256,
        rs: __m256,
    ) -> (__m256, u32) {
        let dx = _mm256_sub_ps(x, qx);
        let dy = _mm256_sub_ps(y, qy);
        let dz = _mm256_sub_ps(z, qz);
        let d = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
            _mm256_mul_ps(dz, dz),
        );
        (
            d,
            _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(d, rs)) as u32,
        )
    }

    /// The AVX2 leaf block: the leaf's at most two 8-lane groups load
    /// once (masked to the live slots, like the sweep's tail), then
    /// every query runs [`group_hits`] on each.
    ///
    /// # Safety
    ///
    /// Caller guarantees `start..start + count` is within every row,
    /// `count ≤ BLOCK_SLOTS`, and that AVX2 is available.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)] // the flattened block state
    pub(super) unsafe fn hit_masks_avx2(
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        start: usize,
        count: usize,
        queries: &[Point3],
        r_sq: f32,
        masks: &mut [u32],
    ) {
        const GROUPS: usize = BLOCK_SLOTS / LANES;
        let (px, py, pz) = (xs.as_ptr(), ys.as_ptr(), zs.as_ptr());
        let rs = _mm256_set1_ps(r_sq);
        let lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let zero = _mm256_setzero_ps();
        let (mut gx, mut gy, mut gz) = ([zero; GROUPS], [zero; GROUPS], [zero; GROUPS]);
        let mut live_bits = [0u32; GROUPS];
        let groups = count.div_ceil(LANES);
        for k in 0..groups {
            let g = start + k * LANES;
            let live = (count - k * LANES).min(LANES);
            let live_lanes = _mm256_cmpgt_epi32(_mm256_set1_epi32(live as i32), lane_ids);
            // SAFETY: the masked loads read only the `live` slots
            // `g..g + live`, within the leaf and so inside every row per
            // the caller's contract.
            unsafe {
                gx[k] = _mm256_maskload_ps(px.add(g), live_lanes);
                gy[k] = _mm256_maskload_ps(py.add(g), live_lanes);
                gz[k] = _mm256_maskload_ps(pz.add(g), live_lanes);
            }
            live_bits[k] = 0xFF >> (LANES - live);
        }
        for (&q, mask) in queries.iter().zip(masks) {
            let (qx, qy, qz) = (
                _mm256_set1_ps(q.x),
                _mm256_set1_ps(q.y),
                _mm256_set1_ps(q.z),
            );
            let mut m = 0u32;
            for k in 0..groups {
                // SAFETY: `group_hits` is register-only and needs AVX2,
                // enabled here.
                let (_, hits) = unsafe { group_hits(gx[k], gy[k], gz[k], qx, qy, qz, rs) };
                m |= (hits & live_bits[k]) << (k * LANES);
            }
            *mask = m;
        }
    }

    /// # Safety
    ///
    /// Caller guarantees every visit's `start..start + count` is within
    /// every slice (SSE2 is part of the `x86_64` baseline).
    #[target_feature(enable = "sse2")]
    #[allow(clippy::too_many_arguments)] // the flattened sweep state
    pub(super) unsafe fn sweep_visited_sse2(
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        vind: &[u32],
        visited: &[LeafVisit],
        query: Point3,
        r_sq: f32,
        out: &mut Vec<Neighbor>,
    ) {
        let (px, py, pz) = (xs.as_ptr(), ys.as_ptr(), zs.as_ptr());
        let qx = _mm_set1_ps(query.x);
        let qy = _mm_set1_ps(query.y);
        let qz = _mm_set1_ps(query.z);
        let rs = _mm_set1_ps(r_sq);
        for &(_, start, count) in visited {
            let hi = start as usize + count as usize;
            let mut g = start as usize;
            while g + 4 <= hi {
                // SAFETY: `g..g + 4` lies within `g..hi`, inside every
                // row per the caller's contract, so the three unaligned
                // 4-lane loads read only owned row memory.
                let d = unsafe {
                    let dx = _mm_sub_ps(_mm_loadu_ps(px.add(g)), qx);
                    let dy = _mm_sub_ps(_mm_loadu_ps(py.add(g)), qy);
                    let dz = _mm_sub_ps(_mm_loadu_ps(pz.add(g)), qz);
                    _mm_add_ps(
                        _mm_add_ps(_mm_mul_ps(dx, dx), _mm_mul_ps(dy, dy)),
                        _mm_mul_ps(dz, dz),
                    )
                };
                let mask = _mm_movemask_ps(_mm_cmple_ps(d, rs)) as u32;
                if mask != 0 {
                    let mut dv = [0.0f32; 4];
                    // SAFETY: `dv` is a 4-float stack buffer sized for
                    // the 4-lane store; the mask's set bits are `< 4`
                    // with `g + j` within `vind` for each (the group
                    // just loaded).
                    unsafe {
                        _mm_storeu_ps(dv.as_mut_ptr(), d);
                        push_mask_hits(vind, g, mask, &dv, out);
                    }
                }
                g += 4;
            }
            scan_slots_scalar(xs, ys, zs, vind, g, hi, query, r_sq, out);
        }
    }
}

/// NEON lane kernels.
#[cfg(all(feature = "simd", target_arch = "aarch64"))]
mod aarch64 {
    use super::*;
    use core::arch::aarch64::*;

    /// # Safety
    ///
    /// Caller guarantees every visit's `start..start + count` is within
    /// every slice (NEON is part of the `aarch64` baseline).
    #[target_feature(enable = "neon")]
    #[allow(clippy::too_many_arguments)] // the flattened sweep state
    pub(super) unsafe fn sweep_visited_neon(
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        vind: &[u32],
        visited: &[LeafVisit],
        query: Point3,
        r_sq: f32,
        out: &mut Vec<Neighbor>,
    ) {
        let (px, py, pz) = (xs.as_ptr(), ys.as_ptr(), zs.as_ptr());
        let qx = vdupq_n_f32(query.x);
        let qy = vdupq_n_f32(query.y);
        let qz = vdupq_n_f32(query.z);
        let rs = vdupq_n_f32(r_sq);
        for &(_, start, count) in visited {
            let hi = start as usize + count as usize;
            let mut g = start as usize;
            while g + 4 <= hi {
                // SAFETY: `g..g + 4` lies within `g..hi`, inside every
                // row per the caller's contract, so the three 4-lane
                // loads read only owned row memory. vmulq + vaddq,
                // never vfmaq: FMA contraction would change result bits
                // relative to the scalar loop.
                let (d, le) = unsafe {
                    let dx = vsubq_f32(vld1q_f32(px.add(g)), qx);
                    let dy = vsubq_f32(vld1q_f32(py.add(g)), qy);
                    let dz = vsubq_f32(vld1q_f32(pz.add(g)), qz);
                    let d = vaddq_f32(
                        vaddq_f32(vmulq_f32(dx, dx), vmulq_f32(dy, dy)),
                        vmulq_f32(dz, dz),
                    );
                    (d, vcleq_f32(d, rs))
                };
                if vmaxvq_u32(le) != 0 {
                    let mut dv = [0.0f32; 4];
                    let mut mv = [0u32; 4];
                    // SAFETY: `dv`/`mv` are 4-lane stack buffers sized
                    // for the stores; the mask built from `mv` only
                    // sets bits `< 4`, each with `g + j` within `vind`
                    // (the group just loaded).
                    unsafe {
                        vst1q_f32(dv.as_mut_ptr(), d);
                        vst1q_u32(mv.as_mut_ptr(), le);
                        let mut mask = 0u32;
                        for (j, &m) in mv.iter().enumerate() {
                            mask |= u32::from(m != 0) << j;
                        }
                        push_mask_hits(vind, g, mask, &dv, out);
                    }
                }
                g += 4;
            }
            scan_slots_scalar(xs, ys, zs, vind, g, hi, query, r_sq, out);
        }
    }
}

/// Compacts one lane group's hits in ascending slot order: lane `j` of
/// `mask` set means slot `base + j` is a hit with distance `dists[j]`.
/// One reservation covers the whole group, and the writes skip the
/// per-push capacity/bounds checks the optimizer cannot elide for a
/// `trailing_zeros`-derived lane index.
///
/// # Safety
///
/// `mask` must only have bits `< dists.len()` set, and `base + j` must
/// be within `vind` for every set bit `j`.
#[cfg(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64")))]
#[inline]
unsafe fn push_mask_hits(
    vind: &[u32],
    base: usize,
    mask: u32,
    dists: &[f32],
    out: &mut Vec<Neighbor>,
) {
    let hits = mask.count_ones() as usize;
    out.reserve(hits);
    let len = out.len();
    // SAFETY: `reserve(hits)` made room for `hits` writes past `len`;
    // every set bit `j` has `j < dists.len()` and `base + j` within
    // `vind` per the contract, and `set_len` exposes exactly the
    // `hits` pairs just written.
    unsafe {
        let mut p = out.as_mut_ptr().add(len);
        let mut bits = mask;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            p.write(Neighbor {
                index: *vind.get_unchecked(base + j),
                dist_sq: *dists.get_unchecked(j),
            });
            p = p.add(1);
            bits &= bits - 1;
        }
        out.set_len(len + hits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_is_stable_and_printable() {
        let a = detected_backend();
        let b = detected_backend();
        assert_eq!(a, b, "detection is cached");
        eprintln!("detected lane backend: {a}");
        assert!(!a.to_string().is_empty());
        #[cfg(target_arch = "x86_64")]
        assert!(matches!(
            a,
            LaneBackend::Avx512 | LaneBackend::Avx2 | LaneBackend::Sse2
        ));
    }

    #[test]
    fn scalar_override_forces_and_restores() {
        {
            let ov = scalar_override();
            ov.set(true);
            assert_eq!(active_backend(), LaneBackend::Scalar);
            ov.set(false);
            if cfg!(feature = "simd") {
                assert_eq!(active_backend(), detected_backend());
            } else {
                assert_eq!(active_backend(), LaneBackend::Scalar);
            }
            ov.set(true);
        }
        // Drop clears the override even when left set.
        let _ov = scalar_override();
        if cfg!(feature = "simd") {
            assert_eq!(active_backend(), detected_backend());
        }
    }

    /// Every compiled baseline kernel, called directly (not through
    /// [`baseline_sweep_kernel`], so SSE2 runs on an AVX2 host too),
    /// agrees with [`scan_slots_scalar`] on hits, their `dist_sq` bits
    /// and order. Hand-built packed rows hold leaves of every count
    /// 0..=16 plus a 24-point visit, some odd leaves with ±∞ and NaN
    /// coordinates (`r = 2e19` squares to ∞ and admits the infinite
    /// ones); each leaf but the last is followed
    /// by unvisited gap slots holding a poison point at the query, in
    /// radius for every radius, so a kernel that read past a leaf's
    /// `count` would report an extra hit. The rows end right after the
    /// last live slot. Every compiled leaf-block kernel reports per
    /// query the slots of the scalar sweep of that leaf.
    #[test]
    fn baseline_kernels_agree_bit_for_bit() {
        const POISON: u32 = 1 << 30;
        let mut state = 0x5EED_BA5E_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f32 / (1u64 << 53) as f32
        };
        // Near the origin, so a dead lane that loads as zero would be in
        // radius too.
        let center = Point3::new(0.25, -0.5, 0.75);
        let (mut xs, mut ys, mut zs) = (Vec::new(), Vec::new(), Vec::new());
        let mut vind = Vec::new();
        let mut visits: Vec<LeafVisit> = Vec::new();
        let counts: Vec<u32> = (0..=16).chain([24]).collect();
        for (leaf, &count) in counts.iter().enumerate() {
            if leaf > 0 {
                for _ in 0..LANES {
                    xs.push(center.x);
                    ys.push(center.y);
                    zs.push(center.z);
                    vind.push(POISON);
                }
            }
            let start = vind.len() as u32;
            for i in 0..count {
                let mut p = center + Point3::new(next() - 0.5, next() - 0.5, next() - 0.5) * 2.0;
                // Odd leaves hold some ±∞ and NaN coordinates.
                if leaf % 2 == 1 && (leaf + i as usize) % 5 == 2 {
                    match (leaf + i as usize) % 3 {
                        0 => p.x = f32::INFINITY,
                        1 => p.y = f32::NEG_INFINITY,
                        _ => p.z = f32::NAN,
                    }
                }
                xs.push(p.x);
                ys.push(p.y);
                zs.push(p.z);
                vind.push(vind.len() as u32);
            }
            visits.push((leaf as u32, start, count));
        }
        let scalar = |visits: &[LeafVisit], q: Point3, r_sq: f32| {
            let mut out = Vec::new();
            for &(_, start, count) in visits {
                let (lo, hi) = (start as usize, (start + count) as usize);
                scan_slots_scalar(&xs, &ys, &zs, &vind, lo, hi, q, r_sq, &mut out);
            }
            out
        };
        // The poison is live: one slot past a leaf, the scalar loop
        // reports it.
        let (_, start, count) = visits[3];
        assert!(scalar(&[(3, start, count + 1)], center, 0.01)
            .iter()
            .any(|n| n.index == POISON));

        let mut lists = vec![visits.clone()];
        lists.push(visits.iter().rev().copied().collect());
        lists.push(vec![
            visits[17], visits[16], visits[17], visits[1], visits[0],
        ]);
        let queries = [
            center,
            center + Point3::new(0.3, -0.2, 0.1),
            Point3::new(f32::NAN, 0.0, 0.0),
        ];
        for visits in &lists {
            for q in queries {
                // Radii below, inside and past the planted spread; the
                // last two admit whole leaves, and `r² = ∞` the infinite
                // points too.
                for radius in [0.1f32, 0.5, 0.9, 2.0, 2e19] {
                    let r_sq = radius * radius;
                    let want = bits(&scalar(visits, q, r_sq));
                    let check = |name: &str, out: &[Neighbor]| {
                        assert_eq!(bits(out), want, "{name}: query {q:?} r {radius}");
                    };
                    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                    {
                        if std::arch::is_x86_feature_detected!("avx2") {
                            let mut out = poisoned();
                            // SAFETY: every visit's live range lies
                            // within the rows; AVX2 detected.
                            unsafe {
                                x86::sweep_visited_avx2(
                                    &xs, &ys, &zs, &vind, visits, q, r_sq, &mut out,
                                )
                            };
                            check("avx2", &out);
                        }
                        let mut out = poisoned();
                        // SAFETY: every visit's live range lies within
                        // the rows; SSE2 is part of x86_64.
                        unsafe {
                            x86::sweep_visited_sse2(&xs, &ys, &zs, &vind, visits, q, r_sq, &mut out)
                        };
                        check("sse2", &out);
                    }
                    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
                    {
                        let mut out = poisoned();
                        // SAFETY: every visit's live range lies within
                        // the rows; NEON is part of aarch64.
                        unsafe {
                            aarch64::sweep_visited_neon(
                                &xs, &ys, &zs, &vind, visits, q, r_sq, &mut out,
                            )
                        };
                        check("neon", &out);
                    }
                    // Scalar-only builds run no kernel to check.
                    let _ = &check;
                }
            }
        }

        // The leaf block: every leaf of 0..=16 slots, ±∞ and NaN
        // points included, against a block of queries (a NaN one among
        // them) reports per query exactly the slots the scalar sweep of
        // that leaf reports, in every compiled kernel.
        let block: Vec<Point3> = queries
            .iter()
            .copied()
            .chain([
                center + Point3::new(-0.6, 0.1, 0.4),
                Point3::new(xs[40], ys[40], zs[40]),
            ])
            .collect();
        for &visit in &visits[..=16] {
            let (_, start, count) = visit;
            let (start, count) = (start as usize, count as usize);
            for radius in [0.1f32, 0.5, 0.9, 2.0, 2e19] {
                let r_sq = radius * radius;
                let want: Vec<u32> = block
                    .iter()
                    .map(|&q| {
                        scalar(&[visit], q, r_sq)
                            .iter()
                            .fold(0, |m, n| m | 1 << (n.index as usize - start))
                    })
                    .collect();
                let check = |name: &str, masks: &[u32]| {
                    assert_eq!(masks, &want[..], "{name} block: count {count} r {radius}");
                };
                // Masks start as poison, so a kernel that skips a
                // query's entry fails.
                let mut masks = vec![u32::MAX; block.len()];
                hit_masks_scalar(&xs, &ys, &zs, start, count, &block, r_sq, &mut masks);
                check("scalar", &masks);
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                {
                    if std::arch::is_x86_feature_detected!("avx2") {
                        let mut masks = vec![u32::MAX; block.len()];
                        // SAFETY: the leaf lies within the rows and holds
                        // at most 16 slots; AVX2 detected.
                        unsafe {
                            x86::hit_masks_avx2(
                                &xs, &ys, &zs, start, count, &block, r_sq, &mut masks,
                            )
                        };
                        check("avx2", &masks);
                    }
                }
            }
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("note: no AVX2 on this host; AVX2 baseline kernel not checked");
        }
        #[cfg(not(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64"))))]
        eprintln!("note: no vector kernel compiled in; only the scalar loop ran");
    }

    /// Hits as `(index, dist_sq bits)`, so distances compare bit for
    /// bit.
    fn bits(out: &[Neighbor]) -> Vec<(u32, u32)> {
        out.iter().map(|n| (n.index, n.dist_sq.to_bits())).collect()
    }

    /// An empty hit buffer whose spare capacity holds poison pairs, so
    /// a kernel that exposes a pair it did not write reports garbage.
    #[cfg(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn poisoned() -> Vec<Neighbor> {
        let mut out = vec![
            Neighbor {
                index: u32::MAX,
                dist_sq: f32::NAN,
            };
            4096
        ];
        out.clear();
        out
    }
}
