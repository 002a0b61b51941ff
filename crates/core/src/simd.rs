//! Vectorized compressed (Bonsai) leaf sweep.
//!
//! The hardware `SQDWE` instruction evaluates the f16-approximate
//! squared distance *and* the Eq. 11 error accumulation across many
//! lanes at once; this module reproduces that split in software over
//! the leaf-relative binary16 SoA rows (6 B per slot) a
//! [`BonsaiTree`](crate::BonsaiTree) keeps as its only copy of the
//! leaves: each half is `f16(p − o)` against its leaf's origin `o`, so
//! the query is translated once per leaf visit (`q − o`, broadcast to
//! the lanes) and every lane then works in the leaf's frame.
//!
//! # Kernels
//!
//! [`sweep_compressed_visited`] dispatches one query's whole visit list
//! to one of three kernels ([`compressed_sweep_kernel`]), and
//! [`compressed_hit_masks`] one leaf and a block of queries (the leaf
//! decoded once, one slot mask per query). Leaves are packed (no
//! padding follows a leaf's last slot), so each kernel finishes its own
//! tail and reads nothing past `start + count`:
//!
//! * **AVX-512** (F + BW + VL, with F16C; [`LaneBackend::Avx512`]): one
//!   16-lane group covers a whole ≤16-point leaf. Each row loads with
//!   a masked 16-bit load of exactly the leaf's `count` halves. The
//!   halves decode with `vcvtph2ps` on zmm, classification lands in
//!   `__mmask16` masks, and conclusive hits leave through
//!   `vpcompressd` / `vcompressps` and one `vpermt2d` interleave per 8
//!   hits.
//! * **AVX2** (with F16C; [`LaneBackend::Avx2`]): 8 halves per row with
//!   one 128-bit load; a leaf's last, partial group instead copies its
//!   live halves into a zeroed 8-half stack group per row, and its dead
//!   lanes are masked out of classification. Hits leave through the
//!   shared shuffle-table compaction
//!   (`bonsai_kdtree::simd::compact_hits_avx2`), which loads only the
//!   hit lanes' `vind` entries.
//! * **Scalar** ([`sweep_scalar`]): the reference loop, run per point
//!   through [`candidate_hit`] — everywhere else.
//!
//! Each vector kernel writes its lane arithmetic once: `load_group`
//! decodes a group of halves and `classify_group` runs Eq. 9/11/12 on
//! it for one query, and both the sweep and the leaf block call them.
//!
//! Both vector kernels decode exactly (every lane sees the `f32` value
//! the scalar [`Half::to_f32`] decode yields) and take each lane's
//! exponent field straight from bits 10..14 of its half. They
//! vectorize the whole conclusive path — `d′²`, the three `|A − B′|`
//! magnitudes, the [`PartErrorMem`] coefficients (synthesized
//! in-register from the f16 exponent fields: every ROM entry is an
//! exact power of two, verified bit-for-bit against
//! [`lookup`](PartErrorMem::lookup) by `synthesized_rom_matches_lut`),
//! the Eq. 11 sum and the Eq. 12 shell comparisons — while
//! inconclusive ([`Recompute`](ShellClass::Recompute)) lanes drop to
//! the scalar exact fallback, lane by lane in ascending slot order.
//! Every lane evaluates the same `f32` expressions in the same order
//! as the scalar loop (no FMA contraction), so membership, `dist_sq`
//! bits, hit order and stats are bit-identical to the instrumented
//! SQDWE processor whichever kernel runs (`kernels_agree_bit_for_bit`
//! calls each compiled kernel directly).
//!
//! Narrower backends (SSE2/NEON) lack the compaction and 8-wide
//! integer lanes these kernels lean on; measured against the scalar
//! loop, spilling the lane registers so a scalar tail can classify
//! costs more than the arithmetic it saves, so the compressed sweep
//! runs the scalar kernel on them (the baseline sweep still
//! vectorizes there — its inner loop has no table work).

use bonsai_floatfmt::{Half, PartErrorMem};
use bonsai_geom::Point3;
use bonsai_kdtree::simd::{active_backend, LaneBackend, LeafVisit, BLOCK_SLOTS};
use bonsai_kdtree::{KdTree, Neighbor, Node, SearchStats};

use crate::shell::{classify, ShellClass};

/// What a compressed sweep reads: the f16 leaf rows, the slot → cloud
/// index map, the original points (for exact fallbacks) and the node
/// pool (for each visited leaf's origin).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HalfRows<'a> {
    pub(crate) x: &'a [u16],
    pub(crate) y: &'a [u16],
    pub(crate) z: &'a [u16],
    pub(crate) vind: &'a [u32],
    pub(crate) points: &'a [Point3],
    pub(crate) nodes: &'a [Node],
}

impl<'a> HalfRows<'a> {
    /// The rows of an f16-row tree.
    pub(crate) fn of(tree: &'a KdTree) -> HalfRows<'a> {
        let (x, y, z) = tree.leaf_halves();
        HalfRows {
            x,
            y,
            z,
            vind: tree.vind(),
            points: tree.points(),
            nodes: tree.nodes(),
        }
    }

    /// The origin leaf `leaf`'s halves are relative to.
    #[inline]
    fn origin(&self, leaf: u32) -> Point3 {
        match self.nodes[leaf as usize] {
            Node::Leaf { origin, .. } => origin,
            Node::Interior { .. } => Point3::ZERO,
        }
    }

    /// The number of slots every row (and `vind`) covers.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    fn slots(&self) -> usize {
        self.x
            .len()
            .min(self.y.len())
            .min(self.z.len())
            .min(self.vind.len())
    }
}

/// The kernel the compressed sweep runs under the active backend:
/// AVX-512 and AVX2 run their own kernels; SSE2, NEON and scalar
/// builds run the scalar one.
pub(crate) fn compressed_sweep_kernel() -> LaneBackend {
    match active_backend() {
        LaneBackend::Avx512 => LaneBackend::Avx512,
        LaneBackend::Avx2 => LaneBackend::Avx2,
        LaneBackend::Sse2 | LaneBackend::Neon | LaneBackend::Scalar => LaneBackend::Scalar,
    }
}

/// One half's exact `f32` value and its exponent field: what a lane
/// decode yields per slot.
#[inline(always)]
fn decode(h: u16) -> (f32, u8) {
    let h = Half::from_bits(h);
    (h.to_f32(), h.exponent_field())
}

/// One candidate's scalar classification — Eq. 9/11/12 over its
/// decoded halves `a` (value, exponent field per axis) and the query
/// `q` in the leaf's frame, then the exact fallback when the shell is
/// inconclusive. Returns the distance a sweep reports for the
/// candidate, or `None` when it is out of radius. The scalar sweep and
/// the scalar leaf block run it per slot; a SIMD kernel's lanes must
/// reproduce it exactly.
#[allow(clippy::too_many_arguments)] // the flattened per-lane state
#[inline]
fn candidate_hit(
    q: Point3,
    a: [(f32, u8); 3],
    idx: u32,
    points: &[Point3],
    lut: &PartErrorMem,
    query: Point3,
    r_sq: f32,
    stats: &mut SearchStats,
) -> Option<f32> {
    let dx = q.x - a[0].0;
    let dy = q.y - a[1].0;
    let dz = q.z - a[2].0;
    let d_sq = dx * dx + dy * dy + dz * dz;
    let t_err = lut.max_squared_difference_error(dx.abs(), a[0].1)
        + lut.max_squared_difference_error(dy.abs(), a[1].1)
        + lut.max_squared_difference_error(dz.abs(), a[2].1);
    match classify(d_sq, t_err, r_sq) {
        ShellClass::In => Some(d_sq),
        ShellClass::Out => None,
        ShellClass::Recompute => exact_hit(idx, points, query, r_sq, stats),
    }
}

/// The exact `f32` fallback of one inconclusive candidate (Eq. 3 over
/// the original point), shared by the scalar tail and the SIMD
/// kernels' masked fallback lanes: the exact `d²` when it is within
/// `r²`.
#[inline]
fn exact_hit(
    idx: u32,
    points: &[Point3],
    query: Point3,
    r_sq: f32,
    stats: &mut SearchStats,
) -> Option<f32> {
    stats.fallbacks += 1;
    stats.point_bytes_loaded += 12;
    let exact = points[idx as usize].distance_squared(query);
    (exact <= r_sq).then_some(exact)
}

/// Compressed sweep of a query's collected leaf visits over `rows`
/// (each `(leaf, start, count)`, swept in order with the query
/// translated by the leaf's origin). The whole visit list runs through
/// **one** kernel dispatch ([`compressed_sweep_kernel`]) with the lane
/// constants hoisted. Hits append to `out`; only exact fallbacks count
/// into `stats` (the caller counts the inspection work).
#[inline]
pub(crate) fn sweep_compressed_visited(
    rows: HalfRows<'_>,
    lut: &PartErrorMem,
    visited: &[LeafVisit],
    query: Point3,
    r_sq: f32,
    out: &mut Vec<Neighbor>,
    stats: &mut SearchStats,
) {
    match compressed_sweep_kernel() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        kernel @ (LaneBackend::Avx512 | LaneBackend::Avx2) => {
            let slots = rows.slots();
            for &(_, start, count) in visited {
                // lint: allow(debug-assert-discipline) — this assert
                // *is* the bounds contract of the unsafe kernels below;
                // eliding it in release builds would turn a baking bug
                // into UB.
                assert!(
                    start as usize + count as usize <= slots,
                    "compressed sweep past the f16 rows: start {start} count {count} rows {slots}"
                );
            }
            // SAFETY: every visit's live range was asserted within the
            // rows and `vind` above; the kernel's features (AVX-512
            // F/BW/VL or AVX2, with F16C) were established by the
            // backend detection.
            unsafe {
                if kernel == LaneBackend::Avx512 {
                    avx512::sweep(&rows, visited, query, r_sq, out, stats)
                } else {
                    avx2::sweep(&rows, visited, query, r_sq, out, stats)
                }
            }
        }
        _ => sweep_scalar(&rows, lut, visited, query, r_sq, out, stats),
    }
}

/// The compressed leaf block: for each query, the mask of the slots of
/// `leaf` (bit `j` for slot `start + j`) that
/// [`sweep_compressed_visited`] of that leaf with that query reports,
/// written to the matching entry of `masks`. The kernel decodes the
/// leaf's halves once for the whole block, then runs the same per-group
/// Eq. 9/11/12 arithmetic and exact fallbacks per query as the sweep —
/// same membership, same fallbacks (counted into `stats`), whichever
/// kernel runs.
///
/// # Panics
///
/// Panics when the leaf holds more than [`BLOCK_SLOTS`] slots or lies
/// outside the rows, or when `masks` and `queries` differ in length.
pub(crate) fn compressed_hit_masks(
    rows: HalfRows<'_>,
    lut: &PartErrorMem,
    leaf: LeafVisit,
    queries: &[Point3],
    r_sq: f32,
    masks: &mut [u32],
    stats: &mut SearchStats,
) {
    let count = leaf.2;
    // lint: allow(debug-assert-discipline) — this assert *is* the
    // width contract of the unsafe block kernels below (and a short
    // `masks` would leave queries unanswered); eliding it in release
    // builds would turn a baking bug into UB.
    assert!(
        count as usize <= BLOCK_SLOTS && masks.len() == queries.len(),
        "compressed leaf block of {count} slots (at most {BLOCK_SLOTS}), {} masks for {} queries",
        masks.len(),
        queries.len()
    );
    match compressed_sweep_kernel() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        kernel @ (LaneBackend::Avx512 | LaneBackend::Avx2) => {
            let (slots, start) = (rows.slots(), leaf.1);
            // lint: allow(debug-assert-discipline) — as above; the
            // scalar kernel indexes its slices instead.
            assert!(
                start as usize + count as usize <= slots,
                "compressed leaf block past the f16 rows: start {start} count {count} rows {slots}"
            );
            // SAFETY: the leaf's live range was asserted within the rows
            // and `vind`, and at most `BLOCK_SLOTS` wide, above; the
            // kernel's features (AVX-512 F/BW/VL or AVX2, with F16C)
            // were established by the backend detection.
            unsafe {
                if kernel == LaneBackend::Avx512 {
                    avx512::hit_masks(&rows, leaf, queries, r_sq, masks, stats)
                } else {
                    avx2::hit_masks(&rows, leaf, queries, r_sq, masks, stats)
                }
            }
        }
        _ => hit_masks_scalar(&rows, lut, leaf, queries, r_sq, masks, stats),
    }
}

/// The scalar reference kernel (also the no-`simd` build): slice
/// windows hoisted to one exact length per leaf so the loop body
/// indexes without bounds checks; each half decodes exactly to its
/// `f32`.
fn sweep_scalar(
    rows: &HalfRows<'_>,
    lut: &PartErrorMem,
    visited: &[LeafVisit],
    query: Point3,
    r_sq: f32,
    out: &mut Vec<Neighbor>,
    stats: &mut SearchStats,
) {
    for &(leaf, start, count) in visited {
        let q = query - rows.origin(leaf);
        let (start, count) = (start as usize, count as usize);
        let ax = &rows.x[start..start + count];
        let ay = &rows.y[start..start + count];
        let az = &rows.z[start..start + count];
        let vw = &rows.vind[start..start + count];
        for i in 0..count {
            let a = [decode(ax[i]), decode(ay[i]), decode(az[i])];
            if let Some(dist_sq) = candidate_hit(q, a, vw[i], rows.points, lut, query, r_sq, stats)
            {
                out.push(Neighbor {
                    index: vw[i],
                    dist_sq,
                });
            }
        }
    }
}

/// The scalar leaf block: the leaf's halves decode once, then
/// [`candidate_hit`] runs per (query, slot).
fn hit_masks_scalar(
    rows: &HalfRows<'_>,
    lut: &PartErrorMem,
    (leaf, start, count): LeafVisit,
    queries: &[Point3],
    r_sq: f32,
    masks: &mut [u32],
    stats: &mut SearchStats,
) {
    let (start, count) = (start as usize, count as usize);
    let mut a = [[(0.0f32, 0u8); 3]; BLOCK_SLOTS];
    for (j, slot) in a[..count].iter_mut().enumerate() {
        let i = start + j;
        *slot = [decode(rows.x[i]), decode(rows.y[i]), decode(rows.z[i])];
    }
    let vw = &rows.vind[start..start + count];
    let origin = rows.origin(leaf);
    for (&query, mask) in queries.iter().zip(masks) {
        let q = query - origin;
        let mut m = 0u32;
        for j in 0..count {
            let hit = candidate_hit(q, a[j], vw[j], rows.points, lut, query, r_sq, stats);
            m |= u32::from(hit.is_some()) << j;
        }
        *mask = m;
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use super::*;
    use crate::shell::{SHELL_SLACK_ULPS, T_ERR_WIDEN};
    use core::arch::x86_64::*;

    /// The lane constants of one sweep or block, broadcast once.
    #[derive(Clone, Copy)]
    struct Consts {
        rs: __m256,
        abs_mask: __m256,
        slack_coef: __m256,
        widen: __m256,
    }

    impl Consts {
        #[target_feature(enable = "avx2")]
        #[inline]
        fn new(r_sq: f32) -> Consts {
            Consts {
                rs: _mm256_set1_ps(r_sq),
                abs_mask: _mm256_set1_ps(f32::from_bits(0x7FFF_FFFF)),
                // `16 · ε` is a power of two, so pre-multiplying it is
                // exact and the per-lane `slack` bits match the scalar
                // `SHELL_SLACK_ULPS * f32::EPSILON * max(d′², r²)`.
                slack_coef: _mm256_set1_ps(SHELL_SLACK_ULPS * f32::EPSILON),
                widen: _mm256_set1_ps(T_ERR_WIDEN),
            }
        }
    }

    /// One decoded 8-lane group: per axis the halves' `f32` values and
    /// exponent fields, and the live-lane bits (all 8, or the leaf's
    /// tail).
    #[derive(Clone, Copy)]
    struct Group {
        ax: __m256,
        ay: __m256,
        az: __m256,
        ix: __m256i,
        iy: __m256i,
        iz: __m256i,
        live: u32,
    }

    /// Loads and decodes the `live` slots `base..base + live`. A full
    /// group loads straight from the rows; a leaf's partial tail group
    /// is copied into zeroed stack halves first, so nothing past the
    /// leaf is read.
    ///
    /// # Safety
    ///
    /// `base..base + live` must lie within every f16 row, `live` must
    /// be in `1..=8`, and AVX2 and F16C must be available.
    #[target_feature(enable = "avx2,f16c")]
    #[inline]
    unsafe fn load_group(rows: &HalfRows<'_>, base: usize, live: usize) -> Group {
        let group = |row: &[u16]| -> __m128i {
            if live == 8 {
                // SAFETY: `base..base + 8` lies within the row per the
                // caller's contract.
                unsafe { _mm_loadu_si128(row.as_ptr().add(base).cast()) }
            } else {
                let mut tail = [0u16; 8];
                tail[..live].copy_from_slice(&row[base..base + live]);
                // SAFETY: `tail` holds the 8 halves of the load.
                unsafe { _mm_loadu_si128(tail.as_ptr().cast()) }
            }
        };
        // SAFETY: `decode_lanes` is register-only and needs AVX2 + F16C,
        // enabled here.
        let ((ax, ix), (ay, iy), (az, iz)) = unsafe {
            (
                decode_lanes(group(rows.x)),
                decode_lanes(group(rows.y)),
                decode_lanes(group(rows.z)),
            )
        };
        Group {
            ax,
            ay,
            az,
            ix,
            iy,
            iz,
            live: 0xFF >> (8 - live),
        }
    }

    /// Eq. 9/11/12 on one decoded group against the query `(qx, qy,
    /// qz)` in the leaf's frame — the one place the AVX2 kernels write
    /// the lane arithmetic, shared by the sweep and the leaf block.
    /// Returns the approximate distances `d′²`, the conclusive-In lanes
    /// and the candidate lanes (In or inconclusive), both live-masked:
    /// a candidate that is not In re-computes exactly.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn classify_group(
        c: &Consts,
        g: &Group,
        qx: __m256,
        qy: __m256,
        qz: __m256,
    ) -> (__m256, u32, u32) {
        // Same arithmetic, same order as the scalar loop and the SQDWE
        // lanes: diff from the exactly decoded f16 coordinate (query −
        // approx), then (dx² + dy²) + dz² — no FMA.
        let dx = _mm256_sub_ps(qx, g.ax);
        let dy = _mm256_sub_ps(qy, g.ay);
        let dz = _mm256_sub_ps(qz, g.az);
        let d = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
            _mm256_mul_ps(dz, dz),
        );
        // Eq. 9 per coordinate with in-register ROM synthesis: the
        // `part_error_mem` entries are all exact powers of two
        // (`two_max_delta[e] = 2^(max(e,1)−25)`, `max_delta_sq[e] =
        // 2^(2·max(e,1)−52)`), so each lane builds them by exponent-field bit
        // arithmetic instead of a memory gather — bit-identical to
        // the ROM (asserted by `synthesized_rom_matches_lut`), an
        // order of magnitude cheaper than `vgatherdps`. Then
        // `two_max_delta · |A − B′| + max_delta_sq`, accumulated
        // x → y → z like the scalar sum. The overflow row `e = 31`
        // (infinite in the ROM) needs no patch: such a half decodes
        // to ±∞ or NaN, so its `|A − B′|` — hence `t_err` and the
        // shell half-width — is non-finite, which fails both
        // ordered compares below exactly like the scalar
        // classify's forced Recompute.
        // SAFETY: `part_error_lanes` is register-only and needs only
        // AVX2, enabled here.
        let t_err = unsafe {
            _mm256_add_ps(
                _mm256_add_ps(
                    part_error_lanes(g.ix, _mm256_and_ps(dx, c.abs_mask)),
                    part_error_lanes(g.iy, _mm256_and_ps(dy, c.abs_mask)),
                ),
                part_error_lanes(g.iz, _mm256_and_ps(dz, c.abs_mask)),
            )
        };
        // Eq. 12 with the documented translation widening and f32
        // slack, `t_err · T_ERR_WIDEN + slack` like the scalar
        // classify. `max_ps(d, rs)` returns its second operand on a NaN
        // `d`, matching Rust's `f32::max`; non-finite `t` fails both
        // ordered compares, which is exactly the scalar classify's
        // forced Recompute.
        let t = _mm256_add_ps(
            _mm256_mul_ps(t_err, c.widen),
            _mm256_mul_ps(c.slack_coef, _mm256_max_ps(d, c.rs)),
        );
        let m_in =
            _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(d, _mm256_sub_ps(c.rs, t))) as u32;
        let m_out =
            _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(d, _mm256_add_ps(c.rs, t))) as u32;
        // Lanes past the count are clipped by the live mask.
        let m_in = m_in & g.live;
        (d, m_in, (m_in | !m_out) & g.live)
    }

    /// # Safety
    ///
    /// Caller guarantees every visit's live range `start..start +
    /// count` is within every f16 row and `vind`, and that AVX2 and
    /// F16C are available.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) unsafe fn sweep(
        rows: &HalfRows<'_>,
        visited: &[LeafVisit],
        query: Point3,
        r_sq: f32,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        let (vind, points) = (rows.vind, rows.points);
        let c = Consts::new(r_sq);
        for &(leaf, start, count) in visited {
            // The query in the leaf's frame: one subtract per axis per
            // visit, the scalar `query − origin` bits broadcast.
            let q = query - rows.origin(leaf);
            let (qx, qy, qz) = (
                _mm256_set1_ps(q.x),
                _mm256_set1_ps(q.y),
                _mm256_set1_ps(q.z),
            );
            let (start, count) = (start as usize, count as usize);
            let mut g = 0;
            while g < count {
                let base = start + g;
                // SAFETY: `base..base + live` lies within the leaf's live
                // range, inside every row per the caller's contract;
                // `classify_group` is register-only and needs AVX2, and
                // both need only the features enabled here.
                let (d, m_in, mut cand) = unsafe {
                    let group = load_group(rows, base, (count - g).min(8));
                    classify_group(&c, &group, qx, qy, qz)
                };
                // Conclusive-In lanes push their approximate distance;
                // lanes that are neither In nor Out re-compute exactly —
                // all in ascending slot order.
                if cand & !m_in == 0 {
                    // The common shape (~99.6 % of points classify
                    // conclusively): every candidate is a conclusive In,
                    // so the whole group compacts with vector stores.
                    if m_in != 0 {
                        // SAFETY: `m_in` is live-masked to 8 bits, so
                        // every hit lane's slot is within the leaf's
                        // live range and `vind`; AVX2 is enabled on
                        // this fn.
                        unsafe {
                            bonsai_kdtree::simd::compact_hits_avx2(
                                vind.as_ptr(),
                                base,
                                d,
                                m_in,
                                out,
                            );
                        }
                    }
                } else {
                    let mut dv = [0.0f32; 8];
                    // SAFETY: `dv` is an 8-float stack buffer sized
                    // for the full-register store.
                    unsafe {
                        _mm256_storeu_ps(dv.as_mut_ptr(), d);
                    }
                    while cand != 0 {
                        let j = cand.trailing_zeros() as usize;
                        let idx = vind[base + j];
                        let hit = if m_in & (1 << j) != 0 {
                            Some(dv[j])
                        } else {
                            super::exact_hit(idx, points, query, r_sq, stats)
                        };
                        if let Some(dist_sq) = hit {
                            out.push(Neighbor {
                                index: idx,
                                dist_sq,
                            });
                        }
                        cand &= cand - 1;
                    }
                }
                g += 8;
            }
        }
    }

    /// The AVX2 leaf block: the leaf's at most two 8-lane groups load
    /// and decode once, then every query runs [`classify_group`] on each
    /// and re-computes its inconclusive lanes exactly.
    ///
    /// # Safety
    ///
    /// Caller guarantees the leaf's live range `start..start + count`
    /// is within every f16 row and `vind`, `count ≤ BLOCK_SLOTS`, and
    /// that AVX2 and F16C are available.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) unsafe fn hit_masks(
        rows: &HalfRows<'_>,
        (leaf, start, count): LeafVisit,
        queries: &[Point3],
        r_sq: f32,
        masks: &mut [u32],
        stats: &mut SearchStats,
    ) {
        let (start, count) = (start as usize, count as usize);
        if count == 0 {
            masks.fill(0);
            return;
        }
        let c = Consts::new(r_sq);
        // SAFETY: each group's live slots lie within the leaf, inside
        // every row per the caller's contract (a one-group leaf repeats
        // its group with no live lane); the features are enabled here.
        let groups = unsafe {
            let first = load_group(rows, start, count.min(8));
            if count > 8 {
                [first, load_group(rows, start + 8, count - 8)]
            } else {
                [first, Group { live: 0, ..first }]
            }
        };
        let origin = rows.origin(leaf);
        for (&query, mask) in queries.iter().zip(masks) {
            let q = query - origin;
            let (qx, qy, qz) = (
                _mm256_set1_ps(q.x),
                _mm256_set1_ps(q.y),
                _mm256_set1_ps(q.z),
            );
            let mut m = 0u32;
            for (k, group) in groups.iter().enumerate() {
                // SAFETY: `classify_group` is register-only and needs
                // AVX2, enabled here.
                let (_, m_in, cand) = unsafe { classify_group(&c, group, qx, qy, qz) };
                let mut recompute = cand & !m_in;
                let mut hits = m_in;
                while recompute != 0 {
                    let j = recompute.trailing_zeros();
                    let idx = rows.vind[start + 8 * k + j as usize];
                    let hit = super::exact_hit(idx, rows.points, query, r_sq, stats);
                    hits |= u32::from(hit.is_some()) << j;
                    recompute &= recompute - 1;
                }
                m |= hits << (8 * k);
            }
            *mask = m;
        }
    }

    /// Decodes 8 binary16 bit patterns in-register: their `f32` values
    /// (F16C `vcvtph2ps`, exact like
    /// [`Half::to_f32`](bonsai_floatfmt::Half::to_f32)) and their
    /// exponent fields `(h >> 10) & 31`, one per 32-bit lane — the bits
    /// [`Half::exponent_field`](bonsai_floatfmt::Half::exponent_field)
    /// reads. Checked over all 65 536 patterns by
    /// `decode_lanes_matches_half_for_every_pattern`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    #[inline]
    pub(super) unsafe fn decode_lanes(h: __m128i) -> (__m256, __m256i) {
        let e = _mm256_srli_epi32::<10>(_mm256_cvtepu16_epi32(h));
        (
            _mm256_cvtph_ps(h),
            _mm256_and_si256(e, _mm256_set1_epi32(31)),
        )
    }

    /// One coordinate's Eq. 9 term for 8 lanes, with the ROM entries
    /// synthesized from the exponent fields:
    /// `2^(max(e,1)−25) · adiff + 2^(2·max(e,1)−52)` — float-bit
    /// construction of exact powers of two, so the products and sums
    /// are bit-identical to the LUT path for every conclusive row (on
    /// the ∞ row 31 the lane's `adiff` is itself non-finite).
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn part_error_lanes(e: __m256i, adiff: __m256) -> __m256 {
        let ec = _mm256_max_epi32(e, _mm256_set1_epi32(1));
        // two_max_delta = 2^(ec − 25): float bits ((ec + 102) << 23).
        let two = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            ec,
            _mm256_set1_epi32(102),
        )));
        // max_delta_sq = 2^(2·ec − 52): float bits ((2·ec + 75) << 23).
        let sq = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_add_epi32(ec, ec),
            _mm256_set1_epi32(75),
        )));
        _mm256_add_ps(_mm256_mul_ps(two, adiff), sq)
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx512 {
    use super::*;
    use crate::shell::{SHELL_SLACK_ULPS, T_ERR_WIDEN};
    use core::arch::x86_64::*;

    /// Lanes per group: one ZipPts buffer, a whole default-size leaf.
    const LANES: usize = 16;

    /// The lane constants of one sweep or block, broadcast once.
    #[derive(Clone, Copy)]
    struct Consts {
        rs: __m512,
        slack_coef: __m512,
        widen: __m512,
    }

    impl Consts {
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn new(r_sq: f32) -> Consts {
            Consts {
                rs: _mm512_set1_ps(r_sq),
                // `16 · ε` is a power of two, so pre-multiplying it is
                // exact (see the AVX2 kernel).
                slack_coef: _mm512_set1_ps(SHELL_SLACK_ULPS * f32::EPSILON),
                widen: _mm512_set1_ps(T_ERR_WIDEN),
            }
        }
    }

    /// One decoded 16-lane group: per axis the halves' `f32` values and
    /// exponent fields, and its live lanes (all 16, or the leaf's tail).
    #[derive(Clone, Copy)]
    struct Group {
        ax: __m512,
        ay: __m512,
        az: __m512,
        ix: __m512i,
        iy: __m512i,
        iz: __m512i,
        live: __mmask16,
    }

    /// Loads and decodes the live slots of the group at `base`: each row
    /// with a masked 16-bit load of exactly the `live` lanes.
    ///
    /// # Safety
    ///
    /// Every slot of `live` (lane `j` is slot `base + j`) must lie
    /// within every f16 row, and AVX-512 F, BW and VL and F16C must be
    /// available.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,f16c")]
    #[inline]
    unsafe fn load_group(rows: &HalfRows<'_>, base: usize, live: __mmask16) -> Group {
        let (px, py, pz) = (rows.x.as_ptr(), rows.y.as_ptr(), rows.z.as_ptr());
        // SAFETY: the masked loads touch only the `live` slots, within
        // every f16 row per the caller's contract (masked-off lanes are
        // neither read nor faulted on, and load as zero);
        // `decode_lanes` is register-only and needs the features
        // enabled here.
        let ((ax, ix), (ay, iy), (az, iz)) = unsafe {
            (
                decode_lanes(_mm256_maskz_loadu_epi16(live, px.add(base).cast())),
                decode_lanes(_mm256_maskz_loadu_epi16(live, py.add(base).cast())),
                decode_lanes(_mm256_maskz_loadu_epi16(live, pz.add(base).cast())),
            )
        };
        Group {
            ax,
            ay,
            az,
            ix,
            iy,
            iz,
            live,
        }
    }

    /// Eq. 9/11/12 on one decoded group against the query `(qx, qy,
    /// qz)` in the leaf's frame — the one place the AVX-512 kernels
    /// write the lane arithmetic, shared by the sweep and the leaf
    /// block. Returns the approximate distances `d′²`, the conclusive-In
    /// lanes and the candidate lanes (In or inconclusive), both
    /// live-masked.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn classify_group(
        c: &Consts,
        g: &Group,
        qx: __m512,
        qy: __m512,
        qz: __m512,
    ) -> (__m512, __mmask16, __mmask16) {
        // The AVX2 kernel's expressions, in its order: diffs from the
        // decoded halves, (dx² + dy²) + dz², no FMA.
        let dx = _mm512_sub_ps(qx, g.ax);
        let dy = _mm512_sub_ps(qy, g.ay);
        let dz = _mm512_sub_ps(qz, g.az);
        let d = _mm512_add_ps(
            _mm512_add_ps(_mm512_mul_ps(dx, dx), _mm512_mul_ps(dy, dy)),
            _mm512_mul_ps(dz, dz),
        );
        // Eq. 9 per coordinate with the ROM synthesized from the
        // exponent fields, accumulated x → y → z (Eq. 11).
        // SAFETY: `part_error_lanes` is register-only and needs only
        // AVX-512F, enabled here.
        let t_err = unsafe {
            _mm512_add_ps(
                _mm512_add_ps(
                    part_error_lanes(g.ix, _mm512_abs_ps(dx)),
                    part_error_lanes(g.iy, _mm512_abs_ps(dy)),
                ),
                part_error_lanes(g.iz, _mm512_abs_ps(dz)),
            )
        };
        // Eq. 12, widened like the scalar classify; `max_ps` returns
        // `rs` on a NaN `d` like Rust's `f32::max`, and a non-finite `t`
        // fails both ordered compares (Recompute).
        let t = _mm512_add_ps(
            _mm512_mul_ps(t_err, c.widen),
            _mm512_mul_ps(c.slack_coef, _mm512_max_ps(d, c.rs)),
        );
        let m_in = _mm512_mask_cmp_ps_mask::<_CMP_LE_OQ>(g.live, d, _mm512_sub_ps(c.rs, t));
        let m_out = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(d, _mm512_add_ps(c.rs, t));
        (d, m_in, (m_in | !m_out) & g.live)
    }

    /// # Safety
    ///
    /// Caller guarantees every visit's live range `start..start +
    /// count` is within every f16 row and `vind`, and that AVX-512 F,
    /// BW and VL and F16C are available.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,f16c")]
    pub(super) unsafe fn sweep(
        rows: &HalfRows<'_>,
        visited: &[LeafVisit],
        query: Point3,
        r_sq: f32,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        let (vind, points) = (rows.vind, rows.points);
        let c = Consts::new(r_sq);
        for &(leaf, start, count) in visited {
            let q = query - rows.origin(leaf);
            let (qx, qy, qz) = (
                _mm512_set1_ps(q.x),
                _mm512_set1_ps(q.y),
                _mm512_set1_ps(q.z),
            );
            let (start, count) = (start as usize, count as usize);
            let mut g = 0;
            while g < count {
                let base = start + g;
                // The group's live lanes: all 16, or the leaf's tail.
                let live = ((1u32 << (count - g).min(LANES)) - 1) as __mmask16;
                // SAFETY: the `live` slots `base..start + count` lie
                // within every f16 row per the caller's contract;
                // `classify_group` is register-only, and both need only
                // the features enabled here.
                let (d, m_in, mut cand) = unsafe {
                    let group = load_group(rows, base, live);
                    classify_group(&c, &group, qx, qy, qz)
                };
                if cand & !m_in == 0 {
                    // Every candidate is a conclusive In (~99.6 % of
                    // points classify conclusively). Compacting an empty
                    // mask writes nothing visible, and is cheaper than a
                    // mispredicted test for it.
                    // SAFETY: `m_in ⊆ live`, so the compaction reads only
                    // live `vind` slots; the features are enabled on this
                    // fn.
                    unsafe { compact_hits(vind.as_ptr().add(base), d, m_in, out) }
                } else {
                    let mut dv = [0.0f32; LANES];
                    // SAFETY: `dv` is a 16-float stack buffer sized for
                    // the full-register store.
                    unsafe { _mm512_storeu_ps(dv.as_mut_ptr(), d) }
                    while cand != 0 {
                        let j = cand.trailing_zeros() as usize;
                        let idx = vind[base + j];
                        let hit = if m_in & (1 << j) != 0 {
                            Some(dv[j])
                        } else {
                            super::exact_hit(idx, points, query, r_sq, stats)
                        };
                        if let Some(dist_sq) = hit {
                            out.push(Neighbor {
                                index: idx,
                                dist_sq,
                            });
                        }
                        cand &= cand - 1;
                    }
                }
                g += LANES;
            }
        }
    }

    /// The AVX-512 leaf block: the leaf — one ZipPts buffer, a single
    /// 16-lane group — loads and decodes once, then every query runs
    /// [`classify_group`] and re-computes its inconclusive lanes
    /// exactly.
    ///
    /// # Safety
    ///
    /// Caller guarantees the leaf's live range `start..start + count`
    /// is within every f16 row and `vind`, `count ≤ BLOCK_SLOTS`, and
    /// that AVX-512 F, BW and VL and F16C are available.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,f16c")]
    pub(super) unsafe fn hit_masks(
        rows: &HalfRows<'_>,
        (leaf, start, count): LeafVisit,
        queries: &[Point3],
        r_sq: f32,
        masks: &mut [u32],
        stats: &mut SearchStats,
    ) {
        let (start, count) = (start as usize, count as usize);
        let c = Consts::new(r_sq);
        let live = ((1u32 << count) - 1) as __mmask16;
        // SAFETY: the `live` slots are the leaf's, within every f16 row
        // per the caller's contract (`count ≤ 16`, so one group covers
        // the leaf); the features are enabled here.
        let group = unsafe { load_group(rows, start, live) };
        let origin = rows.origin(leaf);
        for (&query, mask) in queries.iter().zip(masks) {
            let q = query - origin;
            // SAFETY: `classify_group` is register-only and needs only
            // AVX-512F, enabled here.
            let (_, m_in, cand) = unsafe {
                classify_group(
                    &c,
                    &group,
                    _mm512_set1_ps(q.x),
                    _mm512_set1_ps(q.y),
                    _mm512_set1_ps(q.z),
                )
            };
            let mut recompute = cand & !m_in;
            let mut hits = u32::from(m_in);
            while recompute != 0 {
                let j = recompute.trailing_zeros();
                let idx = rows.vind[start + j as usize];
                let hit = super::exact_hit(idx, rows.points, query, r_sq, stats);
                hits |= u32::from(hit.is_some()) << j;
                recompute &= recompute - 1;
            }
            *mask = hits;
        }
    }

    /// Emits one group's conclusive hits in ascending lane order: the
    /// hit lanes' `vind` entries (a masked load of just those lanes)
    /// and distances compress to the front of two registers
    /// (`vpcompressd` / `vcompressps`), one `vpermt2d` per 8 hits
    /// interleaves them into `(index, dist_sq)` pairs — `Neighbor`'s
    /// `repr(C)` layout — and whole-register stores write them (only
    /// the first `popcount(mask)` pairs become visible via `set_len`).
    ///
    /// # Safety
    ///
    /// `vind.add(j)` must be readable for every set bit `j` of `mask`,
    /// and AVX-512F must be available.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn compact_hits(vind: *const u32, d: __m512, mask: __mmask16, out: &mut Vec<Neighbor>) {
        let hits = mask.count_ones() as usize;
        // SAFETY: the masked load reads only the lanes of `mask`, which
        // the contract makes readable.
        let iv = unsafe { _mm512_maskz_loadu_epi32(mask, vind.cast()) };
        let ic = _mm512_maskz_compress_epi32(mask, iv);
        let dc = _mm512_castps_si512(_mm512_maskz_compress_ps(mask, d));
        out.reserve(LANES);
        let len = out.len();
        // SAFETY: `reserve(16)` guarantees capacity for the two whole
        // 64-byte stores (16 `Neighbor` pairs past `len`); `set_len`
        // exposes only the first `hits ≤ 16` pairs, all initialized by
        // the stores (the second store runs whenever `hits > 8`).
        unsafe {
            let p = out.as_mut_ptr().add(len).cast::<__m512i>();
            let lo = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
            _mm512_storeu_si512(p, _mm512_permutex2var_epi32(ic, lo, dc));
            if hits > 8 {
                let hi =
                    _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);
                _mm512_storeu_si512(p.add(1), _mm512_permutex2var_epi32(ic, hi, dc));
            }
            out.set_len(len + hits);
        }
    }

    /// Decodes 16 binary16 bit patterns in-register: their `f32` values
    /// (`vcvtph2ps` on zmm, exact) and their exponent fields
    /// `(h >> 10) & 31`, one per 32-bit lane — the 16-lane twin of the
    /// AVX2 kernel's decode, checked over all 65 536 patterns by
    /// `decode_lanes_matches_half_for_every_pattern`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(super) unsafe fn decode_lanes(h: __m256i) -> (__m512, __m512i) {
        let e = _mm512_srli_epi32::<10>(_mm512_cvtepu16_epi32(h));
        (
            _mm512_cvtph_ps(h),
            _mm512_and_si512(e, _mm512_set1_epi32(31)),
        )
    }

    /// One coordinate's Eq. 9 term for 16 lanes — the AVX2 kernel's
    /// `2^(max(e,1)−25) · adiff + 2^(2·max(e,1)−52)`, built from float
    /// bits.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn part_error_lanes(e: __m512i, adiff: __m512) -> __m512 {
        let ec = _mm512_max_epi32(e, _mm512_set1_epi32(1));
        let two = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_add_epi32(
            ec,
            _mm512_set1_epi32(102),
        )));
        let sq = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_add_epi32(
            _mm512_add_epi32(ec, ec),
            _mm512_set1_epi32(75),
        )));
        _mm512_add_ps(_mm512_mul_ps(two, adiff), sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-register ROM synthesis of the AVX2 kernel must agree
    /// with `part_error_mem` bit for bit on every conclusive row, and
    /// the overflow row must be non-finite in the LUT. The kernel's
    /// synthesized row 31 is finite, but a half with exponent field 31
    /// decodes to ±∞ or NaN, so the lane's `|A − B′|` and error term
    /// are non-finite and it classifies Recompute exactly like the LUT.
    #[test]
    fn synthesized_rom_matches_lut() {
        let lut = PartErrorMem::new();
        for e in 0u8..=30 {
            let ec = e.max(1) as u32;
            let two = f32::from_bits((ec + 102) << 23);
            let sq = f32::from_bits((2 * ec + 75) << 23);
            let entry = lut.lookup(e);
            assert_eq!(
                two.to_bits(),
                entry.two_max_delta.to_bits(),
                "two row, e {e}"
            );
            assert_eq!(sq.to_bits(), entry.max_delta_sq.to_bits(), "sq row, e {e}");
        }
        assert!(!lut.lookup(31).two_max_delta.is_finite());
        assert!(!lut.lookup(31).max_delta_sq.is_finite());
        // The synthesized row 31 is finite; the lane term is not, for
        // every exponent-31 half (±∞, NaN) against any query coordinate.
        let (two31, sq31) = (
            f32::from_bits((31 + 102) << 23),
            f32::from_bits((2 * 31 + 75) << 23),
        );
        for bits in [0x7C00u16, 0xFC00, 0x7C01, 0xFE00, 0x7FFF] {
            let b = bonsai_floatfmt::Half::from_bits(bits).to_f32();
            for a in [0.0f32, -3.5, 1.0e30, f32::INFINITY, f32::NEG_INFINITY] {
                let term = two31 * (a - b).abs() + sq31;
                assert!(!term.is_finite(), "{bits:#06x} against {a}: {term}");
            }
        }
    }

    /// Hand-built packed f16 rows: leaves of every count 0..=16 plus a
    /// 24-slot visit (two lane groups of the AVX-512 kernel), at a
    /// zero origin and at map offsets, with points spread across the
    /// shell so groups mix In, Out and Recompute lanes, and ±∞ / NaN
    /// halves (exponent field 31) planted in some live slots of the
    /// odd-numbered leaves (even ones stay free of them, so a large
    /// radius makes whole groups of up to 16 conclusive hits). Each
    /// leaf but the last is followed by 16 unvisited gap slots holding
    /// a poison point — the query itself, encoded against that leaf's
    /// origin, its `vind` naming the query point — so a kernel that
    /// classified a lane past a leaf's `count` would report an extra
    /// hit. The rows end right after the last live slot.
    struct Fixture {
        x: Vec<u16>,
        y: Vec<u16>,
        z: Vec<u16>,
        vind: Vec<u32>,
        points: Vec<Point3>,
        nodes: Vec<Node>,
        visits: Vec<LeafVisit>,
        center: Point3,
    }

    impl Fixture {
        fn new(origin_base: Point3, seed: u64) -> Fixture {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f32 / (1u64 << 53) as f32
            };
            let center = origin_base + Point3::new(0.3, -0.2, 0.1);
            let mut f = Fixture {
                x: Vec::new(),
                y: Vec::new(),
                z: Vec::new(),
                vind: Vec::new(),
                points: vec![center],
                nodes: Vec::new(),
                visits: Vec::new(),
                center,
            };
            let specials = [0x7C00u16, 0xFC00, 0x7E00, 0x7C01, 0xFE00];
            let counts: Vec<usize> = (0..=16).chain([24]).collect();
            let mut prev_origin = None;
            for (leaf, &count) in counts.iter().enumerate() {
                let origin = origin_base + Point3::new(leaf as f32 * 0.125, 0.0, -0.25);
                if let Some(o) = prev_origin {
                    let poison = bonsai_kdtree::encode_halves(center, o);
                    for _ in 0..16 {
                        f.x.push(poison[0]);
                        f.y.push(poison[1]);
                        f.z.push(poison[2]);
                        f.vind.push(0);
                    }
                }
                prev_origin = Some(origin);
                let start = f.x.len();
                for i in 0..count {
                    // A direction and a distance from the center: well
                    // inside, on the shell of radius ≈ 0.35 (where f16
                    // rounding leaves the shell inconclusive), or out.
                    let dir = Point3::new(next() - 0.5, next() - 0.5, next() - 0.5);
                    let norm = dir.distance_squared(Point3::ZERO).sqrt().max(1e-3);
                    let dist = match i % 3 {
                        0 => 0.35 * (1.0 + (next() - 0.5) * 2e-3),
                        1 => 0.35 * next(),
                        _ => 0.35 * (1.0 + next()),
                    };
                    let p = center + dir * (dist / norm);
                    let mut h = bonsai_kdtree::encode_halves(p, origin);
                    if leaf % 2 == 1 && (leaf + i) % 7 == 3 {
                        h[i % 3] = specials[(leaf + i) % specials.len()];
                    }
                    f.x.push(h[0]);
                    f.y.push(h[1]);
                    f.z.push(h[2]);
                    f.vind.push(f.points.len() as u32);
                    f.points.push(p);
                }
                f.nodes.push(Node::Leaf {
                    start: start as u32,
                    count: count as u32,
                    origin,
                });
                f.visits.push((leaf as u32, start as u32, count as u32));
            }
            f
        }

        fn rows(&self) -> HalfRows<'_> {
            HalfRows {
                x: &self.x,
                y: &self.y,
                z: &self.z,
                vind: &self.vind,
                points: &self.points,
                nodes: &self.nodes,
            }
        }
    }

    /// An empty hit buffer whose spare capacity holds poison pairs, so
    /// a kernel that exposes a pair it did not write reports garbage
    /// rather than a stale copy of the right answer.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
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

    /// Hits as `(index, dist_sq bits)`, so NaN-free distances compare
    /// bit for bit.
    fn bits(out: &[Neighbor]) -> Vec<(u32, u32)> {
        out.iter().map(|n| (n.index, n.dist_sq.to_bits())).collect()
    }

    /// Every compiled compressed kernel, called directly (not through
    /// the dispatcher), agrees with the scalar kernel on hits, their
    /// `dist_sq` bits and order, and stats — over every leaf count,
    /// exponent-31 and NaN halves, mixed In/Recompute groups and
    /// map-offset origins, on packed rows with poison right after every
    /// leaf (the kernels' contract: they read nothing past
    /// `start + count`). Every compiled leaf-block kernel reports per
    /// query the slots and fallbacks of the scalar per-query sweep.
    #[test]
    fn kernels_agree_bit_for_bit() {
        let lut = PartErrorMem::new();
        for (base, seed) in [
            (Point3::ZERO, 1u64),
            (Point3::new(3000.5, -4200.25, 12.0), 2),
            (Point3::new(-7000.0, 6500.75, -3.5), 3),
        ] {
            let f = Fixture::new(base, seed);
            // The poison is live: one slot past a leaf, the scalar
            // kernel reports the query point.
            let (leaf, start, count) = f.visits[5];
            let (mut out, mut stats) = (Vec::new(), SearchStats::default());
            sweep_scalar(
                &f.rows(),
                &lut,
                &[(leaf, start, count + 1)],
                f.center,
                0.01,
                &mut out,
                &mut stats,
            );
            assert!(out.iter().any(|n| n.index == 0), "base {base:?}: poison");
            // Some leaf mixes conclusive In hits with exact fallbacks.
            let mixed = f.visits.iter().any(|&v| {
                let (mut out, mut stats) = (Vec::new(), SearchStats::default());
                let r_sq = 0.35f32 * 0.35;
                sweep_scalar(&f.rows(), &lut, &[v], f.center, r_sq, &mut out, &mut stats);
                stats.fallbacks > 0 && out.len() as u64 > stats.fallbacks
            });
            assert!(mixed, "base {base:?}: no leaf mixes In and Recompute lanes");
            // Reversed and repeated visits exercise the per-visit origin.
            let mut lists = vec![f.visits.clone()];
            lists.push(f.visits.iter().rev().copied().collect());
            lists.push(vec![f.visits[16], f.visits[17], f.visits[16], f.visits[0]]);
            for visits in &lists {
                // Radii below, on and past the planted shell; the last
                // two admit whole leaves, so groups emit more than 8
                // hits, and `r² = ∞` sends the ±∞ halves' lanes to the
                // exact fallback with an infinite radius.
                for radius in [0.1f32, 0.35, 0.5, 4.0, 2e19] {
                    let (q, r_sq) = (f.center, radius * radius);
                    let (mut want, mut want_stats) = (Vec::new(), SearchStats::default());
                    sweep_scalar(&f.rows(), &lut, visits, q, r_sq, &mut want, &mut want_stats);
                    let check = |name: &str, out: &[Neighbor], stats: &SearchStats| {
                        assert_eq!(
                            bits(out),
                            bits(&want),
                            "{name} hits, base {base:?} r {radius}"
                        );
                        assert_eq!(*stats, want_stats, "{name} stats, base {base:?} r {radius}");
                    };
                    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                    {
                        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("f16c") {
                            let (mut out, mut stats) = (poisoned(), SearchStats::default());
                            // SAFETY: every visit's live range lies
                            // within the rows; AVX2 + F16C detected.
                            unsafe {
                                avx2::sweep(&f.rows(), visits, q, r_sq, &mut out, &mut stats)
                            };
                            check("avx2", &out, &stats);
                        }
                        if avx512_detected() {
                            let (mut out, mut stats) = (poisoned(), SearchStats::default());
                            // SAFETY: every visit's live range lies
                            // within the rows; AVX-512 F/BW/VL + F16C
                            // detected.
                            unsafe {
                                avx512::sweep(&f.rows(), visits, q, r_sq, &mut out, &mut stats)
                            };
                            check("avx512", &out, &stats);
                        }
                    }
                    // Scalar-only builds run no kernel to check.
                    let _ = &check;
                }
            }
            // The leaf block: every leaf of 0..=16 slots against a block
            // of queries — the planted center (whose shell lanes are
            // inconclusive at r = 0.35), shifted centers, a leaf point
            // and a NaN query — reports per query exactly the slots and
            // fallbacks of the scalar per-query sweep, in every kernel.
            let queries = [
                f.center,
                f.center + Point3::new(0.2, 0.0, -0.1),
                f.center + Point3::new(-0.05, 0.3, 0.0),
                f.points[7],
                Point3::new(f32::NAN, 0.0, 0.0),
            ];
            let mut fallbacks = 0;
            for &visit in &f.visits[..=16] {
                let (_, start, count) = visit;
                let slots = &f.vind[start as usize..(start + count) as usize];
                for radius in [0.1f32, 0.35, 0.5, 4.0, 2e19] {
                    let r_sq = radius * radius;
                    let (mut want, mut want_stats) = (Vec::new(), SearchStats::default());
                    for &q in &queries {
                        let mut out = Vec::new();
                        sweep_scalar(
                            &f.rows(),
                            &lut,
                            &[visit],
                            q,
                            r_sq,
                            &mut out,
                            &mut want_stats,
                        );
                        want.push(out.iter().fold(0u32, |m, n| {
                            m | 1 << slots.iter().position(|&i| i == n.index).unwrap()
                        }));
                    }
                    fallbacks += want_stats.fallbacks;
                    let check = |name: &str, masks: &[u32], stats: &SearchStats| {
                        let ctx = format!("{name} block, base {base:?} count {count} r {radius}");
                        assert_eq!(masks, &want[..], "{ctx}");
                        assert_eq!(*stats, want_stats, "{ctx}");
                    };
                    // Masks start as poison, so a kernel that skips a
                    // query's entry fails.
                    let (mut masks, mut stats) = ([u32::MAX; 5], SearchStats::default());
                    hit_masks_scalar(
                        &f.rows(),
                        &lut,
                        visit,
                        &queries,
                        r_sq,
                        &mut masks,
                        &mut stats,
                    );
                    check("scalar", &masks, &stats);
                    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                    {
                        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("f16c") {
                            let (mut masks, mut stats) = ([u32::MAX; 5], SearchStats::default());
                            // SAFETY: the leaf's live range lies within
                            // the rows and holds at most 16 slots; AVX2 +
                            // F16C detected.
                            unsafe {
                                avx2::hit_masks(
                                    &f.rows(),
                                    visit,
                                    &queries,
                                    r_sq,
                                    &mut masks,
                                    &mut stats,
                                )
                            };
                            check("avx2", &masks, &stats);
                        }
                        if avx512_detected() {
                            let (mut masks, mut stats) = ([u32::MAX; 5], SearchStats::default());
                            // SAFETY: the leaf's live range lies within
                            // the rows and holds at most 16 slots;
                            // AVX-512 F/BW/VL + F16C detected.
                            unsafe {
                                avx512::hit_masks(
                                    &f.rows(),
                                    visit,
                                    &queries,
                                    r_sq,
                                    &mut masks,
                                    &mut stats,
                                )
                            };
                            check("avx512", &masks, &stats);
                        }
                    }
                }
            }
            assert!(fallbacks > 0, "base {base:?}: no block lane fell back");
        }
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        eprintln!("note: no vector kernel compiled in; only the scalar kernel ran");
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("f16c")) {
                eprintln!("note: no AVX2 + F16C on this host; AVX2 kernel not checked");
            }
            if !avx512_detected() {
                eprintln!(
                    "note: no AVX-512 F/BW/VL + F16C on this host; AVX-512 kernel not checked"
                );
            }
        }
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    fn avx512_detected() -> bool {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("f16c")
    }

    /// Both vector kernels' in-register decodes must agree with the scalar
    /// reference decode on every binary16 pattern — subnormals, ±0, ±∞
    /// and NaN included: the value bit for bit (NaNs as a class, since
    /// `vcvtph2ps` quiets a signalling NaN) and the exponent field
    /// exactly.
    #[test]
    fn decode_lanes_matches_half_for_every_pattern() {
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        eprintln!("note: no vector kernel compiled in; in-register f16 decode not checked");
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            use bonsai_floatfmt::Half;
            use core::arch::x86_64::*;
            let check = |chunk: &[u16], vals: &[f32], exps: &[i32]| {
                for (k, &bits) in chunk.iter().enumerate() {
                    let h = Half::from_bits(bits);
                    let want = h.to_f32();
                    if want.is_nan() {
                        assert!(vals[k].is_nan(), "{bits:#06x}: decoded {}", vals[k]);
                    } else {
                        assert_eq!(vals[k].to_bits(), want.to_bits(), "{bits:#06x}: value");
                    }
                    assert_eq!(exps[k], h.exponent_field() as i32, "{bits:#06x}: exponent");
                }
            };
            let patterns: Vec<u16> = (0..=u16::MAX).collect();
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("f16c") {
                for chunk in patterns.chunks_exact(8) {
                    let (mut vals, mut exps) = ([0f32; 8], [0i32; 8]);
                    // SAFETY: `chunk` holds 8 halves for the 128-bit
                    // load, the stores target 8-lane stack arrays, and
                    // AVX2 + F16C were detected above.
                    unsafe {
                        let (v, e) = avx2::decode_lanes(_mm_loadu_si128(chunk.as_ptr().cast()));
                        _mm256_storeu_ps(vals.as_mut_ptr(), v);
                        _mm256_storeu_si256(exps.as_mut_ptr().cast(), e);
                    }
                    check(chunk, &vals, &exps);
                }
            } else {
                eprintln!("note: no AVX2 + F16C on this host; 8-lane f16 decode not checked");
            }
            if avx512_detected() {
                for chunk in patterns.chunks_exact(16) {
                    let (mut vals, mut exps) = ([0f32; 16], [0i32; 16]);
                    // SAFETY: `chunk` holds 16 halves for the 256-bit
                    // load, the stores target 16-lane stack arrays, and
                    // AVX-512F was detected above.
                    unsafe {
                        let (v, e) =
                            avx512::decode_lanes(_mm256_loadu_si256(chunk.as_ptr().cast()));
                        _mm512_storeu_ps(vals.as_mut_ptr(), v);
                        _mm512_storeu_si512(exps.as_mut_ptr().cast(), e);
                    }
                    check(chunk, &vals, &exps);
                }
            } else {
                eprintln!(
                    "note: no AVX-512 F/BW/VL + F16C on this host; 16-lane f16 decode not checked"
                );
            }
        }
    }
}
