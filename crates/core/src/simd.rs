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
//! to one of three kernels ([`compressed_sweep_kernel`]). Leaves are
//! packed (no padding follows a leaf's last slot), so each kernel
//! finishes its own tail and reads nothing past `start + count`:
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
//!   through [`classify_candidate`] — everywhere else.
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
use bonsai_kdtree::simd::{active_backend, LaneBackend, LeafVisit};
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

/// One candidate's scalar classification tail — the code the scalar
/// reference loop runs per point, and the code a SIMD kernel's
/// inconclusive lanes must reproduce exactly.
#[allow(clippy::too_many_arguments)] // the flattened per-lane state
#[inline]
pub(crate) fn classify_candidate(
    d_sq: f32,
    adx: f32,
    ady: f32,
    adz: f32,
    ex: u8,
    ey: u8,
    ez: u8,
    idx: u32,
    points: &[Point3],
    lut: &PartErrorMem,
    query: Point3,
    r_sq: f32,
    out: &mut Vec<Neighbor>,
    stats: &mut SearchStats,
) {
    let t_err = lut.max_squared_difference_error(adx, ex)
        + lut.max_squared_difference_error(ady, ey)
        + lut.max_squared_difference_error(adz, ez);
    match classify(d_sq, t_err, r_sq) {
        ShellClass::In => out.push(Neighbor {
            index: idx,
            dist_sq: d_sq,
        }),
        ShellClass::Out => {}
        ShellClass::Recompute => recompute_candidate(idx, points, query, r_sq, out, stats),
    }
}

/// The exact `f32` fallback of one inconclusive candidate (Eq. 3 over
/// the original point), shared by the scalar tail and the SIMD
/// kernels' masked fallback lanes.
#[inline]
fn recompute_candidate(
    idx: u32,
    points: &[Point3],
    query: Point3,
    r_sq: f32,
    out: &mut Vec<Neighbor>,
    stats: &mut SearchStats,
) {
    stats.fallbacks += 1;
    stats.point_bytes_loaded += 12;
    let exact = points[idx as usize].distance_squared(query);
    if exact <= r_sq {
        out.push(Neighbor {
            index: idx,
            dist_sq: exact,
        });
    }
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
            let (hx, hy, hz) = (
                Half::from_bits(ax[i]),
                Half::from_bits(ay[i]),
                Half::from_bits(az[i]),
            );
            let dx = q.x - hx.to_f32();
            let dy = q.y - hy.to_f32();
            let dz = q.z - hz.to_f32();
            let d_sq = dx * dx + dy * dy + dz * dz;
            classify_candidate(
                d_sq,
                dx.abs(),
                dy.abs(),
                dz.abs(),
                hx.exponent_field(),
                hy.exponent_field(),
                hz.exponent_field(),
                vw[i],
                rows.points,
                lut,
                query,
                r_sq,
                out,
                stats,
            );
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use super::*;
    use crate::shell::{SHELL_SLACK_ULPS, T_ERR_WIDEN};
    use core::arch::x86_64::*;

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
        let rs = _mm256_set1_ps(r_sq);
        let abs_mask = _mm256_set1_ps(f32::from_bits(0x7FFF_FFFF));
        // `16 · ε` is a power of two, so pre-multiplying it is exact
        // and the per-lane `slack` bits match the scalar
        // `SHELL_SLACK_ULPS * f32::EPSILON * max(d′², r²)`.
        let slack_coef = _mm256_set1_ps(SHELL_SLACK_ULPS * f32::EPSILON);
        let widen = _mm256_set1_ps(T_ERR_WIDEN);
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
                let live = (count - g).min(8);
                // A full group loads straight from the rows; the leaf's
                // partial tail group is copied into zeroed stack halves
                // first, so nothing past `start + count` is read.
                let group = |row: &[u16]| -> __m128i {
                    if live == 8 {
                        // SAFETY: `base..base + 8` lies within the
                        // leaf's live range, inside the row per the
                        // caller's contract.
                        unsafe { _mm_loadu_si128(row.as_ptr().add(base).cast()) }
                    } else {
                        let mut tail = [0u16; 8];
                        tail[..live].copy_from_slice(&row[base..base + live]);
                        // SAFETY: `tail` holds the 8 halves of the load.
                        unsafe { _mm_loadu_si128(tail.as_ptr().cast()) }
                    }
                };
                // SAFETY: `decode_lanes` is register-only and needs
                // AVX2 + F16C, enabled here.
                let ((ax, ix), (ay, iy), (az, iz)) = unsafe {
                    (
                        decode_lanes(group(rows.x)),
                        decode_lanes(group(rows.y)),
                        decode_lanes(group(rows.z)),
                    )
                };
                // Same arithmetic, same order as the scalar loop and the
                // SQDWE lanes: diff from the exactly decoded f16
                // coordinate (query − approx), then (dx² + dy²) + dz² —
                // no FMA.
                let dx = _mm256_sub_ps(qx, ax);
                let dy = _mm256_sub_ps(qy, ay);
                let dz = _mm256_sub_ps(qz, az);
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
                // SAFETY: `part_error_lanes` is register-only and needs
                // only AVX2, enabled here.
                let t_err = unsafe {
                    _mm256_add_ps(
                        _mm256_add_ps(
                            part_error_lanes(ix, _mm256_and_ps(dx, abs_mask)),
                            part_error_lanes(iy, _mm256_and_ps(dy, abs_mask)),
                        ),
                        part_error_lanes(iz, _mm256_and_ps(dz, abs_mask)),
                    )
                };
                // Eq. 12 with the documented translation widening and
                // f32 slack, `t_err · T_ERR_WIDEN + slack` like the scalar
                // classify. `max_ps(d, rs)` returns its second operand on
                // a NaN `d`, matching Rust's `f32::max`; non-finite `t`
                // fails both ordered compares, which is exactly the
                // scalar classify's forced Recompute.
                let t = _mm256_add_ps(
                    _mm256_mul_ps(t_err, widen),
                    _mm256_mul_ps(slack_coef, _mm256_max_ps(d, rs)),
                );
                let m_in =
                    _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(d, _mm256_sub_ps(rs, t))) as u32;
                let m_out =
                    _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(d, _mm256_add_ps(rs, t))) as u32;
                // Conclusive-In lanes push their approximate distance;
                // lanes that are neither In nor Out re-compute exactly —
                // all in ascending slot order. Lanes past the count are
                // clipped by the live mask.
                let live_bits = 0xFFu32 >> (8 - live);
                let m_in = m_in & live_bits;
                let mut cand = (m_in | !m_out) & live_bits;
                let recompute = cand & !m_in;
                if recompute == 0 {
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
                } else if cand != 0 {
                    let mut dv = [0.0f32; 8];
                    // SAFETY: `dv` is an 8-float stack buffer sized
                    // for the full-register store.
                    unsafe {
                        _mm256_storeu_ps(dv.as_mut_ptr(), d);
                    }
                    while cand != 0 {
                        let j = cand.trailing_zeros() as usize;
                        let idx = vind[base + j];
                        if m_in & (1 << j) != 0 {
                            out.push(Neighbor {
                                index: idx,
                                dist_sq: dv[j],
                            });
                        } else {
                            super::recompute_candidate(idx, points, query, r_sq, out, stats);
                        }
                        cand &= cand - 1;
                    }
                }
                g += 8;
            }
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
        let (px, py, pz) = (rows.x.as_ptr(), rows.y.as_ptr(), rows.z.as_ptr());
        let rs = _mm512_set1_ps(r_sq);
        // `16 · ε` is a power of two, so pre-multiplying it is exact
        // (see the AVX2 kernel).
        let slack_coef = _mm512_set1_ps(SHELL_SLACK_ULPS * f32::EPSILON);
        let widen = _mm512_set1_ps(T_ERR_WIDEN);
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
                // SAFETY: the masked loads touch only the `live` slots
                // `base..start + count`, within every f16 row per the
                // caller's contract (masked-off lanes are neither read
                // nor faulted on, and load as zero); `decode_lanes` is
                // register-only and needs the features enabled here.
                let ((ax, ix), (ay, iy), (az, iz)) = unsafe {
                    (
                        decode_lanes(_mm256_maskz_loadu_epi16(live, px.add(base).cast())),
                        decode_lanes(_mm256_maskz_loadu_epi16(live, py.add(base).cast())),
                        decode_lanes(_mm256_maskz_loadu_epi16(live, pz.add(base).cast())),
                    )
                };
                // The AVX2 kernel's expressions, in its order: diffs from
                // the decoded halves, (dx² + dy²) + dz², no FMA.
                let dx = _mm512_sub_ps(qx, ax);
                let dy = _mm512_sub_ps(qy, ay);
                let dz = _mm512_sub_ps(qz, az);
                let d = _mm512_add_ps(
                    _mm512_add_ps(_mm512_mul_ps(dx, dx), _mm512_mul_ps(dy, dy)),
                    _mm512_mul_ps(dz, dz),
                );
                // Eq. 9 per coordinate with the ROM synthesized from the
                // exponent fields, accumulated x → y → z (Eq. 11).
                // SAFETY: `part_error_lanes` is register-only and needs
                // only AVX-512F, enabled here.
                let t_err = unsafe {
                    _mm512_add_ps(
                        _mm512_add_ps(
                            part_error_lanes(ix, _mm512_abs_ps(dx)),
                            part_error_lanes(iy, _mm512_abs_ps(dy)),
                        ),
                        part_error_lanes(iz, _mm512_abs_ps(dz)),
                    )
                };
                // Eq. 12, widened like the scalar classify; `max_ps`
                // returns `rs` on a NaN `d` like Rust's `f32::max`, and a
                // non-finite `t` fails both ordered compares (Recompute).
                let t = _mm512_add_ps(
                    _mm512_mul_ps(t_err, widen),
                    _mm512_mul_ps(slack_coef, _mm512_max_ps(d, rs)),
                );
                let m_in = _mm512_mask_cmp_ps_mask::<_CMP_LE_OQ>(live, d, _mm512_sub_ps(rs, t));
                let m_out = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(d, _mm512_add_ps(rs, t));
                let mut cand = (m_in | !m_out) & live;
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
                        if m_in & (1 << j) != 0 {
                            out.push(Neighbor {
                                index: idx,
                                dist_sq: dv[j],
                            });
                        } else {
                            super::recompute_candidate(idx, points, query, r_sq, out, stats);
                        }
                        cand &= cand - 1;
                    }
                }
                g += LANES;
            }
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
    /// `start + count`).
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
                // admits whole leaves, so groups emit more than 8 hits.
                for radius in [0.1f32, 0.35, 0.5, 4.0] {
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
