//! Vectorized compressed (Bonsai) leaf sweep.
//!
//! The hardware `SQDWE` instruction evaluates the f16-approximate
//! squared distance *and* the Eq. 11 error accumulation across many
//! lanes at once; this module reproduces that split in software over
//! the lane-padded, leaf-relative binary16 SoA rows (6 B per slot) a
//! [`BonsaiTree`](crate::BonsaiTree) keeps as its only copy of the
//! leaves: each half is `f16(p − o)` against its leaf's origin `o`, so
//! the query is translated once per leaf visit (`q − o`, broadcast to
//! the lanes) and every lane then works in the leaf's frame. The AVX2
//! kernel loads 8 halves
//! per row with one 128-bit load and decodes them in-register with
//! F16C `vcvtph2ps` — exact, so every lane sees the `f32` value the
//! scalar [`Half::to_f32`](bonsai_floatfmt::Half::to_f32) decode
//! yields — and takes each lane's exponent field straight from bits
//! 10..14 of its half. It then vectorizes the
//! whole conclusive path — `d′²`, the three `|A − B′|` magnitudes, the
//! [`PartErrorMem`] coefficients (synthesized in-register from the f16
//! exponent fields: every ROM entry is an exact power of two, verified
//! bit-for-bit against [`lookup`](PartErrorMem::lookup) by
//! `synthesized_rom_matches_lut`), the Eq. 11 sum and the Eq. 12
//! shell comparisons — while
//! inconclusive ([`Recompute`](ShellClass::Recompute)) lanes drop to
//! the identical scalar exact-fallback, lane by lane in ascending slot
//! order. Every lane evaluates the same `f32` expressions in the same
//! order as the scalar loop (no FMA contraction), so membership,
//! `dist_sq` bits, hit order and stats are bit-identical to the
//! instrumented SQDWE processor.
//!
//! Narrower backends (SSE2/NEON) lack the shuffle-table compaction and
//! 8-wide integer lanes this kernel leans on; measured against the
//! scalar loop, spilling the lane registers so a scalar tail can
//! classify costs more than the arithmetic it saves, so the compressed
//! sweep *declines* on them and the scalar reference path runs (the
//! baseline sweep still vectorizes there — its inner loop has no
//! table work).
//!
//! Padding lanes (f16 `+∞` sentinels, exponent field 31) would
//! classify as inconclusive (their error terms are non-finite) and fall
//! back on a sentinel `vind` entry, so each lane group masks
//! classification to its `live = min(LANES, count − base)` leading
//! lanes.

use bonsai_floatfmt::PartErrorMem;
use bonsai_geom::Point3;
use bonsai_kdtree::simd::{active_backend, LaneBackend, LeafVisit};
use bonsai_kdtree::{KdTree, Neighbor, SearchStats};

use crate::shell::{classify, ShellClass};

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

/// Vectorized compressed sweep of a query's collected leaf visits
/// over `tree`'s f16 rows (each `(leaf, start, count)`, swept in order
/// with the query translated by the leaf's origin; the classification
/// work of all visits runs through **one** backend dispatch with the
/// lane constants and gather bases hoisted). Returns `false` without
/// touching `out`/`stats` when no gather-capable backend is active —
/// the caller then runs the scalar reference loop.
#[allow(unused_variables)] // non-AVX2 builds use none of the inputs
#[allow(clippy::needless_return)] // the return closes the x86_64 cfg arm
#[allow(clippy::ptr_arg)] // the lane kernel pushes; non-AVX2 builds never touch `out`
#[inline]
pub(crate) fn sweep_compressed_visited(
    tree: &KdTree,
    lut: &PartErrorMem,
    visited: &[LeafVisit],
    query: Point3,
    r_sq: f32,
    out: &mut Vec<Neighbor>,
    stats: &mut SearchStats,
) -> bool {
    if active_backend() != LaneBackend::Avx2 {
        return false;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        let (halves, vind) = (tree.leaf_halves(), tree.vind());
        for &(_, start, count) in visited {
            let hi = start as usize + bonsai_kdtree::simd::lane_padded(count as usize);
            // lint: allow(debug-assert-discipline) — this assert *is*
            // the bounds contract of the unsafe AVX2 kernel below;
            // eliding it in release builds would turn a baking bug
            // into UB.
            assert!(
                hi <= halves.0.len()
                    && hi <= halves.1.len()
                    && hi <= halves.2.len()
                    && hi <= vind.len(),
                "compressed sweep past the f16 rows: start {start} count {count} rows {}",
                halves.0.len()
            );
        }
        // SAFETY: row bounds asserted above; AVX2 and F16C presence
        // established by the backend detection.
        unsafe {
            avx2::sweep(tree, visited, query, r_sq, out, stats);
        }
        return true;
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        unreachable!("LaneBackend::Avx2 is only ever detected on x86_64 with the simd feature")
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use super::*;
    use crate::shell::{SHELL_SLACK_ULPS, T_ERR_WIDEN};
    use bonsai_kdtree::simd::lane_padded;
    use core::arch::x86_64::*;

    /// # Safety
    ///
    /// Caller guarantees every visit's lane-padded footprint is within
    /// every f16 row and `vind`, and that AVX2 and F16C are available.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) unsafe fn sweep(
        tree: &KdTree,
        visited: &[LeafVisit],
        query: Point3,
        r_sq: f32,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        let ((hx, hy, hz), vind, points) = (tree.leaf_halves(), tree.vind(), tree.points());
        let (px, py, pz) = (hx.as_ptr(), hy.as_ptr(), hz.as_ptr());
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
            let q = query - tree.origin_of(leaf);
            let (qx, qy, qz) = (
                _mm256_set1_ps(q.x),
                _mm256_set1_ps(q.y),
                _mm256_set1_ps(q.z),
            );
            let (start, count) = (start as usize, count as usize);
            let mut g = 0;
            while g < lane_padded(count) {
                let base = start + g;
                // SAFETY: `base..base + 8` is within every f16 row — the
                // caller asserted each visit's lane-padded footprint
                // against all three rows and `vind`; `decode_lanes` is
                // register-only and needs AVX2 + F16C, enabled here.
                let ((ax, ix), (ay, iy), (az, iz)) = unsafe {
                    (
                        decode_lanes(_mm_loadu_si128(px.add(base) as *const __m128i)),
                        decode_lanes(_mm_loadu_si128(py.add(base) as *const __m128i)),
                        decode_lanes(_mm_loadu_si128(pz.add(base) as *const __m128i)),
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
                // all in ascending slot order. Padding lanes are clipped
                // by the live mask.
                let live = (count - g).min(8);
                let live_bits = 0xFFu32 >> (8 - live);
                let m_in = m_in & live_bits;
                let mut cand = (m_in | !m_out) & live_bits;
                let recompute = cand & !m_in;
                if recompute == 0 {
                    // The common shape (~99.6 % of points classify
                    // conclusively): every candidate is a conclusive In,
                    // so the whole group compacts with vector stores.
                    if m_in != 0 {
                        // SAFETY: `m_in` is live-masked to 8 bits and
                        // `base..base + 8` is within `vind` (asserted
                        // footprint); AVX2 is enabled on this fn.
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

    /// The AVX2 kernel's in-register decode must agree with the scalar
    /// reference decode on every binary16 pattern — subnormals, ±0, ±∞
    /// and NaN included: the value bit for bit (NaNs as a class, since
    /// `vcvtph2ps` quiets a signalling NaN) and the exponent field
    /// exactly.
    #[test]
    fn decode_lanes_matches_half_for_every_pattern() {
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        eprintln!("note: AVX2 kernel not compiled in; in-register f16 decode not checked");
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            use bonsai_floatfmt::Half;
            use core::arch::x86_64::*;
            if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("f16c")) {
                eprintln!("note: no AVX2 + F16C on this host; in-register f16 decode not checked");
                return;
            }
            let patterns: Vec<u16> = (0..=u16::MAX).collect();
            for chunk in patterns.chunks_exact(8) {
                let (mut vals, mut exps) = ([0f32; 8], [0i32; 8]);
                // SAFETY: `chunk` holds 8 halves for the 128-bit load,
                // the stores target 8-lane stack arrays, and AVX2 + F16C
                // were detected above.
                unsafe {
                    let (v, e) = avx2::decode_lanes(_mm_loadu_si128(chunk.as_ptr().cast()));
                    _mm256_storeu_ps(vals.as_mut_ptr(), v);
                    _mm256_storeu_si256(exps.as_mut_ptr().cast(), e);
                }
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
            }
        }
    }
}
