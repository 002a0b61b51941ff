//! The uncertainty-shell classification of Eq. 12.
//!
//! Given the approximate squared distance `d′²` (computed from f16
//! points), the accumulated worst-case error `Tεsd` (Eq. 11) and the
//! squared radius `r²`, a candidate point is:
//!
//! * certainly **in** radius when `d′² ≤ r² − Tεsd`,
//! * certainly **out** when `d′² > r² + Tεsd`,
//! * otherwise **inconclusive** — the original `f32` point must be
//!   fetched and classified with the baseline Eq. 3.
//!
//! # Floating-point slack (deviation from the paper, conservative)
//!
//! Eq. 11's bound is exact in real arithmetic, but the hardware evaluates
//! `d′²`, the per-coordinate error terms and their sums in `f32`, each
//! operation adding up to half an ULP of relative error; likewise the
//! baseline's own `d²` is an `f32` evaluation. The paper does not discuss
//! this (its 32-bit FU datapath absorbs it in practice). To make the
//! "identical to baseline" guarantee *provable*, [`classify`] widens the
//! shell by [`SHELL_SLACK_ULPS`] ULPs of `max(d′², r²)`:
//!
//! * relative error of an `f32` sum of three products: ≤ 4 ε,
//! * baseline `d²` evaluation: ≤ 4 ε,
//! * the translation term of the next section: ≤ 1.01 ε,
//!
//! so 16 ε of headroom strictly covers the worst case. The widening only
//! moves a vanishing sliver of decisions from "conclusive" to
//! "re-compute" and never changes a result.
//!
//! # Leaf-relative coordinates (deviation from the paper, conservative)
//!
//! The paper compresses absolute coordinates. Here each leaf stores
//! `B′ = f16(P)` with `P = fl(p − o)` against its grid origin `o`
//! (`bonsai_kdtree::leaf_origin`), and a compressed scan translates the
//! query once per leaf visit, `A = fl(q − o)`, before the `SQDWE`
//! arithmetic `d′ = fl(A − B′)` — one extra vector subtract per visit,
//! charged as one `VecAlu` op by the instrumented processors. Neither
//! subtraction is exact in general (near a coordinate plane the leaf's
//! origin sits on the other side of zero), so their rounding joins the
//! bound, per coordinate, with `u = 2⁻²⁴` and `Δ` the Eq. 6 bound of
//! `B′`'s exponent:
//!
//! * `|P − (p − o)| ≤ u·|P| ≤ 2⁻¹²·Δ`, because `|P| ≤ |B′| + Δ` and
//!   `|B′| < 2¹²·Δ` for every f16 exponent;
//! * `|A − (q − o)| ≤ u·|A| ≤ 2⁻¹²·Δ + u·|d′|·(1 + u)`, because
//!   `|A| ≤ |B′| + |A − B′|`.
//!
//! So the true difference is `q − p = (A − B′) + η` with
//! `|η| ≤ κ·Δ + u·(1 + u)·|d′|`, `κ = 1 + 2⁻¹¹ + 2⁻²⁴`, and Eq. 9
//! becomes `|(q − p)² − (A − B′)²| ≤ κ²·(2·|d′|·Δ + Δ²) + 2.0001·u·d′²`.
//! [`classify`] therefore scales `Tεsd` by [`T_ERR_WIDEN`] `= 1 + 2⁻⁹ >
//! κ²` (the margin also absorbs the `f32` evaluation of `Tεsd` and of
//! the scaling itself) and the `2.0001·u·d′² ≤ 1.01 ε·d′²` remainder is
//! the translation term of the slack above. When both subtractions
//! happen to be exact — `o = 0`, or a map-frame leaf, where `q` and `o`
//! are within a factor of two of each other (Sterbenz) — the widening
//! is a free 0.2 % margin. Either way the shell still guarantees
//! baseline membership; the payoff is that the f16 step is `E·2⁻⁹` for
//! a leaf of extent `≤ E` anywhere on the map, instead of 1 m past
//! 1 km and 4 m past 4 km.

use bonsai_floatfmt::Half;
use bonsai_geom::Point3;
use bonsai_kdtree::{encode_halves, Neighbor};

/// Shell-widening headroom in units of `f32::EPSILON × max(d′², r²)`.
pub const SHELL_SLACK_ULPS: f32 = 16.0;

/// The factor [`classify`] scales `Tεsd` by to cover the rounding of
/// the leaf-relative translations `p − o` and `q − o` (see the module
/// docs): `1 + 2⁻⁹`.
pub const T_ERR_WIDEN: f32 = 1.0 + 1.0 / 512.0;

/// The three-way outcome of the shell test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShellClass {
    /// Certainly within the radius; no re-computation needed.
    In,
    /// Certainly outside the radius.
    Out,
    /// Inside the uncertainty shell: re-compute with the original `f32`
    /// point (Eq. 3).
    Recompute,
}

/// Classifies an approximate squared distance against the radius shell
/// (Eq. 12 with the documented translation widening and `f32` slack:
/// the shell half-width is `Tεsd·T_ERR_WIDEN + 16·ε·max(d′², r²)`).
///
/// `t_err` is `Tεsd`, the sum of the three per-coordinate worst-case
/// errors (Eq. 11). A non-finite `t_err` (overflowed f16 exponent) forces
/// [`ShellClass::Recompute`].
///
/// # Examples
///
/// ```
/// use bonsai_core::shell::{classify, ShellClass};
///
/// assert_eq!(classify(1.0, 0.01, 4.0), ShellClass::In);
/// assert_eq!(classify(9.0, 0.01, 4.0), ShellClass::Out);
/// assert_eq!(classify(4.0, 0.01, 4.0), ShellClass::Recompute);
/// ```
pub fn classify(d_sq_approx: f32, t_err: f32, r_sq: f32) -> ShellClass {
    if !t_err.is_finite() {
        return ShellClass::Recompute;
    }
    let slack = SHELL_SLACK_ULPS * f32::EPSILON * d_sq_approx.max(r_sq);
    let t = t_err * T_ERR_WIDEN + slack;
    if d_sq_approx <= r_sq - t {
        ShellClass::In
    } else if d_sq_approx > r_sq + t {
        ShellClass::Out
    } else {
        ShellClass::Recompute
    }
}

/// The compressed scans' arithmetic for one candidate: `point` in a
/// leaf whose origin is `origin`, seen from `query`. Returns `d′²`,
/// the squared distance from the translated query `query − origin` to
/// the point's leaf-relative half ([`encode_halves`]), and its Eq. 11
/// bound `Tεsd` — the `f32` expressions, in the order, that the AVX2
/// and scalar sweeps evaluate (diffs, then `(dx² + dy²) + dz²`, then
/// the error terms summed x → y → z).
pub fn leaf_relative_inputs(query: Point3, point: Point3, origin: Point3) -> (f32, f32) {
    let lut = crate::engine::error_rom();
    let h = encode_halves(point, origin).map(Half::from_bits);
    let q = query - origin;
    let d = [
        q.x - h[0].to_f32(),
        q.y - h[1].to_f32(),
        q.z - h[2].to_f32(),
    ];
    let d_sq = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    let t_err = lut.max_squared_difference_error(d[0].abs(), h[0].exponent_field())
        + lut.max_squared_difference_error(d[1].abs(), h[1].exponent_field())
        + lut.max_squared_difference_error(d[2].abs(), h[2].exponent_field());
    (d_sq, t_err)
}

/// The `dist_sq` a compressed scan reports for `point` in a leaf whose
/// origin is `origin`: `d′²` when the shell classifies it
/// [`In`](ShellClass::In), the exact `f32` `d²` when an inconclusive
/// candidate's fallback finds it within `r_sq`, and `None` when it is
/// not a hit.
pub fn reported_dist_sq(query: Point3, point: Point3, origin: Point3, r_sq: f32) -> Option<f32> {
    let (d_sq, t_err) = leaf_relative_inputs(query, point, origin);
    match classify(d_sq, t_err, r_sq) {
        ShellClass::In => Some(d_sq),
        ShellClass::Out => None,
        ShellClass::Recompute => {
            let exact = point.distance_squared(query);
            (exact <= r_sq).then_some(exact)
        }
    }
}

/// How two compressed answers to one query disagree (see
/// [`check_compressed_hits`]). `side` names the answer at fault:
/// `"got"` or `"want"`.
#[derive(Debug, Clone, PartialEq)]
pub enum HitMismatch {
    /// The answers name different points, or the same points in a
    /// different order.
    Neighbours {
        /// The indices of `got`.
        got: Vec<u32>,
        /// The indices of `want`.
        want: Vec<u32>,
    },
    /// A hit's `dist_sq` is not what its own leaf reports
    /// ([`reported_dist_sq`]; `None`: the leaf reports no hit).
    Report {
        /// The answer at fault.
        side: &'static str,
        /// The point.
        index: u32,
        /// The reported distance.
        dist_sq: f32,
        /// The origin of the point's leaf in that answer's tree.
        origin: Point3,
        /// What that leaf reports.
        expected: Option<f32>,
    },
    /// A conclusive hit's `d′²` lies outside `Tεsd·T_ERR_WIDEN + 8ε·d′²`
    /// of the true `d²`.
    Bound {
        /// The answer at fault.
        side: &'static str,
        /// The point.
        index: u32,
        /// The reported approximate distance.
        d_sq: f32,
        /// The true squared distance, in `f64`.
        truth: f64,
        /// The bound it broke.
        bound: f64,
    },
    /// Both trees give the point's leaf the same origin, yet the two
    /// `dist_sq` differ.
    SameOrigin {
        /// The point.
        index: u32,
        /// The shared origin.
        origin: Point3,
        /// `got`'s distance.
        got: f32,
        /// `want`'s distance.
        want: f32,
    },
}

/// Checks one compressed query's hits from two trees over the same
/// points — shards against one tree, a mutated tree against a fresh
/// rebuild — as strictly as leaf-relative halves allow. Both lists use
/// one index space, in which `points[i]` is point `i`, and one order;
/// `got_origins[i]` and `want_origins[i]` are the origins of the
/// leaves holding point `i` in each tree
/// ([`KdTree::point_origins`](bonsai_kdtree::KdTree::point_origins),
/// [`RouterSnapshot::point_origins`](crate::RouterSnapshot::point_origins)).
///
/// The hits must name the same points in the same order. Each side's
/// `dist_sq` must be, bit for bit, [`reported_dist_sq`] in its own
/// leaf's frame: the exact `f32` `d²` of a fallback, or the `d′²` of a
/// conclusive hit, which must also lie within
/// `Tεsd·T_ERR_WIDEN + 8ε·d′²` of the true `d²` (the bound of the
/// module docs). Where both trees give the point's leaf the same
/// origin, the two `dist_sq` must be bit-identical.
pub fn check_compressed_hits(
    query: Point3,
    radius: f32,
    points: &[Point3],
    got: &[Neighbor],
    got_origins: &[Point3],
    want: &[Neighbor],
    want_origins: &[Point3],
) -> Result<(), HitMismatch> {
    let indices = |hits: &[Neighbor]| hits.iter().map(|n| n.index).collect::<Vec<u32>>();
    if indices(got) != indices(want) {
        return Err(HitMismatch::Neighbours {
            got: indices(got),
            want: indices(want),
        });
    }
    let r_sq = radius * radius;
    let bits = |o: Point3| o.to_array().map(f32::to_bits);
    for (g, w) in got.iter().zip(want) {
        let (index, p) = (g.index, points[g.index as usize]);
        let (go, wo) = (got_origins[index as usize], want_origins[index as usize]);
        for (side, hit, origin) in [("got", g, go), ("want", w, wo)] {
            let expected = reported_dist_sq(query, p, origin, r_sq);
            if expected.map(f32::to_bits) != Some(hit.dist_sq.to_bits()) {
                return Err(HitMismatch::Report {
                    side,
                    index,
                    dist_sq: hit.dist_sq,
                    origin,
                    expected,
                });
            }
            let (d_sq, t_err) = leaf_relative_inputs(query, p, origin);
            if classify(d_sq, t_err, r_sq) == ShellClass::In {
                let truth: f64 = (0..3)
                    .map(|a| (f64::from(query[a]) - f64::from(p[a])).powi(2))
                    .sum();
                let bound = f64::from(t_err * T_ERR_WIDEN)
                    + 8.0 * f64::from(f32::EPSILON) * f64::from(d_sq);
                if (truth - f64::from(d_sq)).abs() > bound {
                    return Err(HitMismatch::Bound {
                        side,
                        index,
                        d_sq,
                        truth,
                        bound,
                    });
                }
            }
        }
        if bits(go) == bits(wo) && g.dist_sq.to_bits() != w.dist_sq.to_bits() {
            return Err(HitMismatch::SameOrigin {
                index,
                origin: go,
                got: g.dist_sq,
                want: w.dist_sq,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_floatfmt::PartErrorMem;
    use bonsai_kdtree::leaf_origin;

    /// A deterministic uniform stream in `[0, 1)`.
    fn stream(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A random leaf of 2–16 points in a box of random per-axis extent
    /// (1 cm – 8 m) centred `offset` from the map origin, with its grid
    /// origin.
    fn random_leaf(next: &mut impl FnMut() -> f64, offset: [f64; 3]) -> (Vec<Point3>, Point3) {
        let extent = [0, 1, 2].map(|_| 0.01 * 800f64.powf(next()));
        let n = 2 + (next() * 15.0) as usize;
        let pts: Vec<Point3> = (0..n)
            .map(|_| {
                let c = [0, 1, 2].map(|a| (offset[a] + (next() - 0.5) * extent[a]) as f32);
                Point3::from(c)
            })
            .collect();
        let (lo, hi) = pts.iter().fold(
            (
                Point3::splat(f32::INFINITY),
                Point3::splat(f32::NEG_INFINITY),
            ),
            |(lo, hi), &p| (lo.min(p), hi.max(p)),
        );
        (pts, leaf_origin(lo, hi))
    }

    #[test]
    fn clear_cases_classify_without_recompute() {
        assert_eq!(classify(0.5, 0.1, 4.0), ShellClass::In);
        assert_eq!(classify(10.0, 0.1, 4.0), ShellClass::Out);
    }

    #[test]
    fn shell_cases_request_recompute() {
        assert_eq!(classify(3.95, 0.1, 4.0), ShellClass::Recompute);
        assert_eq!(classify(4.05, 0.1, 4.0), ShellClass::Recompute);
    }

    #[test]
    fn infinite_error_forces_recompute() {
        assert_eq!(classify(1.0, f32::INFINITY, 100.0), ShellClass::Recompute);
    }

    #[test]
    fn zero_error_still_keeps_ulp_slack() {
        // Exactly on the boundary with no quantization error: recompute
        // (the f32 slack keeps the guarantee).
        assert_eq!(classify(4.0, 0.0, 4.0), ShellClass::Recompute);
        assert_eq!(classify(4.0 - 1e-3, 0.0, 4.0), ShellClass::In);
    }

    /// The load-bearing property: a conclusive shell answer always agrees
    /// with the baseline f32 classification of the *original* point.
    #[test]
    fn conclusive_answers_match_baseline_over_random_pairs() {
        let lut = PartErrorMem::new();
        let mut state = 0xABCDEF12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut recomputes = 0u64;
        const TRIALS: u64 = 2_000_000;
        for _ in 0..TRIALS {
            // Query and point within LiDAR-plausible range; radius chosen
            // near the actual distance so the shell is exercised hard.
            let q = [
                (next() as f32 - 0.5) * 120.0,
                (next() as f32 - 0.5) * 120.0,
                (next() as f32 - 0.5) * 8.0,
            ];
            let scale = 0.5 + next() as f32;
            let p = [
                q[0] + (next() as f32 - 0.5) * scale,
                q[1] + (next() as f32 - 0.5) * scale,
                q[2] + (next() as f32 - 0.5) * scale * 0.2,
            ];
            // f16-compress the candidate point like the leaf store does.
            let ph: Vec<Half> = p.iter().map(|&v| Half::from_f32(v)).collect();
            // FU math in f32, exactly as the hardware path.
            let mut d_sq = 0.0f32;
            let mut t_err = 0.0f32;
            for c in 0..3 {
                let b = ph[c].to_f32();
                let diff = q[c] - b;
                d_sq += diff * diff;
                t_err += lut.max_squared_difference_error(diff.abs(), ph[c].exponent_field());
            }
            // Radius close to the true distance (multiplicative jitter).
            let d_base: f32 = {
                let dx = q[0] - p[0];
                let dy = q[1] - p[1];
                let dz = q[2] - p[2];
                dx * dx + dy * dy + dz * dz
            };
            let r_sq = d_base * (0.9 + 0.2 * next() as f32) + 1e-6;
            let baseline_in = d_base <= r_sq;
            match classify(d_sq, t_err, r_sq) {
                ShellClass::In => assert!(baseline_in, "q={q:?} p={p:?} r²={r_sq}"),
                ShellClass::Out => assert!(!baseline_in, "q={q:?} p={p:?} r²={r_sq}"),
                ShellClass::Recompute => recomputes += 1,
            }
        }
        // With radii deliberately placed at the decision boundary the
        // recompute rate is high here; just ensure the mechanism is
        // actually exercised.
        assert!(recomputes > 0);
    }

    /// The same property over leaf-relative halves: leaves at offsets
    /// from 0 to 100 km on their grid origins, queries translated by
    /// the origin — every conclusive answer matches the baseline `f32`
    /// classification of the original point. Far from the map origin
    /// the shell stays as tight as at it: the recompute rate at 100 km
    /// is that of a leaf at the origin.
    #[test]
    fn conclusive_answers_match_baseline_at_map_offsets() {
        let mut next = stream(0x0FF5_E75E_ED00);
        let mut recomputes = [0u64; 2];
        let mut trials = [0u64; 2];
        for trial in 0..400_000usize {
            let far = trial % 2;
            let reach = [0.0, 1.0e5][far];
            let offset = [0, 1, 2].map(|_| (next() - 0.5) * 2.0 * reach);
            let (pts, o) = random_leaf(&mut next, offset);
            let p = pts[trial % pts.len()];
            let scale = (0.5 + next()) as f32;
            let q = p + Point3::new(
                (next() as f32 - 0.5) * scale,
                (next() as f32 - 0.5) * scale,
                (next() as f32 - 0.5) * scale * 0.2,
            );
            let (d_sq, t_err) = leaf_relative_inputs(q, p, o);
            let d_base = p.distance_squared(q);
            let r_sq = d_base * (0.9 + 0.2 * next() as f32) + 1e-6;
            let baseline_in = d_base <= r_sq;
            trials[far] += 1;
            match classify(d_sq, t_err, r_sq) {
                ShellClass::In => assert!(baseline_in, "q={q:?} p={p:?} o={o:?} r²={r_sq}"),
                ShellClass::Out => assert!(!baseline_in, "q={q:?} p={p:?} o={o:?} r²={r_sq}"),
                ShellClass::Recompute => recomputes[far] += 1,
            }
        }
        let rate = [0, 1].map(|f| recomputes[f] as f64 / trials[f] as f64);
        assert!(rate[0] > 0.0, "the shell was never exercised");
        assert!(
            rate[1] < 1.5 * rate[0],
            "recompute rate {} at 100 km vs {} at the origin",
            rate[1],
            rate[0]
        );
    }

    /// The translation rounding of the module docs is covered: for
    /// queries up to `r` beyond a leaf's box, the true squared distance
    /// (evaluated in `f64`) is within `Tεsd·T_ERR_WIDEN` plus the
    /// documented `f32` terms of the kernel's `d′²` — near the map
    /// origin, where `q − o` and `p − o` often round, as well as far
    /// out, where both are exact (Sterbenz: `q`, `p` and `o` are within
    /// a factor of two of each other).
    #[test]
    fn query_translation_is_exact_or_covered_by_the_bound() {
        let mut next = stream(0x7A4E_51A7_E000);
        let mut inexact_near = 0u64;
        for trial in 0..200_000usize {
            let far = trial % 2 == 1;
            let reach = if far { 1.0e5 } else { 20.0 };
            let offset = [0, 1, 2].map(|_| {
                let mag = if far {
                    1.0e3 + next() * (reach - 1.0e3)
                } else {
                    next() * reach
                };
                if next() < 0.5 {
                    -mag
                } else {
                    mag
                }
            });
            let (pts, o) = random_leaf(&mut next, offset);
            let (lo, hi) = pts.iter().fold(
                (
                    Point3::splat(f32::INFINITY),
                    Point3::splat(f32::NEG_INFINITY),
                ),
                |(lo, hi), &p| (lo.min(p), hi.max(p)),
            );
            let r = (0.05 + 2.0 * next()) as f32;
            // A query anywhere in the box grown by r on every side.
            let q = Point3::from([0, 1, 2].map(|a| {
                let span = f64::from(hi[a] - lo[a]) + 2.0 * f64::from(r);
                (f64::from(lo[a]) - f64::from(r) + next() * span) as f32
            }));
            let exact = |a: f32, b: f32| f64::from(a - b) == f64::from(a) - f64::from(b);
            let translations_exact =
                (0..3).all(|a| exact(q[a], o[a]) && pts.iter().all(|p| exact(p[a], o[a])));
            if far {
                assert!(
                    translations_exact,
                    "map-frame translation rounded: q={q:?} o={o:?}"
                );
            } else {
                inexact_near += u64::from(!translations_exact);
            }
            for &p in &pts {
                let (d_sq, t_err) = leaf_relative_inputs(q, p, o);
                let truth: f64 = (0..3)
                    .map(|a| (f64::from(q[a]) - f64::from(p[a])).powi(2))
                    .sum();
                let bound = f64::from(t_err * T_ERR_WIDEN)
                    + 8.0 * f64::from(f32::EPSILON) * f64::from(d_sq);
                assert!(
                    (truth - f64::from(d_sq)).abs() <= bound,
                    "q={q:?} p={p:?} o={o:?}: |{truth} − {d_sq}| > {bound}"
                );
            }
        }
        assert!(inexact_near > 0, "no rounded translation near the origin");
    }
}
