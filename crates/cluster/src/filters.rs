//! Point-cloud preprocessing filters (the Autoware euclidean-cluster
//! node's pre-stages), instrumented under the `Preprocess` kernel.

use bonsai_geom::Point3;
use bonsai_sim::{Kernel, OpClass, SimEngine};

/// Branch sites of the preprocessing code.
mod sites {
    pub const CROP: u32 = 0x50;
    pub const RANSAC_INLIER: u32 = 0x51;
}

/// Keeps points within `max_range` of the origin (x–y plane) and with
/// `z` in `[z_min, z_max]` — Autoware's `removePointsUpTo` + `clipCloud`.
///
/// # Examples
///
/// ```
/// use bonsai_cluster::filters::crop;
/// use bonsai_geom::Point3;
/// use bonsai_sim::SimEngine;
///
/// let pts = vec![Point3::new(1.0, 0.0, 0.5), Point3::new(90.0, 0.0, 0.5)];
/// let mut sim = SimEngine::disabled();
/// let kept = crop(&mut sim, &pts, 50.0, -0.5, 3.0);
/// assert_eq!(kept.len(), 1);
/// ```
pub fn crop(
    sim: &mut SimEngine,
    points: &[Point3],
    max_range: f32,
    z_min: f32,
    z_max: f32,
) -> Vec<Point3> {
    let prev = sim.set_kernel(Kernel::Preprocess);
    let src = sim.alloc(points.len() as u64 * 16, 64);
    let dst = sim.alloc(points.len() as u64 * 16, 64);
    let mut out = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        sim.load(src + i as u64 * 16, 12);
        sim.exec(OpClass::FpAlu, 4);
        let keep = p.planar_range() <= max_range && p.z >= z_min && p.z <= z_max;
        sim.branch(sites::CROP, keep);
        if keep {
            sim.store(dst + out.len() as u64 * 16, 12);
            out.push(*p);
        }
    }
    sim.set_kernel(prev);
    out
}

/// Voxel-grid downsampling: one centroid per occupied `voxel_size` cube
/// (PCL `VoxelGrid`, Autoware's `downsampleCloud`).
///
/// Output order follows first occupancy: the voxel of `points[0]` comes
/// first, then each voxel in the order its first point appears, so the
/// result is deterministic. A point's voxel key is
/// `floor(c · (1 / voxel_size))` per coordinate, saturated to `i32`; a
/// NaN coordinate maps to key 0, so NaN points share the voxels around
/// the origin (and their centroid goes NaN). Each centroid is the
/// in-order sum of its points divided by their count.
///
/// Working memory is a probe table of 4 B × `(2n).next_power_of_two()`
/// for `n` input points, plus 32 B × `n` of cell records reserved up
/// front, so the storage never regrows mid-frame. Each occupied voxel
/// has one 32-byte-aligned record holding its key, sum and count: a
/// revisited voxel costs one table probe plus one cache line, and only
/// the records of occupied voxels are ever touched.
///
/// # Panics
///
/// If `voxel_size` is not a positive finite number with a finite
/// reciprocal (`+∞` would collapse the cloud into one voxel; a tiny
/// subnormal size would overflow every key).
pub fn voxel_downsample(sim: &mut SimEngine, points: &[Point3], voxel_size: f32) -> Vec<Point3> {
    assert!(
        voxel_size.is_finite() && voxel_size > 0.0 && (1.0 / voxel_size).is_finite(),
        "voxel size must be positive and finite, with a finite reciprocal"
    );
    assert!(
        points.len() < EMPTY as usize,
        "voxel grid indexes cells with u32"
    );
    let prev = sim.set_kernel(Kernel::Preprocess);
    let src = sim.alloc(points.len() as u64 * 16, 64);
    let inv = 1.0 / voxel_size;
    // Open addressing with linear probing: `table` maps a voxel to its
    // cell, and cells are numbered in first-seen order, so a cell's
    // index is its output slot. At most `n` cells fill a table of at
    // least `2n` entries, so every probe ends at an empty entry.
    let mut table = vec![EMPTY; (2 * points.len()).next_power_of_two()];
    let mask = table.len() - 1;
    let shift = 64 - table.len().trailing_zeros();
    let mut cells: Vec<Cell> = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        sim.load(src + i as u64 * 16, 12);
        // Key computation (3 muls + floors) and hash probe.
        sim.exec(OpClass::FpAlu, 3);
        sim.exec(OpClass::IntAlu, 8);
        let key = (
            floor_i32(p.x * inv),
            floor_i32(p.y * inv),
            floor_i32(p.z * inv),
        );
        let mut h = (voxel_hash(key) >> shift) as usize;
        let cell = loop {
            match table[h] {
                EMPTY => {
                    table[h] = cells.len() as u32;
                    cells.push(Cell {
                        key,
                        sum: Point3::ZERO,
                        count: 0,
                    });
                    break cells.len() - 1;
                }
                c if cells[c as usize].key == key => break c as usize,
                _ => h = (h + 1) & mask,
            }
        };
        let cell = &mut cells[cell];
        cell.sum += *p;
        cell.count += 1;
        sim.store(src + i as u64 * 16, 4); // accumulator update
    }
    let out = cells
        .iter()
        .map(|cell| {
            sim.exec(OpClass::FpAlu, 3);
            cell.sum / cell.count as f32
        })
        .collect();
    sim.set_kernel(prev);
    out
}

/// An empty voxel-grid table entry.
const EMPTY: u32 = u32::MAX;

/// One occupied voxel: its key, the in-order sum of its points and
/// their count. 28 bytes aligned to 32, so a record never straddles a
/// cache line.
#[repr(align(32))]
struct Cell {
    key: (i32, i32, i32),
    sum: Point3,
    count: u32,
}

/// `v.floor() as i32` without the libm call: truncate, then step down
/// when truncation rounded up (negative non-integers). Saturates like
/// `as` (±∞ and values past ±2³¹) and maps NaN to 0.
fn floor_i32(v: f32) -> i32 {
    let t = v as i32;
    if (t as f32) > v {
        t.saturating_sub(1)
    } else {
        t
    }
}

/// Fixed multiplicative hash of a voxel key; its high bits index the
/// table. Voxel keys come from sensor coordinates, not from a party
/// that could craft collisions, so no per-process seed is needed.
fn voxel_hash((x, y, z): (i32, i32, i32)) -> u64 {
    (x as u32 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (y as u32 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ (z as u32 as u64).wrapping_mul(0x1656_67B1_9E37_79F9)
}

/// Hypothesis scoring evaluates every `RANSAC_SCORE_STRIDE`-th point —
/// the standard consensus-sampling shortcut (only the final inlier
/// filter touches every point).
const RANSAC_SCORE_STRIDE: usize = 4;

/// RANSAC ground-plane removal (Autoware's `removeFloor`, PCL
/// `SACSegmentation` with a plane model): fits the dominant
/// near-horizontal plane and drops its inliers.
///
/// Returns the non-ground points. Deterministic: the sample sequence is
/// derived from `seed`.
pub fn remove_ground(
    sim: &mut SimEngine,
    points: &[Point3],
    distance_threshold: f32,
    iterations: u32,
    seed: u64,
) -> Vec<Point3> {
    if points.len() < 3 {
        return points.to_vec();
    }
    let prev = sim.set_kernel(Kernel::Preprocess);
    let src = sim.alloc(points.len() as u64 * 16, 64);
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next_index = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };

    // Best plane as (unit normal, d) with plane: n·p + d = 0.
    let mut best: Option<(Point3, f32, u32)> = None;
    for _ in 0..iterations {
        let (a, b, c) = (
            points[next_index(points.len())],
            points[next_index(points.len())],
            points[next_index(points.len())],
        );
        sim.exec(OpClass::FpAlu, 20); // cross product + normalization
        let Some(normal) = (b - a).cross(c - a).normalized() else {
            continue;
        };
        // Ground planes are near-horizontal.
        if normal.z.abs() < 0.9 {
            continue;
        }
        let d = -normal.dot(a);
        let mut inliers = 0u32;
        for (i, p) in points.iter().enumerate().step_by(RANSAC_SCORE_STRIDE) {
            sim.load(src + i as u64 * 16, 12);
            sim.exec(OpClass::FpAlu, 5);
            let dist = (normal.dot(*p) + d).abs();
            let inlier = dist <= distance_threshold;
            sim.branch(sites::RANSAC_INLIER, inlier);
            if inlier {
                inliers += 1;
            }
        }
        if best.is_none_or(|(_, _, bi)| inliers > bi) {
            best = Some((normal, d, inliers));
        }
    }

    let out = match best {
        Some((normal, d, _)) => points
            .iter()
            .enumerate()
            .filter(|(i, p)| {
                sim.load(src + *i as u64 * 16, 12);
                sim.exec(OpClass::FpAlu, 5);
                (normal.dot(**p) + d).abs() > distance_threshold
            })
            .map(|(_, p)| *p)
            .collect(),
        None => points.to_vec(),
    };
    sim.set_kernel(prev);
    out
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    /// The `SipHash` `HashMap` voxel grid with libm `floor` that
    /// [`voxel_downsample`] replaced: the bit-exact oracle.
    fn reference_voxel_downsample(points: &[Point3], voxel_size: f32) -> Vec<Point3> {
        let inv = 1.0 / voxel_size;
        // Voxel key → (sum, count, output slot).
        let mut cells: HashMap<(i32, i32, i32), (Point3, u32, u32)> = HashMap::new();
        let mut order = 0u32;
        for p in points {
            let key = (
                (p.x * inv).floor() as i32,
                (p.y * inv).floor() as i32,
                (p.z * inv).floor() as i32,
            );
            let entry = cells.entry(key).or_insert_with(|| {
                let slot = order;
                order += 1;
                (Point3::ZERO, 0, slot)
            });
            entry.0 += *p;
            entry.1 += 1;
        }
        let mut out = vec![Point3::ZERO; cells.len()];
        for (sum, count, slot) in cells.values() {
            out[*slot as usize] = *sum / *count as f32;
        }
        out
    }

    fn bits(points: &[Point3]) -> Vec<[u32; 3]> {
        points
            .iter()
            .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
            .collect()
    }

    /// A seeded cloud mixing the coordinates where a voxel grid can go
    /// wrong: negatives, exact voxel boundaries, ±0, keys that saturate
    /// past ±2³¹ (±∞ included), NaN, and repeats of earlier points.
    fn adversarial_cloud(seed: u64, len: usize, voxel_size: f32) -> Vec<Point3> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let coord = |r: u64| -> f32 {
            let signed = |v: f32| if r & 1 == 0 { v } else { -v };
            match (r >> 1) % 10 {
                0..=3 => ((r >> 8) % 20_000) as f32 * 0.003 - 30.0,
                4 => ((r >> 8) % 101) as f32 * voxel_size - 50.0 * voxel_size,
                5 => signed(0.0),
                6 => signed([3.0e9, 1.0e12, 3.4e38, f32::INFINITY][(r >> 8) as usize % 4]),
                7 => f32::NAN,
                _ => ((r >> 8) % 7) as f32 * 0.37 - 1.0,
            }
        };
        let mut cloud: Vec<Point3> = Vec::with_capacity(len);
        while cloud.len() < len {
            if !cloud.is_empty() && next() % 4 == 0 {
                let prior = cloud[next() as usize % cloud.len()];
                cloud.push(prior);
            } else {
                cloud.push(Point3::new(coord(next()), coord(next()), coord(next())));
            }
        }
        cloud
    }

    #[test]
    fn voxel_downsample_matches_hashmap_reference_bit_for_bit() {
        let mut sim = SimEngine::disabled();
        for seed in 0..300u64 {
            let voxel_size = [0.1, 0.25, 0.3, 0.4, 1.0, 3.7][seed as usize % 6];
            let len = 1 + (seed as usize * 37) % 400;
            let cloud = adversarial_cloud(seed, len, voxel_size);
            let got = voxel_downsample(&mut sim, &cloud, voxel_size);
            let want = reference_voxel_downsample(&cloud, voxel_size);
            assert_eq!(bits(&got), bits(&want), "seed {seed}, size {voxel_size}");
        }
        let one_voxel: Vec<Point3> = (0..50)
            .map(|i| Point3::new(0.2 + i as f32 * 0.001, -0.3, 0.0))
            .collect();
        for cloud in [
            vec![],
            vec![Point3::new(-0.0, 0.0, -1.5)],
            vec![Point3::new(f32::NAN, 2.0, -0.0)],
            one_voxel,
        ] {
            let got = voxel_downsample(&mut sim, &cloud, 0.5);
            assert_eq!(bits(&got), bits(&reference_voxel_downsample(&cloud, 0.5)));
            assert!(got.len() <= 1);
        }
    }

    #[test]
    fn inline_floor_matches_libm_floor() {
        let specials = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            -1.0,
            2.147_483_6e9,
            -2.147_483_6e9,
            3.0e9,
            -3.0e9,
        ];
        let specials = specials
            .into_iter()
            .chain([f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
        let sweep = (0..=u32::MAX).step_by(4099).map(f32::from_bits);
        for v in specials.chain(sweep) {
            assert_eq!(
                floor_i32(v),
                v.floor() as i32,
                "{v} ({:#010x})",
                v.to_bits()
            );
        }
    }

    #[test]
    fn crop_respects_all_three_limits() {
        let pts = vec![
            Point3::new(10.0, 0.0, 1.0),  // keep
            Point3::new(80.0, 0.0, 1.0),  // too far
            Point3::new(10.0, 0.0, -2.0), // too low
            Point3::new(10.0, 0.0, 9.0),  // too high
        ];
        let mut sim = SimEngine::disabled();
        let kept = crop(&mut sim, &pts, 50.0, -0.5, 3.0);
        assert_eq!(kept, vec![Point3::new(10.0, 0.0, 1.0)]);
    }

    #[test]
    fn voxel_downsample_merges_within_cells() {
        let pts = vec![
            Point3::new(0.01, 0.01, 0.01),
            Point3::new(0.09, 0.09, 0.09), // same 0.1 voxel
            Point3::new(0.51, 0.0, 0.0),   // different voxel
        ];
        let mut sim = SimEngine::disabled();
        let out = voxel_downsample(&mut sim, &pts, 0.1);
        assert_eq!(out.len(), 2);
        let centroid = out[0];
        assert!((centroid.x - 0.05).abs() < 1e-6);
    }

    #[test]
    fn voxel_downsample_is_deterministic() {
        let pts: Vec<Point3> = (0..500)
            .map(|i| Point3::new((i % 31) as f32 * 0.07, (i % 17) as f32 * 0.07, 0.0))
            .collect();
        let mut sim = SimEngine::disabled();
        let a = voxel_downsample(&mut sim, &pts, 0.2);
        let b = voxel_downsample(&mut sim, &pts, 0.2);
        assert_eq!(a, b);
    }

    #[test]
    fn ground_removal_keeps_objects() {
        // Flat ground at z=0 plus a box of points at z ∈ [1, 2].
        let mut pts = Vec::new();
        for i in 0..40 {
            for j in 0..40 {
                pts.push(Point3::new(i as f32 * 0.5, j as f32 * 0.5, 0.02));
            }
        }
        let object: Vec<Point3> = (0..100)
            .map(|i| Point3::new(5.0, (i % 10) as f32 * 0.1, 1.0 + (i / 10) as f32 * 0.1))
            .collect();
        pts.extend_from_slice(&object);
        let mut sim = SimEngine::disabled();
        let out = remove_ground(&mut sim, &pts, 0.15, 30, 7);
        // All object points survive; almost all ground removed.
        assert!(out.len() >= 100 && out.len() < 200, "kept {}", out.len());
        for p in &object {
            assert!(out.contains(p));
        }
    }

    #[test]
    fn ground_removal_handles_tiny_inputs() {
        let pts = vec![Point3::ZERO, Point3::new(1.0, 0.0, 0.0)];
        let mut sim = SimEngine::disabled();
        assert_eq!(remove_ground(&mut sim, &pts, 0.1, 10, 1).len(), 2);
    }

    #[test]
    fn filters_charge_preprocess_kernel() {
        let pts: Vec<Point3> = (0..200)
            .map(|i| Point3::new(i as f32 * 0.1, 0.0, 0.5))
            .collect();
        let mut sim = SimEngine::new(&bonsai_sim::CpuConfig::a72_like());
        crop(&mut sim, &pts, 50.0, -1.0, 3.0);
        voxel_downsample(&mut sim, &pts, 0.2);
        let pre = sim.kernel_counters(Kernel::Preprocess);
        assert!(pre.loads >= 400);
        assert_eq!(sim.kernel_counters(Kernel::Build).micro_ops(), 0);
    }

    #[test]
    fn preprocess_sim_events_are_pinned() {
        // Crop drops every fifth point (above `z_max`); the voxel grid
        // then merges nearby points and revisits earlier voxels.
        let pts: Vec<Point3> = (0..240)
            .map(|i| {
                Point3::new(
                    (i % 23) as f32 * 0.13 - 1.0,
                    (i % 11) as f32 * 0.07,
                    (i % 5) as f32 * 0.9 - 0.4,
                )
            })
            .collect();
        let mut sim = SimEngine::new(&bonsai_sim::CpuConfig::a72_like());
        let kept = crop(&mut sim, &pts, 40.0, -0.5, 3.0);
        let down = voxel_downsample(&mut sim, &kept, 0.5);
        assert_eq!((kept.len(), down.len()), (192, 47));
        // Recorded with the `HashMap` grid (`reference_voxel_downsample`),
        // whose event stream the open-addressing table keeps exactly.
        let pre = sim.kernel_counters(Kernel::Preprocess);
        assert_eq!(pre.ops, [1536, 1677, 0, 432, 384, 240, 0, 0]);
        assert_eq!((pre.loads, pre.stores), (432, 384));
        assert_eq!((pre.loaded_bytes, pre.stored_bytes), (5184, 3072));
        assert_eq!(pre.branches, 240);
    }

    #[test]
    #[should_panic(expected = "voxel size")]
    fn zero_voxel_size_rejected() {
        let mut sim = SimEngine::disabled();
        voxel_downsample(&mut sim, &[Point3::ZERO], 0.0);
    }

    #[test]
    #[should_panic(expected = "voxel size")]
    fn infinite_voxel_size_rejected() {
        let mut sim = SimEngine::disabled();
        voxel_downsample(&mut sim, &[Point3::ZERO], f32::INFINITY);
    }

    #[test]
    #[should_panic(expected = "voxel size")]
    fn nan_voxel_size_rejected() {
        let mut sim = SimEngine::disabled();
        voxel_downsample(&mut sim, &[Point3::ZERO], f32::NAN);
    }

    #[test]
    #[should_panic(expected = "voxel size")]
    fn subnormal_voxel_size_rejected() {
        let mut sim = SimEngine::disabled();
        voxel_downsample(&mut sim, &[Point3::ZERO], f32::from_bits(1));
    }
}
