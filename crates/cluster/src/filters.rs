//! Point-cloud preprocessing filters (the Autoware euclidean-cluster
//! node's pre-stages), instrumented under the `Preprocess` kernel.
//!
//! The host loops keep data-dependent branches out of the per-point
//! arithmetic. [`crop`] and [`remove_ground`] write every point of a
//! chunk to the next slot of a buffer and advance the slot by the keep
//! bit; ground removal scores each plane hypothesis over one strided
//! structure-of-arrays copy of the scored points; [`voxel_downsample`]
//! computes the keys and hashes of a chunk of points before any of them
//! probes its table (the probe itself still branches on hit or miss).
//! The per-point simulator events keep the order the scalar filters
//! charged them in; they come from a second loop that runs only under
//! an enabled simulator.
//!
//! Each public filter runs on fresh buffers.
//! [`FramePipeline`](crate::FramePipeline) instead keeps one workspace
//! of filter buffers that it reuses across frames, so a warm frame
//! allocates only the cloud it returns.

use bonsai_geom::Point3;
use bonsai_sim::{Kernel, OpClass, SimEngine};

use crate::ClusterParams;

/// Branch sites of the preprocessing code.
mod sites {
    pub const CROP: u32 = 0x50;
    pub const RANSAC_INLIER: u32 = 0x51;
}

/// The buffers of the three filters, kept across frames. Every pass
/// clears or refills a buffer before it reads it, so the output never
/// depends on what the workspace processed before.
#[derive(Default)]
pub(crate) struct Workspace {
    cropped: Vec<Point3>,
    grid: VoxelGrid,
    down: Vec<Point3>,
    ground: GroundScratch,
    kept: Vec<Point3>,
}

impl Workspace {
    /// Crop → voxel grid → ground removal with the parameters `p`. Once
    /// the buffers have grown to a frame's size, the returned cloud
    /// (exactly sized) is the only allocation.
    pub(crate) fn preprocess(
        &mut self,
        sim: &mut SimEngine,
        raw_cloud: &[Point3],
        p: &ClusterParams,
    ) -> Vec<Point3> {
        crop_into(
            sim,
            raw_cloud,
            p.crop_range,
            p.crop_z_min,
            p.crop_z_max,
            &mut self.cropped,
        );
        self.grid
            .downsample(sim, &self.cropped, p.voxel_size, &mut self.down);
        self.ground.remove(
            sim,
            &self.down,
            p.ground_threshold,
            p.ground_iterations,
            GROUND_SEED,
            &mut self.kept,
        );
        self.kept.clone()
    }
}

/// The RANSAC sample seed of the frame pipeline's ground removal.
const GROUND_SEED: u64 = 11;

/// Points a host loop handles as one block: the voxel grid computes
/// their keys and table slots ahead of their probes, and [`compact`]
/// gathers the kept ones in a stack buffer.
const CHUNK: usize = 64;

/// Replaces `out` with the points `keep` accepts, in order, without a
/// branch on the outcome: each point of a chunk is written to the next
/// free slot of a stack buffer, which advances by the keep bit, and the
/// kept prefix is appended to `out`.
fn compact(points: &[Point3], out: &mut Vec<Point3>, keep: impl Fn(&Point3) -> bool) {
    out.clear();
    out.reserve(points.len());
    let mut kept = [Point3::ZERO; CHUNK];
    for chunk in points.chunks(CHUNK) {
        let mut len = 0;
        for p in chunk {
            kept[len] = *p;
            len += usize::from(keep(p));
        }
        out.extend_from_slice(&kept[..len]);
    }
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
    let mut out = Vec::new();
    crop_into(sim, points, max_range, z_min, z_max, &mut out);
    out
}

/// [`crop`] into `out`, whose previous contents are discarded.
fn crop_into(
    sim: &mut SimEngine,
    points: &[Point3],
    max_range: f32,
    z_min: f32,
    z_max: f32,
    out: &mut Vec<Point3>,
) {
    let prev = sim.set_kernel(Kernel::Preprocess);
    let src = sim.alloc(points.len() as u64 * 16, 64);
    let dst = sim.alloc(points.len() as u64 * 16, 64);
    let in_crop = |p: &Point3| (p.planar_range() <= max_range) & (p.z >= z_min) & (p.z <= z_max);
    compact(points, out, in_crop);
    if sim.is_enabled() {
        let mut kept = 0u64;
        for (i, p) in points.iter().enumerate() {
            sim.load(src + i as u64 * 16, 12);
            sim.exec(OpClass::FpAlu, 4);
            let keep = in_crop(p);
            sim.branch(sites::CROP, keep);
            if keep {
                sim.store(dst + kept * 16, 12);
                kept += 1;
            }
        }
    }
    sim.set_kernel(prev);
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
/// the records of occupied voxels are ever touched. The keys and table
/// slots of a chunk of 64 points are computed before any of them
/// probes, so that arithmetic runs free of the probe loop's branches.
/// A chunk whose scaled coordinates all lie below 2²² in magnitude
/// (every chunk of a drive frame) takes its floors from float adds and
/// integer ops; one with a NaN, ±∞ or far coordinate falls back to the
/// saturating floor. Both give the same keys.
/// This function allocates the table and records for the one call;
/// [`FramePipeline`](crate::FramePipeline) keeps them across frames and
/// only refills the table.
///
/// # Panics
///
/// If `voxel_size` is not a positive finite number with a finite
/// reciprocal (`+∞` would collapse the cloud into one voxel; a tiny
/// subnormal size would overflow every key).
pub fn voxel_downsample(sim: &mut SimEngine, points: &[Point3], voxel_size: f32) -> Vec<Point3> {
    let mut out = Vec::new();
    VoxelGrid::default().downsample(sim, points, voxel_size, &mut out);
    out
}

/// An empty voxel-grid table entry.
const EMPTY: u32 = u32::MAX;

/// The voxel grid's storage: the probe table and one record per
/// occupied voxel.
#[derive(Default)]
struct VoxelGrid {
    table: Vec<u32>,
    cells: Vec<Cell>,
}

/// One occupied voxel: its key, the in-order sum of its points and
/// their count. 28 bytes aligned to 32, so a record never straddles a
/// cache line.
#[repr(align(32))]
struct Cell {
    key: [i32; 3],
    sum: Point3,
    count: u32,
}

/// Whether [`voxel_downsample`] accepts `voxel_size`: positive and
/// finite, with a finite reciprocal.
pub(crate) fn voxel_size_is_valid(voxel_size: f32) -> bool {
    voxel_size.is_finite() && voxel_size > 0.0 && (1.0 / voxel_size).is_finite()
}

impl VoxelGrid {
    /// [`voxel_downsample`] into `out`, whose previous contents are
    /// discarded.
    fn downsample(
        &mut self,
        sim: &mut SimEngine,
        points: &[Point3],
        voxel_size: f32,
        out: &mut Vec<Point3>,
    ) {
        assert!(
            voxel_size_is_valid(voxel_size),
            "voxel size must be positive and finite, with a finite reciprocal"
        );
        assert!(
            points.len() < EMPTY as usize,
            "voxel grid indexes cells with u32"
        );
        let prev = sim.set_kernel(Kernel::Preprocess);
        let src = sim.alloc(points.len() as u64 * 16, 64);
        let inv = 1.0 / voxel_size;
        // Open addressing with linear probing: `table` maps a voxel to
        // its cell, and cells are numbered in first-seen order, so a
        // cell's index is its output slot. At most `n` cells fill a
        // table of at least `2n` entries, so every probe ends at an
        // empty entry.
        self.table.clear();
        self.table
            .resize((2 * points.len()).next_power_of_two(), EMPTY);
        let table = &mut self.table[..];
        let mask = table.len() - 1;
        let shift = 64 - table.len().trailing_zeros();
        let cells = &mut self.cells;
        cells.clear();
        cells.reserve(points.len());
        let mut keys = [[0i32; 3]; CHUNK];
        let mut homes = [0usize; CHUNK];
        for chunk in points.chunks(CHUNK) {
            let keys = &mut keys[..chunk.len()];
            if !near_floor_keys(chunk, inv, keys) {
                for (p, key) in chunk.iter().zip(keys.iter_mut()) {
                    *key = [
                        floor_i32(p.x * inv),
                        floor_i32(p.y * inv),
                        floor_i32(p.z * inv),
                    ];
                }
            }
            for (key, home) in keys.iter().zip(&mut homes) {
                *home = (voxel_hash(*key) >> shift) as usize;
            }
            for ((p, key), &home) in chunk.iter().zip(keys.iter()).zip(&homes) {
                let mut h = home;
                let cell = loop {
                    match table[h] {
                        EMPTY => {
                            table[h] = cells.len() as u32;
                            cells.push(Cell {
                                key: *key,
                                sum: Point3::ZERO,
                                count: 0,
                            });
                            break cells.len() - 1;
                        }
                        c if cells[c as usize].key == *key => break c as usize,
                        _ => h = (h + 1) & mask,
                    }
                };
                let cell = &mut cells[cell];
                cell.sum += *p;
                cell.count += 1;
            }
        }
        if sim.is_enabled() {
            for i in 0..points.len() as u64 {
                sim.load(src + i * 16, 12);
                // Key computation (3 muls + floors) and hash probe.
                sim.exec(OpClass::FpAlu, 3);
                sim.exec(OpClass::IntAlu, 8);
                sim.store(src + i * 16, 4); // accumulator update
            }
        }
        out.clear();
        out.extend(cells.iter().map(|cell| cell.sum / cell.count as f32));
        sim.exec(OpClass::FpAlu, 3 * cells.len() as u64);
        sim.set_kernel(prev);
    }
}

/// `v.floor() as i32` without the libm call or a branch: truncate, then
/// step down when truncation rounded up (negative non-integers).
/// Saturates like `as` (±∞ and values past ±2³¹) and maps NaN to 0.
#[inline]
fn floor_i32(v: f32) -> i32 {
    let t = v as i32;
    t.saturating_sub(i32::from(t as f32 > v))
}

/// `1.5 · 2²³`: adding it to an `f32` of magnitude below
/// [`NEAR_LIMIT`] rounds the sum to an integer (the ulp of
/// `[2²³, 2²⁴)` is 1), whose bit pattern is `MAGIC_BITS` plus that
/// integer.
const MAGIC: f32 = 12_582_912.0;
const MAGIC_BITS: i32 = 0x4B40_0000;
/// `2²²`: below it in magnitude [`near_floor`] is exact.
const NEAR_LIMIT: f32 = 4_194_304.0;

/// [`floor_i32`] of `v` for `|v| < 2²²`, computed with float adds and
/// integer ops only (no saturating conversion, so it vectorizes), and
/// whether `v` is in that range (false for NaN and ±∞). `v + MAGIC`
/// rounds `v` to its nearest integer `n`; subtracting `MAGIC` again is
/// exact and gives `n` as a float, and the floor is `n` less one where
/// that overshot `v`.
#[inline]
fn near_floor(v: f32) -> (i32, bool) {
    let rounded = v + MAGIC;
    let n = (rounded.to_bits() as i32).wrapping_sub(MAGIC_BITS);
    (n - i32::from(rounded - MAGIC > v), v.abs() < NEAR_LIMIT)
}

/// The voxel keys of `chunk` into `keys` (as long), by [`near_floor`];
/// false, leaving `keys` unspecified, when a scaled coordinate is NaN or
/// at least `2²²` in magnitude.
#[inline]
fn near_floor_keys(chunk: &[Point3], inv: f32, keys: &mut [[i32; 3]]) -> bool {
    let mut near = true;
    for (p, key) in chunk.iter().zip(keys) {
        let (x, near_x) = near_floor(p.x * inv);
        let (y, near_y) = near_floor(p.y * inv);
        let (z, near_z) = near_floor(p.z * inv);
        *key = [x, y, z];
        near &= near_x & near_y & near_z;
    }
    near
}

/// Fixed multiplicative hash of a voxel key; its high bits index the
/// table. Voxel keys come from sensor coordinates, not from a party
/// that could craft collisions, so no per-process seed is needed.
#[inline]
fn voxel_hash([x, y, z]: [i32; 3]) -> u64 {
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
    let mut out = Vec::new();
    GroundScratch::default().remove(sim, points, distance_threshold, iterations, seed, &mut out);
    out
}

/// Ground removal's scoring copy: the coordinates of every
/// [`RANSAC_SCORE_STRIDE`]-th point, one row per axis.
#[derive(Default)]
struct GroundScratch {
    x: Vec<f32>,
    y: Vec<f32>,
    z: Vec<f32>,
}

/// A point's distance from the plane `normal · p + d = 0`, summed in
/// the order of `normal.dot(p) + d`.
#[inline]
fn plane_gap(x: f32, y: f32, z: f32, normal: Point3, d: f32) -> f32 {
    (normal.x * x + normal.y * y + normal.z * z + d).abs()
}

impl GroundScratch {
    /// [`remove_ground`] into `out`, whose previous contents are
    /// discarded.
    fn remove(
        &mut self,
        sim: &mut SimEngine,
        points: &[Point3],
        distance_threshold: f32,
        iterations: u32,
        seed: u64,
        out: &mut Vec<Point3>,
    ) {
        out.clear();
        if points.len() < 3 {
            out.extend_from_slice(points);
            return;
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
        let (xs, ys, zs) = (&mut self.x, &mut self.y, &mut self.z);
        xs.clear();
        ys.clear();
        zs.clear();
        for p in points.iter().step_by(RANSAC_SCORE_STRIDE) {
            xs.push(p.x);
            ys.push(p.y);
            zs.push(p.z);
        }
        let (xs, ys, zs) = (&xs[..], &ys[..], &zs[..]);

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
            let scored = || xs.iter().zip(ys).zip(zs);
            let inlier = |((&x, &y), &z)| plane_gap(x, y, z, normal, d) <= distance_threshold;
            let inliers: u32 = scored().map(|p| u32::from(inlier(p))).sum();
            if sim.is_enabled() {
                for (k, p) in scored().enumerate() {
                    sim.load(src + (k * RANSAC_SCORE_STRIDE) as u64 * 16, 12);
                    sim.exec(OpClass::FpAlu, 5);
                    sim.branch(sites::RANSAC_INLIER, inlier(p));
                }
            }
            if best.is_none_or(|(_, _, bi)| inliers > bi) {
                best = Some((normal, d, inliers));
            }
        }

        match best {
            Some((normal, d, _)) => {
                compact(points, out, |p| {
                    plane_gap(p.x, p.y, p.z, normal, d) > distance_threshold
                });
                if sim.is_enabled() {
                    for i in 0..points.len() as u64 {
                        sim.load(src + i * 16, 12);
                        sim.exec(OpClass::FpAlu, 5);
                    }
                }
            }
            None => out.extend_from_slice(points),
        }
        sim.set_kernel(prev);
    }
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

    /// The scalar crop that [`crop`] replaced, events included: the
    /// bit-exact oracle of its output and its simulator event stream.
    fn reference_crop(
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

    /// The scalar RANSAC ground removal that [`remove_ground`]
    /// replaced, events included: the bit-exact oracle of its output and
    /// its simulator event stream.
    fn reference_remove_ground(
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
        let mut best: Option<(Point3, f32, u32)> = None;
        for _ in 0..iterations {
            let (a, b, c) = (
                points[next_index(points.len())],
                points[next_index(points.len())],
                points[next_index(points.len())],
            );
            sim.exec(OpClass::FpAlu, 20);
            let Some(normal) = (b - a).cross(c - a).normalized() else {
                continue;
            };
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

    /// Crop limits and ground threshold of the filter oracles below.
    const RANGE: f32 = 40.0;
    const Z_MIN: f32 = -0.5;
    const Z_MAX: f32 = 3.0;
    const THRESHOLD: f32 = 0.12;

    /// The next `f32` above `v` (`v` finite and positive).
    fn above(v: f32) -> f32 {
        f32::from_bits(v.to_bits() + 1)
    }

    /// A seeded cloud for crop and ground removal: flat ground at
    /// `z = 0` (so fitted planes are often exactly `z = 0`), points
    /// exactly at `RANGE` (planar), at both z limits and at
    /// `±THRESHOLD`, one float past each, NaN, ±∞ and ±0 coordinates,
    /// and repeats of earlier points.
    fn filter_cloud(seed: u64, len: usize) -> Vec<Point3> {
        let mut state = seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut cloud: Vec<Point3> = Vec::with_capacity(len);
        while cloud.len() < len {
            let r = next();
            let sign = |v: f32| if r >> 60 & 1 == 0 { v } else { -v };
            let x = ((r >> 8) % 4000) as f32 * 0.01 - 20.0;
            let y = ((r >> 20) % 4000) as f32 * 0.01 - 20.0;
            let special =
                [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(r >> 32) as usize % 5];
            let p = match r % 12 {
                0..=3 => Point3::new(x, y, 0.0),
                4 => Point3::new(sign(24.0), sign(32.0), 1.0),
                5 => Point3::new(sign(above(RANGE)), 0.0, 1.0),
                6 => Point3::new(
                    x,
                    y,
                    [Z_MIN, Z_MAX, above(Z_MAX), -above(-Z_MIN)][(r >> 40) as usize % 4],
                ),
                7 => Point3::new(
                    x,
                    y,
                    [THRESHOLD, -THRESHOLD, above(THRESHOLD)][(r >> 40) as usize % 3],
                ),
                8 => Point3::new(special, y, 1.0),
                9 => Point3::new(x, special, sign(THRESHOLD)),
                10 if !cloud.is_empty() => cloud[(r >> 8) as usize % cloud.len()],
                _ => Point3::new(x, y, ((r >> 40) % 300) as f32 * 0.01),
            };
            cloud.push(p);
        }
        cloud
    }

    /// Ground tilted off the axes, half of it in a thin band of
    /// perpendicular distances around `THRESHOLD`, spaced about one
    /// rounding error apart: a plane distance summed in another order
    /// than `normal.dot(p) + d` flips some of them across the threshold.
    fn tilted_cloud(seed: u64, len: usize) -> Vec<Point3> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Vertical offset per unit of perpendicular distance.
        let secant = (1.0f32 + 0.05 * 0.05 + 0.03 * 0.03).sqrt();
        (0..len)
            .map(|_| {
                let r = next();
                let x = ((r >> 8) % 40_000) as f32 * 0.001 - 20.0;
                let y = ((r >> 24) % 40_000) as f32 * 0.001 - 20.0;
                let band = ((r >> 40) % 41) as f32 - 20.0;
                let offset = match r % 4 {
                    0 | 1 => 0.0,
                    2 => THRESHOLD * secant * (1.0 + band * 1.0e-6),
                    _ => -THRESHOLD * secant * (1.0 + band * 1.0e-6),
                };
                Point3::new(x, y, 0.05 * x - 0.03 * y + offset)
            })
            .collect()
    }

    /// An enabled simulator, so the oracles compare event streams too.
    fn instrumented() -> SimEngine {
        SimEngine::new(&bonsai_sim::CpuConfig::a72_like())
    }

    /// Lengths from large to small to large again, through the voxel
    /// chunk boundaries and around the ground-scoring stride, so a
    /// reused buffer's stale table entries, cells or tails would show.
    const REUSE_LENGTHS: [usize; 27] = [
        700, 129, 128, 127, 65, 64, 63, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 5, 63, 64, 65, 127, 128, 129,
        300, 1000, 11,
    ];

    #[test]
    fn voxel_downsample_matches_hashmap_reference_bit_for_bit() {
        let mut sim = SimEngine::disabled();
        let (mut grid, mut reused) = (VoxelGrid::default(), Vec::new());
        for seed in 0..300u64 {
            let voxel_size = [0.1, 0.25, 0.3, 0.4, 1.0, 3.7][seed as usize % 6];
            let len = 1 + (seed as usize * 37) % 400;
            let cloud = adversarial_cloud(seed, len, voxel_size);
            let got = voxel_downsample(&mut sim, &cloud, voxel_size);
            let want = reference_voxel_downsample(&cloud, voxel_size);
            assert_eq!(bits(&got), bits(&want), "seed {seed}, size {voxel_size}");
            grid.downsample(&mut sim, &cloud, voxel_size, &mut reused);
            assert_eq!(bits(&reused), bits(&want), "reused, seed {seed}");
            // Without NaN, ±∞ or far coordinates every chunk takes the
            // `near_floor` keys.
            let near: Vec<Point3> = cloud
                .into_iter()
                .filter(|p| [p.x, p.y, p.z].iter().all(|c| c.abs() < 1.0e5))
                .collect();
            let want = reference_voxel_downsample(&near, voxel_size);
            grid.downsample(&mut sim, &near, voxel_size, &mut reused);
            assert_eq!(bits(&reused), bits(&want), "near, seed {seed}");
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
    fn crop_matches_scalar_reference_bit_for_bit() {
        let mut reused = Vec::new();
        for seed in 0..120u64 {
            let cloud = filter_cloud(seed, (seed as usize * 53) % 300);
            let (mut sim, mut want_sim) = (instrumented(), instrumented());
            let want = reference_crop(&mut want_sim, &cloud, RANGE, Z_MIN, Z_MAX);
            let got = crop(&mut sim, &cloud, RANGE, Z_MIN, Z_MAX);
            assert_eq!(bits(&got), bits(&want), "seed {seed}");
            assert_eq!(
                sim.kernel_counters(Kernel::Preprocess),
                want_sim.kernel_counters(Kernel::Preprocess),
                "seed {seed}: events"
            );
            crop_into(
                &mut SimEngine::disabled(),
                &cloud,
                RANGE,
                Z_MIN,
                Z_MAX,
                &mut reused,
            );
            assert_eq!(bits(&reused), bits(&want), "reused, seed {seed}");
        }
        // Exactly at the limits is inside; one float past is outside.
        let edge = [
            Point3::new(24.0, 32.0, Z_MIN),
            Point3::new(-40.0, 0.0, Z_MAX),
            Point3::new(above(RANGE), 0.0, 0.0),
            Point3::new(0.0, 0.0, above(Z_MAX)),
            Point3::new(f32::NAN, 0.0, 0.0),
        ];
        let kept = crop(&mut SimEngine::disabled(), &edge, RANGE, Z_MIN, Z_MAX);
        assert_eq!(bits(&kept), bits(&edge[..2]));
    }

    #[test]
    fn remove_ground_matches_scalar_reference_bit_for_bit() {
        let mut scratch = GroundScratch::default();
        let mut reused = Vec::new();
        let mut cases: Vec<Vec<Point3>> =
            (0..=9).map(|len| filter_cloud(len as u64, len)).collect();
        cases.extend((0..80u64).map(|seed| filter_cloud(seed, 10 + (seed as usize * 41) % 400)));
        // Every sample degenerate (repeats, then collinear points): no
        // normal, no plane, every point kept.
        cases.extend((0..20u64).map(|seed| tilted_cloud(seed, 600)));
        cases.push(vec![Point3::new(1.0, 2.0, 0.0); 40]);
        cases.push((0..40).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect());
        for (case, cloud) in cases.iter().enumerate() {
            for seed in [1, 11, 0xDEAD] {
                let (mut sim, mut want_sim) = (instrumented(), instrumented());
                let want = reference_remove_ground(&mut want_sim, cloud, THRESHOLD, 12, seed);
                let got = remove_ground(&mut sim, cloud, THRESHOLD, 12, seed);
                assert_eq!(bits(&got), bits(&want), "case {case}, seed {seed}");
                assert_eq!(
                    sim.kernel_counters(Kernel::Preprocess),
                    want_sim.kernel_counters(Kernel::Preprocess),
                    "case {case}, seed {seed}: events"
                );
                let mut off = SimEngine::disabled();
                scratch.remove(&mut off, cloud, THRESHOLD, 12, seed, &mut reused);
                assert_eq!(bits(&reused), bits(&want), "reused, case {case}");
            }
        }
        let degenerate = &cases[cases.len() - 2..];
        for cloud in degenerate {
            let kept = remove_ground(&mut SimEngine::disabled(), cloud, THRESHOLD, 12, 11);
            assert_eq!(bits(&kept), bits(cloud));
        }
    }

    /// One workspace through every filter over clouds that shrink and
    /// grow again: each output equals its oracle's on fresh buffers.
    #[test]
    fn reused_workspace_matches_references_across_sizes() {
        let mut ws = Workspace::default();
        let mut sim = SimEngine::disabled();
        for (step, &len) in REUSE_LENGTHS.iter().enumerate() {
            let seed = step as u64 + 1000;
            let cloud = filter_cloud(seed, len);
            crop_into(&mut sim, &cloud, RANGE, Z_MIN, Z_MAX, &mut ws.cropped);
            let want = reference_crop(&mut sim, &cloud, RANGE, Z_MIN, Z_MAX);
            assert_eq!(bits(&ws.cropped), bits(&want), "crop, length {len}");

            let cloud = adversarial_cloud(seed, len, 0.3);
            ws.grid.downsample(&mut sim, &cloud, 0.3, &mut ws.down);
            let want = reference_voxel_downsample(&cloud, 0.3);
            assert_eq!(bits(&ws.down), bits(&want), "voxel grid, length {len}");

            let cloud = filter_cloud(seed, len);
            ws.ground
                .remove(&mut sim, &cloud, THRESHOLD, 12, 11, &mut ws.kept);
            let want = reference_remove_ground(&mut sim, &cloud, THRESHOLD, 12, 11);
            assert_eq!(bits(&ws.kept), bits(&want), "ground, length {len}");
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
    fn near_floor_matches_libm_floor_below_two_to_the_22() {
        let limit = NEAR_LIMIT;
        let edges = [0.0, -0.0, 0.5, -0.5, 1.5, 2.5, -2.5, 0.999_999_94, -1.0e-30]
            .into_iter()
            .chain([
                limit,
                limit - 0.5,
                limit - 1.0,
                f32::from_bits(limit.to_bits() - 1),
            ])
            .flat_map(|v| [v, -v]);
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3.0e9, -1.0e12];
        let sweep = (0..=u32::MAX).step_by(1021).map(f32::from_bits);
        let mut near = 0;
        for v in edges.chain(specials).chain(sweep) {
            let (floor, in_range) = near_floor(v);
            assert_eq!(in_range, v.abs() < limit, "{v}");
            if in_range {
                near += 1;
                assert_eq!(floor, v.floor() as i32, "{v} ({:#010x})", v.to_bits());
            }
        }
        assert!(near > 1_000_000, "{near} in-range values checked");
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
