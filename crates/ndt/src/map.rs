use std::collections::HashMap;

use bonsai_geom::{Mat3, Point3};
use bonsai_sim::{Kernel, OpClass, SimEngine};

/// One NDT voxel: the Gaussian fitted to the map points inside a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NdtCell {
    /// Mean of the cell's points.
    pub mean: Point3,
    /// Inverse covariance (the information matrix), regularized.
    pub inv_cov: Mat3,
    /// Number of points the Gaussian was fitted to.
    pub count: u32,
}

/// The voxelized NDT map: Gaussian cells over a world-frame point cloud.
///
/// Cell centroids form a small point cloud of their own; the matcher
/// builds a k-d tree over it and radius-searches it once per scan point
/// per Newton iteration.
#[derive(Debug, Clone)]
pub struct NdtMap {
    cells: Vec<NdtCell>,
    resolution: f32,
    /// Simulated base address of the cell array (mean + inv_cov + count
    /// ≈ 88 bytes per cell).
    cells_addr: u64,
}

/// Simulated bytes per stored cell.
pub(crate) const CELL_STRIDE: u64 = 88;

/// Minimum points for a well-conditioned Gaussian (PCL uses 6).
const MIN_POINTS_PER_CELL: u32 = 6;

impl NdtMap {
    /// Voxelizes `map_cloud` at `resolution` and fits per-cell Gaussians.
    /// Points with a non-finite coordinate are skipped.
    ///
    /// Work is charged to the `Build` kernel (map building is offline in
    /// Autoware, but the charge keeps accounting complete).
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not positive.
    pub fn build(sim: &mut SimEngine, map_cloud: &[Point3], resolution: f32) -> NdtMap {
        assert!(resolution > 0.0, "resolution must be positive");
        let prev = sim.set_kernel(Kernel::Build);
        let src = sim.alloc(map_cloud.len() as u64 * 16, 64);
        let inv = 1.0 / resolution;

        // First pass: accumulate per-cell sums in f64, in dense rows a
        // key → row table indexes. With the 104-byte sums outside it the
        // table is ≈7× smaller (≈4.5 MB, not ≈32 MB, for a 500 k-point
        // map): a table near glibc's 32 MiB dynamic mmap ceiling reused
        // freed memory or faulted in fresh pages depending on unrelated
        // allocations, which swung the build time by a quarter.
        struct Acc {
            sum: [f64; 3],
            outer: [[f64; 3]; 3],
            n: u32,
        }
        let mut rows: HashMap<(i32, i32, i32), u32> = HashMap::new();
        let mut accs: Vec<Acc> = Vec::new();
        for (i, p) in map_cloud.iter().enumerate() {
            sim.load(src + i as u64 * 16, 12);
            sim.exec(OpClass::FpAlu, 12);
            sim.exec(OpClass::IntAlu, 8);
            // A NaN coordinate would floor-cast into voxel 0 and ±∞
            // into a saturated one, poisoning a real cell's Gaussian.
            if !p.is_finite() {
                continue;
            }
            let key = (
                (p.x * inv).floor() as i32,
                (p.y * inv).floor() as i32,
                (p.z * inv).floor() as i32,
            );
            let row = *rows.entry(key).or_insert_with(|| {
                accs.push(Acc {
                    sum: [0.0; 3],
                    outer: [[0.0; 3]; 3],
                    n: 0,
                });
                accs.len() as u32 - 1
            });
            let acc = &mut accs[row as usize];
            let v = [p.x as f64, p.y as f64, p.z as f64];
            for r in 0..3 {
                acc.sum[r] += v[r];
                for c in 0..3 {
                    acc.outer[r][c] += v[r] * v[c];
                }
            }
            acc.n += 1;
        }

        // Second pass: finalize Gaussians for well-populated cells.
        let mut out: Vec<NdtCell> = Vec::new();
        let mut keys: Vec<((i32, i32, i32), u32)> = rows.into_iter().collect();
        keys.sort_unstable(); // deterministic cell order
        for (_, row) in keys {
            let acc = &accs[row as usize];
            if acc.n < MIN_POINTS_PER_CELL {
                continue;
            }
            sim.exec(OpClass::FpAlu, 60); // covariance + inversion
            let n = acc.n as f64;
            let mean = [acc.sum[0] / n, acc.sum[1] / n, acc.sum[2] / n];
            // The upper triangle, mirrored: `n·mean[r]·mean[c]` rounds
            // differently from `n·mean[c]·mean[r]`, and the matcher's
            // gradient and Hessian assume a symmetric B. The adjugate
            // inverse of an exactly symmetric matrix is exactly
            // symmetric (its mirrored cofactors multiply the same
            // operands), so `inv_cov` is too.
            let mut cov = Mat3::ZERO;
            for r in 0..3 {
                for c in r..3 {
                    let v = (acc.outer[r][c] - n * mean[r] * mean[c]) / (n - 1.0);
                    cov[(r, c)] = v;
                    cov[(c, r)] = v;
                }
            }
            // Regularize: surfaces produce near-singular covariances.
            // Like PCL (`min_covar_eigvalue_mult_`), inflate the small
            // directions relative to the largest variance so the
            // information matrix stays bounded and the score surface
            // keeps a usable basin around each cell.
            let max_var = cov[(0, 0)].max(cov[(1, 1)]).max(cov[(2, 2)]);
            let floor = (0.05 * max_var).max((resolution as f64 * 0.01).powi(2));
            for d in 0..3 {
                cov[(d, d)] += floor;
            }
            let Some(inv_cov) = cov.inverse() else {
                continue;
            };
            out.push(NdtCell {
                mean: Point3::new(mean[0] as f32, mean[1] as f32, mean[2] as f32),
                inv_cov,
                count: acc.n,
            });
        }
        let cells_addr = sim.alloc(out.len() as u64 * CELL_STRIDE, 64);
        sim.set_kernel(prev);
        NdtMap {
            cells: out,
            resolution,
            cells_addr,
        }
    }

    /// The fitted cells (index-aligned with the centroid cloud).
    pub fn cells(&self) -> &[NdtCell] {
        &self.cells
    }

    /// The voxel resolution.
    pub fn resolution(&self) -> f32 {
        self.resolution
    }

    /// The cell centroids as a point cloud (what the matcher's k-d tree
    /// indexes).
    pub fn centroids(&self) -> Vec<Point3> {
        self.cells.iter().map(|c| c.mean).collect()
    }

    /// Simulated address of cell `i`'s record.
    pub fn cell_addr(&self, i: u32) -> u64 {
        self.cells_addr + i as u64 * CELL_STRIDE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane_cloud() -> Vec<Point3> {
        let mut pts = Vec::new();
        for i in 0..30 {
            for j in 0..30 {
                pts.push(Point3::new(
                    i as f32 * 0.2,
                    j as f32 * 0.2,
                    0.01 * (i % 3) as f32,
                ));
            }
        }
        pts
    }

    #[test]
    fn cells_cover_the_cloud() {
        let mut sim = SimEngine::disabled();
        let map = NdtMap::build(&mut sim, &plane_cloud(), 1.0);
        // A 6×6 m plane at 1 m resolution: ~36 populated cells.
        assert!(
            map.cells().len() >= 25 && map.cells().len() <= 49,
            "{}",
            map.cells().len()
        );
        for c in map.cells() {
            assert!(c.count >= 6);
            assert!(c.mean.is_finite());
        }
    }

    #[test]
    fn sparse_cells_are_dropped() {
        let mut sim = SimEngine::disabled();
        let mut pts = plane_cloud();
        pts.push(Point3::new(100.0, 100.0, 100.0)); // a lone point
        let map = NdtMap::build(&mut sim, &pts, 1.0);
        assert!(map.cells().iter().all(|c| c.mean.x < 50.0));
    }

    #[test]
    fn non_finite_points_are_skipped() {
        let mut sim = SimEngine::disabled();
        let clean = NdtMap::build(&mut sim, &plane_cloud(), 1.0);
        let mut dirty = plane_cloud();
        for (k, bad) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            // Next to the origin cell's points, and on every axis.
            dirty.insert(k, Point3::new(bad, 0.1, 0.1));
            dirty.push(Point3::new(0.1, bad, 0.1));
            dirty.push(Point3::new(0.1, 0.1, bad));
            dirty.push(Point3::new(bad, bad, bad));
        }
        let map = NdtMap::build(&mut sim, &dirty, 1.0);
        assert_eq!(map.cells(), clean.cells());
        for c in map.cells() {
            assert!(c.mean.is_finite());
            for r in 0..3 {
                for cc in 0..3 {
                    assert!(c.inv_cov[(r, cc)].is_finite());
                }
            }
        }
    }

    #[test]
    fn inverse_covariance_is_finite_on_degenerate_surfaces() {
        // A perfectly planar cell would have a singular covariance
        // without regularization.
        let mut pts = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                pts.push(Point3::new(i as f32 * 0.04, j as f32 * 0.04, 0.0));
            }
        }
        let mut sim = SimEngine::disabled();
        let map = NdtMap::build(&mut sim, &pts, 1.0);
        assert_eq!(map.cells().len(), 1);
        let ic = map.cells()[0].inv_cov;
        for r in 0..3 {
            for c in 0..3 {
                assert!(ic[(r, c)].is_finite());
            }
        }
    }

    #[test]
    fn centroid_cloud_matches_cells() {
        let mut sim = SimEngine::disabled();
        let map = NdtMap::build(&mut sim, &plane_cloud(), 1.0);
        let centroids = map.centroids();
        assert_eq!(centroids.len(), map.cells().len());
        assert_eq!(centroids[0], map.cells()[0].mean);
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn zero_resolution_rejected() {
        let mut sim = SimEngine::disabled();
        NdtMap::build(&mut sim, &plane_cloud(), 0.0);
    }
}
