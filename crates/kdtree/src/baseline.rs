use bonsai_geom::Point3;
use bonsai_sim::{OpClass, SimEngine};

use crate::build::{sites, KdTree};
use crate::node::LeafId;
use crate::search::{LeafProcessor, Neighbor, SearchStats};

/// The baseline (PCL) leaf-inspection path: load every point of the leaf
/// in full `f32` precision, compute the squared distance (Eq. 2) and
/// classify against `r²` (Eq. 3).
///
/// Per point the processor charges what the compiled FLANN inner loop
/// executes: one 12-byte load from the *reordered* data matrix (FLANN's
/// `reorder=true` streams leaf points consecutively), 8 floating-point
/// ops (3 subs, 3 muls, 2 adds), loop/address arithmetic and a
/// classification branch. Hits additionally load `vind` to map the slot
/// back to a cloud index and commit three stores (`k_indices` push,
/// `k_sqr_distances` push, result-set size update — the PCL interface).
///
/// # Examples
///
/// ```
/// use bonsai_geom::Point3;
/// use bonsai_kdtree::{BaselineLeafProcessor, KdTree, KdTreeConfig, SearchStats};
/// use bonsai_sim::SimEngine;
///
/// let cloud = vec![Point3::ZERO, Point3::new(0.1, 0.0, 0.0)];
/// let mut sim = SimEngine::disabled();
/// let tree = KdTree::build(cloud, KdTreeConfig::default(), &mut sim);
/// let mut proc = BaselineLeafProcessor::new(&mut sim, &tree);
/// let mut out = Vec::new();
/// let mut stats = SearchStats::default();
/// tree.radius_search(&mut sim, &mut proc, Point3::ZERO, 0.5, &mut out, &mut stats);
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Debug)]
pub struct BaselineLeafProcessor {
    /// Simulated base of PCL's `k_indices` output vector.
    indices_addr: u64,
    /// Simulated base of PCL's `k_sqr_distances` output vector.
    dists_addr: u64,
}

/// Scalar loop/address ops per inspected point.
const PER_POINT_INT_OPS: u64 = 3;
/// Floating-point ops per inspected point (3 sub + 3 mul + 2 add).
const PER_POINT_FP_OPS: u64 = 8;

impl BaselineLeafProcessor {
    /// Creates a processor for scans of `tree`, reserving simulated
    /// space for the two PCL output vectors (`radiusSearch` fills
    /// `k_indices` and `k_sqr_distances` separately — two stores per
    /// accepted point).
    ///
    /// # Panics
    ///
    /// Panics when `tree` holds f16 leaf rows
    /// ([`KdTree::build_f16`]): the baseline scan reads exact `f32`
    /// rows, which such a tree does not keep.
    pub fn new(sim: &mut SimEngine, tree: &KdTree) -> BaselineLeafProcessor {
        tree.assert_f32_rows();
        let (indices_addr, dists_addr) = BaselineLeafProcessor::reserve_outputs(sim);
        BaselineLeafProcessor {
            indices_addr,
            dists_addr,
        }
    }

    /// Reserves the two output-vector regions a processor writes
    /// (`k_indices`, `k_sqr_distances`), returning their bases. A
    /// caller that runs another leaf stage can reserve the same regions
    /// so its later simulated buffers sit where they would under the
    /// baseline stage.
    pub fn reserve_outputs(sim: &mut SimEngine) -> (u64, u64) {
        // Result vectors in the cluster pipeline hold at most a few
        // thousand neighbours; reserve generous regions.
        (sim.alloc(32 * 1024, 64), sim.alloc(32 * 1024, 64))
    }
}

impl LeafProcessor for BaselineLeafProcessor {
    fn process_leaf(
        &mut self,
        sim: &mut SimEngine,
        tree: &KdTree,
        _leaf: LeafId,
        start: u32,
        count: u32,
        query: Point3,
        r_sq: f32,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        stats.points_inspected += count as u64;
        stats.point_bytes_loaded += count as u64 * 12;
        let (xs, ys, zs) = tree.leaf_soa();
        for i in start..start + count {
            let idx = tree.vind()[i as usize];
            sim.load(tree.reordered_point_addr(i), 12);
            sim.exec(OpClass::IntAlu, PER_POINT_INT_OPS);
            sim.exec(OpClass::FpAlu, PER_POINT_FP_OPS);

            // Linear sweep over the leaf-contiguous SoA rows (the data
            // the modelled reordered-matrix load fetches).
            let dx = xs[i as usize] - query.x;
            let dy = ys[i as usize] - query.y;
            let dz = zs[i as usize] - query.z;
            let d_sq = dx * dx + dy * dy + dz * dz;
            let inside = d_sq <= r_sq;
            sim.branch(sites::CLASSIFY, inside);
            if inside {
                sim.load(tree.vind_entry_addr(i), 4);
                sim.store(self.indices_addr + out.len() as u64 * 4, 4);
                sim.store(self.dists_addr + out.len() as u64 * 4, 4);
                sim.store(self.indices_addr, 8); // result-set size fields
                out.push(Neighbor {
                    index: idx,
                    dist_sq: d_sq,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KdTreeConfig;
    use bonsai_sim::{Counters, CpuConfig, Kernel};

    fn line_cloud(n: usize) -> Vec<Point3> {
        (0..n).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect()
    }

    #[test]
    fn per_point_cost_charges() {
        let mut sim = SimEngine::new(&CpuConfig::a72_like());
        let tree = KdTree::build(line_cloud(15), KdTreeConfig::default(), &mut sim);
        sim.reset_counters();
        let mut proc = BaselineLeafProcessor::new(&mut sim, &tree);
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        // One leaf of 15 points, all within radius.
        tree.radius_search(
            &mut sim,
            &mut proc,
            Point3::new(7.0, 0.0, 0.0),
            100.0,
            &mut out,
            &mut stats,
        );
        assert_eq!(out.len(), 15);
        let c: Counters = *sim.kernel_counters(Kernel::LeafScan);
        assert_eq!(
            c.loads, 30,
            "reordered point load per point + vind load per hit"
        );
        assert_eq!(
            c.stores, 45,
            "indices + dists + size update per hit (PCL interface)"
        );
        assert_eq!(c.ops_of(OpClass::FpAlu), 15 * PER_POINT_FP_OPS);
        assert_eq!(c.loaded_bytes, 15 * 16);
    }

    #[test]
    fn results_match_simple_search() {
        let cloud: Vec<Point3> = (0..200)
            .map(|i| Point3::new((i % 20) as f32, (i / 20) as f32, 0.0))
            .collect();
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud, KdTreeConfig::default(), &mut sim);
        let q = Point3::new(10.0, 5.0, 0.0);
        let mut via_trait = Vec::new();
        let mut proc = BaselineLeafProcessor::new(&mut sim, &tree);
        let mut stats = SearchStats::default();
        tree.radius_search(&mut sim, &mut proc, q, 2.5, &mut via_trait, &mut stats);
        let simple = tree.radius_search_simple(q, 2.5);
        assert_eq!(via_trait, simple);
        assert!(stats.points_inspected >= via_trait.len() as u64);
    }

    #[test]
    #[should_panic(expected = "f16-row KdTree")]
    fn f16_row_trees_are_refused_at_construction() {
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build_f16(line_cloud(20), KdTreeConfig::default(), &mut sim);
        BaselineLeafProcessor::new(&mut sim, &tree);
    }
}
