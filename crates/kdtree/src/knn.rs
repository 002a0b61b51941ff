//! k-nearest-neighbour search.
//!
//! NN/kNN on k-d trees is the sibling operation of radius search in the
//! AD workloads the paper surveys (registration pipelines, Tigris,
//! QuickNN). The euclidean-cluster and Fig. 2 experiments only need
//! radius search, but a credible k-d tree library ships kNN, and the NDT
//! workload uses it to seed voxel neighbourhoods.

use std::collections::BinaryHeap;

use bonsai_geom::Point3;
use bonsai_sim::{Kernel, OpClass, SimEngine};

use crate::build::{sites, KdTree};
use crate::costs::TraversalCosts;
use crate::node::{Node, NODE_BYTES};
use crate::search::{far_cell_in_reach, Neighbor};

/// Max-heap entry so the worst current neighbour is at the top.
#[derive(Debug, PartialEq)]
struct HeapItem {
    dist_sq: f32,
    index: u32,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist_sq.total_cmp(&other.dist_sq)
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl KdTree {
    /// Finds the `k` nearest neighbours of `query`, sorted by ascending
    /// distance. Returns fewer when the cloud is smaller than `k`.
    ///
    /// A query center with a non-finite coordinate returns an empty
    /// result without visiting any node. The guard matters more here
    /// than in radius search: the heap admits a point whenever
    /// `heap.len() < k` **or** the NaN comparison mis-orders, so an
    /// unguarded NaN query returned `k` arbitrary "neighbors" with NaN
    /// `dist_sq` instead of nothing.
    ///
    /// Traversal is charged like radius search (baseline costs); leaf
    /// scans charge the baseline per-point model.
    ///
    /// # Examples
    ///
    /// ```
    /// use bonsai_geom::Point3;
    /// use bonsai_kdtree::{KdTree, KdTreeConfig};
    /// use bonsai_sim::SimEngine;
    ///
    /// let pts: Vec<Point3> = (0..50).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
    /// let mut sim = SimEngine::disabled();
    /// let tree = KdTree::build(pts, KdTreeConfig::default(), &mut sim);
    /// let nn = tree.knn(&mut sim, Point3::new(20.2, 0.0, 0.0), 3);
    /// assert_eq!(nn[0].index, 20);
    /// assert_eq!(nn.len(), 3);
    /// ```
    pub fn knn(&self, sim: &mut SimEngine, query: Point3, k: usize) -> Vec<Neighbor> {
        if self.nodes().is_empty() || k == 0 || !crate::search::query_is_searchable(query) {
            return Vec::new();
        }
        let costs = TraversalCosts::default_model();
        let prev = sim.set_kernel(Kernel::Traverse);
        sim.exec(OpClass::IntAlu, costs.per_query_setup);
        let heap_addr = sim.alloc(8 * (k as u64 + 1), 64);
        let mut heap = BinaryHeap::with_capacity(k + 1);
        let mut side_dists = [0.0f32; 3];
        self.knn_rec(
            sim,
            &costs,
            0,
            query,
            k,
            0.0,
            &mut side_dists,
            &mut heap,
            heap_addr,
        );
        sim.set_kernel(prev);
        let mut result: Vec<Neighbor> = heap
            .into_sorted_vec()
            .into_iter()
            .map(|h| Neighbor {
                index: h.index,
                dist_sq: h.dist_sq,
            })
            .collect();
        result.sort_by(|a, b| a.dist_sq.total_cmp(&b.dist_sq));
        result
    }

    /// The single nearest neighbour (`None` on an empty tree or for a
    /// query center with a non-finite coordinate).
    pub fn nearest(&self, sim: &mut SimEngine, query: Point3) -> Option<Neighbor> {
        self.knn(sim, query, 1).into_iter().next()
    }

    #[allow(clippy::too_many_arguments)]
    fn knn_rec(
        &self,
        sim: &mut SimEngine,
        costs: &TraversalCosts,
        node_id: u32,
        query: Point3,
        k: usize,
        min_dist_sq: f32,
        side_dists: &mut [f32; 3],
        heap: &mut BinaryHeap<HeapItem>,
        heap_addr: u64,
    ) {
        sim.load(self.node_addr(node_id), NODE_BYTES as u32);
        match self.nodes()[node_id as usize] {
            Node::Leaf { start, count, .. } => {
                let prev = sim.set_kernel(Kernel::LeafScan);
                for i in start..start + count {
                    let idx = self.vind()[i as usize];
                    sim.load(self.reordered_point_addr(i), 12);
                    sim.exec(OpClass::IntAlu, 3);
                    sim.exec(OpClass::FpAlu, 8);
                    let d_sq = self.points()[idx as usize].distance_squared(query);
                    // lint: allow(panic-free-serving) — short-circuit:
                    // peek runs only when `heap.len() ≥ k ≥ 1` (k = 0
                    // early-returned at the entry point).
                    let accept =
                        heap.len() < k || d_sq < heap.peek().expect("non-empty heap").dist_sq;
                    sim.branch(sites::KNN_UPDATE, accept);
                    if accept {
                        sim.load(self.vind_entry_addr(i), 4);
                        sim.store(heap_addr + (heap.len() as u64 % (k as u64 + 1)) * 8, 8);
                        heap.push(HeapItem {
                            dist_sq: d_sq,
                            index: idx,
                        });
                        if heap.len() > k {
                            heap.pop();
                        }
                    }
                }
                sim.set_kernel(prev);
            }
            Node::Interior {
                axis,
                split_val,
                div_low,
                div_high,
                left,
                right,
            } => {
                sim.exec(OpClass::IntAlu, costs.per_interior_node);
                sim.exec(OpClass::FpAlu, costs.per_interior_node_fp);
                let val = query[axis];
                let go_left = val <= split_val;
                sim.branch(sites::DESCEND, go_left);
                let (near, far, gap) = if go_left {
                    (left, right, div_high - val)
                } else {
                    (right, left, val - div_low)
                };
                self.knn_rec(
                    sim,
                    costs,
                    near,
                    query,
                    k,
                    min_dist_sq,
                    side_dists,
                    heap,
                    heap_addr,
                );

                let gap = gap.max(0.0);
                let cut = gap * gap;
                let far_dist_sq = min_dist_sq - side_dists[axis.index()] + cut;
                let worst = if heap.len() < k {
                    f32::INFINITY
                } else {
                    // lint: allow(panic-free-serving) — this branch
                    // has `heap.len() ≥ k ≥ 1`, so the heap is
                    // non-empty (k = 0 early-returned at the entry).
                    heap.peek().expect("full heap").dist_sq
                };
                let visit_far = far_cell_in_reach(far_dist_sq, worst);
                sim.branch(sites::VISIT_FAR, visit_far);
                if visit_far {
                    let saved = side_dists[axis.index()];
                    side_dists[axis.index()] = cut;
                    self.knn_rec(
                        sim,
                        costs,
                        far,
                        query,
                        k,
                        far_dist_sq,
                        side_dists,
                        heap,
                        heap_addr,
                    );
                    side_dists[axis.index()] = saved;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KdTreeConfig;

    fn random_cloud(n: usize, seed: u64) -> Vec<Point3> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f32 / (1u64 << 53) as f32
        };
        (0..n)
            .map(|_| Point3::new(next() * 50.0, next() * 50.0, next() * 5.0))
            .collect()
    }

    fn brute_knn(cloud: &[Point3], q: Point3, k: usize) -> Vec<u32> {
        let mut all: Vec<(f32, u32)> = cloud
            .iter()
            .enumerate()
            .map(|(i, p)| (p.distance_squared(q), i as u32))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        all.into_iter().take(k).map(|(_, i)| i).collect()
    }

    #[test]
    fn knn_matches_brute_force() {
        let cloud = random_cloud(600, 7);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        for (qi, k) in [(0usize, 1usize), (10, 5), (50, 16), (99, 40)] {
            let got: Vec<u32> = tree
                .knn(&mut sim, cloud[qi], k)
                .iter()
                .map(|n| n.index)
                .collect();
            let expect = brute_knn(&cloud, cloud[qi], k);
            // Distances are unique with this generator, so index sets match
            // exactly and in order.
            assert_eq!(got, expect, "query {qi} k {k}");
        }
    }

    /// Regression: with coordinates at ±3e19 a cell distance overflows
    /// to ∞, and the incremental far-cell distance `∞ − ∞ + ∞` is NaN;
    /// the prune `far_dist_sq <= worst` then dropped far cells even
    /// while the heap was not full, and `knn(k = 41)` returned 40.
    #[test]
    fn knn_matches_brute_force_when_cell_distances_overflow() {
        let cloud: Vec<Point3> = (0..64)
            .map(|i| {
                let s = |bit: usize| if i >> bit & 1 == 0 { -3e19 } else { 3e19 };
                let z = if i >> 2 & 1 == 0 { 0.0 } else { s(3) };
                Point3::new(s(0), s(1), z)
            })
            .collect();
        let cfg = KdTreeConfig {
            max_leaf_points: 1,
            ..KdTreeConfig::default()
        };
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), cfg, &mut sim);
        let q = Point3::new(-3e19, -3e19, 0.0);
        let mut brute: Vec<f32> = cloud.iter().map(|p| p.distance_squared(q)).collect();
        brute.sort_by(f32::total_cmp);
        for k in 1..=cloud.len() {
            let got = tree.knn(&mut sim, q, k);
            let dists: Vec<f32> = got.iter().map(|n| n.dist_sq).collect();
            // Most distances tie at ∞, so compare distances, not indices.
            assert_eq!(dists, brute[..k], "k {k}");
            let mut idx: Vec<u32> = got.iter().map(|n| n.index).collect();
            idx.sort_unstable();
            idx.dedup();
            assert_eq!(idx.len(), k, "k {k}: repeated neighbours");
        }
    }

    #[test]
    fn knn_with_k_larger_than_cloud_returns_everything() {
        let cloud = random_cloud(10, 3);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let nn = tree.knn(&mut sim, Point3::ZERO, 50);
        assert_eq!(nn.len(), 10);
    }

    #[test]
    fn nearest_is_the_point_itself_when_in_cloud() {
        let cloud = random_cloud(300, 11);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let nn = tree.nearest(&mut sim, cloud[123]).unwrap();
        assert_eq!(nn.index, 123);
        assert_eq!(nn.dist_sq, 0.0);
    }

    /// Regression: before the query-center guard, a NaN query returned
    /// `k` garbage neighbors with NaN `dist_sq` — `heap.len() < k`
    /// admitted the first `k` points scanned, and the NaN comparison
    /// never evicted them.
    #[test]
    fn non_finite_queries_return_no_neighbors() {
        let cloud = random_cloud(200, 9);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud, KdTreeConfig::default(), &mut sim);
        for q in [
            Point3::new(f32::NAN, 0.0, 0.0),
            Point3::new(0.0, f32::INFINITY, 0.0),
            Point3::new(0.0, 0.0, f32::NEG_INFINITY),
            Point3::new(f32::NAN, f32::NAN, f32::NAN),
        ] {
            assert!(tree.knn(&mut sim, q, 5).is_empty(), "{q:?} found neighbors");
            assert!(tree.nearest(&mut sim, q).is_none(), "{q:?} has a nearest");
        }
    }

    #[test]
    fn knn_on_empty_tree() {
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(Vec::new(), KdTreeConfig::default(), &mut sim);
        assert!(tree.nearest(&mut sim, Point3::ZERO).is_none());
        assert!(tree.knn(&mut sim, Point3::ZERO, 0).is_empty());
    }

    #[test]
    fn results_sorted_ascending() {
        let cloud = random_cloud(200, 5);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud, KdTreeConfig::default(), &mut sim);
        let nn = tree.knn(&mut sim, Point3::new(25.0, 25.0, 2.0), 20);
        for w in nn.windows(2) {
            assert!(w[0].dist_sq <= w[1].dist_sq);
        }
    }
}
