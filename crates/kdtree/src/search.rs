use bonsai_geom::Point3;
use bonsai_sim::{Kernel, OpClass, SimEngine};

use crate::baseline::BaselineLeafProcessor;
use crate::build::{sites, KdTree};
use crate::costs::TraversalCosts;
use crate::node::{LeafId, Node, NODE_BYTES};
use crate::scratch::{Frame, SearchScratch};

/// One radius-search result: a point index and its squared distance to
/// the query (PCL returns both).
///
/// `repr(C)` so the layout is the declared `(index, dist_sq)` pair —
/// the SIMD sweeps emit whole compacted lane groups of these with
/// vector stores.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index into the original point cloud.
    pub index: u32,
    /// Squared euclidean distance to the query: the exact `f32` `d²`
    /// from a baseline scan. A compressed (Bonsai) scan reports `d²`
    /// only for points it re-checked through the exact fallback; a
    /// point it accepted from its f16 approximation reports that
    /// approximation's `d′²`, within the Eq. 11 bound of `d²`.
    /// Membership and order are exact either way.
    pub dist_sq: f32,
}

/// Work counters of one or more searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Tree nodes visited (interior + leaf).
    pub nodes_visited: u64,
    /// Leaves inspected.
    pub leaf_visits: u64,
    /// Points whose distance was evaluated.
    pub points_inspected: u64,
    /// Inconclusive shell classifications that re-computed in `f32`
    /// (Bonsai processors only).
    pub fallbacks: u64,
    /// Bytes loaded to bring *point data* into the core during leaf
    /// inspection: 12 B per point in the baseline, 16 B per compressed
    /// slice (+ 12 B per fallback) under Bonsai. This is the metric of
    /// the paper's Figure 9b (4.85 MB → 1.77 MB on frame #1).
    pub point_bytes_loaded: u64,
}

impl SearchStats {
    /// Fraction of inspected points that needed full-precision
    /// re-computation (the paper reports 0.37 %).
    pub fn fallback_ratio(&self) -> f64 {
        if self.points_inspected == 0 {
            0.0
        } else {
            self.fallbacks as f64 / self.points_inspected as f64
        }
    }
}

impl std::ops::AddAssign for SearchStats {
    fn add_assign(&mut self, rhs: SearchStats) {
        self.nodes_visited += rhs.nodes_visited;
        self.leaf_visits += rhs.leaf_visits;
        self.points_inspected += rhs.points_inspected;
        self.fallbacks += rhs.fallbacks;
        self.point_bytes_loaded += rhs.point_bytes_loaded;
    }
}

impl std::ops::Add for SearchStats {
    type Output = SearchStats;
    fn add(mut self, rhs: SearchStats) -> SearchStats {
        self += rhs;
        self
    }
}

/// The pluggable leaf-inspection stage of radius search.
///
/// The traversal (shared by all configurations) hands each reached leaf
/// to a processor, which classifies the leaf's points against `r²` and
/// appends the hits to `out`. Implementations:
///
/// * [`BaselineLeafProcessor`](crate::BaselineLeafProcessor) — PCL's
///   `f32` scan;
/// * `BonsaiLeafProcessor` (in `bonsai-core`) — compressed points through
///   the Bonsai-extensions with the exactness-preserving shell check;
/// * reduced-format and software-codec processors used by the Table I
///   and ablation experiments.
pub trait LeafProcessor {
    /// Classifies the points of leaf `leaf` (`tree.vind()[start..start+count]`)
    /// against the query, pushing every point with `d² ≤ r²` into `out`.
    ///
    /// Must behave identically to the baseline classification (Eq. 3);
    /// the Bonsai processor achieves this through re-computation of
    /// inconclusive shell cases.
    #[allow(clippy::too_many_arguments)] // mirrors the hardware interface
    fn process_leaf(
        &mut self,
        sim: &mut SimEngine,
        tree: &KdTree,
        leaf: LeafId,
        start: u32,
        count: u32,
        query: Point3,
        r_sq: f32,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    );
}

/// Whether `radius` denotes a searchable ball.
///
/// Every radius-search entry point rejects non-positive and non-finite
/// radii up front and returns an empty result without visiting any
/// node. The guard exists because the traversal and the leaf scans
/// compare only against `r² = radius·radius`, which erases the sign
/// (`-r` would silently behave like `+r`) and turns NaN/∞ radii into
/// inconsistent pruning decisions. Public so layered front-ends (the
/// shard router) can apply the identical rejection before any routing
/// work of their own.
///
/// # Examples
///
/// ```
/// use bonsai_kdtree::radius_is_searchable;
/// assert!(radius_is_searchable(0.5));
/// assert!(!radius_is_searchable(0.0));
/// assert!(!radius_is_searchable(-1.0));
/// assert!(!radius_is_searchable(f32::NAN));
/// assert!(!radius_is_searchable(f32::INFINITY));
/// ```
#[inline]
pub fn radius_is_searchable(radius: f32) -> bool {
    // `radius > 0.0` is false for NaN, so finiteness is the only extra
    // check needed to exclude +∞.
    radius > 0.0 && radius != f32::INFINITY
}

/// Whether a far cell at lower-bound squared distance `far_dist_sq`
/// stays in a walk: `far_dist_sq ≤ r²` (the radius, or kNN's current
/// worst distance), or `far_dist_sq` is NaN.
///
/// The radius walkers and kNN update a far cell's distance
/// incrementally, `min_dist_sq − side[axis] + cut`, which is
/// `∞ − ∞ = NaN` once two infinite cuts meet on one axis. In a radius
/// walk that happens only when a radius whose square overflows to
/// `r² = ∞` reaches non-finite points (every kept frame below a finite
/// `r²` has finite parts), and there every cell is in reach; in kNN,
/// when coordinates far enough apart overflow a cut, and a NaN cell
/// may still hold neighbours the heap lacks. `!(d > r²)` is one
/// compare, like `d <= r²`, and keeps the NaN cell.
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord)] // the negation is the point: NaN keeps the cell
pub(crate) fn far_cell_in_reach(far_dist_sq: f32, r_sq: f32) -> bool {
    !(far_dist_sq > r_sq)
}

/// Whether `center` denotes a searchable query point.
///
/// The twin of [`radius_is_searchable`], covering the query *center*:
/// every search entry point (radius **and** kNN) rejects a center with
/// a NaN or ±∞ coordinate up front and returns an empty result without
/// visiting any node. Without the guard the damage is worse than the
/// degenerate-radius bug: a NaN coordinate makes every `d² ≤ r²`
/// comparison false (radius search silently finds nothing after a full
/// traversal), while kNN's heap admits points whenever `heap.len() < k`
/// — so a NaN query returned `k` arbitrary "neighbors" with NaN
/// `dist_sq`. Layered front-ends (the batch engine, the shard router)
/// apply the identical rejection before any routing work so their
/// behavior can never diverge from the single-tree traversal.
///
/// # Examples
///
/// ```
/// use bonsai_geom::Point3;
/// use bonsai_kdtree::query_is_searchable;
/// assert!(query_is_searchable(Point3::new(1.0, -2.0, 0.5)));
/// assert!(!query_is_searchable(Point3::new(f32::NAN, 0.0, 0.0)));
/// assert!(!query_is_searchable(Point3::new(0.0, f32::INFINITY, 0.0)));
/// assert!(!query_is_searchable(Point3::new(0.0, 0.0, f32::NEG_INFINITY)));
/// ```
#[inline]
pub fn query_is_searchable(center: Point3) -> bool {
    center.is_finite()
}

impl KdTree {
    /// Radius search (paper Section II-C): finds every point within
    /// `radius` of `query`, using `processor` for leaf inspection and
    /// charging traversal work to the `Traverse` kernel.
    ///
    /// Results are appended to `out` in tree order (cleared first).
    pub fn radius_search<P: LeafProcessor>(
        &self,
        sim: &mut SimEngine,
        processor: &mut P,
        query: Point3,
        radius: f32,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        let mut scratch = SearchScratch::with_depth(self.build_stats().max_depth as usize);
        self.radius_search_scratch(sim, processor, query, radius, out, stats, &mut scratch);
    }

    /// [`radius_search`](KdTree::radius_search) with a caller-owned
    /// [`SearchScratch`]: the traversal stack is reused across queries,
    /// so a warmed-up query performs no heap allocation. This is the
    /// form every hot loop (cluster BFS, batch engine, benches) should
    /// use.
    ///
    /// A non-positive or non-finite `radius` — or a query center with a
    /// non-finite coordinate — yields an empty result without visiting
    /// any node (no stats, no simulated events).
    #[allow(clippy::too_many_arguments)] // mirrors radius_search + scratch
    pub fn radius_search_scratch<P: LeafProcessor>(
        &self,
        sim: &mut SimEngine,
        processor: &mut P,
        query: Point3,
        radius: f32,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
        scratch: &mut SearchScratch,
    ) {
        out.clear();
        if self.nodes().is_empty() || !radius_is_searchable(radius) || !query_is_searchable(query) {
            return;
        }
        let costs = TraversalCosts::default_model();
        let prev = sim.set_kernel(Kernel::Traverse);
        sim.exec(OpClass::IntAlu, costs.per_query_setup);
        let r_sq = radius * radius;

        // Explicit-stack depth-first walk. `FarCheck` frames fire after
        // the near subtree completes, reproducing the recursive walk's
        // exact event order (loads, branch outcomes, kernel switches),
        // so simulation results are unchanged while the host-side stack
        // depth becomes O(1) allocations amortized.
        let frames = &mut scratch.frames;
        frames.clear();
        frames.push(Frame::Visit {
            node: 0,
            min_dist_sq: 0.0,
            side: [0.0; 3],
        });
        while let Some(frame) = frames.pop() {
            let (node, min_dist_sq, side) = match frame {
                Frame::FarCheck {
                    node,
                    far_dist_sq,
                    side,
                } => {
                    // Exact lower bound on the distance to the far cell
                    // (a NaN bound is kept: see `far_cell_in_reach`).
                    let visit_far = far_cell_in_reach(far_dist_sq, r_sq);
                    sim.branch(sites::VISIT_FAR, visit_far);
                    if !visit_far {
                        continue;
                    }
                    (node, far_dist_sq, side)
                }
                Frame::Visit {
                    node,
                    min_dist_sq,
                    side,
                } => (node, min_dist_sq, side),
            };

            stats.nodes_visited += 1;
            // Interior-node fields span two dependent accesses in the
            // compiled FLANN walk (discriminant + split value, then the
            // child pointers).
            sim.load(self.node_addr(node), 12);
            sim.load(self.node_addr(node) + 12, (NODE_BYTES - 12) as u32);

            match self.nodes()[node as usize] {
                Node::Leaf { start, count, .. } => {
                    stats.leaf_visits += 1;
                    let prev = sim.set_kernel(Kernel::LeafScan);
                    processor.process_leaf(sim, self, node, start, count, query, r_sq, out, stats);
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

                    // Swap this axis' contribution for the gap to the
                    // far side (Arya–Mount incremental cell distance).
                    let gap = gap.max(0.0);
                    let cut = gap * gap;
                    let far_dist_sq = min_dist_sq - side[axis.index()] + cut;
                    let mut far_side = side;
                    far_side[axis.index()] = cut;
                    frames.push(Frame::FarCheck {
                        node: far,
                        far_dist_sq,
                        side: far_side,
                    });
                    frames.push(Frame::Visit {
                        node: near,
                        min_dist_sq,
                        side,
                    });
                }
            }
        }
        sim.set_kernel(prev);
    }

    /// Convenience: uninstrumented baseline radius search.
    ///
    /// # Examples
    ///
    /// ```
    /// use bonsai_geom::Point3;
    /// use bonsai_kdtree::{KdTree, KdTreeConfig};
    /// use bonsai_sim::SimEngine;
    ///
    /// let pts = vec![Point3::ZERO, Point3::new(1.0, 0.0, 0.0)];
    /// let mut sim = SimEngine::disabled();
    /// let tree = KdTree::build(pts, KdTreeConfig::default(), &mut sim);
    /// assert_eq!(tree.radius_search_simple(Point3::ZERO, 0.5).len(), 1);
    /// ```
    pub fn radius_search_simple(&self, query: Point3, radius: f32) -> Vec<Neighbor> {
        let mut sim = SimEngine::disabled();
        let mut proc = BaselineLeafProcessor::new(&mut sim, self);
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        self.radius_search(&mut sim, &mut proc, query, radius, &mut out, &mut stats);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KdTreeConfig;

    /// Deterministic pseudo-random cloud.
    fn random_cloud(n: usize, seed: u64, scale: f32) -> Vec<Point3> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f32 / (1u64 << 53) as f32
        };
        (0..n)
            .map(|_| {
                Point3::new(
                    (next() - 0.5) * scale,
                    (next() - 0.5) * scale,
                    (next() - 0.5) * scale * 0.1,
                )
            })
            .collect()
    }

    fn brute_force(cloud: &[Point3], q: Point3, r: f32) -> Vec<u32> {
        let mut hits: Vec<u32> = cloud
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_squared(q) <= r * r)
            .map(|(i, _)| i as u32)
            .collect();
        hits.sort_unstable();
        hits
    }

    #[test]
    fn matches_brute_force_on_random_clouds() {
        for seed in 0..5 {
            let cloud = random_cloud(800, seed + 1, 60.0);
            let mut sim = SimEngine::disabled();
            let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
            for (qi, r) in [(3usize, 1.5f32), (100, 4.0), (400, 0.3), (700, 12.0)] {
                let q = cloud[qi];
                let mut got: Vec<u32> = tree
                    .radius_search_simple(q, r)
                    .iter()
                    .map(|n| n.index)
                    .collect();
                got.sort_unstable();
                assert_eq!(
                    got,
                    brute_force(&cloud, q, r),
                    "seed {seed} query {qi} r {r}"
                );
            }
        }
    }

    #[test]
    fn distances_are_correct() {
        let cloud = random_cloud(300, 9, 20.0);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let q = cloud[42];
        for n in tree.radius_search_simple(q, 5.0) {
            let expect = cloud[n.index as usize].distance_squared(q);
            assert_eq!(n.dist_sq, expect);
        }
    }

    #[test]
    fn tiny_radius_finds_the_query_itself() {
        let cloud = random_cloud(200, 3, 30.0);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let hits = tree.radius_search_simple(cloud[17], f32::MIN_POSITIVE);
        assert!(hits.iter().any(|n| n.index == 17));
        for n in &hits {
            assert_eq!(n.dist_sq, 0.0); // only exact duplicates qualify
        }
    }

    /// The degenerate-radius contract: `radius <= 0` and non-finite
    /// radii return empty results and do no traversal work. Before the
    /// guard, `-r` silently behaved like `+r` because only
    /// `r² = radius·radius` was ever compared.
    #[test]
    fn degenerate_radii_return_empty_without_visits() {
        let cloud = random_cloud(300, 6, 20.0);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let q = cloud[50];
        // Sanity: the positive radius actually finds neighbors.
        assert!(!tree.radius_search_simple(q, 2.0).is_empty());
        for r in [0.0, -0.0, -2.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(
                tree.radius_search_simple(q, r).is_empty(),
                "radius {r} must find nothing"
            );
            let mut proc = BaselineLeafProcessor::new(&mut sim, &tree);
            let mut out = vec![Neighbor {
                index: 0,
                dist_sq: 0.0,
            }];
            let mut stats = SearchStats::default();
            tree.radius_search(&mut sim, &mut proc, q, r, &mut out, &mut stats);
            assert!(out.is_empty(), "radius {r} left stale results");
            assert_eq!(stats, SearchStats::default(), "radius {r} did work");
        }
    }

    /// The non-finite-query-center contract: NaN/±∞ coordinates return
    /// empty results with zero traversal work. Before the guard, a NaN
    /// query silently traversed (all comparisons false) and an ∞ query
    /// mis-pruned — and kNN admitted garbage (see `knn.rs`).
    #[test]
    fn non_finite_query_centers_return_empty_without_visits() {
        let cloud = random_cloud(300, 14, 20.0);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        for q in [
            Point3::new(f32::NAN, 0.0, 0.0),
            Point3::new(0.0, f32::INFINITY, 0.0),
            Point3::new(0.0, 0.0, f32::NEG_INFINITY),
            Point3::new(f32::NAN, f32::NAN, f32::NAN),
        ] {
            assert!(
                tree.radius_search_simple(q, 2.0).is_empty(),
                "query {q:?} must find nothing"
            );
            let mut proc = BaselineLeafProcessor::new(&mut sim, &tree);
            let mut out = vec![Neighbor {
                index: 0,
                dist_sq: 0.0,
            }];
            let mut stats = SearchStats::default();
            tree.radius_search(&mut sim, &mut proc, q, 2.0, &mut out, &mut stats);
            assert!(out.is_empty(), "query {q:?} left stale results");
            assert_eq!(stats, SearchStats::default(), "query {q:?} did work");
        }
    }

    #[test]
    fn negative_radius_differs_from_its_absolute_value() {
        let cloud = random_cloud(400, 12, 25.0);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let q = cloud[123];
        assert!(!tree.radius_search_simple(q, 1.5).is_empty());
        assert!(tree.radius_search_simple(q, -1.5).is_empty());
    }

    #[test]
    fn radius_covering_everything_returns_all() {
        let cloud = random_cloud(150, 5, 10.0);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let hits = tree.radius_search_simple(Point3::ZERO, 1000.0);
        assert_eq!(hits.len(), cloud.len());
    }

    #[test]
    fn search_on_empty_tree_is_empty() {
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(Vec::new(), KdTreeConfig::default(), &mut sim);
        assert!(tree.radius_search_simple(Point3::ZERO, 5.0).is_empty());
    }

    #[test]
    fn stats_count_traversal_work() {
        let cloud = random_cloud(1000, 8, 50.0);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let mut proc = BaselineLeafProcessor::new(&mut sim, &tree);
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        tree.radius_search(&mut sim, &mut proc, cloud[0], 2.0, &mut out, &mut stats);
        assert!(stats.nodes_visited > 0);
        assert!(stats.leaf_visits >= 1);
        assert!(stats.points_inspected >= stats.leaf_visits);
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn pruning_skips_most_of_a_large_tree() {
        let cloud = random_cloud(5000, 2, 200.0);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let mut proc = BaselineLeafProcessor::new(&mut sim, &tree);
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        tree.radius_search(&mut sim, &mut proc, cloud[10], 1.0, &mut out, &mut stats);
        let leaves = tree.build_stats().num_leaves as u64;
        assert!(
            stats.leaf_visits < leaves / 4,
            "visited {} of {} leaves",
            stats.leaf_visits,
            leaves
        );
    }

    #[test]
    fn traversal_charges_traverse_kernel_and_leaf_scan_separately() {
        let cloud = random_cloud(500, 4, 40.0);
        let mut sim = SimEngine::new(&bonsai_sim::CpuConfig::a72_like());
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let mut proc = BaselineLeafProcessor::new(&mut sim, &tree);
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        tree.radius_search(&mut sim, &mut proc, cloud[5], 3.0, &mut out, &mut stats);
        assert!(sim.kernel_counters(Kernel::Traverse).micro_ops() > 0);
        assert!(sim.kernel_counters(Kernel::LeafScan).loads > 0);
    }

    #[test]
    fn search_stats_fallback_ratio_zero_denominator() {
        assert_eq!(SearchStats::default().fallback_ratio(), 0.0);
    }
}
