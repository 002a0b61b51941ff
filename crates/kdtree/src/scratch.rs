//! Reusable search state and the batch-query containers.
//!
//! The seed implementation recursed per query and allocated fresh
//! result vectors per call. Production radius search instead reuses a
//! [`SearchScratch`] (the explicit traversal stack) and a
//! [`QueryBatch`] (flat results of many queries), so a warmed-up query
//! performs **zero heap allocations**: the stack, the neighbor buffer
//! and the per-query offset table all retain their capacity across
//! calls.

use bonsai_geom::Point3;

use crate::build::KdTree;
use crate::node::{Node, NodeId};
use crate::search::{Neighbor, SearchStats};

/// One explicit-stack traversal frame.
///
/// `FarCheck` defers the far-subtree radius test until the near subtree
/// has been fully processed — exactly the event order of the recursive
/// FLANN walk, which the instrumented path must reproduce so simulated
/// branch-history and cache sequences stay comparable across PRs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Frame {
    /// Visit a node whose cell is known to intersect the query ball.
    Visit {
        /// Node to visit.
        node: NodeId,
        /// Exact squared distance from the query to the node's cell.
        min_dist_sq: f32,
        /// Per-axis contributions to `min_dist_sq`.
        side: [f32; 3],
    },
    /// Test the far child after its sibling's subtree completed.
    FarCheck {
        /// The far child.
        node: NodeId,
        /// Squared distance from the query to the far cell.
        far_dist_sq: f32,
        /// Per-axis contributions for the far cell.
        side: [f32; 3],
    },
}

/// Reusable per-thread radius-search state.
///
/// Create one per worker (or borrow one from a [`QueryBatch`]) and pass
/// it to every search; after the first few queries the internal stack
/// stops growing and searches allocate nothing.
///
/// # Examples
///
/// ```
/// use bonsai_geom::Point3;
/// use bonsai_kdtree::{KdTree, KdTreeConfig, SearchScratch, SearchStats};
/// use bonsai_sim::SimEngine;
///
/// let pts: Vec<Point3> = (0..100).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
/// let mut sim = SimEngine::disabled();
/// let tree = KdTree::build(pts, KdTreeConfig::default(), &mut sim);
///
/// let mut scratch = SearchScratch::new();
/// let mut visited = Vec::new();
/// let mut stats = SearchStats::default();
/// let q = Point3::new(50.0, 0.0, 0.0);
/// tree.collect_leaves_in_radius(q, 1.5, &mut scratch, &mut stats, &mut visited);
/// let mut out = Vec::new();
/// tree.sweep_leaf_visits(&visited, q, 1.5 * 1.5, &mut out, &mut stats);
/// assert_eq!(out.len(), 3); // 49, 50, 51
/// ```
#[derive(Debug, Default)]
pub struct SearchScratch {
    pub(crate) frames: Vec<Frame>,
    /// Reusable visit buffer of the two-phase (collect-then-sweep)
    /// searches; borrowed out via
    /// [`take_visited`](SearchScratch::take_visited) so the traversal
    /// can fill it while the frame stack is borrowed too.
    visited: Vec<crate::simd::LeafVisit>,
}

impl SearchScratch {
    /// An empty scratch; grows to the tree depth on first use.
    pub fn new() -> SearchScratch {
        SearchScratch::default()
    }

    /// A scratch pre-sized for trees of the given depth.
    pub fn with_depth(depth: usize) -> SearchScratch {
        SearchScratch {
            frames: Vec::with_capacity(2 * depth + 2),
            visited: Vec::new(),
        }
    }

    /// Borrows the reusable leaf-visit buffer out of the scratch
    /// (cleared). Two-phase search fronts fill it with
    /// [`KdTree::collect_leaves_in_radius`], sweep it, and hand it
    /// back with [`store_visited`](SearchScratch::store_visited) so
    /// steady-state queries allocate nothing.
    pub fn take_visited(&mut self) -> Vec<crate::simd::LeafVisit> {
        let mut v = std::mem::take(&mut self.visited);
        v.clear();
        v
    }

    /// Returns a visit buffer taken with
    /// [`take_visited`](SearchScratch::take_visited), keeping its
    /// capacity for the next query.
    pub fn store_visited(&mut self, visited: Vec<crate::simd::LeafVisit>) {
        self.visited = visited;
    }
}

/// Results of a batch of radius queries, stored flat.
///
/// `neighbors` holds every query's hits back to back;
/// `offsets[i]..offsets[i + 1]` delimits query `i`. The buffers (and
/// the embedded [`SearchScratch`]) are retained across batches, so a
/// steady-state batch allocates nothing.
///
/// Populated by `RadiusSearchEngine::search_batch` and
/// `RouterSnapshot::search_batch` (in `bonsai-core`).
#[derive(Debug, Default)]
pub struct QueryBatch {
    neighbors: Vec<Neighbor>,
    offsets: Vec<usize>,
    stats: SearchStats,
    scratch: SearchScratch,
}

impl QueryBatch {
    /// An empty batch.
    pub fn new() -> QueryBatch {
        QueryBatch::default()
    }

    /// Discards results (keeps capacity) to start a new batch.
    pub fn reset(&mut self) {
        self.neighbors.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.stats = SearchStats::default();
    }

    /// Number of queries answered in the current batch.
    pub fn num_queries(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The neighbors of query `i`, in tree (leaf) order.
    pub fn results(&self, i: usize) -> &[Neighbor] {
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Per-query result slices, in query order.
    pub fn iter(&self) -> impl Iterator<Item = &[Neighbor]> + '_ {
        (0..self.num_queries()).map(|i| self.results(i))
    }

    /// Total neighbors found across the batch.
    pub fn total_matches(&self) -> usize {
        self.neighbors.len()
    }

    /// Work counters aggregated over the whole batch.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Runs one query body against the batch's buffers and closes the
    /// query's result range. The body appends hits to the neighbor
    /// buffer (it must not drain or reorder earlier queries' results).
    pub fn push_query<F>(&mut self, body: F)
    where
        F: FnOnce(&mut SearchScratch, &mut Vec<Neighbor>, &mut SearchStats),
    {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        body(&mut self.scratch, &mut self.neighbors, &mut self.stats);
        self.offsets.push(self.neighbors.len());
    }

    /// Appends another batch's queries after this batch's (used to
    /// merge per-thread partial batches in query order).
    pub fn absorb(&mut self, other: &QueryBatch) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        let base = self.neighbors.len();
        self.neighbors.extend_from_slice(&other.neighbors);
        self.offsets
            .extend(other.offsets.iter().skip(1).map(|&o| base + o));
        self.stats += other.stats;
    }
}

impl KdTree {
    /// Iterative, uninstrumented radius traversal: collects the leaves
    /// the query ball visits — `(leaf, start, count)`, in the same
    /// depth-first near-to-far order as the instrumented search — into
    /// `visited` (cleared first). Traversal counters (`nodes_visited`,
    /// `leaf_visits`) are updated identically.
    ///
    /// This is the collect half of the fast (`SimEngine::disabled`)
    /// two-phase search: sweeping the collected visits afterwards
    /// ([`sweep_leaf_visits`](KdTree::sweep_leaf_visits), or the
    /// compressed sweep of `RadiusSearchEngine` in `bonsai-core`) lets
    /// one backend dispatch cover the whole query without paying for
    /// the event model.
    ///
    /// A non-positive or non-finite `radius` — or a non-finite query
    /// center — visits nothing, matching the instrumented search's
    /// up-front rejection of degenerate queries.
    #[inline]
    pub fn collect_leaves_in_radius(
        &self,
        query: Point3,
        radius: f32,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
        visited: &mut Vec<crate::simd::LeafVisit>,
    ) {
        visited.clear();
        if self.nodes().is_empty()
            || !crate::search::radius_is_searchable(radius)
            || !crate::search::query_is_searchable(query)
        {
            return;
        }
        let r_sq = radius * radius;
        let frames = &mut scratch.frames;
        frames.clear();
        frames.push(Frame::Visit {
            node: 0,
            min_dist_sq: 0.0,
            side: [0.0; 3],
        });
        while let Some(frame) = frames.pop() {
            let Frame::Visit {
                node,
                min_dist_sq,
                side,
            } = frame
            else {
                unreachable!("fast traversal pushes no FarCheck frames");
            };
            stats.nodes_visited += 1;
            match self.nodes()[node as usize] {
                Node::Leaf { start, count, .. } => {
                    stats.leaf_visits += 1;
                    visited.push((node, start, count));
                }
                Node::Interior {
                    axis,
                    split_val,
                    div_low,
                    div_high,
                    left,
                    right,
                } => {
                    let val = query[axis];
                    let (near, far, gap) = if val <= split_val {
                        (left, right, div_high - val)
                    } else {
                        (right, left, val - div_low)
                    };
                    let gap = gap.max(0.0);
                    let cut = gap * gap;
                    let far_dist_sq = min_dist_sq - side[axis.index()] + cut;
                    if far_dist_sq <= r_sq {
                        let mut far_side = side;
                        far_side[axis.index()] = cut;
                        frames.push(Frame::Visit {
                            node: far,
                            min_dist_sq: far_dist_sq,
                            side: far_side,
                        });
                    }
                    frames.push(Frame::Visit {
                        node: near,
                        min_dist_sq,
                        side,
                    });
                }
            }
        }
    }

    /// Sweeps collected leaf visits in baseline `f32` precision,
    /// appending hits to `out` — the sweep half of the two-phase
    /// search. One backend dispatch (lane constants hoisted) covers
    /// every visit; without a vector backend the scalar reference
    /// loop runs per visit. Hits and stats are bit-identical either
    /// way, and identical (values and order) to the instrumented
    /// [`BaselineLeafProcessor`](crate::BaselineLeafProcessor).
    #[inline]
    pub fn sweep_leaf_visits(
        &self,
        visited: &[crate::simd::LeafVisit],
        query: Point3,
        r_sq: f32,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        let total: u64 = visited.iter().map(|&(_, _, c)| c as u64).sum();
        stats.points_inspected += total;
        stats.point_bytes_loaded += total * 12;
        let (xs, ys, zs) = self.leaf_soa();
        if crate::simd::sweep_baseline_visited(xs, ys, zs, &self.vind, visited, query, r_sq, out) {
            return;
        }
        for &(_, start, count) in visited {
            self.scan_leaf_scalar((xs, ys, zs), start, count, query, r_sq, out);
        }
    }

    /// The scalar reference sweep of one leaf: slice windows hoisted
    /// to one exact length so the loop body indexes without bounds
    /// checks (this loop is the semantics both SIMD sweeps reproduce
    /// bit for bit).
    #[inline]
    fn scan_leaf_scalar(
        &self,
        (xs, ys, zs): (&[f32], &[f32], &[f32]),
        start: u32,
        count: u32,
        query: Point3,
        r_sq: f32,
        out: &mut Vec<Neighbor>,
    ) {
        let lo = start as usize;
        let n = count as usize;
        let xs = &xs[lo..lo + n];
        let ys = &ys[lo..lo + n];
        let zs = &zs[lo..lo + n];
        let vind = &self.vind[lo..lo + n];
        for i in 0..n {
            let dx = xs[i] - query.x;
            let dy = ys[i] - query.y;
            let dz = zs[i] - query.z;
            let d_sq = dx * dx + dy * dy + dz * dz;
            if d_sq <= r_sq {
                out.push(Neighbor {
                    index: vind[i],
                    dist_sq: d_sq,
                });
            }
        }
    }
}

/// The two-phase baseline search the in-crate tests pin: collect the
/// visited leaves, then sweep them, clearing `out` first.
#[cfg(test)]
pub(crate) fn two_phase_search(
    tree: &KdTree,
    query: Point3,
    radius: f32,
    scratch: &mut SearchScratch,
    out: &mut Vec<Neighbor>,
    stats: &mut SearchStats,
) {
    out.clear();
    let mut visited = scratch.take_visited();
    tree.collect_leaves_in_radius(query, radius, scratch, stats, &mut visited);
    tree.sweep_leaf_visits(&visited, query, radius * radius, out, stats);
    scratch.store_visited(visited);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineLeafProcessor;
    use crate::build::KdTreeConfig;
    use bonsai_sim::SimEngine;

    /// Every query through the two-phase search, appended into
    /// `batch` (reset first).
    fn batch_search(tree: &KdTree, queries: &[Point3], radius: f32, batch: &mut QueryBatch) {
        batch.reset();
        for &query in queries {
            batch.push_query(|scratch, out, stats| {
                let mut visited = scratch.take_visited();
                tree.collect_leaves_in_radius(query, radius, scratch, stats, &mut visited);
                tree.sweep_leaf_visits(&visited, query, radius * radius, out, stats);
                scratch.store_visited(visited);
            });
        }
    }

    fn random_cloud(n: usize, seed: u64, scale: f32) -> Vec<Point3> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f32 / (1u64 << 53) as f32
        };
        (0..n)
            .map(|_| Point3::new((next() - 0.5) * scale, (next() - 0.5) * scale, next() * 3.0))
            .collect()
    }

    #[test]
    fn fast_search_matches_instrumented_baseline_exactly() {
        let cloud = random_cloud(2000, 11, 70.0);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let mut scratch = SearchScratch::new();
        let mut fast_out = Vec::new();
        let mut proc = BaselineLeafProcessor::new(&mut sim, &tree);
        let mut slow_out = Vec::new();
        for (qi, r) in [(0usize, 0.9f32), (77, 2.5), (1500, 0.2), (1999, 8.0)] {
            let mut fast_stats = SearchStats::default();
            let mut slow_stats = SearchStats::default();
            two_phase_search(
                &tree,
                cloud[qi],
                r,
                &mut scratch,
                &mut fast_out,
                &mut fast_stats,
            );
            tree.radius_search(
                &mut sim,
                &mut proc,
                cloud[qi],
                r,
                &mut slow_out,
                &mut slow_stats,
            );
            assert_eq!(fast_out, slow_out, "query {qi} r {r}");
            assert_eq!(fast_stats, slow_stats, "stats for query {qi} r {r}");
        }
    }

    #[test]
    fn batch_matches_per_query_and_aggregates_stats() {
        let cloud = random_cloud(1500, 5, 60.0);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let queries: Vec<Point3> = (0..cloud.len()).step_by(13).map(|i| cloud[i]).collect();

        let mut batch = QueryBatch::new();
        batch_search(&tree, &queries, 1.4, &mut batch);
        assert_eq!(batch.num_queries(), queries.len());

        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut total = SearchStats::default();
        for (i, &q) in queries.iter().enumerate() {
            let mut stats = SearchStats::default();
            two_phase_search(&tree, q, 1.4, &mut scratch, &mut out, &mut stats);
            assert_eq!(batch.results(i), &out[..], "query {i}");
            total += stats;
        }
        assert_eq!(*batch.stats(), total);
        assert_eq!(
            batch.total_matches(),
            batch.iter().map(|r| r.len()).sum::<usize>()
        );
    }

    #[test]
    fn batch_reuse_does_not_leak_previous_results() {
        let cloud = random_cloud(400, 9, 30.0);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let mut batch = QueryBatch::new();
        batch_search(&tree, &cloud[..64], 2.0, &mut batch);
        let first = batch.total_matches();
        assert!(first > 0);
        batch_search(&tree, &cloud[..8], 2.0, &mut batch);
        assert_eq!(batch.num_queries(), 8);
        assert!(batch.total_matches() < first);
    }

    #[test]
    fn absorb_concatenates_in_query_order() {
        let cloud = random_cloud(600, 3, 40.0);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let queries = &cloud[..30];

        let mut whole = QueryBatch::new();
        batch_search(&tree, queries, 1.8, &mut whole);

        let mut merged = QueryBatch::new();
        merged.reset();
        for half in queries.chunks(17) {
            let mut part = QueryBatch::new();
            batch_search(&tree, half, 1.8, &mut part);
            merged.absorb(&part);
        }
        assert_eq!(merged.num_queries(), whole.num_queries());
        for i in 0..whole.num_queries() {
            assert_eq!(merged.results(i), whole.results(i), "query {i}");
        }
        assert_eq!(merged.stats(), whole.stats());
    }

    /// The fast traversal honors the same degenerate-radius contract as
    /// the instrumented path: empty results, zero counters, but the
    /// batch still records one (empty) result range per query.
    #[test]
    fn degenerate_radii_are_empty_in_fast_and_batched_paths() {
        let cloud = random_cloud(500, 21, 40.0);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        for r in [0.0f32, -1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut stats = SearchStats::default();
            two_phase_search(&tree, cloud[3], r, &mut scratch, &mut out, &mut stats);
            assert!(out.is_empty(), "radius {r}");
            assert_eq!(stats, SearchStats::default(), "radius {r}");

            let mut batch = QueryBatch::new();
            batch_search(&tree, &cloud[..16], r, &mut batch);
            assert_eq!(batch.num_queries(), 16, "radius {r}");
            assert_eq!(batch.total_matches(), 0, "radius {r}");
            assert_eq!(*batch.stats(), SearchStats::default(), "radius {r}");
        }
    }

    /// Same contract for non-finite query centers: the fast and batched
    /// paths reject them before any traversal, so a NaN query can never
    /// diverge from the instrumented search's empty result.
    #[test]
    fn non_finite_query_centers_are_empty_in_fast_and_batched_paths() {
        let cloud = random_cloud(400, 23, 40.0);
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud, KdTreeConfig::default(), &mut sim);
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let queries = [
            Point3::new(f32::NAN, 0.0, 0.0),
            Point3::new(0.0, f32::INFINITY, 0.0),
            Point3::new(0.0, 0.0, f32::NEG_INFINITY),
        ];
        for q in queries {
            let mut stats = SearchStats::default();
            two_phase_search(&tree, q, 1.5, &mut scratch, &mut out, &mut stats);
            assert!(out.is_empty(), "query {q:?}");
            assert_eq!(stats, SearchStats::default(), "query {q:?}");
        }
        let mut batch = QueryBatch::new();
        batch_search(&tree, &queries, 1.5, &mut batch);
        assert_eq!(batch.num_queries(), queries.len());
        assert_eq!(batch.total_matches(), 0);
        assert_eq!(*batch.stats(), SearchStats::default());
    }

    #[test]
    fn empty_tree_and_empty_batch_are_fine() {
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(Vec::new(), KdTreeConfig::default(), &mut sim);
        let mut scratch = SearchScratch::new();
        let mut out = vec![Neighbor {
            index: 0,
            dist_sq: 0.0,
        }];
        let mut stats = SearchStats::default();
        two_phase_search(&tree, Point3::ZERO, 5.0, &mut scratch, &mut out, &mut stats);
        assert!(out.is_empty());
        let mut batch = QueryBatch::new();
        batch_search(&tree, &[], 1.0, &mut batch);
        assert_eq!(batch.num_queries(), 0);
        assert_eq!(batch.total_matches(), 0);
    }
}
