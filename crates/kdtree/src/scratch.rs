//! Reusable search state and the batch-query containers.
//!
//! The seed implementation recursed per query and allocated fresh
//! result vectors per call. Production radius search instead reuses a
//! [`SearchScratch`] (the explicit traversal stack) and a
//! [`QueryBatch`] (flat results of many queries), so a warmed-up query
//! performs **zero heap allocations**: the stack, the neighbor buffer
//! and the per-query offset table all retain their capacity across
//! calls.

use std::hint::select_unpredictable;

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

/// One frame of the fast walker's stack
/// ([`KdTree::collect_leaves_in_radius`]): a node whose cell lies
/// within `min_dist_sq` of the query, with the per-axis contributions
/// to that distance. The instrumented walker keeps its own [`Frame`]s.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WalkFrame {
    /// Node to visit.
    node: NodeId,
    /// Exact squared distance from the query to the node's cell.
    min_dist_sq: f32,
    /// Per-axis contributions to `min_dist_sq`.
    side: [f32; 3],
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
    /// The instrumented walker's stack.
    pub(crate) frames: Vec<Frame>,
    /// The fast walker's stack.
    walk: Vec<WalkFrame>,
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
            walk: Vec::with_capacity(depth + 1),
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
    /// The walk is shaped for the branch predictor. An interior node
    /// descends straight into its near child (no push/pop round trip)
    /// and picks near child, far child and divider gap with selects.
    /// It then always writes the far child's frame (node, cell
    /// distance, per-axis parts) to the top of a plain-struct stack and
    /// keeps it only when the far cell reaches the ball, by advancing
    /// the stack pointer by `!(far_dist_sq > r²) as usize` (a NaN
    /// distance, possible only at `r² = ∞`, stays in reach). What is
    /// left to mispredict is the leaf/interior test of each node. The
    /// stack holds at most one frame per level above the current node,
    /// so it is sized from the tree's `max_depth` and grows only if a
    /// node lies deeper than that.
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
        let nodes = self.nodes();
        if nodes.is_empty()
            || !crate::search::radius_is_searchable(radius)
            || !crate::search::query_is_searchable(query)
        {
            return;
        }
        let r_sq = radius * radius;
        let q = [query.x, query.y, query.z];
        let stack = &mut scratch.walk;
        let depth = self.build_stats().max_depth as usize + 1;
        if stack.len() < depth {
            stack.resize(depth, WalkFrame::default());
        }
        let mut sp = 0usize;
        let mut cur = WalkFrame::default();
        let mut nodes_visited = 0u64;
        let opaque = std::hint::black_box([0u32; 2]);
        loop {
            nodes_visited += 1;
            match nodes[cur.node as usize] {
                Node::Leaf { start, count, .. } => {
                    visited.push((cur.node, start, count));
                    if sp == 0 {
                        break;
                    }
                    sp -= 1;
                    cur = stack[sp];
                }
                Node::Interior {
                    axis,
                    split_val,
                    div_low,
                    div_high,
                    left,
                    right,
                } => {
                    let a = axis.index();
                    let val = q[a];
                    let go_left = val <= split_val;
                    let near = select_unpredictable(go_left, left, right);
                    let far = select_unpredictable(go_left, right, left);
                    // `div_high − val` going left, `val − div_low` going
                    // right.
                    let gap = pick(go_left, div_high - val, val - div_low, opaque).max(0.0);
                    let cut = gap * gap;
                    let far_dist_sq = cur.min_dist_sq - cur.side[a] + cut;
                    let [s0, s1, s2] = cur.side;
                    let far_frame = WalkFrame {
                        node: far,
                        min_dist_sq: far_dist_sq,
                        side: [
                            pick(a == 0, cut, s0, opaque),
                            pick(a == 1, cut, s1, opaque),
                            pick(a == 2, cut, s2, opaque),
                        ],
                    };
                    match stack.get_mut(sp) {
                        Some(slot) => *slot = far_frame,
                        None => stack.push(far_frame),
                    }
                    sp += crate::search::far_cell_in_reach(far_dist_sq, r_sq) as usize;
                    cur.node = near;
                }
            }
        }
        stats.nodes_visited += nodes_visited;
        stats.leaf_visits += visited.len() as u64;
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
            let (lo, hi) = (start as usize, start as usize + count as usize);
            crate::simd::scan_slots_scalar(xs, ys, zs, &self.vind, lo, hi, query, r_sq, out);
        }
    }

    /// Compares one leaf with a block of queries in baseline `f32`
    /// precision: `masks[i]` receives the slots (bit `j` for slot
    /// `start + j`) that [`sweep_leaf_visits`](KdTree::sweep_leaf_visits)
    /// of that leaf with `queries[i]` reports — bit for bit the same
    /// `(x−q.x)² + (y−q.y)² + (z−q.z)² ≤ r_sq` compare (the AVX2 sweep's
    /// group arithmetic on AVX2 hosts, the scalar loop's elsewhere). The
    /// leaf's rows are loaded once for the whole block, so `stats`
    /// counts `count` points inspected per query but the leaf's
    /// `12 · count` bytes once.
    ///
    /// # Panics
    ///
    /// Panics when the leaf holds more than
    /// [`BLOCK_SLOTS`](crate::simd::BLOCK_SLOTS) slots or lies outside
    /// the rows, when `masks` and `queries` differ in length, or on an
    /// f16-row tree (like every baseline sweep).
    pub fn leaf_hit_masks(
        &self,
        leaf: crate::simd::LeafVisit,
        queries: &[Point3],
        r_sq: f32,
        masks: &mut [u32],
        stats: &mut SearchStats,
    ) {
        let (_, start, count) = leaf;
        stats.points_inspected += count as u64 * queries.len() as u64;
        stats.point_bytes_loaded += count as u64 * 12;
        let (xs, ys, zs) = self.leaf_soa();
        crate::simd::baseline_hit_masks(
            xs,
            ys,
            zs,
            start as usize,
            count as usize,
            queries,
            r_sq,
            masks,
        );
    }
}

/// `if c { a } else { b }` on floats, without a branch. The fast
/// walker's selects follow the descent direction, which the branch
/// predictor misses about as often as it hits, and x86 has no scalar
/// float `cmov`, so the compiler lowers a float select to exactly that
/// branch. `pick` selects the bit patterns instead, each xor-ed with
/// its own word of `opaque` — zeros the compiler cannot see through
/// (`black_box`), without which it folds the integer select back into
/// the float one. The xors change no bits.
#[inline(always)]
fn pick(c: bool, a: f32, b: f32, opaque: [u32; 2]) -> f32 {
    f32::from_bits(select_unpredictable(
        c,
        a.to_bits() ^ opaque[0],
        b.to_bits() ^ opaque[1],
    ))
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

    /// Records the leaves the instrumented walker hands its processor,
    /// in visit order.
    #[derive(Default)]
    struct VisitRecorder(Vec<crate::simd::LeafVisit>);

    impl crate::search::LeafProcessor for VisitRecorder {
        fn process_leaf(
            &mut self,
            _sim: &mut SimEngine,
            _tree: &KdTree,
            leaf: crate::node::LeafId,
            start: u32,
            count: u32,
            _query: Point3,
            _r_sq: f32,
            _out: &mut Vec<Neighbor>,
            _stats: &mut SearchStats,
        ) {
            self.0.push((leaf, start, count));
        }
    }

    /// Asserts the fast walker visits exactly the leaves the
    /// instrumented walker does, in the same order, with the same
    /// `nodes_visited` and `leaf_visits`.
    fn assert_same_walk(tree: &KdTree, query: Point3, radius: f32, scratch: &mut SearchScratch) {
        let mut sim = SimEngine::disabled();
        let mut rec = VisitRecorder::default();
        let (mut slow_out, mut slow_stats) = (Vec::new(), SearchStats::default());
        let mut slow_scratch = SearchScratch::new();
        tree.radius_search_scratch(
            &mut sim,
            &mut rec,
            query,
            radius,
            &mut slow_out,
            &mut slow_stats,
            &mut slow_scratch,
        );
        let (mut visited, mut fast_stats) = (Vec::new(), SearchStats::default());
        tree.collect_leaves_in_radius(query, radius, scratch, &mut fast_stats, &mut visited);
        assert_eq!(visited, rec.0, "visit list, query {query:?} r {radius}");
        assert_eq!(
            (fast_stats.nodes_visited, fast_stats.leaf_visits),
            (slow_stats.nodes_visited, slow_stats.leaf_visits),
            "traversal counters, query {query:?} r {radius}"
        );
    }

    /// Every interior node of `tree` as `(axis, split_val, div_low,
    /// div_high)`.
    fn splits(tree: &KdTree) -> Vec<(bonsai_geom::Axis, f32, f32, f32)> {
        tree.nodes()
            .iter()
            .filter_map(|n| match *n {
                Node::Interior {
                    axis,
                    split_val,
                    div_low,
                    div_high,
                    ..
                } => Some((axis, split_val, div_low, div_high)),
                Node::Leaf { .. } => None,
            })
            .collect()
    }

    /// The fast walker's selects and always-written far frame against
    /// the instrumented walker on the boundary cases of its compares:
    /// queries exactly on a split value, far cells exactly at `r²`,
    /// zero-gap dividers, and a tree deepened by inserts past the depth
    /// its scratch was sized for.
    #[test]
    fn fast_walk_matches_instrumented_walk_on_ties() {
        let mut sim = SimEngine::disabled();
        let cloud = random_cloud(1200, 41, 30.0);
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let mut scratch = SearchScratch::new();
        for (k, &(axis, split_val, div_low, div_high)) in splits(&tree).iter().enumerate() {
            let mut q = cloud[k % cloud.len()];
            // On the split value: `val <= split_val` goes left.
            q[axis] = split_val;
            for r in [0.05f32, 0.4, 1.5] {
                assert_same_walk(&tree, q, r, &mut scratch);
            }
            // Far cell exactly at r²: the gap itself as the radius makes
            // `cut == r²` bit for bit, so at the root `far_dist_sq == r²`.
            for (val, gap) in [
                (div_low, div_high - div_low),
                (div_high, div_high - div_low),
            ] {
                q[axis] = val;
                if gap > 0.0 {
                    assert_same_walk(&tree, q, gap, &mut scratch);
                }
            }
        }
        // The root's far cell at exactly r² (min_dist_sq and side are
        // still zero there).
        let (root_axis, root_split, _, root_high) = splits(&tree)[0];
        let mut q = cloud[0];
        q[root_axis] = root_split;
        let gap = root_high - root_split;
        assert!(gap > 0.0, "the root divider has a gap in a random cloud");
        assert_same_walk(&tree, q, gap, &mut scratch);

        // Duplicates straddling splits: dividers with div_low ==
        // split_val == div_high, so every gap is zero.
        let mut dup = Vec::new();
        for i in 0..400 {
            let v = (i % 5) as f32;
            dup.push(Point3::new(v, v * 0.5, (i % 3) as f32));
        }
        let dup_tree = KdTree::build(dup.clone(), KdTreeConfig::default(), &mut sim);
        assert!(
            splits(&dup_tree)
                .iter()
                .any(|&(_, s, lo, hi)| lo == s && hi == s),
            "the duplicate cloud has zero-gap dividers"
        );
        for &q in dup.iter().take(15) {
            for r in [1e-3f32, 0.5, 1.0, 2.0] {
                assert_same_walk(&dup_tree, q, r, &mut scratch);
            }
        }

        // Deepen a tree by inserts: the scratch sized for the built
        // depth must grow with the tree.
        let mut deep = KdTree::build(cloud[..64].to_vec(), KdTreeConfig::default(), &mut sim);
        let built = deep.build_stats().max_depth as usize;
        let mut small = SearchScratch::with_depth(built);
        for i in 0..600 {
            let t = i as f32 * 1e-3;
            deep.insert(&mut sim, Point3::new(1.0 + t, 2.0 - t, 0.5 + t * 0.5));
        }
        let grown = deep.build_stats().max_depth as usize;
        assert!(
            grown > built,
            "inserts deepened the tree: {built} → {grown}"
        );
        for k in 0..40 {
            let t = k as f32 * 0.015;
            let q = Point3::new(1.0 + t, 2.0 - t, 0.5 + t * 0.5);
            for r in [0.01f32, 0.1, 3.0] {
                assert_same_walk(&deep, q, r, &mut small);
            }
        }
        assert!(
            small.walk.len() > built + 1,
            "the walk stack grew past the built depth"
        );
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
