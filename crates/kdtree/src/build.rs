//! The instrumented sequential builder ([`KdTree::build`],
//! [`KdTree::build_f16`]) and the tree's accessors.
//!
//! One split step, `split_range`, serves this builder and the
//! uninstrumented subtree builder of [`parts`](crate::parts): it
//! partitions a range on its box's widest axis, computes both child
//! boxes in one pass, reads the dividers off them and hands each box
//! down, so no node rescans its range for a box or a divider. This
//! builder still charges the simulator for the per-node box pass FLANN
//! runs, but walks that range only when the simulator is enabled.
//!
//! # Records
//!
//! The split step moves 16-byte records `(x, y, z, idx)` (`Rec`), not
//! indices into the cloud, the way dinotree partitions `{rect, index}`
//! pairs: the select compares the key in hand, and each child's box is
//! a lane fold over contiguous memory, with no gather through `vind`.
//! The tree is exactly the one an index-based split builds: std's
//! select decides each move from its comparison results and the slice
//! length, both unchanged, and the lane fold falls back to the in-order
//! `Aabb` fold whenever a box side is ±0 or NaN, the only values whose
//! bits depend on the fold order. A `#[cfg(test)]` copy of the
//! index-based split (`reference`) checks nodes, `vind`, rows and
//! stats bit for bit. The record array (16 B per point) lives only for
//! the build: `vind` is written from the records' indices once, at the
//! end, and the leaf rows are baked from the records in slot order.
//!
//! The build packs each leaf's points in one contiguous range, and the
//! leaves back to back: a fresh tree holds exactly one `vind` slot and
//! one row slot per point, like PCL's reordered matrix. The reorder
//! pass bakes the leaf rows in the tree's [`RowLayout`]. Lane width
//! plays no part in the layout: the sweeps of [`simd`](crate::simd)
//! finish each leaf's partial lane group themselves.

use bonsai_geom::{Aabb, Axis, Point3};
use bonsai_sim::{Kernel, OpClass, SimEngine};

use crate::costs::TraversalCosts;
use crate::mutate::{MutationStats, NodeMeta};
use crate::node::{Node, NodeId, NODE_BYTES};
use crate::rows::{LeafRows, RowLayout};

/// How an interior node chooses its split threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitRule {
    /// Split at the median coordinate (the paper's description of the
    /// PCL build: "the median value in coordinate c … is found").
    #[default]
    Median,
    /// FLANN's sliding-midpoint rule: split at the bounding-box centre,
    /// sliding to the nearest point when one side would be empty. Used
    /// by the `ablation_split_rule` bench.
    SlidingMidpoint,
}

/// Construction parameters.
///
/// # Examples
///
/// ```
/// use bonsai_kdtree::KdTreeConfig;
/// assert_eq!(KdTreeConfig::default().max_leaf_points, 15); // the PCL default
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KdTreeConfig {
    /// Maximum points per leaf (`m`). PCL defaults to 15; the ZipPts
    /// buffer supports up to 16.
    pub max_leaf_points: usize,
    /// Split-threshold rule.
    pub split_rule: SplitRule,
}

impl Default for KdTreeConfig {
    fn default() -> KdTreeConfig {
        KdTreeConfig {
            max_leaf_points: 15,
            split_rule: SplitRule::Median,
        }
    }
}

/// Nodes a median-split build creates over `n > 0` points with at most
/// `max_leaf` points per leaf. The median split always halves the count
/// (`n / 2` left, the rest right), so the shape depends on `n` alone
/// and the node pool can be sized exactly before it is filled.
fn median_node_count(n: usize, max_leaf: usize) -> usize {
    if n <= max_leaf {
        1
    } else {
        1 + median_node_count(n / 2, max_leaf) + median_node_count(n - n / 2, max_leaf)
    }
}

/// Shape statistics recorded while building.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuildStats {
    /// Number of leaves.
    pub num_leaves: u32,
    /// Number of interior nodes.
    pub num_interior: u32,
    /// Deepest leaf depth (root = 0).
    pub max_depth: u32,
}

/// The bucketed k-d tree. See the [crate docs](crate) for an overview.
#[derive(Debug, Clone)]
pub struct KdTree {
    pub(crate) points: Vec<Point3>,
    pub(crate) vind: Vec<u32>,
    pub(crate) nodes: Vec<Node>,
    /// Leaf-contiguous SoA copy of the cloud, baked by the reorder pass:
    /// slot `i` holds `points[vind[i]]`, so a leaf scan is one linear
    /// sweep over three dense rows instead of an indexed gather. This
    /// is the host-side realization of FLANN's `reorder=true` matrix
    /// the simulated layout already modelled, in the tree's one
    /// [`RowLayout`]: exact `f32` for [`KdTree::build`], leaf-relative
    /// binary16 for [`KdTree::build_f16`].
    pub(crate) rows: LeafRows,
    pub(crate) cfg: KdTreeConfig,
    pub(crate) stats: BuildStats,
    /// Liveness of each point index: `false` after [`KdTree::delete`].
    pub(crate) alive: Vec<bool>,
    /// Number of `true` entries in `alive`.
    pub(crate) num_live: usize,
    /// Per-node mutation bookkeeping (subtree live counts, leaf counts,
    /// leaf slot capacities), parallel to `nodes`.
    pub(crate) meta: Vec<NodeMeta>,
    /// `vind`/SoA slots abandoned by leaf relocations and subtree
    /// rebuilds (fragmentation; reclaimed only by a full rebuild).
    pub(crate) garbage_slots: usize,
    /// Node-pool slots freed by subtree rebuilds, reusable by later
    /// rebuilds so churn does not grow the pool unboundedly.
    pub(crate) free_nodes: Vec<NodeId>,
    /// Node ids touched since the last [`KdTree::drain_dirty_nodes`] —
    /// the invalidation feed of layered caches (the compressed-leaf
    /// directory of `bonsai-core`).
    pub(crate) dirty_nodes: Vec<NodeId>,
    /// Mutation counters.
    pub(crate) mut_stats: MutationStats,
    /// Simulated base of the 16-byte-stride point array (PCL `PointXYZ`
    /// is 16 bytes: x, y, z + SSE padding).
    pub(crate) points_addr: u64,
    /// Simulated base of the reordered index array.
    pub(crate) vind_addr: u64,
    /// Simulated base of the node pool.
    pub(crate) nodes_addr: u64,
    /// Simulated base of the *reordered* point-data matrix: FLANN's
    /// `reorder=true` (the PCL default) copies the points into `vind`
    /// order after building, so leaf scans read consecutive 12-byte rows
    /// instead of gathering through the index array.
    pub(crate) reordered_addr: u64,
}

/// The panic message of a baseline scan handle built over an f16-row
/// tree.
const F16_ROWS_ONLY: &str = "baseline leaf scan over an f16-row KdTree (a BonsaiTree's): it keeps \
     no f32 rows; build a sibling KdTree::build over the same points for baseline searches";

/// Simulated bytes per stored point (PCL `PointXYZ` stride).
pub(crate) const POINT_STRIDE: u64 = 16;

/// Simulated bytes per row of the reordered FLANN data matrix
/// (3 × f32, densely packed).
pub(crate) const REORDERED_STRIDE: u64 = 12;

impl KdTree {
    /// Builds a tree over `points` with exact `f32` leaf rows, charging
    /// construction work to the `Build` kernel of `sim`.
    ///
    /// The splits move a transient array of 16-byte point records
    /// (coordinates beside the point's index), freed before this
    /// returns, so the select and the child-box folds read no point
    /// through `vind`. The tree, its `vind`, rows and simulator events
    /// are bit-identical to those of a split over indices.
    ///
    /// An empty cloud yields an empty tree (searches return nothing).
    pub fn build(points: Vec<Point3>, cfg: KdTreeConfig, sim: &mut SimEngine) -> KdTree {
        KdTree::build_rows(points, cfg, RowLayout::F32, sim)
    }

    /// [`build`](KdTree::build) with binary16 leaf rows: the tree a
    /// `bonsai-core` `BonsaiTree` serves from. Each leaf's rows hold the
    /// halves of its points *relative to the leaf's origin*
    /// ([`leaf_origin`](crate::leaf_origin)), so the f16 step follows
    /// the leaf's extent, not its distance from the map origin. Shape,
    /// `vind` order and simulator events are identical to
    /// [`build`](KdTree::build)'s (whose `f32` rows keep every origin
    /// at zero); only the host copy of the leaves
    /// is half as wide, and it is the only copy — baseline scans
    /// ([`BaselineLeafProcessor`](crate::BaselineLeafProcessor), the
    /// baseline `RadiusSearchEngine`) refuse such a tree.
    pub fn build_f16(points: Vec<Point3>, cfg: KdTreeConfig, sim: &mut SimEngine) -> KdTree {
        KdTree::build_rows(points, cfg, RowLayout::F16, sim)
    }

    fn build_rows(
        points: Vec<Point3>,
        cfg: KdTreeConfig,
        layout: RowLayout,
        sim: &mut SimEngine,
    ) -> KdTree {
        assert!(
            (1..=bonsai_isa_max_leaf()).contains(&cfg.max_leaf_points),
            "max_leaf_points must be in 1..=16, got {}",
            cfg.max_leaf_points
        );
        let n = points.len();
        let points_addr = sim.alloc(n as u64 * POINT_STRIDE, 64);
        // The vind/reordered regions hold one slot per point: the
        // builders pack every leaf exactly.
        let vind_addr = sim.alloc(n as u64 * 4, 64);
        // Node-pool bound: every interior split leaves both sides
        // non-empty, so there are at most 2n − 1 nodes.
        let nodes_addr = sim.alloc((2 * n as u64 + 1) * NODE_BYTES, 64);
        let reordered_addr = sim.alloc(n as u64 * REORDERED_STRIDE, 64);

        // The split step moves 16-byte records; `vind` and the rows are
        // written from them once, after the recursion, and the records
        // are freed before the tree is returned.
        let mut recs = Rec::gather(&points, 0..n as u32);
        let mut tree = KdTree {
            points,
            vind: Vec::new(),
            nodes: Vec::new(),
            rows: LeafRows::with_capacity(layout, 0),
            cfg,
            stats: BuildStats::default(),
            alive: vec![true; n],
            num_live: n,
            meta: Vec::new(),
            garbage_slots: 0,
            free_nodes: Vec::new(),
            dirty_nodes: Vec::new(),
            mut_stats: MutationStats::default(),
            points_addr,
            vind_addr,
            nodes_addr,
            reordered_addr,
        };
        if n > 0 {
            let prev = sim.set_kernel(Kernel::Build);
            let costs = TraversalCosts::default_model();
            if cfg.split_rule == SplitRule::Median {
                tree.nodes
                    .reserve_exact(median_node_count(n, cfg.max_leaf_points));
            }
            let bbox = records_box(&recs);
            tree.build_range(sim, &costs, &mut recs, 0, 0, bbox);
            // A sliding-midpoint shape depends on the data, so that
            // pool is trimmed after the fact (one shrinking realloc; a
            // no-op on the exactly sized median pool).
            tree.nodes.shrink_to_fit();
            tree.vind = recs.iter().map(|r| r.idx).collect();
            // FLANN's reorder pass: copy the points into vind order so
            // leaf scans stream instead of gathering. Host-side this
            // bakes the leaf-contiguous rows the fast scans sweep, in
            // the tree's layout. The events charge the 12-byte rows of
            // PCL's reordered matrix whatever the host layout.
            if sim.is_enabled() {
                for i in 0..n {
                    sim.load(tree.vind_entry_addr(i as u32), 4);
                    sim.load(tree.point_addr(tree.vind[i]), 12);
                    sim.store(tree.reordered_point_addr(i as u32), 12);
                    sim.exec(OpClass::IntAlu, 2);
                }
            }
            tree.rows = LeafRows::bake(layout, &tree.nodes, &recs);
            sim.set_kernel(prev);
        }
        tree.rebuild_meta();
        tree
    }

    /// Builds a tree with the top levels of the recursion fanned out
    /// across scoped worker threads (`threads == 0` uses the machine's
    /// available parallelism) — the dinotree idiom of handing each
    /// half of a partition to its own worker until the workers run out.
    ///
    /// The resulting tree is **identical** (nodes, `vind` order, `f32`
    /// rows, shape stats) to [`KdTree::build`] over the same cloud; only
    /// the wall-clock construction differs. No simulator events are
    /// recorded — this is the uninstrumented production build, also
    /// reused by criterion-triggered subtree rebuilds. Without the
    /// `parallel` feature the fan degenerates to the sequential walk.
    pub fn build_parallel(points: Vec<Point3>, cfg: KdTreeConfig, threads: usize) -> KdTree {
        crate::parts::build_tree_parallel(points, cfg, RowLayout::F32, threads)
    }

    /// [`build_parallel`](KdTree::build_parallel) with binary16 leaf
    /// rows — identical to [`build_f16`](KdTree::build_f16) over the
    /// same cloud.
    pub fn build_parallel_f16(points: Vec<Point3>, cfg: KdTreeConfig, threads: usize) -> KdTree {
        crate::parts::build_tree_parallel(points, cfg, RowLayout::F16, threads)
    }

    /// Recursively builds the slots `lo..lo + recs.len()` (the records
    /// `recs`, the tree's `vind[lo..]` to be), whose box `bbox` the
    /// parent's split handed down; returns the created node id.
    fn build_range(
        &mut self,
        sim: &mut SimEngine,
        costs: &TraversalCosts,
        recs: &mut [Rec],
        lo: usize,
        depth: u32,
        bbox: Aabb,
    ) -> NodeId {
        let count = recs.len();
        self.stats.max_depth = self.stats.max_depth.max(depth);

        // FLANN recomputes each node's bounding box over its whole
        // range; the host already holds it, so only the events remain.
        if sim.is_enabled() {
            for (i, r) in (lo..).zip(&*recs) {
                sim.load(self.vind_entry_addr(i as u32), 4);
                sim.load(self.point_addr(r.idx), 12);
                sim.exec(OpClass::FpAlu, costs.build_bbox_per_point_fp);
            }
        }

        if count <= self.cfg.max_leaf_points {
            sim.exec(OpClass::IntAlu, costs.build_per_leaf);
            return self.push_node(
                sim,
                Node::Leaf {
                    start: lo as u32,
                    count: count as u32,
                    origin: self.rows.layout().origin(bbox.min, bbox.max),
                },
            );
        }

        let (vind_addr, points_addr) = (self.vind_addr, self.points_addr);
        let split = split_range(recs, &bbox, self.cfg.split_rule, |recs| {
            if sim.is_enabled() {
                charge_partition(sim, costs, vind_addr, points_addr, lo, recs);
            }
        });
        sim.exec(OpClass::IntAlu, costs.build_per_node);

        // Reserve the slot so children are numbered after their parent.
        let id = self.push_node(sim, Node::EMPTY_LEAF);
        let (left_recs, right_recs) = recs.split_at_mut(split.mid);
        let left = self.build_range(sim, costs, left_recs, lo, depth + 1, split.left);
        let right = self.build_range(
            sim,
            costs,
            right_recs,
            lo + split.mid,
            depth + 1,
            split.right,
        );
        self.stats.num_leaves -= 1; // The placeholder was counted as a leaf.
        self.stats.num_interior += 1;
        self.nodes[id as usize] = split.node(left, right);
        id
    }

    fn push_node(&mut self, sim: &mut SimEngine, node: Node) -> NodeId {
        let id = self.nodes.len() as NodeId;
        if node.is_leaf() {
            self.stats.num_leaves += 1;
        }
        sim.store(self.node_addr(id), NODE_BYTES as u32);
        self.nodes.push(node);
        id
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// The point cloud the tree was built over (original order).
    pub fn points(&self) -> &[Point3] {
        &self.points
    }

    /// Consumes the tree and hands back its point cloud — what
    /// [`points`](KdTree::points) returns — without a copy.
    pub fn into_points(self) -> Vec<Point3> {
        self.points
    }

    /// The reordered index array; leaves reference ranges of it. A
    /// fresh build packs every leaf exactly (one slot per point); the
    /// unused slack slots of mutated leaves hold
    /// [`PAD_SLOT`](crate::PAD_SLOT), an index no live slot carries.
    pub fn vind(&self) -> &[u32] {
        &self.vind
    }

    /// The layout of the leaf rows: [`RowLayout::F32`] for
    /// [`build`](KdTree::build)/[`build_parallel`](KdTree::build_parallel),
    /// [`RowLayout::F16`] for the `_f16` builders.
    pub fn row_layout(&self) -> RowLayout {
        self.rows.layout()
    }

    /// The leaf-contiguous `f32` point rows `(x, y, z)`: live slot `i`
    /// holds the coordinates of `points()[vind()[i]]`, so each leaf's
    /// points occupy a dense range per coordinate. Slots outside every
    /// leaf's live range are unspecified. Baked by the build's reorder
    /// pass; empty for an empty tree.
    ///
    /// # Panics
    ///
    /// Panics on an f16-row tree ([`build_f16`](KdTree::build_f16)),
    /// which keeps no `f32` copy of its leaves.
    pub fn leaf_soa(&self) -> (&[f32], &[f32], &[f32]) {
        match &self.rows {
            LeafRows::F32(r) => (&r.x, &r.y, &r.z),
            // lint: allow(panic-free-serving) — documented `# Panics`
            // contract; the baseline handles refuse an f16-row tree
            // when they are constructed.
            LeafRows::F16(_) => panic!("{F16_ROWS_ONLY}"),
        }
    }

    /// The leaf-contiguous binary16 rows `(x, y, z)` of an f16-row
    /// tree: live slot `i` of leaf `L` holds
    /// [`encode_halves`](crate::encode_halves)`(points()[vind()[i]],
    /// o)` — the raw bits of `f16(p − o)` per axis, `o` the leaf's
    /// [`origin`](Node::Leaf::origin). Slots outside every leaf's live
    /// range are unspecified, as in [`leaf_soa`](KdTree::leaf_soa).
    ///
    /// # Panics
    ///
    /// Panics on an `f32`-row tree.
    pub fn leaf_halves(&self) -> (&[u16], &[u16], &[u16]) {
        match &self.rows {
            LeafRows::F16(r) => (&r.x, &r.y, &r.z),
            // lint: allow(panic-free-serving) — documented `# Panics`
            // contract: only the compressed layers read halves, and
            // they build f16-row trees.
            LeafRows::F32(_) => panic!("f16 leaf rows of an f32-row KdTree; build with build_f16"),
        }
    }

    /// The construction-time check of the baseline scan handles.
    ///
    /// # Panics
    ///
    /// Panics, naming the fix, unless the tree holds `f32` rows.
    pub fn assert_f32_rows(&self) {
        // lint: allow(debug-assert-discipline) — misuse guard checked
        // once per handle, in release builds too: a baseline scan over
        // f16 rows has no exact coordinates to read.
        assert!(self.rows.layout() == RowLayout::F32, "{F16_ROWS_ONLY}");
    }

    /// The [origin](Node::Leaf::origin) leaf `leaf`'s f16 rows are
    /// relative to — the point compressed scans translate the query by
    /// once per visit; `Point3::ZERO` for an interior node.
    #[inline]
    pub fn origin_of(&self, leaf: NodeId) -> Point3 {
        match self.nodes[leaf as usize] {
            Node::Leaf { origin, .. } => origin,
            Node::Interior { .. } => Point3::ZERO,
        }
    }

    /// The origin of the leaf holding each point, indexed like
    /// [`points`](KdTree::points) (`Point3::ZERO` for a deleted point) —
    /// the frame in which a compressed scan classified each hit it
    /// reports.
    pub fn point_origins(&self) -> Vec<Point3> {
        let mut origins = vec![Point3::ZERO; self.points.len()];
        for node in &self.nodes {
            if let Node::Leaf {
                start,
                count,
                origin,
            } = *node
            {
                for &idx in &self.vind[start as usize..(start + count) as usize] {
                    origins[idx as usize] = origin;
                }
            }
        }
        origins
    }

    /// The number of `vind`/SoA slots leaf `leaf` owns from its
    /// `start`: its capacity — its `count` for a packed leaf,
    /// `max_leaf_points` for a mutation-built slack leaf. Slots beyond
    /// the live count are unused slack.
    ///
    /// # Panics
    ///
    /// Panics when `leaf` is not a leaf node.
    pub fn leaf_slot_footprint(&self, leaf: NodeId) -> u32 {
        let Node::Leaf { count, .. } = self.nodes[leaf as usize] else {
            // lint: allow(panic-free-serving) — documented `# Panics`
            // contract: callers pass leaf ids only.
            panic!("leaf_slot_footprint of interior node {leaf}");
        };
        self.meta[leaf as usize].cap.max(count)
    }

    /// The node pool; index 0 is the root (when non-empty).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Construction parameters.
    pub fn config(&self) -> KdTreeConfig {
        self.cfg
    }

    /// Shape statistics.
    pub fn build_stats(&self) -> BuildStats {
        self.stats
    }

    /// Simulated address of point `idx` in the 16-byte-stride array.
    pub fn point_addr(&self, idx: u32) -> u64 {
        self.points_addr + idx as u64 * POINT_STRIDE
    }

    /// Simulated address of slot `i` of the reordered data matrix (the
    /// point `vind[i]`, stored densely in leaf order).
    pub fn reordered_point_addr(&self, i: u32) -> u64 {
        self.reordered_addr + i as u64 * REORDERED_STRIDE
    }

    /// Simulated address of `vind[i]`.
    pub fn vind_entry_addr(&self, i: u32) -> u64 {
        self.vind_addr + i as u64 * 4
    }

    /// Simulated address of node `id`.
    pub fn node_addr(&self, id: NodeId) -> u64 {
        self.nodes_addr + id as u64 * NODE_BYTES
    }
}

/// Branch-site ids of the tree code (used by the gshare predictor).
pub(crate) mod sites {
    /// Build-time partition compare.
    pub const BUILD_PARTITION: u32 = 0x10;
    /// Search descend direction.
    pub const DESCEND: u32 = 0x11;
    /// Visit-far-subtree decision.
    pub const VISIT_FAR: u32 = 0x12;
    /// Baseline in-radius classification.
    pub const CLASSIFY: u32 = 0x13;
    /// kNN worst-distance update.
    pub const KNN_UPDATE: u32 = 0x14;
}

/// One point as the split step moves it: its coordinates beside its
/// index into `points`. A comparison or a box fold reads the record in
/// hand instead of gathering `points[idx]` through `vind`; 16 bytes,
/// so a record is one aligned 128-bit load.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(16))]
pub(crate) struct Rec {
    pub p: Point3,
    pub idx: u32,
}

impl Rec {
    /// The records of the points `idxs` names, in that order.
    pub fn gather(points: &[Point3], idxs: impl IntoIterator<Item = u32>) -> Vec<Rec> {
        idxs.into_iter()
            .map(|idx| Rec {
                p: points[idx as usize],
                idx,
            })
            .collect()
    }
}

/// One interior node's split, as both builders take it.
pub(crate) struct Split {
    /// The split axis: the widest of the range's box.
    pub axis: Axis,
    /// Records `[..mid]` of the range went left.
    pub mid: usize,
    /// The largest left `axis` coordinate.
    pub div_low: f32,
    /// The smallest right `axis` coordinate.
    pub div_high: f32,
    /// The bounding box of the left child's range, handed down to it.
    pub left: Aabb,
    /// The bounding box of the right child's range.
    pub right: Aabb,
}

impl Split {
    /// The interior node with children `left` and `right`.
    pub fn node(&self, left: NodeId, right: NodeId) -> Node {
        Node::Interior {
            axis: self.axis,
            split_val: 0.5 * (self.div_low + self.div_high),
            div_low: self.div_low,
            div_high: self.div_high,
            left,
            right,
        }
    }
}

/// The split step of both builders ([`KdTree::build`] and the subtree
/// builder of [`parts`](crate::parts)): partitions `recs`, whose points
/// span `bbox`, on the box's widest axis, then folds each child's
/// contiguous records for its box and reads the dividers off the boxes.
/// `on_pass` sees `recs` after each partition pass (two when a
/// sliding-midpoint split slides to the median), so the instrumented
/// build charges each pass over the order the host left.
///
/// The records carry their coordinates, so the select compares keys in
/// hand. It moves the records exactly as an index-based select moves
/// the indices: std's `select_nth_unstable_by` decides every move from
/// the comparison results and the slice length alone, and the key and
/// `total_cmp` are the same. The child boxes come from
/// [`records_box`], bit-equal to the in-order `Aabb` fold.
pub(crate) fn split_range(
    recs: &mut [Rec],
    bbox: &Aabb,
    rule: SplitRule,
    mut on_pass: impl FnMut(&[Rec]),
) -> Split {
    let axis = bbox.widest_axis();
    let mut mid = 0;
    if rule == SplitRule::SlidingMidpoint {
        // Stable partition at the box centre.
        let threshold = bbox.center()[axis];
        for i in 0..recs.len() {
            if recs[i].p[axis] < threshold {
                recs.swap(i, mid);
                mid += 1;
            }
        }
        on_pass(recs);
    }
    if mid == 0 || mid == recs.len() {
        // The median split, or a sliding midpoint that left every point
        // on one side: slide to the median so both sides stay non-empty
        // (FLANN's slide degenerates similarly when duplicates collapse
        // the box).
        mid = recs.len() / 2;
        match axis {
            Axis::X => select_nth(recs, mid, |r| r.p.x),
            Axis::Y => select_nth(recs, mid, |r| r.p.y),
            Axis::Z => select_nth(recs, mid, |r| r.p.z),
        }
        on_pass(recs);
    }
    let (left, right) = (records_box(&recs[..mid]), records_box(&recs[mid..]));
    // The dividers equal a fold of `f32::max` from −∞ over the left
    // child (`f32::min` from +∞ over the right): `Aabb::insert` calls
    // them in the fold's operand order, so ±0 keeps its bits. Only a
    // child whose `axis` coordinates are all NaN differs — its box side
    // is NaN where the fold gives ∓∞ — and there the fold's value holds.
    let nan_to = |v: f32, fold: f32| if v.is_nan() { fold } else { v };
    Split {
        axis,
        mid,
        div_low: nan_to(left.max[axis], f32::NEG_INFINITY),
        div_high: nan_to(right.min[axis], f32::INFINITY),
        left,
        right,
    }
}

/// `select_nth_unstable_by` on one coordinate; `key` is monomorphised
/// per axis, so each comparison reads its field without a `match`.
fn select_nth(recs: &mut [Rec], nth: usize, key: impl Fn(&Rec) -> f32) {
    recs.select_nth_unstable_by(nth, |a, b| key(a).total_cmp(&key(b)));
}

/// Records [`records_box`] folds per step, one accumulator each.
const BOX_LANES: usize = 2;

/// The bounding box of `recs`, bit-equal to `Aabb::from_points` folding
/// them in order.
///
/// Each record is read as one 4-lane vector and folded into accumulator
/// `i % BOX_LANES` with the compare-and-select `minps`/`maxps` compute,
/// so the accumulators' dependency chains overlap; the accumulators are
/// folded together at the end. A NaN operand never replaces an
/// accumulator, so where no accumulator starts at NaN a side is the
/// extreme of the non-NaN values, which `f32::min`/`max`'s NaN-skipping
/// in-order fold also returns, and a nonzero extreme has the same bits
/// in any fold order. An accumulator side that is NaN (its first record
/// has a NaN coordinate, or every value is NaN, whose payload the
/// in-order fold keeps) or a ±0 side (which zero wins depends on the
/// operand order) is rare, and then the in-order fold is rerun.
pub(crate) fn records_box(recs: &[Rec]) -> Aabb {
    let sequential = || {
        // lint: allow(panic-free-serving) — build recursion invariant:
        // every partition range holds at least one record.
        Aabb::from_points(recs.iter().map(|r| r.p)).expect("non-empty range")
    };
    if recs.len() < BOX_LANES {
        return sequential();
    }
    // Lane 3 carries the index bits, so a record is one plain load; it
    // is never read back.
    let lanes = |r: &Rec| [r.p.x, r.p.y, r.p.z, f32::from_bits(r.idx)];
    let fold = |lo: &mut [f32; 4], hi: &mut [f32; 4], v: [f32; 4], w: [f32; 4]| {
        for j in 0..4 {
            lo[j] = if v[j] < lo[j] { v[j] } else { lo[j] };
            hi[j] = if w[j] > hi[j] { w[j] } else { hi[j] };
        }
    };
    let (head, body) = recs.split_at(BOX_LANES);
    let mut lo: [[f32; 4]; BOX_LANES] = std::array::from_fn(|k| lanes(&head[k]));
    let mut hi = lo;
    let mut chunks = body.chunks_exact(BOX_LANES);
    for chunk in &mut chunks {
        for k in 0..BOX_LANES {
            let v = lanes(&chunk[k]);
            fold(&mut lo[k], &mut hi[k], v, v);
        }
    }
    for (k, r) in chunks.remainder().iter().enumerate() {
        let v = lanes(r);
        fold(&mut lo[k], &mut hi[k], v, v);
    }
    let nan = lo
        .iter()
        .chain(&hi)
        .any(|acc| acc[..3].iter().any(|v| v.is_nan()));
    let (mut min, mut max) = (lo[0], hi[0]);
    for k in 1..BOX_LANES {
        fold(&mut min, &mut max, lo[k], hi[k]);
    }
    if nan || min[..3].iter().chain(&max[..3]).any(|&v| v == 0.0) {
        return sequential();
    }
    Aabb {
        min: Point3::new(min[0], min[1], min[2]),
        max: Point3::new(max[0], max[1], max[2]),
    }
}

/// Charges one partition pass over `vind[lo..]` (now ordered as
/// `recs`): index load, coordinate load, compare/swap arithmetic, the
/// swap's write-back, and one data-dependent branch per point.
fn charge_partition(
    sim: &mut SimEngine,
    costs: &TraversalCosts,
    vind_addr: u64,
    points_addr: u64,
    lo: usize,
    recs: &[Rec],
) {
    for (i, r) in (lo..).zip(recs) {
        sim.load(vind_addr + 4 * i as u64, 4);
        sim.load(points_addr + r.idx as u64 * POINT_STRIDE, 4); // the splitting coordinate
        sim.exec(OpClass::IntAlu, costs.build_partition_per_point);
        // Partition outcomes look random to the predictor; roughly
        // half the elements are swapped (stored back).
        let swapped = i % 2 == 0;
        sim.branch(sites::BUILD_PARTITION, swapped);
        if swapped {
            sim.store(vind_addr + 4 * i as u64, 4);
        }
    }
}

/// The ZipPts buffer capacity bound on leaf size (kept here so the tree
/// crate does not depend on `bonsai-isa`; asserted equal in integration
/// tests).
fn bonsai_isa_max_leaf() -> usize {
    16
}

/// The index-based split step the record split replaced, kept as the
/// oracle of the builders: it partitions indices into `points`, selects
/// through `points[idx]` and folds each child's box in order through the
/// index array. [`build_subtree`](reference::build_subtree) builds with
/// it in the sequential preorder, and [`build`](reference::build) bakes
/// a whole tree's rows through `vind`.
#[cfg(test)]
pub(crate) mod reference {
    use std::cell::Cell;

    use super::*;
    use crate::mutate::PAD_SLOT;
    use crate::parts::{SubtreeConfig, SubtreeParts};

    thread_local! {
        static SUBTREES_BY_INDEX: Cell<bool> = const { Cell::new(false) };
    }

    /// Whether `parts::build_subtree` runs [`build_subtree`] on this
    /// thread (see [`with_subtrees_by_index`]).
    pub fn subtrees_by_index() -> bool {
        SUBTREES_BY_INDEX.with(Cell::get)
    }

    /// Runs `f` with this thread's subtree builds (mutation rebuilds)
    /// taking the index-based split.
    pub fn with_subtrees_by_index<R>(f: impl FnOnce() -> R) -> R {
        SUBTREES_BY_INDEX.with(|c| c.set(true));
        let out = f();
        SUBTREES_BY_INDEX.with(|c| c.set(false));
        out
    }

    /// The bounding box of the points `idxs` names, folded in order.
    pub fn range_box(points: &[Point3], idxs: &[u32]) -> Aabb {
        Aabb::from_points(idxs.iter().map(|&i| points[i as usize])).expect("non-empty range")
    }

    /// The split step over indices.
    pub fn split_range(points: &[Point3], idxs: &mut [u32], bbox: &Aabb, rule: SplitRule) -> Split {
        let axis = bbox.widest_axis();
        let mut mid = 0;
        if rule == SplitRule::SlidingMidpoint {
            let threshold = bbox.center()[axis];
            for i in 0..idxs.len() {
                if points[idxs[i] as usize][axis] < threshold {
                    idxs.swap(i, mid);
                    mid += 1;
                }
            }
        }
        if mid == 0 || mid == idxs.len() {
            mid = idxs.len() / 2;
            idxs.select_nth_unstable_by(mid, |&a, &b| {
                points[a as usize][axis].total_cmp(&points[b as usize][axis])
            });
        }
        let (left, right) = (
            range_box(points, &idxs[..mid]),
            range_box(points, &idxs[mid..]),
        );
        let nan_to = |v: f32, fold: f32| if v.is_nan() { fold } else { v };
        Split {
            axis,
            mid,
            div_low: nan_to(left.max[axis], f32::NEG_INFINITY),
            div_high: nan_to(right.min[axis], f32::INFINITY),
            left,
            right,
        }
    }

    /// `parts::build_subtree` over the index-based split, sequentially.
    pub fn build_subtree(points: &[Point3], idxs: &[u32], cfg: SubtreeConfig) -> SubtreeParts {
        let mut idxs = idxs.to_vec();
        let mut parts = SubtreeParts {
            nodes: Vec::new(),
            order: Vec::new(),
            stats: BuildStats::default(),
        };
        let bbox = range_box(points, &idxs);
        build_rec(points, &mut idxs, cfg, 0, bbox, &mut parts);
        parts
    }

    fn build_rec(
        points: &[Point3],
        idxs: &mut [u32],
        cfg: SubtreeConfig,
        depth: u32,
        bbox: Aabb,
        parts: &mut SubtreeParts,
    ) -> NodeId {
        parts.stats.max_depth = parts.stats.max_depth.max(depth);
        let id = parts.nodes.len() as NodeId;
        let m = cfg.tree.max_leaf_points;
        if idxs.len() <= m {
            parts.nodes.push(Node::Leaf {
                start: parts.order.len() as u32,
                count: idxs.len() as u32,
                origin: cfg.layout.origin(bbox.min, bbox.max),
            });
            parts.order.extend_from_slice(idxs);
            if cfg.slack {
                parts.order.extend((idxs.len()..m).map(|_| PAD_SLOT));
            }
            parts.stats.num_leaves += 1;
            return id;
        }
        let split = split_range(points, idxs, &bbox, cfg.tree.split_rule);
        parts.nodes.push(Node::EMPTY_LEAF);
        let (l, r) = idxs.split_at_mut(split.mid);
        let left = build_rec(points, l, cfg, depth + 1, split.left, parts);
        let right = build_rec(points, r, cfg, depth + 1, split.right, parts);
        parts.nodes[id as usize] = split.node(left, right);
        parts.stats.num_interior += 1;
        id
    }

    /// A whole packed tree over `points`: its nodes, `vind`, leaf rows
    /// (baked through `vind`) and shape stats.
    pub fn build(
        points: &[Point3],
        cfg: KdTreeConfig,
        layout: RowLayout,
    ) -> (Vec<Node>, Vec<u32>, LeafRows, BuildStats) {
        let n = points.len();
        let mut rows = LeafRows::with_capacity(layout, n);
        if n == 0 {
            return (Vec::new(), Vec::new(), rows, BuildStats::default());
        }
        let all: Vec<u32> = (0..n as u32).collect();
        let cfg = SubtreeConfig {
            tree: cfg,
            layout,
            slack: false,
            threads: 1,
        };
        let parts = build_subtree(points, &all, cfg);
        rows.pad_to(n);
        for node in &parts.nodes {
            if let Node::Leaf {
                start,
                count,
                origin,
            } = *node
            {
                for i in start as usize..(start + count) as usize {
                    rows.set_point(i, points[parts.order[i] as usize], origin);
                }
            }
        }
        (parts.nodes, parts.order, rows, parts.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_cloud(n_side: usize) -> Vec<Point3> {
        let mut pts = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                pts.push(Point3::new(
                    i as f32,
                    j as f32,
                    ((i * 7 + j) % 5) as f32 * 0.1,
                ));
            }
        }
        pts
    }

    #[test]
    fn all_points_appear_in_exactly_one_leaf() {
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(grid_cloud(20), KdTreeConfig::default(), &mut sim);
        let mut seen = vec![false; tree.points().len()];
        for node in tree.nodes() {
            if let Node::Leaf { start, count, .. } = node {
                for i in *start..(start + count) {
                    let idx = tree.vind()[i as usize] as usize;
                    assert!(!seen[idx], "point {idx} in two leaves");
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every point assigned");
    }

    #[test]
    fn leaves_respect_max_size() {
        let mut sim = SimEngine::disabled();
        for m in [1, 4, 15, 16] {
            let cfg = KdTreeConfig {
                max_leaf_points: m,
                ..KdTreeConfig::default()
            };
            let tree = KdTree::build(grid_cloud(12), cfg, &mut sim);
            for node in tree.nodes() {
                if let Node::Leaf { count, .. } = node {
                    assert!(*count as usize <= m, "leaf of {count} > {m}");
                    assert!(*count > 0, "empty leaf");
                }
            }
        }
    }

    #[test]
    fn interior_invariants_hold() {
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(grid_cloud(15), KdTreeConfig::default(), &mut sim);
        // Every interior node: all left-subtree points have axis coord
        // <= div_low <= split_val <= div_high <= all right coords.
        fn collect(tree: &KdTree, id: NodeId, out: &mut Vec<u32>) {
            match tree.nodes()[id as usize] {
                Node::Leaf { start, count, .. } => {
                    out.extend_from_slice(&tree.vind()[start as usize..(start + count) as usize])
                }
                Node::Interior { left, right, .. } => {
                    collect(tree, left, out);
                    collect(tree, right, out);
                }
            }
        }
        for node in tree.nodes() {
            if let Node::Interior {
                axis,
                split_val,
                div_low,
                div_high,
                left,
                right,
            } = *node
            {
                let mut l = Vec::new();
                let mut r = Vec::new();
                collect(&tree, left, &mut l);
                collect(&tree, right, &mut r);
                assert!(!l.is_empty() && !r.is_empty());
                for i in l {
                    assert!(tree.points()[i as usize][axis] <= div_low + 1e-6);
                }
                for i in r {
                    assert!(tree.points()[i as usize][axis] >= div_high - 1e-6);
                }
                assert!(div_low <= split_val + 1e-6 && split_val <= div_high + 1e-6);
            }
        }
    }

    #[test]
    fn stats_are_consistent() {
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(grid_cloud(20), KdTreeConfig::default(), &mut sim);
        let s = tree.build_stats();
        assert_eq!(s.num_leaves + s.num_interior, tree.nodes().len() as u32);
        // A binary tree with L leaves has L − 1 interior nodes.
        assert_eq!(s.num_interior, s.num_leaves - 1);
        // 400 points at ≤15/leaf → at least 27 leaves.
        assert!(s.num_leaves >= 27);
        assert!(s.max_depth >= 5);
    }

    #[test]
    fn build_charges_the_build_kernel() {
        let mut sim = SimEngine::new(&bonsai_sim::CpuConfig::a72_like());
        KdTree::build(grid_cloud(10), KdTreeConfig::default(), &mut sim);
        let build = *sim.kernel_counters(Kernel::Build);
        assert!(build.loads > 100, "bbox/partition passes load points");
        assert!(build.stores > 10, "node pool writes");
        assert!(build.branches > 50, "partition branches");
        assert_eq!(sim.kernel_counters(Kernel::Traverse).micro_ops(), 0);
    }

    #[test]
    fn sliding_midpoint_also_builds_valid_trees() {
        let mut sim = SimEngine::disabled();
        let cfg = KdTreeConfig {
            split_rule: SplitRule::SlidingMidpoint,
            ..Default::default()
        };
        let tree = KdTree::build(grid_cloud(15), cfg, &mut sim);
        let s = tree.build_stats();
        assert_eq!(s.num_interior, s.num_leaves - 1);
    }

    #[test]
    fn duplicate_points_build_without_infinite_recursion() {
        let mut sim = SimEngine::disabled();
        let pts = vec![Point3::new(1.0, 2.0, 3.0); 100];
        let tree = KdTree::build(pts, KdTreeConfig::default(), &mut sim);
        assert!(tree.build_stats().num_leaves >= 7);
    }

    #[test]
    #[should_panic(expected = "max_leaf_points")]
    fn oversized_leaf_config_rejected() {
        let mut sim = SimEngine::disabled();
        let cfg = KdTreeConfig {
            max_leaf_points: 17,
            ..Default::default()
        };
        KdTree::build(vec![Point3::ZERO], cfg, &mut sim);
    }

    #[test]
    fn empty_cloud_builds_empty_tree() {
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(Vec::new(), KdTreeConfig::default(), &mut sim);
        assert!(tree.nodes().is_empty());
    }

    /// The index buffers a build leaves behind hold no spare capacity,
    /// in the sequential and the parallel builder of either row
    /// layout (an f16-row tree holds no f32 rows at all): the median node pool
    /// and `vind` are sized before they are filled, the
    /// sliding-midpoint pool is trimmed afterwards.
    #[test]
    fn build_leaves_exact_capacity_buffers() {
        let mut sim = SimEngine::disabled();
        for rule in [SplitRule::Median, SplitRule::SlidingMidpoint] {
            for (side, m) in [(1, 15), (7, 1), (20, 4), (33, 15), (40, 16)] {
                let cfg = KdTreeConfig {
                    max_leaf_points: m,
                    split_rule: rule,
                };
                let trees = [
                    ("build", KdTree::build(grid_cloud(side), cfg, &mut sim)),
                    (
                        "build_parallel",
                        KdTree::build_parallel(grid_cloud(side), cfg, 2),
                    ),
                    (
                        "build_f16",
                        KdTree::build_f16(grid_cloud(side), cfg, &mut sim),
                    ),
                    (
                        "build_parallel_f16",
                        KdTree::build_parallel_f16(grid_cloud(side), cfg, 2),
                    ),
                ];
                for (builder, tree) in trees {
                    let what = format!("{builder} {rule:?} {side}² m {m}");
                    let f16 = builder.ends_with("f16");
                    assert_eq!(tree.row_layout() == RowLayout::F16, f16, "layout, {what}");
                    assert_eq!(tree.nodes.capacity(), tree.nodes.len(), "nodes, {what}");
                    assert_eq!(tree.meta.capacity(), tree.meta.len(), "meta, {what}");
                    assert_eq!(tree.vind.capacity(), tree.vind.len(), "vind, {what}");
                    assert_eq!(
                        tree.rows.capacities(),
                        tree.rows.lens(),
                        "leaf rows, {what}"
                    );
                    if rule == SplitRule::Median {
                        assert_eq!(tree.nodes.len(), median_node_count(side * side, m));
                    }
                }
            }
        }
    }

    /// A cloud of `n` points for the record-split oracle. `kind` 0 draws
    /// uniform coordinates; 1 draws from five values, so every axis is
    /// full of ties; 2 mixes those with NaN (three payloads, both
    /// signs), ±0 and ±∞, and repeats earlier points.
    fn oracle_cloud(n: usize, seed: u64, kind: u32) -> Vec<Point3> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state >> 11
        };
        const TIES: [f32; 5] = [-1.5, 0.25, 2.0, 2.0, 7.0];
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7FC0_0ABC),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let mut coord = |kind: u32| {
            let r = next();
            match (kind, r % 8) {
                (0, _) => (r >> 8) as f32 / (1u64 << 45) as f32 * 100.0 - 50.0,
                (1, _) | (2, 0..=3) => TIES[(r >> 8) as usize % TIES.len()],
                (_, 4..=5) => specials[(r >> 8) as usize % specials.len()],
                _ => (r >> 8) as f32 / (1u64 << 45) as f32 * 10.0 - 5.0,
            }
        };
        let mut cloud: Vec<Point3> = Vec::with_capacity(n);
        for i in 0..n {
            let p = if kind == 2 && i > 0 && i % 7 == 3 {
                cloud[(i * 31) % i]
            } else {
                Point3::new(coord(kind), coord(kind), coord(kind))
            };
            cloud.push(p);
        }
        cloud
    }

    /// The bits of a node, so NaN and ±0 fields compare exactly.
    fn node_bits(node: &Node) -> [u32; 6] {
        match *node {
            Node::Interior {
                axis,
                split_val,
                div_low,
                div_high,
                left,
                right,
            } => [
                axis as u32,
                split_val.to_bits(),
                div_low.to_bits(),
                div_high.to_bits(),
                left,
                right,
            ],
            Node::Leaf {
                start,
                count,
                origin,
            } => [
                u32::MAX,
                start,
                count,
                origin.x.to_bits(),
                origin.y.to_bits(),
                origin.z.to_bits(),
            ],
        }
    }

    fn box_bits(b: &Aabb) -> [u32; 6] {
        [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z].map(f32::to_bits)
    }

    fn rows_bits(rows: &LeafRows) -> Vec<u32> {
        match rows {
            LeafRows::F32(r) => [&r.x, &r.y, &r.z]
                .into_iter()
                .flatten()
                .map(|c| c.to_bits())
                .collect(),
            LeafRows::F16(r) => [&r.x, &r.y, &r.z]
                .into_iter()
                .flatten()
                .map(|&h| u32::from(h))
                .collect(),
        }
    }

    /// Asserts `tree` holds the reference's nodes, `vind`, rows and
    /// stats, bit for bit.
    fn assert_matches_reference(
        tree: &KdTree,
        (nodes, vind, rows, stats): &(Vec<Node>, Vec<u32>, LeafRows, BuildStats),
        what: &str,
    ) {
        let bits = |nodes: &[Node]| nodes.iter().map(node_bits).collect::<Vec<_>>();
        assert_eq!(bits(&tree.nodes), bits(nodes), "nodes, {what}");
        assert_eq!(&tree.vind, vind, "vind, {what}");
        assert_eq!(tree.rows.layout(), rows.layout(), "layout, {what}");
        assert_eq!(rows_bits(&tree.rows), rows_bits(rows), "rows, {what}");
        assert_eq!(tree.stats, *stats, "stats, {what}");
    }

    /// One split step over records moves them exactly as the
    /// index-based step moves indices, with the same axis, dividers and
    /// child boxes, on every prefix length of clouds full of ties, NaN,
    /// ±0, ±∞ and duplicates.
    #[test]
    fn split_matches_index_reference_bit_for_bit() {
        for kind in 0..3 {
            let cloud = oracle_cloud(200, 11 + u64::from(kind), kind);
            for n in 2..=cloud.len() {
                for rule in [SplitRule::Median, SplitRule::SlidingMidpoint] {
                    let what = format!("kind {kind} n {n} {rule:?}");
                    let mut idxs: Vec<u32> = (0..n as u32).collect();
                    let bbox = reference::range_box(&cloud, &idxs);
                    let mut recs = Rec::gather(&cloud, 0..n as u32);
                    assert_eq!(box_bits(&records_box(&recs)), box_bits(&bbox), "{what}");
                    let want = reference::split_range(&cloud, &mut idxs, &bbox, rule);
                    let got = split_range(&mut recs, &bbox, rule, |_| {});
                    let ids: Vec<u32> = recs.iter().map(|r| r.idx).collect();
                    assert_eq!(ids, idxs, "order, {what}");
                    assert!(recs.iter().all(|r| r.p == cloud[r.idx as usize]
                        || r.p.x.is_nan()
                        || r.p.y.is_nan()
                        || r.p.z.is_nan()));
                    assert_eq!(got.axis, want.axis, "{what}");
                    assert_eq!(got.mid, want.mid, "{what}");
                    assert_eq!(
                        [got.div_low, got.div_high].map(f32::to_bits),
                        [want.div_low, want.div_high].map(f32::to_bits),
                        "dividers, {what}"
                    );
                    assert_eq!(box_bits(&got.left), box_bits(&want.left), "{what}");
                    assert_eq!(box_bits(&got.right), box_bits(&want.right), "{what}");
                }
            }
        }
    }

    /// Every builder that takes the record split — the instrumented
    /// `build_rows` in both layouts and the parts builder behind
    /// `build_parallel*` on one and two workers — builds the tree the
    /// index-based split builds: nodes, `vind`, leaf rows and stats, bit
    /// for bit, over sizes 0–200, leaf sizes 1–16 (four per size, in
    /// rotation) and both split rules. The 5000-point clouds are large
    /// enough for two workers to fork.
    #[test]
    fn builders_match_index_reference_bit_for_bit() {
        let mut sim = SimEngine::disabled();
        let mut cases: Vec<(u32, usize, Vec<usize>)> = (0..3)
            .flat_map(|kind| {
                (0..=200).map(move |n| (kind, n, (0..4).map(|j| 1 + (n + 5 * j) % 16).collect()))
            })
            .collect();
        cases.extend((0..3).map(|kind| (kind, 5000, vec![1, 15, 16])));
        for (kind, n, leaf_sizes) in cases {
            let cloud = oracle_cloud(n, 100 + n as u64, kind);
            for m in leaf_sizes {
                for split_rule in [SplitRule::Median, SplitRule::SlidingMidpoint] {
                    let cfg = KdTreeConfig {
                        max_leaf_points: m,
                        split_rule,
                    };
                    for layout in [RowLayout::F32, RowLayout::F16] {
                        let what = format!("kind {kind} n {n} m {m} {split_rule:?} {layout:?}");
                        let want = reference::build(&cloud, cfg, layout);
                        let seq = KdTree::build_rows(cloud.clone(), cfg, layout, &mut sim);
                        assert_matches_reference(&seq, &want, &format!("build_rows, {what}"));
                        if layout == RowLayout::F32 && n % 8 != 0 {
                            continue;
                        }
                        for threads in [1, 2] {
                            let par = crate::parts::build_tree_parallel(
                                cloud.clone(),
                                cfg,
                                layout,
                                threads,
                            );
                            assert_matches_reference(
                                &par,
                                &want,
                                &format!("build_parallel {threads} threads, {what}"),
                            );
                        }
                    }
                }
            }
        }
        // The tree does not depend on whether the simulator is on.
        let mut on = SimEngine::new(&bonsai_sim::CpuConfig::a72_like());
        for kind in 0..3 {
            let cloud = oracle_cloud(300, 7, kind);
            let cfg = KdTreeConfig::default();
            let want = reference::build(&cloud, cfg, RowLayout::F16);
            let tree = KdTree::build_f16(cloud, cfg, &mut on);
            assert_matches_reference(&tree, &want, &format!("simulated, kind {kind}"));
        }
    }

    /// Mutation-triggered subtree rebuilds take the record split too:
    /// the same inserts into the same tree leave the same nodes, `vind`,
    /// rows and stats whether the rebuilds split records or indices.
    #[test]
    fn mutation_rebuild_matches_index_reference() {
        let base = oracle_cloud(400, 5, 1);
        // Ties and ±0 on every axis, crowding one corner of the tree.
        let extra: Vec<Point3> = oracle_cloud(300, 9, 1)
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let z = if i % 3 == 0 { -0.0 } else { 0.0 };
                Point3::new(p.x.min(0.25), p.y.min(0.25), z)
            })
            .collect();
        for layout in [RowLayout::F32, RowLayout::F16] {
            let run = || {
                let mut sim = SimEngine::disabled();
                let mut tree =
                    KdTree::build_rows(base.clone(), KdTreeConfig::default(), layout, &mut sim);
                for &p in &extra {
                    tree.insert(&mut sim, p);
                }
                tree
            };
            let got = run();
            let want = reference::with_subtrees_by_index(run);
            assert!(
                got.mutation_stats().subtree_rebuilds > 0,
                "{layout:?}: no subtree rebuild triggered"
            );
            assert_eq!(
                got.mutation_stats().subtree_rebuilds,
                want.mutation_stats().subtree_rebuilds
            );
            let reference = (
                want.nodes.clone(),
                want.vind.clone(),
                want.rows.clone(),
                want.stats,
            );
            assert_matches_reference(&got, &reference, &format!("mutated {layout:?}"));
        }
    }

    /// The lane fold of `records_box` equals the in-order `Aabb` fold
    /// bit for bit where the order matters: +0 and −0 together at an
    /// extreme, and NaN (one, or all with distinct payloads), at every
    /// pair of positions of every accumulator lane and of the tail.
    #[test]
    fn records_box_matches_sequential_fold_at_signed_zeros_and_nan() {
        let check = |coords: &[f32], what: &str| {
            // The same column on all three axes, mirrored on y so a
            // zero that is the minimum of x is the maximum of y.
            let recs: Vec<Rec> = (0u32..)
                .zip(coords)
                .map(|(idx, &c)| Rec {
                    p: Point3::new(c, -c, c),
                    idx,
                })
                .collect();
            let want = Aabb::from_points(recs.iter().map(|r| r.p)).unwrap();
            assert_eq!(
                box_bits(&records_box(&recs)),
                box_bits(&want),
                "{what}: {coords:?}"
            );
        };
        let payload_nan = |i: usize| f32::from_bits(0x7FC0_0000 | i as u32 | (i as u32 & 1) << 31);
        for len in 1..=3 * BOX_LANES + 2 {
            for a in 0..len {
                // One NaN among finite values, and every value NaN.
                let mut v: Vec<f32> = (0..len).map(|i| 1.0 + i as f32).collect();
                v[a] = f32::NAN;
                check(&v, "one NaN");
                let all: Vec<f32> = (0..len).map(payload_nan).collect();
                check(&all, "all NaN");
                for inf in [f32::INFINITY, f32::NEG_INFINITY] {
                    let mut v = all.clone();
                    v[a] = inf;
                    check(&v, "one ±∞ among NaN");
                }
                // A NaN starting one accumulator, the extreme in another.
                let mut v: Vec<f32> = (0..len).map(|i| 1.0 + i as f32).collect();
                v[a] = payload_nan(a);
                v[len - 1 - a] = 0.5;
                check(&v, "NaN first in a lane");
                for b in 0..len {
                    if a == b {
                        continue;
                    }
                    for (za, zb) in [(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)] {
                        // ±0 at the minimum (the rest positive) ...
                        let mut v: Vec<f32> = (0..len).map(|i| 1.0 + i as f32).collect();
                        v[a] = za;
                        v[b] = zb;
                        check(&v, "zeros at the min");
                        // ... and at the maximum (the rest negative).
                        let mut v: Vec<f32> = (0..len).map(|i| -1.0 - i as f32).collect();
                        v[a] = za;
                        v[b] = zb;
                        check(&v, "zeros at the max");
                        // Zeros with NaN elsewhere in the lane fold.
                        let c = (a + b + 1) % len;
                        if c != a && c != b {
                            v[c] = payload_nan(c);
                            check(&v, "zeros and NaN");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_point_tree_is_one_leaf() {
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(
            vec![Point3::new(1.0, 2.0, 3.0)],
            KdTreeConfig::default(),
            &mut sim,
        );
        assert_eq!(tree.nodes().len(), 1);
        assert!(tree.nodes()[0].is_leaf());
    }
}
