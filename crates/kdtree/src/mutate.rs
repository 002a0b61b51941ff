//! Incremental (ikd-Tree-style) point insertion and deletion.
//!
//! Streaming LiDAR frames change a small fraction of the cloud per
//! scan, yet the seed pipeline rebuilt the whole tree every frame.
//! This module turns the build/search split into build/**mutate**/
//! search:
//!
//! * [`KdTree::insert`] descends to the owning leaf, widening the
//!   interior divider values along the way so pruning stays exact, and
//!   appends into the leaf's slack slots; a full leaf is split into a
//!   fresh two-leaf subtree, and a packed (build-time) leaf without
//!   slack is relocated once to a slack range at the end of the `vind`
//!   array.
//! * [`KdTree::delete`] locates the point's leaf through the divider
//!   bounds, swap-removes its slot (the SoA rows stay dense — no
//!   tombstones reach the scan loops) and shrinks the leaf count.
//! * After every mutation an ikd-Tree-style criterion walks the
//!   descent path top-down and rebuilds **only the highest violating
//!   subtree**: α-balance (one child holding more than
//!   [`ALPHA_BALANCE`] of the subtree's live points) or α-emptiness
//!   (deletions leaving the subtree's leaves under a quarter full on
//!   average). Rebuilds go through the same parts builder as
//!   [`KdTree::build_parallel`], so large rebuilds fan out across
//!   threads under the `parallel` feature.
//!
//! Build-time leaves are packed (a leaf owns exactly its `count`
//! slots); a leaf the mutation layer builds or relocates owns
//! `max_leaf_points` slots, its unused slack marked [`PAD_SLOT`] in
//! `vind` over unspecified rows. Relocations and rebuilds abandon
//! their old `vind`/SoA slots ([`KdTree::garbage_slots`] counts them);
//! retired node-pool slots are recycled through a free list. Every
//! touched node id is appended to a dirty log
//! ([`KdTree::drain_dirty_nodes`]) that layered caches — the leaf
//! headers and compressed-leaf directory of `bonsai-core` — consume to
//! re-bake **only** the touched leaves. The leaf rows
//! themselves, `f32` or f16, are written here, eagerly: a mutation
//! writes the slots it touches, and under f16 rows every change to a
//! leaf's live points re-derives its
//! [origin](crate::Node::Leaf::origin) and, when the origin moved,
//! re-encodes the leaf's live slots, so f16 rows always hold the
//! halves of `p − origin` for the leaf's current box.
//!
//! Mutations never change per-point search semantics: membership
//! depends only on a point's coordinates, so any interleaving of
//! inserts, deletes and searches yields the neighbor sets of a
//! from-scratch rebuild over the same live points — property-tested at
//! the workspace root (`tests/incremental_equivalence.rs`). Exact
//! `dist_sq` bits are shape-independent too; only the approximate
//! `d′²` a compressed search reports for a conclusive hit also depends
//! on the origin of the leaf holding the point.
//!
//! # Examples
//!
//! ```
//! use bonsai_geom::Point3;
//! use bonsai_kdtree::{KdTree, KdTreeConfig};
//! use bonsai_sim::SimEngine;
//!
//! let cloud: Vec<Point3> =
//!     (0..100).map(|i| Point3::new(i as f32 * 0.1, 0.0, 0.0)).collect();
//! let mut sim = SimEngine::disabled();
//! let mut tree = KdTree::build(cloud, KdTreeConfig::default(), &mut sim);
//!
//! let new_idx = tree.insert(&mut sim, Point3::new(5.05, 0.0, 0.0)).unwrap();
//! assert!(tree.delete(&mut sim, 3));
//! let hits = tree.radius_search_simple(Point3::new(5.0, 0.0, 0.0), 0.25);
//! assert!(hits.iter().any(|n| n.index == new_idx)); // inserted point found
//! assert!(hits.iter().all(|n| n.index != 3)); // deleted point gone
//! ```

use bonsai_geom::Point3;
use bonsai_sim::{Kernel, OpClass, SimEngine};

use crate::build::{sites, KdTree};
use crate::node::{Node, NodeId, NODE_BYTES};
use crate::parts::{build_subtree, resolve_build_threads, SubtreeConfig};

/// The `vind` entry of an unused slack slot of a mutation-built leaf.
/// No live slot ever holds it (cloud indices are dense `u32`s far below
/// it), so compaction and the auditors use it to tell slack from live
/// slots. The rows under a slack slot are unspecified.
pub const PAD_SLOT: u32 = u32::MAX;

/// Fraction of a subtree's live points one child may hold before the
/// subtree is rebuilt (ikd-Tree's α_bal; Cai et al. use 0.7).
pub const ALPHA_BALANCE: f32 = 0.75;

/// Live points a subtree needs before the balance criterion applies —
/// below this a rebuild costs more than the skew.
const REBALANCE_MIN_POINTS: u32 = 64;

/// Subtree size past which a criterion-triggered rebuild fans its top
/// recursion levels across threads (`parallel` feature).
const PARALLEL_REBUILD_MIN_POINTS: usize = 8192;

/// Per-node bookkeeping of the mutation layer, parallel to the node
/// pool.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeMeta {
    /// Live points in the subtree (for a leaf: its `count`).
    pub live: u32,
    /// Leaves in the subtree (1 for a leaf).
    pub leaves: u32,
    /// Leaf only: `vind` slots the leaf owns from its `start`
    /// (`count ≤ cap`). Build-time leaves are packed (`cap == count`);
    /// mutation-created leaves own `max_leaf_points` slots.
    pub cap: u32,
}

/// Counters of the mutation layer (observability + bench reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MutationStats {
    /// Points inserted (accepted).
    pub inserts: u64,
    /// Points deleted.
    pub deletes: u64,
    /// Inserts absorbed by a leaf's existing slack slots.
    pub leaf_appends: u64,
    /// Packed leaves relocated once to a slack range.
    pub leaf_relocations: u64,
    /// Full leaves split into a fresh subtree.
    pub leaf_splits: u64,
    /// Criterion-triggered subtree rebuilds (α-balance / α-emptiness).
    pub subtree_rebuilds: u64,
    /// Live points re-inserted by splits and criterion rebuilds.
    pub rebuilt_points: u64,
}

impl KdTree {
    /// Inserts a point, returning its new cloud index, or `None` for a
    /// point with a non-finite coordinate (NaN/∞ coordinates cannot be
    /// routed or found again — the mutation twin of the degenerate-
    /// radius guard). Construction work is charged to the `Build`
    /// kernel.
    ///
    /// Amortized cost is one root-to-leaf descent; a full leaf splits
    /// in place, and a violated balance criterion rebuilds exactly the
    /// highest skewed subtree on the descent path.
    pub fn insert(&mut self, sim: &mut SimEngine, p: Point3) -> Option<u32> {
        if !p.is_finite() {
            return None;
        }
        let prev = sim.set_kernel(Kernel::Build);
        let idx = self.points.len() as u32;
        self.points.push(p);
        self.alive.push(true);
        self.num_live += 1;
        self.mut_stats.inserts += 1;
        sim.store(self.point_addr(idx), 12);

        if self.nodes.is_empty() {
            // Update on an empty tree behaves like a first build: one
            // slack root leaf.
            let start = self.vind.len() as u32;
            self.push_point_slot(sim, idx);
            self.push_slack_slots(self.cfg.max_leaf_points - 1);
            let root = self.alloc_node(
                sim,
                Node::Leaf {
                    start,
                    count: 1,
                    origin: Point3::ZERO,
                },
                NodeMeta {
                    live: 1,
                    leaves: 1,
                    cap: self.cfg.max_leaf_points as u32,
                },
            );
            debug_assert_eq!(root, 0);
            self.write_leaf_rows(root, None);
            sim.set_kernel(prev);
            return Some(idx);
        }

        // Descend to the owning leaf, widening dividers and counting
        // the new point into every subtree on the path.
        let mut path: Vec<NodeId> = Vec::with_capacity(self.stats.max_depth as usize + 2);
        let mut node: NodeId = 0;
        let leaf = loop {
            sim.load(self.node_addr(node), NODE_BYTES as u32);
            match &mut self.nodes[node as usize] {
                Node::Leaf { .. } => break node,
                Node::Interior {
                    axis,
                    split_val,
                    div_low,
                    div_high,
                    left,
                    right,
                } => {
                    let val = p[*axis];
                    let go_left = val <= *split_val;
                    sim.branch(sites::DESCEND, go_left);
                    sim.exec(OpClass::IntAlu, 4);
                    // Keep the divider bounds sound: div_low/div_high
                    // must bound every live coordinate of their side or
                    // radius pruning would skip the new point.
                    let next = if go_left {
                        if val > *div_low {
                            *div_low = val.min(*split_val);
                            sim.store(self.nodes_addr + node as u64 * NODE_BYTES + 8, 4);
                        }
                        *left
                    } else {
                        if val < *div_high {
                            *div_high = val.max(*split_val);
                            sim.store(self.nodes_addr + node as u64 * NODE_BYTES + 12, 4);
                        }
                        *right
                    };
                    self.meta[node as usize].live += 1;
                    path.push(node);
                    node = next;
                }
            }
        };

        // ikd-style re-balance: rebuild the *highest* subtree on the
        // path whose child skew violates α-balance, folding the new
        // point into the rebuild instead of the leaf.
        for depth in 0..path.len() {
            let id = path[depth];
            if self.balance_violated(id) {
                let delta = self.rebuild_subtree(sim, id, depth as u32, Some(idx));
                self.propagate_leaves_delta(&path[..depth], delta);
                sim.set_kernel(prev);
                return Some(idx);
            }
        }

        // Leaf-level placement: slack append, one-time relocation, or
        // split.
        let Node::Leaf { start, count, .. } = self.nodes[leaf as usize] else {
            unreachable!("descent ends at a leaf");
        };
        let cap = self.meta[leaf as usize].cap;
        if count < cap {
            self.mut_stats.leaf_appends += 1;
            let slot = (start + count) as usize;
            self.vind[slot] = idx;
            sim.store(self.reordered_point_addr(slot as u32), 12);
            sim.store(self.vind_entry_addr(slot as u32), 4);
            self.set_leaf(sim, leaf, start, count + 1, cap, Some(slot));
        } else if (count as usize) < self.cfg.max_leaf_points {
            // Packed build-time leaf: relocate once to a slack range
            // (an `m`-slot footprint).
            self.mut_stats.leaf_relocations += 1;
            let new_start = self.vind.len() as u32;
            for i in start..start + count {
                let moved = self.vind[i as usize];
                sim.load(self.vind_entry_addr(i), 4);
                self.push_point_slot(sim, moved);
            }
            self.push_point_slot(sim, idx);
            self.push_slack_slots(self.cfg.max_leaf_points - count as usize - 1);
            self.garbage_slots += cap as usize;
            self.set_leaf(
                sim,
                leaf,
                new_start,
                count + 1,
                self.cfg.max_leaf_points as u32,
                None,
            );
        } else {
            // Full leaf: split into a fresh slack subtree.
            self.mut_stats.leaf_splits += 1;
            let delta = self.rebuild_subtree(sim, leaf, path.len() as u32, Some(idx));
            self.propagate_leaves_delta(&path, delta);
        }
        sim.set_kernel(prev);
        Some(idx)
    }

    /// Deletes point `idx` from the tree. Returns `false` — after a
    /// constant-time liveness check, with **zero traversal** — when
    /// `idx` is out of range or already deleted.
    ///
    /// The point's slot is swap-removed from its leaf (scans stay
    /// dense), and the α-emptiness criterion rebuilds the highest
    /// path subtree whose leaves deletions have hollowed out.
    pub fn delete(&mut self, sim: &mut SimEngine, idx: u32) -> bool {
        if self.alive.get(idx as usize) != Some(&true) {
            return false;
        }
        let prev = sim.set_kernel(Kernel::Build);
        let p = self.points[idx as usize];
        let mut path: Vec<NodeId> = Vec::with_capacity(self.stats.max_depth as usize + 2);
        let leaf = self
            .locate_bounded(sim, 0, idx, p, &mut path)
            .or_else(|| {
                // Stored non-finite coordinates defeat the divider
                // bounds; fall back to an exhaustive walk so liveness
                // and the tree never disagree.
                path.clear();
                self.locate_exhaustive(0, idx, &mut path)
            })
            // lint: allow(panic-free-serving) — liveness invariant:
            // `alive[idx]` was just checked, and the exhaustive
            // fallback visits every leaf, so a live point is found.
            .expect("live point must be stored in some leaf");

        let Node::Leaf { start, count, .. } = self.nodes[leaf as usize] else {
            unreachable!("locate ends at a leaf");
        };
        let slot = (start..start + count)
            .find(|&i| self.vind[i as usize] == idx)
            // lint: allow(panic-free-serving) — `locate_*` returned
            // this leaf precisely because it stores `idx`.
            .expect("leaf contains the located point") as usize;
        let last = (start + count - 1) as usize;
        // Swap-remove inside the leaf: SoA rows stay dense, no
        // tombstone ever reaches a scan loop. `set_leaf` writes the
        // moved point's row from `points`, the exact copy every row
        // layout mirrors.
        self.vind[slot] = self.vind[last];
        sim.store(self.reordered_point_addr(slot as u32), 12);
        sim.store(self.vind_entry_addr(slot as u32), 4);
        // The vacated tail slot becomes slack (its rows are left as
        // they are: no sweep reads past the count). Layout upkeep, no
        // simulated events.
        self.vind[last] = PAD_SLOT;
        let cap = self.meta[leaf as usize].cap;
        self.set_leaf(sim, leaf, start, count - 1, cap, Some(slot));

        self.alive[idx as usize] = false;
        self.num_live -= 1;
        self.mut_stats.deletes += 1;
        for &a in &path {
            self.meta[a as usize].live -= 1;
        }

        // α-emptiness / α-balance: rebuild the highest hollowed-out
        // subtree on the path.
        for depth in 0..path.len() {
            let id = path[depth];
            if self.emptiness_violated(id) || self.balance_violated(id) {
                let delta = self.rebuild_subtree(sim, id, depth as u32, None);
                self.propagate_leaves_delta(&path[..depth], delta);
                break;
            }
        }
        sim.set_kernel(prev);
        true
    }

    // ------------------------------------------------------------------
    // Mutation-state accessors.
    // ------------------------------------------------------------------

    /// Number of live (inserted or built, not deleted) points.
    pub fn num_live(&self) -> usize {
        self.num_live
    }

    /// Whether point `idx` is currently live.
    pub fn is_live(&self, idx: u32) -> bool {
        self.alive.get(idx as usize) == Some(&true)
    }

    /// Live point indices, ascending.
    pub fn live_indices(&self) -> impl Iterator<Item = u32> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| i as u32)
    }

    /// Mutation counters since construction.
    pub fn mutation_stats(&self) -> MutationStats {
        self.mut_stats
    }

    /// `vind`/SoA slots abandoned by relocations and rebuilds — the
    /// fragmentation a periodic full rebuild reclaims.
    pub fn garbage_slots(&self) -> usize {
        self.garbage_slots
    }

    /// Drains the dirty-node log: every node id whose leaf content or
    /// kind changed since the last drain, sorted and deduplicated.
    /// Layered per-leaf caches (the compressed directory of
    /// `bonsai-core`) re-bake exactly these ids.
    ///
    /// The log grows by a few entries per mutation until drained. A
    /// `KdTree` used *without* a layered cache (pure baseline
    /// serving — its `vind`/SoA state is updated eagerly, so searches
    /// never need the log) should still call this periodically on
    /// long mutation streams, exactly as the baseline shards of the
    /// `ShardRouter` do on every commit, or the log is the one piece
    /// of state that grows without bound.
    pub fn drain_dirty_nodes(&mut self) -> Vec<NodeId> {
        let mut v = std::mem::take(&mut self.dirty_nodes);
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Whether any mutations are pending in the dirty-node log.
    pub fn has_dirty_nodes(&self) -> bool {
        !self.dirty_nodes.is_empty()
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// Recomputes the whole meta table from the node pool (used by the
    /// builders; mutations maintain it incrementally).
    pub(crate) fn rebuild_meta(&mut self) {
        self.meta = vec![NodeMeta::default(); self.nodes.len()];
        if !self.nodes.is_empty() {
            self.fill_meta(0, None);
        }
    }

    /// Fills `meta` for the subtree at `id`; `slack_cap` overrides leaf
    /// capacities (packed build leaves own exactly `count` slots,
    /// mutation-built leaves own `max_leaf_points`).
    fn fill_meta(&mut self, id: NodeId, slack_cap: Option<u32>) -> (u32, u32) {
        match self.nodes[id as usize] {
            Node::Leaf { count, .. } => {
                self.meta[id as usize] = NodeMeta {
                    live: count,
                    leaves: 1,
                    cap: slack_cap.unwrap_or(count),
                };
                (count, 1)
            }
            Node::Interior { left, right, .. } => {
                let (ll, lv) = self.fill_meta(left, slack_cap);
                let (rl, rv) = self.fill_meta(right, slack_cap);
                self.meta[id as usize] = NodeMeta {
                    live: ll + rl,
                    leaves: lv + rv,
                    cap: 0,
                };
                (ll + rl, lv + rv)
            }
        }
    }

    fn mark_dirty(&mut self, id: NodeId) {
        self.dirty_nodes.push(id);
    }

    /// Appends one live slot at the end: its `vind` entry, and a row
    /// slot the owning leaf's [`write_leaf_rows`](Self::write_leaf_rows)
    /// or [`encode_leaf_rows`](Self::encode_leaf_rows) fills once the
    /// leaf's origin is known.
    fn push_point_slot(&mut self, sim: &mut SimEngine, idx: u32) {
        let slot = self.vind.len() as u32;
        self.vind.push(idx);
        self.rows.pad_to(self.vind.len());
        sim.store(self.vind_entry_addr(slot), 4);
        sim.store(self.reordered_point_addr(slot), 12);
        sim.exec(OpClass::IntAlu, 2);
    }

    /// Appends `n` unused slack slots of a mutation leaf: `PAD_SLOT`
    /// indices over unspecified rows.
    fn push_slack_slots(&mut self, n: usize) {
        self.vind.resize(self.vind.len() + n, PAD_SLOT);
        self.rows.pad_to(self.vind.len());
    }

    /// Re-derives leaf `id`'s origin from its live points — for f16
    /// rows; an `f32`-row leaf keeps `Point3::ZERO` — and writes its
    /// live row slots: every one when `touched` is `None` or the origin
    /// moved, else only slot `touched` (if still live). The rows' half
    /// of each change to a leaf's points; host-layout upkeep with no
    /// simulated events (the callers charge their slot stores).
    fn write_leaf_rows(&mut self, id: NodeId, touched: Option<usize>) {
        let Node::Leaf {
            start,
            count,
            origin,
        } = self.nodes[id as usize]
        else {
            return;
        };
        let slots = start as usize..(start + count) as usize;
        let points = &self.points;
        let fresh = self
            .rows
            .layout()
            .origin_of(self.vind[slots.clone()].iter().map(|&i| points[i as usize]));
        let moved = fresh.to_array().map(f32::to_bits) != origin.to_array().map(f32::to_bits);
        if moved {
            if let Node::Leaf { origin, .. } = &mut self.nodes[id as usize] {
                *origin = fresh;
            }
        }
        match touched {
            Some(i) if !moved => {
                if i < slots.end {
                    let p = self.points[self.vind[i] as usize];
                    self.rows.set_point(i, p, fresh);
                }
            }
            _ => self.encode_leaf_rows(id),
        }
    }

    /// Writes every live row slot of leaf `id` against the leaf's
    /// current origin.
    fn encode_leaf_rows(&mut self, id: NodeId) {
        let Node::Leaf {
            start,
            count,
            origin,
        } = self.nodes[id as usize]
        else {
            return;
        };
        for i in start as usize..(start + count) as usize {
            let p = self.points[self.vind[i] as usize];
            self.rows.set_point(i, p, origin);
        }
    }

    /// Rewrites leaf `id`'s slot range in place, writes its rows
    /// ([`write_leaf_rows`](Self::write_leaf_rows) with `touched`) and
    /// keeps its meta/dirty state consistent.
    #[allow(clippy::too_many_arguments)] // the leaf's full new state
    fn set_leaf(
        &mut self,
        sim: &mut SimEngine,
        id: NodeId,
        start: u32,
        count: u32,
        cap: u32,
        touched: Option<usize>,
    ) {
        if let Node::Leaf {
            start: s, count: c, ..
        } = &mut self.nodes[id as usize]
        {
            (*s, *c) = (start, count);
        }
        self.write_leaf_rows(id, touched);
        self.meta[id as usize] = NodeMeta {
            live: count,
            leaves: 1,
            cap,
        };
        sim.store(self.node_addr(id), NODE_BYTES as u32);
        self.mark_dirty(id);
    }

    /// Allocates a node slot (free list first), writes `node`/`meta`,
    /// updates shape stats and the dirty log.
    fn alloc_node(&mut self, sim: &mut SimEngine, node: Node, meta: NodeMeta) -> NodeId {
        let id = match self.free_nodes.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                self.meta[id as usize] = meta;
                id
            }
            None => {
                let id = self.nodes.len() as NodeId;
                self.nodes.push(node);
                self.meta.push(meta);
                id
            }
        };
        if node.is_leaf() {
            self.stats.num_leaves += 1;
        } else {
            self.stats.num_interior += 1;
        }
        sim.store(self.node_addr(id), NODE_BYTES as u32);
        self.mark_dirty(id);
        id
    }

    /// Retires node `id`: removes it from the shape stats, clears it to
    /// an empty leaf (harmless to generic pool walkers) and logs it
    /// dirty. The caller decides whether the slot goes to the free list
    /// or is reused in place.
    fn retire_node(&mut self, id: NodeId) {
        if self.nodes[id as usize].is_leaf() {
            self.stats.num_leaves -= 1;
        } else {
            self.stats.num_interior -= 1;
        }
        self.nodes[id as usize] = Node::EMPTY_LEAF;
        self.meta[id as usize] = NodeMeta::default();
        self.mark_dirty(id);
    }

    /// One child holds more than α of the subtree's live points.
    fn balance_violated(&self, id: NodeId) -> bool {
        let Node::Interior { left, right, .. } = self.nodes[id as usize] else {
            return false;
        };
        let l = self.meta[left as usize].live;
        let r = self.meta[right as usize].live;
        let total = l + r;
        total >= REBALANCE_MIN_POINTS && l.max(r) as f32 > ALPHA_BALANCE * total as f32
    }

    /// Deletions left the subtree's leaves under a quarter full on
    /// average — compact it.
    fn emptiness_violated(&self, id: NodeId) -> bool {
        let m = self.meta[id as usize];
        m.leaves > 1 && (m.live as usize) * 4 < m.leaves as usize * self.cfg.max_leaf_points
    }

    /// Coordinate-bounded location of the leaf storing `idx`: descends
    /// every side whose divider bound admits the coordinate (duplicates
    /// on a split plane can live on both sides), pushing the ancestor
    /// path of the found leaf.
    fn locate_bounded(
        &self,
        sim: &mut SimEngine,
        node: NodeId,
        idx: u32,
        p: Point3,
        path: &mut Vec<NodeId>,
    ) -> Option<NodeId> {
        sim.load(self.node_addr(node), NODE_BYTES as u32);
        match self.nodes[node as usize] {
            Node::Leaf { start, count, .. } => {
                for i in start..start + count {
                    sim.load(self.vind_entry_addr(i), 4);
                    sim.exec(OpClass::IntAlu, 1);
                    if self.vind[i as usize] == idx {
                        return Some(node);
                    }
                }
                None
            }
            Node::Interior {
                axis,
                div_low,
                div_high,
                left,
                right,
                ..
            } => {
                sim.exec(OpClass::IntAlu, 4);
                path.push(node);
                let val = p[axis];
                if val <= div_low {
                    if let Some(leaf) = self.locate_bounded(sim, left, idx, p, path) {
                        return Some(leaf);
                    }
                }
                if val >= div_high {
                    if let Some(leaf) = self.locate_bounded(sim, right, idx, p, path) {
                        return Some(leaf);
                    }
                }
                path.pop();
                None
            }
        }
    }

    /// Exhaustive fallback location (reachable only for stored
    /// non-finite coordinates, which no divider bound can route).
    fn locate_exhaustive(&self, node: NodeId, idx: u32, path: &mut Vec<NodeId>) -> Option<NodeId> {
        match self.nodes[node as usize] {
            Node::Leaf { start, count, .. } => (start..start + count)
                .any(|i| self.vind[i as usize] == idx)
                .then_some(node),
            Node::Interior { left, right, .. } => {
                path.push(node);
                if let Some(leaf) = self.locate_exhaustive(left, idx, path) {
                    return Some(leaf);
                }
                if let Some(leaf) = self.locate_exhaustive(right, idx, path) {
                    return Some(leaf);
                }
                path.pop();
                None
            }
        }
    }

    /// Adds a subtree's change in leaf count to every ancestor on
    /// `path`.
    fn propagate_leaves_delta(&mut self, path: &[NodeId], delta: i64) {
        for &a in path {
            let leaves = &mut self.meta[a as usize].leaves;
            *leaves = (*leaves as i64 + delta) as u32;
        }
    }

    /// Collects the subtree's node ids and live point indices (in
    /// `vind` order).
    fn collect_subtree(&self, id: NodeId, ids: &mut Vec<NodeId>, pts: &mut Vec<u32>) {
        ids.push(id);
        match self.nodes[id as usize] {
            Node::Leaf { start, count, .. } => {
                pts.extend_from_slice(&self.vind[start as usize..(start + count) as usize]);
            }
            Node::Interior { left, right, .. } => {
                self.collect_subtree(left, ids, pts);
                self.collect_subtree(right, ids, pts);
            }
        }
    }

    /// Rebuilds the subtree rooted at `root` (at `depth` below the
    /// tree root) over its live points plus `extra`, splicing the new
    /// root into the same pool slot so the parent link is untouched.
    /// Returns the change in the subtree's leaf count.
    fn rebuild_subtree(
        &mut self,
        sim: &mut SimEngine,
        root: NodeId,
        depth: u32,
        extra: Option<u32>,
    ) -> i64 {
        let mut ids = Vec::new();
        let mut pts = Vec::new();
        self.collect_subtree(root, &mut ids, &mut pts);
        if let Some(idx) = extra {
            pts.push(idx);
        }
        let old_leaves = self.meta[root as usize].leaves as i64;

        // Retire the old subtree: stats out, slots freed (all but the
        // root, which the new subtree reuses), vind ranges abandoned.
        for &id in &ids {
            if let Node::Leaf { .. } = self.nodes[id as usize] {
                self.garbage_slots += self.meta[id as usize].cap as usize;
            }
            sim.load(self.node_addr(id), NODE_BYTES as u32);
            self.retire_node(id);
            if id != root {
                self.free_nodes.push(id);
            }
        }

        self.mut_stats.subtree_rebuilds += 1;
        self.mut_stats.rebuilt_points += pts.len() as u64;

        if pts.is_empty() {
            // Everything deleted: the subtree collapses to one empty
            // leaf owning no slots.
            self.retire_placeholder_stats_fix(sim, root);
            return 1 - old_leaves;
        }

        // Charge the rebuild like a build over `pts`: one partition +
        // bbox pass per level.
        let levels = usize::BITS - pts.len().leading_zeros();
        let costs = crate::costs::TraversalCosts::default_model();
        sim.exec(
            OpClass::IntAlu,
            costs.build_partition_per_point * pts.len() as u64 * levels as u64,
        );
        sim.exec(
            OpClass::FpAlu,
            costs.build_bbox_per_point_fp * pts.len() as u64 * levels as u64,
        );

        let threads = if pts.len() >= PARALLEL_REBUILD_MIN_POINTS {
            resolve_build_threads(0)
        } else {
            1
        };
        // Rebuilds always split at the median, whatever the build-time
        // rule: median splits are what restore the α-balance invariant
        // (ikd-Tree rebuilds the same way). A sliding-midpoint tree
        // whose *natural* shape violates the criterion would otherwise
        // be rebuilt into the same violating shape and thrash — every
        // later mutation re-triggering a full-subtree rebuild. Search
        // results are shape-independent, so mixing rules is exact.
        let rebuild_cfg = crate::build::KdTreeConfig {
            split_rule: crate::build::SplitRule::Median,
            ..self.cfg
        };
        let parts = build_subtree(
            &self.points,
            &pts,
            SubtreeConfig {
                tree: rebuild_cfg,
                layout: self.rows.layout(),
                slack: true,
                threads,
            },
        );

        // Splice: append the (slack) order region, then write the new
        // nodes — local id 0 lands in `root`'s slot.
        let base_slot = self.vind.len() as u32;
        for &o in &parts.order {
            if o == PAD_SLOT {
                self.push_slack_slots(1);
            } else {
                self.push_point_slot(sim, o);
            }
        }
        let mut map: Vec<NodeId> = Vec::with_capacity(parts.nodes.len());
        map.push(root);
        for _ in 1..parts.nodes.len() {
            let id = match self.free_nodes.pop() {
                Some(id) => id,
                None => {
                    let id = self.nodes.len() as NodeId;
                    self.nodes.push(Node::EMPTY_LEAF);
                    self.meta.push(NodeMeta::default());
                    id
                }
            };
            map.push(id);
        }
        for (local, node) in parts.nodes.iter().enumerate() {
            let gid = map[local];
            let fixed = match *node {
                Node::Leaf {
                    start,
                    count,
                    origin,
                } => Node::Leaf {
                    start: start + base_slot,
                    count,
                    origin,
                },
                Node::Interior {
                    axis,
                    split_val,
                    div_low,
                    div_high,
                    left,
                    right,
                } => Node::Interior {
                    axis,
                    split_val,
                    div_low,
                    div_high,
                    left: map[left as usize],
                    right: map[right as usize],
                },
            };
            self.nodes[gid as usize] = fixed;
            if fixed.is_leaf() {
                // The parts builder set the origin for this layout.
                self.encode_leaf_rows(gid);
                self.stats.num_leaves += 1;
            } else {
                self.stats.num_interior += 1;
            }
            sim.store(self.node_addr(gid), NODE_BYTES as u32);
            self.mark_dirty(gid);
        }
        // Meta for the spliced subtree (slack leaves own m slots).
        self.fill_meta_spliced(root, self.cfg.max_leaf_points as u32);
        self.stats.max_depth = self.stats.max_depth.max(depth + parts.stats.max_depth);
        parts.stats.num_leaves as i64 - old_leaves
    }

    /// Writes the collapsed empty leaf a fully-deleted subtree leaves
    /// behind.
    fn retire_placeholder_stats_fix(&mut self, sim: &mut SimEngine, root: NodeId) {
        self.nodes[root as usize] = Node::Leaf {
            start: self.vind.len() as u32,
            count: 0,
            origin: Point3::ZERO,
        };
        self.meta[root as usize] = NodeMeta {
            live: 0,
            leaves: 1,
            cap: 0,
        };
        self.stats.num_leaves += 1;
        sim.store(self.node_addr(root), NODE_BYTES as u32);
        self.mark_dirty(root);
    }

    /// `fill_meta` over a spliced subtree, with slack leaf capacities.
    fn fill_meta_spliced(&mut self, id: NodeId, cap: u32) {
        self.fill_meta(id, Some(cap));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KdTreeConfig;
    use crate::search::Neighbor;

    fn random_cloud(n: usize, seed: u64, scale: f32) -> Vec<Point3> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f32 / (1u64 << 53) as f32
        };
        (0..n)
            .map(|_| Point3::new((next() - 0.5) * scale, (next() - 0.5) * scale, next() * 4.0))
            .collect()
    }

    fn sorted_hits(mut hits: Vec<Neighbor>) -> Vec<(u32, u32)> {
        hits.sort_unstable_by_key(|n| n.index);
        hits.iter()
            .map(|n| (n.index, n.dist_sq.to_bits()))
            .collect()
    }

    /// Searches on the mutated tree must equal a from-scratch build
    /// over the live points (indices remapped), bit for bit.
    fn assert_matches_fresh(tree: &KdTree, queries: &[Point3], radius: f32) {
        let live: Vec<u32> = tree.live_indices().collect();
        let pts: Vec<Point3> = live.iter().map(|&i| tree.points()[i as usize]).collect();
        let mut sim = SimEngine::disabled();
        let fresh = KdTree::build(pts, KdTreeConfig::default(), &mut sim);
        for (qi, &q) in queries.iter().enumerate() {
            let got = sorted_hits(tree.radius_search_simple(q, radius));
            let expect: Vec<(u32, u32)> = sorted_hits(
                fresh
                    .radius_search_simple(q, radius)
                    .into_iter()
                    .map(|n| Neighbor {
                        index: live[n.index as usize],
                        dist_sq: n.dist_sq,
                    })
                    .collect(),
            );
            assert_eq!(got, expect, "query {qi}");
        }
    }

    /// Full structural invariant sweep over a mutated tree.
    fn check_invariants(tree: &KdTree) {
        let mut seen = vec![false; tree.points().len()];
        let mut live_found = 0usize;
        fn walk(tree: &KdTree, id: NodeId, seen: &mut [bool], live: &mut usize) -> (u32, u32) {
            match tree.nodes()[id as usize] {
                Node::Leaf { start, count, .. } => {
                    let meta = tree.meta[id as usize];
                    assert_eq!(meta.live, count, "leaf {id} meta live");
                    assert!(count <= meta.cap.max(count), "leaf {id} cap");
                    for i in start..start + count {
                        let idx = tree.vind()[i as usize];
                        assert!(tree.is_live(idx), "dead point {idx} in leaf {id}");
                        assert!(!seen[idx as usize], "point {idx} in two leaves");
                        seen[idx as usize] = true;
                        *live += 1;
                    }
                    (count, 1)
                }
                Node::Interior {
                    axis,
                    div_low,
                    div_high,
                    left,
                    right,
                    ..
                } => {
                    let (ll, lv) = walk(tree, left, seen, live);
                    let (rl, rv) = walk(tree, right, seen, live);
                    let meta = tree.meta[id as usize];
                    assert_eq!(meta.live, ll + rl, "interior {id} live");
                    assert_eq!(meta.leaves, lv + rv, "interior {id} leaves");
                    // Divider soundness: every live coordinate bounded.
                    fn coords(
                        tree: &KdTree,
                        id: NodeId,
                        axis: bonsai_geom::Axis,
                        out: &mut Vec<f32>,
                    ) {
                        match tree.nodes()[id as usize] {
                            Node::Leaf { start, count, .. } => {
                                for i in start..start + count {
                                    let idx = tree.vind()[i as usize];
                                    out.push(tree.points()[idx as usize][axis]);
                                }
                            }
                            Node::Interior { left, right, .. } => {
                                coords(tree, left, axis, out);
                                coords(tree, right, axis, out);
                            }
                        }
                    }
                    let mut l = Vec::new();
                    let mut r = Vec::new();
                    coords(tree, left, axis, &mut l);
                    coords(tree, right, axis, &mut r);
                    for c in l {
                        assert!(c <= div_low, "left coord {c} above div_low {div_low}");
                    }
                    for c in r {
                        assert!(c >= div_high, "right coord {c} below div_high {div_high}");
                    }
                    (ll + rl, lv + rv)
                }
            }
        }
        if !tree.nodes().is_empty() {
            walk(tree, 0, &mut seen, &mut live_found);
        }
        assert_eq!(live_found, tree.num_live(), "live count vs leaves");
        for (i, &s) in seen.iter().enumerate() {
            assert_eq!(s, tree.is_live(i as u32), "point {i} liveness vs tree");
        }
    }

    #[test]
    fn insert_then_search_finds_the_point() {
        let cloud = random_cloud(500, 1, 40.0);
        let mut sim = SimEngine::disabled();
        let mut tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let p = Point3::new(1.25, -2.5, 0.75);
        let idx = tree.insert(&mut sim, p).unwrap();
        assert_eq!(idx, 500);
        assert!(tree.is_live(idx));
        let hits = tree.radius_search_simple(p, 0.05);
        assert!(hits.iter().any(|n| n.index == idx && n.dist_sq == 0.0));
        check_invariants(&tree);
    }

    #[test]
    fn delete_removes_and_is_idempotent() {
        let cloud = random_cloud(400, 2, 30.0);
        let mut sim = SimEngine::disabled();
        let mut tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        assert!(tree.delete(&mut sim, 123));
        assert!(!tree.delete(&mut sim, 123), "double delete is a no-op");
        assert!(!tree.is_live(123));
        assert_eq!(tree.num_live(), 399);
        let hits = tree.radius_search_simple(cloud[123], 10.0);
        assert!(hits.iter().all(|n| n.index != 123));
        check_invariants(&tree);
    }

    #[test]
    fn nonexistent_delete_is_rejected_without_traversal() {
        let cloud = random_cloud(100, 3, 10.0);
        let mut sim = SimEngine::new(&bonsai_sim::CpuConfig::a72_like());
        let mut tree = KdTree::build(cloud, KdTreeConfig::default(), &mut sim);
        let before = sim.totals().micro_ops();
        assert!(!tree.delete(&mut sim, 100)); // out of range
        assert!(!tree.delete(&mut sim, u32::MAX));
        assert_eq!(sim.totals().micro_ops(), before, "no-op delete did work");
    }

    #[test]
    fn non_finite_inserts_are_rejected() {
        let cloud = random_cloud(50, 4, 10.0);
        let mut sim = SimEngine::disabled();
        let mut tree = KdTree::build(cloud, KdTreeConfig::default(), &mut sim);
        for p in [
            Point3::new(f32::NAN, 0.0, 0.0),
            Point3::new(0.0, f32::INFINITY, 0.0),
            Point3::new(0.0, 0.0, f32::NEG_INFINITY),
        ] {
            assert!(tree.insert(&mut sim, p).is_none(), "{p:?} accepted");
        }
        assert_eq!(tree.num_live(), 50);
        assert_eq!(tree.points().len(), 50, "rejected insert grew the cloud");
    }

    #[test]
    fn update_on_empty_tree_behaves_like_build() {
        let mut sim = SimEngine::disabled();
        let mut tree = KdTree::build(Vec::new(), KdTreeConfig::default(), &mut sim);
        for (i, p) in random_cloud(40, 5, 15.0).into_iter().enumerate() {
            assert_eq!(tree.insert(&mut sim, p), Some(i as u32));
        }
        assert_eq!(tree.num_live(), 40);
        check_invariants(&tree);
        assert_matches_fresh(&tree, &random_cloud(10, 6, 15.0), 3.0);
    }

    #[test]
    fn heavy_churn_stays_equivalent_to_fresh_builds() {
        let cloud = random_cloud(1500, 7, 60.0);
        let mut sim = SimEngine::disabled();
        let mut tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let extra = random_cloud(1500, 8, 60.0);
        let queries = random_cloud(24, 9, 60.0);
        let mut next_del = 0u32;
        for round in 0..6 {
            // Delete a deterministic slice of live points…
            for k in 0..150 {
                let idx = (next_del + k * 7) % tree.points().len() as u32;
                tree.delete(&mut sim, idx);
            }
            next_del += 31;
            // …and insert a fresh batch.
            for k in 0..150 {
                let p = extra[(round * 150 + k) % extra.len()];
                tree.insert(&mut sim, p).unwrap();
            }
            check_invariants(&tree);
            assert_matches_fresh(&tree, &queries, 2.5);
        }
        let stats = tree.mutation_stats();
        assert!(stats.inserts == 900 && stats.deletes > 0);
        assert!(
            stats.leaf_appends
                + stats.leaf_relocations
                + stats.leaf_splits
                + stats.subtree_rebuilds
                > 0
        );
    }

    #[test]
    fn skewed_inserts_trigger_rebalance() {
        // A line cloud then a burst of points at one end: without the
        // α-balance rebuild the descent path degenerates.
        let cloud: Vec<Point3> = (0..256).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
        let mut sim = SimEngine::disabled();
        let mut tree = KdTree::build(cloud, KdTreeConfig::default(), &mut sim);
        for i in 0..1024 {
            tree.insert(&mut sim, Point3::new(256.0 + i as f32 * 0.01, 0.0, 0.0))
                .unwrap();
        }
        assert!(
            tree.mutation_stats().subtree_rebuilds > 0,
            "skewed growth never rebalanced: {:?}",
            tree.mutation_stats()
        );
        check_invariants(&tree);
        assert_matches_fresh(&tree, &[Point3::new(256.5, 0.0, 0.0)], 1.0);
    }

    #[test]
    fn deleting_everything_collapses_cleanly() {
        let cloud = random_cloud(300, 11, 25.0);
        let mut sim = SimEngine::disabled();
        let mut tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        for i in 0..300 {
            assert!(tree.delete(&mut sim, i));
        }
        assert_eq!(tree.num_live(), 0);
        assert!(tree.radius_search_simple(cloud[0], 100.0).is_empty());
        check_invariants(&tree);
        // The tree still accepts inserts afterwards.
        let idx = tree.insert(&mut sim, Point3::ZERO).unwrap();
        assert_eq!(tree.radius_search_simple(Point3::ZERO, 0.1)[0].index, idx);
        check_invariants(&tree);
    }

    #[test]
    fn dirty_log_reports_touched_nodes_once() {
        let cloud = random_cloud(200, 13, 20.0);
        let mut sim = SimEngine::disabled();
        let mut tree = KdTree::build(cloud, KdTreeConfig::default(), &mut sim);
        assert!(!tree.has_dirty_nodes(), "build leaves a clean log");
        tree.insert(&mut sim, Point3::new(0.5, 0.5, 0.5)).unwrap();
        assert!(tree.has_dirty_nodes());
        let dirty = tree.drain_dirty_nodes();
        assert!(!dirty.is_empty());
        let mut deduped = dirty.clone();
        deduped.dedup();
        assert_eq!(dirty, deduped, "log is sorted and deduplicated");
        assert!(!tree.has_dirty_nodes(), "drain clears the log");
    }

    /// Regression: criterion rebuilds must restore the balance
    /// invariant even when the tree was built with SlidingMidpoint,
    /// whose natural shape on skewed data violates α-balance. Before
    /// rebuilds forced median splits, every mutation on such a tree
    /// re-triggered a full-subtree rebuild (~n points re-inserted per
    /// delete).
    #[test]
    fn sliding_midpoint_rebuilds_do_not_thrash() {
        // Exponentially spaced coordinates: midpoint splits put almost
        // everything on one side.
        let cloud: Vec<Point3> = (0..4000)
            .map(|i| Point3::new(1.5f32.powi((i % 80) - 40) + i as f32 * 1e-7, 0.0, 0.0))
            .collect();
        let cfg = KdTreeConfig {
            split_rule: crate::build::SplitRule::SlidingMidpoint,
            ..KdTreeConfig::default()
        };
        let mut sim = SimEngine::disabled();
        let mut tree = KdTree::build(cloud.clone(), cfg, &mut sim);
        for i in 0..50 {
            assert!(tree.delete(&mut sim, i * 13));
        }
        let stats = tree.mutation_stats();
        assert!(
            stats.rebuilt_points < 50 * 4000 / 10,
            "criterion thrashed: {} points rebuilt for 50 deletes ({:?})",
            stats.rebuilt_points,
            stats
        );
        check_invariants(&tree);
        assert_matches_fresh(&tree, &cloud[..8], 0.5);
    }

    #[test]
    fn knn_sees_mutations_too() {
        let cloud = random_cloud(600, 15, 40.0);
        let mut sim = SimEngine::disabled();
        let mut tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let q = Point3::new(3.0, 3.0, 1.0);
        tree.delete(&mut sim, tree.radius_search_simple(q, 50.0)[0].index);
        let inserted = tree.insert(&mut sim, q).unwrap();
        let nn = tree.knn(&mut sim, q, 1);
        assert_eq!(nn[0].index, inserted);
        assert_eq!(nn[0].dist_sq, 0.0);
    }
}
