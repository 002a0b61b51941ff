//! Criterion-ready fragmentation compaction: a full repack of the
//! tree's `vind`/SoA slot arrays and node pool.
//!
//! Relocations and subtree rebuilds abandon their old slot ranges
//! ([`KdTree::garbage_slots`] counts them)
//! and retire node-pool slots into a free list. On a long churn stream
//! neither is ever reclaimed, so the arrays grow without bound — the
//! classic ikd-Tree fragmentation problem, which that paper solves with
//! criterion-triggered re-building. [`KdTree::compact`] is the repack
//! primitive those criteria invoke:
//!
//! * every **reachable** node is renumbered in preorder (root stays 0,
//!   parents before children — the numbering a fresh build produces)
//!   and unreachable (free-list) pool slots are dropped;
//! * every leaf's slot footprint ([`KdTree::leaf_slot_footprint`]:
//!   its `count` when packed, `max_leaf_points` with slack) is copied
//!   to its new position, leaves back to back, preserving the in-leaf
//!   point order and each leaf's capacity (slack leaves keep their
//!   slack), so `vind` ends up exactly as long as the footprints sum
//!   to and `garbage_slots()` drops to zero;
//! * the returned [`CompactRemap`] records the old→new slot and node
//!   renumbering so layered caches (the compressed directory and f16
//!   rows of `bonsai-core`) can **move** their baked bytes instead of
//!   re-encoding anything.
//!
//! Compaction never changes the tree's *topology* — node parent/child
//! relationships, per-leaf point sets and in-leaf order are untouched —
//! so search results, their order, and every [`SearchStats`] counter
//! are bit-identical before and after. Only storage addresses move.
//! Point cloud indices are stable too: `points`/`alive` are not
//! touched, so reported `Neighbor::index` values cannot shift. (Full
//! reclamation of dead *points* needs an index-remapping rebuild — the
//! shard router's rolling `rebuild_shard` does that, because it owns
//! the local→global index translation.)
//!
//! [`SearchStats`]: crate::SearchStats

use bonsai_sim::{Kernel, OpClass, SimEngine};

use crate::build::KdTree;
use crate::node::{Node, NodeId, NODE_BYTES};

/// The old→new renumbering one [`KdTree::compact`] performed.
///
/// Both maps use [`CompactRemap::DROPPED`] for entries that no longer
/// exist: abandoned (garbage) slot ranges and unreachable node-pool
/// slots.
#[derive(Debug, Clone)]
pub struct CompactRemap {
    /// Old `vind`/SoA slot index → new slot index.
    pub slot_map: Vec<u32>,
    /// Old node-pool id → new node-pool id.
    pub node_map: Vec<u32>,
}

impl CompactRemap {
    /// Sentinel for a slot or node the compaction dropped.
    pub const DROPPED: u32 = u32::MAX;
}

impl KdTree {
    /// Repacks the `vind`/SoA slot arrays and the node pool, dropping
    /// every garbage slot and every retired (free-list) node. Returns
    /// the old→new renumbering so layered caches can replay it.
    ///
    /// After the call `garbage_slots()` is 0, the free list is empty,
    /// and [`audit`](KdTree::audit) still comes back empty.
    /// Search results, their order and all [`SearchStats`] counters are
    /// bit-identical to the pre-compaction tree in every mode; only
    /// storage moved. Pending dirty-log entries are renumbered through
    /// the same map, so a layered cache that compacts *with* the tree
    /// (see `BonsaiTree::compact`) stays consistent.
    ///
    /// The copy work (one load + store per live slot, one store per
    /// node) is charged to the `Build` kernel.
    ///
    /// [`SearchStats`]: crate::SearchStats
    pub fn compact(&mut self, sim: &mut SimEngine) -> CompactRemap {
        let old_slots = self.vind.len();
        let mut slot_map = vec![CompactRemap::DROPPED; old_slots];
        let mut node_map = vec![CompactRemap::DROPPED; self.nodes.len()];
        if self.nodes.is_empty() {
            // Nothing reachable: drop any stray state outright.
            self.vind.clear();
            self.rows.clear();
            self.meta.clear();
            self.free_nodes.clear();
            self.dirty_nodes.clear();
            self.garbage_slots = 0;
            return CompactRemap { slot_map, node_map };
        }

        let prev = sim.set_kernel(Kernel::Build);
        // Preorder renumbering: parent first, left subtree, then right
        // — the order a fresh build emits, with the root staying 0.
        let mut order: Vec<NodeId> = Vec::with_capacity(self.nodes.len() - self.free_nodes.len());
        let mut stack: Vec<NodeId> = vec![0];
        while let Some(id) = stack.pop() {
            node_map[id as usize] = order.len() as u32;
            order.push(id);
            if let Node::Interior { left, right, .. } = self.nodes[id as usize] {
                stack.push(right);
                stack.push(left);
            }
        }

        let mut nodes = Vec::with_capacity(order.len());
        let mut meta = Vec::with_capacity(order.len());
        let mut vind = Vec::with_capacity(old_slots - self.garbage_slots);
        for &old_id in &order {
            let new_id = nodes.len() as NodeId;
            let node = match self.nodes[old_id as usize] {
                Node::Leaf {
                    start,
                    count,
                    origin,
                } => {
                    let fp = self.leaf_slot_footprint(old_id) as usize;
                    let new_start = vind.len() as u32;
                    for (k, i) in (start as usize..start as usize + fp).enumerate() {
                        let new_slot = new_start + k as u32;
                        slot_map[i] = new_slot;
                        let idx = self.vind[i];
                        // Live slots move like the build's reorder pass;
                        // slack slots are layout upkeep (no events).
                        if idx != crate::PAD_SLOT {
                            sim.load(self.reordered_point_addr(i as u32), 12);
                            sim.store(self.reordered_point_addr(new_slot), 12);
                            sim.exec(OpClass::IntAlu, 2);
                        }
                        vind.push(idx);
                    }
                    Node::Leaf {
                        start: new_start,
                        count,
                        origin,
                    }
                }
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
                    left: node_map[left as usize],
                    right: node_map[right as usize],
                },
            };
            sim.store(self.node_addr(new_id), NODE_BYTES as u32);
            nodes.push(node);
            meta.push(self.meta[old_id as usize]);
        }
        sim.set_kernel(prev);

        debug_assert_eq!(
            vind.len() + self.garbage_slots,
            old_slots,
            "garbage_slots accounting drifted from the slot arrays"
        );
        self.nodes = nodes;
        self.meta = meta;
        // The rows move with their slots, bits untouched.
        self.rows = self.rows.permuted(&slot_map, vind.len());
        self.vind = vind;
        self.garbage_slots = 0;
        self.free_nodes.clear();
        // Renumber (don't drop) the pending dirty log: a layered cache
        // that has not drained it yet must keep seeing the same leaves
        // under their new ids. Retired ids vanish with their slots.
        self.dirty_nodes = self
            .dirty_nodes
            .iter()
            .filter_map(|&id| {
                let new = node_map[id as usize];
                (new != CompactRemap::DROPPED).then_some(new)
            })
            .collect();
        CompactRemap { slot_map, node_map }
    }

    /// Host-side structural memory footprint, in bytes: the point
    /// cloud, the `vind` and leaf-row slot arrays (including garbage;
    /// 4 B of `vind` plus 12 B of `f32` or 6 B of f16 rows per slot),
    /// the node pool and its per-node metadata. The observability hook
    /// of the long-stream soak bench — what compaction bounds.
    pub fn resident_bytes(&self) -> u64 {
        let slots = self.vind.len() as u64;
        let nodes = self.nodes.len() as u64;
        self.points.len() as u64 * 12
            + self.alive.len() as u64
            + slots * (4 + self.rows.bytes_per_slot())
            + nodes * (NODE_BYTES + std::mem::size_of::<crate::mutate::NodeMeta>() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KdTreeConfig;
    use crate::scratch::SearchScratch;
    use crate::search::{Neighbor, SearchStats};
    use bonsai_geom::Point3;

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

    /// Churns a tree until it carries garbage slots and a free list.
    fn churned_tree(n: usize, seed: u64) -> (KdTree, Vec<Point3>) {
        let cloud = random_cloud(n, seed, 50.0);
        let mut sim = SimEngine::disabled();
        let mut tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let extra = random_cloud(n, seed + 1, 50.0);
        for round in 0..4 {
            for k in 0..n / 8 {
                tree.delete(
                    &mut sim,
                    ((round * 13 + k * 7) % tree.points().len()) as u32,
                );
            }
            for k in 0..n / 8 {
                tree.insert(&mut sim, extra[(round * n / 8 + k) % extra.len()])
                    .unwrap();
            }
        }
        (tree, cloud)
    }

    #[test]
    fn compact_drops_all_garbage_and_keeps_padding() {
        let (mut tree, _) = churned_tree(1200, 3);
        assert!(tree.garbage_slots() > 0, "churn never fragmented");
        let slots_before = tree.vind().len();
        let mut sim = SimEngine::disabled();
        let remap = tree.compact(&mut sim);
        assert_eq!(tree.garbage_slots(), 0);
        assert!(tree.vind().len() < slots_before);
        assert!(tree.audit().is_empty(), "{:?}", tree.audit());
        // Every leaf keeps its footprint, slack included, back to back.
        let footprints: u32 = (0..tree.nodes().len() as NodeId)
            .filter(|&id| tree.nodes()[id as usize].is_leaf())
            .map(|id| tree.leaf_slot_footprint(id))
            .sum();
        assert_eq!(tree.vind().len(), footprints as usize);
        // Every live slot is mapped, every map target is in range and
        // unique.
        let mut seen = vec![false; tree.vind().len()];
        for &new in &remap.slot_map {
            if new == CompactRemap::DROPPED {
                continue;
            }
            assert!(!seen[new as usize], "slot {new} mapped twice");
            seen[new as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "unmapped new slot");
        // Node map covers exactly the reachable pool.
        let live_nodes = remap
            .node_map
            .iter()
            .filter(|&&n| n != CompactRemap::DROPPED)
            .count();
        assert_eq!(live_nodes, tree.nodes().len());
    }

    #[test]
    fn searches_and_stats_are_bit_identical_across_compaction() {
        let (mut tree, cloud) = churned_tree(1500, 7);
        let queries: Vec<Point3> = cloud.iter().step_by(41).copied().collect();
        let mut scratch = SearchScratch::new();
        let mut before: Vec<(Vec<Neighbor>, SearchStats)> = Vec::new();
        for &q in &queries {
            let mut out = Vec::new();
            let mut stats = SearchStats::default();
            crate::scratch::two_phase_search(&tree, q, 2.5, &mut scratch, &mut out, &mut stats);
            before.push((out, stats));
        }
        let knn_before: Vec<Vec<Neighbor>> = {
            let mut sim = SimEngine::disabled();
            queries.iter().map(|&q| tree.knn(&mut sim, q, 7)).collect()
        };

        let mut sim = SimEngine::disabled();
        tree.compact(&mut sim);
        assert!(tree.audit().is_empty(), "{:?}", tree.audit());

        for (qi, &q) in queries.iter().enumerate() {
            let mut out = Vec::new();
            let mut stats = SearchStats::default();
            crate::scratch::two_phase_search(&tree, q, 2.5, &mut scratch, &mut out, &mut stats);
            assert_eq!(out, before[qi].0, "query {qi}: hits moved");
            assert_eq!(stats, before[qi].1, "query {qi}: stats moved");
            let nn = tree.knn(&mut sim, q, 7);
            assert_eq!(nn, knn_before[qi], "query {qi}: knn moved");
        }
    }

    #[test]
    fn compact_preserves_mutability() {
        let (mut tree, cloud) = churned_tree(800, 11);
        let mut sim = SimEngine::disabled();
        tree.compact(&mut sim);
        // The compacted tree keeps accepting mutations and stays
        // equivalent to a fresh build.
        let p = Point3::new(3.3, -4.4, 1.1);
        let idx = tree.insert(&mut sim, p).unwrap();
        tree.delete(&mut sim, 5);
        let hits = tree.radius_search_simple(p, 0.05);
        assert!(hits.iter().any(|n| n.index == idx));
        assert!(tree
            .radius_search_simple(cloud[5], 10.0)
            .iter()
            .all(|n| n.index != 5));
        assert!(tree.audit().is_empty(), "{:?}", tree.audit());
    }

    #[test]
    fn compact_is_idempotent_and_safe_on_fresh_trees() {
        let cloud = random_cloud(600, 5, 30.0);
        let mut sim = SimEngine::disabled();
        let mut tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let nodes_before = tree.nodes().to_vec();
        let vind_before = tree.vind().to_vec();
        tree.compact(&mut sim);
        // A fresh build is already preorder-numbered and densely
        // packed, so compaction is the identity on it.
        assert_eq!(tree.nodes(), &nodes_before[..]);
        assert_eq!(tree.vind(), &vind_before[..]);
        tree.compact(&mut sim);
        assert_eq!(tree.nodes(), &nodes_before[..]);
    }

    #[test]
    fn compact_on_empty_tree_is_a_no_op() {
        let mut sim = SimEngine::disabled();
        let mut tree = KdTree::build(Vec::new(), KdTreeConfig::default(), &mut sim);
        let remap = tree.compact(&mut sim);
        assert!(remap.slot_map.is_empty());
        assert!(remap.node_map.is_empty());
        assert!(tree.radius_search_simple(Point3::ZERO, 1.0).is_empty());
    }

    #[test]
    fn resident_bytes_shrink_with_compaction() {
        let (mut tree, _) = churned_tree(1200, 13);
        let before = tree.resident_bytes();
        let mut sim = SimEngine::disabled();
        tree.compact(&mut sim);
        assert!(
            tree.resident_bytes() < before,
            "compaction did not shrink the footprint ({before} bytes)"
        );
    }
}
