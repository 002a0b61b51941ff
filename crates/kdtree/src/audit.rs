//! Deep invariant auditor for a (possibly mutated) [`KdTree`].
//!
//! The mutation layer maintains a web of cross-array invariants — leaf
//! slot ownership, divider soundness, subtree meta counters, garbage
//! accounting — that the test suite asserts with panicking helpers
//! (the private `check_invariants` of the mutation tests). A *serving*
//! stack needs the opposite contract: inspect a tree that may already
//! be corrupted (bit flips, torn writes, harness-injected faults) and
//! report what is wrong without crashing. [`TreeAuditor`] walks every
//! structure with bounds-checked accesses only and returns typed
//! [`AuditViolation`]s — an empty vector certifies the full invariant
//! web below:
//!
//! * **Structure** — node-pool shape: children in range, no node
//!   reachable twice (cycles / shared subtrees), every unreachable node
//!   accounted for on the free list, per-node meta table parallel to
//!   the pool.
//! * **DividerOrder** — for every interior node, all live left-subtree
//!   coordinates `≤ div_low ≤ split_val` and all live right-subtree
//!   coordinates `≥ div_high ≥ split_val` (exact, the pruning
//!   soundness condition).
//! * **SlotBijection** — live leaf slots and the live point set are in
//!   bijection: no slack-marked/dead/out-of-range index under a live
//!   slot, no point in two slots, no live point missing from every
//!   leaf, no two leaves claiming the same `vind` slot, every leaf's
//!   footprint inside the slot arrays, and every row as long as
//!   `vind`. Slots past a leaf's `count` are not inspected: no sweep
//!   reads them.
//! * **SoaMismatch** / **F16Mismatch** — the leaf-contiguous rows are
//!   bit-identical to the points they mirror: the exact `f32`
//!   coordinates, or for an f16-row tree the binary16 encodings of
//!   `p − origin` against the leaf's origin.
//! * **LeafOrigin** — every f16-row leaf's origin is, bit for bit,
//!   [`leaf_origin`](crate::leaf_origin) of its live points' box; an
//!   empty leaf's and every `f32`-row leaf's is zero.
//! * **Accounting** — subtree live/leaf meta counters, `num_live`
//!   versus the alive mask, and `garbage_slots` versus the slots no
//!   leaf owns.
//!
//! The two remaining [`ViolationKind`]s (`DirectoryBytes`,
//! `ShardDirectory`) are emitted by the compressed and sharded layers
//! in `bonsai-core`, which extend this walk.

use std::collections::HashSet;
use std::fmt;

use bonsai_geom::Point3;

use crate::build::KdTree;
use crate::node::{Node, NodeId};
use crate::rows::RowLayout;
use crate::PAD_SLOT;

/// The invariant class an [`AuditViolation`] breaks. See
/// [`KdTree::audit`] for the per-class contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Node-pool shape: bad child ids, cycles, orphaned nodes, meta
    /// table length drift.
    Structure,
    /// Interior divider bounds no longer bound their subtree (pruning
    /// would silently drop results).
    DividerOrder,
    /// The live-slot ↔ live-point bijection is broken, or a leaf's
    /// footprint or a row falls outside the slot arrays.
    SlotBijection,
    /// A leaf-contiguous SoA row disagrees with the point it mirrors.
    SoaMismatch,
    /// A bookkeeping counter (subtree meta, `num_live`,
    /// `garbage_slots`) disagrees with a recount.
    Accounting,
    /// An f16 row is not the f16 encoding of its point relative to its
    /// leaf's origin.
    F16Mismatch,
    /// A leaf's origin is not the grid origin of its live points' box.
    LeafOrigin,
    /// A leaf header, a compressed-directory reference or its bytes
    /// are unsound (emitted by `bonsai-core`).
    DirectoryBytes,
    /// The global→(shard, local) directory and the shard live sets are
    /// not in bijection (emitted by `bonsai-core`).
    ShardDirectory,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::Structure => "structure",
            ViolationKind::DividerOrder => "divider-order",
            ViolationKind::SlotBijection => "slot-bijection",
            ViolationKind::SoaMismatch => "soa-mismatch",
            ViolationKind::Accounting => "accounting",
            ViolationKind::F16Mismatch => "f16-mismatch",
            ViolationKind::LeafOrigin => "leaf-origin",
            ViolationKind::DirectoryBytes => "directory-bytes",
            ViolationKind::ShardDirectory => "shard-directory",
        };
        f.write_str(s)
    }
}

/// One detected invariant violation. Carries the broken class plus
/// whatever locators apply (node id, point/slot index, shard id) and a
/// human-readable detail string for logs.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditViolation {
    /// The invariant class that failed.
    pub kind: ViolationKind,
    /// The tree node involved, when one is.
    pub node: Option<NodeId>,
    /// The point index or slot involved, when one is.
    pub index: Option<u32>,
    /// The shard involved (sharded audits only).
    pub shard: Option<u32>,
    /// What exactly disagreed.
    pub detail: String,
}

impl AuditViolation {
    /// A violation of `kind` with no locators.
    pub fn new(kind: ViolationKind, detail: impl Into<String>) -> AuditViolation {
        AuditViolation {
            kind,
            node: None,
            index: None,
            shard: None,
            detail: detail.into(),
        }
    }

    /// Attaches the involved node id.
    pub fn at_node(mut self, node: NodeId) -> AuditViolation {
        self.node = Some(node);
        self
    }

    /// Attaches the involved point index or slot.
    pub fn at_index(mut self, index: u32) -> AuditViolation {
        self.index = Some(index);
        self
    }

    /// Attaches the involved shard id.
    pub fn at_shard(mut self, shard: u32) -> AuditViolation {
        self.shard = Some(shard);
        self
    }
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.kind)?;
        if let Some(s) = self.shard {
            write!(f, " shard {s}")?;
        }
        if let Some(n) = self.node {
            write!(f, " node {n}")?;
        }
        if let Some(i) = self.index {
            write!(f, " index {i}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Per-subtree facts the audit walk accumulates bottom-up.
struct SubtreeFacts {
    live: u64,
    leaves: u64,
    /// Per-axis live-coordinate bounds; `[+∞, -∞]` for an empty
    /// subtree.
    min: [f32; 3],
    max: [f32; 3],
}

impl SubtreeFacts {
    fn empty() -> SubtreeFacts {
        SubtreeFacts {
            live: 0,
            leaves: 0,
            min: [f32::INFINITY; 3],
            max: [f32::NEG_INFINITY; 3],
        }
    }

    fn absorb(&mut self, other: &SubtreeFacts) {
        self.live += other.live;
        self.leaves += other.leaves;
        for a in 0..3 {
            self.min[a] = self.min[a].min(other.min[a]);
            self.max[a] = self.max[a].max(other.max[a]);
        }
    }
}

/// Walks a [`KdTree`] and collects every invariant violation it can
/// find. Every access is bounds-checked and cycles are cut by a
/// visited set, so the auditor never panics — even on a tree whose
/// arrays have been arbitrarily corrupted.
pub struct TreeAuditor<'a> {
    tree: &'a KdTree,
    out: Vec<AuditViolation>,
    /// Whether `meta` is parallel to `nodes` (meta checks are skipped
    /// otherwise).
    meta_ok: bool,
    /// Whether the SoA rows are slot-parallel to `vind` (row checks are
    /// skipped otherwise).
    rows_ok: bool,
    visited: Vec<bool>,
    /// Which leaf (if any) owns each `vind` slot.
    slot_owner: Vec<Option<NodeId>>,
    /// Which leaf slot (if any) indexes each point.
    point_seen: Vec<bool>,
    live_slots: u64,
}

impl<'a> TreeAuditor<'a> {
    /// Prepares an auditor over `tree`.
    pub fn new(tree: &'a KdTree) -> TreeAuditor<'a> {
        TreeAuditor {
            tree,
            out: Vec::new(),
            meta_ok: true,
            rows_ok: true,
            visited: vec![false; tree.nodes().len()],
            slot_owner: vec![None; tree.vind().len()],
            point_seen: vec![false; tree.points().len()],
            live_slots: 0,
        }
    }

    /// Runs the full audit and returns every violation found (empty =
    /// the tree is sound).
    pub fn run(mut self) -> Vec<AuditViolation> {
        self.check_parallel_arrays();
        if !self.tree.nodes().is_empty() {
            self.walk(0);
        }
        self.check_reachability();
        self.check_global_accounting();
        self.out
    }

    fn push(&mut self, v: AuditViolation) {
        self.out.push(v);
    }

    fn check_parallel_arrays(&mut self) {
        let t = self.tree;
        if t.meta.len() != t.nodes.len() {
            self.meta_ok = false;
            self.push(AuditViolation::new(
                ViolationKind::Structure,
                format!(
                    "meta table holds {} entries for {} nodes",
                    t.meta.len(),
                    t.nodes.len()
                ),
            ));
        }
        let slots = t.vind.len();
        for (name, len) in ["x", "y", "z"].into_iter().zip(t.rows.lens()) {
            if len != slots {
                self.rows_ok = false;
                self.push(AuditViolation::new(
                    ViolationKind::SlotBijection,
                    format!("{name} row holds {len} slots, vind holds {slots}"),
                ));
            }
        }
        if t.alive.len() != t.points.len() {
            self.push(AuditViolation::new(
                ViolationKind::Accounting,
                format!(
                    "alive mask holds {} entries for {} points",
                    t.alive.len(),
                    t.points.len()
                ),
            ));
        }
    }

    /// Recursive audit walk; returns the subtree's recounted facts.
    // The negated comparisons below are deliberate: `!(x <= y)` is
    // true for NaN dividers, which the positive form would wave
    // through.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn walk(&mut self, id: NodeId) -> SubtreeFacts {
        self.visited[id as usize] = true;
        match self.tree.nodes()[id as usize] {
            Node::Leaf {
                start,
                count,
                origin,
            } => self.walk_leaf(id, start, count, origin),
            Node::Interior {
                axis,
                split_val,
                div_low,
                div_high,
                left,
                right,
            } => {
                let mut facts = SubtreeFacts::empty();
                let mut child_facts = [SubtreeFacts::empty(), SubtreeFacts::empty()];
                for (side, child) in [(0usize, left), (1usize, right)] {
                    let name = if side == 0 { "left" } else { "right" };
                    match self.visited.get(child as usize) {
                        None => self.push(
                            AuditViolation::new(
                                ViolationKind::Structure,
                                format!("{name} child {child} out of node-pool range"),
                            )
                            .at_node(id),
                        ),
                        Some(true) => self.push(
                            AuditViolation::new(
                                ViolationKind::Structure,
                                format!("{name} child {child} reachable twice (cycle or shared subtree)"),
                            )
                            .at_node(id),
                        ),
                        Some(false) => child_facts[side] = self.walk(child),
                    }
                }
                let a = axis as usize;
                // Exact divider soundness — the builders set the
                // dividers to the extreme child coordinate and inserts
                // only widen them, so `≤`/`≥` hold exactly (the `!`
                // form also flags NaN dividers).
                if child_facts[0].live > 0 && !(child_facts[0].max[a] <= div_low) {
                    self.push(
                        AuditViolation::new(
                            ViolationKind::DividerOrder,
                            format!(
                                "left live max {} exceeds div_low {div_low}",
                                child_facts[0].max[a]
                            ),
                        )
                        .at_node(id),
                    );
                }
                if child_facts[1].live > 0 && !(child_facts[1].min[a] >= div_high) {
                    self.push(
                        AuditViolation::new(
                            ViolationKind::DividerOrder,
                            format!(
                                "right live min {} undercuts div_high {div_high}",
                                child_facts[1].min[a]
                            ),
                        )
                        .at_node(id),
                    );
                }
                if !(div_low <= split_val && split_val <= div_high) {
                    self.push(
                        AuditViolation::new(
                            ViolationKind::DividerOrder,
                            format!(
                                "dividers not ordered: div_low {div_low}, split {split_val}, div_high {div_high}"
                            ),
                        )
                        .at_node(id),
                    );
                }
                facts.absorb(&child_facts[0]);
                facts.absorb(&child_facts[1]);
                if self.meta_ok {
                    let m = self.tree.meta[id as usize];
                    if u64::from(m.live) != facts.live {
                        self.push(
                            AuditViolation::new(
                                ViolationKind::Accounting,
                                format!(
                                    "interior meta live {} but subtree holds {}",
                                    m.live, facts.live
                                ),
                            )
                            .at_node(id),
                        );
                    }
                    if u64::from(m.leaves) != facts.leaves {
                        self.push(
                            AuditViolation::new(
                                ViolationKind::Accounting,
                                format!(
                                    "interior meta leaves {} but subtree holds {}",
                                    m.leaves, facts.leaves
                                ),
                            )
                            .at_node(id),
                        );
                    }
                }
                facts
            }
        }
    }

    fn walk_leaf(&mut self, id: NodeId, start: u32, count: u32, origin: Point3) -> SubtreeFacts {
        let t = self.tree;
        let slots = t.vind.len();
        let mut facts = SubtreeFacts::empty();
        facts.leaves = 1;
        let cap = if self.meta_ok {
            let m = t.meta[id as usize];
            if m.live != count {
                self.push(
                    AuditViolation::new(
                        ViolationKind::Accounting,
                        format!("leaf meta live {} but count {count}", m.live),
                    )
                    .at_node(id),
                );
            }
            m.cap
        } else {
            0
        };
        let fp = cap.max(count) as usize;
        let s = start as usize;
        let c = count as usize;
        if s.checked_add(fp).is_none_or(|end| end > slots) {
            self.push(
                AuditViolation::new(
                    ViolationKind::SlotBijection,
                    format!(
                        "leaf range unsound: start {s} count {c} footprint {fp} of {slots} slots"
                    ),
                )
                .at_node(id),
            );
            // The claimed range is not trustworthy — audit only the
            // slots that exist, and claim ownership of none (the
            // global accounting will flag the fallout too).
            for i in s..slots.min(s + c) {
                self.audit_live_slot(id, i, origin, &mut facts);
            }
            return facts;
        }
        for i in s..s + fp {
            if let Some(owner) = self.slot_owner[i] {
                self.push(
                    AuditViolation::new(
                        ViolationKind::SlotBijection,
                        format!("slot {i} owned by leaf {owner} and leaf {id}"),
                    )
                    .at_node(id)
                    .at_index(i as u32),
                );
            } else {
                self.slot_owner[i] = Some(id);
            }
        }
        for i in s..s + c {
            self.audit_live_slot(id, i, origin, &mut facts);
        }
        let want = if facts.live == 0 {
            Point3::ZERO
        } else {
            t.rows
                .layout()
                .origin(Point3::from(facts.min), Point3::from(facts.max))
        };
        if origin.to_array().map(f32::to_bits) != want.to_array().map(f32::to_bits) {
            self.push(
                AuditViolation::new(
                    ViolationKind::LeafOrigin,
                    format!("origin {origin:?} is not the grid origin {want:?} of the leaf's box"),
                )
                .at_node(id),
            );
        }
        facts
    }

    /// Audits one live leaf slot: index validity, liveness, uniqueness,
    /// SoA row fidelity against the leaf's `origin`; folds the point
    /// into `facts`.
    fn audit_live_slot(&mut self, id: NodeId, i: usize, origin: Point3, facts: &mut SubtreeFacts) {
        let t = self.tree;
        self.live_slots += 1;
        let idx = t.vind[i];
        if idx == PAD_SLOT {
            self.push(
                AuditViolation::new(
                    ViolationKind::SlotBijection,
                    format!("live slot {i} holds the slack marker"),
                )
                .at_node(id)
                .at_index(i as u32),
            );
            return;
        }
        let Some(&p) = t.points.get(idx as usize) else {
            self.push(
                AuditViolation::new(
                    ViolationKind::SlotBijection,
                    format!("live slot {i} indexes point {idx} of {}", t.points.len()),
                )
                .at_node(id)
                .at_index(idx),
            );
            return;
        };
        if !t.alive.get(idx as usize).copied().unwrap_or(false) {
            self.push(
                AuditViolation::new(
                    ViolationKind::SlotBijection,
                    format!("dead point {idx} under live slot {i}"),
                )
                .at_node(id)
                .at_index(idx),
            );
        }
        if self.point_seen[idx as usize] {
            self.push(
                AuditViolation::new(
                    ViolationKind::SlotBijection,
                    format!("point {idx} indexed by more than one live slot"),
                )
                .at_node(id)
                .at_index(idx),
            );
        }
        self.point_seen[idx as usize] = true;
        if self.rows_ok && !t.rows.holds(i, p, origin) {
            let kind = match t.rows.layout() {
                RowLayout::F32 => ViolationKind::SoaMismatch,
                RowLayout::F16 => ViolationKind::F16Mismatch,
            };
            self.push(
                AuditViolation::new(
                    kind,
                    format!(
                        "slot {i} row {} is not the {:?} encoding of point {idx} {p:?}",
                        t.rows.describe(i),
                        t.rows.layout()
                    ),
                )
                .at_node(id)
                .at_index(idx),
            );
        }
        facts.live += 1;
        for (a, v) in [p.x, p.y, p.z].into_iter().enumerate() {
            facts.min[a] = facts.min[a].min(v);
            facts.max[a] = facts.max[a].max(v);
        }
    }

    /// Every node is either reachable from the root or parked on the
    /// free list — never both, never neither.
    fn check_reachability(&mut self) {
        let t = self.tree;
        let mut free: HashSet<NodeId> = HashSet::with_capacity(t.free_nodes.len());
        for &f in &t.free_nodes {
            if f as usize >= t.nodes.len() {
                self.push(AuditViolation::new(
                    ViolationKind::Structure,
                    format!("free-list node {f} out of node-pool range"),
                ));
                continue;
            }
            if !free.insert(f) {
                self.push(
                    AuditViolation::new(ViolationKind::Structure, "node on the free list twice")
                        .at_node(f),
                );
            }
            if self.visited[f as usize] {
                self.push(
                    AuditViolation::new(
                        ViolationKind::Structure,
                        "node is both reachable and on the free list",
                    )
                    .at_node(f),
                );
            }
        }
        for id in 0..t.nodes.len() {
            if !self.visited[id] && !free.contains(&(id as NodeId)) {
                self.push(
                    AuditViolation::new(
                        ViolationKind::Structure,
                        "node neither reachable from the root nor on the free list",
                    )
                    .at_node(id as NodeId),
                );
            }
        }
    }

    fn check_global_accounting(&mut self) {
        let t = self.tree;
        let live_points = t.alive.iter().filter(|&&a| a).count() as u64;
        if live_points != t.num_live as u64 {
            self.push(AuditViolation::new(
                ViolationKind::Accounting,
                format!(
                    "num_live {} but alive mask counts {live_points}",
                    t.num_live
                ),
            ));
        }
        if self.live_slots != live_points {
            // Individual missing/duplicated points are reported below /
            // in the walk; the aggregate still pins the count drift.
            self.push(AuditViolation::new(
                ViolationKind::Accounting,
                format!(
                    "{} live leaf slots for {live_points} live points",
                    self.live_slots
                ),
            ));
        }
        let missing: Vec<usize> = self
            .point_seen
            .iter()
            .zip(t.alive.iter())
            .enumerate()
            .filter(|(_, (&seen, &alive))| alive && !seen)
            .map(|(idx, _)| idx)
            .collect();
        for idx in missing {
            self.push(
                AuditViolation::new(
                    ViolationKind::SlotBijection,
                    format!("live point {idx} not indexed by any leaf"),
                )
                .at_index(idx as u32),
            );
        }
        let uncovered = self.slot_owner.iter().filter(|o| o.is_none()).count();
        if uncovered != t.garbage_slots {
            self.push(AuditViolation::new(
                ViolationKind::Accounting,
                format!(
                    "garbage_slots {} but {uncovered} slots are unowned",
                    t.garbage_slots
                ),
            ));
        }
    }
}

impl KdTree {
    /// Audits every structural invariant (the
    /// [`ViolationKind`] classes) and returns the violations found —
    /// empty means the tree is sound. Unlike the panicking debug
    /// helpers, this never panics, whatever state the tree is in.
    pub fn audit(&self) -> Vec<AuditViolation> {
        TreeAuditor::new(self).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KdTreeConfig;
    use bonsai_geom::Point3;
    use bonsai_sim::SimEngine;

    fn cloud(n: usize, seed: u64) -> Vec<Point3> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f32 / (1u64 << 53) as f32
        };
        (0..n)
            .map(|_| Point3::new(next() * 60.0, next() * 60.0, next() * 4.0))
            .collect()
    }

    #[test]
    fn clean_trees_audit_clean() {
        let mut sim = SimEngine::disabled();
        for n in [0usize, 1, 16, 500] {
            let tree = KdTree::build(cloud(n, n as u64 + 1), KdTreeConfig::default(), &mut sim);
            let violations = tree.audit();
            assert!(violations.is_empty(), "n={n}: {violations:?}");
        }
    }

    #[test]
    fn mutated_tree_audits_clean() {
        let mut sim = SimEngine::disabled();
        let mut tree = KdTree::build(cloud(400, 7), KdTreeConfig::default(), &mut sim);
        for i in 0..200u32 {
            tree.delete(&mut sim, i * 2);
        }
        for p in cloud(150, 8) {
            tree.insert(&mut sim, p);
        }
        tree.drain_dirty_nodes();
        assert!(tree.audit().is_empty(), "{:?}", tree.audit());
    }

    #[test]
    fn corrupted_counter_is_detected_without_panicking() {
        let mut sim = SimEngine::disabled();
        let mut tree = KdTree::build(cloud(300, 3), KdTreeConfig::default(), &mut sim);
        tree.garbage_slots += 5;
        let violations = tree.audit();
        assert!(violations
            .iter()
            .any(|v| v.kind == ViolationKind::Accounting));
    }

    #[test]
    fn scrambled_vind_is_detected() {
        let mut sim = SimEngine::disabled();
        let mut tree = KdTree::build(cloud(300, 4), KdTreeConfig::default(), &mut sim);
        // Duplicate one live index over another inside the first
        // multi-point leaf.
        let (start, count) = tree
            .nodes
            .iter()
            .find_map(|n| match *n {
                Node::Leaf { start, count, .. } if count >= 2 => Some((start, count)),
                _ => None,
            })
            .expect("a multi-point leaf");
        tree.vind[start as usize + 1] = tree.vind[start as usize];
        let violations = tree.audit();
        assert!(
            violations
                .iter()
                .any(|v| v.kind == ViolationKind::SlotBijection),
            "{violations:?} (leaf start {start} count {count})"
        );
    }

    #[test]
    fn violation_display_is_informative() {
        let v = AuditViolation::new(ViolationKind::DividerOrder, "split drifted")
            .at_node(3)
            .at_index(17)
            .at_shard(1);
        let s = v.to_string();
        assert!(s.contains("divider-order") && s.contains("node 3") && s.contains("shard 1"));
    }
}
