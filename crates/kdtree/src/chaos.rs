//! Deterministic fault injection for [`KdTree`] internals (`chaos`
//! feature only).
//!
//! These hooks corrupt a live tree the way a stray write or a flipped
//! bit would, in ways the [auditor](crate::audit) is *guaranteed* to
//! flag — the chaos test suite uses them to prove the audit coverage
//! and the self-healing layer above. Every mutation is driven by a
//! [`ChaosRng`] so a failing run reproduces from its `u64` seed alone.
//!
//! None of this is compiled into normal builds: the module (and the
//! methods it adds to [`KdTree`]) exist only under `--features chaos`.

use crate::build::KdTree;
use crate::node::{Node, NodeId};

/// A tiny deterministic generator (splitmix64) for fault planning.
/// Not a statistical RNG — it only needs to be seedable, fast and
/// stable across platforms so chaos runs replay exactly.
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// Seeds the generator. Distinct seeds give unrelated streams; the
    /// same seed always gives the same stream.
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// Reachable nodes satisfying `pick`, in walk order.
fn reachable_matching(tree: &KdTree, pick: impl Fn(&Node) -> bool) -> Vec<NodeId> {
    let mut out = Vec::new();
    if tree.nodes.is_empty() {
        return out;
    }
    let mut stack = vec![0 as NodeId];
    while let Some(id) = stack.pop() {
        let node = tree.nodes[id as usize];
        if pick(&node) {
            out.push(id);
        }
        if let Node::Interior { left, right, .. } = node {
            stack.push(left);
            stack.push(right);
        }
    }
    out
}

impl KdTree {
    /// Chaos hook: duplicates one live `vind` entry over a neighbouring
    /// slot of the same leaf, breaking the slot↔point bijection (the
    /// overwritten point keeps its alive bit but loses its only slot;
    /// the duplicated point gains two). Returns `false` when no leaf
    /// holds two points (nothing corrupted).
    ///
    /// Guaranteed to surface as at least one `SlotBijection` violation.
    pub fn chaos_duplicate_vind(&mut self, rng: &mut ChaosRng) -> bool {
        let leaves = reachable_matching(
            self,
            |n| matches!(n, Node::Leaf { count, .. } if *count >= 2),
        );
        if leaves.is_empty() {
            return false;
        }
        let id = leaves[rng.below(leaves.len())];
        let Node::Leaf { start, count, .. } = self.nodes[id as usize] else {
            return false;
        };
        let a = rng.below(count as usize);
        let b = (a + 1 + rng.below(count as usize - 1)) % count as usize;
        let (a, b) = (start as usize + a, start as usize + b);
        self.vind[b] = self.vind[a];
        true
    }

    /// Chaos hook: skews one interior node's `div_low` above its split
    /// value — the shape a torn divider write takes. Returns `false`
    /// on a tree without interior nodes.
    ///
    /// Guaranteed to surface as a `DividerOrder` violation
    /// (`div_low ≤ split_val` is maintained exactly by build and
    /// insert).
    pub fn chaos_skew_divider(&mut self, rng: &mut ChaosRng) -> bool {
        let interiors = reachable_matching(self, |n| !n.is_leaf());
        if interiors.is_empty() {
            return false;
        }
        let id = interiors[rng.below(interiors.len())];
        if let Node::Interior {
            split_val, div_low, ..
        } = &mut self.nodes[id as usize]
        {
            // An offset that survives f32 rounding at any magnitude.
            *div_low = *split_val + split_val.abs().max(1.0);
            true
        } else {
            false
        }
    }

    /// Chaos hook: drifts the `garbage_slots` counter by a small random
    /// amount, the shape silent accounting rot takes.
    ///
    /// Guaranteed to surface as an `Accounting` violation.
    pub fn chaos_skew_garbage(&mut self, rng: &mut ChaosRng) -> bool {
        self.garbage_slots += 1 + rng.below(7);
        true
    }

    /// Chaos hook: flips the low bit of one live slot's leaf row on one
    /// axis — the `f32` mantissa or the f16 mantissa, whichever layout
    /// the tree holds. Returns `false` on a tree without live slots.
    ///
    /// Guaranteed to surface as a `SoaMismatch` (f32 rows) or
    /// `F16Mismatch` (f16 rows) violation.
    pub fn chaos_flip_row(&mut self, rng: &mut ChaosRng) -> bool {
        let slots: Vec<usize> = reachable_matching(self, Node::is_leaf)
            .into_iter()
            .flat_map(|id| match self.nodes[id as usize] {
                Node::Leaf { start, count, .. } => start as usize..(start + count) as usize,
                Node::Interior { .. } => 0..0,
            })
            .collect();
        if slots.is_empty() {
            return false;
        }
        let i = slots[rng.below(slots.len())];
        self.rows.flip_low_bit(i, rng.below(3));
        true
    }

    /// Chaos hook: shifts one live leaf's origin on one axis off the
    /// value its layout dictates (the grid origin of its box on f16
    /// rows, zero on `f32` rows) — the shape a torn write to the leaf's
    /// union-reused fields takes. The rows keep their old encoding, so
    /// a compressed scan would translate the query by the wrong point.
    /// Returns `false` on a tree without live leaves.
    ///
    /// Guaranteed to surface as a `LeafOrigin` violation (plus an
    /// `F16Mismatch` on f16 rows).
    pub fn chaos_skew_origin(&mut self, rng: &mut ChaosRng) -> bool {
        let leaves = reachable_matching(
            self,
            |n| matches!(n, Node::Leaf { count, .. } if *count >= 1),
        );
        if leaves.is_empty() {
            return false;
        }
        let id = leaves[rng.below(leaves.len())];
        let axis = rng.below(3);
        if let Node::Leaf { origin, .. } = &mut self.nodes[id as usize] {
            // An offset that survives f32 rounding at any magnitude.
            origin[axis] += origin[axis].abs().max(1.0);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::ViolationKind;
    use crate::build::KdTreeConfig;
    use bonsai_geom::Point3;
    use bonsai_sim::SimEngine;

    fn tree(n: usize) -> KdTree {
        let cloud: Vec<Point3> = (0..n)
            .map(|i| {
                Point3::new(
                    (i % 17) as f32 * 0.7,
                    (i % 23) as f32 * 0.5,
                    (i % 5) as f32 * 0.3,
                )
            })
            .collect();
        KdTree::build(cloud, KdTreeConfig::default(), &mut SimEngine::disabled())
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = ChaosRng::new(42);
        let mut b = ChaosRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(ChaosRng::new(1).next_u64(), ChaosRng::new(2).next_u64());
    }

    #[test]
    fn each_kdtree_fault_is_audit_detected() {
        for seed in 0..5u64 {
            let mut rng = ChaosRng::new(seed);
            let mut t = tree(400);
            assert!(t.chaos_duplicate_vind(&mut rng), "seed {seed}");
            assert!(
                t.audit()
                    .iter()
                    .any(|v| v.kind == ViolationKind::SlotBijection),
                "seed {seed}"
            );

            let mut t = tree(400);
            assert!(t.chaos_skew_divider(&mut rng), "seed {seed}");
            assert!(
                t.audit()
                    .iter()
                    .any(|v| v.kind == ViolationKind::DividerOrder),
                "seed {seed}"
            );

            let mut t = tree(400);
            assert!(t.chaos_skew_garbage(&mut rng), "seed {seed}");
            assert!(
                t.audit()
                    .iter()
                    .any(|v| v.kind == ViolationKind::Accounting),
                "seed {seed}"
            );

            let mut t = tree(400);
            assert!(t.chaos_flip_row(&mut rng), "seed {seed}");
            assert!(
                t.audit()
                    .iter()
                    .any(|v| v.kind == ViolationKind::SoaMismatch),
                "seed {seed}"
            );
            let cloud = t.points().to_vec();
            let mut t =
                KdTree::build_f16(cloud, KdTreeConfig::default(), &mut SimEngine::disabled());
            assert!(t.chaos_flip_row(&mut rng), "seed {seed}");
            assert!(
                t.audit()
                    .iter()
                    .any(|v| v.kind == ViolationKind::F16Mismatch),
                "seed {seed}"
            );

            for layout_f16 in [false, true] {
                let cloud = t.points().to_vec();
                let cfg = KdTreeConfig::default();
                let mut t = if layout_f16 {
                    KdTree::build_f16(cloud, cfg, &mut SimEngine::disabled())
                } else {
                    KdTree::build(cloud, cfg, &mut SimEngine::disabled())
                };
                assert!(t.chaos_skew_origin(&mut rng), "seed {seed}");
                let found = t.audit();
                assert!(
                    found.iter().any(|v| v.kind == ViolationKind::LeafOrigin),
                    "seed {seed} f16 {layout_f16}: {found:?}"
                );
                assert_eq!(
                    found.iter().any(|v| v.kind == ViolationKind::F16Mismatch),
                    layout_f16,
                    "seed {seed}: stale f16 rows against the skewed origin"
                );
            }
        }
    }
}
