//! Deterministic fault-injection harness (the `chaos` feature).
//!
//! A [`FaultPlan`] is reproducible from a single `u64` seed: the same
//! seed injects the same faults at the same sites, so a failing chaos
//! run is replayed by rerunning with the printed seed. Faults come in
//! two families:
//!
//! * **State faults** corrupt live serving structures between frames —
//!   f16 bit flips, skewed leaf origins, scrambled leaf `vind` slots,
//!   corrupted leaf headers, broken global→shard directory entries,
//!   skewed dividers and garbage counters. Each maps to the
//!   [`ViolationKind`] the audit is contracted to report for it
//!   ([`FaultKind::expected_violation`]).
//! * **Frame faults** mangle the *input* stream — dropped, duplicated
//!   or reordered frame points. These must be harmless: the serving
//!   stack's output over a mangled frame must equal a clean rebuild
//!   over the same mangled frame.

use bonsai_geom::Point3;
use bonsai_kdtree::{ChaosRng, ViolationKind};

use crate::shard::ShardRouter;

/// One injectable fault class, either corrupting live serving state
/// (audit-detectable) or mangling the input stream (provably
/// harmless); [`is_frame_fault`](FaultKind::is_frame_fault) gives the
/// split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Flip the low mantissa bit of one f16 row.
    F16BitFlip,
    /// Shift one leaf's origin off the grid its box dictates (the f16
    /// rows stay encoded against the old origin).
    LeafOriginSkew,
    /// Duplicate one `vind` entry inside a leaf (breaking the
    /// slot ↔ point bijection).
    VindScramble,
    /// Corrupt one leaf header — the per-node record of a leaf's
    /// compressed structure (its flags and slice count) that stands in
    /// for the compressed directory on the serving path.
    DirectoryTruncate,
    /// Point one global→(shard, local) directory entry at a slot no
    /// shard holds.
    ShardDirectoryBreak,
    /// Skew one interior divider past its split value.
    DividerSkew,
    /// Skew one shard tree's garbage-slot counter.
    GarbageCounterSkew,
    /// Drop one point from the incoming frame.
    FrameDrop,
    /// Duplicate one point of the incoming frame.
    FrameDuplicate,
    /// Shuffle the incoming frame's point order.
    FrameReorder,
}

impl FaultKind {
    /// Every fault class.
    pub const ALL: [FaultKind; 10] = [
        FaultKind::F16BitFlip,
        FaultKind::LeafOriginSkew,
        FaultKind::VindScramble,
        FaultKind::DirectoryTruncate,
        FaultKind::ShardDirectoryBreak,
        FaultKind::DividerSkew,
        FaultKind::GarbageCounterSkew,
        FaultKind::FrameDrop,
        FaultKind::FrameDuplicate,
        FaultKind::FrameReorder,
    ];

    /// The state-corrupting classes (each audit-detectable).
    pub const STATE: [FaultKind; 7] = [
        FaultKind::F16BitFlip,
        FaultKind::LeafOriginSkew,
        FaultKind::VindScramble,
        FaultKind::DirectoryTruncate,
        FaultKind::ShardDirectoryBreak,
        FaultKind::DividerSkew,
        FaultKind::GarbageCounterSkew,
    ];

    /// The input-mangling classes (each provably harmless).
    pub const FRAME: [FaultKind; 3] = [
        FaultKind::FrameDrop,
        FaultKind::FrameDuplicate,
        FaultKind::FrameReorder,
    ];

    /// Whether this class mangles the input stream instead of live
    /// state.
    pub fn is_frame_fault(self) -> bool {
        matches!(
            self,
            FaultKind::FrameDrop | FaultKind::FrameDuplicate | FaultKind::FrameReorder
        )
    }

    /// The violation class the audit is contracted to report after
    /// this fault lands (`None` for frame faults, which corrupt no
    /// state).
    pub fn expected_violation(self) -> Option<ViolationKind> {
        match self {
            FaultKind::F16BitFlip => Some(ViolationKind::F16Mismatch),
            FaultKind::LeafOriginSkew => Some(ViolationKind::LeafOrigin),
            FaultKind::VindScramble => Some(ViolationKind::SlotBijection),
            FaultKind::DirectoryTruncate => Some(ViolationKind::DirectoryBytes),
            FaultKind::ShardDirectoryBreak => Some(ViolationKind::ShardDirectory),
            FaultKind::DividerSkew => Some(ViolationKind::DividerOrder),
            FaultKind::GarbageCounterSkew => Some(ViolationKind::Accounting),
            FaultKind::FrameDrop | FaultKind::FrameDuplicate | FaultKind::FrameReorder => None,
        }
    }
}

/// A seeded, reproducible fault injector. All site choices come from
/// one [`ChaosRng`] stream, so a run is replayed exactly from its
/// seed.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rng: ChaosRng,
}

impl FaultPlan {
    /// A plan reproducible from `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rng: ChaosRng::new(seed),
        }
    }

    /// The seed this plan replays from (print it in every failure
    /// message).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's random stream, for callers sequencing their own
    /// choices into the replayable stream.
    pub fn rng(&mut self) -> &mut ChaosRng {
        &mut self.rng
    }

    /// Picks one of `kinds`, advancing the seeded stream.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty.
    pub fn pick(&mut self, kinds: &[FaultKind]) -> FaultKind {
        kinds[self.rng.below(kinds.len())]
    }

    /// Injects a state fault into the router, returning the attributed
    /// shard, or `None` when the router offers no applicable site (an
    /// empty router, or a baseline router for a compressed-layer
    /// fault).
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a frame fault — those mangle input frames
    /// ([`mangle_frame`](FaultPlan::mangle_frame)), not router state.
    pub fn inject(&mut self, router: &mut ShardRouter, kind: FaultKind) -> Option<usize> {
        match kind {
            FaultKind::F16BitFlip => router.chaos_flip_f16(&mut self.rng),
            FaultKind::LeafOriginSkew => router.chaos_skew_origin(&mut self.rng),
            FaultKind::VindScramble => router.chaos_duplicate_vind(&mut self.rng),
            FaultKind::DirectoryTruncate => router.chaos_corrupt_header(&mut self.rng),
            FaultKind::ShardDirectoryBreak => router.chaos_break_directory(&mut self.rng),
            FaultKind::DividerSkew => router.chaos_skew_divider(&mut self.rng),
            FaultKind::GarbageCounterSkew => router.chaos_skew_garbage(&mut self.rng),
            FaultKind::FrameDrop | FaultKind::FrameDuplicate | FaultKind::FrameReorder => {
                panic!("{kind:?} mangles input frames, not router state")
            }
        }
    }

    /// Mangles an input frame in place (drop / duplicate / shuffle).
    /// State faults are rejected the same way
    /// [`inject`](FaultPlan::inject) rejects frame faults.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a state fault.
    pub fn mangle_frame(&mut self, kind: FaultKind, frame: &mut Vec<Point3>) {
        match kind {
            FaultKind::FrameDrop => {
                if !frame.is_empty() {
                    let i = self.rng.below(frame.len());
                    frame.remove(i);
                }
            }
            FaultKind::FrameDuplicate => {
                if !frame.is_empty() {
                    let src = self.rng.below(frame.len());
                    let dst = self.rng.below(frame.len() + 1);
                    let p = frame[src];
                    frame.insert(dst, p);
                }
            }
            FaultKind::FrameReorder => {
                // Fisher–Yates over the seeded stream.
                for i in (1..frame.len()).rev() {
                    let j = self.rng.below(i + 1);
                    frame.swap(i, j);
                }
            }
            _ => panic!("{kind:?} corrupts router state, not input frames"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardConfig;
    use bonsai_kdtree::KdTreeConfig;

    fn cloud(n: usize) -> Vec<Point3> {
        (0..n)
            .map(|i| {
                Point3::new(
                    (i % 23) as f32 * 0.4,
                    (i % 17) as f32 * 0.3,
                    (i % 5) as f32 * 0.2,
                )
            })
            .collect()
    }

    #[test]
    fn every_state_fault_is_audit_detected_on_a_router() {
        for seed in 1..=5u64 {
            for kind in FaultKind::STATE {
                let pts = cloud(600);
                let mut router =
                    ShardRouter::bonsai(&pts, KdTreeConfig::default(), ShardConfig::with_shards(3));
                assert!(
                    router.audit().is_empty(),
                    "seed {seed} {kind:?}: dirty seed"
                );
                let mut plan = FaultPlan::new(seed);
                let shard = plan.inject(&mut router, kind);
                assert!(shard.is_some(), "seed {seed} {kind:?}: no applicable site");
                let want = kind.expected_violation().unwrap();
                let found = router.audit();
                assert!(
                    found.iter().any(|v| v.kind == want),
                    "seed {seed} {kind:?}: expected {want} among {found:?}"
                );
            }
        }
    }

    #[test]
    fn frame_faults_replay_identically_from_the_seed() {
        for kind in FaultKind::FRAME {
            let mut a = cloud(40);
            let mut b = cloud(40);
            FaultPlan::new(99).mangle_frame(kind, &mut a);
            FaultPlan::new(99).mangle_frame(kind, &mut b);
            assert_eq!(a, b, "{kind:?} not reproducible");
            if kind == FaultKind::FrameReorder {
                let mut c = cloud(40);
                FaultPlan::new(100).mangle_frame(kind, &mut c);
                assert_ne!(a, c, "different seeds should shuffle differently");
            }
        }
    }
}
