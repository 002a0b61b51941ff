//! Seeded chaos property suite (`--features chaos`).
//!
//! Every fault the [`FaultPlan`] can inject is either **caught** by
//! the deep invariant auditor (state faults, each mapping to its
//! contracted violation kind) or **provably harmless** (frame faults:
//! the streaming stack's output over a mangled frame equals a clean
//! rebuild over the same mangled frame). Quarantine-and-rebuild
//! healing then restores bit-identical serving. Every assertion
//! carries the seed that reproduces it.

use kd_bonsai::cluster::{
    extract_euclidean_clusters_batched, AuditPolicy, ClusterParams, PipelineError,
    StreamingExtractor, StreamingPipeline, TreeMode,
};
use kd_bonsai::core::{FaultKind, FaultPlan, ShardPolicy};
use kd_bonsai::geom::Point3;
use kd_bonsai::kdtree::{KdTreeConfig, QueryBatch, ViolationKind};
use kd_bonsai::lidar::{DrivingSequence, SequenceConfig};

fn blob(center: Point3, n: usize, spread: f32, seed: u64) -> Vec<Point3> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f32 / (1u64 << 53) as f32 - 0.5
    };
    (0..n)
        .map(|_| center + Point3::new(next(), next(), next()) * spread)
        .collect()
}

fn scene(shift: f32, seed: u64) -> Vec<Point3> {
    let mut pts = blob(Point3::new(5.0 + shift, 0.0, 1.0), 130, 0.8, 1);
    pts.extend(blob(Point3::new(12.0 + shift, 6.0, 1.0), 90, 0.7, 2));
    pts.extend(blob(Point3::new(-8.0, -4.0 + shift, 1.0), 140, 0.9, seed));
    pts
}

/// A streaming stack that has seen real churn: three frames, so the
/// shards carry garbage slots, re-baked leaves and directory state —
/// the state the auditor must certify.
fn churned_extractor(seed: u64) -> StreamingExtractor {
    let mut ex = StreamingExtractor::new(TreeMode::Bonsai, KdTreeConfig::default(), 3);
    for frame in 0..3 {
        ex.ingest_frame(&scene(frame as f32 * 0.5, seed + frame));
    }
    ex
}

/// Cluster sets normalized to member-coordinate multisets, so outputs
/// with different index spaces compare.
fn coord_clusters(points: impl Fn(u32) -> Point3, clusters: &[Vec<u32>]) -> Vec<Vec<[u32; 3]>> {
    let mut out: Vec<Vec<[u32; 3]>> = clusters
        .iter()
        .map(|c| {
            let mut v: Vec<[u32; 3]> = c
                .iter()
                .map(|&i| {
                    let p = points(i);
                    [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]
                })
                .collect();
            v.sort_unstable();
            v
        })
        .collect();
    out.sort_unstable();
    out
}

/// The acceptance matrix: one seeded fault per state class, against a
/// churned streaming stack — the auditor must report at least one
/// violation of the contracted kind, every time.
#[test]
fn every_state_fault_class_is_audit_detected() {
    for seed in [1u64, 7, 42] {
        for kind in FaultKind::STATE {
            let mut ex = churned_extractor(seed);
            let before = ex.audit();
            assert!(
                before.is_empty(),
                "seed {seed} {kind:?}: stack dirty before injection: {before:?}"
            );
            let mut plan = FaultPlan::new(seed);
            let site = ex.chaos_inject(&mut plan, kind);
            assert!(site.is_some(), "seed {seed} {kind:?}: no applicable site");
            let want = kind.expected_violation().unwrap();
            let found = ex.audit();
            assert!(
                found.iter().any(|v| v.kind == want),
                "seed {seed} {kind:?}: expected a {want} violation, audit found {found:?}"
            );
        }
    }
}

/// Quarantine-and-rebuild: after any state fault, `heal` quarantines
/// the implicated shards, rebuilds them from the authoritative
/// coordinates, and the stack serves **bit-identical** clusters (in
/// the same global index space) to a never-corrupted twin, with full
/// coverage.
#[test]
fn heal_restores_bit_identical_serving() {
    for seed in [3u64, 19] {
        for kind in FaultKind::STATE {
            let clean = churned_extractor(seed);
            let mut ex = churned_extractor(seed);
            let mut plan = FaultPlan::new(seed);
            assert!(
                ex.chaos_inject(&mut plan, kind).is_some(),
                "seed {seed} {kind:?}: no applicable site"
            );
            let report = ex.heal();
            assert!(
                !report.violations.is_empty(),
                "seed {seed} {kind:?}: heal saw nothing to fix"
            );
            assert!(
                !report.rebuilt.is_empty(),
                "seed {seed} {kind:?}: heal rebuilt nothing"
            );
            assert!(
                report.clean,
                "seed {seed} {kind:?}: corruption survived the heal: {:?}",
                report.violations
            );
            assert!(
                ex.audit().is_empty(),
                "seed {seed} {kind:?}: post-heal audit"
            );

            let healed = ex.extract(0.5, 1, 100_000);
            let expect = clean.extract(0.5, 1, 100_000);
            assert!(healed.coverage.complete, "seed {seed} {kind:?}: coverage");
            assert_eq!(
                healed.clusters, expect.clusters,
                "seed {seed} {kind:?}: healed clusters diverge from the clean twin"
            );
        }
    }
}

/// A leaf origin knocked off its grid — the f16 rows still encode the
/// points against the old origin, so a compressed scan would translate
/// the query by the wrong point — is caught by the origin-rule check
/// (and the stale rows by the f16 bit compare), and quarantine-and-
/// rebuild restores serving identical to a never-corrupted twin.
#[test]
fn leaf_origin_skew_is_detected_and_healed() {
    for seed in [4u64, 13, 29] {
        let clean = churned_extractor(seed);
        let mut ex = churned_extractor(seed);
        let mut plan = FaultPlan::new(seed);
        assert!(
            ex.chaos_inject(&mut plan, FaultKind::LeafOriginSkew)
                .is_some(),
            "seed {seed}: no live leaf to skew"
        );
        let found = ex.audit();
        for want in [ViolationKind::LeafOrigin, ViolationKind::F16Mismatch] {
            assert!(
                found.iter().any(|v| v.kind == want),
                "seed {seed}: expected a {want} violation, audit found {found:?}"
            );
        }
        let report = ex.heal();
        assert!(
            report.clean && !report.rebuilt.is_empty(),
            "seed {seed}: {report:?}"
        );
        assert!(ex.audit().is_empty(), "seed {seed}: post-heal audit");
        let healed = ex.extract(0.5, 1, 100_000);
        assert!(healed.coverage.complete, "seed {seed}: coverage");
        assert_eq!(
            healed.clusters,
            clean.extract(0.5, 1, 100_000).clusters,
            "seed {seed}: healed clusters diverge from the clean twin"
        );
    }
}

/// A healing no-op is free: on a certified stack, `heal` reports clean
/// and rebuilds nothing.
#[test]
fn heal_is_a_noop_on_a_certified_stack() {
    let mut ex = churned_extractor(5);
    let report = ex.heal();
    assert!(report.clean && report.violations.is_empty() && report.rebuilt.is_empty());
}

/// While a shard is quarantined, serving continues **partial**: its
/// points neither seed nor join clusters and the output's coverage
/// names the offline region; healing re-admits it.
#[test]
fn quarantined_shards_serve_partial_results_with_coverage() {
    let seed = 11u64;
    let mut ex = churned_extractor(seed);
    let full = ex.extract(0.5, 1, 100_000);
    assert!(full.coverage.complete);

    ex.chaos_router_mut().quarantine(0);
    let partial = ex.extract(0.5, 1, 100_000);
    assert!(
        !partial.coverage.complete,
        "seed {seed}: coverage still complete"
    );
    assert_eq!(partial.coverage.offline.len(), 1, "seed {seed}");
    let full_points: usize = full.clusters.iter().map(|c| c.len()).sum();
    let partial_points: usize = partial.clusters.iter().map(|c| c.len()).sum();
    assert!(
        partial_points < full_points,
        "seed {seed}: quarantine removed no points from serving \
         ({partial_points} vs {full_points})"
    );
    // No cluster may touch the offline shard.
    for c in &partial.clusters {
        for &g in c {
            let s = ex.router().shard_of(g).unwrap();
            assert_ne!(
                s, 0,
                "seed {seed}: cluster member {g} served from the offline shard"
            );
        }
    }

    let report = ex.heal();
    assert!(
        report.clean && report.rebuilt.contains(&0),
        "seed {seed}: {report:?}"
    );
    let healed = ex.extract(0.5, 1, 100_000);
    assert!(healed.coverage.complete, "seed {seed}");
    assert_eq!(
        healed.clusters, full.clusters,
        "seed {seed}: re-admission changed serving"
    );
}

/// Frame faults (drop / duplicate / reorder) are harmless by
/// construction: the streaming stack over a mangled frame matches a
/// from-scratch rebuild over the same mangled frame, and the audit
/// stays clean.
#[test]
fn frame_faults_are_harmless() {
    for seed in [2u64, 23] {
        for kind in FaultKind::FRAME {
            let mut plan = FaultPlan::new(seed);
            let mut ex = StreamingExtractor::new(TreeMode::Bonsai, KdTreeConfig::default(), 3);
            ex.ingest_frame(&scene(0.0, seed));
            let mut frame = scene(0.4, seed + 1);
            plan.mangle_frame(kind, &mut frame);
            ex.ingest_frame(&frame);
            assert_eq!(ex.num_live(), frame.len(), "seed {seed} {kind:?}");
            let audit = ex.audit();
            assert!(audit.is_empty(), "seed {seed} {kind:?}: audit: {audit:?}");

            let streamed = ex.extract(0.5, 1, 100_000);
            let fresh = extract_euclidean_clusters_batched(
                frame.clone(),
                0.5,
                1,
                100_000,
                KdTreeConfig::default(),
                TreeMode::Bonsai,
            );
            assert_eq!(
                coord_clusters(|g| ex.point(g), &streamed.clusters),
                coord_clusters(|i| frame[i as usize], &fresh.clusters),
                "seed {seed} {kind:?}: mangled frame served differently than a clean rebuild"
            );
        }
    }
}

/// The acceptance soak: 50 frames with a state fault injected and
/// healed every few frames. Serving must stay bit-identical (as
/// point multisets) to a from-scratch rebuild of every frame, with
/// full coverage throughout.
#[test]
fn fifty_frame_chaos_soak_with_healing_matches_clean_rebuilds() {
    let seed = 0x00C0_FFEE_u64;
    let mut plan = FaultPlan::new(seed);
    let mut ex = StreamingExtractor::new(TreeMode::Bonsai, KdTreeConfig::default(), 3);
    let mut injected = 0usize;
    for frame_idx in 0..50u64 {
        let frame = scene((frame_idx % 9) as f32 * 0.6, seed + frame_idx % 4);
        ex.ingest_frame(&frame);
        if frame_idx % 5 == 3 {
            let kind = plan.pick(&FaultKind::STATE);
            if ex.chaos_inject(&mut plan, kind).is_some() {
                injected += 1;
                let report = ex.heal();
                assert!(
                    report.clean,
                    "seed {seed} frame {frame_idx} {kind:?}: heal failed: {:?}",
                    report.violations
                );
            }
        }
        let streamed = ex.extract(0.5, 1, 100_000);
        assert!(streamed.coverage.complete, "seed {seed} frame {frame_idx}");
        let fresh = extract_euclidean_clusters_batched(
            frame.clone(),
            0.5,
            1,
            100_000,
            KdTreeConfig::default(),
            TreeMode::Bonsai,
        );
        assert_eq!(
            coord_clusters(|g| ex.point(g), &streamed.clusters),
            coord_clusters(|i| frame[i as usize], &fresh.clusters),
            "seed {seed} frame {frame_idx}: soak diverged from clean rebuild"
        );
    }
    assert!(injected >= 8, "seed {seed}: only {injected} faults landed");
}

/// The pipeline's `Result` boundary: a degenerate tolerance is an
/// error (never a panic), and an `EveryFrame` audit policy detects
/// and heals corruption injected between frames — the served results
/// match an uncorrupted twin exactly.
#[test]
fn pipeline_audit_policy_heals_between_frames() {
    let seq = DrivingSequence::new(SequenceConfig::small_test());
    let seed = 77u64;

    let bad = ClusterParams {
        tolerance: -1.0,
        ..ClusterParams::default()
    };
    let mut broken = StreamingPipeline::new(bad, TreeMode::Bonsai);
    assert!(matches!(
        broken.try_process_frame(&seq.frame(0)),
        Err(PipelineError::DegenerateTolerance(_))
    ));

    let mut plan = FaultPlan::new(seed);
    let mut chaotic = StreamingPipeline::new(ClusterParams::default(), TreeMode::Bonsai);
    chaotic.set_audit_policy(AuditPolicy::EveryFrame);
    let mut clean = StreamingPipeline::new(ClusterParams::default(), TreeMode::Bonsai);
    for frame_idx in 0..4 {
        let frame = seq.frame(frame_idx);
        let expect = clean.process_frame(&frame);
        let got = chaotic
            .try_process_frame(&frame)
            .unwrap_or_else(|e| panic!("seed {seed} frame {frame_idx}: {e}"));
        assert_eq!(
            got.output.clusters, expect.output.clusters,
            "seed {seed} frame {frame_idx}"
        );
        assert_eq!(got.boxes, expect.boxes, "seed {seed} frame {frame_idx}");
        assert!(
            got.output.coverage.complete,
            "seed {seed} frame {frame_idx}"
        );
        // Corrupt the live index between frames; the next frame's
        // policy audit must catch and heal it.
        let kind = plan.pick(&FaultKind::STATE);
        chaotic.chaos_extractor_mut().chaos_inject(&mut plan, kind);
    }
}

/// Split/merge under fault: two twins driven through identical
/// hot-spot adapt schedules adopt the same post-split topology; a
/// state fault injected into one is then healed, and the healed stack
/// must certify clean, keep accepting adapt steps, and serve clusters
/// bit-identical to the never-corrupted twin (split and merge keep
/// global indices stable, so the comparison is exact, not normalized).
#[test]
fn adapted_topology_heals_to_bit_identical_serving() {
    let policy = ShardPolicy {
        min_split_points: 16,
        min_queries: 8.0,
        split_ratio: 1.2,
        merge_ratio: 0.4,
        max_shards: 8,
        ..ShardPolicy::default()
    };
    for seed in [9u64, 31] {
        for kind in FaultKind::STATE {
            let mut clean = churned_extractor(seed);
            let mut ex = churned_extractor(seed);
            // The policy reads only observed counters, which are
            // deterministic for equal modes and equal query streams —
            // so equal schedules give equal decisions.
            let hot_at = ex
                .live_indices()
                .next()
                .expect("churned stack has live points");
            let hot = [ex.point(hot_at); 24];
            for _ in 0..4 {
                for twin in [&mut clean, &mut ex] {
                    let mut b = QueryBatch::new();
                    twin.router().snapshot().search_batch(&hot, 0.8, &mut b);
                    twin.maybe_adapt(&policy, 0);
                }
            }
            let a = clean.router().load_report();
            let b = ex.router().load_report();
            assert_eq!(
                (a.splits, a.merges),
                (b.splits, b.merges),
                "seed {seed} {kind:?}: twin adapt schedules diverged"
            );
            assert!(
                a.splits + a.merges > 0,
                "seed {seed} {kind:?}: the hot-spot schedule never adapted"
            );

            let mut plan = FaultPlan::new(seed);
            assert!(
                ex.chaos_inject(&mut plan, kind).is_some(),
                "seed {seed} {kind:?}: no applicable site"
            );
            let report = ex.heal();
            assert!(
                report.clean,
                "seed {seed} {kind:?}: heal failed on adapted topology: {:?}",
                report.violations
            );
            // The healed stack keeps adapting cleanly (rebuilt shards
            // may have reset counters, so the twins' topologies are
            // free to diverge from here — served results must not).
            ex.maybe_adapt(&policy, 0);
            clean.maybe_adapt(&policy, 0);
            assert!(
                ex.audit().is_empty(),
                "seed {seed} {kind:?}: post-heal adapt dirtied the stack"
            );

            let healed = ex.extract(0.5, 1, 100_000);
            let expect = clean.extract(0.5, 1, 100_000);
            assert!(healed.coverage.complete, "seed {seed} {kind:?}: coverage");
            assert_eq!(
                healed.clusters, expect.clusters,
                "seed {seed} {kind:?}: healed clusters diverge from the clean twin"
            );
        }
    }
}
