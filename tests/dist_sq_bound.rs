//! What a compressed hit's `dist_sq` is, pinned.
//!
//! Compressed radius search returns the baseline's membership and
//! order, but not always its distances: a candidate the uncertainty
//! shell classifies *In* from its f16 approximation reports the
//! approximate `d′²`, and only candidates re-checked through the exact
//! fallback report the `f32` `d²` the baseline computes. This test
//! replays the shell decision for every hit of the compressed engine —
//! against the leaf-relative half of the point and the query
//! translated by its leaf's origin, as the sweeps do — on paper-drive
//! frames (ego-centred) and on the same frames moved to map-scale
//! offsets, and asserts:
//!
//! * every *In* hit reports `d′²`, and `|d′² − d²|` (against the true
//!   `d²`, evaluated in `f64`) is within `t_err · T_ERR_WIDEN + 8ε·d′²`,
//!   the bound `shell`'s module docs prove for the leaf-relative
//!   arithmetic;
//! * every fallback hit reports the exact `f32` `d²`, bit for bit;
//! * conclusive hits occur at every offset: leaf-relative halves keep
//!   the f16 step at the leaf's scale wherever the cloud sits.
//!
//! The replay is `shell::leaf_relative_inputs`, so this test also pins
//! that oracle (which the cross-topology tests check hits against) to
//! the engine bit for bit.

use kd_bonsai::cluster::{ClusterParams, FramePipeline};
use kd_bonsai::core::shell::{classify, leaf_relative_inputs, ShellClass, T_ERR_WIDEN};
use kd_bonsai::core::{BonsaiTree, RadiusSearchEngine};
use kd_bonsai::geom::Point3;
use kd_bonsai::kdtree::{KdTreeConfig, QueryBatch};
use kd_bonsai::lidar::{DrivingSequence, SequenceConfig};
use kd_bonsai::sim::SimEngine;

/// Preprocessed clusterer input of two paper-drive frames.
fn drive_frames() -> Vec<Vec<Point3>> {
    let seq = DrivingSequence::new(SequenceConfig::paper_drive());
    let pipeline = FramePipeline::new(ClusterParams::default());
    let mut sim = SimEngine::disabled();
    [0, seq.num_frames() / 3]
        .into_iter()
        .map(|i| pipeline.preprocess(&mut sim, &seq.frame(i)))
        .collect()
}

#[test]
fn compressed_hits_report_bounded_or_exact_distances() {
    let radius = ClusterParams::default().tolerance;
    let offsets = [
        Point3::new(0.0, 0.0, 0.0),
        Point3::new(1500.0, -800.0, 0.0),
        Point3::new(5200.0, 3100.0, 40.0),
    ];
    let (mut in_hits, mut fallback_hits) = ([0usize; 3], [0usize; 3]);
    for frame in drive_frames() {
        for (o, &offset) in offsets.iter().enumerate() {
            let cloud: Vec<Point3> = frame.iter().map(|&p| p + offset).collect();
            let mut sim = SimEngine::disabled();
            let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
            let origins = tree.kd_tree().point_origins();
            let queries: Vec<Point3> = cloud.iter().step_by(13).copied().collect();
            for r in [radius, 1.0] {
                let mut batch = QueryBatch::new();
                RadiusSearchEngine::bonsai(&tree).search_batch(&queries, r, &mut batch);
                for (qi, &q) in queries.iter().enumerate() {
                    for hit in batch.results(qi) {
                        let p = cloud[hit.index as usize];
                        let exact = p.distance_squared(q);
                        let origin = origins[hit.index as usize];
                        let (approx, t_err) = leaf_relative_inputs(q, p, origin);
                        let at = format!("offset {offset:?} r {r} query {qi} point {}", hit.index);
                        match classify(approx, t_err, r * r) {
                            ShellClass::In => {
                                in_hits[o] += 1;
                                assert_eq!(hit.dist_sq.to_bits(), approx.to_bits(), "{at}");
                                let truth: f64 = (0..3)
                                    .map(|a| (f64::from(q[a]) - f64::from(p[a])).powi(2))
                                    .sum();
                                let err = (f64::from(approx) - truth).abs();
                                let bound = f64::from(t_err * T_ERR_WIDEN)
                                    + 8.0 * f64::from(f32::EPSILON) * f64::from(approx);
                                assert!(
                                    err <= bound,
                                    "{at}: |d′² − d²| = {err:e} exceeds the bound {bound:e}"
                                );
                            }
                            ShellClass::Recompute => {
                                fallback_hits[o] += 1;
                                assert_eq!(hit.dist_sq.to_bits(), exact.to_bits(), "{at}");
                            }
                            ShellClass::Out => panic!("{at}: a certainly-out candidate was hit"),
                        }
                    }
                }
            }
        }
    }
    // Every offset exercised the conclusive path, and the clouds moved
    // kilometres out classify as conclusively as the ego-centred one.
    // The exact fallback is still exercised.
    let counts = format!("In hits {in_hits:?}, fallback hits {fallback_hits:?}");
    assert!(in_hits.iter().all(|&n| n > 10_000), "{counts}");
    for o in 1..3 {
        assert!(
            fallback_hits[o] <= 2 * fallback_hits[0],
            "offset {o}: {counts}"
        );
    }
    assert!(fallback_hits.iter().sum::<usize>() > 0, "{counts}");
}
