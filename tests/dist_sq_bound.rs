//! What a compressed hit's `dist_sq` is, pinned.
//!
//! Compressed radius search returns the baseline's membership and
//! order, but not always its distances: a candidate the uncertainty
//! shell classifies *In* from its f16 approximation reports the
//! approximate `d′²`, and only candidates re-checked through the exact
//! fallback report the `f32` `d²` the baseline computes. This test
//! replays the shell decision for every hit of the compressed engine,
//! on paper-drive frames (ego-centred, where most hits are conclusive)
//! and on the same frames moved to map-scale offsets (where the f16
//! step grows and many hits fall back), and asserts:
//!
//! * every *In* hit reports `d′²`, and `|d′² − d²| ≤ t_err`, the Eq. 11
//!   bound its classification relied on;
//! * every fallback hit reports the exact `f32` `d²`, bit for bit.

use kd_bonsai::cluster::{ClusterParams, FramePipeline};
use kd_bonsai::core::shell::{classify, ShellClass};
use kd_bonsai::core::{BonsaiTree, RadiusSearchEngine};
use kd_bonsai::floatfmt::{Half, PartErrorMem};
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

/// The compressed sweep's arithmetic for one candidate: the
/// approximate squared distance and its Eq. 11 error bound.
fn approx_and_bound(lut: &PartErrorMem, p: Point3, q: Point3) -> (f32, f32) {
    let h = [p.x, p.y, p.z].map(Half::from_f32);
    let d = [
        q.x - h[0].to_f32(),
        q.y - h[1].to_f32(),
        q.z - h[2].to_f32(),
    ];
    let d_sq = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    let t_err = lut.max_squared_difference_error(d[0].abs(), h[0].exponent_field())
        + lut.max_squared_difference_error(d[1].abs(), h[1].exponent_field())
        + lut.max_squared_difference_error(d[2].abs(), h[2].exponent_field());
    (d_sq, t_err)
}

#[test]
fn compressed_hits_report_bounded_or_exact_distances() {
    let lut = PartErrorMem::new();
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
            let queries: Vec<Point3> = cloud.iter().step_by(13).copied().collect();
            for r in [radius, 1.0] {
                let mut batch = QueryBatch::new();
                RadiusSearchEngine::bonsai(&tree).search_batch(&queries, r, &mut batch);
                for (qi, &q) in queries.iter().enumerate() {
                    for hit in batch.results(qi) {
                        let p = cloud[hit.index as usize];
                        let exact = p.distance_squared(q);
                        let (approx, t_err) = approx_and_bound(&lut, p, q);
                        let at = format!("offset {offset:?} r {r} query {qi} point {}", hit.index);
                        match classify(approx, t_err, r * r) {
                            ShellClass::In => {
                                in_hits[o] += 1;
                                assert_eq!(hit.dist_sq.to_bits(), approx.to_bits(), "{at}");
                                let err = (f64::from(approx) - f64::from(exact)).abs();
                                assert!(
                                    err <= f64::from(t_err),
                                    "{at}: |d′² − d²| = {err:e} exceeds t_err {t_err:e}"
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
    // The ego-centred and 1.5 km clouds exercised the conclusive path;
    // the map-scale ones exercised the fallback. At 5 km the f16 step
    // is 4 m, so no candidate is conclusive there and every hit falls
    // back.
    let counts = format!("In hits {in_hits:?}, fallback hits {fallback_hits:?}");
    assert!(in_hits[0] > 10_000 && in_hits[1] > 1000, "{counts}");
    assert!(
        fallback_hits[1] > 1000 && fallback_hits[2] > 10_000,
        "{counts}"
    );
    assert_eq!(in_hits[2], 0, "{counts}");
}
