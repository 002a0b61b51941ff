//! Golden digest of the frame preprocessor's output.
//!
//! `FramePipeline::preprocess` (crop → voxel grid → ground removal) is
//! hashed bit for bit, in output order, on four frames spread along the
//! paper drive. Any change to a filter that moves a single coordinate
//! bit, drops or adds a point, or reorders the output changes a digest.

use kd_bonsai::cluster::{ClusterParams, FramePipeline};
use kd_bonsai::geom::Point3;
use kd_bonsai::lidar::{DrivingSequence, SequenceConfig};
use kd_bonsai::sim::SimEngine;

/// FNV-1a (64-bit) over the f32 bit patterns of `points`, x, y, z per
/// point, in order.
fn digest(points: &[Point3]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for p in points {
        for v in [p.x, p.y, p.z] {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn preprocess_output_matches_golden_digests() {
    // (frame, output points, digest), recorded with the SipHash
    // `HashMap` voxel grid that the open-addressing table replaced.
    const GOLDEN: [(usize, usize, u64); 4] = [
        (0, 6439, 0x24f8_8608_d9a3_a954),
        (1200, 8247, 0x457f_9235_d4a4_f3ce),
        (2400, 8953, 0x2882_61b3_09f9_43b2),
        (3600, 8220, 0xfd25_5f21_1caf_9737),
    ];
    let seq = DrivingSequence::new(SequenceConfig::paper_drive());
    let pipeline = FramePipeline::new(ClusterParams::default());
    let mut sim = SimEngine::disabled();
    for (frame, points, hash) in GOLDEN {
        let out = pipeline.preprocess(&mut sim, &seq.frame(frame));
        assert_eq!(
            (out.len(), digest(&out)),
            (points, hash),
            "frame {frame}: (output points, digest)"
        );
    }
}
