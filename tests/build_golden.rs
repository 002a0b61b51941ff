//! Golden digests of the k-d builders' output.
//!
//! Every builder that serves a search — `KdTree::build` (exact `f32`
//! rows), `BonsaiTree::build` (the instrumented f16 build) and
//! `KdTree::build_parallel_f16` (the uninstrumented f16 build) — is
//! hashed bit for bit: every node (axis, `split_val`/`div_low`/
//! `div_high` bits, children; leaf `start`, `count` and origin bits),
//! the `vind` permutation and the leaf rows. The clouds are the
//! preprocessed output of four frames along the paper drive plus a
//! degenerate cloud (NaN, ±0, ±∞, 3e9, duplicates and a long all-NaN
//! run), so a change to the split step that moves a single divider bit,
//! a leaf origin or the permutation changes a digest.

use kd_bonsai::cluster::{ClusterParams, FramePipeline};
use kd_bonsai::core::BonsaiTree;
use kd_bonsai::geom::Point3;
use kd_bonsai::kdtree::{KdTree, KdTreeConfig, Node, RowLayout, SplitRule};
use kd_bonsai::lidar::{DrivingSequence, SequenceConfig};
use kd_bonsai::sim::SimEngine;

/// FNV-1a (64-bit) accumulator.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u32(&mut self, v: u32) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
}

/// Digest of a tree's nodes, `vind` and leaf rows (`f32` rows or
/// halves, whichever the tree holds).
fn tree_digest(tree: &KdTree) -> u64 {
    let mut h = Fnv::new();
    for node in tree.nodes() {
        match *node {
            Node::Interior {
                axis,
                split_val,
                div_low,
                div_high,
                left,
                right,
            } => {
                h.u32(0);
                h.u32(axis as u32);
                for v in [split_val, div_low, div_high] {
                    h.f32(v);
                }
                h.u32(left);
                h.u32(right);
            }
            Node::Leaf {
                start,
                count,
                origin,
            } => {
                h.u32(1);
                h.u32(start);
                h.u32(count);
                for v in [origin.x, origin.y, origin.z] {
                    h.f32(v);
                }
            }
        }
    }
    for &i in tree.vind() {
        h.u32(i);
    }
    if tree.row_layout() == RowLayout::F32 {
        let (x, y, z) = tree.leaf_soa();
        for row in [x, y, z] {
            for &v in row {
                h.f32(v);
            }
        }
    } else {
        let (x, y, z) = tree.leaf_halves();
        for row in [x, y, z] {
            for &v in row {
                h.u32(u32::from(v));
            }
        }
    }
    h.0
}

/// Digests of one cloud: `KdTree::build`, `BonsaiTree::build`,
/// `KdTree::build_parallel_f16` (two workers) and a sliding-midpoint
/// `KdTree::build`.
fn cloud_digests(cloud: &[Point3]) -> [u64; 4] {
    let cfg = KdTreeConfig::default();
    let mut sim = SimEngine::disabled();
    let kd = KdTree::build(cloud.to_vec(), cfg, &mut sim);
    let bonsai = BonsaiTree::build(cloud.to_vec(), cfg, &mut sim);
    let parallel = KdTree::build_parallel_f16(cloud.to_vec(), cfg, 2);
    let sliding = KdTree::build(
        cloud.to_vec(),
        KdTreeConfig {
            split_rule: SplitRule::SlidingMidpoint,
            ..cfg
        },
        &mut sim,
    );
    [
        tree_digest(&kd),
        tree_digest(bonsai.kd_tree()),
        tree_digest(&parallel),
        tree_digest(&sliding),
    ]
}

/// A seeded cloud of ordinary points laced with the coordinates where a
/// split step can go wrong: NaN, ±0, ±∞, 3e9, 100 copies of one point,
/// and a run of 48 all-NaN points (enough for interior nodes whose
/// children hold only NaN on the split axis).
fn degenerate_cloud() -> Vec<Point3> {
    let mut state = 0x5EED_B0A5_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut cloud = Vec::new();
    for _ in 0..900 {
        let r = next();
        let coord = |k: u64| -> f32 {
            let v = r.rotate_left(k as u32 * 21);
            match v % 16 {
                0 => f32::NAN,
                1 => 0.0,
                2 => -0.0,
                3 => f32::INFINITY,
                4 => f32::NEG_INFINITY,
                5 => 3.0e9,
                6 => -3.0e9,
                _ => ((v >> 8) % 40_000) as f32 * 0.005 - 100.0,
            }
        };
        cloud.push(Point3::new(coord(0), coord(1), coord(2)));
    }
    cloud.extend(std::iter::repeat_n(Point3::new(1.5, -2.25, 0.75), 100));
    cloud.extend(std::iter::repeat_n(Point3::splat(f32::NAN), 48));
    cloud.extend(std::iter::repeat_n(Point3::new(-0.0, 0.0, -0.0), 20));
    cloud
}

#[test]
fn builders_match_golden_digests() {
    // (cloud, [KdTree::build, BonsaiTree::build, build_parallel_f16,
    // sliding-midpoint KdTree::build]), recorded before the two
    // builders shared one split step.
    const GOLDEN: [(&str, [u64; 4]); 5] = [
        (
            "frame 0",
            [
                0x2873_93e2_1423_0c3f,
                0x6dd4_b3f0_32c4_e65a,
                0x6dd4_b3f0_32c4_e65a,
                0x5b4c_101c_bfd5_cb7b,
            ],
        ),
        (
            "frame 1200",
            [
                0x4e3e_200a_b0ba_9e90,
                0xac3f_a125_af67_8e43,
                0xac3f_a125_af67_8e43,
                0x243d_3f1b_df25_96dd,
            ],
        ),
        (
            "frame 2400",
            [
                0xbc3d_4548_b5cf_cd7d,
                0xf8bf_e577_032a_1a51,
                0xf8bf_e577_032a_1a51,
                0x1232_1f66_4a4e_ac99,
            ],
        ),
        (
            "frame 3600",
            [
                0xf1fc_cacb_5d99_c81e,
                0x4c95_fd39_b75e_e9d4,
                0x4c95_fd39_b75e_e9d4,
                0xb2a1_9bf5_9a8d_6adc,
            ],
        ),
        (
            "degenerate",
            [
                0x44bd_78ba_9818_12be,
                0x5e86_9645_1b38_b77f,
                0x5e86_9645_1b38_b77f,
                0xe78e_9b80_5fc4_8880,
            ],
        ),
    ];
    let seq = DrivingSequence::new(SequenceConfig::paper_drive());
    let pipeline = FramePipeline::new(ClusterParams::default());
    let mut sim = SimEngine::disabled();
    let mut clouds: Vec<Vec<Point3>> = [0, 1200, 2400, 3600]
        .into_iter()
        .map(|frame| pipeline.preprocess(&mut sim, &seq.frame(frame)))
        .collect();
    clouds.push(degenerate_cloud());
    let got: Vec<(&str, [u64; 4])> = GOLDEN
        .iter()
        .zip(&clouds)
        .map(|(&(name, _), cloud)| (name, cloud_digests(cloud)))
        .collect();
    assert_eq!(got, GOLDEN);
}
