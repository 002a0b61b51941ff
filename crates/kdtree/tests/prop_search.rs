//! Property tests: tree searches agree with brute force on arbitrary
//! clouds, radii and leaf sizes.

use bonsai_geom::Point3;
use bonsai_kdtree::{KdTree, KdTreeConfig, SplitRule};
use bonsai_sim::SimEngine;
use proptest::prelude::*;

fn arb_cloud(max: usize) -> impl Strategy<Value = Vec<Point3>> {
    prop::collection::vec(
        (-50.0f32..50.0, -50.0f32..50.0, -5.0f32..5.0).prop_map(|(x, y, z)| Point3::new(x, y, z)),
        1..max,
    )
}

fn brute_radius(cloud: &[Point3], q: Point3, r: f32) -> Vec<u32> {
    let mut out: Vec<u32> = cloud
        .iter()
        .enumerate()
        .filter(|(_, p)| p.distance_squared(q) <= r * r)
        .map(|(i, _)| i as u32)
        .collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Radius search equals brute force for any cloud/query/radius and
    /// any legal leaf size and split rule.
    #[test]
    fn radius_search_equals_brute_force(
        cloud in arb_cloud(400),
        qx in -60.0f32..60.0,
        qy in -60.0f32..60.0,
        radius in 0.0f32..30.0,
        leaf in 1usize..=16,
        midpoint in any::<bool>(),
    ) {
        let cfg = KdTreeConfig {
            max_leaf_points: leaf,
            split_rule: if midpoint { SplitRule::SlidingMidpoint } else { SplitRule::Median },
        };
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), cfg, &mut sim);
        let q = Point3::new(qx, qy, 0.0);
        let mut got: Vec<u32> =
            tree.radius_search_simple(q, radius).iter().map(|n| n.index).collect();
        got.sort_unstable();
        prop_assert_eq!(got, brute_radius(&cloud, q, radius));
    }

    /// kNN returns the k smallest distances (as a set, tolerating ties).
    #[test]
    fn knn_matches_brute_force_distances(
        cloud in arb_cloud(300),
        qx in -60.0f32..60.0,
        qy in -60.0f32..60.0,
        k in 1usize..40,
    ) {
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let q = Point3::new(qx, qy, 0.0);
        let got = tree.knn(&mut sim, q, k);
        let mut dists: Vec<f32> = cloud.iter().map(|p| p.distance_squared(q)).collect();
        dists.sort_by(f32::total_cmp);
        let expect = &dists[..k.min(cloud.len())];
        let got_d: Vec<f32> = got.iter().map(|n| n.dist_sq).collect();
        prop_assert_eq!(got_d.len(), expect.len());
        for (g, e) in got_d.iter().zip(expect) {
            prop_assert_eq!(*g, *e);
        }
    }

    /// Every point appears in exactly one leaf, regardless of shape.
    #[test]
    fn leaves_partition_points(cloud in arb_cloud(500), leaf in 1usize..=16) {
        let cfg = KdTreeConfig { max_leaf_points: leaf, ..KdTreeConfig::default() };
        let mut sim = SimEngine::disabled();
        let tree = KdTree::build(cloud.clone(), cfg, &mut sim);
        let mut seen = vec![0u8; cloud.len()];
        for node in tree.nodes() {
            if let bonsai_kdtree::Node::Leaf { start, count, .. } = node {
                prop_assert!(*count as usize <= leaf);
                for i in *start..start + count {
                    seen[tree.vind()[i as usize] as usize] += 1;
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s == 1));
    }
}
