//! The central safety property of K-D Bonsai, as property tests: the
//! compressed radius search returns **exactly** the baseline membership
//! for arbitrary clouds, queries and radii — including adversarial radii
//! placed right at point distances, where the uncertainty shell must
//! trigger re-computation rather than guess.

use bonsai_core::BonsaiTree;
use bonsai_geom::Point3;
use bonsai_kdtree::{KdTree, KdTreeConfig, SearchStats};
use bonsai_sim::SimEngine;
use proptest::prelude::*;

fn arb_cloud(max: usize) -> impl Strategy<Value = Vec<Point3>> {
    prop::collection::vec(
        (-100.0f32..100.0, -100.0f32..100.0, -4.0f32..4.0)
            .prop_map(|(x, y, z)| Point3::new(x, y, z)),
        2..max,
    )
}

/// Sorted memberships of the compressed tree and of the baseline tree
/// built over the same points (same shape: the build is deterministic).
fn memberships(tree: &BonsaiTree, base: &KdTree, q: Point3, r: f32) -> (Vec<u32>, Vec<u32>) {
    let mut bonsai: Vec<u32> = tree
        .radius_search_simple(q, r)
        .iter()
        .map(|n| n.index)
        .collect();
    let mut baseline: Vec<u32> = base
        .radius_search_simple(q, r)
        .iter()
        .map(|n| n.index)
        .collect();
    bonsai.sort_unstable();
    baseline.sort_unstable();
    (bonsai, baseline)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary query/radius: identical membership.
    #[test]
    fn bonsai_membership_equals_baseline(
        cloud in arb_cloud(300),
        qi in any::<prop::sample::Index>(),
        radius in 0.0f32..20.0,
        leaf in 2usize..=16,
    ) {
        let cfg = KdTreeConfig { max_leaf_points: leaf, ..KdTreeConfig::default() };
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(cloud.clone(), cfg, &mut sim);
        let base = KdTree::build(cloud.clone(), cfg, &mut sim);
        let q = cloud[qi.index(cloud.len())];
        let (bonsai, baseline) = memberships(&tree, &base, q, radius);
        prop_assert_eq!(bonsai, baseline);
    }

    /// Adversarial radii: place r² exactly at (or a few ULPs around) a
    /// point's true distance, the hardest case for the shell.
    #[test]
    fn boundary_radii_still_match(
        cloud in arb_cloud(200),
        qi in any::<prop::sample::Index>(),
        ti in any::<prop::sample::Index>(),
        nudge in -3i32..=3,
    ) {
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let base = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let q = cloud[qi.index(cloud.len())];
        let target = cloud[ti.index(cloud.len())];
        let d = q.distance(target);
        // Radius a few ULPs around the exact distance.
        let mut r = d;
        for _ in 0..nudge.unsigned_abs() {
            r = if nudge > 0 { r.next_up() } else { r.next_down() };
        }
        let (bonsai, baseline) = memberships(&tree, &base, q, r.max(0.0));
        prop_assert_eq!(bonsai, baseline);
    }

    /// The fallback mechanism fires but stays rare on realistic radii.
    #[test]
    fn fallbacks_stay_rare(cloud in arb_cloud(400), radius in 0.5f32..5.0) {
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let mut machine = bonsai_isa::Machine::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        for qi in (0..cloud.len()).step_by(7) {
            tree.radius_search(&mut sim, &mut machine, cloud[qi], radius, &mut out, &mut stats);
        }
        if stats.points_inspected > 100 {
            prop_assert!(
                stats.fallback_ratio() < 0.1,
                "fallback ratio {}",
                stats.fallback_ratio()
            );
        }
    }

    /// Compression is lossless at the f16 level: every decoded leaf
    /// coordinate equals the f16 conversion of the original point
    /// relative to its leaf's origin.
    #[test]
    fn directory_is_f16_exact(cloud in arb_cloud(150)) {
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        for (leaf_id, r) in tree.directory().refs() {
            let mut decoded = [[0u16; 3]; 16];
            bonsai_isa::codec::decompress(
                tree.directory().bytes_of(leaf_id),
                r.num_pts as usize,
                &mut decoded,
            );
            let bonsai_kdtree::Node::Leaf { start, count, origin } =
                tree.kd_tree().nodes()[leaf_id as usize]
            else {
                panic!("directory ref for a non-leaf");
            };
            for (slot, i) in (start..start + count).enumerate() {
                let idx = tree.kd_tree().vind()[i as usize] as usize;
                for c in 0..3 {
                    prop_assert_eq!(
                        decoded[slot][c],
                        bonsai_floatfmt::Half::from_f32(cloud[idx][c] - origin[c]).to_bits()
                    );
                }
            }
        }
    }
}
