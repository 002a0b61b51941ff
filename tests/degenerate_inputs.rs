//! Degenerate-input pinning across all three tree modes (Baseline /
//! Bonsai / SoftwareCodec), for every radius-search front-end: the
//! instrumented `LeafProcessor` paths, the fast `RadiusSearchEngine`,
//! and the sharded `ShardRouter`.
//!
//! Covers the two bug classes this repo's PR 2 fixed and guards:
//!
//! * **Degenerate radii** — `radius <= 0` and non-finite radii must
//!   return empty results with zero traversal work. Before the guard,
//!   `-r` returned the same neighbors as `+r` (only `r² = radius·radius`
//!   was ever compared) and NaN/∞ radii mis-pruned silently.
//! * **Degenerate clouds** — all-identical points, coincident
//!   duplicates, a single point, and coordinates that saturate the
//!   f16-approximate rows (|x| > 65504 rounds to ±∞ in binary16) must
//!   keep all three modes bit-identical in membership.

use kd_bonsai::cluster::TreeMode;
use kd_bonsai::core::{
    BonsaiTree, RadiusSearchEngine, ShardConfig, ShardRouter, SoftwareCodecProcessor,
};
use kd_bonsai::geom::Point3;
use kd_bonsai::isa::Machine;
use kd_bonsai::kdtree::{
    BaselineLeafProcessor, KdTree, KdTreeConfig, Neighbor, QueryBatch, SearchScratch, SearchStats,
};
use kd_bonsai::sim::SimEngine;

const MODES: [TreeMode; 3] = [
    TreeMode::Baseline,
    TreeMode::Bonsai,
    TreeMode::SoftwareCodec,
];

/// The compressed tree and the baseline tree over the same points:
/// the build is deterministic, so both have the same shape, and each
/// mode searches the tree that holds its leaf rows.
struct Trees {
    bonsai: BonsaiTree,
    base: KdTree,
}

impl Trees {
    fn build(cloud: &[Point3]) -> Trees {
        Trees::build_with(cloud, KdTreeConfig::default())
    }

    fn build_with(cloud: &[Point3], cfg: KdTreeConfig) -> Trees {
        let mut sim = SimEngine::disabled();
        Trees {
            bonsai: BonsaiTree::build(cloud.to_vec(), cfg, &mut sim),
            base: KdTree::build(cloud.to_vec(), cfg, &mut sim),
        }
    }
}

/// One query through the instrumented (seed-style) search path of a
/// mode, returning the hits and the stats it recorded.
fn instrumented_search(
    trees: &Trees,
    mode: TreeMode,
    query: Point3,
    radius: f32,
) -> (Vec<Neighbor>, SearchStats) {
    let mut sim = SimEngine::disabled();
    let mut out = Vec::new();
    let mut stats = SearchStats::default();
    let tree = &trees.bonsai;
    match mode {
        TreeMode::Baseline => {
            let mut proc = BaselineLeafProcessor::new(&mut sim, &trees.base);
            trees
                .base
                .radius_search(&mut sim, &mut proc, query, radius, &mut out, &mut stats);
        }
        TreeMode::Bonsai => {
            let mut machine = Machine::new();
            tree.radius_search(&mut sim, &mut machine, query, radius, &mut out, &mut stats);
        }
        TreeMode::SoftwareCodec => {
            let mut proc = SoftwareCodecProcessor::new(&mut sim, tree.directory());
            tree.kd_tree()
                .radius_search(&mut sim, &mut proc, query, radius, &mut out, &mut stats);
        }
    }
    (out, stats)
}

fn engine_for(trees: &Trees, mode: TreeMode) -> RadiusSearchEngine<'_> {
    match mode {
        TreeMode::Baseline => RadiusSearchEngine::baseline(&trees.base),
        TreeMode::Bonsai => RadiusSearchEngine::bonsai(&trees.bonsai),
        TreeMode::SoftwareCodec => RadiusSearchEngine::bonsai(&trees.bonsai),
    }
}

fn sorted_indices(hits: &[Neighbor]) -> Vec<u32> {
    let mut v: Vec<u32> = hits.iter().map(|n| n.index).collect();
    v.sort_unstable();
    v
}

fn brute_force(cloud: &[Point3], q: Point3, r: f32) -> Vec<u32> {
    let r_sq = r * r;
    let mut hits: Vec<u32> = cloud
        .iter()
        .enumerate()
        .filter(|(_, p)| p.distance_squared(q) <= r_sq)
        .map(|(i, _)| i as u32)
        .collect();
    hits.sort_unstable();
    hits
}

/// Every mode, every front-end: membership equals brute force for the
/// given cloud/query/radius, and all three modes agree.
fn pin_all_modes(cloud: &[Point3], query: Point3, radius: f32, label: &str) {
    let tree = Trees::build(cloud);
    let expect = brute_force(cloud, query, radius);
    let mut scratch = SearchScratch::new();
    let mut out = Vec::new();
    for mode in MODES {
        let (slow, _) = instrumented_search(&tree, mode, query, radius);
        assert_eq!(
            sorted_indices(&slow),
            expect,
            "{label}: {mode:?} instrumented"
        );

        let engine = engine_for(&tree, mode);
        let mut stats = SearchStats::default();
        engine.search_one(query, radius, &mut scratch, &mut out, &mut stats);
        assert_eq!(out, slow, "{label}: {mode:?} engine vs instrumented");

        let shard_cfg = ShardConfig::with_shards(4);
        let router = match mode {
            TreeMode::Baseline => ShardRouter::baseline(cloud, KdTreeConfig::default(), shard_cfg),
            TreeMode::Bonsai | TreeMode::SoftwareCodec => {
                ShardRouter::bonsai(cloud, KdTreeConfig::default(), shard_cfg)
            }
        };
        let mut stats = SearchStats::default();
        router.search_one(query, radius, &mut scratch, &mut out, &mut stats);
        assert_eq!(sorted_indices(&out), expect, "{label}: {mode:?} router");
    }
}

// ---------------------------------------------------------------------
// Degenerate radii.
// ---------------------------------------------------------------------

fn lane_cloud(n: usize) -> Vec<Point3> {
    (0..n)
        .map(|i| {
            Point3::new(
                (i % 25) as f32 * 0.4,
                (i / 25) as f32 * 0.4,
                (i % 7) as f32 * 0.1,
            )
        })
        .collect()
}

/// The headline regression: a negative radius must not behave like its
/// absolute value. This test fails on the pre-guard code (where `-0.7`
/// returned every neighbor `+0.7` finds) in all three modes and all
/// front-ends.
#[test]
fn negative_radius_regression_all_modes() {
    let cloud = lane_cloud(600);
    let tree = Trees::build(&cloud);
    let query = cloud[111];
    let radius = 0.7f32;

    for mode in MODES {
        // Sanity: the positive radius finds several neighbors.
        let (positive, _) = instrumented_search(&tree, mode, query, radius);
        assert!(positive.len() > 1, "{mode:?}: +r found {}", positive.len());

        // Instrumented path.
        let (negative, stats) = instrumented_search(&tree, mode, query, -radius);
        assert!(
            negative.is_empty(),
            "{mode:?}: radius -{radius} returned {} neighbors (the +r set?)",
            negative.len()
        );
        assert_eq!(stats, SearchStats::default(), "{mode:?}: -r did work");

        // Engine: search_one, search_batch, search_batch_parallel.
        let engine = engine_for(&tree, mode);
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        engine.search_one(query, -radius, &mut scratch, &mut out, &mut stats);
        assert!(out.is_empty(), "{mode:?}: engine search_one");
        assert_eq!(stats, SearchStats::default());

        let mut batch = QueryBatch::new();
        engine.search_batch(&cloud[..64], -radius, &mut batch);
        assert_eq!(batch.num_queries(), 64);
        assert_eq!(batch.total_matches(), 0, "{mode:?}: engine search_batch");
        assert_eq!(*batch.stats(), SearchStats::default());

        #[cfg(feature = "parallel")]
        {
            engine.search_batch_parallel(&cloud[..64], -radius, &mut batch, 3);
            assert_eq!(batch.num_queries(), 64);
            assert_eq!(batch.total_matches(), 0, "{mode:?}: engine parallel");
        }
    }
}

#[test]
fn non_finite_and_zero_radii_are_empty_all_modes() {
    let cloud = lane_cloud(300);
    let tree = Trees::build(&cloud);
    for mode in MODES {
        for r in [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let (hits, stats) = instrumented_search(&tree, mode, cloud[5], r);
            assert!(hits.is_empty(), "{mode:?} radius {r}");
            assert_eq!(stats, SearchStats::default(), "{mode:?} radius {r}");
        }
    }
}

#[test]
fn degenerate_radii_are_empty_through_the_router() {
    let cloud = lane_cloud(400);
    for shards in [1, 4] {
        let router = ShardRouter::bonsai(
            &cloud,
            KdTreeConfig::default(),
            ShardConfig::with_shards(shards),
        );
        for r in [0.0f32, -0.7, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut batch = QueryBatch::new();
            router.snapshot().search_batch(&cloud[..32], r, &mut batch);
            assert_eq!(batch.num_queries(), 32);
            assert_eq!(batch.total_matches(), 0, "K={shards} radius {r}");
            assert_eq!(
                *batch.stats(),
                SearchStats::default(),
                "K={shards} radius {r}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Non-finite query centers (this repo's PR 5 bugfix).
// ---------------------------------------------------------------------

const NON_FINITE_QUERIES: [Point3; 4] = [
    Point3::new(f32::NAN, 0.0, 0.0),
    Point3::new(0.0, f32::INFINITY, 0.0),
    Point3::new(0.0, 0.0, f32::NEG_INFINITY),
    Point3::new(f32::NAN, f32::INFINITY, f32::NAN),
];

/// The query-center regression: NaN/±∞ centers must return empty
/// results with zero traversal work through every single-tree front-end
/// (instrumented, fast engine, batched). This test fails on the
/// pre-guard code: radius search traversed silently, and `knn` returned
/// `k` garbage neighbors with NaN `dist_sq` because `heap.len() < k`
/// admitted whatever the first leaves held.
#[test]
fn non_finite_query_centers_are_empty_all_modes() {
    let cloud = lane_cloud(400);
    let mut sim = SimEngine::disabled();
    let tree = Trees::build(&cloud);
    let mut scratch = SearchScratch::new();
    let mut out = Vec::new();
    for q in NON_FINITE_QUERIES {
        for mode in MODES {
            let (hits, stats) = instrumented_search(&tree, mode, q, 1.0);
            assert!(hits.is_empty(), "{mode:?} query {q:?}");
            assert_eq!(stats, SearchStats::default(), "{mode:?} query {q:?}");

            let engine = engine_for(&tree, mode);
            let mut stats = SearchStats::default();
            engine.search_one(q, 1.0, &mut scratch, &mut out, &mut stats);
            assert!(out.is_empty(), "{mode:?} engine query {q:?}");
            assert_eq!(stats, SearchStats::default(), "{mode:?} engine query {q:?}");
        }
        // kNN: the worst offender pre-guard.
        assert!(
            tree.bonsai.kd_tree().knn(&mut sim, q, 7).is_empty(),
            "knn found neighbors at {q:?}"
        );
        assert!(tree.bonsai.kd_tree().nearest(&mut sim, q).is_none());
    }
    // Batched: one empty result range per query, zero aggregate stats.
    for mode in MODES {
        let engine = engine_for(&tree, mode);
        let mut batch = QueryBatch::new();
        engine.search_batch(&NON_FINITE_QUERIES, 1.0, &mut batch);
        assert_eq!(batch.num_queries(), NON_FINITE_QUERIES.len());
        assert_eq!(batch.total_matches(), 0, "{mode:?}");
        assert_eq!(*batch.stats(), SearchStats::default(), "{mode:?}");
    }
}

/// The sharded twin: the router must reject non-finite centers before
/// the AABB walk (NaN makes every `intersects_ball` false, ±∞ makes the
/// box distance arithmetic NaN — either way it could diverge from the
/// single-tree engine without the shared guard).
#[test]
fn non_finite_query_centers_are_empty_through_the_router() {
    let cloud = lane_cloud(400);
    for shards in [1, 4] {
        let router = ShardRouter::bonsai(
            &cloud,
            KdTreeConfig::default(),
            ShardConfig::with_shards(shards),
        );
        let mut batch = QueryBatch::new();
        router
            .snapshot()
            .search_batch(&NON_FINITE_QUERIES, 1.0, &mut batch);
        assert_eq!(batch.num_queries(), NON_FINITE_QUERIES.len());
        assert_eq!(batch.total_matches(), 0, "K={shards}");
        assert_eq!(*batch.stats(), SearchStats::default(), "K={shards}");
    }
}

// ---------------------------------------------------------------------
// Degenerate clouds.
// ---------------------------------------------------------------------

#[test]
fn all_identical_points_pin_every_mode() {
    let p = Point3::new(12.345, -6.789, 1.5);
    let cloud = vec![p; 100];
    // Within radius: everything; the f16 approximation of a point is
    // the same for all copies, so every mode must return all 100.
    pin_all_modes(&cloud, p, 0.5, "identical in-radius");
    // Query offset past the radius: nothing.
    pin_all_modes(&cloud, p + Point3::new(2.0, 0.0, 0.0), 0.5, "identical out");
    // Query exactly at distance ~r: membership still pinned to brute
    // force in every mode (the shell recomputes boundary cases).
    pin_all_modes(
        &cloud,
        p + Point3::new(0.5, 0.0, 0.0),
        0.5,
        "identical boundary",
    );
}

#[test]
fn coincident_duplicates_pin_every_mode() {
    // Three duplicate sites embedded in a regular lattice.
    let mut cloud = lane_cloud(200);
    let dup_a = Point3::new(3.0, 3.0, 0.3);
    let dup_b = Point3::new(7.0, 1.0, 0.0);
    for _ in 0..17 {
        cloud.push(dup_a);
    }
    for _ in 0..23 {
        cloud.push(dup_b);
    }
    for (q, r, label) in [
        (dup_a, 0.01, "tight around dup A"),
        (dup_a, 1.0, "wide around dup A"),
        (dup_b, 0.01, "tight around dup B"),
        (Point3::new(5.0, 2.0, 0.1), 3.0, "covering both sites"),
    ] {
        pin_all_modes(&cloud, q, r, label);
    }
}

#[test]
fn single_point_cloud_pins_every_mode() {
    let p = Point3::new(-4.2, 8.8, 0.9);
    let cloud = vec![p];
    pin_all_modes(&cloud, p, 0.1, "single hit");
    pin_all_modes(&cloud, p + Point3::new(1.0, 1.0, 0.0), 0.5, "single miss");
    pin_all_modes(
        &cloud,
        p + Point3::new(0.3, 0.4, 0.0),
        0.5,
        "single boundary",
    );
}

/// Coordinates beyond binary16's finite range (±65504). The f16 rows
/// hold halves relative to each leaf's origin, so a leaf of nearby
/// points 66 km out stays finite; an f16 half saturates to ±∞ only when
/// a leaf's *extent* overflows binary16 — the 1e20 point sharing a leaf
/// with ordinary points. The error-bound LUT returns ∞ for exponent
/// field 31, so every such point must take the exact-recompute
/// fallback — membership stays pinned to the `f32` brute force.
#[test]
fn f16_saturating_coordinates_pin_every_mode() {
    let mut cloud = vec![
        Point3::new(66_000.0, 0.0, 0.0),
        Point3::new(66_010.0, 0.0, 0.0),
        Point3::new(66_000.0, 12.0, 0.0),
        Point3::new(-66_000.0, 0.0, 0.0),
        Point3::new(-66_000.0, -12.0, 0.0),
        Point3::new(65_504.0, 0.0, 0.0),  // largest finite f16
        Point3::new(65_520.0, 0.0, 0.0),  // rounds to ∞
        Point3::new(1.0e20, 1.0e20, 0.0), // deep overflow
    ];
    // Plus some well-behaved points so the tree has mixed leaves.
    cloud.extend(lane_cloud(50));

    for (q, r, label) in [
        (Point3::new(66_000.0, 0.0, 0.0), 15.0, "hits both saturated"),
        (Point3::new(66_000.0, 0.0, 0.0), 5.0, "hits one saturated"),
        (
            Point3::new(-66_000.0, 0.0, 0.0),
            20.0,
            "negative saturation",
        ),
        (Point3::new(65_504.0, 0.0, 0.0), 20.0, "finite-f16 boundary"),
        (Point3::new(0.0, 0.0, 0.0), 10.0, "normal region untouched"),
        (Point3::new(1.0e20, 1.0e20, 0.0), 1.0, "deep-overflow site"),
    ] {
        pin_all_modes(&cloud, q, r, label);
    }

    // A leaf whose extent overflows f16 really does exercise the
    // fallback: one leaf holding the 1e20 point and eight ordinary
    // ones, searched near the ordinary ones, must recompute at least
    // one point.
    let mut mixed = vec![Point3::new(1.0e20, 1.0e20, 0.0)];
    mixed.extend(lane_cloud(8));
    pin_all_modes(&mixed, Point3::ZERO, 1.0, "overflowing leaf extent");
    let tree = Trees::build(&mixed);
    assert_eq!(tree.bonsai.kd_tree().build_stats().num_leaves, 1);
    let (_, stats) = instrumented_search(&tree, TreeMode::Bonsai, Point3::ZERO, 1.0);
    assert!(
        stats.fallbacks > 0,
        "saturation did not hit the shell fallback"
    );
}

/// A radius whose square overflows `f32` (`r = 2e19`, `r² = ∞`) reaches
/// every point but the NaN ones, ±∞ included, through both walkers —
/// the instrumented search and the fast engine — in every mode and for
/// every leaf size. The walkers' incremental far-cell distance
/// `min_dist_sq − side + cut` is `∞ − ∞ = NaN` after two infinite cuts
/// on one axis; comparing that NaN `≤ r²` used to prune the far cell
/// and lose its points (at leaf size 1, `(+∞, 0, 0)` went missing).
#[test]
fn overflowing_radius_reaches_every_non_nan_point() {
    let mut cloud: Vec<Point3> = (0..40)
        .map(|i| {
            Point3::new(
                (i % 7) as f32 * 0.11,
                (i / 7) as f32 * 0.13,
                (i % 3) as f32 * 0.2,
            )
        })
        .collect();
    for (k, p) in [
        Point3::new(f32::NAN, 0.0, 0.0),
        Point3::new(f32::INFINITY, 0.0, 0.0),
        Point3::new(f32::NEG_INFINITY, 0.1, 0.0),
        Point3::new(0.0, f32::INFINITY, 0.0),
        Point3::new(0.2, 0.2, f32::NAN),
        Point3::new(f32::INFINITY, f32::INFINITY, f32::INFINITY),
    ]
    .into_iter()
    .enumerate()
    {
        cloud.insert(k * 7, p);
    }
    let radius = 2e19f32;
    assert_eq!(radius * radius, f32::INFINITY);
    let expect: Vec<u32> = (0..cloud.len() as u32)
        .filter(|&i| !cloud[i as usize].to_array().iter().any(|c| c.is_nan()))
        .collect();
    let mut scratch = SearchScratch::new();
    let mut out = Vec::new();
    for leaf in [1, 2, 5, 15] {
        let cfg = KdTreeConfig {
            max_leaf_points: leaf,
            ..KdTreeConfig::default()
        };
        let trees = Trees::build_with(&cloud, cfg);
        for query in cloud.iter().copied().filter(|p| p.is_finite()) {
            assert_eq!(brute_force(&cloud, query, radius), expect);
            for mode in MODES {
                let ctx = format!("{mode:?}, leaf {leaf}, query {query:?}");
                let (slow, _) = instrumented_search(&trees, mode, query, radius);
                assert_eq!(sorted_indices(&slow), expect, "{ctx}: instrumented");
                let mut stats = SearchStats::default();
                engine_for(&trees, mode).search_one(
                    query,
                    radius,
                    &mut scratch,
                    &mut out,
                    &mut stats,
                );
                assert_eq!(out, slow, "{ctx}: engine vs instrumented");
            }
        }
    }
}

/// Degenerate clouds through the router with more shards than distinct
/// coordinates: median-cut over identical points must still terminate
/// and partition cleanly.
#[test]
fn identical_points_shard_cleanly() {
    let p = Point3::new(1.0, 2.0, 3.0);
    let cloud = vec![p; 64];
    for shards in [1, 4, 64, 200] {
        let router = ShardRouter::bonsai(
            &cloud,
            KdTreeConfig::default(),
            ShardConfig::with_shards(shards),
        );
        assert_eq!(router.num_points(), 64);
        assert_eq!(router.shard_sizes().sum::<usize>(), 64);
        let mut batch = QueryBatch::new();
        router.snapshot().search_batch(&[p], 0.25, &mut batch);
        assert_eq!(batch.results(0).len(), 64, "K={shards}");
        // Canonical order: ascending global index.
        let idx: Vec<u32> = batch.results(0).iter().map(|n| n.index).collect();
        assert_eq!(idx, (0..64).collect::<Vec<u32>>(), "K={shards}");
    }
}

// ---------------------------------------------------------------------------
// Degenerate mutations (the incremental-update guards).
// ---------------------------------------------------------------------------

/// Non-finite inserts are rejected by every mutation entry point —
/// tree, compressed tree, and router — without growing any state.
#[test]
fn non_finite_inserts_are_rejected_everywhere() {
    let cloud = lane_cloud(200);
    let mut sim = SimEngine::disabled();
    let mut tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let mut router =
        ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(3));
    for p in [
        Point3::new(f32::NAN, 0.0, 0.0),
        Point3::new(0.0, f32::INFINITY, 0.0),
        Point3::new(0.0, 0.0, f32::NEG_INFINITY),
        Point3::new(f32::NAN, f32::NAN, f32::NAN),
    ] {
        assert!(tree.insert(&mut sim, p).is_none(), "{p:?} into tree");
        assert!(router.insert(p).is_none(), "{p:?} into router");
    }
    assert!(
        !tree.has_pending_rebake(),
        "rejected inserts dirtied leaves"
    );
    assert_eq!(tree.kd_tree().points().len(), 200);
    assert_eq!(router.num_points(), 200);
    // The accepted path still works afterwards.
    let idx = tree.insert(&mut sim, Point3::new(0.5, 0.5, 0.5)).unwrap();
    tree.commit(&mut sim);
    assert_eq!(idx, 200);
}

/// Deleting a nonexistent index is a no-op with zero traversal: no
/// simulated events, no stats, no dirty leaves.
#[test]
fn nonexistent_deletes_are_no_ops_with_zero_traversal() {
    let cloud = lane_cloud(150);
    let mut sim = SimEngine::new(&kd_bonsai::sim::CpuConfig::a72_like());
    let mut tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let before = sim.totals().micro_ops();
    assert!(!tree.delete(&mut sim, 150), "out-of-range index");
    assert!(!tree.delete(&mut sim, u32::MAX));
    assert_eq!(sim.totals().micro_ops(), before, "no-op delete did work");
    assert!(!tree.has_pending_rebake());

    assert!(tree.delete(&mut sim, 3), "live index deletes");
    assert!(
        !tree.delete(&mut sim, 3),
        "second delete of the same index is a no-op"
    );
    tree.commit(&mut sim);

    let mut router =
        ShardRouter::baseline(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
    assert!(!router.delete(150));
    assert!(router.delete(7));
    assert!(!router.delete(7));
    assert_eq!(router.num_points(), 149);
}

/// Updating an empty tree behaves like a build: the same searches
/// succeed, all three modes stay pinned to each other, and the
/// compressed state is fully baked.
#[test]
fn update_on_empty_tree_behaves_like_build() {
    let cloud = lane_cloud(120);
    let mut sim = SimEngine::disabled();
    let mut grown = BonsaiTree::build(Vec::new(), KdTreeConfig::default(), &mut sim);
    let inserted = grown.update(&mut sim, &cloud, &[]);
    assert_eq!(inserted, (0..120).collect::<Vec<u32>>());
    assert!(!grown.has_pending_rebake());

    let built = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    // The inserts took indices 0..120, so the baseline tree over the
    // cloud indexes the same points.
    let base_tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    for (qi, &q) in cloud.iter().step_by(11).enumerate() {
        for r in [0.05f32, 0.8, 5.0] {
            let got = sorted_indices(&grown.radius_search_simple(q, r));
            let expect = sorted_indices(&built.radius_search_simple(q, r));
            assert_eq!(got, expect, "query {qi} r {r}");
            let base = sorted_indices(&base_tree.radius_search_simple(q, r));
            assert_eq!(got, base, "query {qi} r {r}: modes diverge");
        }
    }

    // Degenerate radii stay rejected on a grown tree too.
    for r in [0.0f32, -1.0, f32::NAN, f32::INFINITY] {
        assert!(
            grown.radius_search_simple(cloud[0], r).is_empty(),
            "radius {r}"
        );
    }

    // The empty-router twin: point-by-point growth from nothing.
    let mut router = ShardRouter::bonsai(&[], KdTreeConfig::default(), ShardConfig::with_shards(3));
    let ids = router.apply_update(&cloud, &[]);
    assert_eq!(ids.len(), 120);
    let mut scratch = SearchScratch::new();
    let mut out = Vec::new();
    let mut stats = SearchStats::default();
    router.search_one(cloud[60], 0.8, &mut scratch, &mut out, &mut stats);
    let expect = {
        let mut v = built.radius_search_simple(cloud[60], 0.8);
        v.sort_unstable_by_key(|n| n.index);
        v
    };
    assert_eq!(out, expect, "router grown from empty diverges");
}

/// Deleting every point, then inserting again: the hollowed-out tree
/// keeps every mode consistent and the compressed directory clean.
#[test]
fn full_deletion_then_reinsertion_stays_consistent() {
    let cloud = lane_cloud(90);
    let mut sim = SimEngine::disabled();
    let mut tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let mut base = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let removed: Vec<u32> = (0..90).collect();
    tree.update(&mut sim, &[], &removed);
    for &idx in &removed {
        base.delete(&mut sim, idx);
    }
    assert_eq!(tree.kd_tree().num_live(), 0);
    for r in [0.5f32, 100.0] {
        assert!(tree.radius_search_simple(cloud[0], r).is_empty());
        assert!(base.radius_search_simple(cloud[0], r).is_empty());
    }
    let p = Point3::new(2.0, 2.0, 0.5);
    let idx = tree.update(&mut sim, &[p], &[])[0];
    let hits = tree.radius_search_simple(p, 0.1);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].index, idx);
}
