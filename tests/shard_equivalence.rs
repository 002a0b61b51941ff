//! Property tests for the sharded multi-tree `ShardRouter`, read
//! through its `RouterSnapshot`: for both engine modes (Baseline /
//! Bonsai), random clouds, radii
//! and shard counts (including K=1 and K larger than the point count),
//! the router's per-query neighbor sets are those of the single-tree
//! `RadiusSearchEngine` (bit-identical `(index, dist_sq)` under
//! baseline; see [`same_hits`] for compression), its aggregated
//! `SearchStats`
//! equal the sum of independently rebuilt per-shard engines over the
//! routed queries, and queries outside every shard's box do no work.

use kd_bonsai::core::shell::check_compressed_hits;
use kd_bonsai::core::{BonsaiTree, EngineMode, RadiusSearchEngine, ShardConfig, ShardRouter};
use kd_bonsai::geom::Point3;
use kd_bonsai::kdtree::{KdTree, KdTreeConfig, Neighbor, QueryBatch, SearchStats};
use kd_bonsai::sim::SimEngine;
use proptest::prelude::*;

fn arb_cloud(max: usize) -> impl Strategy<Value = Vec<Point3>> {
    prop::collection::vec(
        (-60.0f32..60.0, -60.0f32..60.0, -3.0f32..3.0).prop_map(|(x, y, z)| Point3::new(x, y, z)),
        2..max,
    )
}

fn sorted(mut hits: Vec<Neighbor>) -> Vec<Neighbor> {
    hits.sort_unstable_by_key(|n| n.index);
    hits
}

/// One query batch answered by the router and by the single tree, with
/// the origin of the leaf holding each point in either.
struct Answers<'a> {
    router: &'a QueryBatch,
    router_origins: Vec<Point3>,
    single: &'a QueryBatch,
    single_origins: Vec<Point3>,
}

/// Whether the router reproduced the single tree's hits for query `i`
/// (both in ascending index order): the `(index, dist_sq)` bits under
/// baseline. Under compression a conclusive hit reports the `d′²` of
/// its leaf-relative f16 half, which depends on the origin of the leaf
/// holding the point, and shard trees cut the cloud into other leaves:
/// [`check_compressed_hits`] then holds each side to what its own leaf
/// reports, and to bit equality where the two leaves share an origin.
fn same_hits(
    mode: EngineMode,
    answers: &Answers<'_>,
    cloud: &[Point3],
    queries: &[Point3],
    radius: f32,
    i: usize,
) -> Result<(), String> {
    let routed = answers.router.results(i);
    let single = sorted(answers.single.results(i).to_vec());
    match mode {
        EngineMode::Baseline if routed == &single[..] => Ok(()),
        EngineMode::Baseline => Err(format!("{routed:?} vs {single:?}")),
        EngineMode::Compressed => check_compressed_hits(
            queries[i],
            radius,
            cloud,
            routed,
            &answers.router_origins,
            &single,
            &answers.single_origins,
        )
        .map_err(|e| format!("{e:?}")),
    }
}

const MODES: [EngineMode; 2] = [EngineMode::Baseline, EngineMode::Compressed];

/// The single tree a mode searches: a `KdTree` (f32 leaf rows) for
/// baseline, a `BonsaiTree` (f16 leaf rows) for compressed. Both have
/// the same shape, since the build is deterministic.
enum ModeTree {
    Baseline(KdTree),
    Compressed(BonsaiTree),
}

impl ModeTree {
    fn build(cloud: Vec<Point3>, cfg: KdTreeConfig, mode: EngineMode) -> ModeTree {
        let mut sim = SimEngine::disabled();
        match mode {
            EngineMode::Baseline => ModeTree::Baseline(KdTree::build(cloud, cfg, &mut sim)),
            EngineMode::Compressed => ModeTree::Compressed(BonsaiTree::build(cloud, cfg, &mut sim)),
        }
    }

    fn engine(&self) -> RadiusSearchEngine<'_> {
        match self {
            ModeTree::Baseline(tree) => RadiusSearchEngine::baseline(tree),
            ModeTree::Compressed(tree) => RadiusSearchEngine::bonsai(tree),
        }
    }

    fn point_origins(&self) -> Vec<Point3> {
        match self {
            ModeTree::Baseline(tree) => tree.point_origins(),
            ModeTree::Compressed(tree) => tree.kd_tree().point_origins(),
        }
    }
}

fn router_for(cloud: &[Point3], cfg: KdTreeConfig, mode: EngineMode, shards: usize) -> ShardRouter {
    let shard_cfg = ShardConfig::with_shards(shards);
    match mode {
        EngineMode::Baseline => ShardRouter::baseline(cloud, cfg, shard_cfg),
        EngineMode::Compressed => ShardRouter::bonsai(cloud, cfg, shard_cfg),
    }
}

/// In-cloud queries plus probes the cloud cannot reach: points far
/// outside every shard's box must route to zero shards.
fn query_set(cloud: &[Point3], stride: usize) -> Vec<Point3> {
    let mut queries: Vec<Point3> = cloud.iter().step_by(stride).copied().collect();
    queries.push(Point3::new(1.0e4, -1.0e4, 1.0e4));
    queries.push(Point3::new(-1.0e4, 1.0e4, -1.0e4));
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    /// The router's merged, canonically ordered results carry the same
    /// neighbor sets as the single-tree engine ([`same_hits`]), and
    /// its aggregate stats equal the sum of per-shard engines over the
    /// queries routed to each shard.
    #[test]
    fn router_equals_single_tree_engine_all_modes(
        cloud in arb_cloud(220),
        radius in 0.05f32..10.0,
        shards in 1usize..=9,
        leaf in 2usize..=16,
        stride in 1usize..4,
    ) {
        let cfg = KdTreeConfig { max_leaf_points: leaf, ..KdTreeConfig::default() };
        let queries = query_set(&cloud, stride);
        let r_sq = radius * radius;

        for mode in MODES {
            let tree = ModeTree::build(cloud.clone(), cfg, mode);
            let engine = tree.engine();
            let router = router_for(&cloud, cfg, mode, shards);
            prop_assert!(router.num_shards() <= shards);
            prop_assert_eq!(router.num_points(), cloud.len());

            let mut single = QueryBatch::new();
            engine.search_batch(&queries, radius, &mut single);
            let mut sharded = QueryBatch::new();
            router.snapshot().search_batch(&queries, radius, &mut sharded);

            prop_assert_eq!(sharded.num_queries(), single.num_queries());
            let answers = Answers {
                router: &sharded,
                router_origins: router.snapshot().point_origins(),
                single: &single,
                single_origins: tree.point_origins(),
            };
            for i in 0..single.num_queries() {
                let same = same_hits(mode, &answers, &cloud, &queries, radius, i);
                prop_assert!(same.is_ok(), "{:?} K={} query {}: {:?}", mode, shards, i, same);
            }

            // Aggregation: rebuild each shard's engine independently
            // from the advertised shard points and re-route by box
            // intersection; the summed stats must match exactly.
            let mut expect_stats = SearchStats::default();
            for (s, bounds) in router.shard_bounds().enumerate() {
                let shard_cloud: Vec<Point3> =
                    router.shard_points(s).iter().map(|&i| cloud[i as usize]).collect();
                let shard_tree = ModeTree::build(shard_cloud, cfg, mode);
                let shard_engine = shard_tree.engine();
                let routed: Vec<Point3> = queries
                    .iter()
                    .copied()
                    .filter(|&q| bounds.intersects_ball(q, r_sq))
                    .collect();
                let mut batch = QueryBatch::new();
                shard_engine.search_batch(&routed, radius, &mut batch);
                expect_stats += *batch.stats();
            }
            prop_assert_eq!(*sharded.stats(), expect_stats, "{:?} K={} stats", mode, shards);
        }
    }

    /// K=1 over in-cloud queries degenerates to the single-tree engine
    /// exactly: one shard holds the whole cloud in original order, so
    /// even the traversal counters coincide.
    #[test]
    fn single_shard_router_degenerates_to_the_engine(
        cloud in arb_cloud(200),
        radius in 0.05f32..8.0,
    ) {
        let cfg = KdTreeConfig::default();
        for mode in MODES {
            let tree = ModeTree::build(cloud.clone(), cfg, mode);
            let engine = tree.engine();
            let router = router_for(&cloud, cfg, mode, 1);
            prop_assert_eq!(router.num_shards(), 1);

            let mut single = QueryBatch::new();
            engine.search_batch(&cloud, radius, &mut single);
            let mut sharded = QueryBatch::new();
            router.snapshot().search_batch(&cloud, radius, &mut sharded);

            for i in 0..single.num_queries() {
                prop_assert_eq!(
                    sharded.results(i),
                    &sorted(single.results(i).to_vec())[..],
                    "{:?} query {}", mode, i
                );
            }
            // In-cloud query balls always intersect the lone shard's
            // box (they contain the query point itself), so the router
            // performs exactly the single tree's traversal work.
            prop_assert_eq!(sharded.stats(), single.stats(), "{:?} stats", mode);
        }
    }

    /// More shards than points: every shard holds one point, and the
    /// router still reproduces the single-tree engine.
    #[test]
    fn more_shards_than_points_still_exact(
        cloud in arb_cloud(24),
        radius in 0.5f32..60.0,
    ) {
        let cfg = KdTreeConfig::default();
        for mode in MODES {
            let tree = ModeTree::build(cloud.clone(), cfg, mode);
            let engine = tree.engine();
            let router = router_for(&cloud, cfg, mode, 64);
            prop_assert_eq!(router.num_shards(), cloud.len());
            prop_assert!(router.shard_sizes().all(|s| s == 1));

            let mut single = QueryBatch::new();
            engine.search_batch(&cloud, radius, &mut single);
            let mut sharded = QueryBatch::new();
            router.snapshot().search_batch(&cloud, radius, &mut sharded);
            let answers = Answers {
                router: &sharded,
                router_origins: router.snapshot().point_origins(),
                single: &single,
                single_origins: tree.point_origins(),
            };
            for i in 0..single.num_queries() {
                let same = same_hits(mode, &answers, &cloud, &cloud, radius, i);
                prop_assert!(same.is_ok(), "{:?} query {}: {:?}", mode, i, same);
            }
        }
    }

    /// The parallel router fan-out changes nothing: same per-query
    /// results, same aggregate stats, for every mode and thread count.
    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_router_equals_sequential_all_modes(
        cloud in arb_cloud(180),
        radius in 0.05f32..8.0,
        shards in 1usize..=6,
        threads in 2usize..=5,
    ) {
        let cfg = KdTreeConfig::default();
        for mode in MODES {
            let router = router_for(&cloud, cfg, mode, shards);
            let mut sequential = QueryBatch::new();
            router.snapshot().search_batch(&cloud, radius, &mut sequential);
            let mut parallel = QueryBatch::new();
            router.snapshot().search_batch_parallel(&cloud, radius, &mut parallel, threads);
            prop_assert_eq!(parallel.num_queries(), sequential.num_queries());
            for i in 0..sequential.num_queries() {
                prop_assert_eq!(
                    parallel.results(i),
                    sequential.results(i),
                    "{:?} K={} threads={} query {}", mode, shards, threads, i
                );
            }
            prop_assert_eq!(parallel.stats(), sequential.stats(), "{:?} stats", mode);
        }
    }
}
