//! Property tests for the batch radius-search engine: for every tree
//! mode (Baseline / Bonsai / SoftwareCodec), answering a query set
//! through `RadiusSearchEngine::search_batch` — sequentially or across
//! threads — returns results permutation-identical to the seed-style
//! per-query searches through the instrumented `LeafProcessor` paths,
//! and the batch's `SearchStats` equal the sum of the per-query stats.

use kd_bonsai::cluster::TreeMode;
use kd_bonsai::core::{BonsaiTree, RadiusSearchEngine, SoftwareCodecProcessor};
use kd_bonsai::geom::Point3;
use kd_bonsai::isa::Machine;
use kd_bonsai::kdtree::{
    BaselineLeafProcessor, KdTree, KdTreeConfig, Neighbor, QueryBatch, SearchStats,
};
use kd_bonsai::sim::SimEngine;
use proptest::prelude::*;

fn arb_cloud(max: usize) -> impl Strategy<Value = Vec<Point3>> {
    prop::collection::vec(
        (-60.0f32..60.0, -60.0f32..60.0, -3.0f32..3.0).prop_map(|(x, y, z)| Point3::new(x, y, z)),
        2..max,
    )
}

fn sorted(mut hits: Vec<Neighbor>) -> Vec<(u32, f32)> {
    hits.sort_unstable_by_key(|n| n.index);
    hits.into_iter().map(|n| (n.index, n.dist_sq)).collect()
}

/// Per-query reference: the instrumented search path of `mode` with a
/// disabled simulator, exactly as the seed issued queries. Baseline
/// mode searches `base`, the f32-row tree of the same points.
fn per_query_reference(
    tree: &BonsaiTree,
    base: &KdTree,
    mode: TreeMode,
    queries: &[Point3],
    radius: f32,
) -> (Vec<Vec<Neighbor>>, SearchStats) {
    let mut sim = SimEngine::disabled();
    let mut machine = Machine::new();
    let mut software = SoftwareCodecProcessor::new(&mut sim, tree.directory());
    let mut baseline = BaselineLeafProcessor::new(&mut sim, base);
    let mut total = SearchStats::default();
    let mut results = Vec::with_capacity(queries.len());
    for &q in queries {
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        match mode {
            TreeMode::Baseline => {
                base.radius_search(&mut sim, &mut baseline, q, radius, &mut out, &mut stats)
            }
            TreeMode::Bonsai => {
                tree.radius_search(&mut sim, &mut machine, q, radius, &mut out, &mut stats)
            }
            TreeMode::SoftwareCodec => tree.kd_tree().radius_search(
                &mut sim,
                &mut software,
                q,
                radius,
                &mut out,
                &mut stats,
            ),
        }
        total += stats;
        results.push(out);
    }
    (results, total)
}

fn engine_for<'t>(
    tree: &'t BonsaiTree,
    base: &'t KdTree,
    mode: TreeMode,
) -> RadiusSearchEngine<'t> {
    match mode {
        TreeMode::Baseline => RadiusSearchEngine::baseline(base),
        TreeMode::Bonsai => RadiusSearchEngine::bonsai(tree),
        TreeMode::SoftwareCodec => RadiusSearchEngine::bonsai(tree),
    }
}

const MODES: [TreeMode; 3] = [
    TreeMode::Baseline,
    TreeMode::Bonsai,
    TreeMode::SoftwareCodec,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Batched results are permutation-identical to per-query results
    /// and batch stats equal the per-query sum, for every mode.
    #[test]
    fn batched_equals_per_query_all_modes(
        cloud in arb_cloud(250),
        radius in 0.05f32..10.0,
        leaf in 2usize..=16,
        stride in 1usize..5,
    ) {
        let cfg = KdTreeConfig { max_leaf_points: leaf, ..KdTreeConfig::default() };
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(cloud.clone(), cfg, &mut sim);
        let base = KdTree::build(cloud.clone(), cfg, &mut sim);
        let queries: Vec<Point3> = cloud.iter().step_by(stride).copied().collect();

        for mode in MODES {
            let (reference, ref_stats) = per_query_reference(&tree, &base, mode, &queries, radius);
            let engine = engine_for(&tree, &base, mode);
            let mut batch = QueryBatch::new();
            engine.search_batch(&queries, radius, &mut batch);
            prop_assert_eq!(batch.num_queries(), queries.len());
            for (i, expect) in reference.iter().enumerate() {
                prop_assert_eq!(
                    sorted(batch.results(i).to_vec()),
                    sorted(expect.clone()),
                    "{:?} query {}", mode, i
                );
            }
            prop_assert_eq!(*batch.stats(), ref_stats, "{:?} stats", mode);
        }
    }

    /// The parallel fan-out changes nothing: same per-query results,
    /// same aggregate stats, for both engine modes and every thread
    /// count.
    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_batches_equal_sequential_all_modes(
        cloud in arb_cloud(200),
        radius in 0.05f32..8.0,
        threads in 2usize..=5,
    ) {
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let base = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);

        for mode in [TreeMode::Baseline, TreeMode::Bonsai] {
            let engine = engine_for(&tree, &base, mode);
            let mut sequential = QueryBatch::new();
            engine.search_batch(&cloud, radius, &mut sequential);
            let mut parallel = QueryBatch::new();
            engine.search_batch_parallel(&cloud, radius, &mut parallel, threads);
            prop_assert_eq!(parallel.num_queries(), sequential.num_queries());
            for i in 0..sequential.num_queries() {
                prop_assert_eq!(
                    parallel.results(i),
                    sequential.results(i),
                    "{:?} query {} with {} threads", mode, i, threads
                );
            }
            prop_assert_eq!(parallel.stats(), sequential.stats(), "{:?} stats", mode);
        }
    }
}
