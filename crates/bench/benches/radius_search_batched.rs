//! Criterion micro-benchmarks of the batch radius-search engine: the
//! seed-style per-query path vs. batched vs. batched + threads, on the
//! 20k-point urban cloud (host performance; the acceptance target is
//! ≥ 2× batched throughput over per-query).
//!
//! The `*_traverse` rows time `KdTree::collect_leaves_in_radius` alone
//! over the same queries, so `*_batched` minus `*_traverse` is the
//! leaf-sweep share of a query (the `leaf_sweep` bench times the
//! kernels on their own).

use bonsai_bench::workload::{
    batch_queries, urban_cloud, BATCH_CLOUD, BATCH_QUERIES, BATCH_RADIUS,
};
use bonsai_core::{BonsaiTree, RadiusSearchEngine};
use bonsai_isa::Machine;
use bonsai_kdtree::{KdTree, KdTreeConfig, QueryBatch, SearchScratch, SearchStats};
use bonsai_sim::SimEngine;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

const RADIUS: f32 = BATCH_RADIUS;

fn bench_batched(c: &mut Criterion) {
    let cloud = urban_cloud(BATCH_CLOUD);
    let mut sim = SimEngine::disabled();
    let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    // Baseline searches run on the f32-row tree of the same points.
    let base_tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let queries = batch_queries(&cloud, BATCH_QUERIES);

    let mut group = c.benchmark_group("radius_search_batched");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(BATCH_QUERIES as u64));

    for (name, baseline) in [("baseline", true), ("bonsai", false)] {
        // The seed-shaped path: one independent instrumented-API search
        // per query (fresh result vectors, fresh per-query processor
        // under Bonsai).
        group.bench_function(format!("{name}_per_query"), |b| {
            let mut out = Vec::new();
            let mut machine = Machine::new();
            let mut stats = SearchStats::default();
            b.iter(|| {
                let mut total = 0usize;
                for &q in &queries {
                    if baseline {
                        out = base_tree.radius_search_simple(q, RADIUS);
                    } else {
                        tree.radius_search(&mut sim, &mut machine, q, RADIUS, &mut out, &mut stats);
                    }
                    total += out.len();
                }
                total
            })
        });

        let engine = if baseline {
            RadiusSearchEngine::baseline(&base_tree)
        } else {
            RadiusSearchEngine::bonsai(&tree)
        };
        // The traversal half of the two-phase search on its own.
        group.bench_function(format!("{name}_traverse"), |b| {
            let mut scratch = SearchScratch::new();
            let mut visited = Vec::new();
            let mut stats = SearchStats::default();
            b.iter(|| {
                let mut total = 0usize;
                for &q in &queries {
                    engine.tree().collect_leaves_in_radius(
                        q,
                        RADIUS,
                        &mut scratch,
                        &mut stats,
                        &mut visited,
                    );
                    total += visited.len();
                }
                total
            })
        });

        group.bench_function(format!("{name}_batched"), |b| {
            let mut batch = QueryBatch::new();
            b.iter(|| {
                engine.search_batch(&queries, RADIUS, &mut batch);
                batch.total_matches()
            })
        });

        #[cfg(feature = "parallel")]
        group.bench_function(format!("{name}_batched_parallel"), |b| {
            let mut batch = QueryBatch::new();
            b.iter(|| {
                engine.search_batch_parallel(&queries, RADIUS, &mut batch, 0);
                batch.total_matches()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batched);
criterion_main!(benches);
