//! Criterion micro-benchmarks of the leaf-sweep kernels: the scalar
//! reference loop vs. the kernel the runtime-detected backend selects
//! for each sweep (`RadiusSearchEngine::sweep_kernel`; an AVX-512 host
//! runs the 16-lane compressed kernel and the AVX2 baseline kernel),
//! for the baseline `f32` sweep and the compressed (f16 + error-shell)
//! sweep, over the visit lists real queries produce on the 20k-point
//! urban cloud (collected once up front, so only the sweep kernel is
//! timed). Each row id names the kernel it ran (`bonsai_simd_avx512`).
//! Throughput is points inspected per iteration; the backend
//! comparison runs inside one binary through the process-wide scalar
//! override.

use bonsai_bench::workload::{
    batch_queries, collect_sweep_sets, urban_cloud, BATCH_CLOUD, SWEEP_RADIUS,
};
use bonsai_core::{BonsaiTree, RadiusSearchEngine};
use bonsai_kdtree::{simd, KdTree, KdTreeConfig, SearchStats};
use bonsai_sim::SimEngine;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_leaf_sweep(c: &mut Criterion) {
    let cloud = urban_cloud(BATCH_CLOUD);
    let mut sim = SimEngine::disabled();
    let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    // The baseline sweep reads the f32 rows of a KdTree over the same
    // points (same shape, so the visit lists serve both).
    let base_tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let queries = batch_queries(&cloud, 32);
    let (sweep_sets, sweep_points) = collect_sweep_sets(tree.kd_tree(), &queries, SWEEP_RADIUS);

    let mut group = c.benchmark_group("leaf_sweep");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.throughput(Throughput::Elements(sweep_points));

    let ov = simd::scalar_override();
    for (mode, baseline) in [("baseline", true), ("bonsai", false)] {
        let engine = if baseline {
            RadiusSearchEngine::baseline(&base_tree)
        } else {
            RadiusSearchEngine::bonsai(&tree)
        };
        let kernel = engine.sweep_kernel();
        for (label, force_scalar) in [
            ("scalar".to_string(), true),
            (format!("simd_{kernel}"), false),
        ] {
            ov.set(force_scalar);
            group.bench_function(format!("{mode}_{label}"), |b| {
                let mut out = Vec::new();
                let mut stats = SearchStats::default();
                b.iter(|| {
                    let mut total = 0usize;
                    for (q, visited) in queries.iter().zip(&sweep_sets) {
                        out.clear();
                        engine.sweep_visited(visited, *q, SWEEP_RADIUS, &mut out, &mut stats);
                        total += out.len();
                    }
                    total
                })
            });
        }
        ov.set(false);
    }
    drop(ov);
    group.finish();
}

criterion_group!(benches, bench_leaf_sweep);
criterion_main!(benches);
