//! Criterion micro-benchmarks of the radius-search paths (host
//! performance of the library itself; the *simulated* performance
//! comparison is the `fig9_extract_kernel` binary).

use bonsai_bench::workload::{urban_cloud, BATCH_CLOUD};
use bonsai_core::{BonsaiTree, SoftwareCodecProcessor};
use bonsai_isa::Machine;
use bonsai_kdtree::{BaselineLeafProcessor, KdTree, KdTreeConfig, SearchStats};
use bonsai_sim::SimEngine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_radius_search(c: &mut Criterion) {
    let cloud = urban_cloud(BATCH_CLOUD);
    let mut sim = SimEngine::disabled();
    let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    // The baseline scans run on the f32-row tree of the same points.
    let base_tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let mut group = c.benchmark_group("radius_search_per_query");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let radius = 0.8f32;

    group.bench_function("baseline_f32", |b| {
        let mut proc = BaselineLeafProcessor::new(&mut sim, &base_tree);
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        let mut qi = 0;
        b.iter(|| {
            qi = (qi + 97) % cloud.len();
            base_tree.radius_search(&mut sim, &mut proc, cloud[qi], radius, &mut out, &mut stats);
            out.len()
        })
    });

    group.bench_function("bonsai_compressed", |b| {
        let mut machine = Machine::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        let mut qi = 0;
        b.iter(|| {
            qi = (qi + 97) % cloud.len();
            tree.radius_search(
                &mut sim,
                &mut machine,
                cloud[qi],
                radius,
                &mut out,
                &mut stats,
            );
            out.len()
        })
    });

    group.bench_function("software_codec", |b| {
        let mut proc = SoftwareCodecProcessor::new(&mut sim, tree.directory());
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        let mut qi = 0;
        b.iter(|| {
            qi = (qi + 97) % cloud.len();
            tree.kd_tree()
                .radius_search(&mut sim, &mut proc, cloud[qi], radius, &mut out, &mut stats);
            out.len()
        })
    });
    group.finish();

    // Instrumentation overhead: the same search with the full cache/
    // branch simulation enabled.
    let mut group = c.benchmark_group("instrumentation_overhead");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for enabled in [false, true] {
        group.bench_with_input(
            BenchmarkId::new(
                "baseline_search",
                if enabled { "simulated" } else { "functional" },
            ),
            &enabled,
            |b, &enabled| {
                let mut sim = if enabled {
                    SimEngine::new(&bonsai_sim::CpuConfig::a72_like())
                } else {
                    SimEngine::disabled()
                };
                let mut proc = BaselineLeafProcessor::new(&mut sim, &base_tree);
                let mut out = Vec::new();
                let mut stats = SearchStats::default();
                let mut qi = 0;
                b.iter(|| {
                    qi = (qi + 97) % cloud.len();
                    base_tree.radius_search(
                        &mut sim, &mut proc, cloud[qi], radius, &mut out, &mut stats,
                    );
                    out.len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_radius_search);
criterion_main!(benches);
