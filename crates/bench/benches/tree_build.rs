//! Criterion micro-benchmarks of tree construction: plain k-d tree vs
//! Bonsai (tree + leaf compression), across cloud sizes; and the
//! passes of a paper-drive frame: each preprocessing filter (crop,
//! voxel grid, ground removal) and all three together, the sequential
//! and the one-worker parts f16 build, and the whole cluster extraction
//! (build + self-join).

use bonsai_cluster::filters;
use bonsai_cluster::{extract_euclidean_clusters_batched, ClusterParams, FramePipeline, TreeMode};
use bonsai_core::BonsaiTree;
use bonsai_geom::Point3;
use bonsai_kdtree::{KdTree, KdTreeConfig};
use bonsai_lidar::{DrivingSequence, SequenceConfig};
use bonsai_sim::SimEngine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn cloud(n: usize) -> Vec<Point3> {
    let mut state = 0xBEEFu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f32 / (1u64 << 53) as f32
    };
    (0..n)
        .map(|_| Point3::new(next() * 120.0 - 60.0, next() * 120.0 - 60.0, next() * 3.0))
        .collect()
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_build");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n in [2_000usize, 10_000, 40_000] {
        let pts = cloud(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("kdtree", n), &pts, |b, pts| {
            b.iter(|| {
                let mut sim = SimEngine::disabled();
                KdTree::build(pts.clone(), KdTreeConfig::default(), &mut sim)
                    .nodes()
                    .len()
            })
        });
        group.bench_with_input(BenchmarkId::new("bonsai", n), &pts, |b, pts| {
            b.iter(|| {
                let mut sim = SimEngine::disabled();
                BonsaiTree::build(pts.clone(), KdTreeConfig::default(), &mut sim)
                    .directory()
                    .total_bytes()
            })
        });
    }
    group.finish();
}

/// Frame 0 of the paper drive: each filter runs over the previous
/// filter's output, the tree is built over the preprocessed cloud, as
/// in `FramePipeline::run`.
fn bench_paper_frame(c: &mut Criterion) {
    let raw = DrivingSequence::new(SequenceConfig::paper_drive()).frame(0);
    let params = ClusterParams::default();
    let mut sim = SimEngine::disabled();
    let crop = |sim: &mut SimEngine| {
        filters::crop(
            sim,
            &raw,
            params.crop_range,
            params.crop_z_min,
            params.crop_z_max,
        )
    };
    let cropped = crop(&mut sim);
    let down = filters::voxel_downsample(&mut sim, &cropped, params.voxel_size);
    // The pipeline keeps its filter buffers across calls, as it does
    // across the frames of a drive.
    let pipeline = FramePipeline::new(params.clone());
    let prepared = pipeline.preprocess(&mut sim, &raw);

    let mut group = c.benchmark_group("paper_frame");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(raw.len() as u64));
    group.bench_function("crop", |b| b.iter(|| crop(&mut sim).len()));
    group.throughput(Throughput::Elements(cropped.len() as u64));
    group.bench_function("voxel_downsample", |b| {
        b.iter(|| filters::voxel_downsample(&mut sim, &cropped, params.voxel_size).len())
    });
    group.throughput(Throughput::Elements(down.len() as u64));
    group.bench_function("remove_ground", |b| {
        b.iter(|| {
            filters::remove_ground(
                &mut sim,
                &down,
                params.ground_threshold,
                params.ground_iterations,
                11,
            )
            .len()
        })
    });
    group.throughput(Throughput::Elements(raw.len() as u64));
    group.bench_function("preprocess", |b| {
        b.iter(|| pipeline.preprocess(&mut sim, &raw).len())
    });
    group.throughput(Throughput::Elements(prepared.len() as u64));
    // The sequential build each drive frame runs: `BonsaiTree::build`
    // with the simulator off (the directory is baked on first use).
    group.bench_function("bonsai_build", |b| {
        b.iter(|| {
            BonsaiTree::build(prepared.clone(), KdTreeConfig::default(), &mut sim)
                .kd_tree()
                .nodes()
                .len()
        })
    });
    // One worker: the split step alone, whatever the host's core count.
    group.bench_function("build_parallel_f16", |b| {
        b.iter(|| {
            KdTree::build_parallel_f16(prepared.clone(), KdTreeConfig::default(), 1)
                .nodes()
                .len()
        })
    });
    // Build, compress and cluster: the whole extraction of a drive
    // frame with the simulator off (the leaf-pair self-join).
    group.bench_function("cluster_extract", |b| {
        b.iter(|| {
            extract_euclidean_clusters_batched(
                prepared.clone(),
                params.tolerance,
                params.min_cluster_size,
                params.max_cluster_size,
                params.tree,
                TreeMode::Bonsai,
            )
            .clusters
            .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_build, bench_paper_frame);
criterion_main!(benches);
