//! Criterion micro-benchmarks of the NDT layer: a warm
//! `NdtMatcher::align` of one paper-drive scan against a map of drive
//! frames, in both search modes, and one Newton iteration's neighbour
//! gathering (`RadiusSearchEngine::search_batch` over the same centroid
//! tree) on its own.
//!
//! `align` runs a fixed budget of `ITERATIONS` Newton iterations, so
//! `align / ITERATIONS − search_batch` is the per-iteration objective
//! math (score, gradient, Hessian and the 6×6 solve): the
//! search/objective split of Fig. 2, measured on the host.
//!
//! ```sh
//! cargo bench --bench ndt_align
//! ```

use bonsai_cluster::filters;
use bonsai_core::{BonsaiTree, RadiusSearchEngine};
use bonsai_geom::{Point3, Pose};
use bonsai_kdtree::{KdTree, KdTreeConfig, QueryBatch};
use bonsai_lidar::{DrivingSequence, SequenceConfig};
use bonsai_ndt::{NdtConfig, NdtMap, NdtMatcher, NdtSearchMode};
use bonsai_sim::SimEngine;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

/// NDT voxel resolution and neighbour search radius, meters.
const RESOLUTION: f32 = 2.0;
/// Newton iterations per alignment: a fixed budget (epsilon 0 never
/// converges early), so every timed alignment does the same work.
const ITERATIONS: u32 = 10;
/// Every `SCAN_STRIDE`-th scan point is matched.
const SCAN_STRIDE: usize = 8;
/// Map frames, `FRAME_STEP` apart; the scan lies halfway between the
/// first two.
const MAP_FRAMES: usize = 8;
const FRAME_STEP: usize = 4;

/// The map cloud (world frame, 0.4 m voxel grid), the scan (vehicle
/// frame, cropped, 0.3 m voxel grid, ground kept) and an
/// odometry-quality guess.
fn problem() -> (Vec<Point3>, Vec<Point3>, Pose) {
    let seq = DrivingSequence::new(SequenceConfig::paper_drive());
    let mut sim = SimEngine::disabled();
    let mut world = Vec::new();
    for k in 0..MAP_FRAMES {
        let i = k * FRAME_STEP;
        let pose = seq.pose(i);
        world.extend(seq.frame(i).into_iter().map(|p| pose.apply(p)));
    }
    let map_cloud = filters::voxel_downsample(&mut sim, &world, 0.4);
    let i = FRAME_STEP + FRAME_STEP / 2;
    let cropped = filters::crop(&mut sim, &seq.frame(i), 60.0, -0.5, 6.0);
    let scan = filters::voxel_downsample(&mut sim, &cropped, 0.3);
    let truth = seq.pose(i);
    let guess = Pose::from_translation_euler(
        truth.translation + Point3::new(0.05, -0.2, 0.03),
        0.0,
        0.0,
        truth.euler()[2] + 0.02,
    );
    (map_cloud, scan, guess)
}

fn bench_ndt_align(c: &mut Criterion) {
    let (map_cloud, scan, guess) = problem();
    let cfg = NdtConfig {
        max_iterations: ITERATIONS,
        epsilon: 0.0,
        scan_stride: SCAN_STRIDE,
        ..NdtConfig::default()
    };
    let mut sim = SimEngine::disabled();
    let map = NdtMap::build(&mut sim, &map_cloud, RESOLUTION);
    // The first iteration's queries: the scan at the guess.
    let xs: Vec<Point3> = scan
        .iter()
        .step_by(SCAN_STRIDE)
        .map(|&p| guess.apply(p))
        .collect();
    // Trees of the same shape as the matcher's.
    let base_tree = KdTree::build(map.centroids(), KdTreeConfig::default(), &mut sim);
    let bonsai_tree = BonsaiTree::build(map.centroids(), KdTreeConfig::default(), &mut sim);

    let mut group = c.benchmark_group("ndt_align");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (name, mode) in [
        ("baseline", NdtSearchMode::Baseline),
        ("bonsai", NdtSearchMode::Bonsai),
    ] {
        let mut matcher = NdtMatcher::new(&mut sim, map.clone(), cfg.clone(), mode);
        // Warm: the matcher's buffers grow on the first alignment.
        assert_eq!(
            matcher.align(&mut sim, &scan, &guess).iterations,
            ITERATIONS
        );
        group.throughput(Throughput::Elements(
            xs.len() as u64 * u64::from(ITERATIONS),
        ));
        group.bench_function(format!("align_{name}"), |b| {
            b.iter(|| matcher.align(&mut sim, &scan, &guess).score)
        });

        let engine = match mode {
            NdtSearchMode::Baseline => RadiusSearchEngine::baseline(&base_tree),
            NdtSearchMode::Bonsai => RadiusSearchEngine::bonsai(&bonsai_tree),
        };
        let mut batch = QueryBatch::new();
        engine.search_batch(&xs, RESOLUTION, &mut batch);
        group.throughput(Throughput::Elements(xs.len() as u64));
        group.bench_function(format!("search_batch_{name}"), |b| {
            b.iter(|| {
                engine.search_batch(&xs, RESOLUTION, &mut batch);
                batch.stats().points_inspected
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ndt_align);
criterion_main!(benches);
