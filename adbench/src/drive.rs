//! `drive_cluster`: Autoware euclidean clustering, rebuild per frame
//! (`FramePipeline::run`), closed loop, one frame at a time, over short
//! runs of consecutive frames sampled along the whole paper drive.

use std::time::Instant;

use kd_bonsai::cluster::{ClusterParams, FramePipeline, StreamingExtractor, TreeMode};
use kd_bonsai::core::{BonsaiTree, RadiusSearchEngine};
use kd_bonsai::geom::{Aabb, Point3};
use kd_bonsai::kdtree::{simd, KdTree, QueryBatch, SearchStats};
use kd_bonsai::lidar::{DrivingSequence, SequenceConfig};
use kd_bonsai::sim::SimEngine;

use crate::calib::Calibration;
use crate::trace::{self, Tracer};
use crate::{
    alloc, calibrated_setup, closed_loop_metrics, heap_held, mean_ms, stats, timed, whole_passes,
    Report, Rng, RunConfig,
};

/// Frames sampled per run: the route is cut into this many equal strata
/// and one frame is taken from each at its own seed-chosen offset, so
/// every seed sees the whole route.
const STRATA: usize = 128;
/// The seed-chosen offset stays within this share of a stratum. Frame
/// cost depends on the scene, and with offsets spread over whole strata
/// seeds differed by 10 % in mean frame cost, which measured the draw
/// rather than the program.
const OFFSET_SHARE: usize = 4;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Consecutive frames replayed through the streaming ingest.
const STREAM_FRAMES: usize = 6;

/// The raw sensor frames one run cycles through.
struct Inputs {
    /// Raw vehicle-frame clouds, stratum after stratum.
    raw: Vec<Vec<Point3>>,
    seq: DrivingSequence,
    offset: usize,
}

/// Generates the frame pool for `seed` (never timed).
fn inputs(seed: u64) -> Inputs {
    let seq = DrivingSequence::new(SequenceConfig::paper_drive());
    let stride = seq.num_frames() / STRATA;
    let mut rng = Rng::new(seed, 1);
    let offsets: Vec<usize> = (0..STRATA)
        .map(|_| rng.below((stride / OFFSET_SHARE) as u64) as usize)
        .collect();
    let raw = offsets
        .iter()
        .enumerate()
        .map(|(s, &o)| seq.frame(s * stride + o))
        .collect();
    Inputs {
        raw,
        seq,
        offset: offsets[0],
    }
}

/// Baseline-mode output of one frame: what the compressed run must
/// reproduce exactly.
struct Reference {
    clusters: Vec<Vec<u32>>,
    boxes: Vec<Aabb>,
}

fn references(pipeline: &FramePipeline, raw: &[Vec<Point3>]) -> Vec<Reference> {
    let mut sim = SimEngine::disabled();
    raw.iter()
        .map(|f| {
            let r = pipeline.run(&mut sim, f, TreeMode::Baseline);
            Reference {
                clusters: r.output.clusters,
                boxes: r.boxes,
            }
        })
        .collect()
}

fn matches(r: &kd_bonsai::cluster::FrameResult, want: &Reference) -> bool {
    r.output.clusters == want.clusters && r.boxes == want.boxes
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let inputs = inputs(cfg.seed);
    let params = ClusterParams::default();
    let pipeline = FramePipeline::new(params.clone());
    let refs = references(&pipeline, &inputs.raw);
    let mut report = Report::new();
    let mut sim = SimEngine::disabled();

    // Set-up: a fresh pipeline through its first output frame.
    let (setup_s, first) = calibrated_setup(&Calibration::new(), SETUP_REPS, || {
        FramePipeline::new(params.clone()).run(&mut sim, &inputs.raw[0], TreeMode::Bonsai)
    });
    report.correct &= matches(&first, &refs[0]);

    // Heap held by the per-frame index, over every frame of the pool.
    // The point array the tree keeps is allocated inside the measured
    // closure, so it is counted.
    let (mut bytes, mut points) = (0i64, 0usize);
    for raw in &inputs.raw {
        let prepared = pipeline.preprocess(&mut sim, raw);
        points += prepared.len();
        let (tree, held) = heap_held(|| BonsaiTree::build(prepared.clone(), params.tree, &mut sim));
        bytes += held;
        drop(tree);
    }

    let passes = frame_loop(
        &Tracer::disabled(),
        &pipeline,
        &inputs,
        &refs,
        cfg.window(),
        &mut report,
    );

    report.metric("setup_s", setup_s, "s");
    closed_loop_metrics(&mut report, &passes, 0.90)?;
    report.metric(
        "index_bytes_per_point",
        bytes as f64 / points as f64,
        "B/pt",
    );
    Ok(report)
}

/// Whole passes over the frame pool until `budget` is spent, traced or
/// not, checking every output; returns each frame's latency (ms) by
/// pass. A frame is `FramePipeline::run`'s two public stages, so each
/// gets its span; `run` also walks the raw cloud for the simulator's
/// ROS-conversion model, which records nothing with a disabled
/// simulator.
fn frame_loop(
    tr: &Tracer,
    pipeline: &FramePipeline,
    inputs: &Inputs,
    refs: &[Reference],
    budget: std::time::Duration,
    report: &mut Report,
) -> Vec<Vec<f64>> {
    let mut sim = SimEngine::disabled();
    let mut n = 0u64;
    let cal = Calibration::new();
    let passes = whole_passes(inputs.raw.len(), budget, &cal, |k| {
        tr.set_request(n);
        n += 1;
        let t = Instant::now();
        let r = tr.span("frame", || {
            let prepared = tr.span("filters.preprocess", || {
                pipeline.preprocess(&mut sim, &inputs.raw[k])
            });
            tr.span("extract.cluster_prepared", || {
                pipeline.cluster_prepared(&mut sim, prepared, TreeMode::Bonsai)
            })
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if !matches(&r, &refs[k]) {
            eprintln!("drive_cluster: frame {k} diverged from baseline");
            report.correct = false;
        }
        ms
    });
    report.attempted += n;
    passes
}

/// The traced pass: spans around each layer's public functions on the
/// frame loop, then replays of the build, engine, sweep and streaming
/// layers on the same prepared frames. With `overhead`, an untraced loop
/// of equal length runs first and `trace.overhead_frac` is reported.
pub fn traced(
    cfg: &RunConfig,
    tr: &Tracer,
    budget: std::time::Duration,
    overhead: bool,
) -> Result<(Report, Vec<trace::Span>), String> {
    let inputs = inputs(cfg.seed);
    let params = ClusterParams::default();
    let pipeline = FramePipeline::new(params.clone());
    let refs = references(&pipeline, &inputs.raw);
    let mut report = Report::new();
    let mut sim = SimEngine::disabled();

    let passes = if overhead {
        let off = Tracer::disabled();
        let plain = frame_loop(&off, &pipeline, &inputs, &refs, budget, &mut report);
        let traced = frame_loop(tr, &pipeline, &inputs, &refs, budget, &mut report);
        report.metric(
            "trace.overhead_frac",
            mean_ms(&traced) / mean_ms(&plain) - 1.0,
            "ratio",
        );
        traced
    } else {
        frame_loop(tr, &pipeline, &inputs, &refs, budget, &mut report)
    };
    // How much the host moved identical passes over the same frames.
    let pass_ms: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
    let pass_spread = stats::iqr_frac(&pass_ms).ok_or("too few passes for a spread")?;

    // Replays on the prepared frames.
    let prepared: Vec<Vec<Point3>> = inputs
        .raw
        .iter()
        .map(|f| pipeline.preprocess(&mut sim, f))
        .collect();
    let raw_points: usize = inputs.raw.iter().map(Vec::len).sum();
    let points: usize = prepared.iter().map(Vec::len).sum();
    let (mut slots, mut resident, mut heap) = (0usize, 0u64, 0i64);
    let (mut ratio_sum, mut base_search_s, mut bonsai_search_s) = (0.0, 0.0, 0.0);
    let mut stats_sum = SearchStats::default();
    let (mut matches_sum, mut queries, mut allocs) = (0usize, 0usize, 0u64);
    let (mut sweep_points, mut simd_s, mut scalar_s) = (0u64, 0.0, 0.0);
    let ov = simd::scalar_override();
    for (k, pts) in prepared.iter().enumerate() {
        tr.set_request(k as u64);
        let kd = tr.span("build.kdtree", || {
            KdTree::build(pts.clone(), params.tree, &mut sim)
        });
        let (bonsai, held) = heap_held(|| {
            tr.span("build.bonsai", || {
                BonsaiTree::build(pts.clone(), params.tree, &mut sim)
            })
        });
        slots += bonsai.kd_tree().vind().len();
        resident += bonsai.resident_bytes();
        heap += held;
        ratio_sum += bonsai.compression_stats().compression_ratio();

        // The BFS's exact query set: every prepared point at the
        // cluster tolerance.
        let qs = bonsai.kd_tree().points();
        let tol = params.tolerance;
        let base = RadiusSearchEngine::baseline(&kd);
        let comp = RadiusSearchEngine::bonsai(&bonsai);
        let mut batch = QueryBatch::new();
        let mut want = QueryBatch::new();
        base.search_batch(qs, tol, &mut want); // warm
        let (_, s) = timed(|| {
            tr.span("engine.search_batch.baseline", || {
                base.search_batch(qs, tol, &mut want)
            })
        });
        base_search_s += s;
        comp.search_batch(qs, tol, &mut batch); // warm
        let (a0, _) = alloc::thread_counts();
        let (_, s) = timed(|| {
            tr.span("engine.search_batch.bonsai", || {
                comp.search_batch(qs, tol, &mut batch)
            })
        });
        allocs += alloc::thread_counts().0 - a0;
        bonsai_search_s += s;
        // Membership and order are exact; compressed mode reports
        // `dist_sq` from its approximate coordinates, so indices are
        // what must match.
        let ids =
            |b: &QueryBatch, q: usize| b.results(q).iter().map(|n| n.index).collect::<Vec<_>>();
        for q in 0..qs.len() {
            if ids(&batch, q) != ids(&want, q) {
                eprintln!("drive_cluster replay: frame {k} query {q} diverged from baseline");
                report.correct = false;
                break;
            }
        }
        stats_sum += *batch.stats();
        matches_sum += batch.total_matches();
        queries += qs.len();

        // Leaf sweeps over pre-collected visit lists of the same queries.
        let mut scratch = kd_bonsai::kdtree::SearchScratch::new();
        let mut st = SearchStats::default();
        let visits: Vec<Vec<simd::LeafVisit>> = qs
            .iter()
            .map(|&q| {
                let mut v = Vec::new();
                bonsai
                    .kd_tree()
                    .collect_leaves_in_radius(q, tol, &mut scratch, &mut st, &mut v);
                v
            })
            .collect();
        sweep_points += visits
            .iter()
            .flatten()
            .map(|&(_, _, c)| u64::from(c))
            .sum::<u64>();
        let mut out = Vec::new();
        for (force_scalar, acc, name) in [
            (false, &mut simd_s, "sweep.visited"),
            (true, &mut scalar_s, "sweep.visited.scalar"),
        ] {
            ov.set(force_scalar);
            let (_, s) = timed(|| {
                tr.span(name, || {
                    for (q, v) in qs.iter().zip(&visits) {
                        out.clear();
                        comp.sweep_visited(v, *q, tol, &mut out, &mut st);
                    }
                })
            });
            *acc += s;
        }
        ov.set(false);
    }
    drop(ov);

    // Streaming ingest: consecutive frames through one persistent
    // extractor, every point churning (frames are in vehicle
    // coordinates). The first frame builds and is not counted.
    let consecutive: Vec<Vec<Point3>> = (0..STREAM_FRAMES)
        .map(|k| pipeline.preprocess(&mut sim, &inputs.seq.frame(inputs.offset + k)))
        .collect();
    let mut ex = StreamingExtractor::new(TreeMode::Bonsai, params.tree, params.shards.max(1));
    ex.ingest_frame(&consecutive[0]);
    let (mut churn, mut churn_base) = (0usize, 0usize);
    for (k, next) in consecutive.iter().enumerate().skip(1) {
        churn += ex.diff(next).churn();
        churn_base += ex.num_live() + next.len();
        tr.set_request(k as u64);
        tr.span("stream.ingest_frame", || ex.ingest_frame(next));
    }

    let spans = tr.take();
    let frames = trace::totals(&spans, "frame");
    let pre = trace::totals(&spans, "filters.preprocess");
    let ext = trace::totals(&spans, "extract.cluster_prepared");
    let n = prepared.len() as f64;
    let frame_ms = frames.mean_ms();
    report.metric("host.pass_spread", pass_spread, "ratio");
    // Frame time outside every layer span: what the per-layer breakdown
    // does not account for.
    report.metric(
        "trace.uncovered_frac",
        frames.self_ns as f64 / frames.total_ns as f64,
        "ratio",
    );
    report.metric("filters.preprocess_ms", pre.mean_ms(), "ms");
    report.metric(
        "filters.keep_frac",
        points as f64 / raw_points as f64,
        "ratio",
    );
    report.metric("extract.ms", ext.mean_ms(), "ms");
    report.metric(
        "cluster.search_share",
        bonsai_search_s * 1e3 / n / frame_ms,
        "ratio",
    );
    report.metric(
        "build.kdtree_ms",
        trace::totals(&spans, "build.kdtree").mean_ms(),
        "ms",
    );
    report.metric(
        "build.bonsai_ms",
        trace::totals(&spans, "build.bonsai").mean_ms(),
        "ms",
    );
    report.metric(
        "build.slots_per_point",
        slots as f64 / points as f64,
        "slots/pt",
    );
    report.metric("compress.ratio", ratio_sum / n, "ratio");
    report.metric(
        "tree.resident_bytes_per_point",
        resident as f64 / points as f64,
        "B/pt",
    );
    report.metric(
        "tree.accounting_gap",
        (heap as f64 - resident as f64) / points as f64,
        "B/pt",
    );
    let q = queries as f64;
    report.metric("engine.ns_per_query", bonsai_search_s * 1e9 / q, "ns");
    report.metric(
        "engine.bonsai_over_baseline",
        bonsai_search_s / base_search_s,
        "ratio",
    );
    report.metric("engine.allocs_per_query", allocs as f64 / q, "count");
    report.metric(
        "search.nodes_per_query",
        stats_sum.nodes_visited as f64 / q,
        "count",
    );
    report.metric(
        "search.leaf_visits_per_query",
        stats_sum.leaf_visits as f64 / q,
        "count",
    );
    report.metric(
        "search.points_per_query",
        stats_sum.points_inspected as f64 / q,
        "count",
    );
    report.metric(
        "search.hit_frac",
        matches_sum as f64 / stats_sum.points_inspected.max(1) as f64,
        "ratio",
    );
    report.metric("search.fallback_frac", stats_sum.fallback_ratio(), "ratio");
    report.metric(
        "search.point_bytes_per_query",
        stats_sum.point_bytes_loaded as f64 / q,
        "B",
    );
    report.metric("sweep.points_per_s", sweep_points as f64 / simd_s, "1/s");
    report.metric(
        "sweep.scalar_points_per_s",
        sweep_points as f64 / scalar_s,
        "1/s",
    );
    report.metric(
        "stream.ingest_ms",
        trace::totals(&spans, "stream.ingest_frame").mean_ms(),
        "ms",
    );
    report.metric(
        "stream.churn_frac",
        churn as f64 / churn_base as f64,
        "ratio",
    );
    Ok((report, spans))
}
