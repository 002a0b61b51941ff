//! `ndt_localize`: `NdtMatcher::align` of drive scans against an NDT
//! map built from earlier drive frames, from perturbed odometry
//! guesses, closed loop — the only workload on the instrumented
//! per-query walker.

use std::time::{Duration, Instant};

use kd_bonsai::cluster::filters;
use kd_bonsai::core::{BonsaiLeafProcessor, BonsaiTree};
use kd_bonsai::geom::{Point3, Pose};
use kd_bonsai::isa::Machine;
use kd_bonsai::kdtree::{KdTreeConfig, SearchScratch, SearchStats};
use kd_bonsai::lidar::{DrivingSequence, SequenceConfig};
use kd_bonsai::ndt::{AlignResult, NdtConfig, NdtMap, NdtMatcher, NdtSearchMode};
use kd_bonsai::sim::SimEngine;

use crate::calib::Calibration;
use crate::trace::{self, Tracer};
use crate::{
    calibrated_setup, closed_loop_metrics, heap_held, mean_ms, timed, whole_passes, Report, Rng,
    RunConfig,
};

/// Mapped stretches of the route: the drive is cut into this many equal
/// strata and one stretch is mapped in each at its own seed-chosen
/// offset, so every seed localizes along the whole route.
const REGIONS: usize = 16;
/// The seed-chosen offset stays within this share of a stratum. Cost
/// depends on where along the route a stretch lies (compressed search
/// falls back more often far from the origin), so offsets spread over
/// whole strata made seeds differ in cost, not just in their draws.
const OFFSET_SHARE: usize = 10;
/// Frames between consecutive map frames of a stretch.
const FRAME_STEP: usize = 4;
/// Drive frames accumulated into the map per stretch.
const MAP_FRAMES: usize = 8;
/// Scans localized per stretch, each between two map frames.
const SCANS: usize = 4;
/// Perturbed guesses per scan.
const GUESSES: usize = 1;
/// Every `SCAN_STRIDE`-th scan point is matched: at 8 an alignment
/// takes ~50–80 ms on a 2-core x86-64 host, so a 30 s run holds a dozen
/// whole passes over the pairs.
const SCAN_STRIDE: usize = 8;
/// Newton iterations per alignment. A fixed budget (Autoware caps at
/// 30) makes each alignment's work depend on the scan, not on whether
/// its random guess happens to converge early: with the cap at 30,
/// alignments ran 9 to 30 iterations and seeds differed by 25 % in
/// median cost. At 10 nearly every alignment uses the whole budget.
const MAX_ITERATIONS: u32 = 10;
/// NDT voxel resolution (also the neighbour search radius), meters.
const RESOLUTION: f32 = 2.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// The localization problem one run cycles through.
struct Inputs {
    /// Map cloud in world coordinates, voxel-filtered.
    map_cloud: Vec<Point3>,
    /// `(scan, guess)` pairs: vehicle-frame scans (cropped and
    /// voxel-filtered, with ground) and odometry-quality initial poses.
    pairs: Vec<(Vec<Point3>, Pose)>,
}

/// Generates the map cloud and alignment problems for `seed`.
fn inputs(seed: u64) -> Inputs {
    let seq = DrivingSequence::new(SequenceConfig::paper_drive());
    let mut rng = Rng::new(seed, 3);
    let stride = seq.num_frames() / REGIONS;
    let mut sim = SimEngine::disabled();
    let mut world = Vec::new();
    let mut pairs = Vec::with_capacity(REGIONS * SCANS * GUESSES);
    for r in 0..REGIONS {
        let start = r * stride + rng.below((stride / OFFSET_SHARE) as u64) as usize;
        for k in 0..MAP_FRAMES {
            let i = start + k * FRAME_STEP;
            let pose = seq.pose(i);
            world.extend(seq.frame(i).into_iter().map(|p| pose.apply(p)));
        }
        for k in 0..SCANS {
            // Halfway between two map frames, inside the stretch.
            let i = start + (2 * k + 1) * FRAME_STEP + FRAME_STEP / 2;
            let truth = seq.pose(i);
            let cropped = filters::crop(&mut sim, &seq.frame(i), 60.0, -0.5, 6.0);
            let scan = filters::voxel_downsample(&mut sim, &cropped, 0.3);
            for _ in 0..GUESSES {
                // Odometry-quality error: decimetres of translation,
                // about a degree of heading.
                let guess = Pose::from_translation_euler(
                    truth.translation
                        + Point3::new(0.05 * rng.normal(), 0.2 * rng.normal(), 0.03 * rng.normal()),
                    0.0,
                    0.0,
                    truth.euler()[2] + 0.02 * f64::from(rng.normal()),
                );
                pairs.push((scan.clone(), guess));
            }
        }
    }
    let map_cloud = filters::voxel_downsample(&mut sim, &world, 0.4);
    Inputs { map_cloud, pairs }
}

fn config() -> NdtConfig {
    NdtConfig {
        scan_stride: SCAN_STRIDE,
        max_iterations: MAX_ITERATIONS,
        ..NdtConfig::default()
    }
}

fn matcher(map_cloud: &[Point3], mode: NdtSearchMode) -> NdtMatcher {
    let mut sim = SimEngine::disabled();
    let map = NdtMap::build(&mut sim, map_cloud, RESOLUTION);
    NdtMatcher::new(&mut sim, map, config(), mode)
}

/// The compressed alignment reproduces the baseline one bit for bit.
fn matches(got: &AlignResult, want: &AlignResult) -> bool {
    got.pose == want.pose && got.iterations == want.iterations && got.converged == want.converged
}

/// Baseline results for every pair, each aligned inside a span.
fn references(tr: &Tracer, inputs: &Inputs) -> Vec<AlignResult> {
    let mut m = matcher(&inputs.map_cloud, NdtSearchMode::Baseline);
    let mut sim = SimEngine::disabled();
    inputs
        .pairs
        .iter()
        .map(|(scan, guess)| tr.span("ndt.align.baseline", || m.align(&mut sim, scan, guess)))
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let inputs = inputs(cfg.seed);
    let refs = references(&Tracer::disabled(), &inputs);
    let mut report = Report::new();

    // Set-up: NDT map build plus matcher start (the centroid tree).
    let (setup_s, _) = calibrated_setup(&Calibration::new(), SETUP_REPS, || {
        matcher(&inputs.map_cloud, NdtSearchMode::Bonsai)
    });
    let mut sim = SimEngine::disabled();
    let map = NdtMap::build(&mut sim, &inputs.map_cloud, RESOLUTION);
    // The matcher's index: the compressed tree over the cell centroids,
    // whose point array is allocated inside the measured closure.
    let cells = map.centroids().len();
    let (tree, held) =
        heap_held(|| BonsaiTree::build(map.centroids(), KdTreeConfig::default(), &mut sim));
    drop(tree);
    let mut m = NdtMatcher::new(&mut sim, map, config(), NdtSearchMode::Bonsai);

    let (passes, _) = align_loop(
        &Tracer::disabled(),
        &mut m,
        &inputs,
        &refs,
        cfg.window(),
        &mut report,
    );

    report.metric("setup_s", setup_s, "s");
    closed_loop_metrics(&mut report, &passes, 0.90)?;
    report.metric("index_bytes_per_point", held as f64 / cells as f64, "B/pt");
    Ok(report)
}

/// Whole passes over the pairs until `budget` is spent, traced or not,
/// checking every alignment; returns each alignment's latency (ms) by
/// pass, and every result.
fn align_loop(
    tr: &Tracer,
    m: &mut NdtMatcher,
    inputs: &Inputs,
    refs: &[AlignResult],
    budget: Duration,
    report: &mut Report,
) -> (Vec<Vec<f64>>, Vec<AlignResult>) {
    let mut sim = SimEngine::disabled();
    let mut results = Vec::new();
    let cal = Calibration::new();
    let passes = whole_passes(inputs.pairs.len(), budget, &cal, |k| {
        let (scan, guess) = &inputs.pairs[k];
        tr.set_request(results.len() as u64);
        let t = Instant::now();
        let r = tr.span("ndt.align", || m.align(&mut sim, scan, guess));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if !matches(&r, &refs[k]) {
            eprintln!("ndt_localize: alignment {k} diverged from baseline");
            report.correct = false;
        }
        results.push(r);
        ms
    });
    report.attempted += results.len() as u64;
    (passes, results)
}

/// The traced pass: spans around every alignment (compressed and
/// baseline), then a replay of one iteration's searches at each final
/// pose through the same instrumented walker the matcher uses.
pub fn traced(
    cfg: &RunConfig,
    tr: &Tracer,
    budget: Duration,
    overhead: bool,
) -> Result<(Report, Vec<trace::Span>), String> {
    let inputs = inputs(cfg.seed);
    let refs = references(tr, &inputs);
    let mut report = Report::new();
    let mut m = matcher(&inputs.map_cloud, NdtSearchMode::Bonsai);
    let results = if overhead {
        let (plain, _) = align_loop(
            &Tracer::disabled(),
            &mut m,
            &inputs,
            &refs,
            budget,
            &mut report,
        );
        let (traced, results) = align_loop(tr, &mut m, &inputs, &refs, budget, &mut report);
        report.metric(
            "trace.overhead_frac",
            mean_ms(&traced) / mean_ms(&plain) - 1.0,
            "ratio",
        );
        results
    } else {
        align_loop(tr, &mut m, &inputs, &refs, budget, &mut report).1
    };

    // Replay: the matcher's per-iteration neighbour searches at the
    // final pose, through its own tree shape and leaf processor.
    let mut sim = SimEngine::disabled();
    let map = NdtMap::build(&mut sim, &inputs.map_cloud, RESOLUTION);
    let tree = BonsaiTree::build(map.centroids(), KdTreeConfig::default(), &mut sim);
    let mut machine = Machine::new();
    let mut proc = BonsaiLeafProcessor::new(tree.directory(), &mut machine);
    let (mut scratch, mut out) = (SearchScratch::new(), Vec::new());
    let mut search_x_iters_s = 0.0;
    for (k, (scan, _)) in inputs.pairs.iter().enumerate() {
        let pose = refs[k].pose;
        let mut st = SearchStats::default();
        tr.set_request(k as u64);
        let (_, s) = timed(|| {
            tr.span("ndt.replay.iteration_searches", || {
                for p in scan.iter().step_by(SCAN_STRIDE) {
                    let x = pose.apply(*p);
                    tree.kd_tree().radius_search_scratch(
                        &mut sim,
                        &mut proc,
                        x,
                        RESOLUTION,
                        &mut out,
                        &mut st,
                        &mut scratch,
                    );
                }
            })
        });
        search_x_iters_s += s * f64::from(refs[k].iterations);
    }

    let spans = tr.take();
    let align = trace::totals(&spans, "ndt.align");
    let base = trace::totals(&spans, "ndt.align.baseline");
    let n = results.len() as f64;
    let iters: f64 = results.iter().map(|r| f64::from(r.iterations)).sum();
    let st = results
        .iter()
        .fold(SearchStats::default(), |a, r| a + r.search_stats);
    report.metric("ndt.iters_per_align", iters / n, "count");
    report.metric(
        "ndt.points_per_align",
        st.points_inspected as f64 / n,
        "count",
    );
    report.metric("ndt.fallback_frac", st.fallback_ratio(), "ratio");
    // One pass over the pairs took Σ align / passes; the replay covers
    // exactly one pass.
    let passes = n / inputs.pairs.len() as f64;
    report.metric(
        "ndt.search_share",
        search_x_iters_s / (align.total_ns as f64 / 1e9 / passes),
        "ratio",
    );
    report.metric(
        "ndt.bonsai_over_baseline",
        align.mean_ms() / base.mean_ms(),
        "ratio",
    );
    Ok((report, spans))
}
