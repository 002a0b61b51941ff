//! `map_serve`: open-loop radius queries through `bonsai_serve::Server`
//! over a 32-shard compressed `RouterSnapshot` of a ≈2 M-point map,
//! while the ingest side edits the map at 10 Hz (delete and re-insert a
//! few hundred points near the ego, `commit`, `compact_next`,
//! `snapshot`, `publish`). Every served answer is checked against a
//! baseline-mode router replayed to the epoch that served it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kd_bonsai::core::{
    BonsaiTree, CompactionPolicy, EpochPublisher, RadiusSearchEngine, RouterSnapshot, ShardConfig,
    ShardRouter,
};
use kd_bonsai::geom::Point3;
use kd_bonsai::kdtree::{KdTreeConfig, Neighbor, QueryBatch, SearchScratch, SearchStats};
use kd_bonsai::serve::{ServeConfig, Server, Ticket};
use kd_bonsai::sim::SimEngine;

use crate::calib::Calibration;
use crate::loadgen::{self, Next, Timing};
use crate::trace::{self, Span, Tracer};
use crate::{alloc, calibrated_setup, heap_held, pct, stats, timed, Report, Rng, RunConfig};

/// Points in the map.
const MAP_POINTS: usize = 2_000_000;
/// Spatial shards of the served router. Every edit copies each shard it
/// touches while readers pin the previous epoch; at 8 shards that was a
/// 250 k-point shard (~230 MB allocated) per tick, and under host
/// contention the copies stalled serving for 10–100 % of requests, so
/// no latency gate held steady. 32 shards copy a quarter as much.
const SHARDS: usize = 32;
/// Query radius, meters.
const RADIUS: f32 = 0.8;
/// Structure lanes of the map along x (4 m pitch, 2 m wide).
const LANES: usize = 100;
/// Standard deviation of queries around the ego, meters.
const SKEW_STD: f32 = 8.0;
/// Ego speed along the map, m/s.
const EGO_SPEED: f32 = 14.0;
/// Open-loop rate at which latency is reported, requests/s.
const NOMINAL_RATE: u64 = 10_000;
/// Latency limit a served request should meet, milliseconds; the
/// traced run reports the share of requests over it.
const SLO_MS: f64 = 1.0;
/// Requests kept in flight by the saturation step that measures
/// throughput (a quarter of the shipped queue capacity).
const SATURATION_WINDOW: u64 = 256;
/// Requests in flight past which an open-loop step holds back sends:
/// below the shipped queue capacity (1024), so a stall shows as latency
/// and never as refused requests. Held-back arrivals keep their
/// scheduled times and are sent once the backlog drains, so a stall
/// bills every request behind it.
const MAX_IN_FLIGHT: u64 = 768;
/// Untimed serving before the measured steps: first-touch page faults
/// and the first copy-on-write edits land here.
const WARMUP_S: f64 = 1.0;
/// Length of one window of the nominal-rate step and of one saturation
/// step, seconds. Each is calibrated on its own (see [`crate::calib`]),
/// so it must be short beside the host's drift, yet span a few edit
/// ticks.
const WINDOW_S: f64 = 0.5;
/// Calibration slices the load generator runs before and after every
/// window and step, while nothing is in flight.
const CAL_SLICES: usize = 12;
/// Map edits per second.
const EDIT_HZ: u64 = 10;
/// Points deleted and re-inserted per edit tick.
const EDIT_POINTS: usize = 256;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Every n-th request gets a `serve.submit` span in the traced run.
const SUBMIT_SPAN_EVERY: u64 = 16;

/// x of the ego at time `t` (seconds) for a run starting at `x0`: it
/// drives along the map and wraps at its ends.
fn ego(x0: f32, t: f32) -> Point3 {
    let half = (LANES * 2) as f32 - 10.0;
    let x = (x0 + half + EGO_SPEED * t).rem_euclid(2.0 * half) - half;
    Point3::new(x, 20.0 * (0.05 * x).sin(), 0.0)
}

/// The map and the edit state for `seed` (never timed).
struct Inputs {
    /// The map cloud; global index = position.
    map: Vec<Point3>,
    /// Ego start x.
    x0: f32,
    seed: u64,
}

/// Generates the map for `seed`: structure lanes along x with
/// LiDAR-plausible spreads in y and z.
fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 2);
    let map = (0..MAP_POINTS)
        .map(|_| {
            let lane = rng.below(LANES as u64) as f32;
            Point3::new(
                (lane - (LANES / 2) as f32) * 4.0 + rng.unit() * 2.0,
                (rng.unit() - 0.5) * 100.0,
                rng.unit() * 2.5,
            )
        })
        .collect();
    let x0 = (rng.unit() - 0.5) * (LANES * 4) as f32;
    Inputs { map, x0, seed }
}

/// `n` queries of a `rate` schedule starting `t0` seconds into the run:
/// Gaussian around the drifting ego in x/y, uniform in z.
fn queries(inputs: &Inputs, phase: u64, t0: f32, rate: u64, n: usize) -> Vec<Point3> {
    let mut rng = Rng::new(inputs.seed, 100 + phase);
    (0..n)
        .map(|k| {
            let e = ego(inputs.x0, t0 + k as f32 / rate as f32);
            Point3::new(
                e.x + rng.normal() * SKEW_STD,
                e.y + rng.normal() * SKEW_STD,
                rng.unit() * 2.5,
            )
        })
        .collect()
}

/// Deterministic map edits: tick `j` deletes [`EDIT_POINTS`] live points
/// of the lane nearest the ego and re-inserts them slightly moved.
/// Applying the same ticks to a baseline and a compressed router yields
/// the same global indices, which is what lets the baseline replay
/// check served answers.
struct Editor {
    lanes: Vec<Vec<(u32, Point3)>>,
    cursors: Vec<usize>,
    x0: f32,
    seed: u64,
}

impl Editor {
    fn new(inputs: &Inputs) -> Editor {
        let mut lanes = vec![Vec::new(); LANES];
        for (g, p) in inputs.map.iter().enumerate() {
            lanes[lane_of(p.x)].push((g as u32, *p));
        }
        Editor {
            lanes,
            cursors: vec![0; LANES],
            x0: inputs.x0,
            seed: inputs.seed,
        }
    }

    /// Applies tick `j`'s deletes and inserts to `router` (no commit).
    fn apply(&mut self, j: u64, router: &mut ShardRouter) -> Result<(), String> {
        let e = ego(self.x0, j as f32 / EDIT_HZ as f32);
        let lane = lane_of(e.x);
        let entries = &mut self.lanes[lane];
        let mut rng = Rng::new(self.seed ^ j, 7);
        let len = entries.len();
        for step in 0..EDIT_POINTS.min(len) {
            let slot = (self.cursors[lane] + step) % len;
            let (g, p) = entries[slot];
            if !router.delete(g) {
                return Err(format!("edit tick {j}: live point {g} not deleted"));
            }
            let moved = Point3::new(
                p.x + 0.02 * rng.normal(),
                p.y + 0.02 * rng.normal(),
                p.z + 0.02 * rng.normal(),
            );
            let ng = router
                .insert(moved)
                .ok_or_else(|| format!("edit tick {j}: finite insert refused"))?;
            entries[slot] = (ng, moved);
        }
        self.cursors[lane] = (self.cursors[lane] + EDIT_POINTS) % len.max(1);
        Ok(())
    }
}

fn lane_of(x: f32) -> usize {
    ((x / 4.0).floor() + (LANES / 2) as f32).clamp(0.0, (LANES - 1) as f32) as usize
}

fn build_router(map: &[Point3], bonsai: bool) -> ShardRouter {
    let cfg = ShardConfig::with_shards(SHARDS);
    if bonsai {
        ShardRouter::bonsai(map, KdTreeConfig::default(), cfg)
    } else {
        ShardRouter::baseline(map, KdTreeConfig::default(), cfg)
    }
}

/// FNV-1a over the hits' indices, in order: served answers are kept as
/// hashes, so a whole run's answers fit in memory. Distances are left
/// out: compressed mode reports `dist_sq` from its approximate
/// coordinates, while membership and order are exact.
fn answer_hash(hits: &[Neighbor]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for n in hits {
        h ^= u64::from(n.index);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One load step of the schedule.
struct Phase {
    /// Open-loop arrivals per second; `None` keeps
    /// [`SATURATION_WINDOW`] requests in flight instead (closed loop).
    rate: Option<u64>,
    seconds: f64,
    traced: bool,
}

impl Phase {
    fn open(rate: u64, seconds: f64, traced: bool) -> Phase {
        Phase {
            rate: Some(rate),
            seconds,
            traced,
        }
    }
}

/// One answered request.
struct Served {
    phase: usize,
    query: u32,
    timing: Timing,
    epoch: u64,
    hash: u64,
}

/// Outcome of one load step.
struct StepResult {
    /// Requests refused at admission.
    refused: u64,
    /// Requests submitted.
    submitted: u64,
    /// From the step's start until its last answer, seconds.
    seconds: f64,
}

/// Admitted requests awaiting their answers, oldest first: the single
/// executor answers in admission order, so polling the front suffices.
#[derive(Default)]
struct InFlight {
    queue: VecDeque<(usize, u32, u64, u64, Ticket)>,
    served: Vec<Served>,
    errors: u64,
}

impl InFlight {
    /// Takes every answer already produced, stamping it done now.
    fn poll(&mut self, origin: Instant) {
        while let Some(outcome) = self.queue.front().and_then(|f| f.4.try_take()) {
            let done_ns = origin.elapsed().as_nanos() as u64;
            let Some((phase, query, scheduled_ns, sent_ns, _)) = self.queue.pop_front() else {
                break;
            };
            match outcome {
                Ok(r) => self.served.push(Served {
                    phase,
                    query,
                    timing: Timing {
                        scheduled_ns,
                        sent_ns,
                        done_ns,
                    },
                    epoch: r.epoch,
                    hash: answer_hash(&r.neighbors),
                }),
                Err(_) => self.errors += 1,
            }
        }
    }
}

/// Per-tick ingest record.
#[derive(Default, Clone, Copy)]
struct Tick {
    total_ms: f64,
    cow_bytes: u64,
    lag: u64,
}

/// Everything one serving session produced.
struct Session {
    steps: Vec<StepResult>,
    /// Per phase: the host slowdown the calibration blocks before and
    /// after it showed (their mean).
    slowdown: Vec<f64>,
    served: Vec<Served>,
    ticks: Vec<Tick>,
    failed: u64,
    router: ShardRouter,
    pacer_spans: Vec<Span>,
    ingest_spans: Vec<Span>,
    metrics: kd_bonsai::serve::ServeMetrics,
}

/// Runs the phases against `server` while the ingest thread edits
/// `router` at [`EDIT_HZ`], publishing every tick through `publisher`.
/// With `trace_thread`, the ingest thread records spans as that thread
/// id and traced phases record submit spans as the next one.
#[allow(clippy::too_many_arguments)]
fn session(
    inputs: &Inputs,
    phases: &[Phase],
    streams: &[Vec<Point3>],
    router: ShardRouter,
    publisher: &Arc<EpochPublisher<RouterSnapshot>>,
    server: Server<RouterSnapshot>,
    origin: Instant,
    trace_thread: Option<u32>,
) -> Result<Session, String> {
    let stop = AtomicBool::new(false);
    let mut steps = Vec::new();
    let mut failed = 0u64;
    let pacer_tr = match trace_thread {
        Some(t) => Tracer::new(origin, t + 1),
        None => Tracer::disabled(),
    };
    let off = Tracer::disabled();
    let mut fl = InFlight::default();
    let cal = Calibration::new();
    let mut blocks = Vec::with_capacity(phases.len() + 1);

    let ingest = std::thread::scope(|s| {
        let ingest = s.spawn(|| {
            let mut router = router;
            let mut editor = Editor::new(inputs);
            let tr = match trace_thread {
                Some(t) => Tracer::new(origin, t),
                None => Tracer::disabled(),
            };
            let policy = CompactionPolicy::default();
            let mut ticks = Vec::new();
            let start = Instant::now();
            for j in 1u64.. {
                loadgen::sleep_until(start + Duration::from_millis(j * 1000 / EDIT_HZ));
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                tr.set_request(j);
                let lag = publisher.epoch_lag();
                let t = Instant::now();
                let (_, b0) = alloc::thread_counts();
                tr.span("ingest.apply", || editor.apply(j, &mut router))?;
                tr.span("ingest.commit", || router.commit());
                let (_, b1) = alloc::thread_counts();
                tr.span("ingest.compact", || router.compact_next(&policy));
                tr.span("ingest.publish", || {
                    let snap = tr.span("router.snapshot", || router.snapshot());
                    tr.span("epoch.publish", || publisher.publish(snap))
                });
                ticks.push(Tick {
                    total_ms: t.elapsed().as_secs_f64() * 1e3,
                    cow_bytes: b1 - b0,
                    lag,
                });
                if trace_thread.is_some() {
                    tr.span("epoch.pin.x1000", || {
                        for _ in 0..1000 {
                            std::hint::black_box(publisher.pin());
                        }
                    });
                }
            }
            Ok::<_, String>((router, ticks, tr.take()))
        });

        // The load generator: this thread submits on schedule and, while
        // it waits for the next arrival, collects answers.
        for (pi, (phase, stream)) in phases.iter().zip(streams).enumerate() {
            let tr = if phase.traced { &pacer_tr } else { &off };
            blocks.push(cal.slowdown(CAL_SLICES));
            let start = Instant::now();
            let base = (start - origin).as_nanos() as u64;
            let end_ns = (phase.seconds * 1e9) as u64;
            let mut step = StepResult {
                refused: 0,
                submitted: 0,
                seconds: 0.0,
            };
            let mut k = 0u64;
            loop {
                fl.poll(origin);
                let now_ns = start.elapsed().as_nanos() as u64;
                let in_flight = fl.queue.len() as u64;
                let sched = match phase.rate {
                    // Every arrival scheduled inside the step is sent,
                    // however late, and charged from its due time: a
                    // backlog can only add latency.
                    Some(rate) => {
                        match loadgen::next(k, rate, end_ns, now_ns, in_flight, MAX_IN_FLIGHT) {
                            Next::Done => break,
                            Next::Hold => {
                                std::thread::yield_now();
                                continue;
                            }
                            Next::Wait(left) => {
                                if fl.queue.is_empty() && left > 300_000 {
                                    std::thread::sleep(Duration::from_nanos(left - 200_000));
                                } else {
                                    std::thread::yield_now();
                                }
                                continue;
                            }
                            Next::Send(due) => base + due,
                        }
                    }
                    None => {
                        if now_ns >= end_ns {
                            break;
                        }
                        if in_flight >= SATURATION_WINDOW {
                            // Sleep rather than spin: a full window
                            // lasts over a millisecond, and a spinning
                            // generator would take CPU from the
                            // executor it is measuring.
                            std::thread::sleep(Duration::from_micros(100));
                            continue;
                        }
                        origin.elapsed().as_nanos() as u64
                    }
                };
                let sent = origin.elapsed().as_nanos() as u64;
                let qi = (k % stream.len() as u64) as u32;
                let submit = || server.submit(stream[qi as usize], RADIUS);
                let r = if k.is_multiple_of(SUBMIT_SPAN_EVERY) {
                    tr.set_request(k);
                    tr.span("serve.submit", submit)
                } else {
                    submit()
                };
                match r {
                    Ok(ticket) => {
                        step.submitted += 1;
                        fl.queue.push_back((pi, qi, sched, sent, ticket));
                    }
                    Err(_) => step.refused += 1,
                }
                k += 1;
            }
            // Let the step drain before the next one starts.
            while !fl.queue.is_empty() {
                fl.poll(origin);
                std::thread::yield_now();
            }
            step.seconds = start.elapsed().as_secs_f64();
            failed += step.refused;
            steps.push(step);
        }
        blocks.push(cal.slowdown(CAL_SLICES));
        stop.store(true, Ordering::Relaxed);
        ingest.join().expect("ingest thread")
    });
    let metrics = server.metrics();
    drop(server);
    let (router, ticks, ingest_spans) = ingest?;
    Ok(Session {
        steps,
        slowdown: blocks.windows(2).map(|b| (b[0] + b[1]) / 2.0).collect(),
        served: fl.served,
        ticks,
        failed: failed + fl.errors,
        router,
        pacer_spans: pacer_tr.take(),
        ingest_spans,
        metrics,
    })
}

/// Re-answers every served request on a baseline router replayed to
/// the epoch that served it; returns the number of mismatches.
fn verify(inputs: &Inputs, streams: &[Vec<Point3>], served: &[Served]) -> Result<u64, String> {
    let mut order: Vec<usize> = (0..served.len()).collect();
    order.sort_by_key(|&i| served[i].epoch);
    let mut router = build_router(&inputs.map, false);
    let mut editor = Editor::new(inputs);
    let policy = CompactionPolicy::default();
    let (mut scratch, mut out, mut st) = (SearchScratch::new(), Vec::new(), SearchStats::default());
    let mut epoch = 0u64;
    let mut bad = 0u64;
    for i in order {
        let s = &served[i];
        while epoch < s.epoch {
            epoch += 1;
            editor.apply(epoch, &mut router)?;
            router.commit();
            router.compact_next(&policy);
        }
        let q = streams[s.phase][s.query as usize];
        router.search_one(q, RADIUS, &mut scratch, &mut out, &mut st);
        if answer_hash(&out) != s.hash {
            if bad < 5 {
                eprintln!(
                    "mismatch epoch {} phase {} query {} hits {}",
                    s.epoch,
                    s.phase,
                    s.query,
                    out.len()
                );
            }
            bad += 1;
        }
    }
    Ok(bad)
}

/// Builds the served stack: router, first snapshot, publisher, server.
fn start_stack(
    map: &[Point3],
) -> (
    ShardRouter,
    Arc<EpochPublisher<RouterSnapshot>>,
    Server<RouterSnapshot>,
) {
    let router = build_router(map, true);
    let publisher = Arc::new(EpochPublisher::new(router.snapshot()));
    let server = Server::new(Arc::clone(&publisher), ServeConfig::default());
    (router, publisher, server)
}

fn latencies_ms(served: &[Served], phase: usize) -> Vec<f64> {
    served
        .iter()
        .filter(|s| s.phase == phase)
        .map(|s| s.timing.latency_ns() as f64 / 1e6)
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let inputs = inputs(cfg.seed);
    let mut report = Report::new();

    let mut held = 0;
    let (setup_s, (router, publisher, server)) =
        calibrated_setup(&Calibration::new(), SETUP_REPS, || {
            let (stack, h) = heap_held(|| start_stack(&inputs.map));
            held = h;
            stack
        });

    // An untimed warm-up, then 70 % of the window at the nominal rate
    // and 30 % saturated, both cut into calibrated windows.
    let windows = ((cfg.seconds * 0.7 / WINDOW_S).round() as usize).max(4);
    let steps = ((cfg.seconds * 0.3 / WINDOW_S).round() as usize).max(4);
    let mut phases = vec![Phase::open(NOMINAL_RATE, WARMUP_S, false)];
    phases.extend(
        (0..windows).map(|_| Phase::open(NOMINAL_RATE, cfg.seconds * 0.7 / windows as f64, false)),
    );
    phases.extend((0..steps).map(|_| Phase {
        rate: None,
        seconds: cfg.seconds * 0.3 / steps as f64,
        traced: false,
    }));
    let streams = phase_streams(&inputs, &phases);
    let origin = Instant::now();
    let sess = session(
        &inputs, &phases, &streams, router, &publisher, server, origin, None,
    )?;
    drop(publisher);
    drop(sess.router);

    // Host-scaled latencies of every nominal window, and scaled rates of
    // every saturation step.
    let mut p50s = Vec::with_capacity(windows);
    let mut nominal = Vec::new();
    for w in 1..=windows {
        let lat = latencies_ms(&sess.served, w);
        let f = sess.slowdown[w];
        p50s.push(pct(&lat, 0.5, "window p50")? / f);
        nominal.extend(lat.iter().map(|ms| ms / f));
    }
    let saturated: Vec<f64> = (windows + 1..phases.len())
        .map(|i| sess.steps[i].submitted as f64 / sess.steps[i].seconds * sess.slowdown[i])
        .collect();
    report.attempted = sess.served.len() as u64 + sess.failed + sess.ticks.len() as u64;
    report.failed = sess.failed;
    let bad = verify(&inputs, &streams, &sess.served)?;
    if bad > 0 {
        eprintln!("map_serve: {bad} served answers differ from their epoch's baseline");
        report.correct = false;
    }

    report.metric("setup_s", setup_s, "s");
    report.metric("p50_ms", stats::median(&p50s), "ms");
    // The tail gate is the whole step's p90: 1–4 % of requests (varying
    // run to run) land in a copy-on-write stall of the 10 Hz edit, so
    // p99 sits on the knee of that mode and swings by 5×. The traced run
    // reports p99 and the stalled share (`serve.p99_ms`,
    // `serve.slow_frac`).
    report.metric("tail_ms", pct(&nominal, 0.90, "serve p90")?, "ms");
    report.metric("ops_per_s", stats::median(&saturated), "1/s");
    report.metric(
        "index_bytes_per_point",
        held as f64 / MAP_POINTS as f64,
        "B/pt",
    );
    Ok(report)
}

fn phase_streams(inputs: &Inputs, phases: &[Phase]) -> Vec<Vec<Point3>> {
    let mut t0 = 0.0;
    phases
        .iter()
        .enumerate()
        .map(|(i, p)| {
            // A saturated step cycles through a stream drawn as if at
            // 50 k requests/s.
            let rate = p.rate.unwrap_or(50_000);
            let n = (rate as f64 * p.seconds) as usize;
            let q = queries(inputs, i as u64, t0, rate, n.max(1));
            t0 += p.seconds as f32;
            q
        })
        .collect()
}

/// The traced pass: the nominal-rate session with spans on the pacer
/// and ingest threads, then replays of the router against a single
/// compressed tree over the same map.
pub fn traced(
    cfg: &RunConfig,
    tr: &Tracer,
    budget: Duration,
    overhead: bool,
) -> Result<(Report, Vec<Span>), String> {
    let inputs = inputs(cfg.seed);
    let mut report = Report::new();
    let (router, publisher, server) = start_stack(&inputs.map);
    let secs = budget.as_secs_f64();
    let mut phases = vec![Phase::open(NOMINAL_RATE, WARMUP_S, false)];
    if overhead {
        phases.push(Phase::open(NOMINAL_RATE, secs, false));
    }
    phases.push(Phase::open(NOMINAL_RATE, secs, true));
    let streams = phase_streams(&inputs, &phases);
    let origin = Instant::now();
    let sess = session(
        &inputs,
        &phases,
        &streams,
        router,
        &publisher,
        server,
        origin,
        Some(tr.thread() + 1),
    )?;
    drop(publisher);
    report.attempted = sess.served.len() as u64 + sess.failed + sess.ticks.len() as u64;
    report.failed = sess.failed;

    // Router vs single tree on the traced phase's queries.
    let last = phases.len() - 1;
    let probe: Vec<Point3> = streams[last].iter().copied().take(50_000).collect();
    let snap = sess.router.snapshot();
    let garbage = sess.router.garbage_slots() as f64 / sess.router.slot_count().max(1) as f64;
    drop(sess.router);
    let mut batch = QueryBatch::new();
    snap.search_batch(&probe, RADIUS, &mut batch); // warm
    let (_, router_s) = timed(|| {
        tr.span("router.search_batch", || {
            snap.search_batch(&probe, RADIUS, &mut batch)
        })
    });
    drop(snap);
    drop(batch);
    let mut sim = SimEngine::disabled();
    let single = tr.span("build.single_tree", || {
        BonsaiTree::build(inputs.map.clone(), KdTreeConfig::default(), &mut sim)
    });
    let engine = RadiusSearchEngine::bonsai(&single);
    let mut batch = QueryBatch::new();
    engine.search_batch(&probe, RADIUS, &mut batch); // warm
    let (_, single_s) = timed(|| {
        tr.span("engine.single_tree.search_batch", || {
            engine.search_batch(&probe, RADIUS, &mut batch)
        })
    });
    drop(batch);
    drop(single);

    let bad = verify(&inputs, &streams, &sess.served)?;
    if bad > 0 {
        eprintln!("map_serve (traced): {bad} served answers differ from their epoch's baseline");
        report.correct = false;
    }

    let mut spans = tr.take();
    spans.extend(sess.pacer_spans);
    spans.extend(sess.ingest_spans);
    let tick_ms: Vec<f64> = sess.ticks.iter().map(|t| t.total_ms).collect();
    let ticks = sess.ticks.len().max(1) as f64;
    let late_us: Vec<f64> = sess
        .served
        .iter()
        .filter(|s| s.phase == last)
        .map(|s| s.timing.late_ns() as f64 / 1e3)
        .collect();
    if overhead {
        let plain = pct(&latencies_ms(&sess.served, 1), 0.5, "untraced serve p50")?;
        let traced = pct(&latencies_ms(&sess.served, last), 0.5, "traced serve p50")?;
        report.metric("trace.overhead_frac", traced / plain - 1.0, "ratio");
    }
    let q = probe.len() as f64;
    report.metric("router.ns_per_query", router_s * 1e9 / q, "ns");
    report.metric("router.over_single_tree", router_s / single_s, "ratio");
    let pins = trace::totals(&spans, "epoch.pin.x1000");
    report.metric(
        "epoch.pin_ns",
        pins.total_ns as f64 / (pins.count.max(1) * 1000) as f64,
        "ns",
    );
    report.metric(
        "epoch.publish_us",
        trace::totals(&spans, "epoch.publish").mean_ms() * 1e3,
        "us",
    );
    report.metric(
        "epoch.lag_max",
        sess.ticks.iter().map(|t| t.lag).max().unwrap_or(0) as f64,
        "count",
    );
    report.metric(
        "serve.submit_us",
        trace::totals(&spans, "serve.submit").mean_ms() * 1e3,
        "us",
    );
    let m = sess.metrics;
    report.metric(
        "serve.batch_mean",
        m.served as f64 / m.batches.max(1) as f64,
        "count",
    );
    report.metric("serve.max_batch", m.max_batch_absorbed as f64, "count");
    report.metric(
        "ingest.apply_ms",
        trace::totals(&spans, "ingest.apply").mean_ms(),
        "ms",
    );
    report.metric(
        "ingest.commit_ms",
        trace::totals(&spans, "ingest.commit").mean_ms(),
        "ms",
    );
    report.metric(
        "ingest.compact_ms",
        trace::totals(&spans, "ingest.compact").mean_ms(),
        "ms",
    );
    report.metric(
        "ingest.publish_us",
        trace::totals(&spans, "ingest.publish").mean_ms() * 1e3,
        "us",
    );
    report.metric(
        "ingest.cow_bytes_per_tick",
        sess.ticks.iter().map(|t| t.cow_bytes as f64).sum::<f64>() / ticks,
        "B",
    );
    report.metric("ingest.garbage_frac", garbage, "ratio");
    report.metric("ingest.tick_p50_ms", pct(&tick_ms, 0.5, "tick p50")?, "ms");
    report.metric("ingest.tick_p90_ms", pct(&tick_ms, 0.9, "tick p90")?, "ms");
    report.metric(
        "loadgen.late_p99_us",
        pct(&late_us, 0.99, "lateness p99")?,
        "us",
    );
    let traced_lat = latencies_ms(&sess.served, last);
    report.metric(
        "serve.p99_ms",
        pct(&traced_lat, 0.99, "traced serve p99")?,
        "ms",
    );
    report.metric(
        "serve.slow_frac",
        traced_lat.iter().filter(|&&l| l > SLO_MS).count() as f64 / traced_lat.len() as f64,
        "ratio",
    );
    Ok((report, spans))
}
