//! Measures per-query vs. batched vs. batched+parallel radius-search
//! throughput on the 20k-point urban cloud — plus the sharded
//! `ShardRouter` serving path (per-frame build latency and batch
//! throughput) — and writes `BENCH_radius_batch.json`, the
//! perf-trajectory artifact the batch engine is judged by (acceptance:
//! batched ≥ 2× the seed per-query path).
//!
//! ```sh
//! cargo run --release --bin bench_radius_batch [-- --quick]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use bonsai_bench::workload::{
    batch_queries, collect_sweep_sets, skewed_queries, urban_cloud, BATCH_CLOUD, BATCH_QUERIES,
    BATCH_RADIUS, SKEW_STD, SWEEP_RADIUS,
};
use bonsai_core::shell::check_compressed_hits;
use bonsai_core::{
    BonsaiTree, CompactionPolicy, RadiusSearchEngine, ShardConfig, ShardPolicy, ShardRouter,
};
use bonsai_geom::Point3;
use bonsai_isa::Machine;
use bonsai_kdtree::{simd, KdTree, KdTreeConfig, Neighbor, QueryBatch, SearchStats};
use bonsai_sim::SimEngine;

const RADIUS: f32 = BATCH_RADIUS;

/// Shards of the sharded serving rows.
const SHARDS: usize = 8;

/// Panics unless `got` reproduces `want` for `query` (one index space,
/// in which `points[i]` is point `i`, and one order): bit-identical
/// `(index, dist_sq)` under baseline (`origins` is `None`). Under
/// compression a conclusive hit reports the `d′²` of its leaf-relative
/// f16 half, which depends on its leaf's origin, so trees that cut the
/// same points into other leaves are held to
/// [`check_compressed_hits`], `origins` giving the leaf origin of
/// every point in `got`'s and in `want`'s tree.
fn assert_same_hits(
    query: Point3,
    points: &[Point3],
    got: &[Neighbor],
    want: &[Neighbor],
    origins: Option<(&[Point3], &[Point3])>,
    what: &str,
) {
    match origins {
        None => assert_eq!(got, want, "{what} diverged"),
        Some((got_origins, want_origins)) => {
            let checked =
                check_compressed_hits(query, RADIUS, points, got, got_origins, want, want_origins);
            if let Err(e) = checked {
                panic!("{what} diverged: {e:?}");
            }
        }
    }
}

/// Leaf origins moved to another index space: `origins[i]` lands at
/// `map[i]` of a table of `len` entries.
fn remap_origins(origins: &[Point3], map: &[u32], len: usize) -> Vec<Point3> {
    let mut out = vec![Point3::ZERO; len];
    for (&o, &to) in origins.iter().zip(map) {
        out[to as usize] = o;
    }
    out
}

/// Runs `work` repeatedly for ~`budget_ms` after one untimed warm-up
/// round, returning `(rounds, elapsed_seconds)`.
fn measure_rounds(budget_ms: u64, mut work: impl FnMut() -> usize) -> (u64, f64) {
    let mut checksum = work();
    let start = Instant::now();
    let mut rounds = 0u64;
    while start.elapsed().as_millis() < budget_ms as u128 {
        checksum = checksum.wrapping_add(work());
        rounds += 1;
    }
    std::hint::black_box(checksum);
    (rounds, start.elapsed().as_secs_f64())
}

/// Runs `work` repeatedly for ~`budget_ms`, returning queries/second.
fn measure_qps(queries: usize, budget_ms: u64, work: impl FnMut() -> usize) -> f64 {
    let (rounds, elapsed) = measure_rounds(budget_ms, work);
    (rounds as f64 * queries as f64) / elapsed
}

/// Runs `work` repeatedly for ~`budget_ms`, returning milliseconds per
/// round.
fn measure_ms(budget_ms: u64, work: impl FnMut() -> usize) -> f64 {
    let (rounds, elapsed) = measure_rounds(budget_ms, work);
    elapsed * 1e3 / rounds as f64
}

/// Open-loop served p99 (µs) against one published snapshot: requests
/// arrive on a fixed grid (a slow answer never delays the next
/// arrival), a harvester thread timestamps each completion at its
/// condvar wake. The trimmed form of the `latency` section's harness,
/// shared by the static and adaptive arms of the `adaptive` section so
/// the comparison is apples to apples.
fn served_p99_us(
    snapshot: bonsai_core::RouterSnapshot,
    queries: &[bonsai_geom::Point3],
    radius: f32,
    rate: u64,
    window_ms: u64,
) -> f64 {
    let publisher = std::sync::Arc::new(bonsai_core::EpochPublisher::new(snapshot));
    let server = bonsai_serve::Server::new(
        publisher,
        bonsai_serve::ServeConfig {
            queue_capacity: 8192,
            max_batch: 32,
        },
    );
    for &q in queries.iter().take(16) {
        let _ = server.radius_query(q, radius); // warm the executor
    }
    let total_arrivals = (rate * window_ms / 1000).max(1) as usize;
    let gap = std::time::Duration::from_nanos(1_000_000_000 / rate);
    struct InFlight {
        queue: std::collections::VecDeque<(Instant, bonsai_serve::Ticket)>,
        closed: bool,
    }
    let in_flight = std::sync::Mutex::new(InFlight {
        queue: std::collections::VecDeque::new(),
        closed: false,
    });
    let handoff = std::sync::Condvar::new();
    let mut latencies_us: Vec<f64> = std::thread::scope(|s| {
        let harvester = s.spawn(|| {
            let mut latencies = Vec::with_capacity(total_arrivals);
            loop {
                let entry = {
                    let mut q = in_flight.lock().expect("in-flight queue");
                    loop {
                        if let Some(entry) = q.queue.pop_front() {
                            break Some(entry);
                        }
                        if q.closed {
                            break None;
                        }
                        q = handoff.wait(q).expect("in-flight queue");
                    }
                };
                let Some((submitted, ticket)) = entry else {
                    return latencies;
                };
                ticket.wait().expect("bench query served");
                latencies.push((Instant::now() - submitted).as_secs_f64() * 1e6);
            }
        });
        let pacer_start = Instant::now();
        for k in 0..total_arrivals {
            let scheduled = pacer_start + gap * k as u32;
            loop {
                let now = Instant::now();
                if now >= scheduled {
                    break;
                }
                let remaining = scheduled - now;
                if remaining > std::time::Duration::from_micros(300) {
                    std::thread::sleep(remaining - std::time::Duration::from_micros(200));
                } else {
                    std::thread::yield_now();
                }
            }
            if let Ok(ticket) = server.submit(queries[k % queries.len()], radius) {
                in_flight
                    .lock()
                    .expect("in-flight queue")
                    .queue
                    .push_back((Instant::now(), ticket));
                handoff.notify_all();
            }
        }
        in_flight.lock().expect("in-flight queue").closed = true;
        handoff.notify_all();
        harvester.join().expect("harvester thread")
    });
    latencies_us.sort_unstable_by(|a, b| a.total_cmp(b));
    let idx = ((latencies_us.len() as f64 - 1.0) * 0.99).round() as usize;
    latencies_us[idx]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (cloud_n, query_n, budget_ms) = if quick {
        (BATCH_CLOUD / 4, BATCH_QUERIES / 4, 120)
    } else {
        (BATCH_CLOUD, BATCH_QUERIES, 900)
    };

    let cloud = urban_cloud(cloud_n);
    let mut sim = SimEngine::disabled();
    let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    // Baseline searches run on the f32-row tree of the same points.
    let base_tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let queries = batch_queries(&cloud, query_n);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"radius_batch\",");
    let _ = writeln!(json, "  \"cloud_points\": {cloud_n},");
    let _ = writeln!(json, "  \"queries\": {query_n},");
    let _ = writeln!(json, "  \"radius\": {RADIUS},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"modes\": {{");

    for (mi, (mode, baseline)) in [("baseline", true), ("bonsai", false)]
        .into_iter()
        .enumerate()
    {
        // Seed-shaped per-query path: independent instrumented-API
        // searches (fresh vectors; fresh processor per search under
        // Bonsai), simulator disabled.
        let mut machine = Machine::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        let per_query_qps = measure_qps(query_n, budget_ms, || {
            let mut total = 0;
            for &q in &queries {
                if baseline {
                    total += base_tree.radius_search_simple(q, RADIUS).len();
                } else {
                    tree.radius_search(&mut sim, &mut machine, q, RADIUS, &mut out, &mut stats);
                    total += out.len();
                }
            }
            total
        });

        let engine = if baseline {
            RadiusSearchEngine::baseline(&base_tree)
        } else {
            RadiusSearchEngine::bonsai(&tree)
        };
        let mut batch = QueryBatch::new();
        let batched_qps = measure_qps(query_n, budget_ms, || {
            engine.search_batch(&queries, RADIUS, &mut batch);
            batch.total_matches()
        });

        #[cfg(feature = "parallel")]
        let parallel_qps = {
            let mut batch = QueryBatch::new();
            measure_qps(query_n, budget_ms, || {
                engine.search_batch_parallel(&queries, RADIUS, &mut batch, 0);
                batch.total_matches()
            })
        };
        #[cfg(not(feature = "parallel"))]
        let parallel_qps = batched_qps;

        // Exactness spot check: the batched engine must reproduce the
        // per-query instrumented results.
        engine.search_batch(&queries, RADIUS, &mut batch);
        for (i, &q) in queries.iter().enumerate().step_by(37) {
            let expect = if baseline {
                base_tree.radius_search_simple(q, RADIUS)
            } else {
                tree.radius_search_simple(q, RADIUS)
            };
            assert_eq!(batch.results(i), &expect[..], "{mode} query {i} diverged");
        }

        let speedup = batched_qps / per_query_qps;
        let parallel_speedup = parallel_qps / per_query_qps;
        println!(
            "{mode:>8}: per-query {per_query_qps:>12.0} q/s | batched {batched_qps:>12.0} q/s \
             ({speedup:.2}x) | parallel {parallel_qps:>12.0} q/s ({parallel_speedup:.2}x)"
        );
        let _ = writeln!(json, "    \"{mode}\": {{");
        let _ = writeln!(json, "      \"per_query_qps\": {per_query_qps:.0},");
        let _ = writeln!(json, "      \"batched_qps\": {batched_qps:.0},");
        let _ = writeln!(json, "      \"batched_parallel_qps\": {parallel_qps:.0},");
        let _ = writeln!(json, "      \"batched_speedup\": {speedup:.3},");
        let _ = writeln!(
            json,
            "      \"batched_parallel_speedup\": {parallel_speedup:.3}"
        );
        let _ = writeln!(json, "    }}{}", if mi == 0 { "," } else { "" });
    }
    let _ = writeln!(json, "  }},");

    // ------------------------------------------------------------------
    // Sharded serving: per-frame build latency (single tree vs. K-shard
    // router, sequential and parallel) and router batch throughput.
    // Each arm pays one copy of the cloud: the single tree consumes a
    // clone, the router copies the points into its shards.
    // ------------------------------------------------------------------
    let _ = writeln!(json, "  \"sharded\": {{");
    let _ = writeln!(json, "    \"shards\": {SHARDS},");

    let seq_cfg = ShardConfig {
        shards: SHARDS,
        build_threads: 1,
    };
    let par_cfg = ShardConfig {
        shards: SHARDS,
        build_threads: 0,
    };
    let build_budget = budget_ms / 2;
    let _ = writeln!(json, "    \"build\": {{");
    for (mi, mode) in ["baseline", "bonsai"].into_iter().enumerate() {
        let baseline = mode == "baseline";
        let single_ms = measure_ms(build_budget, || {
            let mut sim = SimEngine::disabled();
            if baseline {
                KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim)
                    .build_stats()
                    .num_leaves as usize
            } else {
                BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim)
                    .kd_tree()
                    .build_stats()
                    .num_leaves as usize
            }
        });
        let cloud_ref = &cloud;
        let sharded_build = |cfg: ShardConfig| {
            move || {
                let router = if baseline {
                    ShardRouter::baseline(cloud_ref, KdTreeConfig::default(), cfg)
                } else {
                    ShardRouter::bonsai(cloud_ref, KdTreeConfig::default(), cfg)
                };
                router.build_stats().num_leaves as usize
            }
        };
        let seq_ms = measure_ms(build_budget, sharded_build(seq_cfg));
        let par_ms = measure_ms(build_budget, sharded_build(par_cfg));
        println!(
            "{mode:>8} build: single {single_ms:>7.2} ms | sharded seq {seq_ms:>7.2} ms \
             ({:.2}x) | sharded par {par_ms:>7.2} ms ({:.2}x)",
            single_ms / seq_ms,
            single_ms / par_ms,
        );
        let _ = writeln!(json, "      \"{mode}\": {{");
        let _ = writeln!(json, "        \"single_tree_ms\": {single_ms:.3},");
        let _ = writeln!(json, "        \"sharded_seq_ms\": {seq_ms:.3},");
        let _ = writeln!(json, "        \"sharded_parallel_ms\": {par_ms:.3},");
        let _ = writeln!(
            json,
            "        \"parallel_build_speedup\": {:.3}",
            single_ms / par_ms
        );
        let _ = writeln!(json, "      }}{}", if mi == 0 { "," } else { "" });
    }
    let _ = writeln!(json, "    }},");

    let _ = writeln!(json, "    \"modes\": {{");
    for (mi, mode) in ["baseline", "bonsai"].into_iter().enumerate() {
        let baseline = mode == "baseline";
        let router = if baseline {
            ShardRouter::baseline(&cloud, KdTreeConfig::default(), par_cfg)
        } else {
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), par_cfg)
        }
        .snapshot();
        let mut batch = QueryBatch::new();
        let router_qps = measure_qps(query_n, budget_ms, || {
            router.search_batch(&queries, RADIUS, &mut batch);
            batch.total_matches()
        });
        #[cfg(feature = "parallel")]
        let router_parallel_qps = {
            let mut batch = QueryBatch::new();
            measure_qps(query_n, budget_ms, || {
                router.search_batch_parallel(&queries, RADIUS, &mut batch, 0);
                batch.total_matches()
            })
        };
        #[cfg(not(feature = "parallel"))]
        let router_parallel_qps = router_qps;

        // Exactness spot check: the router must reproduce the
        // single-tree engine's neighbor sets (the router emits
        // canonical ascending-index order; compressed approximate
        // distances follow each shard's leaf origins).
        router.search_batch(&queries, RADIUS, &mut batch);
        let origins = (!baseline).then(|| (router.point_origins(), tree.kd_tree().point_origins()));
        for (i, &q) in queries.iter().enumerate().step_by(37) {
            let mut expect = if baseline {
                base_tree.radius_search_simple(q, RADIUS)
            } else {
                tree.radius_search_simple(q, RADIUS)
            };
            expect.sort_unstable_by_key(|n| n.index);
            assert_same_hits(
                q,
                &cloud,
                batch.results(i),
                &expect,
                origins.as_ref().map(|(g, w)| (&g[..], &w[..])),
                &format!("{mode} query {i}"),
            );
        }

        println!(
            "{mode:>8} router: batched {router_qps:>12.0} q/s | parallel \
             {router_parallel_qps:>12.0} q/s"
        );
        let _ = writeln!(json, "      \"{mode}\": {{");
        let _ = writeln!(json, "        \"router_qps\": {router_qps:.0},");
        let _ = writeln!(
            json,
            "        \"router_parallel_qps\": {router_parallel_qps:.0}"
        );
        let _ = writeln!(json, "      }}{}", if mi == 0 { "," } else { "" });
    }
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");

    // ------------------------------------------------------------------
    // Adaptive sharding: the Gaussian-around-ego drifting-ego stream
    // (the AD serving pattern) against the static median-cut router vs
    // the load-adaptive one. The adaptive arm keeps `adapt_step` in the
    // timed loop — steady-state policy cost is billed, not hidden — and
    // is warmed with untimed laps first, exactly how a long-running
    // serving process reaches its converged topology. The uniform
    // stream then bounds the policy's overhead when there is no skew to
    // exploit, and the exactness sweep pins every mode × SIMD arm to
    // the single-tree engine bit for bit.
    // ------------------------------------------------------------------
    let _ = writeln!(json, "  \"adaptive\": {{");
    // Serving-scale cloud: adaptive sharding is about long-lived maps
    // an order of magnitude beyond one frame's crop, where a hot
    // shard's footprint decides whether the skewed stream runs from
    // cache or from memory. At `BATCH_CLOUD` the per-shard trees are so
    // shallow that fixed per-query dispatch hides any topology effect.
    let acloud = urban_cloud(cloud_n * 8);
    let auniform = batch_queries(&acloud, query_n);
    let skew = skewed_queries(query_n * 4, 42);
    let windows = 16usize;
    let win_len = (skew.len() / windows).max(1);
    // Long-memory decay: at 16 windows per ego lap, 0.95 keeps ~20
    // windows of profile, so the policy sees the whole drifting-ego
    // corridor as stationary instead of chasing the ego window to
    // window (short memory makes it thrash: split ahead of the ego,
    // merge behind it, every step a rebuild).
    let policy = ShardPolicy {
        decay: 0.95,
        max_shards: 64,
        min_split_points: 128,
        min_queries: 32.0,
        split_ratio: 1.5,
        merge_ratio: 0.15,
        ..ShardPolicy::default()
    };
    let _ = writeln!(json, "    \"shards_start\": {SHARDS},");
    let _ = writeln!(json, "    \"skew_std\": {SKEW_STD},");
    let _ = writeln!(json, "    \"skew_queries\": {},", skew.len());
    let _ = writeln!(json, "    \"windows\": {windows},");
    let _ = writeln!(json, "    \"max_shards\": {},", policy.max_shards);

    let static_router = ShardRouter::bonsai(
        &acloud,
        KdTreeConfig::default(),
        ShardConfig::with_shards(SHARDS),
    );
    // The static topology never mutates, so one snapshot serves it.
    let static_snap = static_router.snapshot();
    let mut batch = QueryBatch::new();
    let static_skew_qps = measure_qps(skew.len(), budget_ms, || {
        let mut total = 0;
        for w in skew.chunks(win_len) {
            static_snap.search_batch(w, RADIUS, &mut batch);
            total += batch.total_matches();
        }
        total
    });

    let mut adaptive_router = ShardRouter::bonsai(
        &acloud,
        KdTreeConfig::default(),
        ShardConfig::with_shards(SHARDS),
    );
    // Untimed warm-up laps: the policy converges its topology along the
    // ego corridor before the clock starts.
    for _ in 0..6 {
        for w in skew.chunks(win_len) {
            adaptive_router
                .snapshot()
                .search_batch(w, RADIUS, &mut batch);
            adaptive_router.adapt_step(&policy, 0);
        }
    }
    let adaptive_skew_qps = measure_qps(skew.len(), budget_ms, || {
        let mut total = 0;
        for w in skew.chunks(win_len) {
            adaptive_router
                .snapshot()
                .search_batch(w, RADIUS, &mut batch);
            adaptive_router.adapt_step(&policy, 0);
            total += batch.total_matches();
        }
        total
    });
    let adaptive_report = adaptive_router.load_report();

    // Exactness: the adapted topology answers the skewed stream with
    // the static router's neighbours (both canonical ascending global
    // order — same cloud, same indices; the split shards' leaf origins
    // move compressed approximate distances).
    {
        let mut expect = QueryBatch::new();
        static_snap.search_batch(&skew, RADIUS, &mut expect);
        let adapted = adaptive_router.snapshot();
        adapted.search_batch(&skew, RADIUS, &mut batch);
        let origins = (adapted.point_origins(), static_snap.point_origins());
        for (i, &q) in skew.iter().enumerate() {
            assert_same_hits(
                q,
                &acloud,
                batch.results(i),
                expect.results(i),
                Some((&origins.0, &origins.1)),
                &format!("adaptive skew query {i}"),
            );
        }
    }

    let static_uniform_qps = measure_qps(query_n, budget_ms, || {
        static_snap.search_batch(&auniform, RADIUS, &mut batch);
        batch.total_matches()
    });
    let mut uniform_router = ShardRouter::bonsai(
        &acloud,
        KdTreeConfig::default(),
        ShardConfig::with_shards(SHARDS),
    );
    let adaptive_uniform_qps = measure_qps(query_n, budget_ms, || {
        uniform_router
            .snapshot()
            .search_batch(&auniform, RADIUS, &mut batch);
        uniform_router.adapt_step(&policy, 0);
        batch.total_matches()
    });

    // Shard-per-worker serving throughput, the headline: each worker
    // owns the shard slice `worker_partition` assigns it (LPT over the
    // observed load profile) and serves the whole stream against only
    // that slice — the execution model of a distributed or
    // accelerator-offloaded deployment, where a shard lives in one
    // place and cannot be half-owned. Every worker's pass is measured
    // for real; the makespan (slowest worker, plus the adaptive arm's
    // measured control-plane `adapt_step`) is what W concurrent
    // workers' wall clock would be. Under skew the static topology's
    // hot shard is one indivisible slice — the batch serializes on its
    // owner — while the adapted topology spreads the same load across
    // all W slices.
    const WORKERS: usize = 8;
    let worker_budget = budget_ms / 2;
    // Frame-barrier makespan: the pipeline serves windows in order, so
    // one stream pass costs Σ over windows of (slowest worker in that
    // window) — a worker idle in this window cannot lend its core to
    // the next one. Each (worker, window) cell is measured for real
    // and averaged over repeated passes.
    let worker_makespan_ms =
        |router: &ShardRouter, stream: &[bonsai_geom::Point3], chunk: usize| -> f64 {
            let router = router.snapshot();
            let partition = router.worker_partition(WORKERS);
            let windows: Vec<&[bonsai_geom::Point3]> = stream.chunks(chunk).collect();
            let mut cell_ms = vec![vec![0.0f64; windows.len()]; partition.len()];
            let mut b = QueryBatch::new();
            for (k, own) in partition.iter().enumerate() {
                for wch in &windows {
                    router.search_batch_shards(wch, RADIUS, &mut b, own); // warm
                }
                let start = Instant::now();
                let mut passes = 0u32;
                while start.elapsed().as_millis() < u128::from(worker_budget) {
                    for (w, wch) in windows.iter().enumerate() {
                        let t0 = Instant::now();
                        router.search_batch_shards(wch, RADIUS, &mut b, own);
                        std::hint::black_box(b.total_matches());
                        cell_ms[k][w] += t0.elapsed().as_secs_f64() * 1e3;
                    }
                    passes += 1;
                }
                for v in &mut cell_ms[k] {
                    *v /= f64::from(passes.max(1));
                }
            }
            (0..windows.len())
                .map(|w| cell_ms.iter().map(|row| row[w]).fold(0.0f64, f64::max))
                .sum()
        };
    let static_skew_worker_ms = worker_makespan_ms(&static_router, &skew, win_len);
    let adaptive_skew_worker_ms = worker_makespan_ms(&adaptive_router, &skew, win_len);
    let static_uniform_worker_ms = worker_makespan_ms(&static_router, &auniform, auniform.len());
    let adaptive_uniform_worker_ms = worker_makespan_ms(&uniform_router, &auniform, auniform.len());
    // The adaptive arms bill the policy's steady-state control plane:
    // one converged `adapt_step` per pass, serialized after the
    // workers (it owns the topology).
    let adapt_ms = measure_ms(worker_budget / 2, || {
        adaptive_router.adapt_step(&policy, 0);
        1
    });
    let static_skew_worker_qps = skew.len() as f64 / (static_skew_worker_ms / 1e3);
    let adaptive_skew_worker_qps = skew.len() as f64 / ((adaptive_skew_worker_ms + adapt_ms) / 1e3);
    let static_uniform_worker_qps = auniform.len() as f64 / (static_uniform_worker_ms / 1e3);
    let adaptive_uniform_worker_qps =
        auniform.len() as f64 / ((adaptive_uniform_worker_ms + adapt_ms) / 1e3);

    // Served open-loop p99 on the skewed stream: the adaptive topology
    // must be no worse at the tail than the static one.
    let p99_rate = 2000u64;
    let p99_window = if quick { 250 } else { 1500 };
    let static_p99 = served_p99_us(
        static_router.snapshot(),
        &skew,
        RADIUS,
        p99_rate,
        p99_window,
    );
    let adaptive_p99 = served_p99_us(
        adaptive_router.snapshot(),
        &skew,
        RADIUS,
        p99_rate,
        p99_window,
    );

    let skew_speedup = adaptive_skew_worker_qps / static_skew_worker_qps;
    let uniform_ratio = adaptive_uniform_worker_qps / static_uniform_worker_qps;
    let skew_speedup_seq = adaptive_skew_qps / static_skew_qps;
    let uniform_ratio_seq = adaptive_uniform_qps / static_uniform_qps;
    let populated = (0..adaptive_router.num_shards())
        .filter(|&s| !adaptive_router.shard_points(s).is_empty())
        .count();
    println!(
        "adaptive  skew: static {static_skew_worker_qps:>12.0} q/s | adaptive \
         {adaptive_skew_worker_qps:>12.0} q/s ({skew_speedup:.2}x) over {WORKERS} workers | \
         {} splits {} merges, {populated} shards",
        adaptive_report.splits, adaptive_report.merges,
    );
    println!(
        "       uniform: static {static_uniform_worker_qps:>12.0} q/s | adaptive \
         {adaptive_uniform_worker_qps:>12.0} q/s ({uniform_ratio:.3}) | served p99 \
         {static_p99:>8.1} → {adaptive_p99:>8.1} µs | 1-thread skew {skew_speedup_seq:.2}x \
         uniform {uniform_ratio_seq:.3}"
    );
    let _ = writeln!(json, "    \"workers\": {WORKERS},");
    let _ = writeln!(
        json,
        "    \"static_skew_worker_qps\": {static_skew_worker_qps:.0},"
    );
    let _ = writeln!(
        json,
        "    \"adaptive_skew_worker_qps\": {adaptive_skew_worker_qps:.0},"
    );
    let _ = writeln!(json, "    \"skew_speedup\": {skew_speedup:.3},");
    let _ = writeln!(
        json,
        "    \"static_uniform_worker_qps\": {static_uniform_worker_qps:.0},"
    );
    let _ = writeln!(
        json,
        "    \"adaptive_uniform_worker_qps\": {adaptive_uniform_worker_qps:.0},"
    );
    let _ = writeln!(json, "    \"uniform_ratio\": {uniform_ratio:.3},");
    let _ = writeln!(json, "    \"adapt_step_ms\": {adapt_ms:.4},");
    let _ = writeln!(json, "    \"static_skew_qps\": {static_skew_qps:.0},");
    let _ = writeln!(json, "    \"adaptive_skew_qps\": {adaptive_skew_qps:.0},");
    let _ = writeln!(json, "    \"skew_speedup_seq\": {skew_speedup_seq:.3},");
    let _ = writeln!(json, "    \"static_uniform_qps\": {static_uniform_qps:.0},");
    let _ = writeln!(
        json,
        "    \"adaptive_uniform_qps\": {adaptive_uniform_qps:.0},"
    );
    let _ = writeln!(json, "    \"uniform_ratio_seq\": {uniform_ratio_seq:.3},");
    let _ = writeln!(json, "    \"static_served_p99_us\": {static_p99:.1},");
    let _ = writeln!(json, "    \"adaptive_served_p99_us\": {adaptive_p99:.1},");
    let _ = writeln!(json, "    \"splits\": {},", adaptive_report.splits);
    let _ = writeln!(json, "    \"merges\": {},", adaptive_report.merges);
    let _ = writeln!(json, "    \"rejected\": {},", adaptive_report.rejected);
    let _ = writeln!(json, "    \"populated_shards\": {populated},");

    // Exactness across both modes, both SIMD arms: an adapted
    // router must reproduce the single-tree engine's neighbor sets bit
    // for bit (canonical ascending order), scalar and vector alike.
    {
        let ov = simd::scalar_override();
        let probes: Vec<_> = skew.iter().copied().step_by(17).collect();
        for mode in ["baseline", "bonsai"] {
            let mut r = if mode == "baseline" {
                ShardRouter::baseline(
                    &cloud,
                    KdTreeConfig::default(),
                    ShardConfig::with_shards(SHARDS),
                )
            } else {
                ShardRouter::bonsai(
                    &cloud,
                    KdTreeConfig::default(),
                    ShardConfig::with_shards(SHARDS),
                )
            };
            for w in skew.chunks(win_len) {
                r.snapshot().search_batch(w, RADIUS, &mut batch);
                r.adapt_step(&policy, 0);
            }
            let engine = if mode == "baseline" {
                RadiusSearchEngine::baseline(&base_tree)
            } else {
                RadiusSearchEngine::bonsai(&tree)
            };
            let mut expect = QueryBatch::new();
            let origins = (mode == "bonsai")
                .then(|| (r.snapshot().point_origins(), tree.kd_tree().point_origins()));
            for &scalar in &[true, false] {
                ov.set(scalar);
                engine.search_batch(&probes, RADIUS, &mut expect);
                r.snapshot().search_batch(&probes, RADIUS, &mut batch);
                for (i, &q) in probes.iter().enumerate() {
                    let mut want = expect.results(i).to_vec();
                    want.sort_unstable_by_key(|n| n.index);
                    assert_same_hits(
                        q,
                        &cloud,
                        batch.results(i),
                        &want,
                        origins.as_ref().map(|(g, w)| (&g[..], &w[..])),
                        &format!("{mode} scalar={scalar} adaptive probe {i}"),
                    );
                }
            }
        }
        ov.set(false);
    }
    let _ = writeln!(json, "    \"exactness_modes\": 2,");
    let _ = writeln!(json, "    \"exactness_simd_arms\": 2");
    let _ = writeln!(json, "  }},");

    // ------------------------------------------------------------------
    // SIMD leaf sweeps: scalar vs the runtime-detected vector backend,
    // per mode. Two views: the isolated sweep kernel (`sweep_visited`
    // over each query's collected leaves, points/s — the number the ≥1.5× acceptance
    // target reads) and the whole batched search (traversal included,
    // q/s). The scalar rows run through the process-wide override, so
    // one SIMD-enabled binary measures both paths.
    // ------------------------------------------------------------------
    let _ = writeln!(json, "  \"simd\": {{");
    let _ = writeln!(json, "    \"backend\": \"{}\",", simd::active_backend());
    let _ = writeln!(json, "    \"lanes\": {},", simd::LANES);
    // Each sweep query's visit list is collected once up front (the
    // traversal half), so the measurement times exactly the leaf-sweep
    // kernel over the leaf mix real queries visit — the same workload
    // as the `leaf_sweep` criterion group.
    let sweep_radius = SWEEP_RADIUS;
    let _ = writeln!(json, "    \"sweep_radius\": {sweep_radius},");
    let sweep_queries = batch_queries(&cloud, 32);
    let (sweep_sets, sweep_points) =
        collect_sweep_sets(tree.kd_tree(), &sweep_queries, sweep_radius);
    let sweep_budget = budget_ms / 2;
    let ov = simd::scalar_override();
    for (mi, mode) in ["baseline", "bonsai"].into_iter().enumerate() {
        let baseline = mode == "baseline";
        let engine = if baseline {
            RadiusSearchEngine::baseline(&base_tree)
        } else {
            RadiusSearchEngine::bonsai(&tree)
        };
        let sweep_pps = |force_scalar: bool| {
            ov.set(force_scalar);
            let mut out = Vec::new();
            let mut stats = SearchStats::default();
            let (rounds, elapsed) = measure_rounds(sweep_budget, || {
                let mut total = 0usize;
                for (q, visited) in sweep_queries.iter().zip(&sweep_sets) {
                    out.clear();
                    engine.sweep_visited(visited, *q, sweep_radius, &mut out, &mut stats);
                    total += out.len();
                }
                total
            });
            // One warm-up round runs untimed inside measure_rounds.
            (rounds as f64 * sweep_points as f64) / elapsed
        };
        let scalar_sweep_pps = sweep_pps(true);
        let simd_sweep_pps = sweep_pps(false);
        let mut batch = QueryBatch::new();
        let mut batched = |force_scalar: bool| {
            ov.set(force_scalar);
            measure_qps(query_n, sweep_budget, || {
                engine.search_batch(&queries, RADIUS, &mut batch);
                batch.total_matches()
            })
        };
        let scalar_qps = batched(true);
        let simd_qps = batched(false);
        ov.set(false);

        // Exactness spot check: both backends must agree bit-for-bit
        // (the property suite proves it; the bench keeps it honest on
        // the bench workload too).
        let mut scalar_batch = QueryBatch::new();
        ov.set(true);
        engine.search_batch(&queries, RADIUS, &mut scalar_batch);
        ov.set(false);
        engine.search_batch(&queries, RADIUS, &mut batch);
        for i in (0..queries.len()).step_by(37) {
            assert_eq!(
                batch.results(i),
                scalar_batch.results(i),
                "{mode} query {i}: simd diverged from scalar"
            );
        }

        let sweep_speedup = simd_sweep_pps / scalar_sweep_pps;
        let batched_speedup = simd_qps / scalar_qps;
        println!(
            "{mode:>8} sweep: scalar {scalar_sweep_pps:>12.0} pts/s | {} \
             {simd_sweep_pps:>12.0} pts/s ({sweep_speedup:.2}x) | search {scalar_qps:>9.0} → \
             {simd_qps:>9.0} q/s ({batched_speedup:.2}x)",
            simd::active_backend(),
        );
        let _ = writeln!(json, "    \"{mode}\": {{");
        let _ = writeln!(json, "      \"scalar_sweep_pps\": {scalar_sweep_pps:.0},");
        let _ = writeln!(json, "      \"simd_sweep_pps\": {simd_sweep_pps:.0},");
        let _ = writeln!(json, "      \"sweep_speedup\": {sweep_speedup:.3},");
        let _ = writeln!(json, "      \"scalar_batched_qps\": {scalar_qps:.0},");
        let _ = writeln!(json, "      \"simd_batched_qps\": {simd_qps:.0},");
        let _ = writeln!(json, "      \"batched_speedup\": {batched_speedup:.3}");
        let _ = writeln!(json, "    }}{}", if mi == 0 { "," } else { "" });
    }
    drop(ov);
    let _ = writeln!(json, "  }},");

    // ------------------------------------------------------------------
    // Streaming churn: per-frame incremental update (delete + insert +
    // lazy per-leaf re-bake) vs. full rebuild of the Bonsai tree, at
    // 1 % / 5 % / 20 % per-frame churn. The incremental arm keeps one
    // mutable tree alive across frames — the ikd-style streaming path.
    // ------------------------------------------------------------------
    let _ = writeln!(json, "  \"streaming\": {{");
    let churn_budget = budget_ms / 2;
    let insert_source = urban_cloud(cloud_n * 2);
    for (ci, pct) in [1usize, 5, 20].into_iter().enumerate() {
        let churn_n = (cloud_n * pct / 100).max(1);

        let rebuild_ms = measure_ms(churn_budget, || {
            let mut sim = SimEngine::disabled();
            BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim)
                .kd_tree()
                .build_stats()
                .num_leaves as usize
        });

        let mut sim = SimEngine::disabled();
        let mut tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let mut live: Vec<u32> = (0..cloud_n as u32).collect();
        let mut round = 0usize;
        let incremental_ms = measure_ms(churn_budget, || {
            let mut sim = SimEngine::disabled();
            for j in 0..churn_n {
                let pos = (round.wrapping_mul(31) + j * 7919) % live.len();
                tree.delete(&mut sim, live[pos]);
                let p = insert_source[(round * churn_n + j) % insert_source.len()];
                live[pos] = tree.insert(&mut sim, p).expect("finite insert");
            }
            round += 1;
            tree.commit(&mut sim)
        });

        // Exactness spot check: the churned tree must match a fresh
        // rebuild over its live points (sorted; indices remapped).
        {
            let live_ids: Vec<u32> = tree.kd_tree().live_indices().collect();
            let live_pts: Vec<_> = live_ids
                .iter()
                .map(|&i| tree.kd_tree().points()[i as usize])
                .collect();
            let fresh = BonsaiTree::build(live_pts, KdTreeConfig::default(), &mut sim);
            let points = tree.kd_tree().points();
            let origins = (
                tree.kd_tree().point_origins(),
                remap_origins(&fresh.kd_tree().point_origins(), &live_ids, points.len()),
            );
            for (qi, &q) in queries.iter().enumerate().step_by(257) {
                let mut got = tree.radius_search_simple(q, RADIUS);
                got.sort_unstable_by_key(|n| n.index);
                let mut expect = fresh.radius_search_simple(q, RADIUS);
                for n in &mut expect {
                    n.index = live_ids[n.index as usize];
                }
                expect.sort_unstable_by_key(|n| n.index);
                assert_same_hits(
                    q,
                    points,
                    &got,
                    &expect,
                    Some((&origins.0, &origins.1)),
                    &format!("churn {pct}% query {qi}"),
                );
            }
        }

        let speedup = rebuild_ms / incremental_ms;
        let mstats = tree.kd_tree().mutation_stats();
        let frag =
            tree.kd_tree().garbage_slots() as f64 / tree.kd_tree().vind().len().max(1) as f64;
        println!(
            "churn {pct:>2}%: incremental {incremental_ms:>7.2} ms/frame | rebuild \
             {rebuild_ms:>7.2} ms/frame ({speedup:.2}x) | {} subtree rebuilds, {:.0}% frag",
            mstats.subtree_rebuilds,
            frag * 100.0
        );
        let _ = writeln!(json, "    \"{pct}pct\": {{");
        let _ = writeln!(json, "      \"churn_points\": {churn_n},");
        let _ = writeln!(json, "      \"incremental_ms\": {incremental_ms:.3},");
        let _ = writeln!(json, "      \"rebuild_ms\": {rebuild_ms:.3},");
        let _ = writeln!(json, "      \"incremental_speedup\": {speedup:.3},");
        let _ = writeln!(
            json,
            "      \"subtree_rebuilds\": {},",
            mstats.subtree_rebuilds
        );
        let _ = writeln!(json, "      \"garbage_fraction\": {frag:.4}");
        let _ = writeln!(json, "    }}{}", if ci < 2 { "," } else { "" });
    }
    let _ = writeln!(json, "  }},");

    // ------------------------------------------------------------------
    // Long-stream soak: 200 churn frames through a sharded Bonsai
    // router, with the rolling compaction policy off vs. on. The
    // policy-off arm shows the unbounded fragmentation a long stream
    // accumulates (garbage slots + dead points never reclaimed); the
    // policy-on arm bounds both with one amortized shard check per
    // frame. Exactness is spot-checked at the end of each arm.
    // ------------------------------------------------------------------
    let _ = writeln!(json, "  \"soak\": {{");
    let soak_frames = 200usize;
    let soak_churn = (cloud_n / 50).max(1); // 2 % of the cloud per frame
    let _ = writeln!(json, "    \"frames\": {soak_frames},");
    let _ = writeln!(json, "    \"churn_points\": {soak_churn},");
    let _ = writeln!(json, "    \"shards\": {SHARDS},");
    for (ai, policy) in [None, Some(CompactionPolicy::default())]
        .into_iter()
        .enumerate()
    {
        let label = if policy.is_some() {
            "policy_on"
        } else {
            "policy_off"
        };
        let mut router = ShardRouter::bonsai(
            &cloud,
            KdTreeConfig::default(),
            ShardConfig::with_shards(SHARDS),
        );
        let mut live: Vec<u32> = (0..cloud_n as u32).collect();
        // Coordinates tracked per slot: shard rebuilds retire dead
        // globals into the free list and later inserts recycle them,
        // so a global index no longer encodes which insert it was.
        let mut live_coords = cloud.clone();
        let mut max_ratio = 0.0f64;
        let mut compactions = 0usize;
        let start = Instant::now();
        for frame in 0..soak_frames {
            for j in 0..soak_churn {
                let pos = (frame.wrapping_mul(31) + j * 7919) % live.len();
                router.delete(live[pos]);
                let p = insert_source[(frame * soak_churn + j) % insert_source.len()];
                live[pos] = router.insert(p).expect("finite insert");
                live_coords[pos] = p;
            }
            router.commit();
            if let Some(policy) = &policy {
                if router.compact_next(policy).is_some() {
                    compactions += 1;
                }
            }
            let ratio = router.garbage_slots() as f64 / router.slot_count().max(1) as f64;
            max_ratio = max_ratio.max(ratio);
        }
        let ms_per_frame = start.elapsed().as_secs_f64() * 1e3 / soak_frames as f64;
        let final_ratio = router.garbage_slots() as f64 / router.slot_count().max(1) as f64;
        let resident_mb = router.resident_bytes() as f64 / (1024.0 * 1024.0);

        // Exactness spot check: the soaked router must still match a
        // fresh single tree over its live points (indices remapped).
        {
            let mut pairs: Vec<(u32, _)> = live
                .iter()
                .copied()
                .zip(live_coords.iter().copied())
                .collect();
            pairs.sort_unstable_by_key(|&(g, _)| g);
            let sorted_live: Vec<u32> = pairs.iter().map(|&(g, _)| g).collect();
            let live_pts: Vec<_> = pairs.iter().map(|&(_, p)| p).collect();
            let mut sim = SimEngine::disabled();
            let fresh = BonsaiTree::build(live_pts, KdTreeConfig::default(), &mut sim);
            let len = sorted_live.last().map_or(0, |&g| g as usize + 1);
            let mut points = vec![Point3::ZERO; len];
            for &(g, p) in &pairs {
                points[g as usize] = p;
            }
            let origins = (
                router.snapshot().point_origins(),
                remap_origins(&fresh.kd_tree().point_origins(), &sorted_live, len),
            );
            let mut batch = QueryBatch::new();
            let probes: Vec<_> = queries.iter().copied().step_by(97).collect();
            router.snapshot().search_batch(&probes, RADIUS, &mut batch);
            for (i, &q) in probes.iter().enumerate() {
                let mut expect = fresh.radius_search_simple(q, RADIUS);
                for n in &mut expect {
                    n.index = sorted_live[n.index as usize];
                }
                expect.sort_unstable_by_key(|n| n.index);
                assert_same_hits(
                    q,
                    &points,
                    batch.results(i),
                    &expect,
                    Some((&origins.0, &origins.1)),
                    &format!("{label} probe {i}"),
                );
            }
        }

        println!(
            "soak {label:>10}: garbage ratio final {final_ratio:.3} (max {max_ratio:.3}) | \
             resident {resident_mb:>7.2} MiB | {compactions:>3} shard rebuilds | \
             {ms_per_frame:.2} ms/frame"
        );
        let _ = writeln!(json, "    \"{label}\": {{");
        let _ = writeln!(json, "      \"final_garbage_ratio\": {final_ratio:.4},");
        let _ = writeln!(json, "      \"max_garbage_ratio\": {max_ratio:.4},");
        let _ = writeln!(
            json,
            "      \"resident_bytes\": {},",
            router.resident_bytes()
        );
        let _ = writeln!(json, "      \"shard_rebuilds\": {compactions},");
        let _ = writeln!(json, "      \"ms_per_frame\": {ms_per_frame:.3}");
        let _ = writeln!(json, "    }}{}", if ai == 0 { "," } else { "" });
    }
    let _ = writeln!(json, "  }},");

    // ------------------------------------------------------------------
    // Open-loop serving latency: clients arrive at a fixed rate against
    // a `bonsai-serve` executor over published router epochs, and each
    // request's latency is completion − *scheduled* arrival (open-loop:
    // a slow answer does not delay the next arrival, so queueing delay
    // is charged honestly). Two arrival rates, each measured churn-free
    // and again with a concurrent churn thread mutating the router and
    // publishing fresh epochs — the snapshot-isolation design means
    // ingest must cost queue time, never correctness or a stall.
    // ------------------------------------------------------------------
    let _ = writeln!(json, "  \"latency\": {{");
    let rates: [u64; 2] = [500, 2000];
    let window_ms: u64 = if quick { 250 } else { 2000 };
    let _ = writeln!(json, "    \"rates_per_sec\": [{}, {}],", rates[0], rates[1]);
    let _ = writeln!(json, "    \"window_ms\": {window_ms},");
    let _ = writeln!(json, "    \"shards\": {SHARDS},");
    for (ci, churn) in [false, true].into_iter().enumerate() {
        let arm = if churn { "churn" } else { "no_churn" };
        let _ = writeln!(json, "    \"{arm}\": {{");
        for (ri, &rate) in rates.iter().enumerate() {
            let mut router = ShardRouter::bonsai(
                &cloud,
                KdTreeConfig::default(),
                ShardConfig::with_shards(SHARDS),
            );
            let publisher =
                std::sync::Arc::new(bonsai_core::EpochPublisher::new(router.snapshot()));
            let server = bonsai_serve::Server::new(
                std::sync::Arc::clone(&publisher),
                bonsai_serve::ServeConfig {
                    queue_capacity: 8192,
                    max_batch: 32,
                },
            );
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let churn_thread = churn.then(|| {
                let publisher = std::sync::Arc::clone(&publisher);
                let stop = std::sync::Arc::clone(&stop);
                let insert_source = insert_source.clone();
                std::thread::spawn(move || {
                    let mut epochs = 0u64;
                    let mut cursor = 0usize;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        // A small mutation burst per round: short
                        // bursts keep each writer time-slice (and so
                        // the worst reader stall on a one-core runner)
                        // bounded, while the 4 ms cadence still
                        // publishes a fresh epoch every few frames'
                        // worth of queries.
                        for j in 0..8 {
                            router.delete(((cursor + j) % cloud_n) as u32);
                            let p = insert_source[(cursor + j) % insert_source.len()];
                            let _ = router.insert(p);
                        }
                        cursor += 8;
                        router.commit();
                        publisher.publish(router.snapshot());
                        epochs += 1;
                        std::thread::sleep(std::time::Duration::from_millis(4));
                    }
                    epochs
                })
            });

            // Warm the executor (spawn + first batch) before timing.
            for &q in queries.iter().take(16) {
                let _ = server.radius_query(q, RADIUS);
            }

            let total_arrivals = (rate * window_ms / 1000).max(1) as usize;
            let gap = std::time::Duration::from_nanos(1_000_000_000 / rate);
            // Submitter paces the open-loop arrival grid; a dedicated
            // harvester blocks on each ticket in FIFO order so every
            // completion is timestamped by a condvar wake, not by
            // whenever the pacing loop happens to look. Latency is
            // charged from the actual submit instant: the arrival grid
            // never slips to server speed, but OS timer overshoot in
            // the load generator is not billed to the server (a late
            // burst of arrivals still queues, and that queueing is in
            // the completion−submit window).
            struct InFlight {
                queue: std::collections::VecDeque<(Instant, bonsai_serve::Ticket)>,
                closed: bool,
            }
            let in_flight = std::sync::Mutex::new(InFlight {
                queue: std::collections::VecDeque::new(),
                closed: false,
            });
            let handoff = std::sync::Condvar::new();
            let mut rejected = 0usize;
            let mut latencies_us: Vec<f64> = std::thread::scope(|s| {
                let harvester = s.spawn(|| {
                    let mut latencies = Vec::with_capacity(total_arrivals);
                    loop {
                        let entry = {
                            let mut q = in_flight.lock().expect("in-flight queue");
                            loop {
                                if let Some(entry) = q.queue.pop_front() {
                                    break Some(entry);
                                }
                                if q.closed {
                                    break None;
                                }
                                q = handoff.wait(q).expect("in-flight queue");
                            }
                        };
                        let Some((submitted, ticket)) = entry else {
                            return latencies;
                        };
                        ticket.wait().expect("bench query served");
                        latencies.push((Instant::now() - submitted).as_secs_f64() * 1e6);
                    }
                });
                let pacer_start = Instant::now();
                for k in 0..total_arrivals {
                    let scheduled = pacer_start + gap * k as u32;
                    loop {
                        let now = Instant::now();
                        if now >= scheduled {
                            break;
                        }
                        let remaining = scheduled - now;
                        if remaining > std::time::Duration::from_micros(300) {
                            std::thread::sleep(remaining - std::time::Duration::from_micros(200));
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    match server.submit(queries[k % queries.len()], RADIUS) {
                        Ok(ticket) => {
                            in_flight
                                .lock()
                                .expect("in-flight queue")
                                .queue
                                .push_back((Instant::now(), ticket));
                            handoff.notify_all();
                        }
                        Err(_) => rejected += 1,
                    }
                }
                in_flight.lock().expect("in-flight queue").closed = true;
                handoff.notify_all();
                harvester.join().expect("harvester thread")
            });
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let epochs_published = churn_thread
                .map(|h| h.join().expect("churn thread"))
                .unwrap_or(0);

            latencies_us.sort_unstable_by(|a, b| a.total_cmp(b));
            let pct = |p: f64| -> f64 {
                let idx = ((latencies_us.len() as f64 - 1.0) * p).round() as usize;
                latencies_us[idx]
            };
            let (p50, p95, p99) = (pct(0.50), pct(0.95), pct(0.99));
            let served = latencies_us.len();
            println!(
                "latency {arm:>9} @ {rate:>5}/s: p50 {p50:>8.1} µs | p95 {p95:>8.1} µs | \
                 p99 {p99:>8.1} µs | served {served} rejected {rejected} | \
                 epochs published {epochs_published}"
            );
            let _ = writeln!(json, "      \"rate_{rate}\": {{");
            let _ = writeln!(json, "        \"p50_us\": {p50:.1},");
            let _ = writeln!(json, "        \"p95_us\": {p95:.1},");
            let _ = writeln!(json, "        \"p99_us\": {p99:.1},");
            let _ = writeln!(json, "        \"served\": {served},");
            let _ = writeln!(json, "        \"rejected\": {rejected},");
            let _ = writeln!(json, "        \"epochs_published\": {epochs_published}");
            let _ = writeln!(json, "      }}{}", if ri == 0 { "," } else { "" });
        }
        let _ = writeln!(json, "    }}{}", if ci == 0 { "," } else { "" });
    }
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    // --quick (the CI smoke) writes to a sibling path so it can never
    // clobber the committed full-run artifact.
    let out_path = if quick {
        "BENCH_radius_batch.quick.json"
    } else {
        "BENCH_radius_batch.json"
    };
    std::fs::write(out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path}");
}
