//! Unit tests of the benchmark's own helpers: percentiles that refuse
//! unsupported tails, quartiles, calibrated whole-pass closed-loop
//! statistics, span self time, and open-loop lateness accounting.

use std::time::{Duration, Instant};

use adbench::loadgen::{self, Next, Timing};
use adbench::stats::{self, MIN_BEYOND};
use adbench::trace::{self, Tracer};
use adbench::calib::Calibration;
use adbench::{calibrated_setup, closed_loop_metrics, whole_passes, Report, MIN_PASSES};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_needs_ten_samples_past_it() {
    assert_eq!(stats::samples_needed(0.99), 1000);
    assert_eq!(stats::samples_needed(0.90), 100);
    assert_eq!(stats::samples_needed(0.50), 20);
    let err = stats::percentile(&ramp(999), 0.99).unwrap_err();
    assert_eq!((err.have, err.need), (999, 1000));
    assert!(stats::percentile(&ramp(99), 0.90).is_err());
    assert!(stats::percentile(&[], 0.5).is_err());
    // At the threshold exactly MIN_BEYOND samples lie past the rank.
    let p = stats::percentile(&ramp(1000), 0.99).unwrap();
    assert_eq!(p, 990.0);
    assert_eq!(1000 - p as usize, MIN_BEYOND);
}

#[test]
fn percentile_is_nearest_rank_and_order_free() {
    let mut v = ramp(100);
    v.reverse();
    assert_eq!(stats::percentile(&v, 0.5).unwrap(), 50.0);
    assert_eq!(stats::percentile(&v, 0.9).unwrap(), 90.0);
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
    let (q1, q3) = stats::quartiles(&ramp(10)).unwrap();
    assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let (q1, q3) = stats::quartiles(&[2.0, 1.0]).unwrap();
    assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    assert!(stats::quartiles(&[1.0]).is_none());
    let frac = stats::iqr_frac(&ramp(10)).unwrap();
    assert!((frac - 5.5 / 5.5).abs() < 1e-12);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
}

#[test]
fn closed_loops_run_whole_passes_in_pool_order() {
    let cal = Calibration::new();
    let mut seen = Vec::new();
    let passes = whole_passes(3, Duration::ZERO, &cal, |k| {
        seen.push(k);
        1.0 + k as f64
    });
    assert_eq!(passes.len(), MIN_PASSES);
    assert_eq!(seen, [0, 1, 2].repeat(MIN_PASSES));
    // Each pass is scaled by one factor, its calibration slowdown, so
    // the operations keep their proportions.
    for p in &passes {
        assert!(p[0] > 0.0 && p[0].is_finite());
        assert!((p[1] / p[0] - 2.0).abs() < 1e-9 && (p[2] / p[0] - 3.0).abs() < 1e-9);
    }
}

#[test]
fn calibration_scales_by_the_kernels_own_time() {
    let cal = Calibration::new();
    let slice = cal.slice();
    assert!(slice > 0.0);
    let f = cal.slowdown(4);
    assert!(f > 0.0 && f.is_finite());
    // Set-up is timed per repetition and the last output handed back.
    let mut n = 0;
    let (secs, last) = calibrated_setup(&cal, 3, || {
        n += 1;
        n
    });
    assert_eq!(last, 3);
    assert!(secs >= 0.0 && secs.is_finite());
}

#[test]
fn closed_loop_metrics_take_whole_run_percentiles() {
    // Eight passes over 20 operations of 1..=20 ms; one pass ran twice
    // as long.
    let passes: Vec<Vec<f64>> = (0..8)
        .map(|w| {
            let scale = if w == 5 { 2.0 } else { 1.0 };
            (1..=20).map(|i| i as f64 * scale).collect()
        })
        .collect();
    let mut r = Report::new();
    closed_loop_metrics(&mut r, &passes, 0.75).unwrap();
    let get = |n: &str| r.metrics().iter().find(|m| m.0 == n).unwrap().1;
    // Rank 80 and 120 of the run's 160 sorted samples.
    assert_eq!(get("p50_ms"), 11.0);
    assert_eq!(get("tail_ms"), 16.0);
    // The median pass rate: the slow pass is one of eight.
    assert_eq!(get("ops_per_s"), 20.0 * 1e3 / 210.0);
    // A run too short for its tail is refused.
    assert!(closed_loop_metrics(&mut r, &[vec![1.0; 19]], 0.5).is_err());
}

#[test]
fn self_time_subtracts_covered_child_time_once() {
    assert_eq!(trace::self_time_ns(0, 100, &[]), 100);
    assert_eq!(trace::self_time_ns(0, 100, &[(10, 30), (50, 60)]), 70);
    // Overlapping children count once; parts outside the parent are
    // clipped.
    assert_eq!(trace::self_time_ns(0, 100, &[(10, 40), (30, 50)]), 60);
    assert_eq!(trace::self_time_ns(10, 20, &[(0, 15), (18, 40)]), 3);
    assert_eq!(trace::self_time_ns(0, 100, &[(0, 100)]), 0);
}

#[test]
fn tracer_nests_spans_and_totals_self_time() {
    let tr = Tracer::new(Instant::now(), 3);
    tr.set_request(7);
    let out = tr.span("outer", || {
        tr.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        5
    });
    assert_eq!(out, 5);
    let spans = tr.take();
    assert_eq!(spans.len(), 2);
    let (outer, inner) = (&spans[0], &spans[1]);
    assert_eq!((outer.name, inner.name), ("outer", "inner"));
    assert_eq!(inner.parent, Some(outer.id));
    assert_eq!((outer.request, outer.thread), (7, 3));
    let t = trace::totals(&spans, "outer");
    assert_eq!(t.count, 1);
    assert_eq!(t.self_ns, outer.dur_ns() - inner.dur_ns());
    assert!(inner.dur_ns() >= 2_000_000);

    let off = Tracer::disabled();
    assert_eq!(off.span("x", || 1), 1);
    assert!(off.take().is_empty());
}

#[test]
fn open_loop_latency_counts_from_the_scheduled_send() {
    // Due at 1 ms, sent 0.5 ms late, answered 0.1 ms after sending.
    let t = Timing {
        scheduled_ns: 1_000_000,
        sent_ns: 1_500_000,
        done_ns: 1_600_000,
    };
    assert_eq!(t.latency_ns(), 600_000);
    assert_eq!(t.late_ns(), 500_000);
    // An early send is not negative lateness.
    let early = Timing {
        scheduled_ns: 10,
        sent_ns: 5,
        done_ns: 20,
    };
    assert_eq!((early.late_ns(), early.latency_ns()), (0, 10));
}

#[test]
fn open_loop_backlog_holds_sends_but_never_ends_the_step() {
    // 1000/s for 10 ms: arrivals 0..10, due every 1 ms.
    let end = 10_000_000;
    assert_eq!(loadgen::next(0, 1000, end, 0, 0, 8), Next::Send(0));
    assert_eq!(
        loadgen::next(3, 1000, end, 2_500_000, 0, 8),
        Next::Wait(500_000)
    );
    // Past the backlog limit nothing is sent, even long after the due
    // time or the step's end...
    assert_eq!(loadgen::next(3, 1000, end, 50_000_000, 9, 8), Next::Hold);
    // ...and once the backlog drains the arrival goes out charged from
    // its due time, not from the send.
    assert_eq!(
        loadgen::next(3, 1000, end, 50_000_000, 8, 8),
        Next::Send(3_000_000)
    );
    // Only an arrival scheduled at or past the end finishes the step.
    assert_eq!(
        loadgen::next(9, 1000, end, 50_000_000, 0, 8),
        Next::Send(9_000_000)
    );
    assert_eq!(loadgen::next(10, 1000, end, 50_000_000, 9, 8), Next::Done);
}

#[test]
fn schedule_is_drift_free() {
    assert_eq!(loadgen::scheduled_ns(0, 10_000), 0);
    assert_eq!(loadgen::scheduled_ns(3, 10_000), 300_000);
    // Arrival k is computed from k, never accumulated gap by gap.
    assert_eq!(loadgen::scheduled_ns(10_000_000, 3), 3_333_333_333_333_333);
}

#[test]
fn report_prints_the_contract_line() {
    let mut r = Report::new();
    r.attempted = 3;
    r.metric("p50_ms", 1.25, "ms");
    r.metric("p50_ms", 1.5, "ms");
    r.metric("bad", f64::NAN, "s");
    assert_eq!(
        r.to_json(),
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": \
         {\"value\": 1.5, \"unit\": \"ms\"}, \"bad\": {\"value\": null, \"unit\": \"s\"}}}"
    );
}
