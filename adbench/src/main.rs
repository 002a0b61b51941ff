//! The benchmark's command line.
//!
//! ```sh
//! cargo run --release --offline --manifest-path adbench/Cargo.toml -- \
//!     --workload drive_cluster --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints the host fingerprint and one line per metric, then, as the
//! last line, the result object `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics of the named
//! workload; `--trace 1` runs the traced pass of every workload (the
//! named one first, with the tracing-overhead measurement), writes the
//! spans to `adbench/out/` and reports the per-layer metrics.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use adbench::alloc::CountingAlloc;
use adbench::trace::{self, Tracer};
use adbench::{drive, host, ndt, serve, Report, RunConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WORKLOADS: [&str; 3] = ["drive_cluster", "map_serve", "ndt_localize"];

struct Args {
    workload: String,
    cfg: RunConfig,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
        },
        trace,
    })
}

type Pass = fn(&RunConfig, &Tracer, Duration, bool) -> Result<(Report, Vec<trace::Span>), String>;

/// The traced run: every workload's traced pass, the named one first
/// and with the overhead measurement. Per-layer metrics are always
/// measured on the workload whose path the layer sits on.
fn traced_run(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let quarter = Duration::from_secs_f64(args.cfg.seconds / 4.0);
    // The serving pass needs 100 edit ticks (10 s at 10 Hz) for its
    // p90; it runs two phases when it measures the overhead.
    let serve_budget = quarter.max(Duration::from_secs_f64(10.5));
    let mut passes: Vec<(&str, Pass, Duration)> = vec![
        ("drive_cluster", drive::traced, quarter),
        ("map_serve", serve::traced, serve_budget),
        ("ndt_localize", ndt::traced, quarter),
    ];
    passes.sort_by_key(|(name, _, _)| *name != args.workload);
    let mut report = Report::new();
    let mut spans = Vec::new();
    for (i, (name, pass, budget)) in passes.into_iter().enumerate() {
        let overhead = i == 0;
        let budget = if name == "map_serve" && overhead {
            budget / 2
        } else {
            budget
        };
        // Distinct thread ids per pass keep span ids unambiguous in the
        // merged trace file (a pass's helper threads take the next ids).
        let tr = Tracer::new(origin, 10 * i as u32);
        let (r, s) = pass(&args.cfg, &tr, budget, overhead)?;
        eprintln!("traced pass {name}: {} spans", s.len());
        report.absorb(r);
        spans.extend(s);
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload, args.cfg.seed
        ));
    trace::write_jsonl(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# spans: {} written to {}", spans.len(), path.display());
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("adbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("# host {}", host::fingerprint_json());
    let result = if args.trace {
        traced_run(&args)
    } else {
        match args.workload.as_str() {
            "drive_cluster" => drive::run(&args.cfg),
            "map_serve" => serve::run(&args.cfg),
            _ => ndt::run(&args.cfg),
        }
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("adbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for (name, value, unit) in report.metrics() {
        println!("# {name:<32} {value:>16.6} {unit}");
    }
    println!("{}", report.to_json());
    if report.correct && report.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("adbench: outputs diverged from baseline mode or nothing ran");
        ExitCode::from(1)
    }
}
