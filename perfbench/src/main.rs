//! `perfbench`: the melody benchmark. Runs one workload against the
//! public `melody` API for a fixed time and prints its metrics; the last
//! line of stdout is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload quick_cold|long_detailed|server_fast \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced job and reports per-layer metrics. Run it
//! from the repository root: inputs are read from `datasets/` and
//! `tests/golden/`, scratch files go to `.perfbench-work/`.

mod alloc;
mod jobs;
mod layers;
mod specs;
mod stats;
mod trace;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use jobs::{Env, Measured};
use layers::Metric;
use stats::{median, tail_percentile};

const WORKLOADS: [&str; 3] = ["quick_cold", "long_detailed", "server_fast"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: jobs::DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Machine descriptor: time of a fixed integer loop, so a run on a
/// slowed-down machine shows.
fn calibration_ms() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..50_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(black_box(i));
    }
    black_box(x);
    jobs::ms_since(t0)
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn end_to_end(m: &Measured, lines: &mut Vec<String>) -> Vec<Metric> {
    let p50 = median(&m.job_ms).unwrap_or(0.0);
    lines.push(format!(
        "jobs: {} timed, {} attempted, {} failed; {} cells per job",
        m.job_ms.len(),
        m.attempted,
        m.failures.len(),
        m.cells_per_job
    ));
    let each: Vec<String> = m.job_ms.iter().map(|ms| format!("{ms:.1}")).collect();
    if each.len() <= 12 {
        lines.push(format!("job ms: {}", each.join(" ")));
    }
    // The tail percentile is printed only with ten samples beyond it.
    match tail_percentile(&m.job_ms, 90.0) {
        Some(p90) => lines.push(format!(
            "job_p90_ms {p90} ms (from {} jobs)",
            m.job_ms.len()
        )),
        None => lines.push(format!(
            "job_p90_ms not reported: {} jobs, 100 needed",
            m.job_ms.len()
        )),
    }
    // Resident memory depends on how the allocator reuses freed pages,
    // which varies from seed to seed; the gated memory metric is the
    // peak of live heap bytes instead.
    if let Some(rss) = peak_rss_mb() {
        lines.push(format!("peak_rss_mb {rss} MB"));
    }
    let ok = m.attempted - m.failures.len();
    vec![
        ("setup_s".into(), median(&m.setup_s).unwrap_or(0.0), "s"),
        (
            "cells_per_s".into(),
            if p50 > 0.0 {
                m.cells_per_job as f64 / (p50 / 1e3)
            } else {
                0.0
            },
            "1/s",
        ),
        ("job_p50_ms".into(), p50, "ms"),
        (
            "ok_ratio".into(),
            ok as f64 / m.attempted.max(1) as f64,
            "ratio",
        ),
        (
            "peak_heap_mb".into(),
            alloc::peak_bytes() as f64 / (1 << 20) as f64,
            "MB",
        ),
    ]
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let area = root.join(".perfbench-work");
    let env = Env {
        root: root.clone(),
        work: area.join(&args.workload),
        seed: args.seed,
        seconds: args.seconds,
    };
    jobs::remove_dir(&env.work)?;
    // One campaign worker, set explicitly: the second core stays with
    // the OS and the harness.
    melody::exec::set_jobs(1);
    let mut lines = vec![
        format!(
            "perfbench {} seed={} seconds={} trace={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!(
            "machine: nproc={} calibration_ms={:.3}",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            calibration_ms()
        ),
    ];
    let (metrics, attempted, failures) = if args.trace {
        let mut tr = match args.workload.as_str() {
            "quick_cold" => layers::quick_cold(&env),
            "long_detailed" => layers::long_detailed(&env),
            _ => layers::server_fast(&env),
        }?;
        let metrics = tr.metrics();
        let spans = area.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&spans, tr.spans_json()).map_err(|e| format!("{}: {e}", spans.display()))?;
        lines.append(&mut tr.lines);
        lines.push(format!("spans: {}", spans.display()));
        (metrics, tr.attempted, tr.failures)
    } else {
        let m = match args.workload.as_str() {
            "quick_cold" => jobs::quick_cold(&env),
            "long_detailed" => jobs::long_detailed(&env),
            _ => jobs::server_fast(&env),
        }?;
        let metrics = end_to_end(&m, &mut lines);
        (metrics, m.attempted, m.failures)
    };
    jobs::remove_dir(&env.work)?;
    for (name, value, unit) in &metrics {
        lines.push(format!("{name:<28} {value:>14.4} {unit}"));
    }
    for f in &failures {
        lines.push(format!("FAILED {f}"));
    }
    let correct = failures.is_empty() && attempted > 0;
    for l in lines {
        println!("{l}");
    }
    println!(
        "{}",
        result_line(correct, attempted.max(1), failures.len(), &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
