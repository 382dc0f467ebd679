//! Wall-clock bench-regression gate for CI.
//!
//! Times a fixed set of simulator kernels with [`std::time::Instant`]
//! (min of N samples after one warmup — the minimum is the most
//! layout-noise-resistant point estimate on shared runners; a sample
//! repeats the kernel back to back until it spans at least
//! [`MIN_SAMPLE_MS`], so kernels below timer resolution report a real
//! ms-per-call), compares each against the checked-in baseline in the
//! `gate` section of `BENCH_parallel.json`, and exits non-zero when any
//! kernel regresses past the tolerance. Improvements beyond the
//! tolerance pass but are flagged so the baseline gets refreshed. A
//! kernel baseline that is not a number, zero or not finite is a load
//! error (exit 2) unless `--update` is replacing it: it cannot be
//! compared against.
//!
//! ```sh
//! cargo run --release -p melody-bench --bin bench-gate            # gate
//! cargo run --release -p melody-bench --bin bench-gate -- --update # refresh baseline
//! ```
//!
//! Flags: `--update` rewrites the baseline numbers in place (the rest
//! of `BENCH_parallel.json` is preserved); `--iters N` overrides the
//! timed iteration count; `--tolerance PCT` (or the
//! `MELODY_BENCH_TOLERANCE` env var) overrides the regression budget;
//! `--baseline PATH` points at a different baseline file.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use melody::prelude::*;
use melody_bench::{bench_opts, bench_workloads};
use melody_telemetry::{reset, set_mode, Mode};
use serde::Value;

/// Kernel names, in run order. Each is one simulator hot path the
/// telemetry layer touches: the single-cell pair run, the serial and
/// fanned-out population sweeps, the pair run with metrics enabled, and
/// the same pair run at the two reduced fidelity tiers (these also give
/// CI a speedup record: sampled and fast must stay well under detailed).
const KERNELS: &[&str] = &[
    "run_pair/mcf_cxl_b",
    "population/serial",
    "population/jobs4",
    "run_pair/metrics_on",
    "run_pair/mcf_cxl_b_sampled",
    "run_pair/mcf_cxl_b_fast",
];

fn run_kernel(name: &str, w: &WorkloadSpec, workloads: &[WorkloadSpec], opts: &RunOptions) {
    let platform = Platform::emr2s();
    match name {
        "run_pair/mcf_cxl_b"
        | "run_pair/metrics_on"
        | "run_pair/mcf_cxl_b_sampled"
        | "run_pair/mcf_cxl_b_fast" => {
            black_box(run_pair(
                &platform,
                &presets::local_emr(),
                &presets::cxl_b(),
                w,
                opts,
            ));
        }
        "population/serial" => {
            black_box(run_population(
                &platform,
                &presets::local_emr(),
                &presets::cxl_a(),
                workloads,
                opts,
            ));
        }
        "population/jobs4" => {
            black_box(run_population_par(
                &platform,
                &presets::local_emr(),
                &presets::cxl_a(),
                workloads,
                opts,
            ));
        }
        _ => unreachable!("unknown kernel {name}"),
    }
}

/// Shortest interval one timing sample may span, in milliseconds.
const MIN_SAMPLE_MS: f64 = 10.0;

/// Times `name`: one warmup run, then the minimum over `iters` samples
/// of milliseconds per call, each sample repeating the kernel until it
/// spans [`MIN_SAMPLE_MS`]. Telemetry mode and the worker pool are
/// configured per kernel and restored afterwards.
fn time_kernel(name: &str, iters: u32) -> f64 {
    let w = registry::by_name("605.mcf").expect("mcf");
    let workloads = bench_workloads();
    let mut opts = bench_opts();
    if name.ends_with("_sampled") {
        // Bench refs are tiny; shrink the schedule proportionally so the
        // kernel actually exercises fast-forward windows.
        opts.fidelity = melody_cpu::Fidelity::Sampled;
        opts.sampling = melody_cpu::SamplingParams {
            warmup_slots: 64,
            window_slots: 256,
            period_slots: 2_048,
        };
    } else if name.ends_with("_fast") {
        opts.fidelity = melody_cpu::Fidelity::Fast;
    }
    if name == "run_pair/metrics_on" {
        set_mode(Mode::Metrics);
    }
    if name == "population/jobs4" {
        melody::exec::set_jobs(4);
    }
    run_kernel(name, &w, &workloads, &opts); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        let mut calls = 0u32;
        let ms = loop {
            run_kernel(name, &w, &workloads, &opts);
            calls += 1;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if ms >= MIN_SAMPLE_MS {
                break ms;
            }
        };
        best = best.min(ms / f64::from(calls));
    }
    set_mode(Mode::Off);
    reset();
    melody::exec::set_jobs(0);
    best
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn default_baseline() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_parallel.json")
}

/// Tolerance (percent) and timed-sample count from the `gate` section,
/// with defaults.
fn gate_settings(root: &Value) -> (f64, u32) {
    let gate = get(root, "gate");
    let setting = |key| gate.and_then(|g| get(g, key)).and_then(as_f64);
    (
        setting("tolerance_pct").unwrap_or(15.0),
        setting("iters").unwrap_or(3.0) as u32,
    )
}

/// Baseline ms per kernel from the `gate` section. Every entry must be a
/// positive, finite number; anything else is an error rather than
/// something to compare against (a zero baseline would make every delta
/// +inf).
fn baseline_kernels(root: &Value) -> Result<Vec<(String, f64)>, String> {
    let Some(pairs) = get(root, "gate")
        .and_then(|g| get(g, "kernels"))
        .and_then(Value::as_object)
    else {
        return Ok(Vec::new());
    };
    pairs
        .iter()
        .map(|(k, v)| match as_f64(v) {
            Some(ms) if ms.is_finite() && ms > 0.0 => Ok((k.clone(), ms)),
            Some(ms) => Err(format!(
                "kernel {k}: baseline {ms} ms is not a positive, finite time"
            )),
            None => Err(format!("kernel {k}: baseline is not a number")),
        })
        .collect()
}

/// Outcome of one kernel against its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ok,
    Regression,
    Improved,
}

/// Percent change of `measured` over `base` (a positive, finite
/// baseline, as [`baseline_kernels`] guarantees) and its status under a
/// symmetric `tolerance_pct` band.
fn judge(base: f64, measured: f64, tolerance_pct: f64) -> (f64, Status) {
    let delta = (measured - base) / base * 100.0;
    let status = if delta > tolerance_pct {
        Status::Regression
    } else if delta < -tolerance_pct {
        Status::Improved
    } else {
        Status::Ok
    };
    (delta, status)
}

/// Replaces (or appends) the `gate` section of the baseline file's value
/// tree, preserving every other section.
fn set_gate(root: &mut Value, gate: Value) {
    let Value::Object(pairs) = root else {
        *root = Value::Object(vec![("gate".into(), gate)]);
        return;
    };
    match pairs.iter_mut().find(|(k, _)| k == "gate") {
        Some((_, v)) => *v = gate,
        None => pairs.push(("gate".into(), gate)),
    }
}

fn gate_value(tolerance_pct: f64, iters: u32, measured: &[(String, f64)]) -> Value {
    let kernels = measured
        .iter()
        .map(|(k, ms)| (k.clone(), Value::F64(((ms * 1e3).round() / 1e3).max(1e-3))))
        .collect();
    Value::Object(vec![
        (
            "note".into(),
            Value::Str(
                "min-of-N wall-clock ms per call (µs precision) per kernel; refresh with \
                 `cargo run --release -p melody-bench --bin bench-gate -- --update`"
                    .into(),
            ),
        ),
        ("tolerance_pct".into(), Value::F64(tolerance_pct)),
        ("iters".into(), Value::U64(iters as u64)),
        ("kernels".into(), Value::Object(kernels)),
    ])
}

fn main() -> ExitCode {
    let mut update = false;
    let mut baseline_path = default_baseline();
    let mut iters_override: Option<u32> = None;
    let mut tol_override: Option<f64> = std::env::var("MELODY_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok());
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--update" => update = true,
            "--baseline" => match args.next() {
                Some(p) => baseline_path = PathBuf::from(p),
                None => {
                    eprintln!("--baseline expects a path");
                    return ExitCode::from(2);
                }
            },
            "--iters" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => iters_override = Some(n),
                None => {
                    eprintln!("--iters expects a count");
                    return ExitCode::from(2);
                }
            },
            "--tolerance" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) => tol_override = Some(t),
                None => {
                    eprintln!("--tolerance expects a percentage");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag {other}; usage: bench-gate [--update] [--iters N] [--tolerance PCT] [--baseline PATH]");
                return ExitCode::from(2);
            }
        }
    }

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
    };
    let mut root: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cannot parse {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
    };
    // `--update` replaces the kernel baselines, so only a gate run
    // needs them to be valid.
    let baseline = match baseline_kernels(&root) {
        Ok(b) => b,
        Err(_) if update => Vec::new(),
        Err(e) => {
            eprintln!("bad baseline in {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
    };
    let (file_tolerance, file_iters) = gate_settings(&root);
    let tolerance = tol_override.unwrap_or(file_tolerance);
    let iters = iters_override.unwrap_or(file_iters);

    println!(
        "== bench gate: min of {iters} wall-clock runs per kernel, tolerance +{tolerance:.1}% =="
    );
    let mut measured = Vec::new();
    for name in KERNELS {
        let ms = time_kernel(name, iters);
        println!("  timed {name:24} {ms:>10.3} ms");
        measured.push((name.to_string(), ms));
    }

    if update {
        set_gate(&mut root, gate_value(tolerance, iters, &measured));
        let pretty = match serde_json::to_string_pretty(&root) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("cannot render baseline: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&baseline_path, pretty + "\n") {
            eprintln!("cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!("baseline refreshed: {}", baseline_path.display());
        return ExitCode::SUCCESS;
    }

    println!();
    println!(
        "  {:24} {:>10} {:>10} {:>8}  status",
        "kernel", "baseline", "measured", "delta"
    );
    let mut failed = false;
    for (name, ms) in &measured {
        match baseline.iter().find(|(k, _)| k == name) {
            Some((_, base)) => {
                let (delta, status) = judge(*base, *ms, tolerance);
                failed |= status == Status::Regression;
                let status = match status {
                    Status::Ok => "ok",
                    Status::Regression => "REGRESSION",
                    Status::Improved => "improved (refresh baseline with --update)",
                };
                println!("  {name:24} {base:>10.3} {ms:>10.3} {delta:>+7.1}%  {status}");
            }
            None => {
                failed = true;
                println!(
                    "  {name:24} {:>10} {ms:>10.3} {:>8}  NEW (no baseline; run --update)",
                    "-", "-"
                );
            }
        }
    }
    if failed {
        eprintln!("bench gate FAILED (tolerance +{tolerance:.1}%)");
        return ExitCode::FAILURE;
    }
    println!("bench gate passed");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate_with(kernels: &str) -> Value {
        let text =
            format!(r#"{{"gate": {{"tolerance_pct": 15, "iters": 3, "kernels": {kernels}}}}}"#);
        serde_json::from_str(&text).expect("valid json")
    }

    #[test]
    fn judge_bands_the_delta_symmetrically() {
        assert_eq!(judge(10.0, 11.0, 15.0), (10.0, Status::Ok));
        assert_eq!(judge(10.0, 12.0, 15.0).1, Status::Regression);
        assert_eq!(judge(10.0, 8.0, 15.0).1, Status::Improved);
        assert_eq!(
            judge(10.0, 11.5, 15.0).1,
            Status::Ok,
            "the band edge passes"
        );
        let (delta, status) = judge(0.002, 0.003, 15.0);
        assert!(
            (delta - 50.0).abs() < 1e-9,
            "sub-timer baselines compare finitely"
        );
        assert_eq!(status, Status::Regression);
    }

    #[test]
    fn zero_or_non_numeric_baselines_are_load_errors() {
        let ok = baseline_kernels(&gate_with(r#"{"a": 270.1, "b": 0.004}"#)).expect("valid");
        assert_eq!(ok, vec![("a".into(), 270.1), ("b".into(), 0.004)]);
        for bad in [
            r#"{"a": 0}"#,
            r#"{"a": -1.5}"#,
            r#"{"a": "fast"}"#,
            r#"{"a": null}"#,
        ] {
            let err = baseline_kernels(&gate_with(bad)).err();
            assert!(
                err.is_some_and(|e| e.contains("kernel a")),
                "{bad} must not load"
            );
        }
    }

    #[test]
    fn update_keeps_microsecond_precision() {
        let v = gate_value(15.0, 3, &[("k".into(), 0.0123456), ("tiny".into(), 1e-5)]);
        let root = Value::Object(vec![("gate".into(), v)]);
        assert_eq!(gate_settings(&root), (15.0, 3));
        let back = baseline_kernels(&root).expect("reload");
        assert_eq!(back, vec![("k".into(), 0.012), ("tiny".into(), 0.001)]);
    }
}
