//! Integration tests for the telemetry layer: histogram merge algebra,
//! ring-buffer overflow, span nesting, per-run phase spans, trace
//! determinism across worker counts, and simulation-identity with
//! instrumentation on vs off.
//!
//! Telemetry mode and the worker-pool size are process-global, so every
//! test that touches them serializes on [`GATE`] and restores the
//! defaults before releasing it.

use std::sync::Mutex;

use melody::prelude::*;
use melody_stats::LatencyHistogram;
use melody_telemetry::{
    collect, reset, set_mode, EventKind, MetricsRegistry, Mode, SpanStack, TraceBuf,
};

/// Serializes tests that mutate process-global telemetry/exec state.
static GATE: Mutex<()> = Mutex::new(());

fn hist_of(values: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

#[test]
fn histogram_merge_is_associative_and_commutative() {
    let a = hist_of(&[1, 50, 900]);
    let b = hist_of(&[7, 7, 120_000]);
    let c = hist_of(&[3_000_000, 12]);

    // (a ⊕ b) ⊕ c
    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    // a ⊕ (b ⊕ c)
    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);
    // c ⊕ b ⊕ a (commuted)
    let mut rev = c.clone();
    rev.merge(&b);
    rev.merge(&a);

    for h in [&right, &rev] {
        assert_eq!(left.count(), h.count());
        assert_eq!(left.min(), h.min());
        assert_eq!(left.max(), h.max());
        for p in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(left.percentile(p), h.percentile(p));
        }
    }
}

#[test]
fn metrics_registry_merge_is_associative() {
    let reg = |k: &'static str, n: u64| {
        let mut r = MetricsRegistry::default();
        r.count(k, n);
        r.record(k, n * 10);
        r.gauge(k, 10_000_000, n * 1_000_000, n as f64);
        r
    };
    let (a, b, c) = (reg("x", 1), reg("y", 2), reg("x", 3));

    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);

    assert_eq!(
        serde_json::to_string(&left).unwrap(),
        serde_json::to_string(&right).unwrap()
    );
}

#[test]
fn ring_buffer_overflow_drops_oldest_and_counts() {
    let mut buf = TraceBuf::with_capacity(4);
    for i in 0..7u64 {
        buf.push(melody_telemetry::TraceEvent {
            ts_ps: i,
            dur_ps: 0,
            kind: EventKind::CellStart,
            a: i,
            b: 0,
        });
    }
    assert_eq!(buf.len(), 4);
    assert_eq!(buf.dropped(), 3);
    // The three oldest events (ts 0..=2) are gone; iteration is oldest
    // surviving first.
    let ts: Vec<u64> = buf.iter().map(|e| e.ts_ps).collect();
    assert_eq!(ts, vec![3, 4, 5, 6]);
}

#[test]
fn span_nesting_credits_self_and_child_time() {
    let mut stack = SpanStack::default();
    let outer = stack.enter("outer");
    let inner = stack.enter("inner");
    std::thread::sleep(std::time::Duration::from_millis(2));
    stack.exit(inner);
    stack.exit(outer);

    let outer_stat = stack.profile.spans["outer"];
    let inner_stat = stack.profile.spans["inner"];
    assert_eq!(outer_stat.count, 1);
    assert_eq!(inner_stat.count, 1);
    // All of inner's time is self time; outer's self time excludes it.
    assert_eq!(inner_stat.total_ns, inner_stat.self_ns);
    assert!(outer_stat.total_ns >= inner_stat.total_ns);
    assert!(outer_stat.self_ns <= outer_stat.total_ns - inner_stat.total_ns);
}

#[test]
fn run_workload_profiles_its_phases() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    reset();
    set_mode(Mode::Metrics);
    let w = registry::by_name("605.mcf").expect("mcf");
    let opts = RunOptions {
        mem_refs: 2_000,
        ..Default::default()
    };
    let _ = run_workload(&Platform::emr2s(), &presets::cxl_b(), &w, &opts);
    set_mode(Mode::Off);
    let profile = collect().profile;
    for phase in ["run.core_new", "run.warm", "run.simulate"] {
        let n = profile.spans.get(phase).map(|s| s.count);
        assert_eq!(n, Some(1), "{phase} must be profiled once per run");
    }
    assert!(
        !profile.spans.contains_key("run.spa_guide"),
        "a plain device synthesizes no guide"
    );
}

fn small_population() -> Vec<PairOutcome> {
    let workloads: Vec<_> = registry::all().into_iter().take(3).collect();
    run_population_par(
        &Platform::emr2s(),
        &presets::local_emr(),
        &presets::cxl_b(),
        &workloads,
        &RunOptions {
            mem_refs: 4_000,
            ..Default::default()
        },
    )
}

#[test]
fn trace_is_byte_identical_across_worker_counts() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut exports = Vec::new();
    for jobs in [1, 4] {
        melody::exec::set_jobs(jobs);
        set_mode(Mode::Trace);
        let _ = small_population();
        set_mode(Mode::Off);
        let collected = collect();
        assert!(collected.events.len() > 100, "trace should have events");
        exports.push(collected.chrome_trace());
    }
    melody::exec::set_jobs(0);
    reset();
    assert_eq!(exports[0], exports[1], "trace must not depend on --jobs");
}

#[test]
fn campaign_trace_is_byte_identical_across_worker_counts() {
    // Cells share runs: the lowest-index cell that needs a run simulates
    // it inside its own capture, so every event lands in the same cell
    // however the workers interleave.
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let spec: CampaignSpec = serde_json::from_str(
        r#"{
            "name": "shared-trace",
            "platforms": ["emr2s", "spr2s"],
            "devices": ["local", "cxl-b"],
            "faults": ["none", "retrain"],
            "policies": ["static", "clock"],
            "workloads": ["605.mcf"],
            "mem_refs": 2000
        }"#,
    )
    .expect("spec");
    let mut exports = Vec::new();
    for jobs in [1, 4] {
        melody::exec::set_jobs(jobs);
        set_mode(Mode::Trace);
        let run = run_campaign(
            &spec,
            Shard::full(),
            &mut Journal::in_memory(),
            None,
            &CellPolicy::default(),
        );
        set_mode(Mode::Off);
        let collected = collect();
        let stats = run.expect("campaign").stats;
        assert_eq!((stats.simulated, stats.runs_simulated), (16, 13));
        assert!(collected.events.len() > 100, "trace should have events");
        exports.push(collected.chrome_trace());
    }
    melody::exec::set_jobs(0);
    reset();
    assert_eq!(exports[0], exports[1], "trace must not depend on --jobs");
}

#[test]
fn telemetry_does_not_perturb_simulation() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    set_mode(Mode::Off);
    reset();
    let off = small_population();
    set_mode(Mode::Trace);
    let on = small_population();
    set_mode(Mode::Off);
    reset();
    for (a, b) in off.iter().zip(&on) {
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.local.counters, b.local.counters);
        assert_eq!(a.target.counters, b.target.counters);
    }
}
