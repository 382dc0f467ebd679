//! End-to-end determinism: identical inputs produce bit-identical
//! results across the whole stack, and different seeds genuinely differ.

use std::sync::Mutex;

use melody::prelude::*;
use melody_workloads::mlc::{loaded_latency, MlcConfig};

/// Serializes the tests that sweep the process-wide worker count, so
/// each sweep runs at the count it names rather than one a concurrent
/// test set or restored.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with `jobs` workers in force, then restores the default.
fn with_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    // The lock guards no data, so one failed sweep must not poison the
    // others.
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    melody::exec::set_jobs(jobs);
    let r = f();
    melody::exec::set_jobs(0);
    r
}

#[test]
fn full_stack_run_is_deterministic() {
    let w = registry::by_name("bfs-web").expect("bfs-web");
    let opts = RunOptions {
        mem_refs: 6_000,
        sample_interval_ns: Some(10_000),
        ..Default::default()
    };
    let a = run_pair(
        &Platform::emr2s(),
        &presets::local_emr(),
        &presets::cxl_c(),
        &w,
        &opts,
    );
    let b = run_pair(
        &Platform::emr2s(),
        &presets::local_emr(),
        &presets::cxl_c(),
        &w,
        &opts,
    );
    assert_eq!(a.local.counters, b.local.counters);
    assert_eq!(a.target.counters, b.target.counters);
    assert_eq!(a.local.samples.len(), b.local.samples.len());
    assert_eq!(
        a.target.demand_lat_hist.percentile(99.9),
        b.target.demand_lat_hist.percentile(99.9)
    );
}

#[test]
fn parallel_population_is_byte_identical_to_serial() {
    // The parallel experiment engine's contract: run_population_par
    // produces the same values in the same order as the serial
    // run_population, for any worker count. Compare full serialized
    // outcomes (counters, histograms, samples — everything) across
    // several workloads and two device pairs.
    let workloads: Vec<_> = ["bfs-web", "605.mcf", "520.omnetpp"]
        .iter()
        .map(|n| registry::by_name(n).unwrap_or_else(|| panic!("workload {n}")))
        .collect();
    let opts = RunOptions {
        mem_refs: 4_000,
        sample_interval_ns: Some(10_000),
        ..Default::default()
    };
    let platform = Platform::emr2s();
    for target in [presets::cxl_a(), presets::cxl_c()] {
        let serial = run_population(&platform, &presets::local_emr(), &target, &workloads, &opts);
        for jobs in [1, 2, 5] {
            let par = with_jobs(jobs, || {
                run_population_par(&platform, &presets::local_emr(), &target, &workloads, &opts)
            });
            assert_eq!(
                serde_json::to_string(&serial).expect("serialize serial"),
                serde_json::to_string(&par).expect("serialize parallel"),
                "parallel ({jobs} jobs) vs serial mismatch on {}",
                target.name()
            );
        }
    }
}

#[test]
fn inert_fault_config_is_byte_identical_to_baseline_across_jobs() {
    // The fault layer's zero-cost contract: a device carrying an
    // all-zero (inert) FaultConfig attaches no schedule, draws nothing
    // from any RNG stream, and serializes byte-identically to the
    // pre-fault baseline — at any worker count.
    let workloads: Vec<_> = ["bfs-web", "605.mcf"]
        .iter()
        .map(|n| registry::by_name(n).unwrap_or_else(|| panic!("workload {n}")))
        .collect();
    let opts = RunOptions {
        mem_refs: 4_000,
        ..Default::default()
    };
    let platform = Platform::emr2s();
    let baseline = presets::cxl_c();
    let inert = presets::cxl_c().with_faults(melody_mem::FaultConfig::none());
    let reference = serde_json::to_string(&run_population(
        &platform,
        &presets::local_emr(),
        &baseline,
        &workloads,
        &opts,
    ))
    .expect("serialize baseline");
    for jobs in [1, 4] {
        let got = with_jobs(jobs, || {
            run_population_par(&platform, &presets::local_emr(), &inert, &workloads, &opts)
        });
        assert_eq!(
            reference,
            serde_json::to_string(&got).expect("serialize inert"),
            "inert faults must be invisible at {jobs} jobs"
        );
    }
}

#[test]
fn fault_regime_is_byte_identical_across_worker_counts() {
    // Fixed seed + fixed fault regime → one fault timeline, regardless
    // of how the sweep is fanned out.
    let workloads: Vec<_> = ["bfs-web", "605.mcf", "519.lbm"]
        .iter()
        .map(|n| registry::by_name(n).unwrap_or_else(|| panic!("workload {n}")))
        .collect();
    let opts = RunOptions {
        mem_refs: 4_000,
        ..Default::default()
    };
    let platform = Platform::emr2s();
    let target = presets::cxl_c().with_faults(melody_mem::FaultConfig::harsh());
    let mut outputs = Vec::new();
    for jobs in [1, 4] {
        let got = with_jobs(jobs, || {
            run_population_par(&platform, &presets::local_emr(), &target, &workloads, &opts)
        });
        // The regime must actually fire, or this test guards nothing.
        assert!(
            got.iter().any(|o| !o.target.device_stats.ras.is_zero()),
            "harsh regime must produce RAS events"
        );
        outputs.push(serde_json::to_string(&got).expect("serialize"));
    }
    assert_eq!(outputs[0], outputs[1], "1 job vs 4 jobs under faults");
}

/// Both platforms, the `local` device (on emr2s the same run as the
/// baseline), a non-inert fault regime and an adaptive policy: 32 cells
/// whose 64 runs hold 26 distinct ones (faults leave the local DRAM
/// controller as it is, so `local` under `retrain` is `local`).
const SHARED_RUNS_SPEC: &str = r#"{
    "name": "shared-runs",
    "platforms": ["emr2s", "spr2s"],
    "devices": ["local", "cxl-b"],
    "faults": ["none", "retrain"],
    "policies": ["static", "clock"],
    "workloads": ["541.leela", "605.mcf"],
    "mem_refs": 3000
}"#;

#[test]
fn campaign_cells_equal_their_own_run_pair_at_any_worker_count() {
    // A campaign simulates each distinct run once and hands it to every
    // cell that needs it; each cell's outcome must still be exactly the
    // one its own run_pair gives.
    let spec: CampaignSpec = serde_json::from_str(SHARED_RUNS_SPEC).expect("spec");
    let cells = spec.expand().expect("expand");
    assert_eq!(cells.len(), 32);
    let want: Vec<String> = cells
        .iter()
        .map(|c| {
            let o = run_pair(&c.platform, &c.local, &c.target, &c.workload, &c.opts);
            serde_json::to_string(&o).expect("serialize")
        })
        .collect();
    for jobs in [1, 4] {
        let mut journal = Journal::in_memory();
        let run = with_jobs(jobs, || {
            run_campaign(
                &spec,
                Shard::full(),
                &mut journal,
                None,
                &CellPolicy::default(),
            )
        })
        .expect("campaign");
        assert!(run.report.errors.is_empty(), "{:?}", run.report.errors);
        assert_eq!(
            (run.stats.runs_simulated, run.stats.runs_reused),
            (26, 38),
            "{jobs} workers"
        );
        for (c, want) in cells.iter().zip(&want) {
            assert_eq!(
                journal.get(&c.key),
                Some(want.as_str()),
                "{} at {jobs} workers",
                c.label()
            );
        }
    }
}

#[test]
fn tiering_rows_are_identical_at_one_and_four_workers() {
    // Each policy's cell forces tracing on its own thread only, so
    // concurrent cells cannot switch each other's telemetry off and
    // lose migration counts.
    let run = || {
        melody::experiments::tiering::run(
            melody::experiments::Scale::Smoke,
            melody_cpu::Fidelity::Detailed,
            melody_cpu::SamplingParams::default(),
        )
    };
    let serial = with_jobs(1, run);
    assert!(serial.rows.iter().any(|r| r.migrations > 0));
    assert_eq!(serial, with_jobs(4, run));
}

#[test]
fn different_seed_changes_stochastic_outcomes() {
    let w = registry::by_name("bfs-web").expect("bfs-web");
    let mk = |seed| RunOptions {
        mem_refs: 6_000,
        seed,
        ..Default::default()
    };
    let a = run_workload(&Platform::emr2s(), &presets::cxl_c(), &w, &mk(1));
    let b = run_workload(&Platform::emr2s(), &presets::cxl_c(), &w, &mk(2));
    assert_ne!(
        a.counters.cycles, b.counters.cycles,
        "different seeds should perturb the run"
    );
}

#[test]
fn mlc_deterministic() {
    let cfg = MlcConfig {
        total_requests: 10_000,
        ..MlcConfig::default()
    };
    let a = loaded_latency(&presets::cxl_b(), &cfg);
    let b = loaded_latency(&presets::cxl_b(), &cfg);
    assert_eq!(a.latency.percentile(99.9), b.latency.percentile(99.9));
    assert_eq!(a.bandwidth_gbps, b.bandwidth_gbps);
}

#[test]
fn mio_deterministic() {
    let cfg = melody_mio::MioConfig {
        accesses: 8_000,
        noise_threads: 3,
        ..Default::default()
    };
    let a = melody_mio::run(&presets::cxl_c(), &cfg);
    let b = melody_mio::run(&presets::cxl_c(), &cfg);
    assert_eq!(a.tail_gap_ns, b.tail_gap_ns);
    assert_eq!(a.bandwidth_gbps, b.bandwidth_gbps);
}

#[test]
fn registry_and_streams_are_stable() {
    let r1 = registry::all();
    let r2 = registry::all();
    assert_eq!(r1, r2);
    let w = &r1[17];
    let s1: Vec<_> = SlotStream::new(w, 7, 500).collect();
    let s2: Vec<_> = SlotStream::new(w, 7, 500).collect();
    assert_eq!(s1, s2);
}
