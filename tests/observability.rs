//! Integration tests for the live observability layer: `/metrics`
//! Prometheus exposition scraped from a real server (linted with the
//! in-repo parser), cell counters that reconcile with the finished
//! campaign's accounting, monotonically nondecreasing job progress,
//! and per-job result-cache attribution in `JobView`.

use std::path::PathBuf;
use std::time::Duration;

use melody::server::api::JobStatus;
use melody::server::client::{self, RetrySchedule};
use melody::server::{ServeConfig, Server, ServerHandle};
use melody_telemetry::prom;

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("melody-obs-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A small 4-cell campaign (1 platform × 2 devices × 2 workloads).
fn tiny_spec_json(name: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"platforms\":[\"emr2s\"],\"devices\":[\"numa\",\"cxl-a\"],\
         \"workloads\":[\"605.mcf\",\"541.leela\"],\"mem_refs\":4000}}"
    )
}

fn start(cfg: ServeConfig) -> (ServerHandle, String) {
    let handle = Server::start(cfg).expect("server starts");
    let addr = handle.addr();
    (handle, addr)
}

fn wait_done(addr: &str, job: &str) -> melody::server::api::JobView {
    let poll = Duration::from_millis(25);
    let schedule = RetrySchedule {
        max_retries: 0,
        base: poll,
        cap: poll,
    };
    client::wait_with_backoff(addr, job, &schedule, Duration::from_secs(120)).expect("job finishes")
}

/// Extracts the value of an unlabelled series from an exposition
/// document, e.g. `series_value(text, "melody_cells_done_total")`.
fn series_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        l.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|v| v.parse().ok())
    })
}

#[test]
fn metrics_exposition_lints_and_counts_cells() {
    let state = tmp_dir("metrics");
    let cfg = ServeConfig {
        port: 0,
        state_dir: state.clone(),
        ..Default::default()
    };
    let (handle, addr) = start(cfg);

    // The endpoint is valid exposition before any job exists, and the
    // cell counters start from zero.
    let idle = client::metrics(&addr).expect("idle scrape");
    prom::lint(&idle).unwrap_or_else(|e| panic!("idle exposition fails lint: {e}\n{idle}"));
    assert_eq!(series_value(&idle, "melody_cells_done_total"), Some(0.0));
    assert_eq!(series_value(&idle, "melody_draining"), Some(0.0));
    assert!(
        series_value(&idle, "melody_uptime_seconds").is_some(),
        "{idle}"
    );

    let reply =
        client::submit(&addr, &tiny_spec_json("obs-metrics"), Some("ci"), None).expect("submit");
    let view = wait_done(&addr, &reply.job_id);
    assert_eq!(view.status, JobStatus::Done);
    let stats = view.stats.expect("finished jobs carry stats");

    // The acceptance counter: cells_done_total equals the finished
    // campaign's owned cell count, and the resolution split matches
    // the job's own stats.
    let text = client::metrics(&addr).expect("scrape");
    prom::lint(&text).unwrap_or_else(|e| panic!("exposition fails lint: {e}\n{text}"));
    assert_eq!(
        series_value(&text, "melody_cells_done_total"),
        Some(stats.owned as f64),
        "{text}"
    );
    assert_eq!(
        series_value(&text, "melody_cells_simulated_total"),
        Some(stats.simulated as f64)
    );
    assert_eq!(series_value(&text, "melody_jobs_accepted_total"), Some(1.0));
    assert!(text.contains("melody_jobs{status=\"done\"} 1"), "{text}");
    assert!(text.contains("melody_jobs{status=\"running\"} 0"), "{text}");
    assert!(
        text.contains("# TYPE melody_cells_done_total counter"),
        "{text}"
    );

    // The final progress snapshot is retained after completion and
    // agrees with the exposition.
    let progress = view.progress.expect("finished job keeps its snapshot");
    assert_eq!(progress.done, stats.owned);
    assert_eq!(progress.total, stats.owned);
    assert_eq!(progress.simulated, stats.simulated);

    handle.drain();
    handle.join();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn job_progress_is_monotonic_and_health_carries_uptime() {
    let state = tmp_dir("monotonic");
    let cfg = ServeConfig {
        port: 0,
        state_dir: state.clone(),
        ..Default::default()
    };
    let (handle, addr) = start(cfg);

    let reply =
        client::submit(&addr, &tiny_spec_json("obs-monotonic"), None, None).expect("submit");
    let mut last_done = 0usize;
    let mut observations = 0usize;
    loop {
        let view = client::job_status(&addr, &reply.job_id).expect("status");
        if let Some(p) = view.progress {
            assert!(
                p.done >= last_done,
                "progress went backwards: {} -> {}",
                last_done,
                p.done
            );
            assert!(p.done <= p.total, "done {} > total {}", p.done, p.total);
            last_done = p.done;
            observations += 1;
        }
        if view.status.is_finished() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(observations > 0, "never observed a progress snapshot");
    assert_eq!(last_done, 4, "final snapshot covers every cell");

    let health = client::health(&addr).expect("health");
    assert!(health.uptime_ms > 0, "uptime must be reported");
    assert!(
        health.progress.is_none(),
        "no job is running, so health carries no progress"
    );

    handle.drain();
    handle.join();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn job_view_attributes_cache_hits_to_the_job() {
    let state = tmp_dir("cache-attr");
    let cache = tmp_dir("cache-attr-store");
    let cfg = ServeConfig {
        port: 0,
        state_dir: state.clone(),
        cache_dir: Some(cache.clone()),
        ..Default::default()
    };
    let (handle, addr) = start(cfg);

    let spec = tiny_spec_json("obs-cache");
    let first = client::submit(&addr, &spec, Some("ci"), None).expect("submit cold");
    let cold = wait_done(&addr, &first.job_id);
    let cold_cache = cold.cache.expect("cache-backed servers report the delta");
    assert_eq!(cold_cache.hits, 0, "cold run cannot hit");
    assert_eq!(cold_cache.misses, 4, "every cell misses then warms");

    let second = client::submit(&addr, &spec, Some("ci"), None).expect("submit warm");
    let warm = wait_done(&addr, &second.job_id);
    let warm_cache = warm.cache.expect("cache delta present");
    assert_eq!(warm_cache.hits, 4, "warm run is served from the cache");
    assert_eq!(warm_cache.misses, 0);
    let warm_stats = warm.stats.expect("stats");
    assert_eq!(warm_stats.cache_hits, 4);
    assert_eq!(warm_stats.simulated, 0);

    // The exposition's cache counters aggregate both runs.
    let text = client::metrics(&addr).expect("scrape");
    prom::lint(&text).unwrap_or_else(|e| panic!("exposition fails lint: {e}\n{text}"));
    assert_eq!(series_value(&text, "melody_cache_hits_total"), Some(4.0));
    assert_eq!(series_value(&text, "melody_cache_misses_total"), Some(4.0));
    assert_eq!(series_value(&text, "melody_cells_cache_total"), Some(4.0));

    handle.drain();
    handle.join();
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&cache);
}
