//! Integration tests for `melody serve`: backpressure, admission
//! control, typed client errors, graceful drain, and the headline
//! robustness contract — kill-and-restart produces a result
//! byte-identical to an uninterrupted run, with zero re-simulation.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use melody::campaign::{run_campaign, CampaignSpec, Shard};
use melody::exec::CellPolicy;
use melody::journal::Journal;
use melody::server::api::JobStatus;
use melody::server::client::{self, ClientError, RetrySchedule};
use melody::server::{ServeConfig, Server, ServerHandle};

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("melody-serve-{name}-{}", std::process::id()));
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

#[test]
fn submit_execute_fetch_result_roundtrip() {
    let state = tmp_dir("roundtrip");
    let cfg = ServeConfig {
        port: 0,
        state_dir: state.clone(),
        ..Default::default()
    };
    let (handle, addr) = start(cfg);

    let spec_json = tiny_spec_json("serve-roundtrip");
    let reply = client::submit(&addr, &spec_json, Some("ci"), None).expect("submit");
    assert_eq!(reply.status, JobStatus::Queued);
    assert_eq!(reply.total_cells, 4);

    let view = wait_done(&addr, &reply.job_id);
    assert_eq!(view.status, JobStatus::Done);
    assert_eq!(view.client, "ci");
    let stats = view.stats.expect("finished jobs carry stats");
    assert_eq!(stats.owned, 4);
    assert_eq!(stats.simulated, 4, "cold server simulates everything");

    // The served result is byte-identical to a direct engine run.
    let served = client::job_result(&addr, &reply.job_id).expect("result");
    let spec: CampaignSpec = serde_json::from_str(&spec_json).expect("spec");
    let direct = run_campaign(
        &spec,
        Shard::full(),
        &mut Journal::in_memory(),
        None,
        &CellPolicy::default(),
    )
    .expect("direct run");
    let mut expected = melody::report::to_json(&direct.report);
    expected.push('\n');
    assert_eq!(
        String::from_utf8(served).expect("utf8"),
        expected,
        "served result == direct `melody campaign --json` bytes"
    );

    // Health shows the accounting.
    let health = client::health(&addr).expect("health");
    assert_eq!(health.accepted, 1);
    assert_eq!(health.done, 1);

    handle.drain();
    handle.join();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn backpressure_rejects_typed_busy_and_retry_loop_completes_everything() {
    let state = tmp_dir("backpressure");
    let cfg = ServeConfig {
        port: 0,
        state_dir: state.clone(),
        queue_depth: 1,
        ..Default::default()
    };
    let (handle, addr) = start(cfg);

    // First submission occupies client `ci`'s single slot...
    let first = client::submit(&addr, &tiny_spec_json("bp-0"), Some("ci"), None).expect("submit");
    // ...so an immediate second one gets a typed 429 with a hint.
    let err = client::submit(&addr, &tiny_spec_json("bp-1"), Some("ci"), None)
        .expect_err("queue_depth 1 must reject the second submission");
    match &err {
        ClientError::Busy { retry_after_ms } => {
            let hint = retry_after_ms.expect("busy carries a Retry-After hint");
            assert!(hint >= 500, "hint {hint} ms");
        }
        other => panic!("expected Busy, got {other}"),
    }
    assert!(err.is_transient());
    // A different client has its own bound — not starved by `ci`.
    let other =
        client::submit(&addr, &tiny_spec_json("bp-other"), Some("friend"), None).expect("submit");

    // The retry loop with capped exponential backoff eventually lands
    // the remaining campaigns without losing or duplicating any.
    let schedule = RetrySchedule {
        max_retries: 100,
        base: Duration::from_millis(25),
        cap: Duration::from_millis(250),
    };
    let mut ids = vec![first.job_id.clone(), other.job_id.clone()];
    let mut retried = 0u32;
    for i in 1..3 {
        let (reply, retries) = client::submit_with_retry(
            &addr,
            &tiny_spec_json(&format!("bp-{i}")),
            Some("ci"),
            None,
            &schedule,
        )
        .expect("retry loop lands the submission");
        retried += retries;
        ids.push(reply.job_id);
    }
    assert!(retried > 0, "at least one submission had to wait its turn");

    // No lost or duplicated jobs: every id is distinct and completes.
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 4, "4 distinct jobs");
    for id in &ids {
        let view = wait_done(&addr, id);
        assert_eq!(view.status, JobStatus::Done, "{id}");
    }
    let health = client::health(&addr).expect("health");
    assert_eq!(health.accepted, 4);
    assert!(health.rejected_busy >= 1, "{health:?}");

    handle.drain();
    handle.join();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn admission_control_rejects_oversized_campaigns_with_cost() {
    let state = tmp_dir("admission");
    let cfg = ServeConfig {
        port: 0,
        state_dir: state.clone(),
        // 4 detailed cells cost 400; cap below that.
        admission_limit: 399,
        ..Default::default()
    };
    let (handle, addr) = start(cfg);

    let err = client::submit(&addr, &tiny_spec_json("too-big"), Some("ci"), None)
        .expect_err("over-budget campaign is rejected");
    match err {
        ClientError::Rejected {
            status,
            error,
            message,
        } => {
            assert_eq!(status, 422);
            assert_eq!(error, "admission");
            assert!(message.contains("400"), "cost in message: {message}");
            assert!(message.contains("399"), "limit in message: {message}");
        }
        other => panic!("expected Rejected, got {other}"),
    }
    // A fast-tier variant of the same grid costs 4 — admitted.
    let cheap = tiny_spec_json("cheap-enough").replace(
        ",\"mem_refs\":4000}",
        ",\"mem_refs\":4000,\"fidelity\":\"fast\"}",
    );
    let reply = client::submit(&addr, &cheap, Some("ci"), None).expect("fast tier admitted");
    assert_eq!(wait_done(&addr, &reply.job_id).status, JobStatus::Done);
    let health = client::health(&addr).expect("health");
    assert_eq!(health.rejected_admission, 1);

    handle.drain();
    handle.join();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn client_errors_are_typed_for_bad_specs_and_unknown_jobs() {
    let state = tmp_dir("typed-errors");
    let cfg = ServeConfig {
        port: 0,
        state_dir: state.clone(),
        ..Default::default()
    };
    let (handle, addr) = start(cfg);

    match client::job_status(&addr, "job-999999").expect_err("unknown id") {
        ClientError::UnknownJob(msg) => assert!(msg.contains("job-999999"), "{msg}"),
        other => panic!("expected UnknownJob, got {other}"),
    }
    match client::submit(&addr, "{\"nope\":true}", None, None).expect_err("bad spec") {
        ClientError::Rejected { status, error, .. } => {
            assert_eq!(status, 400);
            assert_eq!(error, "bad-spec");
        }
        other => panic!("expected Rejected, got {other}"),
    }
    let unknown_device = tiny_spec_json("bad-device").replace("\"numa\"", "\"flux-capacitor\"");
    match client::submit(&addr, &unknown_device, None, None).expect_err("unknown device") {
        ClientError::Rejected { error, message, .. } => {
            assert_eq!(error, "bad-spec");
            assert!(message.contains("flux-capacitor"), "{message}");
        }
        other => panic!("expected Rejected, got {other}"),
    }
    // Result for a queued-but-unfinished job: typed 409. (Submit, query
    // immediately; even if the tiny job wins the race and finishes, the
    // Ok branch is legal — but an Err must be NotFinished.)
    let reply = client::submit(&addr, &tiny_spec_json("race"), None, None).expect("submit");
    match client::job_result(&addr, &reply.job_id) {
        Ok(_) => {}
        Err(ClientError::NotFinished { status }) => {
            assert!(!status.is_empty());
        }
        Err(other) => panic!("expected NotFinished, got {other}"),
    }
    wait_done(&addr, &reply.job_id);

    handle.drain();
    handle.join();
    let _ = std::fs::remove_dir_all(&state);
}

/// The headline contract: drain a server mid-campaign, restart it on
/// the same state dir, and the job completes with a result
/// byte-identical to an uninterrupted run — journaled cells restore,
/// nothing re-simulates twice.
#[test]
fn drain_and_restart_resumes_byte_identically_with_zero_resimulation() {
    let state = tmp_dir("drain-restart");
    let cache = tmp_dir("drain-restart-cache");
    let spec_json = tiny_spec_json("drain-restart");
    let spec: CampaignSpec = serde_json::from_str(&spec_json).expect("spec");

    // Reference: an uninterrupted direct run.
    let reference = run_campaign(
        &spec,
        Shard::full(),
        &mut Journal::in_memory(),
        None,
        &CellPolicy::default(),
    )
    .expect("reference run");
    let mut expected = melody::report::to_json(&reference.report);
    expected.push('\n');

    // Server #1: submit, then drain while it works.
    let cfg = ServeConfig {
        port: 0,
        state_dir: state.clone(),
        cache_dir: Some(cache.clone()),
        ..Default::default()
    };
    let (handle, addr) = start(cfg.clone());
    let reply = client::submit(&addr, &spec_json, Some("ci"), None).expect("submit");
    let job = reply.job_id.clone();
    // Let it make *some* progress (first journal line), then drain —
    // exercising the interrupted path rather than racing pure luck.
    let journal_path = state.join("jobs").join(format!("{job}.journal.jsonl"));
    let begin = Instant::now();
    while begin.elapsed() < Duration::from_secs(60) {
        if std::fs::metadata(&journal_path)
            .map(|m| m.len() > 0)
            .unwrap_or(false)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    handle.drain();
    handle.join();

    // After the drain the job is either Interrupted (cells were still
    // pending) or Done (it squeaked through); both must converge after
    // restart. Inspect the persisted record via a fresh server.
    let (handle2, addr2) = start(cfg);
    let view = wait_done(&addr2, &job);
    assert_eq!(view.status, JobStatus::Done, "restart completes the job");
    let stats = view.stats.expect("stats");
    assert_eq!(
        stats.journal_hits + stats.cache_hits + stats.simulated,
        stats.owned,
        "all cells accounted for: {stats:?}"
    );

    let served = client::job_result(&addr2, &job).expect("result");
    assert_eq!(
        String::from_utf8(served).expect("utf8"),
        expected,
        "post-restart result is byte-identical to an uninterrupted run"
    );

    // Second restart re-serves the finished result without re-queueing.
    handle2.drain();
    handle2.join();
    let (handle3, addr3) = start(ServeConfig {
        port: 0,
        state_dir: state.clone(),
        cache_dir: Some(cache.clone()),
        ..Default::default()
    });
    let view = client::job_status(&addr3, &job).expect("status after restart");
    assert_eq!(view.status, JobStatus::Done);
    let served_again = client::job_result(&addr3, &job).expect("result persists");
    assert_eq!(String::from_utf8(served_again).expect("utf8"), expected);
    handle3.drain();
    handle3.join();

    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn draining_server_rejects_new_submissions_but_answers_status() {
    let state = tmp_dir("draining-rejects");
    let cfg = ServeConfig {
        port: 0,
        state_dir: state.clone(),
        ..Default::default()
    };
    let (handle, addr) = start(cfg);
    let reply = client::submit(&addr, &tiny_spec_json("pre-drain"), None, None).expect("submit");
    wait_done(&addr, &reply.job_id);

    // POST /v1/drain over the wire (what `melody drain` sends).
    client::drain(&addr).expect("drain accepted");
    match client::submit(&addr, &tiny_spec_json("post-drain"), None, None) {
        Err(ClientError::Draining) => {}
        // The accept loop may already have shut down — also a valid
        // refusal, just less polite.
        Err(ClientError::Unreachable(_)) => {}
        other => panic!("draining server must not accept work: {other:?}"),
    }
    handle.join();
    let _ = std::fs::remove_dir_all(&state);
}

/// End-to-end acceptance: SIGTERM the real `melody serve` binary
/// mid-campaign, restart it on the same state dir, and the served
/// result is byte-identical to a direct `melody campaign --json` run.
#[cfg(unix)]
#[test]
fn sigterm_kill_and_restart_serves_bytes_identical_to_direct_run() {
    use std::io::{BufRead, BufReader};
    use std::process::{Child, Command, Stdio};

    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }

    let melody = env!("CARGO_BIN_EXE_melody");
    let state = tmp_dir("proc-state");
    let cache = tmp_dir("proc-cache");
    std::fs::create_dir_all(&state).expect("mkdir");
    let spec_path = state.join("spec.json");
    // Eight detailed cells: enough runway for the SIGTERM to land
    // mid-campaign (the test still holds if the job wins the race).
    let spec_json = "{\"name\":\"proc-kill\",\"platforms\":[\"emr2s\"],\
                     \"devices\":[\"local\",\"numa\",\"cxl-a\",\"cxl-b\"],\
                     \"workloads\":[\"605.mcf\",\"541.leela\"],\"mem_refs\":20000}";
    std::fs::write(&spec_path, spec_json).expect("write spec");

    // Reference bytes from the binary itself, cache-free.
    let direct = Command::new(melody)
        .args([
            "campaign",
            spec_path.to_str().expect("utf8"),
            "--json",
            "--no-cache",
        ])
        .output()
        .expect("direct campaign run");
    assert!(
        direct.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&direct.stderr)
    );

    let spawn_server = || -> (Child, String) {
        let mut child = Command::new(melody)
            .args([
                "serve",
                "--port",
                "0",
                "--state-dir",
                state.to_str().expect("utf8"),
                "--cache",
                cache.to_str().expect("utf8"),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn melody serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .expect("read banner");
        let addr = banner
            .trim()
            .strip_prefix("melody-serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
            .to_string();
        (child, addr)
    };

    // Leg 1: submit, wait for the first journaled cell, SIGTERM.
    let (mut child, addr) = spawn_server();
    let reply = client::submit(&addr, spec_json, Some("ci"), None).expect("submit");
    let job = reply.job_id.clone();
    assert_eq!(reply.total_cells, 8);
    let journal_path = state.join("jobs").join(format!("{job}.journal.jsonl"));
    let begin = Instant::now();
    while begin.elapsed() < Duration::from_secs(120) {
        if std::fs::metadata(&journal_path)
            .map(|m| m.len() > 0)
            .unwrap_or(false)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    unsafe {
        assert_eq!(kill(child.id() as i32, 15), 0, "SIGTERM delivered");
    }
    let status = child.wait().expect("child exits");
    assert!(status.success(), "graceful drain exits 0: {status:?}");

    // Leg 2: restart on the same state dir; the job must converge.
    let (mut child2, addr2) = spawn_server();
    let poll = Duration::from_millis(50);
    let schedule = RetrySchedule {
        max_retries: 0,
        base: poll,
        cap: poll,
    };
    let view = client::wait_with_backoff(&addr2, &job, &schedule, Duration::from_secs(120))
        .expect("job finishes after restart");
    assert_eq!(view.status, JobStatus::Done, "{view:?}");
    let stats = view.stats.expect("stats");
    assert_eq!(
        stats.journal_hits + stats.cache_hits + stats.simulated,
        stats.owned,
        "every cell restored or simulated exactly once: {stats:?}"
    );

    let served = client::job_result(&addr2, &job).expect("result");
    assert_eq!(
        String::from_utf8(served).expect("utf8"),
        String::from_utf8(direct.stdout.clone()).expect("utf8"),
        "served result == direct `melody campaign --json` bytes"
    );

    client::drain(&addr2).expect("drain");
    let status2 = child2.wait().expect("second server exits");
    assert!(status2.success());
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&cache);
}
