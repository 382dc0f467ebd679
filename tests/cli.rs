//! CLI error-path regression tests: `melody diff` / `melody report`
//! given a directory or an empty file must exit 2 with a clear message,
//! not surface a raw deserialize error.

use std::process::Command;

fn melody() -> Command {
    Command::new(env!("CARGO_BIN_EXE_melody"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("melody-cli-{name}-{}", std::process::id()));
    p
}

#[test]
fn diff_rejects_directories_with_exit_2() {
    let dir = tmp("diff-dir");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = melody()
        .args([
            "diff",
            dir.to_str().expect("utf8"),
            dir.to_str().expect("utf8"),
        ])
        .output()
        .expect("run melody");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("is a directory"),
        "unclear message: {stderr}"
    );
    assert!(
        stderr.contains(dir.to_str().expect("utf8")),
        "message names the path: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_rejects_empty_files_with_exit_2() {
    let a = tmp("diff-empty-a.json");
    let b = tmp("diff-empty-b.json");
    std::fs::write(&a, "").expect("write");
    std::fs::write(&b, "  \n").expect("write");
    let out = melody()
        .args(["diff", a.to_str().expect("utf8"), b.to_str().expect("utf8")])
        .output()
        .expect("run melody");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("empty file"), "unclear message: {stderr}");
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

#[test]
fn diff_still_reports_missing_files_with_exit_2() {
    let out = melody()
        .args([
            "diff",
            "/nonexistent/melody-a.json",
            "/nonexistent/melody-b.json",
        ])
        .output()
        .expect("run melody");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn report_rejects_directories_with_exit_2() {
    let dir = tmp("report-dir");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = melody()
        .args(["report", dir.to_str().expect("utf8")])
        .output()
        .expect("run melody");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("is a directory"),
        "unclear message: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_rejects_empty_files_with_exit_2() {
    let p = tmp("report-empty.json");
    std::fs::write(&p, "\n\n").expect("write");
    let out = melody()
        .args(["report", p.to_str().expect("utf8")])
        .output()
        .expect("run melody");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("empty file"), "unclear message: {stderr}");
    let _ = std::fs::remove_file(&p);
}

#[test]
fn campaign_requires_a_spec_and_validates_shards() {
    let out = melody().args(["campaign"]).output().expect("run melody");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("spec"));

    let spec = tmp("campaign-spec.json");
    std::fs::write(
        &spec,
        r#"{"name":"t","platforms":["emr2s"],"devices":["cxl-a"],"workloads":["541.leela"],"mem_refs":2000}"#,
    )
    .expect("write spec");
    let out = melody()
        .args([
            "campaign",
            spec.to_str().expect("utf8"),
            "--shard",
            "3/2",
            "--no-cache",
        ])
        .output()
        .expect("run melody");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("--shard"));
    let _ = std::fs::remove_file(&spec);
}

#[test]
fn campaign_no_cache_runs_and_renders() {
    let spec = tmp("campaign-smoke.json");
    std::fs::write(
        &spec,
        r#"{"name":"smoke","platforms":["emr2s"],"devices":["cxl-a"],"workloads":["541.leela"],"mem_refs":2000}"#,
    )
    .expect("write spec");
    let out = melody()
        .args(["campaign", spec.to_str().expect("utf8"), "--no-cache"])
        .output()
        .expect("run melody");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("campaign smoke"), "{stdout}");
    assert!(stdout.contains("541.leela"), "{stdout}");
    let _ = std::fs::remove_file(&spec);
}

// --- `melody submit` / `melody status` client error paths -----------
//
// The server-mode clients follow the same convention as the rest of
// the CLI: usage and connectivity problems exit 2 with a one-line,
// human-readable message on stderr.

#[test]
fn submit_requires_a_spec_file_with_exit_2() {
    let out = melody().arg("submit").output().expect("run melody");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("requires a spec file"), "{stderr}");
}

#[test]
fn submit_validates_the_spec_before_dialing_the_server() {
    let spec = tmp("submit-bad-spec.json");
    std::fs::write(&spec, "{\"definitely\":\"not a spec\"}").expect("write");
    // `--server` points nowhere: the local validation must fire first.
    let out = melody()
        .args([
            "submit",
            spec.to_str().expect("utf8"),
            "--server",
            "127.0.0.1:9",
        ])
        .output()
        .expect("run melody");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not a campaign spec"), "{stderr}");
    let _ = std::fs::remove_file(&spec);
}

#[test]
fn submit_reports_unreachable_servers_with_exit_2() {
    let spec = tmp("submit-unreachable.json");
    std::fs::write(
        &spec,
        r#"{"name":"u","platforms":["emr2s"],"devices":["cxl-a"],"workloads":["541.leela"],"mem_refs":2000}"#,
    )
    .expect("write");
    let out = melody()
        .args([
            "submit",
            spec.to_str().expect("utf8"),
            "--server",
            "127.0.0.1:9",
        ])
        .output()
        .expect("run melody");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot reach melody server"), "{stderr}");
    let _ = std::fs::remove_file(&spec);
}

#[test]
fn status_reports_unreachable_servers_with_exit_2() {
    let out = melody()
        .args(["status", "--server", "127.0.0.1:9"])
        .output()
        .expect("run melody");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot reach melody server"), "{stderr}");
}

#[test]
fn status_reports_malformed_responses_with_exit_2() {
    use std::io::{Read as _, Write as _};

    // A fake "server" that answers valid HTTP framing with a body that
    // is not the expected JSON shape.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let t = std::thread::spawn(move || {
        if let Ok((mut conn, _)) = listener.accept() {
            let mut buf = [0u8; 4096];
            let _ = conn.read(&mut buf);
            let _ = conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\nnot-json");
        }
    });
    let out = melody()
        .args(["status", "--server", &addr])
        .output()
        .expect("run melody");
    t.join().expect("fake server thread");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("malformed server response"), "{stderr}");
}

#[test]
fn status_reports_unknown_job_ids_with_exit_2() {
    use std::io::{BufRead as _, BufReader};
    use std::process::Stdio;

    let state = tmp("status-unknown-state");
    let mut child = melody()
        .args([
            "serve",
            "--port",
            "0",
            "--state-dir",
            state.to_str().expect("utf8"),
            "--no-cache",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn melody serve");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().expect("stdout"))
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("melody-serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_string();

    let out = melody()
        .args(["status", "job-999999", "--server", &addr])
        .output()
        .expect("run melody");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown job"), "{stderr}");
    assert!(stderr.contains("job-999999"), "{stderr}");

    // `melody drain` shuts it down cleanly.
    let drained = melody()
        .args(["drain", "--server", &addr])
        .output()
        .expect("run melody drain");
    assert_eq!(
        drained.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&drained.stderr)
    );
    let status = child.wait().expect("server exits");
    assert!(status.success(), "{status:?}");
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn campaign_resume_warns_about_torn_journal_tails_and_still_matches() {
    let spec = tmp("torn-resume-spec.json");
    let journal = tmp("torn-resume.jsonl");
    std::fs::write(
        &spec,
        r#"{"name":"torn","platforms":["emr2s"],"devices":["cxl-a","numa"],"workloads":["541.leela"],"mem_refs":2000}"#,
    )
    .expect("write spec");
    let _ = std::fs::remove_file(&journal);
    let first = melody()
        .args([
            "campaign",
            spec.to_str().expect("utf8"),
            "--json",
            "--no-cache",
            "--journal",
            journal.to_str().expect("utf8"),
        ])
        .output()
        .expect("run melody");
    assert_eq!(
        first.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&first.stderr)
    );

    // Simulate a crash mid-append: a torn, unterminated half-record.
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .expect("open journal");
    f.write_all(b"{\"cell\":17,\"truncated")
        .expect("append torn tail");
    drop(f);

    let resumed = melody()
        .args([
            "campaign",
            spec.to_str().expect("utf8"),
            "--json",
            "--no-cache",
            "--journal",
            journal.to_str().expect("utf8"),
            "--resume",
        ])
        .output()
        .expect("run melody");
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("dropped 1 torn trailing record"),
        "counted warning on --resume: {stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "torn tail does not change the report bytes"
    );
    let _ = std::fs::remove_file(&spec);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn campaign_json_with_telemetry_carries_exec_retry_counters() {
    let spec = tmp("telemetry-counters-spec.json");
    std::fs::write(
        &spec,
        r#"{"name":"tc","platforms":["emr2s"],"devices":["cxl-a"],"workloads":["541.leela"],"mem_refs":2000}"#,
    )
    .expect("write spec");
    let out = melody()
        .args([
            "campaign",
            spec.to_str().expect("utf8"),
            "--json",
            "--no-cache",
            "--telemetry",
            "metrics",
        ])
        .output()
        .expect("run melody");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The telemetry document wraps the report and carries the retry,
    // deadline, and cancellation counters from the execution layer.
    assert!(stdout.contains("\"report\""), "{stdout}");
    assert!(stdout.contains("exec.cell_retries_total"), "{stdout}");
    assert!(stdout.contains("exec.cell_deadlines_total"), "{stdout}");
    assert!(stdout.contains("exec.cells_cancelled_total"), "{stdout}");
    let _ = std::fs::remove_file(&spec);
}

/// Runs `melody args`, killing it if it is still running after 60 s
/// (a command that should have refused its flags but started a server
/// or a long run instead). Returns the exit code, `None` when killed,
/// and stderr.
fn run_with_deadline(args: &[String]) -> (Option<i32>, String) {
    use std::io::Read as _;
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let mut child = melody()
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn melody");
    let start = Instant::now();
    let code = loop {
        if let Some(status) = child.try_wait().expect("poll melody") {
            break status.code();
        }
        if start.elapsed() > Duration::from_secs(60) {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    let _ = child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr);
    (code, stderr)
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

fn grid_quick() -> String {
    format!("{}/datasets/grid_quick.json", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn malformed_numeric_flag_values_exit_2_naming_flag_and_value() {
    let state = tmp("numeric-flags-state");
    let state = state.to_str().expect("utf8");
    let trace_out = tmp("numeric-flags-trace.json");
    let trace_out = trace_out.to_str().expect("utf8");
    let spec = grid_quick();
    let serve = ["serve", "--port", "0", "--state-dir", state, "--no-cache"];
    let probe_policy = ["probe", "cxl-a", "--policy", "clock"];
    let cases: Vec<(Vec<&str>, &str, &str)> = vec![
        (vec!["run", "541.leela", "cxl-a"], "--refs", "2k"),
        (
            vec!["run", "541.leela", "cxl-a", "--json"],
            "--windows",
            "x",
        ),
        (
            vec!["trace", "cxl-a", "--out", trace_out],
            "--workloads",
            "six",
        ),
        (vec!["mlc", "cxl-a"], "--delay", "fast"),
        (vec!["mlc", "cxl-a"], "--requests", "1e3"),
        (vec!["mlc", "cxl-a"], "--rw", "half"),
        (probe_policy.to_vec(), "--page-bytes", "4k"),
        (probe_policy.to_vec(), "--migrate-budget-gbps", "lots"),
        (vec!["campaign", &spec, "--no-cache"], "--page-bytes", "4k"),
        (vec!["diff", &spec, &spec], "--rel-tol", "1%"),
        (vec!["diff", &spec, &spec], "--abs-tol", "tiny"),
        (vec!["degraded"], "--limit", "all"),
        (serve.to_vec(), "--queue-depth", "abc"),
        (serve.to_vec(), "--admission-limit", "-1"),
        (serve.to_vec(), "--max-attempts", "3.5"),
    ];
    for (base, name, value) in cases {
        let mut args = strings(&base);
        args.extend(strings(&[name, value]));
        let (code, stderr) = run_with_deadline(&args);
        assert_eq!(code, Some(2), "melody {args:?}: {stderr}");
        assert!(
            stderr.contains(name) && stderr.contains(value),
            "melody {args:?} must name {name} and `{value}`: {stderr}"
        );
    }
    assert!(
        !std::path::Path::new(trace_out).exists(),
        "a refused trace writes nothing"
    );
    let _ = std::fs::remove_dir_all(state);
}

#[test]
fn serve_rejects_the_fidelity_flag_with_exit_2() {
    let state = tmp("serve-fidelity-state");
    let (code, stderr) = run_with_deadline(&strings(&[
        "--fidelity",
        "fast",
        "serve",
        "--port",
        "0",
        "--state-dir",
        state.to_str().expect("utf8"),
        "--no-cache",
    ]));
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--fidelity"), "{stderr}");
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn trace_rejects_the_cache_flag_with_exit_2() {
    let cache = tmp("trace-cache");
    let out = tmp("trace-cache-out.json");
    let (code, stderr) = run_with_deadline(&strings(&[
        "--cache",
        cache.to_str().expect("utf8"),
        "trace",
        "cxl-a",
        "--workloads",
        "1",
        "--out",
        out.to_str().expect("utf8"),
    ]));
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--cache"), "{stderr}");
    assert!(!cache.exists(), "a refused command opens no cache");
    assert!(!out.exists(), "a refused trace writes nothing");
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&out);
}

#[test]
fn other_commands_reject_tier_and_cache_flags_with_exit_2() {
    let cache = tmp("other-cache");
    let cache = cache.to_str().expect("utf8");
    let spec = grid_quick();
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (
            vec![
                "submit",
                &spec,
                "--fidelity",
                "fast",
                "--server",
                "127.0.0.1:9",
            ],
            "--fidelity",
        ),
        (vec!["mlc", "cxl-c", "--cache", cache], "--cache"),
        (
            vec!["run", "541.leela", "cxl-a", "--no-cache"],
            "--no-cache",
        ),
        (
            vec!["degraded", "--sample-period", "4096"],
            "--sample-period",
        ),
        (
            vec!["probe", "cxl-a", "--sample-warmup", "0"],
            "--sample-warmup",
        ),
        (vec!["status", "--sample-window", "64"], "--sample-window"),
        (
            vec!["run", "605.mcf", "cxl-b", "--page-bytes", "3"],
            "--page-bytes",
        ),
        (
            vec![
                "run",
                "605.mcf",
                "cxl-b",
                "--policy",
                "static",
                "--page-bytes",
                "4096",
            ],
            "--page-bytes",
        ),
        (
            vec!["probe", "cxl-a", "--migrate-budget-gbps", "4"],
            "--migrate-budget-gbps",
        ),
    ];
    for (args, name) in cases {
        let args = strings(&args);
        let (code, stderr) = run_with_deadline(&args);
        assert_eq!(code, Some(2), "melody {args:?}: {stderr}");
        assert!(stderr.contains(name), "melody {args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn campaign_tier_flags_fill_only_what_the_spec_omits() {
    let campaign_json = |name: &str, tier: &str, flags: &[&str]| -> String {
        let spec = tmp(name);
        std::fs::write(
            &spec,
            format!(
                r#"{{"name":"tier","platforms":["emr2s"],"devices":["cxl-a"],"workloads":["541.leela"],"mem_refs":4000{tier}}}"#
            ),
        )
        .expect("write spec");
        let mut args = strings(&[
            "campaign",
            spec.to_str().expect("utf8"),
            "--json",
            "--no-cache",
        ]);
        args.extend(strings(flags));
        let out = melody().args(&args).output().expect("run melody");
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let _ = std::fs::remove_file(&spec);
        String::from_utf8(out.stdout).expect("utf8")
    };
    // A flag fills an omitted field; `--sample-warmup 0` is zero slots.
    let flagged = campaign_json(
        "tier-flagged.json",
        "",
        &["--fidelity", "sampled", "--sample-warmup", "0"],
    );
    let written = campaign_json(
        "tier-written.json",
        r#","fidelity":"sampled","sample_warmup":0"#,
        &[],
    );
    assert_eq!(flagged, written);
    // A field the spec sets wins over the flag.
    let pinned = campaign_json(
        "tier-pinned.json",
        r#","fidelity":"detailed""#,
        &["--fidelity", "fast"],
    );
    let plain = campaign_json("tier-plain.json", "", &[]);
    assert_eq!(pinned, plain);
    assert_ne!(flagged, plain, "the sampled tier changes the report");
}
