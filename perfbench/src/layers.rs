//! The traced run. Each workload's job is driven through the layers'
//! public calls with a span around every call: `campaign` (expand,
//! fingerprint, outcome JSON, report), `cache`, `journal`, `mem`
//! (device build), `cpu` (core, warm, run), `workloads` (slot stream),
//! `spa` (breakdown, interval model) and `server` (client calls).
//! Probes outside the job then split the simulation loop into slot
//! generation, the CPU engine against a fixed-latency null device, and
//! the device models, and cover layers a workload's job does not use.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use melody::cache::ResultCache;
use melody::campaign::{
    cell_fingerprint, pair_config_json, run_campaign, CampaignCell, CampaignReport, CampaignRow,
    CampaignSpec, Shard,
};
use melody::exec::CellPolicy;
use melody::journal::Journal;
use melody::server::api::{JobStatus, JobView};
use melody::server::client;
use melody::{PairOutcome, RunOptions};
use melody_cpu::{Core, CoreConfig, Fidelity, Platform, RunResult};
use melody_mem::{AccessBreakdown, DeviceSpec, DeviceStats, MemRequest, MemoryDevice};
use melody_workloads::{Pattern, SlotStream, WorkloadSpec};

use crate::jobs::{self, Env};
use crate::specs;
use crate::stats::{mean, median};
use crate::trace::{descends_from, layer_of, self_times, Tracer};

/// Device classes whose model cost is reported per reference.
pub const MEM_CLASSES: [&str; 4] = ["local", "numa", "cxl-a", "cxl-b"];
/// Latency of the null device the engine-only runs use.
const NULL_LATENCY_PS: u64 = 80_000;
/// `server_fast` jobs replayed in the traced run (per server).
const TRACED_SERVER_JOBS: usize = 200;
/// Server jobs of the server probe on the campaign workloads.
const PROBE_SERVER_JOBS: usize = 2 * specs::TENANTS;
/// `mem_refs` of the detailed probe cells.
const PROBE_REFS: u64 = 50_000;
/// `long_detailed` cells traced: one per target device.
const TRACED_LONG_CELLS: [usize; 2] = [0, 5];

/// A device that answers every request after a fixed latency, so a run
/// against it costs the CPU engine alone.
#[derive(Default)]
struct NullDevice {
    stats: DeviceStats,
}

impl MemoryDevice for NullDevice {
    fn access(&mut self, req: &MemRequest) -> AccessBreakdown {
        let completion = req.issue + NULL_LATENCY_PS;
        self.stats.record(req, completion);
        AccessBreakdown {
            completion,
            fabric_ps: NULL_LATENCY_PS,
            ..AccessBreakdown::default()
        }
    }

    fn name(&self) -> &str {
        "null"
    }

    fn nominal_latency_ns(&self) -> f64 {
        NULL_LATENCY_PS as f64 / 1e3
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }
}

/// The per-workload stream seed of `melody::run_workload`, reproduced so
/// the decomposed path builds the same devices. The traced run checks
/// the decomposition against the real runner's results.
fn workload_seed(base: u64, name: &str) -> u64 {
    let mut h: u64 = base ^ 0x6d656c6f6479; // "melody"
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The core configuration `melody::run_workload` derives.
fn core_config(platform: &Platform, workload: &WorkloadSpec, opts: &RunOptions) -> CoreConfig {
    let scaled = platform.smp_scaled(workload.threads);
    let ipc_peak = scaled.ipc_peak;
    let mut cfg = CoreConfig::new(scaled);
    cfg.prefetchers = opts.prefetchers;
    cfg.sample_interval_ns = opts.sample_interval_ns;
    cfg.frontend_bound = workload.frontend_bound;
    cfg.ilp = (workload.ilp * workload.threads as f64).min(ipc_peak);
    cfg.serialize_frac = workload.serialize_frac;
    cfg
}

/// The warm ranges `melody::run_workload` applies, in order.
fn warm_ranges(l3_cap: u64, workload: &WorkloadSpec) -> Vec<(u64, u64)> {
    let mut phases: Vec<_> = workload.phases.iter().collect();
    phases.sort_by_key(|p| std::cmp::Reverse(p.working_set));
    let mut ranges = Vec::new();
    for p in phases {
        let ws = p.working_set;
        let range = match p.pattern {
            Pattern::Skewed { hot_bytes, .. } if ws > l3_cap => (0, hot_bytes.min(l3_cap)),
            _ if ws <= l3_cap => (0, ws),
            _ => (ws - l3_cap, ws),
        };
        if !ranges.contains(&range) {
            ranges.push(range);
        }
    }
    ranges
}

/// Span names of core creation and warming: the job's own, or the
/// null-device probe's (kept apart so they do not count as job work).
const JOB_SPANS: [&str; 2] = ["cpu.core_new", "cpu.warm"];
const NULL_SPANS: [&str; 2] = ["probe.null_core_new", "probe.null_warm"];

/// A warmed core on `device`, built as `melody::run_workload` builds it.
fn warmed_core(
    t: &mut Tracer,
    device: Box<dyn MemoryDevice>,
    platform: &Platform,
    workload: &WorkloadSpec,
    opts: &RunOptions,
    [new_span, warm_span]: [&'static str; 2],
) -> Core {
    let cfg = core_config(platform, workload, opts);
    let mut core = t.time(new_span, || Core::new(cfg, device));
    for (start, end) in warm_ranges(core.l3_capacity_bytes(), workload) {
        t.time(warm_span, || core.warm(start, end));
    }
    core
}

/// One detailed run on a job's path, kept for the probes.
struct RunRecord {
    class: String,
    platform: Platform,
    workload: WorkloadSpec,
    opts: RunOptions,
    run_ns: u64,
}

/// Per-reference split of one run, from its probes.
struct RunSample {
    class: String,
    refs: u64,
    run_ns: u64,
    null_ns: u64,
    drain_ns: u64,
}

/// Counts taken at the cache and server boundaries.
#[derive(Clone, Copy, Default)]
struct Counts {
    cache_gets: usize,
    cache_hits: usize,
    server_jobs: usize,
    status_polls: usize,
}

/// Index into [`TraceRun::counts`]: work on a traced job's path, or in
/// a probe.
const JOB: usize = 0;
const PROBE: usize = 1;

/// Where the traced run's spans and counts are collected.
pub struct TraceRun {
    t: Tracer,
    records: Vec<RunRecord>,
    samples: Vec<RunSample>,
    counts: [Counts; 2],
    untraced_ms: Vec<f64>,
    pub attempted: usize,
    pub failures: Vec<String>,
    pub lines: Vec<String>,
}

/// A campaign run through the decomposed path.
struct Decomposed {
    report_json: String,
    outcomes: Vec<(String, String)>,
}

impl TraceRun {
    fn new() -> Self {
        Self {
            t: Tracer::new(),
            records: Vec::new(),
            samples: Vec::new(),
            counts: [Counts::default(); 2],
            untraced_ms: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            lines: Vec::new(),
        }
    }

    fn check(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// One run of `cell` on `device`, decomposed into build → warm → run
    /// for the detailed tier, or the interval model for the fast tier.
    fn run_cell(&mut self, cell: &CampaignCell, device: &DeviceSpec, class: &str) -> RunResult {
        let (platform, workload, opts) = (&cell.platform, &cell.workload, &cell.opts);
        if opts.fidelity == Fidelity::Fast {
            return self.t.time("spa.interval", || {
                melody_spa::run_interval(
                    &platform.smp_scaled(workload.threads),
                    &device.analytic_profile(),
                    workload,
                    opts.mem_refs,
                    opts.prefetchers,
                )
            });
        }
        let seed = workload_seed(opts.seed, &workload.name);
        let built = self.t.time("mem.build", || device.build(seed));
        let core = warmed_core(&mut self.t, built, platform, workload, opts, JOB_SPANS);
        let stream = self.t.time("workloads.stream_new", || {
            SlotStream::new(workload, opts.seed, opts.mem_refs)
        });
        let id = self.t.enter("cpu.run");
        let result = core.run(stream);
        self.t.exit(id);
        self.records.push(RunRecord {
            class: class.to_string(),
            platform: platform.clone(),
            workload: workload.clone(),
            opts: opts.clone(),
            run_ns: self.t.spans()[id].dur_ns(),
        });
        result
    }

    /// `run_campaign`'s resolution order (cache, then simulation; fresh
    /// results to the journal and the cache, then one JSON round trip),
    /// one public call per span.
    fn campaign(
        &mut self,
        spec: &CampaignSpec,
        cache: &ResultCache,
        journal: &mut Journal,
        path: usize,
    ) -> Result<Decomposed, String> {
        let cells = self.t.time("campaign.expand", || spec.expand())?;
        let mut outcomes = Vec::with_capacity(cells.len());
        let mut rows = Vec::with_capacity(cells.len());
        for cell in &cells {
            let key = self.t.time("campaign.fingerprint", || {
                cell_fingerprint(
                    "pair",
                    &pair_config_json(
                        &cell.platform,
                        &cell.local,
                        &cell.target,
                        &cell.workload,
                        &cell.opts,
                    ),
                )
            });
            if key != cell.key {
                return Err(format!("{}: fingerprint differs", cell.label()));
            }
            let cached = self.t.time("cache.get", || cache.get(&key));
            self.counts[path].cache_gets += 1;
            let json = match cached {
                Some(json) => {
                    self.counts[path].cache_hits += 1;
                    json
                }
                None => {
                    let local = self.run_cell(cell, &cell.local, "local");
                    let target = self.run_cell(cell, &cell.target, &cell.device_name);
                    let breakdown = self.t.time("spa.breakdown", || {
                        melody_spa::breakdown(&local.counters, &target.counters)
                    });
                    let outcome = PairOutcome {
                        workload: cell.workload.name.clone(),
                        suite: cell.workload.suite,
                        slowdown: target.slowdown_vs(&local),
                        breakdown,
                        local,
                        target,
                    };
                    let json = self
                        .t
                        .time("campaign.outcome_json", || serde_json::to_string(&outcome))
                        .map_err(|e| format!("{e:?}"))?;
                    self.t
                        .time("journal.record", || journal.record(&key, &json))
                        .map_err(|e| format!("journal: {e}"))?;
                    self.t
                        .time("cache.put", || cache.put(&key, &json))
                        .map_err(|e| format!("cache: {e}"))?;
                    json
                }
            };
            let outcome: PairOutcome = self
                .t
                .time("campaign.outcome_parse", || serde_json::from_str(&json))
                .map_err(|e| format!("{e:?}"))?;
            rows.push(CampaignRow {
                platform: cell.platform_name.clone(),
                device: cell.device_name.clone(),
                faults: cell.fault_name.clone(),
                policy: cell.policy_name.clone(),
                workload: outcome.workload.clone(),
                suite: outcome.suite.label().to_string(),
                slowdown: outcome.slowdown,
                breakdown: outcome.breakdown,
                local_ipc: outcome.local.ipc(),
                target_ipc: outcome.target.ipc(),
                target_p999_ns: outcome.target.demand_lat_hist.percentile(99.9),
            });
            outcomes.push((key, json));
        }
        let report = CampaignReport {
            name: spec.name.clone(),
            shard: Shard::full().to_string(),
            total_cells: cells.len(),
            rows,
            errors: vec![],
        };
        let report_json = self.t.time("campaign.report", || {
            melody::report::to_json(&report) + "\n"
        });
        Ok(Decomposed {
            report_json,
            outcomes,
        })
    }

    /// A cold campaign through the decomposed path as one traced job.
    fn campaign_job(&mut self, env: &Env, spec: &CampaignSpec) -> Result<Decomposed, String> {
        let dir = env.fresh_dir("traced")?;
        let root = self.t.enter("job");
        let job = self.cold_in(&dir, spec);
        self.t.exit(root);
        jobs::remove_dir(&dir)?;
        job
    }

    fn cold_in(&mut self, dir: &Path, spec: &CampaignSpec) -> Result<Decomposed, String> {
        let cache = self
            .t
            .time("cache.open", || ResultCache::open(dir.join("cache")))
            .map_err(|e| format!("cache: {e}"))?;
        let mut journal = self
            .t
            .time("journal.open", || Journal::open(dir.join("journal.jsonl")))
            .map_err(|e| format!("journal: {e}"))?;
        // On a worker thread, as `run_campaign` simulates its cells.
        std::thread::scope(|s| {
            s.spawn(|| self.campaign(spec, &cache, &mut journal, JOB))
                .join()
                .map_err(|_| "traced campaign panicked".to_string())
        })?
    }

    /// Traces one cold campaign job after an untraced reference run of
    /// the same spec, which it returns: the reports must match byte for
    /// byte, and every decomposed outcome (build → warm → run) must equal
    /// the runner's journaled one.
    fn traced_against_reference(
        &mut self,
        env: &Env,
        spec: &CampaignSpec,
    ) -> Result<jobs::CampaignJob, String> {
        let reference = jobs::cold_campaign(env, spec, "reference")?;
        self.untraced_ms.push(reference.ms);
        let complete = jobs::cold_run_is_complete(&reference.run);
        self.check(
            &spec.name,
            complete
                .then_some(())
                .ok_or("reference run incomplete".into()),
        );
        let traced = self.campaign_job(env, spec)?;
        self.check(
            &spec.name,
            same(&reference.report_json, &traced.report_json, "traced report"),
        );
        for (key, json) in &traced.outcomes {
            let want = reference.journal.get(key).unwrap_or_default();
            self.check(&spec.name, same(want, json, "decomposed outcome"));
        }
        Ok(reference)
    }

    /// One server job through the client calls, polled like
    /// `client::wait_with_backoff`; on the job path ([`JOB`]) it is one
    /// traced job.
    fn server_job(
        &mut self,
        addr: &str,
        body: &str,
        path: usize,
    ) -> Result<(Vec<u8>, JobView), String> {
        let root = (path == JOB).then(|| self.t.enter("job"));
        let answer = self.server_round_trip(addr, body, path);
        if let Some(root) = root {
            self.t.exit(root);
        }
        self.counts[path].server_jobs += 1;
        answer
    }

    fn server_round_trip(
        &mut self,
        addr: &str,
        body: &str,
        path: usize,
    ) -> Result<(Vec<u8>, JobView), String> {
        let started = Instant::now();
        let reply = self
            .t
            .time("server.submit", || {
                client::submit(addr, body, Some(jobs::CLIENT), None)
            })
            .map_err(|e| e.to_string())?;
        let mut last = None;
        let mut unchanged = 0u32;
        let view = loop {
            let view = self
                .t
                .time("server.status", || client::job_status(addr, &reply.job_id))
                .map_err(|e| e.to_string())?;
            self.counts[path].status_polls += 1;
            if view.status.is_finished() || view.status == JobStatus::Interrupted {
                break view;
            }
            if started.elapsed() > jobs::JOB_TIMEOUT {
                return Err(format!("{} did not finish", reply.job_id));
            }
            let seen = (
                view.status,
                view.cells_journaled,
                view.progress.as_ref().map_or(0, |p| p.done),
            );
            if last == Some(seen) {
                unchanged += 1;
            } else {
                last = Some(seen);
                unchanged = 0;
            }
            std::thread::sleep(client::backoff_delay(&jobs::POLL, unchanged + 1, None));
        };
        let result = self
            .t
            .time("server.result", || client::job_result(addr, &reply.job_id))
            .map_err(|e| e.to_string())?;
        Ok((result, view))
    }

    /// Splits every recorded detailed run: the same run against the null
    /// device, and the slot stream drained on its own.
    fn probe_runs(&mut self) {
        let root = self.t.enter("probe");
        for r in std::mem::take(&mut self.records) {
            let core = warmed_core(
                &mut self.t,
                Box::new(NullDevice::default()),
                &r.platform,
                &r.workload,
                &r.opts,
                NULL_SPANS,
            );
            let stream = SlotStream::new(&r.workload, r.opts.seed, r.opts.mem_refs);
            let id = self.t.enter("probe.null_run");
            black_box(core.run(stream));
            self.t.exit(id);
            let null_ns = self.t.spans()[id].dur_ns();
            let id = self.t.enter("probe.slot_drain");
            for slot in SlotStream::new(&r.workload, r.opts.seed, r.opts.mem_refs) {
                black_box(slot);
            }
            self.t.exit(id);
            let drain_ns = self.t.spans()[id].dur_ns();
            self.samples.push(RunSample {
                class: r.class,
                refs: r.opts.mem_refs,
                run_ns: r.run_ns,
                null_ns,
                drain_ns,
            });
        }
        self.t.exit(root);
    }

    /// Detailed probe cells on the cheapest-to-warm platform for every
    /// device class no job run touched, checked against `run_campaign`.
    fn probe_classes(&mut self, env: &Env) -> Result<(), String> {
        let missing: Vec<&str> = MEM_CLASSES
            .iter()
            .copied()
            .filter(|c| !self.records.iter().any(|r| r.class == *c))
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        let spec = specs::grid_spec(
            "probe-classes".into(),
            &["spr2s"],
            &missing,
            vec!["605.mcf".into()],
            "detailed",
            env.seed,
            PROBE_REFS,
        );
        let dir = env.fresh_dir("probe-classes")?;
        let cache = ResultCache::open(dir.join("cache")).map_err(|e| format!("cache: {e}"))?;
        let root = self.t.enter("probe");
        let got = self.campaign(&spec, &cache, &mut Journal::in_memory(), PROBE);
        self.t.exit(root);
        let direct = direct_report(&spec)?;
        self.check(
            "probe classes",
            same(&direct, &got?.report_json, "probe report"),
        );
        jobs::remove_dir(&dir)
    }

    /// The fast-tier interval model for every cell of `spec`.
    fn probe_interval(&mut self, spec: &CampaignSpec) -> Result<(), String> {
        let mut fast = spec.clone();
        fast.fidelity = Some("fast".into());
        let cells = fast.expand()?;
        let root = self.t.enter("probe");
        for cell in cells {
            black_box(self.run_cell(&cell, &cell.local, "local"));
            black_box(self.run_cell(&cell, &cell.target, &cell.device_name));
        }
        self.t.exit(root);
        Ok(())
    }

    /// A few seeded fast-tier jobs through a fresh server's client calls.
    fn probe_server(&mut self, env: &Env) -> Result<(), String> {
        let inputs = jobs::server_inputs(env.seed, PROBE_SERVER_JOBS)?;
        let server = jobs::start_server(env, "probe-server")?;
        let addr = server.addr();
        let root = self.t.enter("probe");
        let mut answers = Vec::new();
        for body in &inputs.bodies {
            answers.push(self.server_job(&addr, body, PROBE));
        }
        self.t.exit(root);
        jobs::stop_server(server);
        for (job, answer) in inputs.jobs.iter().zip(answers) {
            let r = answer.and_then(|(result, view)| jobs::check_server_job(job, &view, &result));
            self.check(&job.spec.name, r);
        }
        Ok(())
    }
}

fn same(want: &str, got: &str, what: &str) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!("{what} differs from the reference"))
    }
}

fn direct_report(spec: &CampaignSpec) -> Result<String, String> {
    let run = run_campaign(
        spec,
        Shard::full(),
        &mut Journal::in_memory(),
        None,
        &CellPolicy::default(),
    )?;
    Ok(melody::report::to_json(&run.report) + "\n")
}

/// `quick_cold` traced: one untraced reference campaign (checked like a
/// measured job), the same campaign traced, then the probes.
pub fn quick_cold(env: &Env) -> Result<TraceRun, String> {
    let inputs = jobs::quick_inputs(env)?;
    let mut tr = TraceRun::new();
    let reference = tr.traced_against_reference(env, &inputs.spec)?;
    if let Some(golden) = &inputs.reference {
        tr.check(
            "golden",
            same(golden, &reference.report_json, "reference report"),
        );
    }
    tr.finish_campaign_probes(env, &inputs.spec)?;
    Ok(tr)
}

/// `long_detailed` traced: one cell per target device.
pub fn long_detailed(env: &Env) -> Result<TraceRun, String> {
    let cells = jobs::long_inputs(env)?;
    let mut tr = TraceRun::new();
    let mut checker = jobs::LongChecker::new(env.seed);
    for i in TRACED_LONG_CELLS {
        let reference = tr.traced_against_reference(env, &cells[i])?;
        let r = checker.check(&cells[i], &reference);
        tr.check(&cells[i].name, r);
    }
    tr.finish_campaign_probes(env, &cells[TRACED_LONG_CELLS[0]])?;
    Ok(tr)
}

/// `server_fast` traced: the first jobs of the sequence, each sent
/// untraced to one fresh server and then traced to another (alternating,
/// so drift affects both alike); then the same specs replayed through
/// the decomposed campaign path (the work the server does for them), and
/// detailed probe cells for the simulation layers.
pub fn server_fast(env: &Env) -> Result<TraceRun, String> {
    let n = jobs::server_job_count(env.seconds).min(TRACED_SERVER_JOBS);
    let inputs = jobs::server_inputs(env.seed, n)?;
    let mut tr = TraceRun::new();
    let plain = jobs::start_server(env, "server-untraced")?;
    let traced_server = jobs::start_server(env, "server-traced")?;
    let mut untraced = Vec::with_capacity(n);
    let mut traced = Vec::with_capacity(n);
    for body in &inputs.bodies {
        let answer = jobs::server_job(&plain.addr(), body);
        if let Ok((ms, _, _)) = &answer {
            tr.untraced_ms.push(*ms);
        }
        untraced.push(answer);
        traced.push(tr.server_job(&traced_server.addr(), body, JOB));
    }
    jobs::stop_server(plain);
    jobs::stop_server(traced_server);

    let dir = env.fresh_dir("replay")?;
    let cache = ResultCache::open(dir.join("cache")).map_err(|e| format!("cache: {e}"))?;
    for (i, (job, (a, b))) in inputs
        .jobs
        .iter()
        .zip(untraced.into_iter().zip(traced))
        .enumerate()
    {
        let r = a.and_then(|(_, result, view)| {
            jobs::check_server_job(job, &view, &result)?;
            let (traced_result, traced_view) = b?;
            if traced_result != result || traced_view.stats != view.stats {
                return Err("traced server job differs from the untraced one".into());
            }
            let mut journal = Journal::open(dir.join(format!("journal-{i}.jsonl")))
                .map_err(|e| format!("journal: {e}"))?;
            let root = tr.t.enter("probe");
            let replay = tr.campaign(&job.spec, &cache, &mut journal, PROBE);
            tr.t.exit(root);
            same(
                &String::from_utf8_lossy(&result),
                &replay?.report_json,
                "replayed report",
            )
        });
        tr.check(&job.spec.name, r);
    }
    jobs::remove_dir(&dir)?;
    tr.probe_classes(env)?;
    tr.probe_runs();
    Ok(tr)
}

/// A named per-layer value with its unit.
pub type Metric = (String, f64, &'static str);

impl TraceRun {
    /// Probes shared by the campaign workloads: detailed cells for device
    /// classes the job did not run, the null-device and slot-stream
    /// splits, the interval model on `spec`'s cells, and server calls.
    fn finish_campaign_probes(&mut self, env: &Env, spec: &CampaignSpec) -> Result<(), String> {
        self.probe_classes(env)?;
        self.probe_runs();
        self.probe_interval(spec)?;
        self.probe_server(env)
    }

    /// For every span, whether it lies under a `job` root.
    fn on_job_path(&self) -> Vec<bool> {
        let spans = self.t.spans();
        let mut top = vec![0; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            top[i] = s.parent.map_or(i, |p| top[p]);
        }
        top.iter().map(|&r| spans[r].name == "job").collect()
    }

    /// Durations (ns) of the spans named `name`: those on the job path
    /// when there are any, else those of the probes.
    fn durations(&self, name: &str) -> Vec<f64> {
        let on_job = self.on_job_path();
        let pick = |job: bool| -> Vec<f64> {
            self.t
                .spans()
                .iter()
                .zip(&on_job)
                .filter(|(s, j)| s.name == name && **j == job)
                .map(|(s, _)| s.dur_ns() as f64)
                .collect()
        };
        let on_path = pick(true);
        if on_path.is_empty() {
            pick(false)
        } else {
            on_path
        }
    }

    /// The job path's counts when `on_path` says the jobs did that work,
    /// else the probes'.
    fn counts_for(&self, on_path: impl Fn(&Counts) -> bool) -> Counts {
        if on_path(&self.counts[JOB]) {
            self.counts[JOB]
        } else {
            self.counts[PROBE]
        }
    }

    /// Every per-layer metric, plus a table of layer self times per
    /// traced job whose rows add up to the job time.
    pub fn metrics(&mut self) -> Vec<Metric> {
        let mut out: Vec<Metric> = Vec::new();
        let mut missing = Vec::new();
        let mut put =
            |name: &str, v: Option<f64>, unit: &'static str| match v.filter(|v| v.is_finite()) {
                Some(v) => out.push((name.to_string(), v, unit)),
                None => {
                    missing.push(name.to_string());
                    out.push((name.to_string(), 0.0, unit));
                }
            };
        let mean_of = |name: &str, scale: f64| mean(&self.durations(name)).map(|v| v / scale);
        let warms = self.durations("cpu.warm").len() as f64;
        let cells = self.durations("cpu.run").len() as f64 / 2.0;
        put("cpu.warm_ms", mean_of("cpu.warm", 1e6), "ms");
        put(
            "cpu.warm_calls_per_cell",
            (cells > 0.0).then(|| warms / cells),
            "count",
        );
        put("cpu.core_new_us", mean_of("cpu.core_new", 1e3), "us");
        put("mem.build_us", mean_of("mem.build", 1e3), "us");
        let per_ref = |f: &dyn Fn(&RunSample) -> f64, class: Option<&str>| {
            let chosen: Vec<&RunSample> = self
                .samples
                .iter()
                .filter(|s| class.is_none_or(|c| s.class == c))
                .collect();
            let refs: u64 = chosen.iter().map(|s| s.refs).sum();
            (refs > 0).then(|| chosen.iter().map(|s| f(s)).sum::<f64>() / refs as f64)
        };
        put(
            "cpu.run_ns_per_ref",
            per_ref(&|s| s.run_ns as f64, None),
            "ns/ref",
        );
        put(
            "cpu.engine_ns_per_ref",
            per_ref(&|s| s.null_ns as f64 - s.drain_ns as f64, None),
            "ns/ref",
        );
        for class in MEM_CLASSES {
            put(
                &format!("mem.{class}.ns_per_ref"),
                per_ref(&|s| s.run_ns as f64 - s.null_ns as f64, Some(class)),
                "ns/ref",
            );
        }
        put(
            "workloads.slot_ns_per_ref",
            per_ref(&|s| s.drain_ns as f64, None),
            "ns/ref",
        );
        put("campaign.expand_ms", mean_of("campaign.expand", 1e6), "ms");
        put(
            "campaign.fingerprint_us",
            mean_of("campaign.fingerprint", 1e3),
            "us",
        );
        put("cache.get_us", mean_of("cache.get", 1e3), "us");
        put("cache.put_us", mean_of("cache.put", 1e3), "us");
        let c = self.counts_for(|c| c.cache_gets > 0);
        let (hits, gets) = (c.cache_hits, c.cache_gets);
        put(
            "cache.hit_ratio",
            (gets > 0).then(|| hits as f64 / gets as f64),
            "ratio",
        );
        put("journal.record_us", mean_of("journal.record", 1e3), "us");
        put(
            "campaign.outcome_json_us",
            mean_of("campaign.outcome_json", 1e3),
            "us",
        );
        put(
            "campaign.outcome_parse_us",
            mean_of("campaign.outcome_parse", 1e3),
            "us",
        );
        put("spa.breakdown_us", mean_of("spa.breakdown", 1e3), "us");
        put("spa.interval_us", mean_of("spa.interval", 1e3), "us");
        put("server.submit_ms", mean_of("server.submit", 1e6), "ms");
        put("server.status_ms", mean_of("server.status", 1e6), "ms");
        put("server.result_ms", mean_of("server.result", 1e6), "ms");
        let c = self.counts_for(|c| c.server_jobs > 0);
        let (polls, jobs) = (c.status_polls, c.server_jobs);
        put(
            "server.polls_per_job",
            (jobs > 0).then(|| polls as f64 / jobs as f64),
            "count",
        );
        let job_ms: Vec<f64> = self.durations("job").iter().map(|d| d / 1e6).collect();
        let traced = median(&job_ms);
        let untraced = median(&self.untraced_ms);
        put("trace.job_ms", traced, "ms");
        put("trace.residual_ms", self.self_time_table(), "ms");
        put(
            "trace.overhead_pct",
            traced.zip(untraced).map(|(t, u)| (t / u - 1.0) * 100.0),
            "%",
        );
        for name in missing {
            self.failures.push(format!("{name}: no samples"));
        }
        out
    }

    /// Adds the per-layer self time of the traced jobs to `lines` and
    /// returns the residual (time inside a job but in no layer's span),
    /// in ms per job. Fails the run if the rows do not add up.
    fn self_time_table(&mut self) -> Option<f64> {
        let spans = self.t.spans();
        let own = self_times(spans);
        let roots: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].name == "job" && spans[i].parent.is_none())
            .collect();
        if roots.is_empty() {
            return None;
        }
        let mut layers: Vec<(&str, u64)> = Vec::new();
        let (mut total, mut residual) = (0u64, 0u64);
        for &root in &roots {
            total += spans[root].dur_ns();
            residual += own[root];
            for i in root + 1..spans.len() {
                if !descends_from(spans, i, root) {
                    continue;
                }
                let layer = layer_of(spans[i].name);
                match layers.iter_mut().find(|(l, _)| *l == layer) {
                    Some((_, ns)) => *ns += own[i],
                    None => layers.push((layer, own[i])),
                }
            }
        }
        let per_job = |ns: u64| ns as f64 / 1e6 / roots.len() as f64;
        let mut lines = vec![format!(
            "traced job: {:.3} ms mean over {} job(s); layer self time per job:",
            per_job(total),
            roots.len()
        )];
        for (layer, ns) in &layers {
            lines.push(format!("  {layer:<10} {:>12.3} ms", per_job(*ns)));
        }
        lines.push(format!(
            "  {:<10} {:>12.3} ms",
            "residual",
            per_job(residual)
        ));
        let warm: u64 = (0..spans.len())
            .filter(|&i| {
                spans[i].name == "cpu.warm" && roots.iter().any(|&r| descends_from(spans, i, r))
            })
            .map(|i| spans[i].dur_ns())
            .sum();
        if warm > 0 {
            lines.push(format!(
                "warming: {:.1}% of traced job time",
                warm as f64 / total as f64 * 100.0
            ));
        }
        let summed = residual + layers.iter().map(|(_, ns)| ns).sum::<u64>();
        if summed != total {
            self.failures.push(format!(
                "self times add to {summed} ns, jobs took {total} ns"
            ));
        }
        self.lines.extend(lines);
        Some(per_job(residual))
    }

    /// Every span as JSON.
    pub fn spans_json(&self) -> String {
        self.t.to_json()
    }
}
