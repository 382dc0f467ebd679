//! The three end-to-end workloads, timed with tracing off, and the
//! checks on every job's output.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use melody::campaign::{run_campaign, CampaignRun, CampaignSpec, Shard};
use melody::exec::CellPolicy;
use melody::journal::Journal;
use melody::server::api::{JobStatus, JobView};
use melody::server::client::{self, RetrySchedule};
use melody::server::{ServeConfig, Server, ServerHandle};
use melody::{cache::ResultCache, PairOutcome};

use crate::specs::{self, ServerJob};

/// The seed at which outputs are compared with committed references;
/// it is also the program's own default campaign seed.
pub const DEFAULT_SEED: u64 = 42;
/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPS: usize = 11;
/// Fewest timed jobs per run, whatever `--seconds` says.
pub const MIN_JOBS: usize = 3;
/// `server_fast` submits `--seconds` times this many jobs.
pub const SERVER_JOBS_PER_SECOND: usize = 15;
/// Client name the benchmark submits under.
pub const CLIENT: &str = "perfbench";
/// Poll schedule of the waiting client: a fixed 8 ms. Fewer status
/// calls compete with the running job for the machine's two cores, and
/// the period stays clear of the server's 5 ms accept-loop sleep, so the
/// polls do not fall into step with it on some runs and out on others.
pub const POLL: RetrySchedule = RetrySchedule {
    max_retries: 0,
    base: Duration::from_millis(8),
    cap: Duration::from_millis(8),
};
pub const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// FNV-1a digests of each `long_detailed` cell report at
/// [`DEFAULT_SEED`], keyed by the cell's spec name.
const LONG_DIGESTS: [(&str, &str); 8] = [
    ("grid-fidelity-emr2s-cxl-a-605.mcf", "677c92f3f38c265b"),
    ("grid-fidelity-emr2s-cxl-a-541.leela", "a3bc3f47ba93f133"),
    ("grid-fidelity-emr2s-cxl-a-519.lbm", "eb43113ca131a0f4"),
    ("grid-fidelity-emr2s-cxl-a-bfs-web", "85d79f4d8da9d5e2"),
    ("grid-fidelity-emr2s-cxl-b-605.mcf", "8625f3d7cb5f5183"),
    ("grid-fidelity-emr2s-cxl-b-541.leela", "b1827d8bcef567d1"),
    ("grid-fidelity-emr2s-cxl-b-519.lbm", "268cff6c184906f8"),
    ("grid-fidelity-emr2s-cxl-b-bfs-web", "4cd280bc34138d00"),
];

/// Where a run reads its inputs and keeps its scratch files.
pub struct Env {
    pub root: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

impl Env {
    /// An empty directory `name` under the scratch area.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        remove_dir(&dir)?;
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    fn read(&self, rel: &str) -> Result<String, String> {
        let path = self.root.join(rel);
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn load_spec(&self, rel: &str) -> Result<CampaignSpec, String> {
        CampaignSpec::load(&self.root.join(rel).to_string_lossy())
    }
}

pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("{}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// 64-bit FNV-1a, as hex.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// What one untraced run measured.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub job_ms: Vec<f64>,
    pub cells_per_job: usize,
    pub attempted: usize,
    /// One entry per job that failed or failed its checks.
    pub failures: Vec<String>,
}

/// Runs set-up [`SETUP_REPS`] times, recording each time, and keeps the
/// last result; `teardown` disposes of the others untimed.
fn repeated_setup<T>(
    m: &mut Measured,
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<T, String> {
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let t0 = Instant::now();
        kept = Some(setup(rep)?);
        m.setup_s.push(t0.elapsed().as_secs_f64());
    }
    Ok(kept.expect("at least one set-up"))
}

/// One campaign call on an empty cache and journal.
pub struct CampaignJob {
    pub ms: f64,
    pub report_json: String,
    pub run: CampaignRun,
    pub journal: Journal,
}

/// Runs `spec` as a cold campaign in a fresh directory. Only the
/// campaign call and its cache/journal opening are timed.
pub fn cold_campaign(env: &Env, spec: &CampaignSpec, tag: &str) -> Result<CampaignJob, String> {
    let dir = env.fresh_dir(tag)?;
    let t0 = Instant::now();
    let cache = ResultCache::open(dir.join("cache")).map_err(|e| format!("cache: {e}"))?;
    let mut journal =
        Journal::open(dir.join("journal.jsonl")).map_err(|e| format!("journal: {e}"))?;
    let run = run_campaign(
        spec,
        Shard::full(),
        &mut journal,
        Some(&cache),
        &CellPolicy::default(),
    )?;
    let report_json = melody::report::to_json(&run.report) + "\n";
    let ms = ms_since(t0);
    remove_dir(&dir)?;
    Ok(CampaignJob {
        ms,
        report_json,
        run,
        journal,
    })
}

pub fn cold_run_is_complete(run: &CampaignRun) -> bool {
    run.report.errors.is_empty()
        && run.stats.simulated == run.report.total_cells
        && run.report.rows.len() == run.report.total_cells
}

/// `datasets/grid_quick.json` with explicit inputs, and the committed
/// report it must reproduce at the default seed.
pub struct QuickInputs {
    pub spec: CampaignSpec,
    pub cells: usize,
    pub reference: Option<String>,
}

pub fn quick_inputs(env: &Env) -> Result<QuickInputs, String> {
    let mut spec = env.load_spec("datasets/grid_quick.json")?;
    let refs = spec.mem_refs.ok_or("grid_quick.json sets mem_refs")?;
    specs::make_explicit(&mut spec, "detailed", env.seed, refs);
    let cells = spec.expand()?.len();
    let reference = if env.seed == DEFAULT_SEED {
        Some(env.read("tests/golden/campaign_grid_quick.json")?)
    } else {
        None
    };
    Ok(QuickInputs {
        spec,
        cells,
        reference,
    })
}

/// `quick_cold`: repeated cold `grid_quick` campaigns.
pub fn quick_cold(env: &Env) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut inputs = repeated_setup(&mut m, |_| quick_inputs(env), drop)?;
    m.cells_per_job = inputs.cells;
    let start = Instant::now();
    while m.attempted < MIN_JOBS || start.elapsed().as_secs_f64() < env.seconds {
        m.attempted += 1;
        let n = m.attempted;
        let checked = cold_campaign(env, &inputs.spec, "quick").and_then(|job| {
            m.job_ms.push(job.ms);
            if !cold_run_is_complete(&job.run) {
                return Err(job.run.stats.render());
            }
            // The golden at the default seed, the first report else.
            match &inputs.reference {
                Some(r) if *r != job.report_json => Err("report differs from the reference".into()),
                Some(_) => Ok(()),
                None => {
                    inputs.reference = Some(job.report_json);
                    Ok(())
                }
            }
        });
        if let Err(e) = checked {
            m.failures.push(format!("quick job {n}: {e}"));
        }
    }
    Ok(m)
}

/// The `grid_fidelity` cells, each as its own single-cell spec, in the
/// grid's expansion order, at the grid's `mem_refs` (2 M: warming is
/// under a tenth of a cell's time).
pub fn long_inputs(env: &Env) -> Result<Vec<CampaignSpec>, String> {
    let mut grid = env.load_spec("datasets/grid_fidelity.json")?;
    let refs = grid.mem_refs.ok_or("grid_fidelity.json sets mem_refs")?;
    specs::make_explicit(&mut grid, "detailed", env.seed, refs);
    let cells = grid.expand()?;
    if cells
        .iter()
        .any(|c| c.fault_name != "none" || !c.policy_name.is_empty())
    {
        return Err("grid_fidelity.json is expected to be a plain grid".into());
    }
    Ok(cells
        .iter()
        .map(|c| {
            let (p, d, w) = (&c.platform_name, &c.device_name, &c.workload.name);
            specs::grid_spec(
                format!("{}-{p}-{d}-{w}", grid.name),
                &[p],
                &[d],
                vec![w.clone()],
                "detailed",
                env.seed,
                refs,
            )
        })
        .collect())
}

/// The journaled outcome of a single-cell campaign.
pub fn only_outcome(job: &CampaignJob) -> Result<PairOutcome, String> {
    let (_, json) = job.journal.entries().next().ok_or("empty journal")?;
    serde_json::from_str(json).map_err(|e| format!("journal entry: {e:?}"))
}

/// Checks one `long_detailed` job: the committed digest at the default
/// seed; at other seeds, a repeated cell must repeat its report and the
/// local-DRAM baseline of a workload must agree across target devices.
pub struct LongChecker {
    seed: u64,
    reports: Vec<(String, String)>,
    locals: Vec<(String, String)>,
}

impl LongChecker {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            reports: Vec::new(),
            locals: Vec::new(),
        }
    }

    pub fn check(&mut self, spec: &CampaignSpec, job: &CampaignJob) -> Result<(), String> {
        if !cold_run_is_complete(&job.run) {
            return Err(job.run.stats.render());
        }
        if self.seed == DEFAULT_SEED {
            let got = digest(job.report_json.as_bytes());
            let want = LONG_DIGESTS
                .iter()
                .find(|(name, _)| *name == spec.name)
                .map(|(_, d)| *d);
            return match want {
                Some(d) if d == got => Ok(()),
                _ => Err(format!("report digest {got}, expected {want:?}")),
            };
        }
        match self.reports.iter().find(|(n, _)| *n == spec.name) {
            Some((_, r)) if *r != job.report_json => return Err("report not repeatable".into()),
            Some(_) => {}
            None => self
                .reports
                .push((spec.name.clone(), job.report_json.clone())),
        }
        let local =
            serde_json::to_string(&only_outcome(job)?.local).map_err(|e| format!("{e:?}"))?;
        let workload = spec.workloads[0].clone();
        match self.locals.iter().find(|(w, _)| *w == workload) {
            Some((_, l)) if *l != local => Err(format!("{workload}: local baseline differs")),
            Some(_) => Ok(()),
            None => {
                self.locals.push((workload, local));
                Ok(())
            }
        }
    }
}

/// `long_detailed`: single-cell detailed campaigns over the
/// `grid_fidelity` cells, in whole sweeps of the grid (at least one), so
/// every run times the same cells whatever the machine's speed.
pub fn long_detailed(env: &Env) -> Result<Measured, String> {
    let mut m = Measured {
        cells_per_job: 1,
        ..Default::default()
    };
    let cells = repeated_setup(&mut m, |_| long_inputs(env), drop)?;
    let mut checker = LongChecker::new(env.seed);
    let start = Instant::now();
    while m.attempted == 0 || start.elapsed().as_secs_f64() < env.seconds {
        for spec in &cells {
            m.attempted += 1;
            match cold_campaign(env, spec, "long").and_then(|job| {
                m.job_ms.push(job.ms);
                checker.check(spec, &job)
            }) {
                Ok(()) => {}
                Err(e) => m.failures.push(format!("{}: {e}", spec.name)),
            }
        }
    }
    Ok(m)
}

/// A started server on empty state and cache directories.
pub fn start_server(env: &Env, tag: &str) -> Result<ServerHandle, String> {
    let dir = env.fresh_dir(tag)?;
    Server::start(ServeConfig {
        port: 0,
        state_dir: dir.join("state"),
        cache_dir: Some(dir.join("cache")),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server: {e}"))
}

pub fn stop_server(server: ServerHandle) {
    server.drain();
    server.join();
}

/// The seeded `server_fast` job sequence and its submitted JSON bodies.
pub struct ServerInputs {
    pub jobs: Vec<ServerJob>,
    pub bodies: Vec<String>,
}

pub fn server_inputs(seed: u64, jobs: usize) -> Result<ServerInputs, String> {
    let registry: Vec<String> = melody_workloads::registry::all()
        .into_iter()
        .map(|w| w.name)
        .collect();
    let jobs = specs::server_jobs(seed, jobs, &registry);
    let bodies = jobs
        .iter()
        .map(|j| serde_json::to_string(&j.spec).map_err(|e| format!("{e:?}")))
        .collect::<Result<_, _>>()?;
    Ok(ServerInputs { jobs, bodies })
}

pub fn server_job_count(seconds: f64) -> usize {
    (seconds * SERVER_JOBS_PER_SECOND as f64)
        .round()
        .max(MIN_JOBS as f64) as usize
}

/// Submit → wait → result for one job; the whole round trip is timed.
pub fn server_job(addr: &str, body: &str) -> Result<(f64, Vec<u8>, JobView), String> {
    let t0 = Instant::now();
    let reply = client::submit(addr, body, Some(CLIENT), None).map_err(|e| e.to_string())?;
    let view = client::wait_with_backoff(addr, &reply.job_id, &POLL, JOB_TIMEOUT)
        .map_err(|e| e.to_string())?;
    let result = client::job_result(addr, &reply.job_id).map_err(|e| e.to_string())?;
    Ok((ms_since(t0), result, view))
}

/// The server's answer for a job must be a finished job with exactly
/// the predicted cache hits, and the bytes of a direct campaign run.
pub fn check_server_job(job: &ServerJob, view: &JobView, result: &[u8]) -> Result<(), String> {
    if view.status != JobStatus::Done {
        return Err(format!("status {}", view.status.label()));
    }
    let hits = view.stats.map(|s| s.cache_hits);
    if hits != Some(job.expected_hits) {
        return Err(format!(
            "cache hits {hits:?}, expected {}",
            job.expected_hits
        ));
    }
    let direct = run_campaign(
        &job.spec,
        Shard::full(),
        &mut Journal::in_memory(),
        None,
        &CellPolicy::default(),
    )?;
    let direct = melody::report::to_json(&direct.report) + "\n";
    if direct.as_bytes() != result {
        return Err("result differs from a direct run_campaign".into());
    }
    Ok(())
}

/// `server_fast`: a fixed number of fast-tier jobs through an
/// in-process server, one closed-loop client.
pub fn server_fast(env: &Env) -> Result<Measured, String> {
    let mut m = Measured {
        cells_per_job: specs::CELLS_PER_JOB,
        ..Default::default()
    };
    let n = server_job_count(env.seconds);
    let (inputs, server) = repeated_setup(
        &mut m,
        |rep| {
            let inputs = server_inputs(env.seed, n)?;
            Ok((inputs, start_server(env, &format!("server-{rep}"))?))
        },
        |(_, server)| stop_server(server),
    )?;
    let addr = server.addr();
    let mut answers = Vec::with_capacity(n);
    for (i, body) in inputs.bodies.iter().enumerate() {
        m.attempted += 1;
        match server_job(&addr, body) {
            Ok((ms, result, view)) => {
                m.job_ms.push(ms);
                answers.push((i, result, view));
            }
            Err(e) => m.failures.push(format!("server job {i}: {e}")),
        }
    }
    stop_server(server);
    for (i, result, view) in answers {
        if let Err(e) = check_server_job(&inputs.jobs[i], &view, &result) {
            m.failures.push(format!("server job {i}: {e}"));
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_long_cell_has_a_digest() {
        for (name, d) in LONG_DIGESTS {
            assert_eq!(d.len(), 16, "{name}");
            assert!(d.bytes().all(|b| b.is_ascii_hexdigit()), "{name}");
        }
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }
}
