//! Workload execution: single runs, local-vs-target pairs, and
//! populations.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use melody_cpu::{Core, CoreConfig, Fidelity, Platform, RunResult, SamplingParams};
use melody_mem::{DeviceSpec, GuideWindow, PolicyKind};
use melody_spa::{breakdown, Breakdown, BreakdownStream};
use melody_workloads::{SlotStream, Suite, WorkloadSpec};
use serde::{Deserialize, Serialize};

use crate::exec::CellPolicy;

/// Options for one workload run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOptions {
    /// Memory references to simulate per run (instruction count follows
    /// from the workload's arithmetic intensity).
    pub mem_refs: u64,
    /// Seed for the workload's address stream and the device RNG.
    pub seed: u64,
    /// Periodic counter sampling interval (simulated ns).
    pub sample_interval_ns: Option<u64>,
    /// Hardware prefetchers on/off.
    pub prefetchers: bool,
    /// Simulation fidelity tier (see [`Fidelity`]). Part of result
    /// identity: campaign fingerprints include it, so a sampled or fast
    /// result is never served from cache for a detailed request.
    #[serde(default)]
    pub fidelity: Fidelity,
    /// Sampling schedule for the [`Fidelity::Sampled`] tier; ignored by
    /// the other tiers.
    #[serde(default)]
    pub sampling: SamplingParams,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            mem_refs: 60_000,
            seed: 42,
            sample_interval_ns: None,
            prefetchers: true,
            fidelity: Fidelity::Detailed,
            sampling: SamplingParams::default(),
        }
    }
}

fn workload_seed(base: u64, name: &str) -> u64 {
    let mut h: u64 = base ^ 0x6d656c6f6479; // "melody"
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Synthesizes the guide schedule for a top-level
/// [`DeviceSpec::Tiered`] spec running the `spa-guided` policy with an
/// empty guide: a sampled profiling pair (the fast tier alone vs the
/// plain slow tier) is folded through [`BreakdownStream`], and each
/// complete window becomes a [`GuideWindow`] whose `mem_score` is the
/// window's DRAM share of the differential stall breakdown, timestamped
/// from the slow run's sample timeline. Returns `None` when the spec
/// needs no guide (not tiered, not spa-guided, or a guide is already
/// present), so every other policy's spec reaches the simulator
/// untouched. The guide never enters cell fingerprints — identity is
/// the un-guided spec, and the synthesis is deterministic from it.
fn synthesize_spa_guide(
    platform: &Platform,
    device: &DeviceSpec,
    workload: &WorkloadSpec,
    opts: &RunOptions,
) -> Option<DeviceSpec> {
    let DeviceSpec::Tiered {
        tiering,
        fast,
        slow,
    } = device
    else {
        return None;
    };
    if tiering.policy != PolicyKind::SpaGuided || !tiering.guide.is_empty() {
        return None;
    }
    let _span = melody_telemetry::span("run.spa_guide");
    let popts = RunOptions {
        sample_interval_ns: Some(2_000),
        ..opts.clone()
    };
    let fast_run = run_workload(platform, fast, workload, &popts);
    let slow_run = run_workload(platform, slow, workload, &popts);
    let period = (fast_run.counters.instructions / 24).max(1);
    let mut bs = BreakdownStream::new(period);
    for s in &fast_run.samples {
        bs.push_local(s);
    }
    for s in &slow_run.samples {
        bs.push_target(s);
    }
    let mut guide = Vec::new();
    for w in bs.poll() {
        let boundary = w.index as u64 * period;
        let start_ns = slow_run
            .samples
            .iter()
            .find(|s| s.counters.instructions >= boundary)
            .map(|s| s.time_ns)
            .unwrap_or(0);
        let total = w.breakdown.total.max(1e-9);
        guide.push(GuideWindow {
            start_ps: start_ns * 1_000,
            mem_score: (w.breakdown.dram.max(0.0) / total).clamp(0.0, 1.0),
        });
    }
    if guide.is_empty() {
        return None;
    }
    let mut tc = tiering.clone();
    tc.guide = guide;
    Some(DeviceSpec::Tiered {
        tiering: tc,
        fast: fast.clone(),
        slow: slow.clone(),
    })
}

/// Runs one workload on one device.
///
/// Under `--telemetry metrics` the wall-clock profile splits each run
/// into `run.spa_guide` (guide synthesis, spa-guided tiering only),
/// `run.core_new` (device build and core construction), `run.warm`
/// (functional cache warming) and `run.simulate`.
pub fn run_workload(
    platform: &Platform,
    device: &DeviceSpec,
    workload: &WorkloadSpec,
    opts: &RunOptions,
) -> RunResult {
    let scaled = platform.smp_scaled(workload.threads);
    // The fast tier is a closed-form interval model: no core, no warming,
    // no event loop (see [`melody_spa::run_interval`]).
    if opts.fidelity == Fidelity::Fast {
        let _span = melody_telemetry::span("run.simulate");
        return melody_spa::run_interval(
            &scaled,
            &device.analytic_profile(),
            workload,
            opts.mem_refs,
            opts.prefetchers,
        );
    }
    // The spa-guided policy consumes a profiling-derived guide schedule;
    // synthesize it here when the spec carries none.
    let guided;
    let device = match synthesize_spa_guide(platform, device, workload, opts) {
        Some(g) => {
            guided = g;
            &guided
        }
        None => device,
    };
    let ipc_peak = scaled.ipc_peak;
    let mut cfg = CoreConfig::new(scaled);
    cfg.prefetchers = opts.prefetchers;
    cfg.sample_interval_ns = opts.sample_interval_ns;
    cfg.frontend_bound = workload.frontend_bound;
    cfg.ilp = (workload.ilp * workload.threads as f64).min(ipc_peak);
    cfg.serialize_frac = workload.serialize_frac;
    let seed = workload_seed(opts.seed, &workload.name);
    let mut core = {
        let _span = melody_telemetry::span("run.core_new");
        Core::new(cfg, device.build(seed))
    };
    // Functional warming removes cold-start bias (see [`Core::warm`]).
    // The warmed ranges approximate the steady-state cache contents:
    // phases share one address space rooted at 0, so the *smallest*
    // phase footprint (and any skewed hot region) is warmed at the base,
    // and for overflowing phases the *tail* of the working set, so that
    // streams and uniform-random traffic keep their steady-state miss
    // ratios. The largest set is warmed first so the base region wins
    // cache residency on overlap.
    {
        let _span = melody_telemetry::span("run.warm");
        let cap = core.l3_capacity_bytes();
        let mut phases: Vec<&melody_workloads::Phase> = workload.phases.iter().collect();
        phases.sort_by_key(|p| std::cmp::Reverse(p.working_set));
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for p in phases {
            let ws = p.working_set;
            let range = match p.pattern {
                melody_workloads::Pattern::Skewed { hot_bytes, .. } if ws > cap => {
                    (0, hot_bytes.min(cap))
                }
                _ if ws <= cap => (0, ws),
                _ => (ws - cap, ws),
            };
            if !ranges.contains(&range) {
                ranges.push(range);
            }
        }
        for (start, end) in ranges {
            core.warm(start, end);
        }
    }
    // Same stream seed regardless of device: local and target runs
    // execute the identical instruction sequence.
    let _span = melody_telemetry::span("run.simulate");
    let stream = SlotStream::new(workload, opts.seed, opts.mem_refs);
    match opts.fidelity {
        Fidelity::Detailed => core.run(stream),
        Fidelity::Sampled => core.run_sampled(stream, opts.sampling),
        Fidelity::Fast => unreachable!("fast tier returns above"),
    }
}

/// Outcome of running one workload on a local baseline and a target
/// device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairOutcome {
    /// Workload name.
    pub workload: String,
    /// Workload suite.
    pub suite: Suite,
    /// Measured slowdown `c_target/c_local − 1` (fraction).
    pub slowdown: f64,
    /// Spa breakdown of the slowdown.
    pub breakdown: Breakdown,
    /// Baseline run.
    pub local: RunResult,
    /// Target run.
    pub target: RunResult,
}

/// Runs a workload against a (local, target) device pair.
pub fn run_pair(
    platform: &Platform,
    local_spec: &DeviceSpec,
    target_spec: &DeviceSpec,
    workload: &WorkloadSpec,
    opts: &RunOptions,
) -> PairOutcome {
    let local = {
        let _span = melody_telemetry::span("run_pair.local");
        run_workload(platform, local_spec, workload, opts)
    };
    let target = {
        let _span = melody_telemetry::span("run_pair.target");
        run_workload(platform, target_spec, workload, opts)
    };
    pair_outcome(workload, local, target)
}

/// Assembles the outcome of `workload`'s baseline and target runs: the
/// measured slowdown and its Spa breakdown.
fn pair_outcome(workload: &WorkloadSpec, local: RunResult, target: RunResult) -> PairOutcome {
    PairOutcome {
        workload: workload.name.clone(),
        suite: workload.suite,
        slowdown: target.slowdown_vs(&local),
        breakdown: breakdown(&local.counters, &target.counters),
        local,
        target,
    }
}

/// The canonical JSON of a pair's inputs, in the order `[platform,
/// local, target, workload, opts]`: the pieces of a campaign cell's
/// fingerprint and of both its runs' identities ([`RunIds`]).
pub(crate) fn pair_pieces(
    platform: &Platform,
    local: &DeviceSpec,
    target: &DeviceSpec,
    workload: &WorkloadSpec,
    opts: &RunOptions,
) -> [String; 5] {
    [
        serde_json::to_string(platform).expect("Platform serializes"),
        local.canonical_json(),
        target.canonical_json(),
        workload.canonical_json(),
        serde_json::to_string(opts).expect("RunOptions serializes"),
    ]
}

/// Numbers the distinct runs among a set of pairs.
///
/// A run's identity is its (platform, device spec, workload, options),
/// compared as the canonical JSON the campaign fingerprint hashes. The
/// simulator is deterministic in exactly these inputs, so two runs with
/// one identity produce the same [`RunResult`], and [`SharedRuns`] may
/// simulate it once for both.
#[derive(Default)]
pub(crate) struct RunIds {
    pieces: HashMap<String, u32>,
    runs: HashMap<[u32; 4], usize>,
}

impl RunIds {
    /// The ids of a pair's `[local, target]` runs, from its
    /// [`pair_pieces`].
    pub(crate) fn pair(&mut self, pieces: &[String; 5]) -> [usize; 2] {
        let [platform, local, target, workload, opts] =
            [0, 1, 2, 3, 4].map(|i| self.piece(&pieces[i]));
        [
            self.run([platform, local, workload, opts]),
            self.run([platform, target, workload, opts]),
        ]
    }

    fn piece(&mut self, json: &str) -> u32 {
        if let Some(&id) = self.pieces.get(json) {
            return id;
        }
        let id = self.pieces.len() as u32;
        self.pieces.insert(json.to_owned(), id);
        id
    }

    fn run(&mut self, pieces: [u32; 4]) -> usize {
        let next = self.runs.len();
        *self.runs.entry(pieces).or_insert(next)
    }
}

/// How long a waiting pair sleeps between checks for an owner that was
/// cancelled or overran its deadline (a published result wakes it at
/// once).
const OWNER_POLL: Duration = Duration::from_millis(5);

/// The distinct runs of one fan-out of pairs, each simulated once and
/// handed to every pair that needs it.
///
/// Pairs are numbered in the order the fan-out claims them
/// ([`crate::exec::run_cells`] and [`crate::exec::parallel_map`] both
/// claim in index order). The lowest-numbered pair that needs a run owns
/// it: the owner simulates the run inside its own cell, so trace events
/// and metrics land in the same cell at any worker count, and later
/// pairs wait for its result. An owner is always claimed before its
/// waiters, so the wait cannot deadlock. If the owner ends without a
/// result (it panicked, overran the policy's deadline, or was cancelled
/// before it started) a waiter simulates the run itself. A stored result
/// is dropped when the last pair that needs it has taken it.
pub(crate) struct SharedRuns {
    pairs: Vec<[usize; 2]>,
    slots: Vec<Slot>,
    cancel: Option<Arc<AtomicBool>>,
    deadline: Option<Duration>,
    simulated: AtomicUsize,
    reused: AtomicUsize,
}

/// One distinct run of a [`SharedRuns`].
struct Slot {
    owner: usize,
    share: Mutex<Share>,
    changed: Condvar,
}

struct Share {
    state: State,
    /// Takes still to come; the result is dropped when it reaches 0.
    uses: usize,
}

enum State {
    /// The owner has not started.
    Pending,
    /// The owner's pair started at this instant.
    Running(Instant),
    /// Published by the owner, kept for the remaining uses.
    Ready(Arc<RunResult>),
    /// No result will be published: the owner failed, or every planned
    /// use has been served. A pair that needs the run simulates it.
    Gone,
}

impl SharedRuns {
    /// Plans the runs of `pairs` (each pair's `[local, target]` run ids
    /// from [`RunIds`]), waiting on owners under `policy`'s cancellation
    /// token and deadline.
    pub(crate) fn new(pairs: Vec<[usize; 2]>, policy: &CellPolicy) -> Self {
        let n = pairs.iter().flatten().max().map_or(0, |&id| id + 1);
        let mut plan: Vec<(usize, usize)> = vec![(usize::MAX, 0); n];
        for (i, ids) in pairs.iter().enumerate() {
            for &id in ids {
                let (owner, uses) = &mut plan[id];
                *owner = (*owner).min(i);
                *uses += 1;
            }
        }
        let slots = plan
            .into_iter()
            .map(|(owner, uses)| Slot {
                owner,
                share: Mutex::new(Share {
                    state: State::Pending,
                    uses,
                }),
                changed: Condvar::new(),
            })
            .collect();
        Self {
            pairs,
            slots,
            cancel: policy.cancel.clone(),
            deadline: policy.deadline,
            simulated: AtomicUsize::new(0),
            reused: AtomicUsize::new(0),
        }
    }

    /// Pair `i`'s outcome: [`run_pair`] on these inputs, simulating only
    /// the runs no other pair has simulated for it.
    pub(crate) fn pair(
        &self,
        i: usize,
        platform: &Platform,
        specs: [&DeviceSpec; 2],
        workload: &WorkloadSpec,
        opts: &RunOptions,
    ) -> PairOutcome {
        self.pair_with(i, workload, |side| {
            let _span = melody_telemetry::span(["run_pair.local", "run_pair.target"][side]);
            run_workload(platform, specs[side], workload, opts)
        })
    }

    /// [`SharedRuns::pair`] over a run function: `simulate(0)` is the
    /// baseline run, `simulate(1)` the target run.
    fn pair_with(
        &self,
        i: usize,
        workload: &WorkloadSpec,
        simulate: impl Fn(usize) -> RunResult,
    ) -> PairOutcome {
        let _owner = Owner::start(self, i);
        let [local, target] =
            [0, 1].map(|side| self.take(self.pairs[i][side], i, || simulate(side)));
        pair_outcome(workload, local, target)
    }

    /// Runs simulated (by owners and by waiters that gave up on one).
    pub(crate) fn simulated(&self) -> usize {
        self.simulated.load(Ordering::Relaxed)
    }

    /// Runs served from another pair's simulation.
    pub(crate) fn reused(&self) -> usize {
        self.reused.load(Ordering::Relaxed)
    }

    /// Run `id` for pair `i`: taken from its owner, simulated and
    /// published (by the owner), or simulated privately (when no result
    /// will come).
    fn take(&self, id: usize, i: usize, simulate: impl FnOnce() -> RunResult) -> RunResult {
        let slot = &self.slots[id];
        let mut share = lock(&slot.share);
        loop {
            match share.state {
                State::Ready(_) => {
                    self.reused.fetch_add(1, Ordering::Relaxed);
                    return use_ready(share);
                }
                State::Pending | State::Running(_) if slot.owner == i => {
                    drop(share);
                    let r = Arc::new(self.simulate(simulate));
                    let mut share = lock(&slot.share);
                    share.state = State::Ready(r);
                    slot.changed.notify_all();
                    return use_ready(share);
                }
                State::Gone => break,
                State::Running(since) if self.deadline.is_some_and(|d| since.elapsed() >= d) => {
                    break
                }
                State::Pending
                    if self
                        .cancel
                        .as_ref()
                        .is_some_and(|c| c.load(Ordering::Relaxed)) =>
                {
                    break
                }
                _ => {
                    share = slot
                        .changed
                        .wait_timeout(share, OWNER_POLL)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            }
        }
        share.uses = share.uses.saturating_sub(1);
        drop(share);
        self.simulate(simulate)
    }

    fn simulate(&self, f: impl FnOnce() -> RunResult) -> RunResult {
        let r = f();
        self.simulated.fetch_add(1, Ordering::Relaxed);
        r
    }

    /// The slots of the runs pair `pair` owns.
    fn owned(&self, pair: usize) -> impl Iterator<Item = &Slot> {
        self.pairs[pair]
            .iter()
            .map(|&id| &self.slots[id])
            .filter(move |slot| slot.owner == pair)
    }
}

/// Locks a slot. Every update of a `Share` is a single assignment, so a
/// panic elsewhere cannot leave one half-written: a poisoned lock is
/// recovered, never propagated to the cells that wait on it.
fn lock(m: &Mutex<Share>) -> MutexGuard<'_, Share> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One use of a published result; the stored copy goes with the last.
fn use_ready(mut share: MutexGuard<'_, Share>) -> RunResult {
    let State::Ready(r) = &share.state else {
        unreachable!("only a published result is used");
    };
    let r = Arc::clone(r);
    share.uses = share.uses.saturating_sub(1);
    if share.uses == 0 {
        share.state = State::Gone;
    }
    drop(share);
    Arc::try_unwrap(r).unwrap_or_else(|r| (*r).clone())
}

/// Marks a pair's owned runs as started, and on drop (a normal return
/// or an unwind) gives up every one it left unpublished, waking its
/// waiters.
struct Owner<'a> {
    runs: &'a SharedRuns,
    pair: usize,
}

impl<'a> Owner<'a> {
    fn start(runs: &'a SharedRuns, pair: usize) -> Self {
        let now = Instant::now();
        for slot in runs.owned(pair) {
            let mut share = lock(&slot.share);
            if matches!(share.state, State::Pending) {
                share.state = State::Running(now);
            }
        }
        Self { runs, pair }
    }
}

impl Drop for Owner<'_> {
    fn drop(&mut self) {
        for slot in self.runs.owned(self.pair) {
            let mut share = lock(&slot.share);
            if matches!(share.state, State::Pending | State::Running(_)) {
                share.state = State::Gone;
                slot.changed.notify_all();
            }
        }
    }
}

/// Runs a workload population against one device pair, in registry order.
pub fn run_population(
    platform: &Platform,
    local_spec: &DeviceSpec,
    target_spec: &DeviceSpec,
    workloads: &[WorkloadSpec],
    opts: &RunOptions,
) -> Vec<PairOutcome> {
    workloads
        .iter()
        .map(|w| run_pair(platform, local_spec, target_spec, w, opts))
        .collect()
}

/// [`run_population`] fanned out over the configured worker pool
/// ([`crate::exec::jobs`]).
///
/// Each (workload, device-pair) cell derives its RNG seed from the cell
/// identity alone (`workload_seed`), and cells share no mutable state,
/// so the result is byte-identical to [`run_population`] — same values,
/// same order — for any worker count.
pub fn run_population_par(
    platform: &Platform,
    local_spec: &DeviceSpec,
    target_spec: &DeviceSpec,
    workloads: &[WorkloadSpec],
    opts: &RunOptions,
) -> Vec<PairOutcome> {
    let _span = melody_telemetry::span("population");
    crate::exec::parallel_map(workloads, |w| {
        run_pair(platform, local_spec, target_spec, w, opts)
    })
}

/// [`run_population_par`] with per-cell panic isolation: a workload that
/// panics (bad spec, invalid device config) becomes a structured
/// [`crate::exec::CellError`] instead of killing the sweep, and every
/// other workload still completes. Successful outcomes keep workload
/// order; errors carry the failed workload's name as the cell label.
pub fn run_population_resilient(
    platform: &Platform,
    local_spec: &DeviceSpec,
    target_spec: &DeviceSpec,
    workloads: &[WorkloadSpec],
    opts: &RunOptions,
    policy: &crate::exec::CellPolicy,
) -> (Vec<PairOutcome>, Vec<crate::exec::CellError>) {
    let results = crate::exec::run_cells(
        workloads,
        policy,
        |_, w| w.name.clone(),
        |w| run_pair(platform, local_spec, target_spec, w, opts),
    );
    let mut outcomes = Vec::new();
    let mut errors = Vec::new();
    for r in results {
        match r {
            Ok(o) => outcomes.push(o),
            Err(e) => errors.push(e),
        }
    }
    (outcomes, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use melody_mem::presets;
    use melody_workloads::registry;

    fn opts() -> RunOptions {
        RunOptions {
            mem_refs: 8_000,
            ..Default::default()
        }
    }

    #[test]
    fn pair_outcome_consistent() {
        let w = registry::by_name("605.mcf").expect("mcf");
        let p = run_pair(
            &Platform::emr2s(),
            &presets::local_emr(),
            &presets::cxl_b(),
            &w,
            &opts(),
        );
        assert!(
            p.slowdown > 0.2,
            "mcf on CXL-B should slow down: {}",
            p.slowdown
        );
        // Breakdown total equals measured slowdown by construction.
        assert!((p.breakdown.total - p.slowdown).abs() < 1e-9);
        // Identical instruction streams.
        assert_eq!(
            p.local.counters.instructions,
            p.target.counters.instructions
        );
    }

    #[test]
    fn compute_bound_workload_tolerates_cxl() {
        let w = registry::by_name("541.leela").expect("leela");
        let p = run_pair(
            &Platform::emr2s(),
            &presets::local_emr(),
            &presets::cxl_c(),
            &w,
            &opts(),
        );
        assert!(
            p.slowdown < 0.15,
            "compute-bound leela should tolerate even CXL-C: {}",
            p.slowdown
        );
    }

    #[test]
    fn determinism_across_invocations() {
        let w = registry::by_name("bfs-web").expect("bfs-web");
        let a = run_pair(
            &Platform::emr2s(),
            &presets::local_emr(),
            &presets::cxl_a(),
            &w,
            &opts(),
        );
        let b = run_pair(
            &Platform::emr2s(),
            &presets::local_emr(),
            &presets::cxl_a(),
            &w,
            &opts(),
        );
        assert_eq!(a.local.counters, b.local.counters);
        assert_eq!(a.target.counters, b.target.counters);
    }

    /// A cheap real run (the closed-form fast tier) of `w`.
    fn fast_run(w: &WorkloadSpec) -> RunResult {
        let fast = RunOptions {
            fidelity: Fidelity::Fast,
            ..opts()
        };
        run_workload(&Platform::emr2s(), &presets::local_emr(), w, &fast)
    }

    fn json(o: &PairOutcome) -> String {
        serde_json::to_string(o).expect("outcome serializes")
    }

    #[test]
    fn shared_runs_are_simulated_once_and_match_run_pair() {
        let w = registry::by_name("605.mcf").expect("mcf");
        let (platform, local) = (Platform::emr2s(), presets::local_emr());
        let targets = [presets::local_emr(), presets::cxl_a(), presets::cxl_b()];
        let mut ids = RunIds::default();
        let runs = targets
            .iter()
            .map(|t| ids.pair(&pair_pieces(&platform, &local, t, &w, &opts())))
            .collect();
        // The baseline is one run, and the `local` target is that run too.
        assert_eq!(runs, vec![[0, 0], [0, 1], [0, 2]]);
        let shared = SharedRuns::new(runs, &CellPolicy::default());
        let indexed: Vec<(usize, &DeviceSpec)> = targets.iter().enumerate().collect();
        let got = crate::exec::parallel_map_with(3, &indexed, |&(i, t)| {
            json(&shared.pair(i, &platform, [&local, t], &w, &opts()))
        });
        for (t, got) in targets.iter().zip(&got) {
            assert_eq!(*got, json(&run_pair(&platform, &local, t, &w, &opts())));
        }
        assert_eq!((shared.simulated(), shared.reused()), (3, 3));
        // Every stored result was dropped after its last use.
        for slot in &shared.slots {
            assert!(matches!(lock(&slot.share).state, State::Gone));
        }
    }

    #[test]
    fn a_waiter_simulates_the_run_its_owner_failed_to_publish() {
        let w = registry::by_name("541.leela").expect("leela");
        // Pairs 0 and 1 share run 0; pair 0 owns it and panics.
        let shared = SharedRuns::new(vec![[0, 1], [0, 2]], &CellPolicy::default());
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            // The waiter may block before the owner starts or arrive
            // after it died; either way it must not wait for ever.
            let waiter = s.spawn(|| {
                shared.pair_with(1, &w, |_| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    fast_run(&w)
                })
            });
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                shared.pair_with(0, &w, |_| panic!("owner dies"))
            }));
            assert!(died.is_err());
            waiter.join().expect("waiter completes");
        });
        assert_eq!(calls.load(Ordering::Relaxed), 2, "baseline and target");
        assert_eq!((shared.simulated(), shared.reused()), (2, 0));
    }

    #[test]
    fn a_waiter_gives_up_on_a_cancelled_or_overdue_owner() {
        let w = registry::by_name("541.leela").expect("leela");
        // Cancelled before the owner started: pair 0 never runs.
        let token = Arc::new(AtomicBool::new(true));
        let policy = CellPolicy::default().with_cancel(token);
        let shared = SharedRuns::new(vec![[0, 1], [0, 2]], &policy);
        shared.pair_with(1, &w, |_| fast_run(&w));
        assert_eq!(shared.simulated(), 2);

        // The owner started but overruns the deadline: the waiter
        // simulates the run while the owner is still busy. (Pair 0 runs
        // the baseline on both sides, so it simulates once.)
        let policy = CellPolicy::default().with_deadline(Duration::from_millis(1));
        let shared = SharedRuns::new(vec![[0, 0], [0, 1]], &policy);
        let (started, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                shared.pair_with(0, &w, |_| {
                    started.wait();
                    release.wait();
                    fast_run(&w)
                })
            });
            started.wait();
            shared.pair_with(1, &w, |_| fast_run(&w));
            release.wait();
        });
        assert_eq!(shared.simulated(), 3, "both pairs simulated the baseline");
    }

    #[test]
    fn population_preserves_order() {
        let ws: Vec<_> = registry::all().into_iter().take(3).collect();
        let out = run_population(
            &Platform::emr2s(),
            &presets::local_emr(),
            &presets::numa_emr(),
            &ws,
            &opts(),
        );
        assert_eq!(out.len(), 3);
        for (w, o) in ws.iter().zip(&out) {
            assert_eq!(w.name, o.workload);
        }
    }
}
