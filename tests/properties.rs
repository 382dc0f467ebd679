//! Property-based invariant tests.
//!
//! Each test generates randomized inputs from the simulator's own
//! deterministic [`SimRng`] (no external property-testing dependency)
//! and checks a mechanical invariant the simulation must uphold for
//! *every* input, not just the golden configurations:
//!
//! - the DRAM row-buffer never services a column access on a closed row;
//! - CXL link flow-control credits never go negative and all return at
//!   quiesce;
//! - [`EventQueue`] pops are non-decreasing in time, FIFO within ties;
//! - Spa stall components are non-negative and sum to at most the total
//!   stall count;
//! - the tiering page table keeps every page in exactly one tier,
//!   conserves residency (`promoted − demoted == fast-resident`), keeps
//!   migrated bytes equal to migrations × page size, and never exceeds
//!   the per-epoch migration budget;
//! - every line a registry workload or its prefetchers can touch has a
//!   tag that fits the caches' 32-bit tag array.
//!
//! Iteration counts default low enough for the tier-1 suite; the
//! scheduled CI job raises them via `MELODY_PROP_ITERS`.

use melody::prelude::*;
use melody_cpu::{Cache, StreamPrefetcher, StridePrefetcher};
use melody_mem::{
    CxlDevice, DramBackend, DramTiming, MemRequest, PolicyKind, RequestKind, TieredDevice,
    TieringConfig,
};
use melody_sim::{CreditPool, EventQueue, SimRng};

/// Per-test iteration count: `MELODY_PROP_ITERS` when set, else the
/// test's own default (tuned so the whole suite stays in tier-1 budget).
fn iters(default: u64) -> u64 {
    std::env::var("MELODY_PROP_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn dram_row_buffer_never_hits_a_closed_row() {
    for case in 0..iters(40) {
        let mut rng = SimRng::seed_from(0xD7A8 ^ case);
        let timing = if rng.chance(0.5) {
            DramTiming::ddr4()
        } else {
            DramTiming::ddr5()
        };
        let channels = 1 + rng.below(8) as usize;
        let mut dram = DramBackend::new(timing, channels);
        let mut t = 0u64;
        for _ in 0..400 {
            // Mix of tight reuse (row hits) and far jumps (conflicts).
            let addr = if rng.chance(0.6) {
                rng.below(1 << 14) * 64
            } else {
                rng.below(1 << 30)
            };
            let is_read = rng.chance(0.7);
            // The oracle mirrors the controller's decode *before* the
            // access mutates bank state.
            let (ch, bank, row) = dram.locate(addr);
            let open_before = dram.open_row(ch, bank);
            let a = dram.access(addr, is_read, t);
            assert_eq!(
                a.row_hit,
                open_before == Some(row),
                "case {case}: row_hit must equal the open-row oracle \
                 (addr {addr:#x}, open {open_before:?}, row {row})"
            );
            if open_before != Some(row) {
                assert!(
                    !a.row_hit,
                    "case {case}: column access serviced on a closed row"
                );
            }
            assert_eq!(
                dram.open_row(ch, bank),
                Some(row),
                "case {case}: the accessed row must be left open"
            );
            assert!(a.completion >= t, "case {case}: completion before arrival");
            t += rng.below(3_000);
        }
    }
}

#[test]
fn credit_pool_conserves_credits_under_random_schedules() {
    for case in 0..iters(60) {
        let mut rng = SimRng::seed_from(0xC2ED17 ^ case);
        let total = 1 + rng.below(64) as u32;
        let mut pool = CreditPool::new(total);
        let mut now = 0u64;
        let mut held = 0u32;
        for _ in 0..500 {
            now += rng.below(1_000);
            // Acquiring with every credit held and no return scheduled is
            // a documented caller error (the pool panics), so the random
            // schedule releases first once fully held.
            if held > 0 && (held == total || rng.chance(0.5)) {
                pool.release_at(now + rng.below(5_000));
                held -= 1;
            } else {
                let granted = pool.acquire(now);
                assert!(granted >= now, "case {case}: grant in the past");
                held += 1;
            }
            assert!(
                pool.invariants_hold(),
                "case {case}: free+held+in-flight must equal {total}"
            );
            assert!(pool.available() <= pool.total());
        }
        // Return everything still held, then quiesce: every credit of
        // the initial count comes home, never more, never fewer.
        for _ in 0..held {
            now += rng.below(1_000);
            pool.release_at(now);
        }
        assert_eq!(pool.quiesce(), total, "case {case}");
        assert!(pool.invariants_hold(), "case {case}");
    }
}

#[test]
fn cxl_device_credits_quiesce_under_random_traffic() {
    let cxl_cfg = |spec: DeviceSpec| match spec {
        DeviceSpec::Cxl(cfg) => cfg,
        _ => unreachable!("CXL presets are CxlConfig"),
    };
    let kinds = [
        RequestKind::DemandRead,
        RequestKind::PrefetchRead,
        RequestKind::Rfo,
        RequestKind::WriteBack,
    ];
    for case in 0..iters(12) {
        let mut rng = SimRng::seed_from(0xC81 ^ case);
        let cfg = match rng.below(4) {
            0 => cxl_cfg(presets::cxl_a()),
            1 => cxl_cfg(presets::cxl_b()),
            2 => cxl_cfg(presets::cxl_c()),
            _ => cxl_cfg(presets::cxl_d()),
        };
        let mut dev = CxlDevice::new(cfg, 0x9E11 ^ case);
        let mut t = 0u64;
        for i in 0..2_000u64 {
            let kind = kinds[rng.below(4) as usize];
            dev.access(&MemRequest::new(rng.below(1 << 28) * 64, kind, t));
            // Burstiness: sometimes back-to-back, sometimes idle gaps.
            t += if rng.chance(0.7) {
                rng.below(400)
            } else {
                rng.below(60_000)
            };
            if i % 64 == 0 {
                assert!(
                    dev.credit_pool().invariants_hold(),
                    "case {case}: credit conservation broken at request {i}"
                );
            }
        }
        assert!(dev.credit_pool().invariants_hold(), "case {case}");
        let (avail, total) = dev.quiesce_credits();
        assert_eq!(avail, total, "case {case}: credits must all return");
    }
}

#[test]
fn event_queue_pops_nondecreasing_and_fifo_within_ties() {
    for case in 0..iters(80) {
        let mut rng = SimRng::seed_from(0xE0E47 ^ case);
        let mut q = EventQueue::new();
        let n = 1 + rng.below(300);
        for id in 0..n {
            // A small time range forces plenty of exact ties.
            q.push(rng.below(40), id);
        }
        let mut last: Option<(u64, u64)> = None;
        let mut popped = 0;
        while let Some((t, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                assert!(t >= lt, "case {case}: pops must be non-decreasing");
                if t == lt {
                    assert!(id > lid, "case {case}: ties must pop in insertion order");
                }
            }
            last = Some((t, id));
            popped += 1;
        }
        assert_eq!(popped, n, "case {case}: every event pops exactly once");
    }
}

#[test]
fn tiering_page_table_invariants_hold_under_random_streams() {
    for case in 0..iters(8) {
        let mut rng = SimRng::seed_from(0x71E2 ^ case);
        let policy = match rng.below(4) {
            0 => PolicyKind::LruHotness,
            1 => PolicyKind::Clock,
            2 => PolicyKind::BandwidthAware,
            _ => PolicyKind::SpaGuided, // empty guide: always migrates
        };
        let mut cfg = TieringConfig::new(policy);
        cfg.page_bytes = if rng.chance(0.5) { 4_096 } else { 8_192 };
        // A small fast tier so capacity pressure (and demotion) is real.
        cfg.fast_bytes = (4 + rng.below(28)) * cfg.page_bytes;
        cfg.epoch_ns = 5_000 + rng.below(30_000);
        cfg.hot_touches = 1 + rng.below(3);
        cfg.migrate_budget_gbps = 2.0 + rng.below(30) as f64;
        cfg.validate().expect("generated config is valid");
        let slow = presets::cxl_b();
        let mut dev = TieredDevice::new(
            cfg.clone(),
            presets::local_emr().build(1),
            slow.build(2),
            slow.analytic_profile().total_gbps,
        );
        let fast_capacity = cfg.fast_bytes / cfg.page_bytes;
        let budget = cfg.budget_bytes_per_epoch();
        let pages = 8 + rng.below(96);
        let lines_per_page = cfg.page_bytes / 64;
        let mut touched = std::collections::BTreeSet::new();
        let mut t = 0u64;
        let ctx = |case: u64| format!("case {case} ({policy:?})");
        for i in 0..4_000u64 {
            // Skewed page choice: a hot quarter takes most of the
            // traffic, so promotion, reuse, and eviction all happen.
            let page = if rng.chance(0.8) {
                rng.below(pages / 4 + 1)
            } else {
                rng.below(pages)
            };
            let addr = page * cfg.page_bytes + rng.below(lines_per_page) * 64;
            touched.insert(page);
            let is_store = rng.chance(0.3);
            dev.observe_slot(addr, is_store, t);
            let kind = if is_store {
                RequestKind::Rfo
            } else {
                RequestKind::DemandRead
            };
            let a = dev.access(&MemRequest::new(addr, kind, t));
            assert!(a.completion >= t, "{}: completion in the past", ctx(case));
            // Burstiness: back-to-back runs and long idle gaps, so some
            // epochs are packed and others see one straggler.
            t += if rng.chance(0.7) {
                rng.below(2_000)
            } else {
                rng.below(120_000)
            };
            if i % 256 == 0 {
                let c = dev.counters();
                assert!(
                    dev.fast_resident_pages() <= fast_capacity,
                    "{}: fast tier over capacity",
                    ctx(case)
                );
                assert_eq!(
                    c.migrated_bytes,
                    c.migrations * cfg.page_bytes,
                    "{}: byte math",
                    ctx(case)
                );
            }
        }
        let c = dev.counters();
        // Every page is in exactly one tier: residency is the fast-page
        // set, its complement within the known pages is the slow tier,
        // and nothing resides outside the observed page population.
        assert_eq!(
            dev.known_pages(),
            touched.len() as u64,
            "{}: page population tracks the stream",
            ctx(case)
        );
        let fast_of_touched = touched.iter().filter(|p| dev.is_fast_resident(**p)).count() as u64;
        assert_eq!(
            fast_of_touched,
            dev.fast_resident_pages(),
            "{}: every fast-resident page is a known page",
            ctx(case)
        );
        // Residency conservation: pages enter the fast tier only by
        // promotion and leave only by demotion.
        assert_eq!(
            c.promoted - c.demoted,
            dev.fast_resident_pages(),
            "{}: promoted − demoted must equal the resident count",
            ctx(case)
        );
        assert_eq!(
            c.migrations,
            c.promoted + c.demoted,
            "{}: every migration is a promotion or a demotion",
            ctx(case)
        );
        assert_eq!(
            c.migrated_bytes,
            c.migrations * cfg.page_bytes,
            "{}: migrated bytes are whole pages",
            ctx(case)
        );
        assert!(
            c.max_epoch_bytes <= budget,
            "{}: epoch moved {} bytes over the {} budget",
            ctx(case),
            c.max_epoch_bytes,
            budget
        );
        assert!(
            dev.fast_resident_pages() <= fast_capacity,
            "{}: fast tier over capacity",
            ctx(case)
        );
    }
}

#[test]
fn spa_stall_components_are_contained_and_bounded() {
    let devices = [
        presets::local_emr(),
        presets::numa_emr(),
        presets::cxl_a(),
        presets::cxl_b(),
        presets::cxl_c(),
        presets::cxl_d(),
    ];
    let workloads = registry::all();
    for case in 0..iters(10) {
        let mut rng = SimRng::seed_from(0x59A ^ case);
        let w = &workloads[rng.below(workloads.len() as u64) as usize];
        let spec = &devices[rng.below(devices.len() as u64) as usize];
        let opts = RunOptions {
            mem_refs: 2_000 + rng.below(4_000),
            seed: rng.next_u64(),
            prefetchers: rng.chance(0.8),
            ..Default::default()
        };
        let r = run_workload(&Platform::emr2s(), spec, w, &opts);
        let c = &r.counters;
        let ctx = format!("case {case}: {} on {}", w.name, spec.name());
        // Containment chain of the paper's Figure 10 counters: a deeper
        // miss level can never out-stall the level that contains it.
        assert!(c.bound_on_loads >= c.stalls_l1d_miss, "{ctx}");
        assert!(c.stalls_l1d_miss >= c.stalls_l2_miss, "{ctx}");
        assert!(c.stalls_l2_miss >= c.stalls_l3_miss, "{ctx}");
        // Exclusive components (Eq. 6 inputs) are differences of the
        // chain, so each is non-negative and they sum back exactly.
        let sum = c.s_l1() + c.s_l2() + c.s_l3() + c.s_dram();
        assert_eq!(sum, c.bound_on_loads, "{ctx}");
        assert!(
            c.s_memory() <= c.retired_stalls,
            "{ctx}: memory stalls {} exceed total retired stalls {}",
            c.s_memory(),
            c.retired_stalls
        );
        assert!(c.invariants_hold(), "{ctx}");
        assert!(c.retired_stalls <= c.cycles, "{ctx}");
    }
}

/// The compact cache stores 32-bit tags and panics on a line beyond
/// them. The smallest set count, and so the tightest bound, is an
/// unscaled L1 (the core builds it 12-way; SMP scaling only adds sets).
/// Every demand address stays below its phase's working set, and the
/// prefetchers reach at most a few dozen lines past a demand line.
#[test]
fn registry_addresses_fit_the_cache_tag_range() {
    let max_ws = registry::all()
        .iter()
        .flat_map(|w| w.phases.iter().map(|p| p.working_set))
        .max()
        .expect("non-empty registry");
    let reach =
        StridePrefetcher::l1_default().reach_lines() + StreamPrefetcher::l2_default().reach_lines();
    let top = max_ws / 64 + reach;
    for p in Platform::all() {
        // Panics if `top`'s tag does not fit.
        let mut l1 = Cache::new(p.l1d_kb as usize * 1024, 12);
        l1.fill(top, false);
        assert!(l1.contains(top), "{}: line {top:#x}", p.name);
    }
}
