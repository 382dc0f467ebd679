//! Seeded campaign-spec generation. Every spec sets `fidelity`, `seed`,
//! `mem_refs` and the sampling schedule explicitly, so no cell depends on
//! the process-wide defaults in `melody::exec`.

use melody::campaign::CampaignSpec;
use melody_cpu::SamplingParams;

/// SplitMix64: a small, fully specified generator, so the same seed
/// gives the same inputs on every platform and toolchain.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Fills in the execution inputs a spec may otherwise inherit from
/// process-wide state.
pub fn make_explicit(spec: &mut CampaignSpec, fidelity: &str, seed: u64, mem_refs: u64) {
    let sampling = SamplingParams::default();
    spec.fidelity = Some(fidelity.to_string());
    spec.seed = Some(seed);
    spec.mem_refs = Some(mem_refs);
    spec.sample_warmup = Some(sampling.warmup_slots);
    spec.sample_window = Some(sampling.window_slots);
    spec.sample_period = Some(sampling.period_slots);
}

/// A plain platforms × devices × workloads spec with explicit inputs.
pub fn grid_spec(
    name: String,
    platforms: &[&str],
    devices: &[&str],
    workloads: Vec<String>,
    fidelity: &str,
    seed: u64,
    mem_refs: u64,
) -> CampaignSpec {
    let strings = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
    let mut spec = CampaignSpec {
        name,
        platforms: strings(platforms),
        devices: strings(devices),
        workloads,
        faults: vec![],
        scale: None,
        mem_refs: None,
        seed: None,
        fidelity: None,
        sample_warmup: None,
        sample_window: None,
        sample_period: None,
        topologies: vec![],
        policies: vec![],
        page_bytes: None,
        migrate_budget_gbps: None,
    };
    make_explicit(&mut spec, fidelity, seed, mem_refs);
    spec
}

/// Platforms × disjoint device pairs. Tenants share no cell, so a
/// workload is cached for a tenant exactly when that tenant ran it.
const PLATFORMS: [&str; 5] = ["emr2s", "spr2s", "emr2s-prime", "skx2s", "skx8s"];
const DEVICE_PAIRS: [[&str; 2]; 4] = [
    ["cxl-a", "cxl-b"],
    ["cxl-c", "cxl-d"],
    ["skx-140", "skx-190"],
    ["skx-410", "numa"],
];
/// Number of tenants; job `j` belongs to tenant `j % TENANTS`.
pub const TENANTS: usize = PLATFORMS.len() * DEVICE_PAIRS.len();
/// Workloads per job: half repeat the tenant's earlier ones (cache
/// hits), half are new to it (closed-form misses).
pub const WORKLOADS_PER_JOB: usize = 12;
/// Cells per server job.
pub const CELLS_PER_JOB: usize = 2 * WORKLOADS_PER_JOB;
/// `mem_refs` of the fast-tier server jobs.
pub const SERVER_MEM_REFS: u64 = 1_000_000;

/// One generated server job and the cache hits it must see.
pub struct ServerJob {
    pub spec: CampaignSpec,
    pub expected_hits: usize,
}

/// The most jobs [`server_jobs`] can generate before a tenant runs out
/// of new registry workloads.
pub fn max_server_jobs(registry_len: usize) -> usize {
    let per_tenant = (registry_len - WORKLOADS_PER_JOB) / (WORKLOADS_PER_JOB / 2) + 1;
    per_tenant * TENANTS
}

/// The seeded job sequence of the `server_fast` workload: job `j` runs
/// tenant `j % TENANTS`'s platform and device pair over 12 workloads.
/// A tenant's first job draws 12 new workloads from its own seeded
/// permutation of `registry`; every later job draws 6 new ones and 6
/// seeded repeats of its earlier ones. The hit/miss mix is therefore
/// the same at every seed; only which workloads fill it changes.
pub fn server_jobs(seed: u64, jobs: usize, registry: &[String]) -> Vec<ServerJob> {
    assert!(
        jobs <= max_server_jobs(registry.len()),
        "{jobs} jobs exceed the registry's new-workload supply"
    );
    let mut rng = SplitMix64::new(seed ^ 0x7365_7276_6572); // "server"
    let mut tenants: Vec<(Vec<String>, usize)> = (0..TENANTS)
        .map(|_| {
            let mut order = registry.to_vec();
            rng.shuffle(&mut order);
            (order, 0)
        })
        .collect();
    (0..jobs)
        .map(|j| {
            let t = j % TENANTS;
            let (order, used) = &mut tenants[t];
            let (fresh, repeats) = if *used == 0 {
                (WORKLOADS_PER_JOB, 0)
            } else {
                (WORKLOADS_PER_JOB / 2, WORKLOADS_PER_JOB / 2)
            };
            let mut seen: Vec<usize> = (0..*used).collect();
            rng.shuffle(&mut seen);
            let mut workloads: Vec<String> =
                seen[..repeats].iter().map(|&i| order[i].clone()).collect();
            workloads.extend(order[*used..*used + fresh].iter().cloned());
            *used += fresh;
            rng.shuffle(&mut workloads);
            let spec = grid_spec(
                format!("server-fast-{j}"),
                &[PLATFORMS[t % PLATFORMS.len()]],
                &DEVICE_PAIRS[t / PLATFORMS.len()],
                workloads,
                "fast",
                seed,
                SERVER_MEM_REFS,
            );
            ServerJob {
                spec,
                expected_hits: 2 * repeats,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Cache hits the job sequence produces against one initially empty
    /// cache, counted from cell identities alone.
    fn simulated_hits(jobs: &[ServerJob]) -> usize {
        let mut cached: HashSet<(String, String, String)> = HashSet::new();
        let mut hits = 0;
        for job in jobs {
            for p in &job.spec.platforms {
                for d in &job.spec.devices {
                    for w in &job.spec.workloads {
                        if !cached.insert((p.clone(), d.clone(), w.clone())) {
                            hits += 1;
                        }
                    }
                }
            }
        }
        hits
    }

    fn registry() -> Vec<String> {
        melody_workloads::registry::all()
            .into_iter()
            .map(|w| w.name)
            .collect()
    }

    fn digest(jobs: &[ServerJob]) -> String {
        jobs.iter()
            .map(|j| serde_json::to_string(&j.spec).expect("spec serializes"))
            .collect()
    }

    #[test]
    fn same_seed_same_jobs_other_seed_other_jobs() {
        let reg = registry();
        let a = server_jobs(7, 60, &reg);
        assert_eq!(digest(&a), digest(&server_jobs(7, 60, &reg)));
        assert_ne!(digest(&a), digest(&server_jobs(8, 60, &reg)));
        // A prefix of a longer sequence is the shorter sequence.
        assert_eq!(digest(&a[..30]), digest(&server_jobs(7, 30, &reg)));
    }

    #[test]
    fn every_spec_is_explicit_and_expands_to_distinct_cells() {
        let reg = registry();
        for job in server_jobs(3, 2 * TENANTS, &reg) {
            let s = &job.spec;
            assert_eq!(s.fidelity.as_deref(), Some("fast"));
            assert_eq!(s.seed, Some(3));
            assert_eq!(s.mem_refs, Some(SERVER_MEM_REFS));
            assert!(s.sample_warmup.is_some() && s.sample_period.is_some());
            let cells = s.expand().expect("generated specs are valid");
            assert_eq!(cells.len(), CELLS_PER_JOB);
            let mut keys: Vec<&str> = cells.iter().map(|c| c.key.as_str()).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), CELLS_PER_JOB);
        }
    }

    #[test]
    fn hit_ratio_is_the_same_at_every_seed() {
        let reg = registry();
        let n = 300;
        // Every job after a tenant's first hits exactly half its cells.
        let expected = (n - TENANTS) * CELLS_PER_JOB / 2;
        for seed in [0, 1, 42, 0xdead_beef] {
            let jobs = server_jobs(seed, n, &reg);
            let predicted: usize = jobs.iter().map(|j| j.expected_hits).sum();
            assert_eq!(predicted, expected, "seed {seed}");
            assert_eq!(simulated_hits(&jobs), expected, "seed {seed}");
        }
        let ratio = expected as f64 / (n * CELLS_PER_JOB) as f64;
        assert!((ratio - 0.5 * (n - TENANTS) as f64 / n as f64).abs() < 1e-12);
        assert!(ratio > 0.45 && ratio < 0.5, "{ratio}");
    }

    #[test]
    fn the_job_supply_bound_is_tight() {
        let reg = registry();
        let max = max_server_jobs(reg.len());
        assert!(max >= 800, "{max}");
        let jobs = server_jobs(1, max, &reg);
        assert_eq!(
            simulated_hits(&jobs),
            jobs.iter().map(|j| j.expected_hits).sum::<usize>()
        );
    }
}
