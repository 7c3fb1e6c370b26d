//! The adaptation world: the full closed loop — outcome feed → drift
//! detection → incremental re-fit → canary rollout — on a thermally
//! aging node, under network fault injection.
//!
//! [`run_adapt_seed`] builds a one-node SR650 cluster and calibrates a
//! first-generation model on it honestly (one pinned job per candidate
//! configuration, rows straight from the accounting database), commits
//! it to a shared [`chronusd::store::ModelStore`], and serves it from a
//! two-replica fleet: replica 0 is the **canary** arm, replica 1 the
//! **control** arm. Each arm drives its own real [`JobSubmitEco`]
//! through its own transport, and every completed job's observed
//! (GFLOPS, watts, duration) goes back over the wire via
//! `ReportOutcome` — through the same fault gauntlet as predictions.
//!
//! The scripted scenario, audited end to end:
//!
//! 1. **healthy** — fresh hardware, observations match the model's
//!    calibration number, neither daemon's drift detector trips;
//! 2. **drift** — the world installs frequency-aware thermal aging
//!    ([`ThermalAging::derate_at`]) and fast-forwards ten busy hours:
//!    the serving configuration near the top of the V/f curve sags
//!    hard, the bottom step barely notices, and both daemons trip;
//! 3. **poisoned re-fit** — the adaptation driver drains the canary
//!    daemon's reservoirs but a corrupted feed injects fabricated
//!    top-frequency rows; the re-fit dutifully picks the top step.
//!    The canary comparison catches it: the candidate underperforms
//!    control and is **rolled back**, with zero wrong-generation
//!    serves before, during or after;
//! 4. **clean re-fit** — both daemons' reservoirs (which now include
//!    the canary episode's honest top-frequency rows, superseding the
//!    stale calibration there) re-fit to the true aged optimum at the
//!    bottom of the curve; the canary holds up and is **promoted**
//!    fleet-wide, and the drift expectation is reset to the canary's
//!    own observed mean;
//! 5. **steady state** — both arms serve the promoted generation, the
//!    detector stays quiet, and whole-phase GFLOPS/W beats a
//!    no-adaptation baseline (same aged hardware, pinned to the stale
//!    configuration) by a clear margin.
//!
//! Crash/partition plans are deliberately excluded from this sweep: a
//! control daemon restarting mid-canary would catch up from the shared
//! store and silently join the candidate arm. Production pins canary
//! membership for exactly that reason, and the world reflects it.
//!
//! Any violation panics with the seed, the plan and a replay command
//! ([`crate::sweep::fail`]).

use std::path::PathBuf;
use std::sync::Arc;

use chronus::domain::{PluginState, Settings};
use chronus::hash::{binary_hash, classed_system_hash, system_hash};
use chronus::integrations::storage::EtcStorage;
use chronus::interfaces::LocalStorage;
use chronus::remote::RemotePrediction;
use chronus::ObservedOutcome;
use chronusd::adapt::{outcomes_to_benchmarks, refit_blob, CanaryController, CanaryVerdict, Verdict};
use chronusd::campaign::fit_best_config;
use chronusd::store::{MemBackend, ModelBlob, ModelRecord, ModelStore, Provenance};
use eco_hpcg::workload::{ScalingKind, SyntheticWorkload, Workload};
use eco_plugin::JobSubmitEco;
use eco_sim_node::class::NodeClass;
use eco_sim_node::clock::SimDuration;
use eco_sim_node::cpu::{CpuConfig, CpuSpec};
use eco_sim_node::thermal::ThermalAging;
use eco_slurm_sim::plugin::JobSubmitPlugin;
use eco_slurm_sim::{Cluster, JobDescriptor, JobState};
use parking_lot::Mutex;
use rand::{Rng, SeedableRng, StdRng};

use crate::faults::FaultPlan;
use crate::net::{Injected, SimNet};
use crate::world::{sim_client, storage_root};

/// Jobs per arm in the healthy warm-up phase.
pub const ADAPT_HEALTHY_JOBS: usize = 8;

/// Jobs per arm in the drift phase — sized so both daemons see at
/// least two full detector windows of drifted traffic even when the
/// fault plan eats a fifth of the reports.
pub const ADAPT_DRIFT_JOBS: usize = 48;

/// Upper bound on job pairs per canary episode; the episode normally
/// decides long before this (eight clean samples per arm suffice).
const CANARY_MAX_PAIRS: usize = 40;

/// Jobs per arm in the steady-state (post-promotion) phase.
const STEADY_JOBS: usize = 10;

/// Fabricated rows the poisoned feed injects — enough to dominate the
/// per-configuration average over any honest rows at the same step.
const POISON_ROWS: usize = 64;

/// Busy hours fast-forwarded when aging is switched on.
const AGE_FAST_FORWARD_HOURS: f64 = 10.0;

/// The aging law: 5 %/busy-hour at the top of the V/f curve, cubic
/// falloff down the curve, never below 35 % of nominal. Ten hours in,
/// the top step has lost half its throughput while the bottom step
/// still runs above 89 % — which moves the energy optimum down the
/// curve, the shift the whole scenario is about.
const AGING: ThermalAging = ThermalAging { rate_per_hour: 0.05, floor: 0.35 };

const BIN: &str = "/opt/apps/dgemm/bin/dgemm";
const BIN_CONTENTS: &str = "dgemm-1.0";
const USERS: [&str; 4] = ["alice", "bob", "carol", "dave"];

/// Virtual seconds a single job may take before the world calls it
/// starved (generous: the slowest aged configuration needs ~300 s).
const JOB_DEADLINE_S: u64 = 7_200;

fn workload() -> Arc<dyn Workload> {
    Arc::new(SyntheticWorkload::new("dgemm", ScalingKind::ComputeBound, 6_000.0, 1.0))
}

/// The fault plans this sweep runs under — every network fault family
/// except crashes and partitions (see the module docs for why canary
/// membership must stay pinned).
pub fn adapt_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::none(),
        FaultPlan::delays(),
        FaultPlan::drops(),
        FaultPlan::duplicates(),
        FaultPlan::reorders(),
        FaultPlan::busy_storms(),
    ]
}

/// Deterministic plan choice for a seed, over [`adapt_plans`].
pub fn adapt_plan_for_seed(seed: u64) -> FaultPlan {
    let plans = adapt_plans();
    plans[(seed % plans.len() as u64) as usize].clone()
}

/// What one seeded adaptation run produced.
#[derive(Debug)]
pub struct AdaptReport {
    pub seed: u64,
    pub plan: &'static str,
    /// The calibrated fresh optimum (generation 1's configuration).
    pub fresh_config: CpuConfig,
    /// The promoted aged optimum (generation 3's configuration).
    pub aged_config: CpuConfig,
    /// The rollback verdict's (canary mean, control mean).
    pub rollback_means: (f64, f64),
    /// The promotion verdict's (canary mean, control mean).
    pub promote_means: (f64, f64),
    /// Steady-state efficiency with adaptation.
    pub adapted_gflops_per_w: f64,
    /// Same aged hardware pinned to the stale configuration.
    pub stale_gflops_per_w: f64,
    /// `ReportOutcome` calls the arms issued (including failed ones).
    pub outcomes_reported: u64,
    /// Serves that contradicted the arm's expected generation — zero
    /// on any passing run.
    pub wrong_generation_serves: u64,
    /// The virtual-time event log (byte-identical across replays).
    pub log: Vec<String>,
    /// What the simulated network delivered and injected.
    pub injected: Injected,
}

/// One measured job: whether it ran at its arm's expected
/// configuration, and what it observed.
struct JobOutcome {
    on_config: bool,
    outcome: ObservedOutcome,
    system_energy_j: f64,
}

/// One plugin arm: its own storage root and its own transport into a
/// fixed replica, so rollouts reach it only via that replica.
struct ArmState {
    eco: JobSubmitEco,
    expected: CpuConfig,
    label: &'static str,
    root: PathBuf,
}

struct AdaptWorld {
    plan: FaultPlan,
    net: SimNet,
    cluster: Cluster,
    arms: Vec<ArmState>,
    spec: CpuSpec,
    rng: StdRng,
    violations: Vec<String>,
    wrong_generation_serves: u64,
    /// Accumulated busy seconds across every job the adaptive cluster
    /// ran — the baseline cluster is aged to the same point.
    busy_s: f64,
    job_no: usize,
}

impl AdaptWorld {
    /// Submits one full-package job through `arm`'s plugin, runs it to
    /// completion and reports its outcome back over the wire. Returns
    /// `None` when the job never completed (a violation) — a predict
    /// miss (descriptor left unrewritten under faults) still runs and
    /// reports, it just doesn't count as an on-configuration sample.
    fn run_arm_job(&mut self, arm_idx: usize) -> Option<JobOutcome> {
        let n = self.job_no;
        self.job_no += 1;
        let user = USERS[self.rng.gen_range(0..USERS.len())];
        let arm = &mut self.arms[arm_idx];
        let mut d = JobDescriptor::new(&format!("{}-{n}", arm.label), user, BIN);
        d.num_tasks = self.spec.cores;
        if let Err(e) = arm.eco.job_submit(&mut d, 1000 + arm_idx as u32) {
            // non-strict mode never rejects; a rejection here is a bug
            self.violations.push(format!("job {n} ({}): plugin rejected a submission: {e:?}", arm.label));
            return None;
        }
        let served = d.max_frequency_khz.is_some();
        if served && (d.max_frequency_khz != Some(arm.expected.frequency_khz) || d.num_tasks != arm.expected.cores) {
            self.wrong_generation_serves += 1;
            self.violations.push(format!(
                "job {n} ({}): wrong-generation serve — rewritten to ({} cores, {:?} kHz), arm expects ({}, {})",
                arm.label, d.num_tasks, d.max_frequency_khz, arm.expected.cores, arm.expected.frequency_khz
            ));
        }
        let id = match self.cluster.submit(d) {
            Ok(id) => id,
            Err(e) => {
                self.violations.push(format!("job {n} ({}): submission rejected: {e}", arm.label));
                return None;
            }
        };
        let mut waited = 0u64;
        while self.cluster.accounting().get(id).is_none() && waited < JOB_DEADLINE_S {
            self.cluster.advance(SimDuration::from_secs(5));
            waited += 5;
        }
        let arm = &self.arms[arm_idx];
        let Some(record) = self.cluster.accounting().get(id).cloned() else {
            self.violations.push(format!("job {n} ({}): no accounting record after {JOB_DEADLINE_S}s", arm.label));
            return None;
        };
        if record.state != JobState::Completed {
            self.violations.push(format!("job {n} ({}): ended {:?}, not Completed", arm.label, record.state));
            return None;
        }
        let (Some(start), Some(end), Some(config)) = (record.start_time, record.end_time, record.config) else {
            self.violations.push(format!("job {n} ({}): incomplete accounting record", arm.label));
            return None;
        };
        let duration_s = (end - start).as_secs_f64();
        if duration_s <= 0.0 || record.system_energy_j <= 0.0 {
            self.violations.push(format!("job {n} ({}): non-positive duration or energy billed", arm.label));
            return None;
        }
        self.busy_s += duration_s;
        let outcome = ObservedOutcome {
            config,
            gflops: workload().total_gflop() / duration_s,
            watts: record.system_energy_j / duration_s,
            duration_s,
            node_class: String::new(),
        };
        // the outcome feed: back over the wire, through the fault plan
        arm.eco.report_outcome(BIN, None, &outcome);
        let on_config =
            served && config.frequency_khz == arm.expected.frequency_khz && config.cores == arm.expected.cores;
        // seeded think-time between jobs
        let idle = self.rng.gen_range(0..10u64);
        self.cluster.advance(SimDuration::from_secs(idle));
        Some(JobOutcome { on_config, outcome, system_energy_j: record.system_energy_j })
    }

    /// Runs `per_arm` jobs alternating canary/control (seeded order
    /// within each pair).
    fn run_phase(&mut self, per_arm: usize) {
        for _ in 0..per_arm {
            let first = self.rng.gen_range(0..2usize);
            let _ = self.run_arm_job(first);
            let _ = self.run_arm_job(1 - first);
        }
    }

    /// One canary episode: alternating pairs feed the controller until
    /// it renders a verdict. Only on-configuration samples count — a
    /// predict miss runs at the hardware default, which would smear
    /// both arms with the same configuration.
    fn canary_episode(&mut self, controller: &mut CanaryController) -> Option<CanaryVerdict> {
        for _ in 0..CANARY_MAX_PAIRS {
            for arm_idx in [0usize, 1] {
                if let Some(job) = self.run_arm_job(arm_idx) {
                    if let (true, Some(gpw)) = (job.on_config, job.outcome.gflops_per_watt()) {
                        if arm_idx == 0 {
                            controller.observe_canary(gpw);
                        } else {
                            controller.observe_control(gpw);
                        }
                    }
                }
            }
            if let Some(verdict) = controller.decide() {
                return Some(verdict);
            }
        }
        None
    }
}

/// One pinned calibration job per candidate configuration on fresh
/// hardware, measured from the accounting database — the honest
/// offline campaign the first generation is fit from.
fn calibrate(cluster: &mut Cluster, grid: &[CpuConfig], violations: &mut Vec<String>) -> Vec<ObservedOutcome> {
    let mut rows = Vec::with_capacity(grid.len());
    for (i, config) in grid.iter().enumerate() {
        let mut d = JobDescriptor::new(&format!("cal-{i}"), "ops", BIN);
        d.apply_config(config);
        let Ok(id) = cluster.submit(d) else {
            violations.push(format!("calibration job {i} rejected"));
            continue;
        };
        let mut waited = 0u64;
        while cluster.accounting().get(id).is_none() && waited < JOB_DEADLINE_S {
            cluster.advance(SimDuration::from_secs(5));
            waited += 5;
        }
        let Some(record) = cluster.accounting().get(id).cloned() else {
            violations.push(format!("calibration job {i} never completed"));
            continue;
        };
        let (Some(start), Some(end), Some(ran)) = (record.start_time, record.end_time, record.config) else {
            violations.push(format!("calibration job {i}: incomplete accounting record"));
            continue;
        };
        let duration_s = (end - start).as_secs_f64();
        rows.push(ObservedOutcome {
            config: ran,
            gflops: workload().total_gflop() / duration_s,
            watts: record.system_energy_j / duration_s,
            duration_s,
            node_class: String::new(),
        });
    }
    rows
}

/// The candidate grid: the whole package at each DVFS step.
fn candidate_grid(class: &NodeClass) -> Vec<CpuConfig> {
    let mut freqs = class.spec.frequencies_khz.clone();
    freqs.sort_unstable();
    freqs.into_iter().map(|f| CpuConfig::new(class.spec.cores, f, 1)).collect()
}

/// Runs the adaptation world once under `seed`. Panics (with a replay
/// command) on any invariant violation; returns a report otherwise.
pub fn run_adapt_seed(seed: u64, plan: &FaultPlan) -> AdaptReport {
    let rng = StdRng::seed_from_u64(seed ^ 0xada7_5eed_ca11_b0a7u64);
    let class = NodeClass::sr650();
    let spec = class.spec.clone();
    let sys = system_hash(&spec, class.ram_gb);
    let classed = classed_system_hash(sys, "");
    let bin_hash = binary_hash(BIN_CONTENTS);
    let key = (classed, bin_hash);
    let grid = candidate_grid(&class);
    let top_config = *grid.last().expect("grid has configs");
    let low_config = *grid.first().expect("grid has configs");

    let mut violations: Vec<String> = Vec::new();

    // --- calibration: fit and commit generation 1 ---
    let mut cluster = Cluster::heterogeneous(&[(class.clone(), 1)]);
    cluster.register_binary(BIN, workload());
    let calibration = calibrate(&mut cluster, &grid, &mut violations);
    let benchmarks = outcomes_to_benchmarks(1, bin_hash, &calibration, 1);
    let fit = fit_best_config("brute-force", &benchmarks, &grid).expect("calibration rows fit");
    // scenario preconditions: aging must have somewhere to push the
    // optimum — the fresh winner has to sit strictly inside the curve
    assert!(
        fit.best.frequency_khz < top_config.frequency_khz && fit.best.frequency_khz > low_config.frequency_khz,
        "scenario precondition: fresh optimum {:?} must sit strictly inside the V/f curve — retune the workload",
        fit.best
    );
    let blob1 = ModelBlob {
        model_type: "brute-force".to_string(),
        system_hash: classed,
        binary_hash: bin_hash,
        config: fit.best,
        benchmarks,
    };
    let store = Arc::new(Mutex::new(ModelStore::open(Box::new(MemBackend::default())).expect("open adapt store")));
    let rec1 = store
        .lock()
        .commit(
            &blob1,
            1,
            Provenance {
                campaign: "adapt-world-calibration".to_string(),
                seed,
                plan: "grid".to_string(),
                trials_run: grid.len() as u64,
                best_gflops_per_watt: fit.best_gflops_per_watt,
                ..Provenance::default()
            },
        )
        .expect("commit generation 1");

    // --- the fleet: canary and control replicas over the one store ---
    let net = SimNet::fleet_with_store(seed, plan.clone(), &["canary", "control"], Arc::clone(&store));
    let telemetry = net.telemetry();
    let mut arms = Vec::new();
    for (i, label) in ["canary", "control"].into_iter().enumerate() {
        let root = storage_root(&format!("adapt-{label}"), seed);
        let storage = Arc::new(EtcStorage::new(&root));
        storage.save_settings(&Settings { state: PluginState::Active, ..Settings::default() }).expect("settings");
        let mut eco =
            JobSubmitEco::new(Arc::clone(&storage) as Arc<dyn LocalStorage + Send + Sync>, &spec, class.ram_gb);
        eco.register_binary(BIN, BIN_CONTENTS);
        eco.set_telemetry(Arc::clone(&telemetry));
        let source = Arc::new(RemotePrediction::from_client(sim_client(net.transport_for(i))));
        source.set_telemetry(Arc::clone(&telemetry));
        eco.set_source(source);
        arms.push(ArmState { eco, expected: rec1.config, label, root });
    }
    cluster.set_telemetry(Arc::clone(&telemetry));

    let mut w = AdaptWorld {
        plan: plan.clone(),
        net,
        cluster,
        arms,
        spec,
        rng,
        violations,
        wrong_generation_serves: 0,
        busy_s: 0.0,
        job_no: 0,
    };

    // --- phase 1: healthy ---
    w.net.note(format!(
        "phase healthy: gen 1 serves {:?} ({:.4} GFLOPS/W calibrated)",
        rec1.config, fit.best_gflops_per_watt
    ));
    w.run_phase(ADAPT_HEALTHY_JOBS);
    for i in 0..2 {
        if w.net.service(i).adapt().is_tripped(key) {
            w.violations.push(format!("daemon {i} tripped on healthy traffic"));
        }
    }

    // --- phase 2: drift ---
    w.cluster.set_thermal_aging(Some(AGING));
    w.cluster.age_nodes(AGE_FAST_FORWARD_HOURS);
    w.net.note(format!("phase drift: aging installed, fast-forwarded {AGE_FAST_FORWARD_HOURS}h of busy time"));
    w.run_phase(ADAPT_DRIFT_JOBS);
    for i in 0..2 {
        if !w.net.service(i).adapt().is_tripped(key) {
            w.violations.push(format!("daemon {i} did not trip after {ADAPT_DRIFT_JOBS} drifted jobs per arm"));
        }
    }

    // --- phase 3: poisoned re-fit, caught by the canary ---
    let base1 = store.lock().load_blob(&rec1).expect("generation 1 blob loads");
    let mut fresh = w.net.service(0).adapt().drain(key);
    let honest_rows = fresh.len();
    for i in 0..POISON_ROWS {
        // the corrupted feed: fabricated top-step rows claiming heroic
        // efficiency no aged node can deliver
        fresh.push(ObservedOutcome {
            config: top_config,
            gflops: 88.0 + (i % 5) as f64,
            watts: 180.0,
            duration_s: 60.0,
            node_class: String::new(),
        });
    }
    let poisoned = refit_blob(&base1, &fresh, &grid).expect("poisoned re-fit fits");
    assert_eq!(
        poisoned.blob.config, top_config,
        "scenario precondition: {POISON_ROWS} fabricated rows must dominate {honest_rows} honest ones"
    );
    let rec2 = store.lock().commit(&poisoned.blob, 2, poisoned.provenance(&rec1)).expect("commit generation 2");
    w.net.catch_up(0);
    w.arms[0].expected = rec2.config;
    let mut controller = CanaryController::default();
    controller.begin(rec2.generation, rec1.generation);
    w.net.note(format!(
        "phase canary-1: poisoned gen {} ({:?}) vs gen {}",
        rec2.generation, rec2.config, rec1.generation
    ));
    let verdict1 = w.canary_episode(&mut controller);
    let rollback_means = match &verdict1 {
        Some(v) if v.verdict == Verdict::Rollback => (v.canary_mean, v.control_mean),
        other => {
            w.violations.push(format!("poisoned candidate was not rolled back: {other:?}"));
            (f64::NAN, f64::NAN)
        }
    };
    store.lock().rollback_to(rec1.generation, "canary: candidate underperformed control").expect("rollback");
    w.net.catch_up(0);
    w.arms[0].expected = rec1.config;
    w.net.note("phase canary-1: rolled back to gen 1".to_string());

    // --- phase 4: clean re-fit from both daemons' reservoirs ---
    let mut fresh2 = w.net.service(0).adapt().drain(key);
    fresh2.extend(w.net.service(1).adapt().drain(key));
    let clean = refit_blob(&base1, &fresh2, &grid).expect("clean re-fit fits");
    assert_eq!(
        clean.blob.config, low_config,
        "scenario precondition: the aged optimum must be the bottom DVFS step — retune the aging law"
    );
    let rec3 = store.lock().commit(&clean.blob, 3, clean.provenance(&rec1)).expect("commit generation 3");
    w.net.catch_up(0);
    w.arms[0].expected = rec3.config;
    controller.begin(rec3.generation, rec1.generation);
    w.net.note(format!(
        "phase canary-2: clean gen {} ({:?}) vs gen {}",
        rec3.generation, rec3.config, rec1.generation
    ));
    let verdict2 = w.canary_episode(&mut controller);
    let promote_means = match &verdict2 {
        Some(v) if v.verdict == Verdict::Promote => (v.canary_mean, v.control_mean),
        other => {
            w.violations.push(format!("clean candidate was not promoted: {other:?}"));
            (f64::NAN, f64::NAN)
        }
    };
    w.net.catch_up(1);
    w.arms[1].expected = rec3.config;
    if let Some(ref v) = verdict2 {
        // judge future drift against what the promoted model actually
        // delivers on aged hardware, not its (stale-row) calibration
        for i in 0..2 {
            w.net.service(i).adapt().set_expectation(key, v.canary_mean);
        }
    }
    w.net.note("phase steady: gen 3 promoted fleet-wide".to_string());

    // --- phase 5: steady state, measured ---
    let steady_start_busy_h = w.busy_s / 3600.0;
    let mut adapted_gflop = 0.0;
    let mut adapted_energy_j = 0.0;
    for _ in 0..STEADY_JOBS {
        for arm_idx in [0usize, 1] {
            if let Some(job) = w.run_arm_job(arm_idx) {
                if job.on_config {
                    adapted_gflop += workload().total_gflop();
                    adapted_energy_j += job.system_energy_j;
                }
            }
        }
    }
    let adapted_gpw = adapted_gflop / adapted_energy_j;
    for i in 0..2 {
        if w.net.service(i).adapt().is_tripped(key) {
            w.violations.push(format!("daemon {i} is still tripped after promotion reset the expectation"));
        }
    }

    // --- the no-adaptation baseline: same aged hardware, stale config ---
    let mut stale_cluster = Cluster::heterogeneous(&[(class.clone(), 1)]);
    stale_cluster.register_binary(BIN, workload());
    stale_cluster.set_thermal_aging(Some(AGING));
    stale_cluster.age_nodes(AGE_FAST_FORWARD_HOURS + steady_start_busy_h);
    let mut stale_gflop = 0.0;
    let mut stale_energy_j = 0.0;
    for i in 0..STEADY_JOBS * 2 {
        let mut d = JobDescriptor::new(&format!("stale-{i}"), "ops", BIN);
        d.apply_config(&rec1.config);
        let Ok(id) = stale_cluster.submit(d) else {
            w.violations.push(format!("stale baseline job {i} rejected"));
            continue;
        };
        let mut waited = 0u64;
        while stale_cluster.accounting().get(id).is_none() && waited < JOB_DEADLINE_S {
            stale_cluster.advance(SimDuration::from_secs(5));
            waited += 5;
        }
        match stale_cluster.accounting().get(id) {
            Some(r) if r.state == JobState::Completed => {
                stale_gflop += workload().total_gflop();
                stale_energy_j += r.system_energy_j;
            }
            other => {
                w.violations.push(format!("stale baseline job {i} did not complete: {:?}", other.map(|r| r.state)))
            }
        }
    }
    let stale_gpw = stale_gflop / stale_energy_j;
    // NaN (no completed jobs on either side) must count as a violation
    if adapted_gpw.partial_cmp(&(stale_gpw * 1.05)) != Some(std::cmp::Ordering::Greater) {
        w.violations.push(format!(
            "no recovery: adapted steady state {adapted_gpw:.4} GFLOPS/W is not >5% over the stale baseline {stale_gpw:.4}"
        ));
    }
    w.net.note(format!("steady state: adapted {adapted_gpw:.4} GFLOPS/W vs stale {stale_gpw:.4}"));

    // --- final audits ---
    audit_wire_stats(&mut w, &rec3);
    audit_store_ledger(&store, &rec1, &rec2, &rec3, &mut w.violations);
    let net_violations = w.net.finish();
    w.violations.extend(net_violations);

    let outcomes_reported = telemetry.counter("plugin.outcomes.reported").get();
    for arm in &w.arms {
        let _ = std::fs::remove_dir_all(&arm.root);
    }

    if !w.violations.is_empty() {
        crate::sweep::fail("adapt", seed, w.plan.name, &w.violations, &w.net.export());
    }

    AdaptReport {
        seed,
        plan: w.plan.name,
        fresh_config: rec1.config,
        aged_config: rec3.config,
        rollback_means,
        promote_means,
        adapted_gflops_per_w: adapted_gpw,
        stale_gflops_per_w: stale_gpw,
        outcomes_reported,
        wrong_generation_serves: w.wrong_generation_serves,
        log: w.net.log(),
        injected: w.net.injected(),
    }
}

/// Audits what the canary daemon measures itself over the wire (`Stats`,
/// through the fault plan — with a direct-snapshot fallback for plans
/// that eat every retry) plus the control daemon's trip counter
/// directly. Refits and verdicts are the ledger's: see
/// [`audit_store_ledger`].
fn audit_wire_stats(w: &mut AdaptWorld, rec3: &ModelRecord) {
    let mut client = sim_client(w.net.transport_for(0));
    let snap = (0..8).find_map(|_| client.stats().ok()).unwrap_or_else(|| {
        w.net.note("stats audit fell back to a direct snapshot".to_string());
        w.net.service(0).snapshot(chronusd::QueueGauges { depth: 0, capacity: 64, workers: 4 })
    });
    let checks = [
        (snap.drift_trips >= 1, format!("drift_trips = {}, want >= 1", snap.drift_trips)),
        (snap.outcomes_ingested > 0, format!("outcomes_ingested = {}, want > 0", snap.outcomes_ingested)),
        (
            snap.model_generation >= rec3.generation,
            format!("canary daemon registry generation {} never reached {}", snap.model_generation, rec3.generation),
        ),
    ];
    for (ok, msg) in checks {
        if !ok {
            w.violations.push(format!("canary daemon stats: {msg}"));
        }
    }
    let control = w.net.service(1).snapshot(chronusd::QueueGauges { depth: 0, capacity: 64, workers: 4 });
    if control.drift_trips < 1 {
        w.violations.push(format!("control daemon stats: drift_trips = {}, want >= 1", control.drift_trips));
    }
}

/// Audits the store's provenance ledger, the one record of the
/// adaptation lineage: it must read generation 1 (campaign) → 2
/// (poisoned re-fit of 1) → rollback to 1 → 3 (clean re-fit of 1, now
/// serving the key).
fn audit_store_ledger(
    store: &Arc<Mutex<ModelStore>>,
    rec1: &ModelRecord,
    rec2: &ModelRecord,
    rec3: &ModelRecord,
    violations: &mut Vec<String>,
) {
    use chronusd::store::{LedgerRecord, ProvenanceSource};
    let store = store.lock();
    // the canary's verdicts, in the order the ledger recorded them
    let order: Vec<String> = store
        .ledger()
        .iter()
        .map(|record| match record {
            LedgerRecord::Commit(m) => format!("commit {}", m.generation),
            LedgerRecord::Rollback { to_generation, .. } => format!("rollback to {to_generation}"),
        })
        .collect();
    let want = [
        format!("commit {}", rec1.generation),
        format!("commit {}", rec2.generation),
        format!("rollback to {}", rec1.generation),
        format!("commit {}", rec3.generation),
    ];
    if order != want {
        violations.push(format!("store ledger reads {order:?}, want {want:?}"));
    }
    let commits: Vec<ModelRecord> = store.commits().cloned().collect();
    if commits.len() != 3 {
        violations.push(format!("store ledger holds {} commits, want 3", commits.len()));
        return;
    }
    let lineage = [
        (rec1, ProvenanceSource::Campaign, 0u64),
        (rec2, ProvenanceSource::Adaptation, rec1.generation),
        (rec3, ProvenanceSource::Adaptation, rec1.generation),
    ];
    for (rec, source, refit_of) in lineage {
        let Some(committed) = commits.iter().find(|c| c.generation == rec.generation) else {
            violations.push(format!("generation {} missing from the ledger", rec.generation));
            continue;
        };
        if committed.provenance.source != source || committed.provenance.refit_of != refit_of {
            violations.push(format!(
                "generation {}: provenance source {:?} refit_of {}, want {:?} / {}",
                rec.generation, committed.provenance.source, committed.provenance.refit_of, source, refit_of
            ));
        }
    }
    for rec in [rec2, rec3] {
        let p = &store.record(rec.generation).expect("record exists").provenance;
        if p.plan != "incremental-refit" || !p.campaign.starts_with("adapt:") {
            violations.push(format!(
                "generation {}: adaptation provenance not stamped ({:?}/{:?})",
                rec.generation, p.plan, p.campaign
            ));
        }
    }
    let serving = store.serving_for(rec3.system_hash, rec3.binary_hash).map(|r| r.generation);
    if serving != Some(rec3.generation) {
        violations.push(format!("store serves generation {serving:?} after promotion, want {}", rec3.generation));
    }
}
