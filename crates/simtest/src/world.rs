//! The world: one seeded end-to-end run of the whole pipeline.
//!
//! [`run_seed`] assembles the production pieces — sbatch script parsing
//! and scheduling from [`eco_slurm_sim`], the real [`JobSubmitEco`]
//! plugin, the real [`chronus::remote::PredictClient`] — around a
//! [`SimNet`] instead of a TCP socket, then drives a randomized batch of
//! submissions through them while the fault plan does its worst.
//!
//! Checked invariants, per submission and at the end of the run:
//!
//! * **liveness** — every submission yields an accepted job, even under
//!   total daemon loss (`blackout`) or replies held past the submit
//!   budget (`chaos`), and its plugin call fits the scheduler's budget
//!   in virtual time ([`crate::invariants::audit_submit_budget`]);
//! * **no half-applied descriptors** — a job either keeps its submitted
//!   shape untouched, or carries a complete rewrite (`min == max`
//!   frequency) to a configuration some staged model actually contains;
//! * **deadline budget** — a `chronus deadline=<s>` job is only ever
//!   rewritten to a benchmarked configuration whose measured runtime fits
//!   the budget (or the fastest one when nothing fits), and never via the
//!   network;
//! * **opt-in gating** — jobs that did not say `chronus` are never
//!   touched;
//! * **counter conservation** — plugin stats partition the submissions
//!   (`applied + skipped + errors = submissions`), and the daemon-side
//!   [`crate::invariants::Ledger`] audit is clean;
//! * **drain** — the cluster runs every accepted job to completion.
//!
//! Any violation panics with the seed, the plan and a replay command
//! ([`crate::sweep::fail`]).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use chronus::domain::{Benchmark, LoadedModel, PluginState, Settings};
use chronus::hash::{binary_hash, system_hash};
use chronus::integrations::storage::EtcStorage;
use chronus::interfaces::LocalStorage;
use chronus::remote::{CallOptions, ClientBuilder, PredictClient, RemotePrediction, Transport, SUBMIT_BUDGET};
use chronus::telemetry::{TraceContext, TraceEvent};
use chronusd::backend::PreparedModel;
use eco_hpcg::workload::{ScalingKind, SyntheticWorkload};
use eco_plugin::{JobSubmitEco, PluginStats};
use eco_sim_node::clock::SimDuration;
use eco_sim_node::cpu::{CpuConfig, CpuSpec};
use eco_sim_node::sysinfo::SystemFacts;
use eco_sim_node::SimNode;
use eco_slurm_sim::plugin::{JobSubmitPlugin, PluginHost, PluginRejection};
use eco_slurm_sim::{Cluster, JobDescriptor, JobId, JobState};
use parking_lot::Mutex;
use rand::{Rng, SeedableRng, StdRng};

use crate::faults::FaultPlan;
use crate::invariants::audit_submit_budget;
use crate::net::{Injected, SimNet};

/// Submissions per seeded run.
pub const SUBMISSIONS_PER_SEED: usize = 32;

const USERS: [&str; 4] = ["alice", "bob", "carol", "dave"];

/// Binary A has a model in the daemon *and* staged benchmark rows for
/// the deadline path.
const BIN_A: &str = "/opt/hpcg/bin/xhpcg";
const BIN_A_CONTENTS: &str = "xhpcg-3.1-nx104";
/// Binary B has a daemon model but no staged deadline rows.
const BIN_B: &str = "/opt/apps/solver/bin/solver";
const BIN_B_CONTENTS: &str = "solver-2.0";
/// Binary C is known to the cluster but to no model anywhere: the daemon
/// answers `Miss` for it.
const BIN_C: &str = "/usr/bin/probe";

/// Deadline budgets the generator mixes in: 50s fits nothing (fastest
/// fallback), 120s fits two rows, 400s fits all three.
const DEADLINES: [f64; 3] = [50.0, 120.0, 400.0];

fn config_a() -> CpuConfig {
    CpuConfig::new(32, 2_200_000, 1)
}

fn config_b() -> CpuConfig {
    CpuConfig::new(16, 1_500_000, 2)
}

/// The staged benchmark rows for binary A. Efficiency deliberately runs
/// *against* speed so deadline selection has real work to do: the most
/// efficient row is the slowest.
fn deadline_rows() -> Vec<Benchmark> {
    fn row(config: CpuConfig, gflops_per_watt: f64, runtime_s: f64) -> Benchmark {
        Benchmark {
            id: -1,
            system_id: 1,
            binary_hash: binary_hash(BIN_A_CONTENTS),
            config,
            gflops: gflops_per_watt * 200.0,
            runtime_s,
            avg_system_w: 200.0,
            avg_cpu_w: 140.0,
            avg_cpu_temp_c: 55.0,
            system_energy_j: 200.0 * runtime_s,
            cpu_energy_j: 140.0 * runtime_s,
            sample_count: 10,
        }
    }
    vec![
        row(CpuConfig::new(32, 2_500_000, 1), 0.043, 80.0), // fastest, least efficient
        row(CpuConfig::new(32, 2_200_000, 1), 0.049, 100.0), // middle
        row(CpuConfig::new(16, 1_500_000, 2), 0.055, 300.0), // slowest, most efficient
    ]
}

fn facts(spec: &CpuSpec) -> SystemFacts {
    SystemFacts {
        cpu_name: spec.name.clone(),
        cores: spec.cores,
        threads_per_core: spec.threads_per_core,
        frequencies_khz: spec.frequencies_khz.clone(),
        ram_gb: 256,
    }
}

/// What one seeded run produced (for assertions in tests).
#[derive(Debug)]
pub struct SeedReport {
    pub seed: u64,
    pub plan: String,
    /// The full virtual-time event log (byte-identical across replays of
    /// the same seed + plan).
    pub log: Vec<String>,
    pub submissions: usize,
    /// Descriptors rewritten via the remote daemon.
    pub applied_remote: usize,
    /// Descriptors rewritten locally by the deadline selector.
    pub applied_deadline: usize,
    /// Descriptors left untouched (not opted in, or prediction failed).
    pub untouched: usize,
    /// What the simulated network delivered and injected.
    pub injected: Injected,
}

/// Wraps the real plugin so its counters stay reachable after the
/// cluster takes ownership of the box.
struct StatsTap {
    inner: JobSubmitEco,
    out: Arc<Mutex<PluginStats>>,
}

impl JobSubmitPlugin for StatsTap {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn job_submit(&mut self, job: &mut JobDescriptor, submit_uid: u32) -> Result<(), PluginRejection> {
        let result = self.inner.job_submit(job, submit_uid);
        *self.out.lock() = self.inner.stats();
        result
    }

    fn job_submit_traced(
        &mut self,
        job: &mut JobDescriptor,
        submit_uid: u32,
        ctx: Option<TraceContext>,
    ) -> Result<(), PluginRejection> {
        let result = self.inner.job_submit_traced(job, submit_uid, ctx);
        *self.out.lock() = self.inner.stats();
        result
    }
}

/// A fresh directory for one run's staged settings, which the run
/// removes when it ends. No two live runs may share one — the plugin
/// checks `settings.json` on every submission (one `stat`, a re-read
/// whenever another run's save has moved the stamp), and the same `(name,
/// seed)` routinely runs twice at once (a sweep and a scenario test on
/// parallel test threads of one process) — so the name carries a
/// process-wide call counter beside the pid.
pub(crate) fn storage_root(name: &str, seed: u64) -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("simtest-{name}-{seed}-{}-{call}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir for staged settings");
    dir
}

/// The submit-path client every world run uses: the builder call of
/// [`RemotePrediction::from_endpoints`], over the simulated network —
/// the plugin's [`SUBMIT_BUDGET`] on virtual time.
pub(crate) fn sim_client(transport: crate::net::SimTransport) -> PredictClient {
    PredictClient::builder()
        .budget(SUBMIT_BUDGET)
        .transport(Box::new(transport))
        .build()
        .expect("sim client config is valid")
}

/// The failover client the fleet, batch and shm worlds drive, one
/// replica per transport, tried in that order. Retries are deliberately generous: those worlds'
/// liveness invariant is "an answer exists while one replica lives", so
/// the client gets enough attempts to walk the whole fleet through
/// injected faults — and a budget that gives each of a three-replica
/// fleet's 19 attempts ≥ 50 ms, past the slowest exchange a plan that a
/// retry beats injects (1 ms dial, 10 + 10 ms delays, a 20 ms backend
/// stall), while a predict stays under the fleet world's 2 s ceiling.
pub(crate) fn failover_client(transports: Vec<Box<dyn Transport>>) -> ClientBuilder {
    let builder = PredictClient::builder().budget(Duration::from_secs(1)).max_retries(16);
    transports.into_iter().fold(builder, ClientBuilder::transport)
}

/// Runs the whole pipeline once under `plan` with every random choice
/// derived from `seed`. Panics (with a replay command) on any invariant
/// violation; returns a report otherwise.
pub fn run_seed(seed: u64, plan: &FaultPlan) -> SeedReport {
    // Distinct stream from the network's RNG so workload generation and
    // fault injection don't consume each other's randomness.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let spec = CpuSpec::epyc_7502p();
    let sys = system_hash(&spec, 256);
    let hash_a = binary_hash(BIN_A_CONTENTS);
    let hash_b = binary_hash(BIN_B_CONTENTS);

    let models = vec![
        PreparedModel {
            model_id: 1,
            model_type: "brute-force".into(),
            system_hash: sys,
            binary_hash: hash_a,
            config: config_a(),
        },
        PreparedModel {
            model_id: 2,
            model_type: "brute-force".into(),
            system_hash: sys,
            binary_hash: hash_b,
            config: config_b(),
        },
    ];
    let net = SimNet::new(seed, plan.clone(), models);

    // Staged settings on disk: user opt-in gating plus benchmark rows so
    // the deadline extension has data to select from.
    let root = storage_root(plan.name, seed);
    let rows = deadline_rows();
    let rows_path = root.join("benchmarks.json");
    std::fs::write(&rows_path, serde_json::to_vec(&rows).expect("rows serialize")).expect("write rows");
    let storage = Arc::new(EtcStorage::new(&root));
    storage
        .save_settings(&Settings {
            state: PluginState::User,
            loaded_model: Some(LoadedModel {
                model_id: 1,
                model_type: "brute-force".into(),
                local_path: root.join("model.json").to_string_lossy().into_owned(),
                system_hash: sys,
                binary_hash: hash_a,
                facts: facts(&spec),
                benchmarks_path: Some(rows_path.to_string_lossy().into_owned()),
            }),
            ..Settings::default()
        })
        .expect("stage settings");

    let telemetry = net.telemetry();

    let mut cluster = Cluster::single_node(SimNode::sr650());
    // The default plugin budget is wall-clock; the simulation burns only
    // virtual time, but a loaded CI host could still blow a tight wall
    // budget, so give it slack before registering the plugin.
    cluster.set_plugin_host(PluginHost::new().with_budget_ms(10_000));
    cluster.set_telemetry(Arc::clone(&telemetry));
    for (path, name) in [(BIN_A, "xhpcg"), (BIN_B, "solver"), (BIN_C, "probe")] {
        cluster.register_binary(path, Arc::new(SyntheticWorkload::new(name, ScalingKind::ComputeBound, 10.0, 1.0)));
    }

    let shared_stats = Arc::new(Mutex::new(PluginStats::default()));
    let mut eco = JobSubmitEco::new(Arc::clone(&storage) as Arc<dyn LocalStorage + Send + Sync>, &spec, 256);
    eco.register_binary(BIN_A, BIN_A_CONTENTS);
    eco.register_binary(BIN_B, BIN_B_CONTENTS);
    eco.set_telemetry(Arc::clone(&telemetry));
    let source = Arc::new(RemotePrediction::from_client(sim_client(net.transport())));
    source.set_telemetry(Arc::clone(&telemetry));
    eco.set_source(source);
    cluster.register_plugin(Box::new(StatsTap { inner: eco, out: Arc::clone(&shared_stats) }));

    // An operator poking the daemon over its own connection, interleaved
    // with submissions.
    let mut admin = sim_client(net.transport());
    admin.set_telemetry(Arc::clone(&telemetry));

    let model_universe = [config_a(), config_b()];
    let row_runtimes: Vec<(CpuConfig, f64)> = rows.iter().map(|b| (b.config, b.runtime_s)).collect();

    let mut violations: Vec<String> = Vec::new();
    let mut ids: Vec<JobId> = Vec::new();
    let mut applied_remote = 0usize;
    let mut applied_deadline = 0usize;
    let mut untouched = 0usize;

    for i in 0..SUBMISSIONS_PER_SEED {
        let user = USERS[rng.gen_range(0..USERS.len())];
        let path = [BIN_A, BIN_B, BIN_C][rng.gen_range(0..3usize)];
        let deadline = DEADLINES[rng.gen_range(0..DEADLINES.len())];
        let comment: Option<String> = match rng.gen_range(0..5u32) {
            0 | 1 => Some("chronus".to_string()),              // opted in: remote path
            2 => Some(format!("chronus deadline={deadline}")), // opted in: local deadline path
            3 => Some("benchmark run".to_string()),            // comment without opt-in
            _ => None,                                         // no comment directive at all
        };
        let ntasks = rng.gen_range(1..=32u32);
        let mut script = format!("#!/bin/bash\n#SBATCH --ntasks={ntasks}\n");
        if let Some(c) = &comment {
            script.push_str(&format!("#SBATCH --comment \"{c}\"\n"));
        }
        script.push_str(&format!("\nsrun --ntasks-per-core=1 {path}\n"));

        net.note(format!("submit #{i}: user={user} bin={path} comment={:?} ntasks={ntasks}", comment.as_deref()));
        let trace_mark = telemetry.recorder().appended();
        let id = match cluster.sbatch(&script, user) {
            Ok(id) => id,
            Err(e) => {
                // Liveness: a submission must never be rejected by the
                // prediction machinery, whatever the network does.
                violations.push(format!("submission #{i} rejected: {e}"));
                continue;
            }
        };
        ids.push(id);

        let descriptor = cluster.job(id).expect("job exists right after sbatch").descriptor.clone();
        let opted = comment.as_deref().is_some_and(|c| c.split_whitespace().any(|w| w == "chronus"));
        let wants_deadline = comment.as_deref().and_then(eco_plugin::deadline::parse_deadline).filter(|_| opted);
        check_descriptor(
            i,
            &descriptor,
            ntasks,
            opted,
            wants_deadline,
            path,
            &model_universe,
            &row_runtimes,
            &mut violations,
        );
        let touched = descriptor.max_frequency_khz.is_some();
        match (touched, wants_deadline.is_some()) {
            (true, true) => applied_deadline += 1,
            (true, false) => applied_remote += 1,
            (false, _) => untouched += 1,
        }
        net.note(format!("submit #{i}: job {id} {}", if touched { "rewritten" } else { "untouched" }));

        // Every submission must have produced exactly one connected
        // trace through whatever layers it actually reached — read whole,
        // or the audit would blame the chain for what the ring evicted.
        let (new_events, evicted) = telemetry.recorder().events_since(trace_mark);
        if evicted > 0 {
            violations.push(format!(
                "submission #{i}: the trace recorder evicted {evicted} of its spans before the audit read them"
            ));
        } else {
            check_trace(
                i,
                &new_events,
                opted,
                wants_deadline.is_some(),
                touched,
                plan.name == "none",
                &mut violations,
            );
        }

        // Background cluster life between submissions.
        if rng.gen_bool(0.3) {
            let dt = rng.gen_range(200..3000u64);
            cluster.advance(SimDuration::from_millis(dt));
        }
        if rng.gen_bool(0.15) {
            let pick = ids[rng.gen_range(0..ids.len())];
            if cluster.job(pick).map(|j| j.state == JobState::Pending).unwrap_or(false) {
                if let Err(e) = cluster.cancel(pick) {
                    violations.push(format!("cancel of pending job {pick} failed: {e}"));
                } else {
                    net.note(format!("cancelled pending job {pick}"));
                }
            }
        }
        if rng.gen_bool(0.2) {
            // Operator traffic shares the daemon with the plugin; its
            // failures are its own problem, but its frames must balance
            // in the ledger like any other.
            match rng.gen_range(0..3u32) {
                0 => {
                    let _ = admin.ping();
                }
                1 => {
                    let _ = admin.stats();
                }
                _ => {
                    let model_id = [1i64, 2, 9][rng.gen_range(0..3usize)];
                    let _ = admin.preload(model_id, &CallOptions::default());
                }
            }
        }
    }

    if !cluster.run_until_idle(SimDuration::from_mins(120)) {
        violations.push("cluster did not drain to idle within 120 virtual minutes".to_string());
    }
    violations.extend(audit_submit_budget(&telemetry));
    violations.extend(net.finish());

    let stats = *shared_stats.lock();
    if stats.total() != SUBMISSIONS_PER_SEED {
        violations.push(format!(
            "plugin stats not conserved: applied {} + skipped {} + errors {} != {SUBMISSIONS_PER_SEED} submissions",
            stats.applied, stats.skipped, stats.errors
        ));
    }
    if stats.applied != applied_remote + applied_deadline {
        violations.push(format!(
            "plugin counted {} applied but {} descriptors are rewritten",
            stats.applied,
            applied_remote + applied_deadline
        ));
    }

    let _ = std::fs::remove_dir_all(&root);

    if !violations.is_empty() {
        crate::sweep::fail("pipeline", seed, plan.name, &violations, &net.export());
    }

    SeedReport {
        seed,
        plan: plan.name.to_string(),
        log: net.log(),
        submissions: SUBMISSIONS_PER_SEED,
        applied_remote,
        applied_deadline,
        untouched,
        injected: net.injected(),
    }
}

/// The per-submission tracing invariant: an accepted submission leaves
/// exactly one trace rooted at `slurm/sbatch`, every span in it parents
/// inside it (no orphans), and each layer the submission demonstrably
/// reached shows up in the right place — the plugin call under the
/// submit span, every client attempt under the plugin's predict span,
/// every daemon span under the exact attempt that carried it over the
/// wire. Under the fault-free plan the remote-applied chain is asserted
/// end to end, daemon registry lookup included; under faults the daemon
/// side is only checked when the frame demonstrably arrived (a lost
/// frame leaves no daemon span, and a stale duplicated response can
/// still satisfy the client).
fn check_trace(
    i: usize,
    events: &[TraceEvent],
    opted: bool,
    wants_deadline: bool,
    touched: bool,
    strict: bool,
    violations: &mut Vec<String>,
) {
    let roots: Vec<&TraceEvent> =
        events.iter().filter(|e| e.layer == "slurm" && e.name == "sbatch" && e.parent.is_none()).collect();
    if roots.len() != 1 {
        violations.push(format!("submission #{i}: expected exactly one sbatch trace root, found {}", roots.len()));
        return;
    }
    let root = roots[0];
    let trace: Vec<&TraceEvent> = events.iter().filter(|e| e.trace == root.trace).collect();
    let spans: std::collections::HashSet<u64> = trace.iter().map(|e| e.span).collect();
    let find = |layer: &str, name: &str| trace.iter().find(|e| e.layer == layer && e.name == name).copied();
    let parent_of = |e: &TraceEvent| e.parent.and_then(|p| trace.iter().find(|c| c.span == p).copied());

    for e in &trace {
        if let Some(p) = e.parent {
            if !spans.contains(&p) {
                violations.push(format!(
                    "submission #{i}: span {}/{} is orphaned (parent {p:x} not in its own trace)",
                    e.layer, e.name
                ));
            }
        }
    }

    for (layer, name) in [("slurm", "parse"), ("slurm", "submit"), ("slurm", "plugin_call"), ("plugin", "job_submit")]
    {
        if find(layer, name).is_none() {
            violations.push(format!("submission #{i}: trace has no {layer}/{name} span"));
        }
    }

    let predict = find("plugin", "predict");
    let attempts: Vec<&TraceEvent> =
        trace.iter().filter(|e| e.layer == "client" && e.name == "attempt").copied().collect();
    let handles: Vec<&TraceEvent> =
        trace.iter().filter(|e| e.layer == "daemon" && e.name == "handle").copied().collect();

    if !opted && (predict.is_some() || !attempts.is_empty()) {
        violations.push(format!("submission #{i}: a job without opt-in reached the prediction path"));
    }
    for a in &attempts {
        if !parent_of(a).is_some_and(|p| p.layer == "plugin" && p.name == "predict") {
            violations.push(format!("submission #{i}: client attempt span not parented under plugin/predict"));
        }
    }
    for h in &handles {
        if !parent_of(h).is_some_and(|p| p.layer == "client" && p.name == "attempt") {
            violations.push(format!("submission #{i}: daemon handle span not parented under a client attempt"));
        }
    }
    for e in trace.iter().filter(|e| e.layer == "daemon" && (e.name == "registry_lookup" || e.name == "refresh")) {
        if !parent_of(e).is_some_and(|p| p.layer == "daemon" && p.name == "handle") {
            violations.push(format!("submission #{i}: daemon {} span not parented under daemon/handle", e.name));
        }
    }

    if touched && wants_deadline && find("plugin", "deadline_select").is_none() {
        violations.push(format!("submission #{i}: deadline rewrite without a plugin/deadline_select span"));
    }
    if touched && !wants_deadline {
        if predict.is_none() {
            violations.push(format!("submission #{i}: remote rewrite without a plugin/predict span"));
        }
        if attempts.is_empty() {
            violations.push(format!("submission #{i}: remote rewrite without a single client attempt span"));
        }
        if strict {
            // Fault-free network: the winning attempt's frame reached
            // the daemon, so the chain must be complete down to the
            // registry lookup.
            let complete = handles.iter().any(|h| {
                h.is_ok()
                    && trace
                        .iter()
                        .any(|e| e.layer == "daemon" && e.name == "registry_lookup" && e.parent == Some(h.span))
            });
            if !complete {
                violations.push(format!(
                    "submission #{i}: fault-free remote rewrite lacks a daemon handle + registry_lookup chain"
                ));
            }
        }
    }
}

/// The per-descriptor invariants: a submission is either untouched or
/// carries one complete, explainable rewrite.
#[allow(clippy::too_many_arguments)]
fn check_descriptor(
    i: usize,
    descriptor: &JobDescriptor,
    requested_ntasks: u32,
    opted: bool,
    deadline: Option<f64>,
    path: &str,
    model_universe: &[CpuConfig],
    row_runtimes: &[(CpuConfig, f64)],
    violations: &mut Vec<String>,
) {
    match (descriptor.min_frequency_khz, descriptor.max_frequency_khz) {
        (None, None) => {
            if descriptor.num_tasks != requested_ntasks {
                violations.push(format!(
                    "submission #{i}: untouched job's ntasks changed ({} -> {})",
                    requested_ntasks, descriptor.num_tasks
                ));
            }
            // A deadline job against the staged binary resolves locally
            // from rows on disk; no fault plan can make it fail.
            if deadline.is_some() && path == BIN_A {
                violations.push(format!("submission #{i}: local deadline selection failed for the staged binary"));
            }
        }
        (Some(lo), Some(hi)) => {
            if lo != hi {
                violations.push(format!("submission #{i}: rewritten job has min {lo} != max {hi} frequency"));
                return;
            }
            if !opted {
                violations.push(format!("submission #{i}: job without opt-in was rewritten"));
                return;
            }
            let cfg = CpuConfig::new(descriptor.num_tasks, hi, descriptor.threads_per_cpu);
            match deadline {
                Some(d) => {
                    if path != BIN_A {
                        violations.push(format!(
                            "submission #{i}: deadline job for a binary without staged rows was rewritten"
                        ));
                        return;
                    }
                    let Some((_, runtime)) = row_runtimes.iter().find(|(c, _)| *c == cfg) else {
                        violations
                            .push(format!("submission #{i}: deadline rewrite to a config outside the staged rows"));
                        return;
                    };
                    let any_fits = row_runtimes.iter().any(|(_, r)| *r <= d);
                    let fastest = row_runtimes
                        .iter()
                        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("runtimes are finite"))
                        .expect("rows are non-empty")
                        .0;
                    if any_fits {
                        if *runtime > d {
                            violations.push(format!("submission #{i}: deadline budget exceeded ({runtime}s > {d}s)"));
                        }
                    } else if cfg != fastest {
                        violations.push(format!(
                            "submission #{i}: nothing fits {d}s but the rewrite is not the fastest row"
                        ));
                    }
                }
                None => {
                    if !model_universe.contains(&cfg) {
                        violations
                            .push(format!("submission #{i}: rewritten to {cfg:?}, which no staged model predicts"));
                    }
                }
            }
        }
        (lo, hi) => {
            violations.push(format!("submission #{i}: half-applied frequency bounds ({lo:?}, {hi:?})"));
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn two_live_runs_of_one_seed_never_share_a_storage_root() {
        let (a, b) = (super::storage_root("x", 1), super::storage_root("x", 1));
        assert_ne!(a, b);
        for dir in [a, b] {
            std::fs::remove_dir_all(dir).expect("each exists");
        }
    }
}
