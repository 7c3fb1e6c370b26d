//! The cluster world: a seeded heterogeneous cluster under a facility
//! power cap, scheduled end to end through the real plugin with
//! per-node-class models served by one simulated daemon fleet.
//!
//! [`run_cluster_seed`] builds a [`eco_slurm_sim::Cluster`] from a
//! [`ClusterWorld`]'s class mix, derives a facility cap from the fleet's
//! electrical envelope, stages one prediction model per `(node class,
//! binary)` pair behind a [`crate::net::SimNet`], and pushes a seeded
//! job mix through submission, power-capped dispatch, co-scheduling and
//! drain — auditing conservation laws the whole way:
//!
//! * **cap conservation** — the instantaneous (telemetry, not estimate)
//!   cluster draw never exceeds the cap at any audited tick, because
//!   admission subtracts the fan-drift headroom the classes publish via
//!   [`NodeClass::max_fan_w`];
//! * **key isolation** — a submission is rewritten to exactly the config
//!   of *its* class's model: the per-class models deliberately disagree,
//!   so any cross-class resolution corrupts a descriptor visibly;
//! * **no starvation** — with the starvation guard armed, every job
//!   reaches `Completed` before the drain deadline, cap or no cap;
//! * **counter conservation** — dispatches equal submissions, per-class
//!   plugin hit counters partition the submissions, the daemon-side
//!   ledger balances, and prefetch warms exactly `classes × binaries`
//!   keys;
//! * **efficiency** — the capped, class-aware run beats a cap-unaware,
//!   plugin-less baseline of the *same* job mix on GFLOPS/W.
//!
//! Any violation panics with the seed, the world and a replay command
//! ([`crate::sweep::fail`]).

use std::sync::Arc;

use chronus::domain::{PluginState, Settings};
use chronus::hash::{binary_hash, classed_system_hash};
use chronus::integrations::storage::EtcStorage;
use chronus::interfaces::LocalStorage;
use chronus::remote::RemotePrediction;
use chronusd::backend::PreparedModel;
use eco_hpcg::workload::{ScalingKind, SyntheticWorkload, Workload};
use eco_plugin::JobSubmitEco;
use eco_sim_node::class::NodeClass;
use eco_sim_node::clock::SimDuration;
use eco_sim_node::cpu::CpuConfig;
use eco_slurm_sim::plugin::PluginHost;
use eco_slurm_sim::{Cluster, CoSchedulePolicy, JobDescriptor, JobId, JobState};
use rand::{Rng, SeedableRng, StdRng};
use std::collections::HashMap;

use crate::faults::FaultPlan;
use crate::net::{Injected, SimNet};
use crate::world::{sim_client, storage_root};

/// Jobs per seeded cluster run.
pub const CLUSTER_SUBMISSIONS: usize = 24;

/// Audit cadence: the instantaneous cluster draw is checked against the
/// cap every this many virtual seconds while anything is running.
const AUDIT_TICK_S: u64 = 2;

/// Drain deadline: a run that has not completed every job within this
/// much virtual time is starving something.
const DRAIN_DEADLINE_MINS: u64 = 360;

fn drain_deadline() -> SimDuration {
    SimDuration::from_mins(DRAIN_DEADLINE_MINS)
}

const DGEMM_BIN: &str = "/opt/apps/dgemm/bin/dgemm";
const DGEMM_CONTENTS: &str = "dgemm-1.0";
const STREAM_BIN: &str = "/opt/apps/stream/bin/stream";
const STREAM_CONTENTS: &str = "stream-1.0";

const USERS: [&str; 4] = ["alice", "bob", "carol", "dave"];

/// One point in the cluster sweep: a class mix and how tight the cap is.
pub struct ClusterWorld {
    /// World name (shows up in panics and trace dumps).
    pub name: &'static str,
    /// Node classes and how many nodes of each; the first class is the
    /// default partition.
    pub classes: Vec<(NodeClass, usize)>,
    /// Where between the fleet's idle floor and its flat-out maximum the
    /// cap sits (0 = idle, 1 = uncapped). Must leave room for at least
    /// one whole-node job of the hungriest class.
    pub cap_fraction: f64,
    /// Run the plugin without any class mapping: models live under the
    /// bare pre-class `(system, binary)` keys, exercising the migration
    /// path where empty-class hashes resolve legacy models unchanged.
    pub classless: bool,
}

/// The sweep's worlds: a balanced two-class cluster, a dense-heavy mix
/// under a tighter cap, and a single-class cluster running entirely on
/// legacy (classless) prediction keys.
pub fn cluster_worlds() -> Vec<ClusterWorld> {
    vec![
        ClusterWorld {
            name: "balanced",
            classes: vec![(NodeClass::sr650(), 2), (NodeClass::dense64(), 2)],
            cap_fraction: 0.55,
            classless: false,
        },
        ClusterWorld {
            name: "dense-heavy",
            classes: vec![(NodeClass::sr650(), 1), (NodeClass::dense64(), 3)],
            cap_fraction: 0.7,
            classless: false,
        },
        ClusterWorld {
            name: "legacy-classless",
            classes: vec![(NodeClass::sr650(), 3)],
            cap_fraction: 0.6,
            classless: true,
        },
    ]
}

/// What one seeded cluster run produced.
#[derive(Debug)]
pub struct ClusterReport {
    pub seed: u64,
    pub world: String,
    /// The derived facility cap (W).
    pub cap_w: f64,
    pub submissions: usize,
    /// Jobs co-scheduled onto an already-busy node.
    pub packed: u64,
    /// Admissions deferred by the power cap.
    pub power_blocked: u64,
    /// Highest instantaneous draw observed at any audit tick (W).
    pub peak_power_w: f64,
    /// Whole-run efficiency of the capped, class-aware schedule.
    pub eco_gflops_per_w: f64,
    /// Same job mix, no cap, no plugin: everything at max frequency.
    pub baseline_gflops_per_w: f64,
    /// The virtual-time event log (byte-identical across replays).
    pub log: Vec<String>,
    /// What the simulated network delivered (this world injects no
    /// network faults).
    pub injected: Injected,
}

/// The model a class serves for the compute-bound binary: the whole
/// package less the memory-bound companion's cores, one DVFS step below
/// the top — the efficient plateau of a compute-bound V/f curve, and
/// sized so a dgemm and a stream rewrite pack onto one node exactly.
fn compute_config(class: &NodeClass) -> CpuConfig {
    let mut freqs = class.spec.frequencies_khz.clone();
    freqs.sort_unstable();
    let freq = if freqs.len() >= 2 { freqs[freqs.len() - 2] } else { freqs[0] };
    CpuConfig::new((class.spec.cores * 3 / 4).max(1), freq, 1)
}

/// The model a class serves for the memory-bound binary: a quarter of
/// the package at the bottom DVFS step — bandwidth saturates early, so
/// the rest of the package is power down the drain.
fn memory_config(class: &NodeClass) -> CpuConfig {
    let freq = *class.spec.frequencies_khz.iter().min().expect("spec has frequencies");
    CpuConfig::new((class.spec.cores / 4).max(1), freq, 1)
}

fn dgemm_workload() -> Arc<dyn Workload> {
    Arc::new(SyntheticWorkload::new("dgemm", ScalingKind::ComputeBound, 6_000.0, 1.0))
}

fn stream_workload() -> Arc<dyn Workload> {
    Arc::new(SyntheticWorkload::new("stream", ScalingKind::MemoryBound, 1_200.0, 1.0))
}

/// One generated submission, with everything the audits need to check
/// the outcome against.
struct Submission {
    descriptor: JobDescriptor,
    /// The node class the job's partition routes to ("" = legacy key).
    class: String,
    binary: &'static str,
}

/// The seeded job mix: partitions, binaries, task counts and node counts
/// drawn from `rng`, with a deterministic floor of memory-bound jobs so
/// every run exercises both sides of the roofline ridge.
fn generate_mix(rng: &mut StdRng, world: &ClusterWorld) -> Vec<Submission> {
    let mut mix = Vec::with_capacity(CLUSTER_SUBMISSIONS);
    for i in 0..CLUSTER_SUBMISSIONS {
        let class_idx = rng.gen_range(0..world.classes.len());
        let (class, count) = &world.classes[class_idx];
        let binary = if i % 3 == 0 || rng.gen_bool(0.4) { STREAM_BIN } else { DGEMM_BIN };
        let user = USERS[rng.gen_range(0..USERS.len())];
        let mut d = JobDescriptor::new(&format!("j{i}"), user, binary);
        d.num_tasks = rng.gen_range(8..=class.spec.cores);
        // the default partition (first class) is also reachable implicitly
        d.partition = if class_idx == 0 && rng.gen_bool(0.3) { None } else { Some(class.name.clone()) };
        if *count >= 2 && rng.gen_bool(0.15) {
            d.num_nodes = 2;
        }
        let class_key = if world.classless { String::new() } else { class.name.clone() };
        mix.push(Submission { descriptor: d, class: class_key, binary });
    }
    mix
}

/// Advances the cluster in audit-sized ticks, checking the facility
/// meter against the cap at every one.
fn advance_audited(cluster: &mut Cluster, duration_s: u64, cap_w: f64, peak: &mut f64, violations: &mut Vec<String>) {
    let mut left_s = duration_s;
    while left_s > 0 {
        let step_s = left_s.min(AUDIT_TICK_S);
        cluster.advance(SimDuration::from_secs(step_s));
        let draw = cluster.instantaneous_power_w();
        if draw > *peak {
            *peak = draw;
        }
        if draw > cap_w + 1e-6 {
            violations.push(format!(
                "power cap violated at t={}: instantaneous {draw:.1} W > cap {cap_w:.1} W",
                cluster.now()
            ));
        }
        left_s -= step_s;
    }
}

/// Runs the same seeded job mix without a cap and without the plugin —
/// classic FIFO SLURM, every job exclusive at its requested shape and
/// the hardware's top frequency — and returns its GFLOPS/W.
fn baseline_efficiency(world: &ClusterWorld, mix: &[Submission], violations: &mut Vec<String>) -> f64 {
    let mut cluster = Cluster::heterogeneous(&world.classes);
    cluster.register_binary(DGEMM_BIN, dgemm_workload());
    cluster.register_binary(STREAM_BIN, stream_workload());
    let ids: Vec<JobId> =
        mix.iter().map(|s| cluster.submit(s.descriptor.clone()).expect("baseline submission accepted")).collect();
    if !cluster.run_until_idle(drain_deadline()) {
        violations.push("baseline run did not drain within the deadline".to_string());
        return f64::NAN;
    }
    efficiency(&cluster, &ids, violations, "baseline")
}

/// Whole-run GFLOPS/W from the accounting database: total work executed
/// over total DC-side energy billed.
fn efficiency(cluster: &Cluster, ids: &[JobId], violations: &mut Vec<String>, run: &str) -> f64 {
    let mut gflop = 0.0;
    let mut energy_j = 0.0;
    for &id in ids {
        let Some(record) = cluster.accounting().get(id) else {
            violations.push(format!("{run} run: job {id} has no accounting record"));
            continue;
        };
        if record.system_energy_j <= 0.0 {
            violations.push(format!("{run} run: job {id} billed non-positive energy"));
        }
        energy_j += record.system_energy_j;
        gflop += match cluster.job(id).map(|j| j.descriptor.binary_path.as_str()) {
            Ok(DGEMM_BIN) => dgemm_workload().total_gflop(),
            Ok(STREAM_BIN) => stream_workload().total_gflop(),
            other => {
                violations.push(format!("{run} run: job {id} ran an unexpected binary {other:?}"));
                0.0
            }
        };
    }
    gflop / energy_j
}

/// Runs the capped, class-aware cluster world once under `seed`. Panics
/// (with a replay command) on any invariant violation; returns a report
/// otherwise.
pub fn run_cluster_seed(seed: u64, world: &ClusterWorld) -> ClusterReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc157_e5a1_90b2_44ddu64);
    let mix = generate_mix(&mut rng, world);

    // The facility envelope, from the classes' published electrical
    // characteristics: cap_fraction slides between the idle floor and
    // flat-out, plus the fan-drift headroom admission will hold back.
    let mut idle_w = 0.0;
    let mut max_w = 0.0;
    let mut headroom_w = 0.0;
    for (class, count) in &world.classes {
        idle_w += class.idle_system_w() * *count as f64;
        max_w += class.max_system_w() * *count as f64;
        headroom_w += class.max_fan_w() * *count as f64;
    }
    let cap_w = idle_w + headroom_w + world.cap_fraction * (max_w - idle_w);

    // One daemon fleet serving every class's models: the class widens
    // the system half of the key, the wire shape is unchanged.
    let lead = &world.classes[0].0;
    let plugin_spec = lead.spec.clone();
    let plugin_ram = lead.ram_gb;
    let sys = chronus::hash::system_hash(&plugin_spec, plugin_ram);
    let class_names: Vec<String> = if world.classless {
        vec![String::new()]
    } else {
        world.classes.iter().map(|(c, _)| c.name.clone()).collect()
    };
    let mut expected: HashMap<(String, &'static str), CpuConfig> = HashMap::new();
    let mut models = Vec::new();
    for (class, _) in world.classes.iter() {
        let key = if world.classless { String::new() } else { class.name.clone() };
        let classed = classed_system_hash(sys, &key);
        for (bin, contents, config) in
            [(DGEMM_BIN, DGEMM_CONTENTS, compute_config(class)), (STREAM_BIN, STREAM_CONTENTS, memory_config(class))]
        {
            models.push(PreparedModel {
                model_id: models.len() as i64 + 1,
                model_type: "brute-force".into(),
                system_hash: classed,
                binary_hash: binary_hash(contents),
                config,
            });
            expected.insert((key.clone(), bin), config);
        }
    }
    let plan = FaultPlan::none();
    let net = SimNet::new(seed, plan.clone(), models);
    let telemetry = net.telemetry();

    let root = storage_root("cluster", seed);
    let storage = Arc::new(EtcStorage::new(&root));
    storage.save_settings(&Settings { state: PluginState::Active, ..Settings::default() }).expect("stage settings");

    let mut eco =
        JobSubmitEco::new(Arc::clone(&storage) as Arc<dyn LocalStorage + Send + Sync>, &plugin_spec, plugin_ram);
    eco.register_binary(DGEMM_BIN, DGEMM_CONTENTS);
    eco.register_binary(STREAM_BIN, STREAM_CONTENTS);
    if !world.classless {
        for (class, _) in &world.classes {
            eco.map_partition_class(&class.name, &class.name);
        }
        eco.set_default_class(&world.classes[0].0.name);
    }
    eco.set_telemetry(Arc::clone(&telemetry));
    let source = Arc::new(RemotePrediction::from_client(sim_client(net.transport())));
    source.set_telemetry(Arc::clone(&telemetry));
    eco.set_source(source);

    let mut violations: Vec<String> = Vec::new();

    // Prefetch covers exactly the (class, binary) key grid in one batch.
    let unique_classes: std::collections::BTreeSet<&str> = class_names.iter().map(String::as_str).collect();
    let warmed = eco.prefetch_predictions();
    if warmed != unique_classes.len() * 2 {
        violations
            .push(format!("prefetch warmed {warmed} keys, expected {} classes x 2 binaries", unique_classes.len()));
    }

    let mut cluster = Cluster::heterogeneous(&world.classes);
    cluster.set_plugin_host(PluginHost::new().with_budget_ms(10_000));
    cluster.set_telemetry(Arc::clone(&telemetry));
    cluster.register_binary(DGEMM_BIN, dgemm_workload());
    cluster.register_binary(STREAM_BIN, stream_workload());
    cluster.set_power_cap(Some(cap_w));
    cluster.set_power_headroom(headroom_w);
    cluster.set_co_schedule(CoSchedulePolicy::Pack);
    cluster.set_starvation_guard(Some(SimDuration::from_mins(20)));
    cluster.register_plugin(Box::new(eco));

    let mut peak = 0.0f64;
    let mut ids: Vec<JobId> = Vec::new();
    let mut class_submissions: HashMap<String, u64> = HashMap::new();
    for (i, submission) in mix.iter().enumerate() {
        net.note(format!(
            "submit #{i}: partition={:?} bin={} ntasks={} nodes={}",
            submission.descriptor.partition.as_deref(),
            submission.binary,
            submission.descriptor.num_tasks,
            submission.descriptor.num_nodes
        ));
        let id = match cluster.submit(submission.descriptor.clone()) {
            Ok(id) => id,
            Err(e) => {
                violations.push(format!("submission #{i} rejected: {e}"));
                continue;
            }
        };
        ids.push(id);
        *class_submissions.entry(submission.class.clone()).or_insert(0) += 1;

        // Key isolation: the rewrite must be this class's model config —
        // the classes' models disagree on purpose, so a key that
        // cross-resolved another class (or the legacy key space) puts a
        // foreign core count or frequency in the descriptor.
        let d = &cluster.job(id).expect("job exists after submit").descriptor;
        let want = expected[&(submission.class.clone(), submission.binary)];
        if d.max_frequency_khz != Some(want.frequency_khz) || d.num_tasks != want.cores {
            violations.push(format!(
                "submission #{i} (class '{}', {}): rewritten to ({} cores, {:?} kHz), class model says ({}, {})",
                submission.class, submission.binary, d.num_tasks, d.max_frequency_khz, want.cores, want.frequency_khz
            ));
        }

        advance_audited(&mut cluster, rng.gen_range(0..45u64), cap_w, &mut peak, &mut violations);
    }

    // Drain under audit: every job must complete before the deadline.
    let mut waited_s = 0u64;
    while !cluster.is_idle() && waited_s < DRAIN_DEADLINE_MINS * 60 {
        advance_audited(&mut cluster, AUDIT_TICK_S, cap_w, &mut peak, &mut violations);
        waited_s += AUDIT_TICK_S;
    }
    for &id in &ids {
        let state = cluster.job(id).expect("job is tracked").state;
        if state != JobState::Completed {
            violations.push(format!("job {id} ended {state:?}, not Completed — starved or killed under the cap"));
        }
    }

    // Counter conservation: every submission dispatched exactly once,
    // and the per-class plugin counters partition the submissions.
    let dispatched = telemetry.counter("slurm.sched_dispatched").get();
    if dispatched != ids.len() as u64 {
        violations.push(format!("{dispatched} dispatches for {} submissions", ids.len()));
    }
    for (class, want) in &class_submissions {
        let name = if class.is_empty() { "default" } else { class.as_str() };
        let hits = telemetry.counter(&format!("plugin.class.{name}.hit")).get();
        let misses = telemetry.counter(&format!("plugin.class.{name}.miss")).get();
        if hits != *want || misses != 0 {
            violations.push(format!(
                "class '{name}': {hits} hits / {misses} misses for {want} submissions (fault-free run)"
            ));
        }
    }
    violations.extend(crate::invariants::audit_submit_budget(&telemetry));
    violations.extend(net.finish());

    let eco_gpw = efficiency(&cluster, &ids, &mut violations, "eco");
    let baseline_gpw = baseline_efficiency(world, &mix, &mut violations);
    if eco_gpw <= baseline_gpw {
        violations.push(format!(
            "efficiency regression: capped class-aware run {eco_gpw:.4} GFLOPS/W <= cap-unaware baseline \
             {baseline_gpw:.4}"
        ));
    }

    let _ = std::fs::remove_dir_all(&root);

    if !violations.is_empty() {
        crate::sweep::fail("cluster", seed, world.name, &violations, &net.export());
    }

    ClusterReport {
        seed,
        world: world.name.to_string(),
        cap_w,
        submissions: ids.len(),
        packed: telemetry.counter("slurm.sched_packed").get(),
        power_blocked: telemetry.counter("slurm.sched_power_blocked").get(),
        peak_power_w: peak,
        eco_gflops_per_w: eco_gpw,
        baseline_gflops_per_w: baseline_gpw,
        log: net.log(),
        injected: net.injected(),
    }
}
