//! The cluster: `slurmctld` (submission path, queue, scheduler) plus one
//! `slurmd` per simulated node, driven as a discrete-event simulation.
//!
//! Mirrors the paper's Figure 2 architecture: jobs arrive through
//! `sbatch`/`srun`, pass the job-submit plugin chain, queue by multifactor
//! priority, and are dispatched (FIFO with EASY backfill) onto simulated
//! nodes whose power/thermal state integrates as time advances. Finished
//! jobs are recorded in the accounting database ([`crate::dbd`]).
//! The scheduler pass itself continues `impl Cluster` in `sched.rs`.

use crate::dbd::AccountingDb;
use crate::error::SlurmError;
use crate::job::{Job, JobDescriptor, JobId, JobRecord, JobState};
use crate::partition::{Partition, PartitionTable};
use crate::plugin::{JobSubmitPlugin, PluginHost};
use crate::priority::{FairShare, PriorityWeights};
use crate::sched::NodeSet;
use crate::script::parse_submission;
use eco_hpcg::workload::Workload;
use eco_sim_node::class::NodeClass;
use eco_sim_node::clock::{SimDuration, SimTime};
use eco_sim_node::cpu::CpuSpec;
use eco_sim_node::power::CpuLoad;
use eco_sim_node::thermal::ThermalAging;
use eco_sim_node::{CpuConfig, SimNode};
use eco_telemetry::{Counter, Telemetry, TraceContext};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// A job executing on one node.
#[derive(Clone)]
pub(crate) struct RunningJob {
    pub(crate) id: JobId,
    pub(crate) config: CpuConfig,
    pub(crate) workload: Arc<dyn Workload>,
    pub(crate) start: SimTime,
    /// Natural completion instant.
    pub(crate) end: SimTime,
    /// Kill instant if the job has a time limit.
    pub(crate) kill_at: Option<SimTime>,
    /// System energy attributed to this job on this node so far (J).
    /// Accumulated incrementally each integration step in proportion to
    /// the job's core share, so co-scheduled jobs split the node's draw.
    pub(crate) system_j: f64,
    /// CPU-package energy attributed to this job on this node so far (J).
    pub(crate) cpu_j: f64,
}

impl RunningJob {
    /// When this job will vacate the node (completion or kill).
    fn vacate_at(&self) -> SimTime {
        match self.kill_at {
            Some(k) if k < self.end => k,
            _ => self.end,
        }
    }
}

/// One `slurmd`: a simulated node plus the jobs occupying it. Whole-node
/// scheduling keeps at most one entry; the co-scheduling placement hook
/// ([`CoSchedulePolicy::Pack`]) may stack a second, complementary job.
pub(crate) struct NodeDaemon {
    pub(crate) node: SimNode,
    pub(crate) running: Vec<RunningJob>,
    /// Drained nodes accept no new jobs (admin maintenance state).
    pub(crate) drained: bool,
    /// Accumulated busy seconds — the load history thermal aging
    /// derates against.
    pub(crate) busy_s: f64,
}

impl NodeDaemon {
    pub(crate) fn vacate_at(&self) -> Option<SimTime> {
        self.running.iter().map(|r| r.vacate_at()).max()
    }

    /// Idle and undrained: a node a job may start on.
    pub(crate) fn is_free(&self) -> bool {
        self.running.is_empty() && !self.drained
    }

    /// Cores already committed to running jobs.
    pub(crate) fn busy_cores(&self) -> u32 {
        self.running.iter().map(|r| r.config.cores).sum()
    }
}

/// Placement policy for single-node jobs when the cluster schedules more
/// than one per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoSchedulePolicy {
    /// One job per node (classic exclusive allocation). The default.
    #[default]
    Spread,
    /// Pack a memory-bound job next to a compute-bound one (or vice
    /// versa) on an already-busy node when cores and the power budget
    /// allow — the roofline-complementarity co-scheduling of Zheng et
    /// al.: jobs on opposite sides of the arithmetic-intensity ridge
    /// contend for different resources, so sharing a node amortises its
    /// platform power instead of waking another node.
    Pack,
}

/// The cluster simulation.
pub struct Cluster {
    pub(crate) daemons: Vec<NodeDaemon>,
    plugins: PluginHost,
    pub(crate) registry: HashMap<String, Arc<dyn Workload>>,
    pub(crate) jobs: BTreeMap<JobId, Job>,
    pub(crate) pending: Vec<JobId>,
    next_id: u64,
    pub(crate) weights: PriorityWeights,
    pub(crate) fairshare: FairShare,
    dbd: AccountingDb,
    pub(crate) backfill_enabled: bool,
    pub(crate) power_cap_w: Option<f64>,
    /// Watts held back from the cap at admission so the post-dispatch fan
    /// ramp (power estimates are taken at current temperatures) cannot
    /// push the instantaneous draw over the budget.
    pub(crate) power_headroom_w: f64,
    pub(crate) co_schedule: CoSchedulePolicy,
    /// Oldest-job protection: once a blocked job has waited this long,
    /// the work-conserving power cap stops admitting younger jobs ahead
    /// of it, so draining nodes eventually fit it.
    pub(crate) starvation_guard: Option<SimDuration>,
    partitions: PartitionTable,
    /// The nodes of each partition, by index into `partitions`.
    pub(crate) members: Vec<NodeSet>,
    /// Idle, undrained nodes: kept by `place`, `complete_job` and
    /// `set_drained`, the only functions that change either condition.
    pub(crate) idle: NodeSet,
    /// Cores of every node; nodes are fixed at construction.
    pub(crate) total_cores: u32,
    pub(crate) tel: Option<ClusterTelemetry>,
    /// When set, nodes slow down as they accumulate busy hours (same
    /// power draw, fewer GFLOPS) — the drift the adaptation loop's
    /// outcome feed is built to notice. `None` preserves the historical
    /// ageless behaviour exactly.
    aging: Option<ThermalAging>,
}

/// Counter handles resolved once at [`Cluster::set_telemetry`] time, as
/// the plugin host beside it does: the submit path and the scheduler
/// pass — which counts per *candidate* — bump bare atomics.
pub(crate) struct ClusterTelemetry {
    telemetry: Arc<Telemetry>,
    sbatch: Counter,
    submissions: Counter,
    submit_errors: Counter,
    pub(crate) sched_dispatched: Counter,
    pub(crate) sched_power_blocked: Counter,
    pub(crate) sched_head_blocked: Counter,
    pub(crate) sched_packed: Counter,
    pub(crate) sched_backfilled: Counter,
    pub(crate) sched_starvation_stall: Counter,
    /// `slurm.sched_hold.<reason>`, by `HoldReason as usize`.
    pub(crate) sched_hold: [Counter; 4],
}

/// Resolution at which running jobs' utilization profiles are re-applied
/// to the node power model.
const LOAD_UPDATE: SimDuration = SimDuration(1000);

impl Cluster {
    /// A cluster of one node — the paper's evaluation setup.
    pub fn single_node(node: SimNode) -> Self {
        Self::new(vec![node])
    }

    /// A cluster over the given nodes (the §6.2.3 multi-node extension).
    pub fn new(nodes: Vec<SimNode>) -> Self {
        assert!(!nodes.is_empty(), "a cluster needs at least one node");
        let t0 = nodes[0].now();
        assert!(nodes.iter().all(|n| n.now() == t0), "node clocks must agree");
        let n = nodes.len();
        let mut cluster = Cluster {
            total_cores: nodes.iter().map(|node| node.spec().cores).sum(),
            daemons: nodes
                .into_iter()
                .map(|node| NodeDaemon { node, running: Vec::new(), drained: false, busy_s: 0.0 })
                .collect(),
            plugins: PluginHost::new(),
            registry: HashMap::new(),
            jobs: BTreeMap::new(),
            pending: Vec::new(),
            next_id: 1,
            weights: PriorityWeights::default(),
            fairshare: FairShare::new(),
            dbd: AccountingDb::new(),
            backfill_enabled: true,
            power_cap_w: None,
            power_headroom_w: 0.0,
            co_schedule: CoSchedulePolicy::default(),
            starvation_guard: None,
            partitions: PartitionTable::with_default(n),
            members: Vec::new(),
            idle: NodeSet::of(0..n, n),
            tel: None,
            aging: None,
        };
        cluster.index_partitions();
        cluster
    }

    /// A heterogeneous cluster built from node classes: `counts` gives
    /// how many nodes of each class to instantiate, in order. Each class
    /// gets a partition named after it (carrying the class name for the
    /// prediction key space); the first class is the default partition.
    pub fn heterogeneous(classes: &[(NodeClass, usize)]) -> Self {
        assert!(!classes.is_empty(), "a cluster needs at least one node class");
        let mut nodes = Vec::new();
        let mut ranges: Vec<(String, Vec<usize>)> = Vec::new();
        for (class, count) in classes {
            assert!(*count > 0, "class '{}' instantiates zero nodes", class.name);
            let start = nodes.len();
            for _ in 0..*count {
                nodes.push(class.node());
            }
            ranges.push((class.name.clone(), (start..nodes.len()).collect()));
        }
        let mut cluster = Cluster::new(nodes);
        // per-class partitions are the only routes onto a heterogeneous
        // cluster; they replace the auto-created span-everything default
        let mut table = PartitionTable::default();
        for (i, (name, range)) in ranges.into_iter().enumerate() {
            let mut partition = Partition::over(&name, range).with_class(&name);
            if i == 0 {
                partition = partition.as_default();
            }
            table.upsert(partition);
        }
        cluster.partitions = table;
        cluster.index_partitions();
        cluster
    }

    /// Registers a job-submit plugin (the `JobSubmitPlugins=` line).
    pub fn register_plugin(&mut self, plugin: Box<dyn JobSubmitPlugin>) {
        self.plugins.register(plugin);
    }

    /// Replaces the plugin host (to adjust the submit-path time budget).
    pub fn set_plugin_host(&mut self, host: PluginHost) {
        self.plugins = host;
        if let Some(t) = &self.tel {
            self.plugins.set_telemetry(Arc::clone(&t.telemetry));
        }
    }

    /// Attaches telemetry: every `sbatch` roots a trace whose spans
    /// cover parsing, submission and each plugin call, the scheduler's
    /// dispatch decisions bump `slurm.sched_*` counters, and every pass
    /// adds the jobs it leaves pending to `slurm.sched_hold.<reason>`.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.plugins.set_telemetry(Arc::clone(&telemetry));
        self.tel = Some(ClusterTelemetry {
            sbatch: telemetry.counter("slurm.sbatch"),
            submissions: telemetry.counter("slurm.submissions"),
            submit_errors: telemetry.counter("slurm.submit_errors"),
            sched_dispatched: telemetry.counter("slurm.sched_dispatched"),
            sched_power_blocked: telemetry.counter("slurm.sched_power_blocked"),
            sched_head_blocked: telemetry.counter("slurm.sched_head_blocked"),
            sched_packed: telemetry.counter("slurm.sched_packed"),
            sched_backfilled: telemetry.counter("slurm.sched_backfilled"),
            sched_starvation_stall: telemetry.counter("slurm.sched_starvation_stall"),
            sched_hold: ["begin_time", "resources", "priority", "power_cap"]
                .map(|reason| telemetry.counter(&format!("slurm.sched_hold.{reason}"))),
            telemetry,
        });
    }

    /// Installs an executable at a path; jobs reference it by path.
    pub fn register_binary(&mut self, path: &str, workload: Arc<dyn Workload>) {
        self.registry.insert(path.to_string(), workload);
    }

    /// Disables EASY backfill (pure FIFO-by-priority).
    pub fn set_backfill(&mut self, enabled: bool) {
        self.backfill_enabled = enabled;
    }

    /// Installs a cluster-wide power cap (W): the scheduler will not start
    /// a job whose estimated steady-state draw would push the cluster's
    /// aggregate system power over the budget. This is the value-oriented
    /// power-constrained scheduling of Kumbhare et al. that the paper's
    /// related-work section points at for "dynamically changing the order
    /// of jobs". `None` removes the cap.
    pub fn set_power_cap(&mut self, watts: Option<f64>) {
        if let Some(w) = watts {
            assert!(w > 0.0, "power cap must be positive");
        }
        self.power_cap_w = watts;
    }

    /// Reserves `watts` of the power cap for post-dispatch drift:
    /// admission estimates draw at *current* temperatures, and fans ramp
    /// as dispatched jobs heat their packages. An operator who needs the
    /// instantaneous draw to never cross the cap sets this to the fleet's
    /// worst-case fan ramp (see [`NodeClass::max_fan_w`]); the default of
    /// 0 keeps the historical steady-state-estimate behaviour.
    pub fn set_power_headroom(&mut self, watts: f64) {
        assert!(watts >= 0.0, "headroom cannot be negative");
        self.power_headroom_w = watts;
    }

    /// Selects the co-scheduling placement policy for single-node jobs.
    pub fn set_co_schedule(&mut self, policy: CoSchedulePolicy) {
        self.co_schedule = policy;
    }

    /// Installs (or removes) thermal aging: with it set, every node's
    /// sustained GFLOPS derate as its busy hours accumulate while its
    /// power draw does not, so jobs take longer at the same wattage.
    /// This is the deterministic drift injector the adaptation harness
    /// runs against; `None` (the default) changes nothing.
    pub fn set_thermal_aging(&mut self, aging: Option<ThermalAging>) {
        self.aging = aging;
    }

    /// The throughput fraction node `idx` currently sustains at
    /// `frequency_khz` under the installed aging model (1.0 when aging
    /// is off or the node is new). Aging is frequency-aware: a degraded
    /// cooling path throttles the high-power DVFS states hardest, so a
    /// job pinned low on the V/f curve still runs near nominal — see
    /// [`ThermalAging::derate_at`].
    pub fn thermal_derate(&self, idx: usize, frequency_khz: u64) -> f64 {
        self.aging.map_or(1.0, |a| {
            let top = self.daemons[idx].node.spec().frequencies_khz.iter().copied().max().unwrap_or(0);
            a.derate_at(self.daemons[idx].busy_s / 3600.0, frequency_khz, top)
        })
    }

    /// Pre-ages every node by `busy_hours` of accumulated load, as if
    /// the cluster had been in production that long before the run
    /// began (the adaptation harness's fast-forward; real aging also
    /// accrues naturally as jobs execute).
    pub fn age_nodes(&mut self, busy_hours: f64) {
        for daemon in &mut self.daemons {
            daemon.busy_s += busy_hours.max(0.0) * 3600.0;
        }
    }

    /// Bounds how long the work-conserving power cap may pass over a
    /// blocked job: once the oldest blocked job has waited `age`, no
    /// younger job is admitted ahead of it until it dispatches. `None`
    /// (the default) keeps the cap fully work-conserving.
    pub fn set_starvation_guard(&mut self, age: Option<SimDuration>) {
        self.starvation_guard = age;
    }

    /// Adds (or replaces) a partition. Node indices must exist and be
    /// distinct.
    pub fn add_partition(&mut self, partition: Partition) {
        assert!(
            partition.nodes.iter().all(|&n| n < self.daemons.len()),
            "partition references a node the cluster does not have"
        );
        assert!(
            NodeSet::of(partition.nodes.iter().copied(), self.daemons.len()).len() == partition.nodes.len(),
            "partition lists a node more than once"
        );
        self.partitions.upsert(partition);
        self.index_partitions();
    }

    /// Rebuilds `members` from the partition table, its one source.
    fn index_partitions(&mut self) {
        let n = self.daemons.len();
        self.members = self.partitions.all().iter().map(|p| NodeSet::of(p.nodes.iter().copied(), n)).collect();
    }

    /// The configured partitions.
    pub fn partitions(&self) -> &PartitionTable {
        &self.partitions
    }

    /// The partition `submit_inner` resolved and validated for `job`.
    pub(crate) fn partition_of(&self, job: &Job) -> &Partition {
        &self.partitions.all()[job.partition]
    }

    /// The single electrical configuration standing in for every job on a
    /// node: cores sum (clamped to the package), the fastest requested
    /// frequency, the widest SMT setting; `None` for no job at all. Exact
    /// for the common exclusive allocation; a slight over-estimate for
    /// packed jobs at different frequencies, which errs on the safe side
    /// of a power cap.
    fn combined_config(spec: &CpuSpec, configs: impl Iterator<Item = CpuConfig>) -> Option<CpuConfig> {
        configs
            .reduce(|a, b| CpuConfig {
                cores: a.cores + b.cores,
                frequency_khz: a.frequency_khz.max(b.frequency_khz),
                threads_per_core: a.threads_per_core.max(b.threads_per_core),
            })
            .map(|sum| CpuConfig { cores: sum.cores.min(spec.cores).max(1), ..sum })
    }

    /// The load a node is committed to at full activity: the combined
    /// configuration of its running jobs — and of `joining`, when pricing
    /// a job that is not there yet — at utilization 1.0, or idle. This is
    /// the planning view power-cap admission sums over.
    pub(crate) fn planned_load(&self, idx: usize, joining: Option<CpuConfig>) -> CpuLoad {
        let d = &self.daemons[idx];
        let configs = d.running.iter().map(|r| r.config).chain(joining);
        Self::combined_config(d.node.spec(), configs).map_or_else(|| CpuLoad::idle(d.node.spec()), CpuLoad::busy)
    }

    /// Estimated steady-state system power of one node under its planned
    /// load. Steady-state fan feedback: use the node's current temp, a
    /// good proxy at scheduling granularity.
    pub(crate) fn planned_power_w(&self, idx: usize, joining: Option<CpuConfig>) -> f64 {
        let node = &self.daemons[idx].node;
        node.power_model().system_power(&self.planned_load(idx, joining), node.cpu_temp_c())
    }

    /// Estimated aggregate steady-state system power right now: busy nodes
    /// at their jobs' combined configuration, idle nodes at idle draw.
    pub fn estimated_power_w(&self) -> f64 {
        (0..self.daemons.len()).map(|i| self.planned_power_w(i, None)).sum()
    }

    /// Ground-truth instantaneous cluster draw (W): the sum of every
    /// node's telemetry right now. This is what a facility meter reads
    /// and what the simulation harness audits against the cap.
    pub fn instantaneous_power_w(&self) -> f64 {
        self.daemons.iter().map(|d| d.node.telemetry().system_power_w).sum()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.daemons[0].node.now()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.daemons.len()
    }

    /// Read access to a node (IPMI/wattmeter sampling goes through this).
    pub fn node(&self, idx: usize) -> &SimNode {
        &self.daemons[idx].node
    }

    /// Drains or resumes a node (`scontrol update nodename=… state=drain`).
    /// A drained node finishes its current job but receives no new ones.
    pub fn set_drained(&mut self, idx: usize, drained: bool) {
        self.daemons[idx].drained = drained;
        self.idle.set(idx, self.daemons[idx].is_free());
        if !drained {
            self.schedule();
        }
    }

    /// Whether a node is drained.
    pub fn is_drained(&self, idx: usize) -> bool {
        self.daemons[idx].drained
    }

    /// The accounting database.
    pub fn accounting(&self) -> &AccountingDb {
        &self.dbd
    }

    /// A job's current state.
    pub fn job(&self, id: JobId) -> Result<&Job, SlurmError> {
        self.jobs.get(&id).ok_or(SlurmError::NoSuchJob(id))
    }

    /// Submits a batch script (`sbatch`), returning the new job id. For a
    /// job-array script, returns the first array element's id (use
    /// [`Cluster::sbatch_array`] for all of them).
    pub fn sbatch(&mut self, script: &str, user: &str) -> Result<JobId, SlurmError> {
        self.submit_script(script, user, |_| {})
    }

    /// Submits a batch script, expanding `#SBATCH --array=...` into one
    /// job per task index (`name_[i]`). Non-array scripts yield one job.
    pub fn sbatch_array(&mut self, script: &str, user: &str) -> Result<Vec<JobId>, SlurmError> {
        let mut ids = Vec::new();
        self.submit_script(script, user, |id| ids.push(id))?;
        Ok(ids)
    }

    /// Parses and submits a batch script, handing `each` every job id in
    /// submission order; returns the first.
    fn submit_script(&mut self, script: &str, user: &str, mut each: impl FnMut(JobId)) -> Result<JobId, SlurmError> {
        // one handle per submission: its spans borrow it while the
        // submission itself borrows the cluster mutably
        let telemetry = self.tel.as_ref().map(|t| {
            t.sbatch.bump();
            Arc::clone(&t.telemetry)
        });
        let mut root = telemetry.as_deref().map(|t| {
            let mut s = t.root_span("slurm", "sbatch");
            s.attr("user", user.to_string());
            s
        });
        let parsed = {
            let parse_span = root.as_ref().map(|r| r.child("slurm", "parse"));
            let parsed = parse_submission(script, user);
            if let Some(s) = parse_span {
                match &parsed {
                    Ok(_) => s.finish(),
                    Err(e) => s.fail(e.to_string()),
                }
            }
            parsed
        };
        let ctx = root.as_ref().map(|s| s.context());
        let result: Result<JobId, SlurmError> = (|| match parsed? {
            (desc, None) => {
                let id = self.submit_under(telemetry.as_deref(), desc, ctx)?;
                each(id);
                Ok(id)
            }
            (desc, Some(spec)) => {
                let mut first = None;
                for idx in spec.indices {
                    let mut element = desc.clone();
                    element.name = format!("{}_[{}]", desc.name, idx);
                    let id = self.submit_under(telemetry.as_deref(), element, ctx)?;
                    each(id);
                    first.get_or_insert(id);
                }
                Ok(first.expect("an array spec has at least one index"))
            }
        })();
        if let Err(e) = &result {
            if let Some(s) = root.take() {
                s.fail(e.to_string());
            }
        }
        result
    }

    /// Runs an `srun` command line: parses, submits, and returns the job
    /// id (the caller advances the simulation to completion, mirroring the
    /// interactive blocking behaviour).
    pub fn srun(&mut self, argv: &[&str], user: &str) -> Result<JobId, SlurmError> {
        let desc = crate::commands::parse_srun(argv, user)?;
        self.submit(desc)
    }

    /// `sacct`-style accounting listing (completed jobs with energy).
    pub fn sacct(&self) -> String {
        let mut out = String::from("JobID  JobName         User      State      Elapsed    SystemEnergy\n");
        for r in self.dbd.records() {
            let elapsed = match (r.start_time, r.end_time) {
                (Some(s), Some(e)) => (e - s).to_string(),
                _ => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<6} {:<15} {:<9} {:<10} {:<10} {:>9.1} kJ\n",
                r.id,
                truncate(&r.name, 15),
                truncate(&r.user, 9),
                format!("{:?}", r.state),
                elapsed,
                r.system_energy_j / 1000.0,
            ));
        }
        out
    }

    /// Submits a prepared descriptor (what `srun`/API submission becomes).
    pub fn submit(&mut self, desc: JobDescriptor) -> Result<JobId, SlurmError> {
        self.submit_traced(desc, None)
    }

    /// [`Cluster::submit`] joined to a trace: the submission span opens
    /// under `parent` (or roots a fresh trace) and its context flows
    /// through the plugin chain and onward to any remote prediction.
    pub fn submit_traced(&mut self, desc: JobDescriptor, parent: Option<TraceContext>) -> Result<JobId, SlurmError> {
        let telemetry = self.tel.as_ref().map(|t| Arc::clone(&t.telemetry));
        self.submit_under(telemetry.as_deref(), desc, parent)
    }

    /// [`Cluster::submit_traced`] on the caller's telemetry handle.
    fn submit_under(
        &mut self,
        telemetry: Option<&Telemetry>,
        desc: JobDescriptor,
        parent: Option<TraceContext>,
    ) -> Result<JobId, SlurmError> {
        let mut span = self.tel.as_ref().zip(telemetry).map(|(t, telemetry)| {
            t.submissions.bump();
            let mut s = telemetry.span_maybe_under(parent, "slurm", "submit");
            s.attr("name", desc.name.clone());
            s
        });
        let ctx = span.as_ref().map(|s| s.context()).or(parent);
        let result = self.submit_inner(desc, ctx);
        match &result {
            Ok(id) => {
                if let Some(s) = &mut span {
                    s.attr("job", id.0);
                }
            }
            Err(e) => {
                if let Some(t) = &self.tel {
                    t.submit_errors.bump();
                }
                if let Some(s) = span.take() {
                    s.fail(e.to_string());
                }
            }
        }
        result
    }

    fn submit_inner(&mut self, mut desc: JobDescriptor, ctx: Option<TraceContext>) -> Result<JobId, SlurmError> {
        if !self.registry.contains_key(&desc.binary_path) {
            return Err(SlurmError::UnknownBinary(desc.binary_path));
        }
        let partition = self.partitions.resolve(desc.partition.as_deref()).ok_or_else(|| {
            SlurmError::Unsatisfiable(format!("unknown partition '{}'", desc.partition.as_deref().unwrap_or("")))
        })?;
        if desc.num_nodes == 0 {
            return Err(SlurmError::Unsatisfiable("0 nodes requested, a job needs at least one".into()));
        }
        if desc.num_nodes as usize > partition.nodes.len() {
            return Err(SlurmError::Unsatisfiable(format!(
                "{} nodes requested, partition '{}' has {}",
                desc.num_nodes,
                partition.name,
                partition.nodes.len()
            )));
        }
        // the partition's MaxTime caps the job's own request
        desc.time_limit = partition.effective_time_limit(desc.time_limit);
        // resolved and validated here, once; the table only ever upserts
        // in place, so the index names this partition while the job lives
        let partition = self.partitions.all().iter().position(|p| p.name == partition.name).expect("just resolved");
        self.plugins.run_traced(&mut desc, 1000, ctx)?;

        let id = JobId(self.next_id);
        self.next_id += 1;
        let job = Job {
            id,
            descriptor: desc,
            state: JobState::Pending,
            submit_time: self.now(),
            start_time: None,
            end_time: None,
            node: None,
            reason: None,
            partition,
        };
        self.jobs.insert(id, job);
        self.pending.push(id);
        self.schedule();
        Ok(id)
    }

    /// Cancels a pending or running job (`scancel`).
    pub fn cancel(&mut self, id: JobId) -> Result<(), SlurmError> {
        let state = self.job(id)?.state;
        match state {
            JobState::Pending => {
                self.pending.retain(|&p| p != id);
                self.finish_queued_job(id, JobState::Cancelled);
                Ok(())
            }
            JobState::Running => {
                self.complete_job(id, JobState::Cancelled);
                Ok(())
            }
            s => Err(SlurmError::InvalidState { job: id, reason: format!("cannot cancel in state {s:?}") }),
        }
    }

    /// Advances simulated time, executing and completing jobs.
    pub fn advance(&mut self, dt: SimDuration) {
        let target = self.now() + dt;
        let mut settled = false;
        while self.now() < target {
            let now = self.now();
            // next point any running job vacates its node
            let next_event =
                self.daemons.iter().flat_map(|d| d.running.iter().map(|r| r.vacate_at())).min().unwrap_or(target);
            let step_end = target.min(next_event.max(now)).min(now + LOAD_UPDATE);
            let step = step_end - now;

            if step.is_zero() {
                // an event fires exactly now; fire it, then force progress
                self.fire_due_events();
                let force = SimDuration((target - now).as_millis().min(LOAD_UPDATE.as_millis()).max(1));
                self.step_nodes(force);
                settled = false;
                continue;
            }

            self.step_nodes(step);
            self.fire_due_events();
            settled = !self.schedule();
        }
        // skipped only after a pass that placed nothing, with nothing run
        // since: a pass is a function of the cluster's state, so this one
        // would decide the same. After a placement it is not redundant: a
        // job held before it may pack onto the host it made busy (sched.rs)
        if !settled {
            self.schedule();
        }
    }

    /// Runs the simulation forward until no job is pending or running, up
    /// to `max` simulated time. Returns true if the cluster went idle.
    pub fn run_until_idle(&mut self, max: SimDuration) -> bool {
        let deadline = self.now() + max;
        while self.now() < deadline {
            if self.is_idle() {
                return true;
            }
            let step = SimDuration((deadline - self.now()).as_millis().min(60_000));
            self.advance(step);
        }
        self.is_idle()
    }

    /// True when nothing is pending or running.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.daemons.iter().all(|d| d.running.is_empty())
    }

    /// `squeue`-style listing of non-terminal jobs.
    pub fn squeue(&self) -> String {
        let mut out =
            String::from("JOBID  PARTITION  NAME            USER      ST  TIME      NODES NODELIST(REASON)\n");
        for job in self.jobs.values() {
            if job.state.is_terminal() {
                continue;
            }
            // why a pending job is not running, or where a running one is
            let place = match job.reason {
                Some(reason) => format!("({reason:?})"),
                None => job.node.map_or("(None)".to_string(), |node| format!("n{node}")),
            };
            out.push_str(&format!(
                "{:<6} {:<10} {:<15} {:<9} {:<3} {:<9} {:<5} {}\n",
                job.id,
                truncate(&self.partition_of(job).name, 10),
                truncate(&job.descriptor.name, 15),
                truncate(&job.descriptor.user, 9),
                job.state.code(),
                job.elapsed(self.now()).to_string(),
                job.descriptor.num_nodes,
                place,
            ));
        }
        out
    }

    /// `scontrol show job`-style detail for one job.
    pub fn scontrol_show_job(&self, id: JobId) -> Result<String, SlurmError> {
        let job = self.job(id)?;
        let d = &job.descriptor;
        Ok(format!(
            "JobId={} JobName={}\n   UserId={} JobState={:?} QOS={:?}\n   NumNodes={} NumTasks={} ThreadsPerCore={}\n   CpuFreqMin={} CpuFreqMax={}\n   Comment={}\n   SubmitTime={} StartTime={} EndTime={}\n   Command={}\n",
            job.id,
            d.name,
            d.user,
            job.state,
            d.qos,
            d.num_nodes,
            d.num_tasks,
            d.threads_per_cpu,
            d.min_frequency_khz.map_or("n/a".into(), |f| f.to_string()),
            d.max_frequency_khz.map_or("n/a".into(), |f| f.to_string()),
            if d.comment.is_empty() { "(null)" } else { &d.comment },
            job.submit_time,
            job.start_time.map_or("n/a".into(), |t| t.to_string()),
            job.end_time.map_or("n/a".into(), |t| t.to_string()),
            d.binary_path,
        ))
    }

    /// `sinfo`-style node summary with partition membership.
    pub fn sinfo(&self) -> String {
        let mut out = String::from("NODE   STATE  CORES  PARTITIONS       JOB\n");
        for (i, d) in self.daemons.iter().enumerate() {
            let ids = d.running.iter().map(|r| r.id.to_string()).collect::<Vec<_>>().join("+");
            let (state, job) = match (d.running.is_empty(), d.drained) {
                (false, true) => ("drng", ids),
                (false, false) => ("alloc", ids),
                (true, true) => ("drain", "-".to_string()),
                (true, false) => ("idle", "-".to_string()),
            };
            let parts: Vec<&str> =
                self.partitions.all().iter().filter(|p| p.contains(i)).map(|p| p.name.as_str()).collect();
            out.push_str(&format!(
                "n{:<5} {:<6} {:<6} {:<16} {}\n",
                i,
                state,
                d.node.spec().cores,
                truncate(&parts.join(","), 16),
                job
            ));
        }
        out
    }

    // ---- internals ----

    fn step_nodes(&mut self, step: SimDuration) {
        for daemon in &mut self.daemons {
            if daemon.running.is_empty() {
                daemon.node.set_idle();
                daemon.node.advance(step);
                continue;
            }
            // one electrical load stands in for every resident job:
            // combined configuration, core-weighted mean utilization
            let now = daemon.node.now();
            let combined = Self::combined_config(daemon.node.spec(), daemon.running.iter().map(|r| r.config))
                .expect("a busy node has residents");
            let weight_total: f64 = daemon.running.iter().map(|r| r.config.cores as f64).sum();
            let utilization = daemon
                .running
                .iter()
                .map(|r| {
                    let elapsed = (now - r.start).as_secs_f64();
                    r.workload.utilization(&r.config, elapsed) * r.config.cores as f64
                })
                .sum::<f64>()
                / weight_total;
            daemon.node.set_load(CpuLoad { config: combined, utilization });

            // advance, then attribute the node's energy delta to the
            // resident jobs in proportion to their core shares
            let before = daemon.node.energy();
            daemon.node.advance(step);
            let after = daemon.node.energy();
            let (d_sys, d_cpu) = (after.system_j - before.system_j, after.cpu_j - before.cpu_j);
            for r in &mut daemon.running {
                let share = r.config.cores as f64 / weight_total;
                r.system_j += d_sys * share;
                r.cpu_j += d_cpu * share;
            }
        }
    }

    fn fire_due_events(&mut self) {
        let now = self.now();
        let due: Vec<(JobId, JobState)> = {
            let mut seen = HashSet::new();
            self.daemons
                .iter()
                .flat_map(|d| d.running.iter())
                .filter(|r| r.vacate_at() <= now)
                .filter(|r| seen.insert(r.id))
                .map(|r| {
                    (r.id, if r.kill_at.is_some_and(|k| k < r.end) { JobState::Timeout } else { JobState::Completed })
                })
                .collect()
        };
        for (id, state) in due {
            self.complete_job(id, state);
        }
    }

    /// Vacates every node slot a job occupies (1 for single-node jobs, N
    /// for multi-node, a shared node for packed jobs), sums the energy
    /// attributed to it, and writes one accounting record.
    fn complete_job(&mut self, id: JobId, state: JobState) {
        let mut system_energy_j = 0.0;
        let mut cpu_energy_j = 0.0;
        let mut config = None;
        let mut core_seconds = 0.0;
        let now = self.now();
        let mut touched = Vec::new();
        for (idx, daemon) in self.daemons.iter_mut().enumerate() {
            if let Some(pos) = daemon.running.iter().position(|r| r.id == id) {
                let running = daemon.running.remove(pos);
                system_energy_j += running.system_j;
                cpu_energy_j += running.cpu_j;
                core_seconds += (now - running.start).as_secs_f64() * running.config.cores as f64;
                config = Some(running.config);
                touched.push(idx);
            }
        }
        for idx in touched {
            let load = self.planned_load(idx, None);
            self.daemons[idx].node.set_load(load);
            self.idle.set(idx, self.daemons[idx].is_free());
        }
        assert!(config.is_some(), "job {id} was not running anywhere");

        let job = self.jobs.get_mut(&id).expect("running job is tracked");
        job.state = state;
        job.end_time = Some(now);
        self.fairshare.record(&job.descriptor.user, core_seconds);

        self.dbd.insert(JobRecord {
            id: job.id,
            name: job.descriptor.name.clone(),
            user: job.descriptor.user.clone(),
            state,
            config,
            submit_time: job.submit_time,
            start_time: job.start_time,
            end_time: job.end_time,
            system_energy_j,
            cpu_energy_j,
        });
    }

    fn finish_queued_job(&mut self, id: JobId, state: JobState) {
        let now = self.now();
        let job = self.jobs.get_mut(&id).expect("queued job is tracked");
        job.state = state;
        job.end_time = Some(now);
        self.dbd.insert(JobRecord {
            id: job.id,
            name: job.descriptor.name.clone(),
            user: job.descriptor.user.clone(),
            state,
            config: None,
            submit_time: job.submit_time,
            start_time: None,
            end_time: job.end_time,
            system_energy_j: 0.0,
            cpu_energy_j: 0.0,
        });
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        return s;
    }
    let mut end = n;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::script::generate_hpcg_script;
    use eco_hpcg::workload::{ScalingKind, SyntheticWorkload};

    pub(crate) fn quick_workload(gflop: f64) -> Arc<dyn Workload> {
        // compute-bound: 1 GFLOP/s per core per GHz
        Arc::new(SyntheticWorkload::new("quick", ScalingKind::ComputeBound, gflop, 1.0))
    }

    pub(crate) fn cluster() -> Cluster {
        let mut c = Cluster::single_node(SimNode::sr650());
        c.register_binary("/bin/app", quick_workload(800.0));
        c
    }

    pub(crate) fn desc(tasks: u32) -> JobDescriptor {
        let mut d = JobDescriptor::new("t", "alice", "/bin/app");
        d.num_tasks = tasks;
        d
    }

    #[test]
    fn submit_and_complete_job() {
        let mut c = cluster();
        // 32 cores @ 2.5 GHz => 80 GFLOP/s => 800 GFLOP takes 10 s
        let id = c.submit(desc(32)).unwrap();
        assert_eq!(c.job(id).unwrap().state, JobState::Running, "single free node starts immediately");
        c.advance(SimDuration::from_secs(11));
        assert_eq!(c.job(id).unwrap().state, JobState::Completed);
        let rec = c.accounting().get(id).unwrap();
        assert_eq!(rec.state, JobState::Completed);
        assert!(rec.system_energy_j > 0.0);
        assert!(rec.cpu_energy_j > 0.0);
        assert!(rec.cpu_energy_j < rec.system_energy_j);
    }

    #[test]
    fn thermal_aging_slows_jobs_at_unchanged_power() {
        // without aging: 800 GFLOP at 80 GFLOP/s = 10 s per job, forever
        let mut fresh = cluster();
        let a = fresh.submit(desc(32)).unwrap();
        fresh.advance(SimDuration::from_secs(11));
        let fresh_runtime = {
            let rec = fresh.accounting().get(a).unwrap();
            (rec.end_time.unwrap() - rec.start_time.unwrap()).as_secs_f64()
        };
        assert!((fresh_runtime - 10.0).abs() < 0.1);

        // an aggressive aging curve so the drift shows within one test:
        // 10% throughput lost per busy hour, floored at 50%
        let mut aged = cluster();
        aged.set_thermal_aging(Some(ThermalAging { rate_per_hour: 0.1, floor: 0.5 }));
        assert_eq!(aged.thermal_derate(0, 2_500_000), 1.0, "a fresh node starts at nominal");
        // burn ~2 busy hours of history through repeated jobs
        let mut last_runtime = 0.0;
        for _ in 0..700 {
            let id = aged.submit(desc(32)).unwrap();
            aged.advance(SimDuration::from_secs(25));
            let rec = aged.accounting().get(id).unwrap();
            last_runtime = (rec.end_time.unwrap() - rec.start_time.unwrap()).as_secs_f64();
        }
        let top_derate = aged.thermal_derate(0, 2_500_000);
        assert!(top_derate < 0.85, "hours of load derated the node: {top_derate}");
        assert!(
            aged.thermal_derate(0, 1_500_000) > top_derate,
            "aging is frequency-aware: a low DVFS pin suffers less than the top step"
        );
        assert!(last_runtime > fresh_runtime * 1.15, "same job now runs slower: {last_runtime}s vs {fresh_runtime}s");
        // power draw did not shrink with the throughput: efficiency fell,
        // which is the observable the adaptation loop detects
        let rec = aged.accounting().records().last().unwrap().clone();
        let watts = rec.system_energy_j / last_runtime;
        assert!(watts > 100.0, "an aged node still burns full power: {watts} W");
    }

    #[test]
    fn unknown_binary_rejected() {
        let mut c = cluster();
        let d = JobDescriptor::new("t", "u", "/bin/missing");
        assert!(matches!(c.submit(d), Err(SlurmError::UnknownBinary(_))));
    }

    #[test]
    fn sbatch_with_telemetry_records_a_connected_trace() {
        let mut c = cluster();
        let telemetry = Arc::new(Telemetry::wall());
        c.set_telemetry(Arc::clone(&telemetry));
        c.register_binary("/opt/hpcg/bin/xhpcg", quick_workload(100.0));
        let script = generate_hpcg_script(16, 2_200_000, 2, "/opt/hpcg/bin/xhpcg");
        c.sbatch(&script, "aaen").unwrap();

        let events = telemetry.recorder().events();
        let root = events.iter().find(|e| e.name == "sbatch").expect("sbatch root span");
        assert_eq!(root.layer, "slurm");
        assert_eq!(root.parent, None);
        let parse = events.iter().find(|e| e.name == "parse").expect("parse span");
        assert_eq!(parse.parent, Some(root.span));
        let submit = events.iter().find(|e| e.name == "submit").expect("submit span");
        assert_eq!(submit.parent, Some(root.span));
        assert!(events.iter().all(|e| e.trace == root.trace), "one submission, one trace");
        assert_eq!(telemetry.counter("slurm.sbatch").get(), 1);
        assert_eq!(telemetry.counter("slurm.submissions").get(), 1);
        assert_eq!(telemetry.counter("slurm.sched_dispatched").get(), 1);
    }

    #[test]
    fn failed_submission_fails_the_trace() {
        let mut c = cluster();
        let telemetry = Arc::new(Telemetry::wall());
        c.set_telemetry(Arc::clone(&telemetry));
        let d = JobDescriptor::new("t", "u", "/bin/missing");
        assert!(c.submit(d).is_err());
        let events = telemetry.recorder().events();
        let submit = events.iter().find(|e| e.name == "submit").expect("submit span");
        assert!(!submit.is_ok(), "unknown binary must close the span with an error");
        assert_eq!(telemetry.counter("slurm.submit_errors").get(), 1);
    }

    #[test]
    fn sbatch_script_roundtrip() {
        let mut c = cluster();
        c.register_binary("/opt/hpcg/bin/xhpcg", quick_workload(100.0));
        let script = generate_hpcg_script(16, 2_200_000, 2, "/opt/hpcg/bin/xhpcg");
        let id = c.sbatch(&script, "aaen").unwrap();
        let job = c.job(id).unwrap();
        assert_eq!(job.descriptor.num_tasks, 16);
        assert_eq!(job.descriptor.threads_per_cpu, 2);
        assert_eq!(job.descriptor.user, "aaen");
    }

    #[test]
    fn fifo_queueing_on_single_node() {
        let mut c = cluster();
        let a = c.submit(desc(32)).unwrap();
        let b = c.submit(desc(32)).unwrap();
        assert_eq!(c.job(a).unwrap().state, JobState::Running);
        assert_eq!(c.job(b).unwrap().state, JobState::Pending);
        c.advance(SimDuration::from_secs(11));
        assert_eq!(c.job(a).unwrap().state, JobState::Completed);
        assert_eq!(c.job(b).unwrap().state, JobState::Running);
        c.advance(SimDuration::from_secs(11));
        assert_eq!(c.job(b).unwrap().state, JobState::Completed);
    }

    #[test]
    fn time_limit_kills_job() {
        let mut c = cluster();
        let mut d = desc(1); // 1 core @ 2.5 GHz => 2.5 GFLOP/s => 320 s natural
        d.time_limit = Some(SimDuration::from_secs(5));
        let id = c.submit(d).unwrap();
        c.advance(SimDuration::from_secs(10));
        assert_eq!(c.job(id).unwrap().state, JobState::Timeout);
        let rec = c.accounting().get(id).unwrap();
        assert_eq!(rec.state, JobState::Timeout);
        let runtime = (rec.end_time.unwrap() - rec.start_time.unwrap()).as_secs_f64();
        assert!((runtime - 5.0).abs() < 0.01, "killed at the limit, ran {runtime}");
    }

    #[test]
    fn cancel_pending_and_running() {
        let mut c = cluster();
        let a = c.submit(desc(32)).unwrap();
        let b = c.submit(desc(32)).unwrap();
        c.cancel(b).unwrap();
        assert_eq!(c.job(b).unwrap().state, JobState::Cancelled);
        c.cancel(a).unwrap();
        assert_eq!(c.job(a).unwrap().state, JobState::Cancelled);
        assert!(c.is_idle());
        // double-cancel is an error
        assert!(matches!(c.cancel(a), Err(SlurmError::InvalidState { .. })));
    }

    #[test]
    fn job_energy_attribution_is_plausible() {
        let mut c = cluster();
        let id = c.submit(desc(32)).unwrap(); // 10 s at ~217 W
        c.advance(SimDuration::from_secs(12));
        let rec = c.accounting().get(id).unwrap();
        let avg_w = rec.system_energy_j / 10.0;
        assert!((150.0..260.0).contains(&avg_w), "avg {avg_w} W");
    }

    #[test]
    fn multi_node_cluster_runs_jobs_in_parallel() {
        let mut c = Cluster::new(vec![SimNode::sr650(), SimNode::sr650()]);
        c.register_binary("/bin/app", quick_workload(800.0));
        let a = c.submit(desc(32)).unwrap();
        let b = c.submit(desc(32)).unwrap();
        assert_eq!(c.job(a).unwrap().state, JobState::Running);
        assert_eq!(c.job(b).unwrap().state, JobState::Running);
        c.advance(SimDuration::from_secs(11));
        assert!(c.is_idle());
    }

    #[test]
    fn multi_node_job_takes_both_nodes() {
        let mut c = Cluster::new(vec![SimNode::sr650(), SimNode::sr650()]);
        c.register_binary("/bin/app", quick_workload(800.0));
        let mut d = desc(32);
        d.num_nodes = 2;
        let id = c.submit(d).unwrap();
        assert_eq!(c.job(id).unwrap().state, JobState::Running);
        assert!(c.sinfo().matches("alloc").count() == 2, "{}", c.sinfo());
        // split across 2 nodes: 400 GFLOP each at 80 GFLOP/s = 5 s
        c.advance(SimDuration::from_secs(6));
        assert_eq!(c.job(id).unwrap().state, JobState::Completed);
    }

    #[test]
    fn requesting_more_nodes_than_cluster_is_unsatisfiable() {
        let mut c = cluster();
        let mut d = desc(1);
        d.num_nodes = 3;
        assert!(matches!(c.submit(d), Err(SlurmError::Unsatisfiable(_))));
    }

    #[test]
    fn squeue_and_scontrol_render() {
        let mut c = cluster();
        let id = c.submit(desc(8)).unwrap();
        let q = c.squeue();
        assert!(q.contains("alice"), "{q}");
        assert!(q.contains('R'), "{q}");
        assert!(q.contains("NODELIST(REASON)") && q.trim_end().ends_with(" n0"), "a running job lists its node: {q}");
        let detail = c.scontrol_show_job(id).unwrap();
        assert!(detail.contains("NumTasks=8"), "{detail}");
        assert!(detail.contains("JobState=Running"), "{detail}");
        assert!(c.scontrol_show_job(JobId(999)).is_err());
    }

    #[test]
    fn drained_node_receives_no_jobs() {
        let mut c = Cluster::new(vec![SimNode::sr650(), SimNode::sr650()]);
        c.register_binary("/bin/app", quick_workload(800.0));
        c.set_drained(0, true);
        assert!(c.is_drained(0));
        let a = c.submit(desc(32)).unwrap();
        let b = c.submit(desc(32)).unwrap();
        assert_eq!(c.job(a).unwrap().node, Some(1), "only the healthy node runs jobs");
        assert_eq!(c.job(b).unwrap().state, JobState::Pending);
        assert!(c.sinfo().contains("drain"), "{}", c.sinfo());
        // resume: the queued job starts on the resumed node
        c.set_drained(0, false);
        assert_eq!(c.job(b).unwrap().state, JobState::Running);
        assert_eq!(c.job(b).unwrap().node, Some(0));
    }

    #[test]
    fn draining_node_finishes_its_running_job() {
        let mut c = cluster();
        let a = c.submit(desc(32)).unwrap();
        c.set_drained(0, true);
        assert!(c.sinfo().contains("drng"), "{}", c.sinfo());
        c.advance(SimDuration::from_secs(11));
        assert_eq!(c.job(a).unwrap().state, JobState::Completed, "running job finishes normally");
        // but nothing new starts
        let b = c.submit(desc(32)).unwrap();
        assert_eq!(c.job(b).unwrap().state, JobState::Pending);
    }

    #[test]
    fn squeue_survives_non_ascii_job_names() {
        let mut c = cluster();
        let mut d = desc(4);
        d.name = "ärbeit-über-alles-öko-π".to_string();
        d.user = "åse".to_string();
        c.submit(d).unwrap();
        let q = c.squeue(); // must not panic on char boundaries
        assert!(q.contains("PARTITION"), "{q}");
    }

    #[test]
    fn run_until_idle_terminates() {
        let mut c = cluster();
        for _ in 0..3 {
            c.submit(desc(32)).unwrap();
        }
        assert!(c.run_until_idle(SimDuration::from_mins(10)));
        assert_eq!(c.accounting().count_state(JobState::Completed), 3);
    }

    #[test]
    fn node_utilization_tracks_workload_profile() {
        // a running job keeps the node's load near the profile's mean
        let mut c = cluster();
        c.submit(desc(32)).unwrap();
        c.advance(SimDuration::from_secs(5));
        let load = c.node(0).load();
        assert_eq!(load.config.cores, 32);
        assert!((load.utilization - 1.0).abs() < 0.3);
    }

    #[test]
    fn partition_restricts_nodes() {
        use crate::partition::Partition;
        let mut c = Cluster::new(vec![SimNode::sr650(), SimNode::sr650()]);
        c.register_binary("/bin/app", quick_workload(800.0));
        c.add_partition(Partition::over("debug", vec![1]));
        let mut d = desc(32);
        d.partition = Some("debug".into());
        let a = c.submit(d.clone()).unwrap();
        let b = c.submit(d).unwrap();
        // only node 1 belongs to debug: the second debug job waits even
        // though node 0 is free
        assert_eq!(c.job(a).unwrap().state, JobState::Running);
        assert_eq!(c.job(a).unwrap().node, Some(1));
        assert_eq!(c.job(b).unwrap().state, JobState::Pending);
        // a default-partition job still lands on node 0
        let e = c.submit(desc(32)).unwrap();
        assert_eq!(c.job(e).unwrap().state, JobState::Running);
        assert_eq!(c.job(e).unwrap().node, Some(0));
    }

    #[test]
    fn unknown_partition_is_unsatisfiable() {
        let mut c = cluster();
        let mut d = desc(1);
        d.partition = Some("gpu".into());
        assert!(matches!(c.submit(d), Err(SlurmError::Unsatisfiable(_))));
    }

    #[test]
    fn partition_max_time_caps_job_limit() {
        use crate::partition::Partition;
        let mut c = cluster();
        c.add_partition(Partition {
            name: "debug".into(),
            nodes: vec![0],
            max_time: Some(SimDuration::from_secs(5)),
            priority_bonus: 0.0,
            is_default: false,
            node_class: None,
        });
        // 1-core job naturally takes 320 s; the partition kills it at 5 s
        let mut d = desc(1);
        d.partition = Some("debug".into());
        let id = c.submit(d).unwrap();
        assert_eq!(c.job(id).unwrap().descriptor.time_limit, Some(SimDuration::from_secs(5)));
        c.advance(SimDuration::from_secs(10));
        assert_eq!(c.job(id).unwrap().state, JobState::Timeout);
    }

    #[test]
    fn partition_priority_bonus_reorders_queue() {
        use crate::partition::Partition;
        let mut c = cluster();
        c.add_partition(Partition {
            name: "urgent".into(),
            nodes: vec![0],
            max_time: None,
            priority_bonus: 1_000_000.0,
            is_default: false,
            node_class: None,
        });
        // occupy the node, then queue a normal job before an urgent one
        let _running = c.submit(desc(32)).unwrap();
        let normal = c.submit(desc(32)).unwrap();
        let mut d = desc(32);
        d.partition = Some("urgent".into());
        let urgent = c.submit(d).unwrap();
        c.advance(SimDuration::from_secs(11));
        assert_eq!(c.job(urgent).unwrap().state, JobState::Running, "bonus jumps the queue");
        assert_eq!(c.job(normal).unwrap().state, JobState::Pending);
    }

    #[test]
    #[should_panic(expected = "node the cluster does not have")]
    fn partition_with_bad_node_rejected() {
        let mut c = cluster();
        c.add_partition(Partition::over("bad", vec![7]));
    }

    /// A node listed twice is counted twice by the size check and once by
    /// the scheduler: a `--nodes=2` job on `[0, 0]` would be accepted and
    /// then wait for a second node forever.
    #[test]
    #[should_panic(expected = "more than once")]
    fn partition_listing_a_node_twice_rejected() {
        let mut c = Cluster::new(vec![SimNode::sr650(), SimNode::sr650()]);
        c.add_partition(Partition::over("dup", vec![0, 0]));
    }

    #[test]
    fn estimated_power_tracks_load() {
        let mut c = cluster();
        let idle = c.estimated_power_w();
        assert!((100.0..170.0).contains(&idle), "idle estimate {idle}");
        c.submit(desc(32)).unwrap();
        let busy = c.estimated_power_w();
        assert!(busy > idle + 50.0, "busy {busy} vs idle {idle}");
    }

    #[test]
    fn sbatch_array_expands_indices() {
        let mut c = cluster();
        let script = "#!/bin/bash\n#SBATCH --array=0-2\n#SBATCH --ntasks=32\n#SBATCH --job-name=arr\nsrun /bin/app\n";
        let ids = c.sbatch_array(script, "alice").unwrap();
        assert_eq!(ids.len(), 3);
        assert_eq!(c.job(ids[0]).unwrap().descriptor.name, "arr_[0]");
        assert_eq!(c.job(ids[2]).unwrap().descriptor.name, "arr_[2]");
        // single node: one runs, two queue
        assert_eq!(c.job(ids[0]).unwrap().state, JobState::Running);
        assert_eq!(c.job(ids[1]).unwrap().state, JobState::Pending);
        assert!(c.run_until_idle(SimDuration::from_mins(10)));
        assert_eq!(c.accounting().count_state(JobState::Completed), 3);
    }

    #[test]
    fn sbatch_on_array_script_returns_first_element() {
        let mut c = cluster();
        let script = "#SBATCH --array=5-6\n#SBATCH --ntasks=32\nsrun /bin/app\n";
        let first = c.sbatch(script, "u").unwrap();
        assert_eq!(c.job(first).unwrap().descriptor.name, "sbatch_[5]");
    }

    #[test]
    fn srun_interactive_submission() {
        let mut c = cluster();
        let id = c.srun(&["srun", "--ntasks=32", "--cpu-freq=2200000", "/bin/app"], "alice").unwrap();
        let job = c.job(id).unwrap();
        assert_eq!(job.state, JobState::Running);
        assert_eq!(job.descriptor.max_frequency_khz, Some(2_200_000));
        c.run_until_idle(SimDuration::from_mins(10));
        assert_eq!(c.job(id).unwrap().state, JobState::Completed);
    }

    #[test]
    fn sacct_lists_finished_jobs_with_energy() {
        let mut c = cluster();
        let id = c.submit(desc(32)).unwrap();
        c.run_until_idle(SimDuration::from_mins(10));
        let acct = c.sacct();
        assert!(acct.contains("Completed"), "{acct}");
        assert!(acct.contains("kJ"), "{acct}");
        assert!(acct.contains(&id.to_string()), "{acct}");
    }

    #[test]
    fn plugin_rewrites_job_at_submit() {
        struct Pin22;
        impl JobSubmitPlugin for Pin22 {
            fn name(&self) -> &'static str {
                "pin22"
            }
            fn job_submit(
                &mut self,
                job: &mut JobDescriptor,
                _uid: u32,
            ) -> Result<(), crate::plugin::PluginRejection> {
                job.max_frequency_khz = Some(2_200_000);
                job.min_frequency_khz = Some(2_200_000);
                Ok(())
            }
        }
        let mut c = cluster();
        c.register_plugin(Box::new(Pin22));
        let id = c.submit(desc(32)).unwrap();
        assert_eq!(c.job(id).unwrap().descriptor.max_frequency_khz, Some(2_200_000));
        // the node actually runs at 2.2 GHz
        assert_eq!(c.node(0).load().config.frequency_khz, 2_200_000);
    }

    // ---- heterogeneous clusters, packing, headroom, starvation guard ----

    fn two_class_cluster() -> Cluster {
        let mut c = Cluster::heterogeneous(&[(NodeClass::sr650(), 2), (NodeClass::dense64(), 2)]);
        c.register_binary("/bin/app", quick_workload(800.0));
        c
    }

    #[test]
    fn heterogeneous_cluster_builds_per_class_partitions() {
        let c = two_class_cluster();
        assert_eq!(c.node_count(), 4);
        // classes map onto contiguous node ranges with matching partitions
        assert_eq!(c.node(0).spec().cores, 32);
        assert_eq!(c.node(2).spec().cores, 64);
        let sr = c.partitions().resolve(Some("sr650")).unwrap();
        assert_eq!(sr.nodes, vec![0, 1]);
        assert!(sr.is_default, "first class is the default partition");
        let dense = c.partitions().resolve(Some("dense64")).unwrap();
        assert_eq!(dense.nodes, vec![2, 3]);
        assert_eq!(dense.node_class.as_deref(), Some("dense64"));
        assert_eq!(c.partitions().node_class_of("sr650"), Some("sr650"));
    }

    #[test]
    fn heterogeneous_jobs_route_by_partition_class() {
        let mut c = two_class_cluster();
        let mut d = desc(64);
        d.partition = Some("dense64".into());
        let id = c.submit(d).unwrap();
        let node = c.job(id).unwrap().node.unwrap();
        assert!(node >= 2, "dense job lands on a dense node, got n{node}");
        // the resolved configuration uses the dense class's 64 cores
        let rec_cores = c.node(node).load().config.cores;
        assert_eq!(rec_cores, 64);
        // a classless submission defaults to the first class (sr650)
        let a = c.submit(desc(32)).unwrap();
        assert!(c.job(a).unwrap().node.unwrap() < 2);
    }

    #[test]
    fn instantaneous_power_matches_node_telemetry() {
        let c = two_class_cluster();
        let sum: f64 = (0..c.node_count()).map(|i| c.node(i).telemetry().system_power_w).sum();
        assert!((c.instantaneous_power_w() - sum).abs() < 1e-9);
        assert!(sum > 0.0, "idle nodes still draw platform power");
    }
}
