//! Job model: the simulator's equivalent of Slurm's `job_desc_msg_t` and
//! job record structures.
//!
//! [`JobDescriptor`] carries exactly the fields the paper's plugin rewrites
//! (§4.2.2): `num_tasks`, `threads_per_cpu`, `min_frequency`,
//! `max_frequency` — plus the submission metadata the scheduler needs.

use crate::sched::HoldReason;
use eco_sim_node::clock::{SimDuration, SimTime};
use eco_sim_node::cpu::{CpuConfig, CpuSpec, FreqKhz};
use serde::{Deserialize, Serialize};

/// A job identifier, assigned at submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // through the integer's own `fmt`, so `squeue`'s `{:<6}` pads it
        self.0.fmt(f)
    }
}

/// Slurm job lifecycle states (the subset the simulator uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Queued, waiting for resources.
    Pending,
    /// Executing on a node.
    Running,
    /// Finished successfully.
    Completed,
    /// Killed for exceeding its time limit.
    Timeout,
    /// Cancelled by the user or an operator.
    Cancelled,
    /// Rejected or failed at/after submission.
    Failed,
}

impl JobState {
    /// Whether the job has reached a terminal state.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Pending | JobState::Running)
    }

    /// The short code `squeue` prints.
    pub fn code(self) -> &'static str {
        match self {
            JobState::Pending => "PD",
            JobState::Running => "R",
            JobState::Completed => "CD",
            JobState::Timeout => "TO",
            JobState::Cancelled => "CA",
            JobState::Failed => "F",
        }
    }
}

/// Quality-of-service level, one input to the multifactor priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Qos {
    /// Default service level.
    #[default]
    Normal,
    /// Elevated priority.
    High,
    /// Scavenger class.
    Low,
}

impl Qos {
    /// The priority factor contributed by the QoS level.
    pub fn factor(self) -> f64 {
        match self {
            Qos::High => 1.0,
            Qos::Normal => 0.5,
            Qos::Low => 0.0,
        }
    }
}

/// The mutable job description a submit plugin may rewrite — the
/// simulator's `job_desc_msg_t`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobDescriptor {
    /// Job name (`--job-name`).
    pub name: String,
    /// Submitting user.
    pub user: String,
    /// Nodes requested (`--nodes`); the paper's plugin targets 1.
    pub num_nodes: u32,
    /// Tasks requested (`--ntasks`) — the core count on a single node.
    pub num_tasks: u32,
    /// Threads per core (`srun --ntasks-per-core`); 2 enables SMT.
    pub threads_per_cpu: u32,
    /// Minimum CPU frequency (`--cpu-freq` low bound), kHz.
    pub min_frequency_khz: Option<FreqKhz>,
    /// Maximum CPU frequency (`--cpu-freq` high bound), kHz.
    pub max_frequency_khz: Option<FreqKhz>,
    /// Free-text comment (`--comment`); `"chronus"` opts in to the eco
    /// plugin.
    pub comment: String,
    /// Wall-clock limit (`--time`).
    pub time_limit: Option<SimDuration>,
    /// Quality of service (`--qos`).
    pub qos: Qos,
    /// Path of the executable the job runs (the plugin hashes its
    /// contents).
    pub binary_path: String,
    /// Earliest start time (`--begin`), used by the green-window extension.
    pub begin_time: Option<SimTime>,
    /// Partition requested (`--partition`); `None` uses the default.
    pub partition: Option<String>,
}

impl JobDescriptor {
    /// A descriptor with Slurm-like defaults: 1 node, 1 task, no frequency
    /// constraint, normal QoS.
    pub fn new(name: &str, user: &str, binary_path: &str) -> Self {
        JobDescriptor {
            name: name.to_string(),
            user: user.to_string(),
            num_nodes: 1,
            num_tasks: 1,
            threads_per_cpu: 1,
            min_frequency_khz: None,
            max_frequency_khz: None,
            comment: String::new(),
            time_limit: None,
            qos: Qos::Normal,
            binary_path: binary_path.to_string(),
            begin_time: None,
            partition: None,
        }
    }

    /// The CPU configuration this descriptor resolves to on a node: the
    /// requested tasks/threads, at the requested maximum frequency or the
    /// node's performance-governor default.
    pub fn resolve_config(&self, spec: &CpuSpec) -> CpuConfig {
        let cores = self.num_tasks.clamp(1, spec.cores);
        let freq = self.max_frequency_khz.map(|f| spec.snap_frequency(f)).unwrap_or_else(|| spec.max_frequency());
        let tpc = self.threads_per_cpu.clamp(1, spec.threads_per_core);
        CpuConfig { cores, frequency_khz: freq, threads_per_core: tpc }
    }

    /// Applies an energy-efficient configuration to the descriptor, the way
    /// `job_submit_eco` mutates `job_desc` (§4.2.2, Listing 4).
    pub fn apply_config(&mut self, config: &CpuConfig) {
        self.num_tasks = config.cores;
        self.threads_per_cpu = config.threads_per_core;
        self.min_frequency_khz = Some(config.frequency_khz);
        self.max_frequency_khz = Some(config.frequency_khz);
    }
}

/// A job as tracked by `slurmctld`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Job {
    /// The identifier assigned at submission.
    pub id: JobId,
    /// The (possibly plugin-rewritten) descriptor.
    pub descriptor: JobDescriptor,
    /// Current state.
    pub state: JobState,
    /// Submission instant.
    pub submit_time: SimTime,
    /// Start instant, once scheduled.
    pub start_time: Option<SimTime>,
    /// End instant, once terminal.
    pub end_time: Option<SimTime>,
    /// Node index the job ran on.
    pub node: Option<usize>,
    /// Why the job is still pending: set by the scheduler pass that held
    /// it, cleared when it starts (`squeue`'s `NODELIST(REASON)` column).
    #[serde(default)]
    pub reason: Option<HoldReason>,
    /// Index in the cluster's `PartitionTable` of the partition the job
    /// was submitted to, resolved once at submission: a job without
    /// `--partition` stays routed to the partition that was the default
    /// *then*, as in slurmctld.
    #[serde(default)]
    pub(crate) partition: usize,
}

impl Job {
    /// Elapsed runtime: now against start (or final runtime once ended).
    pub fn elapsed(&self, now: SimTime) -> SimDuration {
        match (self.start_time, self.end_time) {
            (Some(s), Some(e)) => e - s,
            (Some(s), None) => now - s,
            _ => SimDuration::ZERO,
        }
    }
}

/// A finished job's accounting record, as stored by `slurmdbd`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The job id.
    pub id: JobId,
    /// Job name.
    pub name: String,
    /// Submitting user.
    pub user: String,
    /// Final state.
    pub state: JobState,
    /// The CPU configuration the job ran with.
    pub config: Option<CpuConfig>,
    /// Submission instant.
    pub submit_time: SimTime,
    /// Start instant.
    pub start_time: Option<SimTime>,
    /// End instant.
    pub end_time: Option<SimTime>,
    /// DC-side system energy attributed to the job (J).
    pub system_energy_j: f64,
    /// CPU energy attributed to the job (J).
    pub cpu_energy_j: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CpuSpec {
        CpuSpec::epyc_7502p()
    }

    #[test]
    fn state_terminality() {
        assert!(!JobState::Pending.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Timeout.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::Failed.is_terminal());
    }

    #[test]
    fn default_descriptor_resolves_to_performance_governor() {
        let d = JobDescriptor::new("j", "alice", "/bin/app");
        let c = d.resolve_config(&spec());
        assert_eq!(c.cores, 1);
        assert_eq!(c.frequency_khz, 2_500_000, "no --cpu-freq => max frequency");
        assert_eq!(c.threads_per_core, 1);
    }

    #[test]
    fn apply_config_mirrors_listing_4() {
        let mut d = JobDescriptor::new("j", "alice", "/bin/app");
        let cfg = CpuConfig::new(32, 2_200_000, 1);
        d.apply_config(&cfg);
        assert_eq!(d.num_tasks, 32);
        assert_eq!(d.threads_per_cpu, 1);
        assert_eq!(d.min_frequency_khz, Some(2_200_000));
        assert_eq!(d.max_frequency_khz, Some(2_200_000));
        assert_eq!(d.resolve_config(&spec()), cfg);
    }

    #[test]
    fn resolve_clamps_to_spec() {
        let mut d = JobDescriptor::new("j", "alice", "/bin/app");
        d.num_tasks = 100;
        d.threads_per_cpu = 9;
        d.max_frequency_khz = Some(9_999_999);
        let c = d.resolve_config(&spec());
        assert_eq!(c.cores, 32);
        assert_eq!(c.threads_per_core, 2);
        assert_eq!(c.frequency_khz, 2_500_000);
    }

    #[test]
    fn resolve_snaps_frequency() {
        let mut d = JobDescriptor::new("j", "alice", "/bin/app");
        d.max_frequency_khz = Some(2_000_000);
        assert_eq!(d.resolve_config(&spec()).frequency_khz, 2_200_000);
    }

    #[test]
    fn job_elapsed() {
        let d = JobDescriptor::new("j", "u", "/b");
        let mut job = Job {
            id: JobId(1),
            descriptor: d,
            state: JobState::Running,
            submit_time: SimTime::from_secs(0),
            start_time: Some(SimTime::from_secs(10)),
            end_time: None,
            node: Some(0),
            reason: None,
            partition: 0,
        };
        assert_eq!(job.elapsed(SimTime::from_secs(25)), SimDuration::from_secs(15));
        job.end_time = Some(SimTime::from_secs(30));
        assert_eq!(job.elapsed(SimTime::from_secs(99)), SimDuration::from_secs(20));
    }

    #[test]
    fn qos_ordering() {
        assert!(Qos::High.factor() > Qos::Normal.factor());
        assert!(Qos::Normal.factor() > Qos::Low.factor());
    }

    #[test]
    fn state_codes() {
        assert_eq!(JobState::Pending.code(), "PD");
        assert_eq!(JobState::Running.code(), "R");
        assert_eq!(JobState::Completed.code(), "CD");
    }
}
