//! # eco-slurm-sim — a discrete-event Slurm-like workload manager
//!
//! The paper's plugin lives inside Slurm's `slurmctld`; this crate models
//! the slice of Slurm the eco plugin touches, faithfully enough to run the
//! paper's experiments end to end:
//!
//! * [`job`] — `job_desc_msg_t`-style descriptors with the exact fields the
//!   plugin rewrites (`num_tasks`, `threads_per_cpu`, `min/max_frequency`);
//! * [`script`] — `#SBATCH` batch-script parsing (the paper's Listing 6);
//! * [`plugin`] — the `job_submit` plugin API with Slurm's submit-path
//!   time budget enforced;
//! * [`priority`] — the multifactor priority plugin (age / size / QoS /
//!   fair-share), as Niagara's deployment uses;
//! * [`cluster`] — `slurmctld` + per-node `slurmd` as a discrete-event
//!   simulation over [`eco_sim_node::SimNode`] hardware: state,
//!   time-stepping and the `sbatch`/`squeue`/`scontrol`/`sinfo` facades;
//! * `sched` (private; `impl Cluster` continues there) — the scheduler
//!   pass: FIFO + EASY backfill, facility power cap, co-scheduling and
//!   starvation guard as one admission decision per job, with a typed
//!   [`HoldReason`] for every job it leaves pending;
//! * [`dbd`] — `slurmdbd` accounting with per-job energy attribution.

pub mod cluster;
pub mod commands;
pub mod dbd;
pub mod error;
pub mod job;
pub mod partition;
pub mod plugin;
pub mod priority;
mod sched;
pub mod script;

pub use cluster::{Cluster, CoSchedulePolicy};
pub use commands::{array_directive, parse_array_spec, parse_srun, ArraySpec};
pub use dbd::AccountingDb;
pub use error::SlurmError;
pub use job::{Job, JobDescriptor, JobId, JobRecord, JobState, Qos};
pub use partition::{Partition, PartitionTable};
pub use plugin::{JobSubmitPlugin, PluginHost, PluginRejection};
pub use priority::{FairShare, PriorityWeights};
pub use sched::HoldReason;
pub use script::{generate_hpcg_script, parse_script, parse_submission};
