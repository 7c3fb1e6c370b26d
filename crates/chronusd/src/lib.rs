//! # chronusd — the Chronus prediction daemon
//!
//! The paper's eco plugin shells out to `chronus slurm-config` on
//! every opted-in submission, and that one-shot process re-reads,
//! re-parses and re-scores the staged model every time. In-process the
//! plugin no longer pays that — `LocalPrediction` holds the staged
//! answer behind the model file's stamp — but it still serves one
//! staged `(system, binary)` to one controller on one host. `chronusd`
//! moves prediction behind a small TCP service so many keys are
//! resident at once, computed once each (at preload, or on first miss),
//! and served from memory by a worker pool to every host that asks:
//!
//! ```text
//!  sbatch ──► job_submit_eco ──► PredictClient ──► chronusd
//!                 (plugin)        length-prefixed     accept thread
//!                    │            JSON over TCP          │ bounded queue
//!                    │                                   ▼ (Busy when full)
//!                    │                               worker pool
//!                    │                                   │
//!                    ▼                                   ▼
//!             rewritten job              sharded LRU model registry
//!         (cores, freq, threads)        (system_hash, binary_hash) →
//!                                        pre-computed best CpuConfig
//! ```
//!
//! Failure behaviour is the design's centre: the daemon answers
//! `Busy`/`Miss`/`DeadlineExceeded` explicitly, the client times out
//! and retries with bounded backoff, and the plugin treats every
//! failure as "leave the job untouched" — a dead daemon degrades to
//! vanilla Slurm, never to a stuck scheduler.
//!
//! * [`server`] — accept loop, worker pool, Busy back-pressure;
//! * [`service`] — the transport-free request engine (deadlines,
//!   miss/error classification, counters) shared by the TCP server and
//!   the deterministic simulation harness;
//! * [`registry`] — sharded LRU map of pre-computed answers, one
//!   capacity for the whole of it;
//! * [`backend`] — where models come from (the durable store when the
//!   daemon has one, else the staged disk layout; a static set for
//!   tests);
//! * [`stats`] — counters and latency histogram behind the `stats` RPC.
//!
//! The wire protocol and the client live in [`chronus::remote`] so the
//! plugin does not depend on this crate.

pub mod backend;
pub mod registry;
pub mod server;
pub mod service;
pub mod stats;

/// The benchmark-campaign engine (re-exported from `eco-campaign`): plans
/// sweeps, journals trials write-ahead, and hot-rolls rebuilt models into
/// this daemon through the versioned `Preload` flow.
pub mod campaign {
    pub use eco_campaign::*;
}

/// The online-adaptation loop (re-exported from `eco-adapt`): outcome
/// reservoirs fed by the `ReportOutcome` verb, drift detection against
/// the serving generation, incremental re-fit and the canary rollout
/// controller.
pub mod adapt {
    pub use eco_adapt::*;
}

/// The durable model store (re-exported from `eco-store`): the
/// content-addressed blob area and append-only provenance ledger behind
/// `chronusd --store`, the campaign's pre-rollout commit, and the
/// `chronus models` audit/rollback CLI.
pub mod store {
    pub use eco_store::*;
}

pub use backend::{ModelBackend, PreparedModel, StaticBackend, StorageBackend, StoreModelBackend};
pub use registry::{ModelKey, ModelRegistry, ResidentModel};
pub use server::{BootRecovery, PredictServer, ServerConfig};
pub use service::{PredictService, QueueGauges, ServiceClock, StoreCatchUp, WallClock};
pub use stats::ServerStats;
