//! # chronusd — the Chronus prediction daemon
//!
//! The paper's eco plugin shells out to `chronus slurm-config` on
//! every opted-in submission, and that one-shot process re-reads,
//! re-parses and re-scores the staged model every time. In-process the
//! plugin no longer pays that — `LocalPrediction` holds the staged
//! answer behind the model file's stamp — but it still serves one
//! staged `(system, binary)` to one controller on one host. `chronusd`
//! moves prediction behind a small TCP service over a durable model
//! store, so every key ever committed (by `load-model` or a campaign) is
//! answered, computed once at commit, and served from memory to every
//! host that asks, one thread per connection:
//!
//! ```text
//!  sbatch ──► job_submit_eco ──► PredictClient ──► chronusd
//!                 (plugin)       binary hot verbs     accept thread
//!                    │           over TCP, JSON          │ Busy past 64
//!                    │           control plane           ▼ open connections
//!                    │                               one thread per
//!                    │                               connection
//!                    ▼                                   ▼
//!             rewritten job                 answer table: the store's
//!         (cores, freq, threads)        serving fold, (system_hash,
//!                                        binary_hash) → generation,
//!                                        pre-computed best CpuConfig
//! ```
//!
//! A same-host client can dial the daemon's shared-memory ring instead
//! (`serve --shm`); the ring's thread answers the same binary frames
//! inline, without a socket.
//!
//! Failure behaviour is the design's centre: the daemon answers
//! `Busy`/`Miss`/`DeadlineExceeded` explicitly, the client times out
//! and retries with bounded backoff, and the plugin treats every
//! failure as "leave the job untouched" — a dead daemon degrades to
//! vanilla Slurm, never to a stuck scheduler.
//!
//! * [`server`] — accept loop, a thread per connection, Busy
//!   back-pressure;
//! * [`service`] — the transport-free request engine (the one refresh
//!   that folds the store into the table, deadlines, miss/error
//!   classification, counters) shared by the TCP server and the
//!   deterministic simulation harness;
//! * [`registry`] — the answer table: one map of pre-computed answers
//!   under one lock, each at its ledger generation;
//! * [`backend`] — where models come from: always a store (the durable
//!   one `load-model` and campaigns commit to; a static set committed to
//!   an in-memory store for tests), every record hash-verified;
//! * `stats` (crate-private) — the counter and histogram handles behind
//!   the `stats` RPC, read by [`PredictService::snapshot`].
//!
//! The wire protocol and the client live in [`chronus::remote`] so the
//! plugin does not depend on this crate.

pub mod backend;
pub mod registry;
pub mod server;
pub mod service;
mod stats;

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
/// every daemon, `load-model`'s and the campaign's commits, and the
/// `chronus models` audit/rollback CLI.
pub mod store {
    pub use eco_store::*;
}

pub use backend::{ModelBackend, PreparedModel, StaticBackend};
pub use registry::{ModelKey, ModelRegistry};
pub use server::{BootRecovery, PredictServer, ServerConfig};
pub use service::{PredictService, QueueGauges, ServiceClock, StoreCatchUp, WallClock};
