//! # simtest — deterministic fault-injection simulation of the whole pipeline
//!
//! FoundationDB-style simulation testing for the prediction stack: one
//! seeded run builds the entire sbatch → `job_submit_eco` →
//! [`chronus::remote::PredictClient`] → chronusd pipeline on **virtual
//! time** and drives it through an adversarial network. Nothing sleeps;
//! every delay, timeout and backoff advances a
//! [`eco_sim_node::clock::SharedSimClock`], so a run over thousands of
//! injected faults finishes in milliseconds of wall time and — crucially —
//! replays **bit-identically** from its seed.
//!
//! The pieces:
//!
//! * [`faults`] — a [`FaultPlan`] is a table of per-event probabilities
//!   (drop, delay, duplicate, reorder, mid-frame cut, partition, daemon
//!   crash/restart, slow or poisoned backend, total blackout) plus named
//!   presets covering each fault family and a `chaos` mix of all of them;
//! * [`net`] — [`SimNet`] hands out [`net::SimTransport`]s, one
//!   [`chronus::remote::Transport`] over a simulated TCP stream or shm
//!   ring, whose connections deliver whole request frames straight into
//!   a real [`chronusd::PredictService`], rolling the fault plan on a
//!   seeded RNG at every step (skipping each family the medium cannot
//!   suffer, [`net::Exchange::admits`]) and logging a `t=<virtual ms>`
//!   event line;
//! * [`invariants`] — a per-incarnation [`invariants::Ledger`] that
//!   cross-checks the daemon's counters after **every** exchange
//!   (requests = delivered, hits + misses = predictions, deadline verdicts
//!   match the virtual elapsed time, …) and at every crash boundary;
//! * [`store`] — [`run_store_seed`] attacks the durable model store
//!   instead of the network: torn journal appends, writer crashes
//!   between blob write and metadata append, and blob corruption, with
//!   a replica restart-catch-up verified after every mutation;
//! * [`batch`] — [`run_batch_seed`] drives mixed-size `PredictMany`
//!   batches through the ring-aware splitter of a three-replica fleet,
//!   auditing that every key in every batch is answered exactly once
//!   (config, `Miss` or typed error) and never cross-wired, with rollout
//!   churn refreshing the daemons' tables under the batched readers;
//! * [`shm`] — [`run_shm_seed`] gives one client both the simulated
//!   shared-memory ring (local) and a TCP endpoint to the
//!   same daemon, then attacks the fallback
//!   ladder: torn slots, lost doorbells, the ring torn down while TCP
//!   serves, and full daemon crashes — asserting locality preference,
//!   exactly-once answers and zero keys lost to fallback;
//! * [`cluster`] — [`run_cluster_seed`] scales the world up to a
//!   heterogeneous, power-capped cluster: per-node-class models served
//!   from one fleet, co-scheduling, and per-tick audits that the
//!   facility meter never crosses the cap, no job starves, per-class
//!   prediction keys never cross-resolve, and the capped class-aware
//!   schedule beats a cap-unaware baseline on GFLOPS/W;
//! * [`world`] — [`run_seed`] wires a real [`eco_slurm_sim::Cluster`]
//!   with the real plugin to a `SimNet` and pushes a randomized batch of
//!   submissions through it, asserting end-to-end invariants: every
//!   submission is accepted even under total daemon loss, no descriptor is
//!   ever half-rewritten, deadline-constrained jobs never exceed their
//!   budget, and every plugin call fits the scheduler's submit budget in
//!   virtual time.
//!
//! Every world is one row of [`sweep::WORLDS`], swept by the one driver
//! [`sweep::sweep`], and every failing run — a sweep's or a scenario
//! test's — prints the one line that replays exactly it ([`replay`]):
//!
//! ```text
//! SIMTEST_SEED=<world>:<seed>[:<case>] cargo test -p simtest replay -- --nocapture
//! ```

pub mod adapt;
pub mod batch;
pub mod cluster;
pub mod faults;
pub mod fleet;
pub mod invariants;
pub mod net;
pub mod replay;
pub mod shm;
pub mod store;
pub mod sweep;
pub mod world;

pub use adapt::{
    adapt_plan_for_seed, adapt_plans, run_adapt_seed, AdaptReport, ADAPT_DRIFT_JOBS, ADAPT_HEALTHY_JOBS,
};
pub use batch::{run_batch_seed, BatchReport, BATCH_REPLICAS, MAX_BATCH_VIRTUAL_MS};
pub use cluster::{cluster_worlds, run_cluster_seed, ClusterReport, ClusterWorld, CLUSTER_SUBMISSIONS};
pub use faults::FaultPlan;
pub use fleet::{run_fleet_seed, FleetReport, FLEET_REPLICAS};
pub use invariants::Ledger;
pub use net::SimNet;
pub use shm::{run_shm_seed, ShmReport};
pub use store::{run_store_seed, CrashingBackend, StoreReport, STORE_ROUNDS};
pub use world::{run_seed, SeedReport, SUBMISSIONS_PER_SEED};
