//! eco-campaign — an adaptive, resumable benchmark-campaign engine for
//! the eco plugin.
//!
//! The paper's benchmarking phase sweeps every (cores × frequency ×
//! threads-per-core) configuration at full length — 192 full HPCG runs on
//! the SR650 testbed. This crate turns that sweep into a *campaign*:
//!
//! * a [`PlanSpec`] decides which configurations run at which probe
//!   length each round: successive halving prunes the sweep with short
//!   probe runs scored by mid-run IPMI power samples, and the paper's
//!   exhaustive baseline is the one-rung ladder of full runs;
//! * the [`engine::CampaignEngine`] executes trials as real batch jobs,
//!   concurrently across cluster nodes, journaling every state
//!   transition write-ahead so a killed campaign resumes without
//!   re-running finished trials ([`journal::RecordJournal`]);
//! * [`rollout`] commits the model rebuilt from the final round's
//!   benchmarks to the store and hot-rolls it into running chronusd
//!   replicas through the versioned `Preload` flow — committed
//!   generations only, never a half-loaded model.
//!
//! Everything is deterministic given the campaign seed, so fault plans
//! (node crash mid-trial, storage write failure, unreachable daemon) are
//! replayable byte-for-byte.

#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod fit;
pub mod journal;
pub mod plan;
pub mod rollout;
pub mod spec;

pub use engine::{ActiveJob, CampaignEngine, CampaignOutcome, RunOptions};
pub use error::{CampaignError, Result};
pub use fit::{fit_best_config, FittedModel};
pub use journal::{FlakyJournal, Journal, RecordJournal, TrialEntry, TrialStatus};
pub use plan::{PlanSpec, TrialMeasurement, TrialResult, TrialSpec};
pub use rollout::{commit_to_store, roll_into, roll_into_fleet, FleetRolloutReport, RolloutAck, RolloutTarget};
pub use spec::CampaignSpec;
