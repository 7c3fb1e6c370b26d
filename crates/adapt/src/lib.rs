//! # eco-adapt — online adaptation from production telemetry
//!
//! The offline pipeline fits a model once, from a benchmark campaign;
//! production then drifts away from it (thermal aging, workload-mix
//! shift) and the "optimal" configuration quietly stops being optimal.
//! This crate closes the loop:
//!
//! 1. **Outcome feed** — the plugin reports observed (GFLOPS, watts,
//!    duration) per served prediction back to the daemon over the
//!    `ReportOutcome` wire frame; the daemon folds accepted
//!    outcomes into bounded per-key [`reservoir`]s.
//! 2. **Drift detection** — [`drift::DriftDetector`] scores windows of
//!    observed efficiency against the serving generation's calibrated
//!    expectation (absolute mean relative error) with hysteresis, so
//!    noise stays quiet and sustained divergence trips exactly once.
//! 3. **Incremental re-fit** — [`refit::refit_blob`] folds the drained
//!    reservoir into the serving generation's stored benchmark rows
//!    (fresh evidence supersedes stale rows per configuration) and
//!    fits a candidate through the campaign's shared fit routine,
//!    ready to commit with `source = adaptation` provenance.
//! 4. **Canary rollout** — [`canary::CanaryController`] judges the
//!    candidate on a subset of the fleet against the still-serving
//!    baseline, then promotes it fleet-wide or rolls it back through
//!    the store's ledger rollback path.
//!
//! The daemon-facing aggregate is [`Monitor`]; everything else is pure
//! state machinery, deterministic and replayable under the simulation
//! harness's `adapt` world.

#![warn(missing_docs)]

pub mod canary;
pub mod drift;
pub mod monitor;
pub mod refit;
pub mod reservoir;

pub use canary::{CanaryConfig, CanaryController, CanaryState, CanaryVerdict, Verdict};
pub use drift::{DriftConfig, DriftDetector, DriftEvent};
pub use monitor::{IngestReport, Monitor, MonitorSnapshot};
pub use refit::{outcomes_to_benchmarks, refit_blob, RefitCandidate};
pub use reservoir::{Reservoir, ReservoirSet, DEFAULT_RESERVOIR_CAP};
