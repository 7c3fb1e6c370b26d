//! # chronus — energy-efficient configuration service for HPC schedulers
//!
//! The primary contribution of the reproduced paper: an external
//! application that benchmarks an HPC application across CPU
//! configurations (cores × frequency × threads-per-core), fits prediction
//! models over the measured GFLOPS/W surface, and answers the Slurm
//! `job_submit_eco` plugin's "what is the most energy-efficient
//! configuration for this (system, binary)?" query within the scheduler's
//! submit-path time budget.
//!
//! Structured as the paper's Clean Architecture (Figure 11):
//!
//! * [`domain`] — entities (benchmarks, models, settings);
//! * [`application`] — the four Chronus functions (§3.1.2) behind
//!   [`application::Chronus`];
//! * [`interfaces`] — the integration interfaces (ports) of §3.2;
//! * [`integrations`] — their implementations (CSV, record store, IPMI,
//!   lscpu, HPCG runner, etc-storage, local blob store);
//! * [`optimizers`] — brute force / linear regression / random tree and
//!   the Listing-2 [`optimizers::ModelFactory`];
//! * [`presenter`] + [`cli`] — the five CLI commands of §3.3;
//! * [`hash`] — the plugin's `simple_hash` identity scheme (§4.2.1).

pub mod application;
pub mod cli;
pub mod domain;
pub mod error;
pub mod hash;
pub mod integrations;
pub mod interfaces;
pub mod logging;
pub mod optimizers;
pub mod presenter;
pub mod remote;

/// The observability spine shared by every layer of the submit→predict
/// pipeline (re-exported from the `eco-telemetry` leaf crate so the
/// Slurm simulator — which `chronus` itself depends on — can emit
/// through the same types without a dependency cycle).
pub mod telemetry {
    pub use eco_telemetry::*;
}

pub use application::{predict_from_settings, Chronus, DEFAULT_SAMPLE_INTERVAL};
pub use domain::{Benchmark, EnergySample, LoadedModel, ModelMetadata, PluginState, Settings, SystemEntry};
pub use error::{ChronusError, Result};
pub use hash::{binary_hash, simple_hash, system_hash};
pub use interfaces::{
    ApplicationRunner, FileRepository, FitReport, LocalStorage, Optimizer, Repository, SystemInfoProvider,
    SystemService,
};
pub use logging::{ChronusLog, LogEntry};
pub use optimizers::{BruteForceOptimizer, LinearRegressionOptimizer, ModelFactory, RandomTreeOptimizer};
pub use remote::{
    CallOptions, ClientBuildError, ClientBuilder, Endpoint, EndpointParseError, FleetPreload, LocalPrediction,
    ObservedOutcome, PredictClient, PredictionSource, PreloadAck, RemoteError, RemotePrediction, Request,
    RequestFrame, Response, ShmListener, ShmTransport, StatsSnapshot,
};
