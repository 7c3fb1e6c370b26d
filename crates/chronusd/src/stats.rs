//! The daemon's counters: handles to `daemon.*` telemetry counters and
//! the `daemon.batch_keys` / `daemon.service_us` histograms, resolved
//! once per daemon. The hot path bumps bare atomics (no lock for
//! bookkeeping), and `chronus stats`, trace exports and the simulation
//! harness's conservation audits all read the same cells.
//! [`crate::service::PredictService::snapshot`] turns them into the
//! `stats` RPC's answer.

use chronus::telemetry::{Counter, Histogram, Telemetry};

/// One handle per daemon counter, each bumped where its event happens.
pub(crate) struct ServerStats {
    pub requests_total: Counter,
    /// One per key served, whether framed as `Predict` or `PredictMany`.
    pub predictions: Counter,
    pub cache_hits: Counter,
    /// Registry misses, stale refusals included.
    pub cache_misses: Counter,
    pub busy_rejections: Counter,
    pub deadline_exceeded: Counter,
    pub errors: Counter,
    /// Lookups refused because the entry's rollout generation was never
    /// committed (a half-rolled-out model was *not* served).
    pub stale_generation_hits: Counter,
    /// Rollouts that allocated a generation and then failed to commit.
    pub generation_rollbacks: Counter,
    /// `Preload` requests handled (committed or rolled back).
    pub preloads: Counter,
    /// Models installed by boot catch-up from the store, outside any
    /// `Preload` RPC.
    pub store_catchups: Counter,
    /// `PredictMany` frames served; their keys land in `batched_keys`
    /// and the `batch_keys` distribution.
    pub batches: Counter,
    pub batched_keys: Counter,
    pub drift_trips: Counter,
    pub drift_clears: Counter,
    /// Incremental re-fits committed from this daemon's reservoirs.
    pub adapt_refits: Counter,
    pub canary_promotions: Counter,
    pub canary_rollbacks: Counter,
    pub batch_keys: Histogram,
    /// Request handling latency.
    pub service_us: Histogram,
}

impl ServerStats {
    /// Resolves every handle in `telemetry`'s namespace.
    pub fn over(telemetry: &Telemetry) -> ServerStats {
        ServerStats {
            requests_total: telemetry.counter("daemon.requests_total"),
            predictions: telemetry.counter("daemon.predictions"),
            cache_hits: telemetry.counter("daemon.cache_hits"),
            cache_misses: telemetry.counter("daemon.cache_misses"),
            busy_rejections: telemetry.counter("daemon.busy_rejections"),
            deadline_exceeded: telemetry.counter("daemon.deadline_exceeded"),
            errors: telemetry.counter("daemon.errors"),
            stale_generation_hits: telemetry.counter("daemon.stale_generation_hits"),
            generation_rollbacks: telemetry.counter("daemon.generation_rollbacks"),
            preloads: telemetry.counter("daemon.preloads"),
            store_catchups: telemetry.counter("daemon.store_catchups"),
            batches: telemetry.counter("daemon.batches"),
            batched_keys: telemetry.counter("daemon.batched_keys"),
            drift_trips: telemetry.counter("daemon.drift_trips"),
            drift_clears: telemetry.counter("daemon.drift_clears"),
            adapt_refits: telemetry.counter("daemon.adapt_refits"),
            canary_promotions: telemetry.counter("daemon.canary_promotions"),
            canary_rollbacks: telemetry.counter("daemon.canary_rollbacks"),
            batch_keys: telemetry.histogram("daemon.batch_keys"),
            service_us: telemetry.histogram("daemon.service_us"),
        }
    }
}
