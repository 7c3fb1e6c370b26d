//! Operational counters for the daemon — since the telemetry refactor,
//! a *view* over `daemon.*` telemetry counters and the shared
//! `daemon.service_us` latency histogram. The hot-path API (one atomic
//! bump per event, no locks) and the `stats` RPC snapshot shape are
//! unchanged; the handles now point into a [`Telemetry`] namespace so
//! the same numbers appear in `chronus stats`, trace exports and the
//! simulation harness's conservation audits.

use chronus::remote::StatsSnapshot;
use chronus::telemetry::{Counter, Histogram, Telemetry};

/// The daemon's counters. Every handle is an atomic cell — the hot path
/// never takes a lock for bookkeeping.
pub struct ServerStats {
    requests_total: Counter,
    predictions: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    busy_rejections: Counter,
    deadline_exceeded: Counter,
    errors: Counter,
    stale_generation_hits: Counter,
    generation_rollbacks: Counter,
    preloads: Counter,
    store_catchups: Counter,
    batches: Counter,
    batched_keys: Counter,
    drift_trips: Counter,
    drift_clears: Counter,
    adapt_refits: Counter,
    canary_promotions: Counter,
    canary_rollbacks: Counter,
    batch_keys_hist: Histogram,
    latency: Histogram,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats::new()
    }
}

impl ServerStats {
    /// Free-standing counters, registered nowhere (unit tests, ad-hoc
    /// use). Daemons go through [`ServerStats::over`] so the numbers
    /// are visible to the rest of the telemetry surface.
    pub fn new() -> ServerStats {
        ServerStats {
            requests_total: Counter::new(),
            predictions: Counter::new(),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            busy_rejections: Counter::new(),
            deadline_exceeded: Counter::new(),
            errors: Counter::new(),
            stale_generation_hits: Counter::new(),
            generation_rollbacks: Counter::new(),
            preloads: Counter::new(),
            store_catchups: Counter::new(),
            batches: Counter::new(),
            batched_keys: Counter::new(),
            drift_trips: Counter::new(),
            drift_clears: Counter::new(),
            adapt_refits: Counter::new(),
            canary_promotions: Counter::new(),
            canary_rollbacks: Counter::new(),
            batch_keys_hist: Histogram::new(),
            latency: Histogram::new(),
        }
    }

    /// The view over a telemetry instance: handles resolve once, here,
    /// and the hot path bumps bare atomics thereafter.
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
            batch_keys_hist: telemetry.histogram("daemon.batch_keys"),
            latency: telemetry.histogram("daemon.service_us"),
        }
    }

    pub fn request(&self) {
        self.requests_total.bump();
    }

    pub fn prediction(&self) {
        self.predictions.bump();
    }

    pub fn cache_hit(&self) {
        self.cache_hits.bump();
    }

    pub fn cache_miss(&self) {
        self.cache_misses.bump();
    }

    pub fn busy_rejection(&self) {
        self.busy_rejections.bump();
    }

    pub fn deadline_exceeded(&self) {
        self.deadline_exceeded.bump();
    }

    pub fn error(&self) {
        self.errors.bump();
    }

    /// A lookup refused because the entry's rollout generation was
    /// never committed (a half-rolled-out model was *not* served).
    pub fn stale_generation_hit(&self) {
        self.stale_generation_hits.bump();
    }

    /// A rollout that allocated a generation and then failed to commit.
    pub fn generation_rollback(&self) {
        self.generation_rollbacks.bump();
    }

    /// A `Preload` request was handled (committed or rolled back).
    pub fn preload(&self) {
        self.preloads.bump();
    }

    /// A model was installed outside any `Preload` RPC: boot catch-up
    /// from the configured store.
    pub fn store_catchup(&self) {
        self.store_catchups.bump();
    }

    /// One `PredictMany` frame carrying `keys` keys was handled. The
    /// per-key prediction/hit/miss counters are bumped separately by
    /// the per-key loop; this records the *frame*-level shape so the
    /// batch-size distribution is visible in `chronus stats`.
    pub fn batch(&self, keys: u64) {
        self.batches.bump();
        self.batched_keys.add(keys);
        self.batch_keys_hist.record_us(keys);
    }

    /// A drift detector tripped: sustained divergence between observed
    /// efficiency and the serving model's expectation.
    pub fn drift_trip(&self) {
        self.drift_trips.bump();
    }

    /// A tripped drift detector recovered below the clear threshold.
    pub fn drift_clear(&self) {
        self.drift_clears.bump();
    }

    /// An incremental re-fit was committed from outcome reservoirs.
    pub fn adapt_refit(&self) {
        self.adapt_refits.bump();
    }

    /// A canary comparison promoted its candidate fleet-wide.
    pub fn canary_promotion(&self) {
        self.canary_promotions.bump();
    }

    /// A canary comparison rolled its candidate back to the baseline.
    pub fn canary_rollback(&self) {
        self.canary_rollbacks.bump();
    }

    /// Records one request's handling latency.
    pub fn record_latency_us(&self, us: u64) {
        self.latency.record_us(us);
    }

    /// A consistent-enough copy for the `stats` RPC. The gauge-style
    /// fields (queue depth, resident models, …) are sampled by the
    /// caller because they live outside this struct.
    pub fn snapshot(
        &self,
        queue_depth: u64,
        queue_capacity: u64,
        workers: u64,
        models_resident: u64,
        evictions: u64,
        model_generation: u64,
    ) -> StatsSnapshot {
        StatsSnapshot {
            replica: String::new(), // stamped by the service, which knows its fleet identity
            requests_total: self.requests_total.get(),
            predictions: self.predictions.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            busy_rejections: self.busy_rejections.get(),
            deadline_exceeded: self.deadline_exceeded.get(),
            errors: self.errors.get(),
            queue_depth,
            queue_capacity,
            workers,
            models_resident,
            evictions,
            model_generation,
            stale_generation_hits: self.stale_generation_hits.get(),
            generation_rollbacks: self.generation_rollbacks.get(),
            preloads: self.preloads.get(),
            store_catchups: self.store_catchups.get(),
            batches: self.batches.get(),
            batched_keys: self.batched_keys.get(),
            // store gauges live with the service, which stamps them
            store_dir: String::new(),
            store_generation: 0,
            models_by_class: Vec::new(),
            // adaptation gauges (ingested/rejected/reservoirs/score and
            // the canary label) are stamped by the service from its
            // Monitor; the transition counters live here
            outcomes_ingested: 0,
            outcomes_rejected: 0,
            outcome_reservoirs: 0,
            drift_score_milli: 0,
            drift_trips: self.drift_trips.get(),
            drift_clears: self.drift_clears.get(),
            adapt_refits: self.adapt_refits.get(),
            canary_promotions: self.canary_promotions.get(),
            canary_rollbacks: self.canary_rollbacks.get(),
            canary_state: String::new(),
            latency_p50_us: self.latency.percentile_us(0.50),
            latency_p99_us: self.latency.percentile_us(0.99),
            latency_max_us: self.latency.max_us(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus::telemetry::Histogram;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket_for(0), 0);
        assert_eq!(Histogram::bucket_for(1), 0);
        assert_eq!(Histogram::bucket_for(2), 1);
        assert_eq!(Histogram::bucket_for(3), 2);
        assert_eq!(Histogram::bucket_for(4), 2);
        assert_eq!(Histogram::bucket_for(5), 3);
        assert_eq!(Histogram::bucket_for(1024), 10);
        assert_eq!(Histogram::bucket_for(u64::MAX), chronus::telemetry::HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn percentiles_walk_the_histogram() {
        let stats = ServerStats::new();
        for _ in 0..99 {
            stats.record_latency_us(3); // bucket 2, upper bound 4
        }
        stats.record_latency_us(100_000); // bucket 17, upper bound 131072
        let snap = stats.snapshot(0, 0, 0, 0, 0, 0);
        assert_eq!(snap.latency_p50_us, 4);
        assert_eq!(snap.latency_p99_us, 4, "99th of 100 samples is still the fast bucket");
        assert_eq!(snap.latency_max_us, 100_000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let snap = ServerStats::new().snapshot(1, 2, 3, 4, 5, 6);
        assert_eq!(snap.latency_p50_us, 0);
        assert_eq!(snap.latency_p99_us, 0);
        assert_eq!((snap.queue_depth, snap.queue_capacity, snap.workers), (1, 2, 3));
        assert_eq!((snap.models_resident, snap.evictions), (4, 5));
        assert_eq!(snap.model_generation, 6);
    }

    #[test]
    fn generation_counters_accumulate_and_share_the_namespace() {
        let telemetry = Telemetry::wall();
        let stats = ServerStats::over(&telemetry);
        stats.stale_generation_hit();
        stats.stale_generation_hit();
        stats.generation_rollback();
        let snap = stats.snapshot(0, 0, 0, 0, 0, 3);
        assert_eq!(snap.stale_generation_hits, 2);
        assert_eq!(snap.generation_rollbacks, 1);
        assert_eq!(snap.model_generation, 3);
        assert_eq!(telemetry.counter("daemon.stale_generation_hits").get(), 2);
        assert_eq!(telemetry.counter("daemon.generation_rollbacks").get(), 1);
    }

    #[test]
    fn store_counters_accumulate_and_share_the_namespace() {
        let telemetry = Telemetry::wall();
        let stats = ServerStats::over(&telemetry);
        stats.preload();
        stats.store_catchup();
        stats.store_catchup();
        let snap = stats.snapshot(0, 0, 0, 0, 0, 0);
        assert_eq!(snap.preloads, 1);
        assert_eq!(snap.store_catchups, 2);
        assert!(snap.store_dir.is_empty(), "store gauges are stamped by the service, not here");
        assert_eq!(snap.store_generation, 0);
        assert_eq!(telemetry.counter("daemon.preloads").get(), 1);
        assert_eq!(telemetry.counter("daemon.store_catchups").get(), 2);
    }

    #[test]
    fn batch_counters_count_frames_and_keys_separately() {
        let telemetry = Telemetry::wall();
        let stats = ServerStats::over(&telemetry);
        stats.batch(8);
        stats.batch(64);
        let snap = stats.snapshot(0, 0, 0, 0, 0, 0);
        assert_eq!(snap.batches, 2, "two frames");
        assert_eq!(snap.batched_keys, 72, "72 keys across them");
        assert_eq!(telemetry.counter("daemon.batches").get(), 2);
        assert_eq!(telemetry.counter("daemon.batched_keys").get(), 72);
        assert_eq!(telemetry.histogram("daemon.batch_keys").count(), 2);
    }

    #[test]
    fn adaptation_counters_accumulate_and_share_the_namespace() {
        let telemetry = Telemetry::wall();
        let stats = ServerStats::over(&telemetry);
        stats.drift_trip();
        stats.drift_trip();
        stats.drift_clear();
        stats.adapt_refit();
        stats.canary_promotion();
        stats.canary_rollback();
        let snap = stats.snapshot(0, 0, 0, 0, 0, 0);
        assert_eq!(snap.drift_trips, 2);
        assert_eq!(snap.drift_clears, 1);
        assert_eq!(snap.adapt_refits, 1);
        assert_eq!(snap.canary_promotions, 1);
        assert_eq!(snap.canary_rollbacks, 1);
        assert_eq!(snap.outcomes_ingested, 0, "monitor gauges are stamped by the service, not here");
        assert!(snap.canary_state.is_empty());
        assert_eq!(telemetry.counter("daemon.drift_trips").get(), 2);
        assert_eq!(telemetry.counter("daemon.canary_rollbacks").get(), 1);
    }

    #[test]
    fn counters_accumulate() {
        let stats = ServerStats::new();
        stats.request();
        stats.request();
        stats.prediction();
        stats.cache_hit();
        stats.cache_miss();
        stats.busy_rejection();
        stats.deadline_exceeded();
        stats.error();
        let snap = stats.snapshot(0, 0, 0, 0, 0, 0);
        assert_eq!(snap.requests_total, 2);
        assert_eq!(snap.predictions, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.busy_rejections, 1);
        assert_eq!(snap.deadline_exceeded, 1);
        assert_eq!(snap.errors, 1);
    }

    #[test]
    fn view_shares_the_telemetry_namespace() {
        let telemetry = Telemetry::wall();
        let stats = ServerStats::over(&telemetry);
        stats.request();
        stats.cache_hit();
        stats.record_latency_us(5);
        assert_eq!(telemetry.counter("daemon.requests_total").get(), 1);
        assert_eq!(telemetry.counter("daemon.cache_hits").get(), 1);
        assert_eq!(telemetry.histogram("daemon.service_us").count(), 1);
        // and the snapshot reads the very same cells
        let snap = stats.snapshot(0, 0, 0, 0, 0, 0);
        assert_eq!(snap.requests_total, 1);
        assert_eq!(snap.cache_hits, 1);
    }
}
