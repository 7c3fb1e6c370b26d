//! The daemon's request engine, independent of any transport.
//!
//! [`PredictService`] owns the answer table, the durable model store it
//! is folded from, the counters and the shutdown flag, and turns one
//! request frame into one response. The table is the store's serving
//! fold: one refresh brings it to the ledger at boot and on every
//! `Preload`, `Stats` and miss, installing each serving record at its
//! ledger generation once its blob hash-verifies. A hit reads the table
//! and nothing else.
//!
//! The TCP server in [`crate::server`] feeds it frames read off one
//! thread per connection; the `simtest` harness feeds it frames over an
//! in-memory channel on virtual time. Keeping the engine transport-free
//! is what makes the daemon's semantics (deadline accounting, miss/error
//! classification, counter conservation) testable deterministically.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use chronus::error::ChronusError;
use chronus::remote::{
    fastpath, wire, KeyOutcome, ObservedOutcome, Request, Response, StatsSnapshot, MAX_BATCH_KEYS,
};
use chronus::telemetry::{Telemetry, TraceContext};
use eco_adapt::Monitor;
use eco_store::{ModelStore, StoreError};
use parking_lot::Mutex;

use crate::backend::{verified, ModelBackend};
use crate::registry::ModelRegistry;
use crate::stats::ServerStats;

/// The clock the service measures request handling time with — since
/// the telemetry refactor, the telemetry spine's own clock trait under
/// its historical daemon-side name. Deadline enforcement, the latency
/// histogram and span timing all go through this, so a simulated clock
/// makes `DeadlineExceeded` a deterministic function of injected delays
/// rather than of host scheduling jitter.
pub use chronus::telemetry::TelemetryClock as ServiceClock;

/// The production clock: monotonic wall time via `Instant`.
pub use chronus::telemetry::WallClock;

/// Accept-side gauges the service cannot see itself: they describe the
/// transport's open connections, so whoever owns the transport samples
/// them and passes them in for `Stats` answers.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueGauges {
    /// Connections open right now.
    pub connections: u64,
    /// Open connections past which a new one is bounced with `Busy`.
    pub max_connections: u64,
}

/// What [`PredictService::catch_up_from_store`] installed and refused.
#[derive(Debug, Default)]
pub struct StoreCatchUp {
    /// Serving records installed, each at its ledger generation.
    pub installed: usize,
    /// Serving records refused because their blob failed verification
    /// (missing, hash mismatch, or unparseable) — never installed — or
    /// the store that could not be read.
    pub rejected: Vec<String>,
}

/// What one refresh installed, and the serving records it refused with
/// why.
type Refreshed = (usize, Vec<(u64, StoreError)>);

/// The transport-independent daemon core: one instance per daemon,
/// shared by every connection (all methods take `&self`).
pub struct PredictService {
    registry: ModelRegistry,
    store: Arc<Mutex<ModelStore>>,
    /// The store's directory label, for `Stats` and error messages.
    dir: String,
    stats: ServerStats,
    telemetry: Arc<Telemetry>,
    shutdown: AtomicBool,
    replica: String,
    adapt: Monitor,
}

impl PredictService {
    /// A service on the wall clock over `backend`'s store. Both numbers
    /// are ignored (the table holds what the fold serves); they stay
    /// because `benchmark/src/micro.rs` passes them.
    pub fn new(_cache_shards: usize, _cache_cap: usize, backend: Arc<dyn ModelBackend>) -> PredictService {
        let (store, dir) = backend.store();
        PredictService::with_clock(store, dir, Arc::new(WallClock::new()))
    }

    /// A service over `store` (labelled `dir`) on an explicit clock
    /// (virtual time in simulation), with its own private telemetry over
    /// that clock.
    pub fn with_clock(
        store: Arc<Mutex<ModelStore>>,
        dir: impl Into<String>,
        clock: Arc<dyn ServiceClock>,
    ) -> PredictService {
        PredictService::with_telemetry(store, dir, Arc::new(Telemetry::with_clock(clock)))
    }

    /// A service emitting through an externally owned [`Telemetry`] —
    /// counters, the latency histogram and request spans all land in
    /// its namespace, and the service's clock is the telemetry clock.
    /// The simulation harness hands successive daemon incarnations
    /// fresh `Telemetry` instances sharing one recorder, so counters
    /// reset on restart while the trace timeline persists.
    pub fn with_telemetry(
        store: Arc<Mutex<ModelStore>>,
        dir: impl Into<String>,
        telemetry: Arc<Telemetry>,
    ) -> PredictService {
        PredictService {
            registry: ModelRegistry::default(),
            store,
            dir: dir.into(),
            stats: ServerStats::over(&telemetry),
            telemetry,
            shutdown: AtomicBool::new(false),
            replica: String::new(),
            adapt: Monitor::default(),
        }
    }

    /// Names this daemon within a fleet; the identity is stamped on
    /// every `Stats` answer, which is how clients and operators tell
    /// replicas apart without any daemon-to-daemon gossip.
    pub fn with_replica(mut self, replica: impl Into<String>) -> PredictService {
        self.replica = replica.into();
        self
    }

    /// This daemon's fleet identity (empty when unnamed).
    pub fn replica(&self) -> &str {
        &self.replica
    }

    /// Serves the durable store at `dir` instead. `benchmark/src/micro.rs`
    /// builds its service this way.
    pub fn with_store(mut self, store: Arc<Mutex<ModelStore>>, dir: impl Into<String>) -> PredictService {
        self.store = store;
        self.dir = dir.into();
        self
    }

    /// Self-serve catch-up, before the daemon answers anything: one
    /// refresh, whose installs count as `store_catchups`. Every serving
    /// record ([`ModelStore::serving`] — the ledger folded with
    /// rollback-rewind semantics) comes through [`verified`] *before* it
    /// installs: a model whose blob fails verification is reported and
    /// never served.
    pub fn catch_up_from_store(&self) -> StoreCatchUp {
        match self.refresh(&mut self.store.lock()) {
            Ok((installed, rejected)) => {
                self.stats.store_catchups.add(installed as u64);
                StoreCatchUp { installed, rejected: rejected.iter().map(|(_, e)| e.to_string()).collect() }
            }
            Err(e) => StoreCatchUp { installed: 0, rejected: vec![e.to_string()] },
        }
    }

    /// Brings the answer table to the store's serving fold: picks up
    /// what other writers appended, installs every serving record the
    /// table does not hold at that record's generation, drops the keys
    /// the fold no longer serves, and moves the table's generation to
    /// the ledger's high-water mark. A record whose blob fails
    /// verification is returned and never served; its key keeps the
    /// answer it had. A store that cannot be read, or whose journal was
    /// cut below what this handle validated, is the daemon's own
    /// problem: an error naming the store, and the table stays as it
    /// was.
    fn refresh(&self, store: &mut ModelStore) -> Result<Refreshed, ChronusError> {
        store
            .refresh()
            .map_err(|e| ChronusError::Io(io::Error::other(format!("model store at {}: {e}", self.dir))))?;
        let store = &*store;
        let (mut fresh, mut rejected) = (Vec::new(), Vec::new());
        for record in store.serving() {
            let key = (record.system_hash, record.binary_hash);
            if self.registry.lookup(&key).is_some_and(|held| held.generation == record.generation) {
                continue;
            }
            match verified(store, record) {
                Ok(answer) => fresh.push((key, answer)),
                Err(e) => rejected.push((record.generation, e)),
            }
        }
        let installed = fresh.len();
        self.registry.sync(|&(s, b)| store.serving_for(s, b).is_some(), fresh, store.high_water());
        Ok((installed, rejected))
    }

    /// The `Preload` verb: refreshes, then answers with the latest
    /// serving record carrying `model_id`, at its ledger generation. A
    /// model the fold does not serve, or whose blob fails verification,
    /// is an error naming the store.
    fn preload(&self, model_id: i64) -> Result<Response, ChronusError> {
        let mut store = self.store.lock();
        let (_, rejected) = self.refresh(&mut store)?;
        let dir = &self.dir;
        let record = store.serving().into_iter().rfind(|r| r.model_id == model_id).ok_or_else(|| {
            ChronusError::NotFound(format!("model {model_id} is not serving in the model store at {dir}"))
        })?;
        if let Some((_, e)) = rejected.iter().find(|(generation, _)| *generation == record.generation) {
            return Err(ChronusError::Model(format!("model store at {dir}: {e}")));
        }
        Ok(Response::Preloaded {
            model_id,
            model_type: record.model_type.clone(),
            system_hash: record.system_hash,
            binary_hash: record.binary_hash,
            generation: record.generation,
        })
    }

    /// The answer table (tests, and `benchmark/`'s generation check).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The operational counters.
    pub(crate) fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The outcome monitor: reservoirs, drift expectations and trip
    /// state. The adaptation driver drains reservoirs from here.
    pub fn adapt(&self) -> &Monitor {
        &self.adapt
    }

    /// The telemetry the service emits through.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Raises the shutdown flag; open connections notice within a tick.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The `stats` RPC's answer: counters, table, store and monitor,
    /// plus the connection gauges the transport samples. Refits and canary
    /// verdicts are not here: the store's ledger records them
    /// (`chronus models`).
    pub fn snapshot(&self, gauges: QueueGauges) -> StatsSnapshot {
        let (store_generation, models_by_class) = {
            let store = self.store.lock();
            // serving-model counts per node class, from the ledger's
            // provenance (records predating classes land in `default`)
            let mut by_class = std::collections::BTreeMap::<String, u64>::new();
            for class in store.serving().into_iter().map(|r| r.provenance.node_class.as_str()) {
                *by_class.entry(if class.is_empty() { "default" } else { class }.to_string()).or_default() += 1;
            }
            (store.high_water(), by_class.into_iter().collect())
        };
        let adapt = self.adapt.snapshot();
        let s = &self.stats;
        StatsSnapshot {
            replica: self.replica.clone(),
            requests_total: s.requests_total.get(),
            predictions: s.predictions.get(),
            cache_hits: s.cache_hits.get(),
            cache_misses: s.cache_misses.get(),
            busy_rejections: s.busy_rejections.get(),
            deadline_exceeded: s.deadline_exceeded.get(),
            errors: s.errors.get(),
            connections: gauges.connections,
            max_connections: gauges.max_connections,
            models_resident: self.registry.len() as u64,
            evictions: 0,
            model_generation: self.registry.generation(),
            preloads: s.preloads.get(),
            store_catchups: s.store_catchups.get(),
            batches: s.batches.get(),
            batched_keys: s.batched_keys.get(),
            store_dir: self.dir.clone(),
            store_generation,
            models_by_class,
            outcomes_ingested: adapt.ingested,
            outcomes_rejected: adapt.rejected,
            outcome_reservoirs: adapt.reservoirs,
            drift_score_milli: adapt.drift_score_milli,
            drift_trips: s.drift_trips.get(),
            drift_clears: s.drift_clears.get(),
            latency_p50_us: s.service_us.percentile_us(0.50),
            latency_p99_us: s.service_us.percentile_us(0.99),
            latency_max_us: s.service_us.max_us(),
        }
    }

    /// The one door: one request payload in, one reply payload out, in
    /// the encoding the request arrived in (see [`wire`]) — so the codec
    /// is a property of the frame, not of the listener that carried it.
    pub fn answer(&self, payload: &[u8], gauges: QueueGauges) -> Vec<u8> {
        let (binary, corr, response) = self.serve(payload, gauges);
        wire::encode_reply(binary, corr, response)
    }

    /// [`PredictService::answer`] stopped short of encoding: the decoded
    /// response. Kept as its own entry point because
    /// `benchmark/src/micro.rs` times it by name.
    pub fn handle_frame(&self, payload: &[u8], gauges: QueueGauges) -> Response {
        self.serve(payload, gauges).2
    }

    /// [`PredictService::answer`] for binary payloads only, `None` for
    /// JSON. Kept as its own entry point because `benchmark/src/micro.rs`
    /// times it by name.
    pub fn handle_fast_frame(&self, payload: &[u8], gauges: QueueGauges) -> Option<Vec<u8>> {
        fastpath::is_binary(payload).then(|| self.answer(payload, gauges))
    }

    /// Handles one complete frame payload end to end: counts it,
    /// decodes it, serves it under a `daemon/handle` span when the frame
    /// carries a propagated trace context, enforces its deadline budget
    /// and records its latency. Returns what the reply's encoding needs
    /// — whether the request was binary and the tag to echo — beside the
    /// response.
    ///
    /// Tracing is head-sampled: the caller decides at the root whether
    /// a request is traced, and the daemon follows that decision.
    /// Untraced frames pay only the counter/histogram cost, so the warm
    /// predict path stays flat when no one is watching. Malformed
    /// frames are the exception — they root their own error span
    /// because there is no parseable context to follow, and visibility
    /// into garbage matters more than its cost. A malformed frame has no
    /// tag to echo either; it is answered `malformed request`, counted,
    /// and the connection is kept.
    fn serve(&self, payload: &[u8], gauges: QueueGauges) -> (bool, Option<u64>, Response) {
        let started = self.telemetry.now_nanos();
        self.stats.requests_total.bump();
        let (binary, decoded) = wire::decode_request(payload);
        let (corr, response, finished) = match decoded {
            Ok(frame) => {
                let mut span = frame.trace.map(|ctx| {
                    let mut s = self.telemetry.span_under(ctx, "daemon", "handle");
                    s.attr("verb", frame.body.verb());
                    s
                });
                let ctx = span.as_ref().map(|s| s.context());
                let response = self.handle_request(frame.body, gauges, ctx);
                // one reading serves the deadline verdict and the latency sample
                let finished = self.telemetry.now_nanos();
                let elapsed_us = finished.saturating_sub(started) / 1000;
                let response = match frame.deadline_ms {
                    Some(budget) if elapsed_us > budget * 1000 => {
                        self.stats.deadline_exceeded.bump();
                        if let Some(s) = &mut span {
                            s.set_error(format!("deadline exceeded: {elapsed_us}us over a {budget}ms budget"));
                        }
                        Response::DeadlineExceeded
                    }
                    _ => {
                        if let (Response::Error { message }, Some(s)) = (&response, &mut span) {
                            s.set_error(message.clone());
                        }
                        response
                    }
                };
                (frame.corr, response, finished)
            }
            Err(e) => {
                self.stats.errors.bump();
                // nothing to join: a malformed frame roots its own trace
                let mut span = self.telemetry.root_span("daemon", "handle");
                let message = format!("malformed request: {e}");
                span.set_error(message.clone());
                (None, Response::Error { message }, self.telemetry.now_nanos())
            }
        };
        self.stats.service_us.record_us(finished.saturating_sub(started) / 1000);
        (binary, corr, response)
    }

    fn handle_request(&self, request: Request, gauges: QueueGauges, ctx: Option<TraceContext>) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::Predict { system_hash, binary_hash } => match self.predict_key(system_hash, binary_hash, ctx) {
                KeyOutcome::Config(config) => Response::Config(config),
                KeyOutcome::Miss => Response::Miss { system_hash, binary_hash },
                KeyOutcome::Error { message } => Response::Error { message },
            },
            Request::PredictMany { keys } => {
                if keys.len() > MAX_BATCH_KEYS {
                    self.stats.errors.bump();
                    return Response::Error {
                        message: format!("batch of {} keys exceeds the {MAX_BATCH_KEYS}-key limit", keys.len()),
                    };
                }
                // Frame-level shape first, then the per-key loop bumps
                // the same prediction/hit/miss counters a single-key
                // Predict would: conservation counts keys, not frames.
                self.stats.batches.bump();
                self.stats.batched_keys.add(keys.len() as u64);
                self.stats.batch_keys.record_us(keys.len() as u64);
                let results =
                    keys.iter().map(|&(system_hash, binary_hash)| self.predict_key(system_hash, binary_hash, ctx));
                Response::ManyConfigs { results: results.collect() }
            }
            Request::Preload { model_id } => {
                self.stats.preloads.bump();
                self.preload(model_id).unwrap_or_else(|e| {
                    self.stats.errors.bump();
                    Response::Error { message: e.to_string() }
                })
            }
            Request::Stats => {
                // the campaign CLI may have appended to a shared store
                // dir since boot; refresh (read-only — refresh never
                // truncates) so the table and the gauges are current. A
                // store that cannot be read still gets its stats.
                let _ = self.refresh(&mut self.store.lock());
                Response::Stats(Box::new(self.snapshot(gauges)))
            }
            Request::ReportOutcome { system_hash, binary_hash, outcome } => {
                self.report_outcome(system_hash, binary_hash, &outcome)
            }
        }
    }

    /// The `ReportOutcome` verb: validates and folds one observed
    /// (GFLOPS, watts, duration) into the key's reservoir, feeding the
    /// drift detector. The detector's expectation is calibrated lazily
    /// from the serving record's fitted efficiency when its provenance
    /// carries one; a key committed without (test and bench fixtures)
    /// self-calibrates from the first full window of observations.
    fn report_outcome(&self, system_hash: u64, binary_hash: u64, outcome: &ObservedOutcome) -> Response {
        let key = (system_hash, binary_hash);
        if !self.adapt.has_expectation(key) {
            let store = self.store.lock();
            let expected = store.serving_for(system_hash, binary_hash).map(|r| r.provenance.best_gflops_per_watt);
            if let Some(expected) = expected.filter(|e| e.is_finite() && *e > 0.0) {
                self.adapt.set_expectation(key, expected);
            }
        }
        let report = self.adapt.ingest(key, outcome);
        match report.event {
            Some(eco_adapt::DriftEvent::Trip { score, .. }) => {
                self.stats.drift_trips.bump();
                self.telemetry.gauge("daemon.adapt.drift_score_milli").set_max((score * 1000.0).round() as u64);
            }
            Some(eco_adapt::DriftEvent::Clear { .. }) => self.stats.drift_clears.bump(),
            None => {}
        }
        Response::OutcomeAck { accepted: report.accepted }
    }

    /// One key's prediction, shared verbatim between `Predict` and the
    /// per-key loop of `PredictMany` so the two paths can never drift:
    /// table lookup (hit / miss), one refresh and a second lookup on a
    /// miss, and exactly one `prediction` + one `hit`-or-`miss` counter
    /// bump per key regardless of framing.
    fn predict_key(&self, system_hash: u64, binary_hash: u64, ctx: Option<TraceContext>) -> KeyOutcome {
        self.stats.predictions.bump();
        let key = (system_hash, binary_hash);
        {
            let mut lookup = ctx.map(|c| self.telemetry.span_under(c, "daemon", "registry_lookup"));
            let held = self.registry.lookup(&key);
            if let Some(s) = &mut lookup {
                s.attr("result", if held.is_some() { "hit" } else { "miss" });
            }
            if let Some(held) = held {
                self.stats.cache_hits.bump();
                return KeyOutcome::Config(held.config);
            }
            self.stats.cache_misses.bump();
        }
        // another writer may have committed the key since the last refresh
        let mut span = ctx.map(|c| self.telemetry.span_under(c, "daemon", "refresh"));
        let refreshed = self.refresh(&mut self.store.lock());
        match refreshed.map(|_| self.registry.lookup(&key)) {
            Ok(Some(held)) => KeyOutcome::Config(held.config),
            // "no answer for this key" is a protocol-level miss …
            Ok(None) => {
                if let Some(s) = &mut span {
                    s.attr("result", "miss");
                }
                KeyOutcome::Miss
            }
            // … a store that cannot be read is the daemon's own problem
            Err(e) => {
                self.stats.errors.bump();
                if let Some(s) = &mut span {
                    s.set_error(e.to_string());
                }
                KeyOutcome::Error { message: e.to_string() }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ModelBackend, StaticBackend};
    use chronus::remote::RequestFrame;
    use eco_sim_node::cpu::CpuConfig;
    use std::sync::atomic::AtomicU64;

    fn service_with_one_model() -> PredictService {
        let backend = StaticBackend::new(vec![crate::backend::PreparedModel {
            model_id: 1,
            model_type: "brute-force".into(),
            system_hash: 10,
            binary_hash: 20,
            config: CpuConfig::new(16, 2_200_000, 1),
        }]);
        PredictService::new(2, 8, Arc::new(backend))
    }

    fn frame_bytes(frame: &RequestFrame) -> Vec<u8> {
        serde_json::to_vec(frame).unwrap()
    }

    #[test]
    fn a_key_the_table_misses_answers_after_one_refresh_then_hits() {
        let svc = service_with_one_model();
        let payload = frame_bytes(&RequestFrame::new(Request::Predict { system_hash: 10, binary_hash: 20 }));
        assert!(matches!(svc.handle_frame(&payload, QueueGauges::default()), Response::Config(_)));
        assert!(matches!(svc.handle_frame(&payload, QueueGauges::default()), Response::Config(_)));
        let snap = svc.snapshot(QueueGauges::default());
        assert_eq!((snap.cache_misses, snap.cache_hits), (1, 1));
        assert_eq!(snap.requests_total, 2);
    }

    #[test]
    fn unknown_key_is_a_miss_not_an_error() {
        let svc = service_with_one_model();
        let payload = frame_bytes(&RequestFrame::new(Request::Predict { system_hash: 9, binary_hash: 9 }));
        assert!(matches!(
            svc.handle_frame(&payload, QueueGauges::default()),
            Response::Miss { system_hash: 9, binary_hash: 9 }
        ));
        assert_eq!(svc.snapshot(QueueGauges::default()).errors, 0);
    }

    #[test]
    fn predict_many_answers_every_key_in_order_and_counts_keys_not_frames() {
        let svc = service_with_one_model();
        // known, unknown, known-again: the reply must be positional
        let keys = vec![(10, 20), (9, 9), (10, 20)];
        let payload = frame_bytes(&RequestFrame::new(Request::PredictMany { keys }));
        let results = match svc.handle_frame(&payload, QueueGauges::default()) {
            Response::ManyConfigs { results } => results,
            other => panic!("expected ManyConfigs, got {other:?}"),
        };
        assert_eq!(results.len(), 3, "one outcome per key, in key order");
        assert!(matches!(results[0], KeyOutcome::Config(_)));
        assert!(matches!(results[1], KeyOutcome::Miss));
        assert!(matches!(results[2], KeyOutcome::Config(_)), "second occurrence is a registry hit");
        let snap = svc.snapshot(QueueGauges::default());
        assert_eq!(snap.requests_total, 1, "one frame");
        assert_eq!(snap.predictions, 3, "three keys");
        assert_eq!((snap.cache_hits, snap.cache_misses), (1, 2));
        assert_eq!((snap.batches, snap.batched_keys), (1, 3));
    }

    #[test]
    fn predict_many_conserves_counters_like_singles_would() {
        // the conservation law counts batched keys, not frames:
        // hits + misses == predictions whatever the framing
        let svc = service_with_one_model();
        let batch =
            frame_bytes(&RequestFrame::new(Request::PredictMany { keys: vec![(10, 20), (1, 1), (2, 2), (10, 20)] }));
        let single = frame_bytes(&RequestFrame::new(Request::Predict { system_hash: 10, binary_hash: 20 }));
        assert!(matches!(svc.handle_frame(&batch, QueueGauges::default()), Response::ManyConfigs { .. }));
        assert!(matches!(svc.handle_frame(&single, QueueGauges::default()), Response::Config(_)));
        let snap = svc.snapshot(QueueGauges::default());
        assert_eq!(snap.predictions, 5);
        assert_eq!(snap.cache_hits + snap.cache_misses, snap.predictions);
        assert_eq!((snap.batches, snap.batched_keys), (1, 4), "the single Predict is not a batch");
    }

    #[test]
    fn empty_batch_is_answered_with_an_empty_reply() {
        let svc = service_with_one_model();
        let payload = frame_bytes(&RequestFrame::new(Request::PredictMany { keys: vec![] }));
        match svc.handle_frame(&payload, QueueGauges::default()) {
            Response::ManyConfigs { results } => assert!(results.is_empty()),
            other => panic!("expected ManyConfigs, got {other:?}"),
        }
        let snap = svc.snapshot(QueueGauges::default());
        assert_eq!((snap.batches, snap.batched_keys, snap.predictions), (1, 0, 0));
    }

    #[test]
    fn oversize_batch_is_rejected_whole_with_a_typed_error() {
        let svc = service_with_one_model();
        let keys: Vec<(u64, u64)> = (0..=MAX_BATCH_KEYS as u64).map(|i| (i, i)).collect();
        let payload = frame_bytes(&RequestFrame::new(Request::PredictMany { keys }));
        match svc.handle_frame(&payload, QueueGauges::default()) {
            Response::Error { message } => assert!(message.contains("exceeds"), "typed limit error: {message}"),
            other => panic!("expected Error, got {other:?}"),
        }
        let snap = svc.snapshot(QueueGauges::default());
        assert_eq!(snap.predictions, 0, "no key in a rejected batch is served");
        assert_eq!((snap.batches, snap.batched_keys), (0, 0), "a rejected frame is not a batch");
        assert_eq!(snap.errors, 1);
    }

    #[test]
    fn corr_id_is_echoed_on_the_wire_and_absent_otherwise() {
        let svc = service_with_one_model();
        let predict = RequestFrame::new(Request::Predict { system_hash: 10, binary_hash: 20 });
        let reply = svc.answer(&frame_bytes(&predict.clone().with_corr(42)), QueueGauges::default());
        let (echo, resp) = wire::decode_reply(&reply).unwrap();
        assert_eq!(echo, Some(42), "the daemon echoes the frame's correlation id");
        assert!(matches!(resp, Response::Config(_)));

        let reply = svc.answer(&frame_bytes(&predict), QueueGauges::default());
        assert!(serde_json::from_slice::<Response>(&reply).is_ok(), "un-corr'd frames are answered bare");

        let reply = svc.answer(b"not json", QueueGauges::default());
        let resp: Response = serde_json::from_slice(&reply).expect("malformed frames have no corr to echo");
        assert!(matches!(resp, Response::Error { .. }));
    }

    #[test]
    fn a_hot_frame_is_answered_in_the_encoding_it_arrived_in() {
        let svc = service_with_one_model();
        for body in [
            Request::Predict { system_hash: 10, binary_hash: 20 },
            Request::PredictMany { keys: vec![(10, 20), (9, 9)] },
        ] {
            let frame = RequestFrame::new(body).with_corr(7);
            let (json, binary) = (frame_bytes(&frame), wire::encode_request(&frame).unwrap());
            assert!(fastpath::is_binary(&binary), "the client's encoding of a hot verb is binary");
            let mut answers = Vec::new();
            for payload in [&json, &binary] {
                let reply = svc.answer(payload, QueueGauges::default());
                assert_eq!(fastpath::is_binary(&reply), fastpath::is_binary(payload));
                answers.push(wire::decode_reply(&reply).unwrap());
            }
            assert_eq!(answers[0].0, Some(7));
            assert_eq!(answers[0], answers[1], "the codec changes the bytes, not the answer");
            // the two views of the same body agree with it
            assert_eq!(svc.handle_frame(&json, QueueGauges::default()), answers[0].1);
            assert_eq!(svc.handle_fast_frame(&json, QueueGauges::default()), None);
            assert_eq!(
                svc.handle_fast_frame(&binary, QueueGauges::default()),
                Some(svc.answer(&binary, QueueGauges::default()))
            );
        }
    }

    #[test]
    fn a_malformed_payload_in_either_encoding_is_one_error_one_sample_and_a_reply_in_kind() {
        let svc = service_with_one_model();
        let latency = svc.telemetry().histogram("daemon.service_us");
        let errors = svc.telemetry().counter("daemon.errors");
        let truncated =
            &wire::encode_request(&RequestFrame::new(Request::PredictMany { keys: vec![(1, 2)] }).with_corr(3))
                .unwrap()[..12];
        for (n, (payload, binary)) in [(&b"not json"[..], false), (truncated, true)].into_iter().enumerate() {
            let reply = svc.answer(payload, QueueGauges::default());
            assert_eq!(fastpath::is_binary(&reply), binary, "the error goes back in the request's encoding");
            let (echo, resp) = wire::decode_reply(&reply).unwrap();
            assert_eq!(echo, binary.then_some(0), "nothing decodable to echo");
            assert!(
                matches!(&resp, Response::Error { message } if message.starts_with("malformed request")),
                "{resp:?}"
            );
            assert_eq!((errors.get(), latency.count()), (n as u64 + 1, n as u64 + 1));
        }
        assert_eq!(svc.snapshot(QueueGauges::default()).requests_total, 2);
    }

    /// `frame` in each encoding a daemon is sent: hand-written JSON and
    /// the client's own (binary for a hot verb).
    fn both_encodings(frame: &RequestFrame) -> [Vec<u8>; 2] {
        [frame_bytes(frame), wire::encode_request(frame).unwrap()]
    }

    #[test]
    fn traced_batch_parents_per_key_spans_under_one_handle_span() {
        let svc = service_with_one_model();
        let telemetry = svc.telemetry().clone();
        let caller = telemetry.root_span("client", "attempt");
        let ctx = caller.context();
        let frame = RequestFrame::new(Request::PredictMany { keys: vec![(10, 20), (9, 9)] }).traced(Some(ctx));
        for (n, payload) in both_encodings(&frame).iter().enumerate() {
            assert!(matches!(svc.handle_frame(payload, QueueGauges::default()), Response::ManyConfigs { .. }));
            let events = telemetry.recorder().trace_events(ctx.trace);
            let handles: Vec<_> = events.iter().filter(|e| e.layer == "daemon" && e.name == "handle").collect();
            assert_eq!(handles.len(), n + 1, "one daemon/handle span per frame");
            let handle = handles[n];
            assert_eq!(handle.parent, Some(ctx.span.0), "handle joins the wire context");
            assert!(handle.attrs.iter().any(|a| a == "verb=predict_many"));
            let lookups: Vec<_> =
                events.iter().filter(|e| e.name == "registry_lookup" && e.parent == Some(handle.span)).collect();
            assert_eq!(lookups.len(), 2, "one registry_lookup span per key, under this frame's handle");
        }
    }

    #[test]
    fn traced_frame_parents_daemon_spans_under_the_wire_context() {
        let svc = service_with_one_model();
        let telemetry = svc.telemetry().clone();
        // pretend a remote client stamped this attempt context on the frame
        let caller = telemetry.root_span("client", "attempt");
        let ctx = caller.context();
        let frame = RequestFrame::new(Request::Predict { system_hash: 10, binary_hash: 20 }).traced(Some(ctx));
        for (n, payload) in both_encodings(&frame).iter().enumerate() {
            assert!(matches!(svc.handle_frame(payload, QueueGauges::default()), Response::Config(_)));
            let events = telemetry.recorder().trace_events(ctx.trace);
            let handles: Vec<_> = events.iter().filter(|e| e.layer == "daemon" && e.name == "handle").collect();
            assert_eq!(handles.len(), n + 1, "one daemon/handle span per frame");
            let handle = handles[n];
            assert_eq!(handle.parent, Some(ctx.span.0), "handle joins the wire context");
            assert!(handle.attrs.iter().any(|a| a == "verb=predict"));
            let lookup = events.iter().find(|e| e.name == "registry_lookup" && e.parent == Some(handle.span));
            assert!(lookup.is_some(), "lookup nests under handle");
        }
        // the first lookup missed the table and refreshed under its handle
        let events = telemetry.recorder().trace_events(ctx.trace);
        let refresh = events.iter().find(|e| e.name == "refresh").expect("a miss refreshes the fold");
        let first = events.iter().find(|e| e.layer == "daemon" && e.name == "handle").expect("recorded above");
        assert_eq!(refresh.parent, Some(first.span));
        drop(caller);
    }

    #[test]
    fn untraced_frame_records_no_spans_but_still_counts() {
        // head-based sampling: the caller's trace decision propagates,
        // so an untraced warm-path request must not touch the recorder
        let svc = service_with_one_model();
        let payload = frame_bytes(&RequestFrame::new(Request::Predict { system_hash: 10, binary_hash: 20 }));
        assert!(matches!(svc.handle_frame(&payload, QueueGauges::default()), Response::Config(_)));
        assert!(svc.telemetry().recorder().events().is_empty(), "untraced frames open no spans");
        let snap = svc.snapshot(QueueGauges::default());
        assert_eq!(snap.requests_total, 1, "counters still see untraced traffic");
        assert_eq!(snap.predictions, 1);
    }

    #[test]
    fn malformed_frame_roots_an_error_span() {
        let svc = service_with_one_model();
        let response = svc.handle_frame(b"not json", QueueGauges::default());
        assert!(matches!(response, Response::Error { .. }));
        let events = svc.telemetry().recorder().events();
        let handle = events.iter().find(|e| e.name == "handle").expect("error span recorded");
        assert_eq!(handle.parent, None, "no parseable context, so the daemon roots the trace");
        assert!(!handle.is_ok());
    }

    #[test]
    fn preload_answers_the_ledger_generation() {
        let svc = service_with_one_model();
        assert_eq!(svc.snapshot(QueueGauges::default()).model_generation, 0);
        let payload = frame_bytes(&RequestFrame::new(Request::Preload { model_id: 1 }));
        match svc.handle_frame(&payload, QueueGauges::default()) {
            Response::Preloaded { generation, model_id, .. } => {
                assert_eq!(generation, 1);
                assert_eq!(model_id, 1);
            }
            other => panic!("expected Preloaded, got {other:?}"),
        }
        assert_eq!(svc.snapshot(QueueGauges::default()).model_generation, 1);
        // and the committed model serves straight from the registry
        let predict = frame_bytes(&RequestFrame::new(Request::Predict { system_hash: 10, binary_hash: 20 }));
        assert!(matches!(svc.handle_frame(&predict, QueueGauges::default()), Response::Config(_)));
        assert_eq!(svc.snapshot(QueueGauges::default()).cache_hits, 1);
    }

    #[test]
    fn catch_up_from_store_installs_only_hash_verified_models() {
        use eco_store::{blob_hash, MemBackend, Provenance, BLOB_DIR};

        let mem = MemBackend::new();
        let mut store = ModelStore::open(Box::new(mem.clone())).unwrap();
        let (good, bad) = (store_blob(10, 20), store_blob(10, 21));
        store.commit(&good, 1, Provenance::default()).unwrap();
        let bad_record = store.commit(&bad, 2, Provenance::default()).unwrap();
        // Corrupt the second blob on disk after commit.
        let name = format!("{BLOB_DIR}/{}", blob_hash(&bad));
        let mut bytes = mem.get_raw(&name).unwrap();
        bytes[0] ^= 0x01;
        mem.put_raw(&name, bytes);

        let svc = over_store(store);
        let report = svc.catch_up_from_store();
        assert_eq!(report.installed, 1);
        assert_eq!(report.rejected.len(), 1);
        assert!(report.rejected[0].contains(&format!("generation {}", bad_record.generation)));

        // The verified model serves; the corrupt one was never installed.
        let ok = frame_bytes(&RequestFrame::new(Request::Predict { system_hash: 10, binary_hash: 20 }));
        assert!(matches!(svc.handle_frame(&ok, QueueGauges::default()), Response::Config(_)));
        let corrupt = frame_bytes(&RequestFrame::new(Request::Predict { system_hash: 10, binary_hash: 21 }));
        assert!(matches!(svc.handle_frame(&corrupt, QueueGauges::default()), Response::Miss { .. }));

        let snap = svc.snapshot(QueueGauges::default());
        assert_eq!(snap.store_catchups, 1);
        assert_eq!(snap.preloads, 0, "catch-up involves no Preload RPC");
        assert_eq!(snap.store_dir, "/var/lib/chronus/store");
        assert_eq!(snap.store_generation, 2, "high-water gauge counts the corrupt commit too");
        assert_eq!(snap.model_generation, 2, "the table has reached the high-water mark, corrupt commit included");
    }

    fn blob(system_hash: u64, binary_hash: u64, cores: u32) -> eco_store::ModelBlob {
        eco_store::ModelBlob { config: CpuConfig::new(cores, 2_200_000, 1), ..store_blob(system_hash, binary_hash) }
    }

    fn send(svc: &PredictService, request: Request) -> Response {
        svc.handle_frame(&frame_bytes(&RequestFrame::new(request)), QueueGauges::default())
    }

    fn predict(svc: &PredictService, system_hash: u64, binary_hash: u64) -> Response {
        send(svc, Request::Predict { system_hash, binary_hash })
    }

    #[test]
    fn a_commit_by_another_writer_is_served_after_one_refresh() {
        use eco_store::{MemBackend, Provenance};

        let mem = MemBackend::new();
        let mut store = ModelStore::open(Box::new(mem.clone())).unwrap();
        store.commit(&blob(10, 20, 8), 1, Provenance::default()).unwrap();
        let mut writer = ModelStore::open(Box::new(mem)).unwrap();
        let svc = over_store(store);
        svc.catch_up_from_store();
        let config = |cores| Response::Config(CpuConfig::new(cores, 2_200_000, 1));
        assert_eq!(predict(&svc, 10, 20), config(8));

        // another process commits a new generation of the known key, and a new key
        writer.commit(&blob(10, 20, 32), 1, Provenance::default()).unwrap();
        writer.commit(&blob(11, 20, 16), 2, Provenance::default()).unwrap();
        // a hit refreshes nothing: the known key keeps its generation …
        assert_eq!(predict(&svc, 10, 20), config(8));
        assert_eq!(svc.registry().generation(), 1);
        // … and the new key answers on its first request, whose miss
        // refreshes the fold — which moves the known key too
        assert_eq!(predict(&svc, 11, 20), config(16));
        assert_eq!(predict(&svc, 10, 20), config(32));
        assert_eq!(svc.registry().generation(), 3);
        let snap = svc.snapshot(QueueGauges::default());
        assert_eq!((snap.cache_hits, snap.cache_misses, snap.errors), (3, 1, 0));
    }

    #[test]
    fn every_generation_the_daemon_reports_is_the_ledgers() {
        use eco_store::{MemBackend, Provenance};

        let mem = MemBackend::new();
        let mut writer = ModelStore::open(Box::new(mem.clone())).unwrap();
        writer.commit(&blob(10, 20, 8), 1, Provenance::default()).unwrap();
        writer.commit(&blob(11, 20, 16), 2, Provenance::default()).unwrap();
        let svc = over_store(ModelStore::open(Box::new(mem)).unwrap());
        // the table holds exactly the writer's serving fold, each key at
        // its record's generation, and has reached its high-water mark
        let agree = |svc: &PredictService, writer: &ModelStore, at: &str| {
            let snap = svc.snapshot(QueueGauges::default());
            let high_water = writer.high_water();
            assert_eq!((snap.model_generation, svc.registry().generation()), (high_water, high_water), "{at}");
            let serving = writer.serving();
            assert_eq!(svc.registry().len(), serving.len(), "{at}");
            for record in serving {
                let held = svc.registry().lookup(&(record.system_hash, record.binary_hash));
                assert_eq!(held.map(|r| (r.generation, r.config)), Some((record.generation, record.config)), "{at}");
            }
        };
        let preloaded = |svc: &PredictService, model_id| match send(svc, Request::Preload { model_id }) {
            Response::Preloaded { generation, .. } => generation,
            other => panic!("preload of model {model_id} answered {other:?}"),
        };

        svc.catch_up_from_store();
        agree(&svc, &writer, "boot");
        let rolled = writer.commit(&blob(10, 20, 32), 3, Provenance::default()).unwrap();
        assert_eq!(preloaded(&svc, 3), rolled.generation);
        agree(&svc, &writer, "Preload");
        writer.commit(&blob(12, 20, 4), 4, Provenance::default()).unwrap();
        assert!(matches!(predict(&svc, 12, 20), Response::Config(_)));
        agree(&svc, &writer, "a miss");
        writer.commit(&blob(11, 20, 24), 5, Provenance::default()).unwrap();
        assert!(matches!(send(&svc, Request::Stats), Response::Stats(s) if s.model_generation == 5));
        agree(&svc, &writer, "Stats");
        // rolled back to generation 2: (10, 20) serves generation 1 again,
        // (12, 20) serves nothing, and the high-water mark stays at 5
        writer.rollback_to(2, "regression").unwrap();
        assert!(matches!(send(&svc, Request::Stats), Response::Stats(_)));
        agree(&svc, &writer, "rollback");
        assert!(matches!(predict(&svc, 12, 20), Response::Miss { .. }));
        assert_eq!(preloaded(&svc, 1), 1);
    }

    #[test]
    fn a_preload_is_refused_with_the_reason_when_its_blob_fails_verification() {
        use eco_store::{blob_hash, MemBackend, Provenance, BLOB_DIR};

        let mem = MemBackend::new();
        let mut store = ModelStore::open(Box::new(mem.clone())).unwrap();
        store.commit(&blob(10, 20, 8), 1, Provenance::default()).unwrap();
        let name = format!("{BLOB_DIR}/{}", blob_hash(&blob(10, 20, 8)));
        let mut bytes = mem.get_raw(&name).unwrap();
        bytes[0] ^= 0x01;
        mem.put_raw(&name, bytes);
        let svc = over_store(store);
        let refused = |model_id| match send(&svc, Request::Preload { model_id }) {
            Response::Error { message } => message,
            other => panic!("preload of model {model_id} answered {other:?}"),
        };
        let reason = refused(1);
        assert!(
            reason.contains("/var/lib/chronus/store") && reason.contains("generation 1: blob hashes to"),
            "{reason}"
        );
        let reason = refused(7);
        assert!(reason.contains("model 7 is not serving in the model store at /var/lib/chronus/store"), "{reason}");
        assert!(matches!(predict(&svc, 10, 20), Response::Miss { .. }), "a refused record is never served");
        let snap = svc.snapshot(QueueGauges::default());
        assert_eq!((snap.preloads, snap.errors, snap.model_generation), (2, 2, 1));
    }

    /// A daemon's service over `store`, as `chronus serve` builds one.
    fn over_store(store: ModelStore) -> PredictService {
        PredictService::with_clock(Arc::new(Mutex::new(store)), "/var/lib/chronus/store", Arc::new(WallClock::new()))
    }

    fn store_blob(system_hash: u64, binary_hash: u64) -> eco_store::ModelBlob {
        eco_store::ModelBlob {
            model_type: "brute-force".into(),
            system_hash,
            binary_hash,
            config: CpuConfig::new(16, 2_200_000, 1),
            benchmarks: Vec::new(),
        }
    }

    #[test]
    fn snapshot_counts_serving_models_per_node_class() {
        use chronus::integrations::codec::RECORD_HEADER_LEN;
        use eco_store::{MemBackend, Provenance, JOURNAL_FILE};

        let mem = MemBackend::new();
        let mut store = ModelStore::open(Box::new(mem.clone())).unwrap();
        let dense64 = || Provenance { node_class: "dense64".into(), ..Provenance::default() };
        // one legacy (classless) model, two dense64 models
        store.commit(&store_blob(10, 20), 1, Provenance::default()).unwrap();
        store.commit(&store_blob(11, 20), 2, dense64()).unwrap();
        store.commit(&store_blob(11, 21), 3, dense64()).unwrap();
        let mut writer = ModelStore::open(Box::new(mem.clone())).unwrap();

        let svc = over_store(store);
        svc.catch_up_from_store();
        let stats =
            || match svc.handle_frame(&frame_bytes(&RequestFrame::new(Request::Stats)), QueueGauges::default()) {
                Response::Stats(snap) => (snap.models_by_class, snap.store_generation),
                other => panic!("expected Stats, got {other:?}"),
            };
        let class = |name: &str, n| (name.to_string(), n);
        assert_eq!(stats(), (vec![class("default", 1), class("dense64", 2)], 3));

        // A second handle commits one more dense64 model. Record 1's bytes
        // are damaged first, so only a refresh that decodes just the new
        // tail can see it.
        let mut bytes = mem.get_raw(JOURNAL_FILE).unwrap();
        bytes[RECORD_HEADER_LEN + 4] ^= 0x01;
        mem.put_raw(JOURNAL_FILE, bytes);
        writer.commit(&store_blob(12, 20), 4, dense64()).unwrap();
        assert_eq!(stats(), (vec![class("default", 1), class("dense64", 3)], 4));

        // Rolled back to generation 1, no dense64 key serves, and the
        // high-water gauge stays where the ledger reached.
        writer.rollback_to(1, "regression").unwrap();
        assert_eq!(stats(), (vec![class("default", 1)], 4));

        // a daemon without a store reports no class line at all
        let bare = PredictService::new(2, 8, Arc::new(StaticBackend::new(vec![])));
        assert!(bare.snapshot(QueueGauges::default()).models_by_class.is_empty());
    }

    #[test]
    fn a_journal_cut_below_what_the_daemon_validated_is_an_error_on_the_miss_path() {
        use eco_store::{MemBackend, Provenance, JOURNAL_FILE};

        let mem = MemBackend::new();
        let mut store = ModelStore::open(Box::new(mem.clone())).unwrap();
        store.commit(&store_blob(10, 20), 1, Provenance::default()).unwrap();
        let svc = over_store(store);

        // only `open` truncates: a journal shorter than what the daemon
        // validated is the daemon's problem, not "no model for this key"
        let mut bytes = mem.get_raw(JOURNAL_FILE).unwrap();
        bytes.pop();
        mem.put_raw(JOURNAL_FILE, bytes);
        let predict = frame_bytes(&RequestFrame::new(Request::Predict { system_hash: 10, binary_hash: 20 }));
        match svc.handle_frame(&predict, QueueGauges::default()) {
            Response::Error { message } => {
                assert!(message.contains("/var/lib/chronus/store") && message.contains(JOURNAL_FILE), "{message}")
            }
            other => panic!("a cut journal answered {other:?}"),
        }
        let snap = svc.snapshot(QueueGauges::default());
        assert_eq!((snap.errors, snap.store_generation), (1, 1));
    }

    #[test]
    fn report_outcome_acks_and_feeds_the_monitor() {
        let svc = service_with_one_model();
        let outcome = ObservedOutcome {
            config: CpuConfig::new(16, 2_200_000, 1),
            gflops: 30.0,
            watts: 200.0,
            duration_s: 60.0,
            node_class: String::new(),
        };
        let payload =
            frame_bytes(&RequestFrame::new(Request::ReportOutcome { system_hash: 10, binary_hash: 20, outcome }));
        assert!(matches!(
            svc.handle_frame(&payload, QueueGauges::default()),
            Response::OutcomeAck { accepted: true }
        ));
        let snap = svc.snapshot(QueueGauges::default());
        assert_eq!(snap.outcomes_ingested, 1);
        assert_eq!(snap.outcome_reservoirs, 1);
        assert_eq!(snap.predictions, 0, "an outcome report is not a prediction");
        assert_eq!(svc.adapt().drain((10, 20)).len(), 1, "the driver can drain what was reported");
    }

    #[test]
    fn malformed_outcome_is_rejected_not_erred() {
        let svc = service_with_one_model();
        // zero watts is physically impossible for a running job: the
        // measurement is invalid, though the frame parses fine
        let outcome = ObservedOutcome {
            config: CpuConfig::new(16, 2_200_000, 1),
            gflops: 30.0,
            watts: 0.0,
            duration_s: 60.0,
            node_class: String::new(),
        };
        let payload =
            frame_bytes(&RequestFrame::new(Request::ReportOutcome { system_hash: 10, binary_hash: 20, outcome }));
        assert!(matches!(
            svc.handle_frame(&payload, QueueGauges::default()),
            Response::OutcomeAck { accepted: false }
        ));
        let snap = svc.snapshot(QueueGauges::default());
        assert_eq!((snap.outcomes_ingested, snap.outcomes_rejected), (0, 1));
        assert_eq!(snap.errors, 0, "a bad measurement is the reporter's problem, not the daemon's");
    }

    #[test]
    fn store_backed_daemon_calibrates_drift_from_serving_provenance() {
        use eco_store::{MemBackend, Provenance};

        let mut store = ModelStore::open(Box::new(MemBackend::new())).unwrap();
        let fitted = Provenance { best_gflops_per_watt: 0.20, ..Provenance::default() };
        store.commit(&store_blob(10, 20), 1, fitted).unwrap();
        let svc = over_store(store);

        // sustained 50% shortfall vs the fitted 0.20 GFLOPS/W trips the
        // detector within the default 16-observation window x 2 windows
        let drifted = ObservedOutcome {
            config: CpuConfig::new(16, 2_200_000, 1),
            gflops: 20.0,
            watts: 200.0,
            duration_s: 60.0,
            node_class: String::new(),
        };
        for _ in 0..32 {
            let payload = frame_bytes(&RequestFrame::new(Request::ReportOutcome {
                system_hash: 10,
                binary_hash: 20,
                outcome: drifted.clone(),
            }));
            svc.handle_frame(&payload, QueueGauges::default());
        }
        assert!(svc.adapt().has_expectation((10, 20)), "expectation came from the store, not self-calibration");
        assert!(svc.adapt().is_tripped((10, 20)));
        let snap = svc.snapshot(QueueGauges::default());
        assert_eq!(snap.drift_trips, 1, "hysteresis trips exactly once");
        assert_eq!(snap.drift_score_milli, 500);
        assert_eq!(svc.telemetry().gauge("daemon.adapt.drift_score_milli").get(), 500);
    }

    /// A clock on which every observation moves time forward 30 ms, so
    /// any deadline under that is exceeded.
    struct JumpClock(AtomicU64);

    impl ServiceClock for JumpClock {
        fn now_nanos(&self) -> u64 {
            self.0.fetch_add(30_000_000, Ordering::Relaxed)
        }
    }

    #[test]
    fn every_counter_in_the_snapshot_is_its_telemetry_cell() {
        use eco_store::{MemBackend, Provenance};

        // three served models, so boot catch-up counts three
        let mut store = ModelStore::open(Box::new(MemBackend::new())).unwrap();
        for (id, system_hash) in [(1, 10), (2, 11), (3, 12)] {
            store.commit(&store_blob(system_hash, 20), id, Provenance::default()).unwrap();
        }
        let svc = PredictService::with_clock(
            Arc::new(Mutex::new(store)),
            "/var/lib/chronus/store",
            Arc::new(JumpClock(AtomicU64::new(0))),
        );
        let send = |frame: RequestFrame| svc.answer(&frame_bytes(&frame), QueueGauges::default());
        let predict = |system_hash, binary_hash| RequestFrame::new(Request::Predict { system_hash, binary_hash });
        let outcome = |gflops| {
            let outcome = ObservedOutcome {
                config: CpuConfig::new(16, 2_200_000, 1),
                gflops,
                watts: 200.0,
                duration_s: 60.0,
                node_class: String::new(),
            };
            RequestFrame::new(Request::ReportOutcome { system_hash: 10, binary_hash: 20, outcome })
        };

        // Loop counts are chosen so no two counters end equal: a field
        // read from the wrong cell cannot pass.
        svc.catch_up_from_store();
        for _ in 0..7 {
            send(predict(10, 20)); // hit
        }
        for _ in 0..2 {
            send(predict(9, 9)); // miss
        }
        for _ in 0..4 {
            send(RequestFrame::new(Request::PredictMany { keys: vec![(10, 20), (9, 9)] }));
        }
        for _ in 0..6 {
            send(RequestFrame::new(Request::Preload { model_id: 999 }));
        }
        send(RequestFrame::new(Request::Preload { model_id: 1 }));
        for _ in 0..3 {
            svc.answer(b"not json", QueueGauges::default());
        }
        for _ in 0..13 {
            send(RequestFrame::with_deadline(Request::Ping, 10));
        }
        // 16 calibrate at 0.15 GFLOPS/W; 32 at 0.10 trip, 16 back at
        // 0.15 clear, 32 at 0.10 trip again
        for (gflops, n) in [(30.0, 16), (20.0, 32), (30.0, 16), (20.0, 32)] {
            for _ in 0..n {
                send(outcome(gflops));
            }
        }
        for _ in 0..12 {
            svc.stats().busy_rejections.bump(); // as the accept loop bounces
        }

        let snap = svc.snapshot(QueueGauges::default());
        let requests = 7 + 2 + 4 + 7 + 3 + 13 + 96;
        let table = [
            ("requests_total", snap.requests_total, requests),
            ("predictions", snap.predictions, 7 + 2 + 4 * 2),
            ("cache_hits", snap.cache_hits, 7 + 4),
            ("cache_misses", snap.cache_misses, 2 + 4),
            ("busy_rejections", snap.busy_rejections, 12),
            ("deadline_exceeded", snap.deadline_exceeded, 13),
            ("errors", snap.errors, 6 + 3),
            ("preloads", snap.preloads, 7),
            ("store_catchups", snap.store_catchups, 3),
            ("batches", snap.batches, 4),
            ("batched_keys", snap.batched_keys, 8),
            ("drift_trips", snap.drift_trips, 2),
            ("drift_clears", snap.drift_clears, 1),
        ];
        for (name, field, expected) in table {
            let cell = svc.telemetry().counter(&format!("daemon.{name}")).get();
            assert_eq!((field, cell), (expected, expected), "daemon.{name}");
        }
        assert_eq!(svc.telemetry().histogram("daemon.batch_keys").count(), 4);
        let latency = svc.telemetry().histogram("daemon.service_us");
        assert_eq!(latency.count(), requests);
        assert_eq!(
            (snap.latency_p50_us, snap.latency_p99_us, snap.latency_max_us),
            (latency.percentile_us(0.50), latency.percentile_us(0.99), latency.max_us())
        );
    }

    #[test]
    fn deadline_is_enforced_on_the_injected_clock() {
        let (store, dir) = StaticBackend::new(vec![]).store();
        let svc = PredictService::with_clock(store, dir, Arc::new(JumpClock(AtomicU64::new(0))));
        let payload = frame_bytes(&RequestFrame::with_deadline(Request::Ping, 10));
        assert!(matches!(svc.handle_frame(&payload, QueueGauges::default()), Response::DeadlineExceeded));
        assert_eq!(svc.snapshot(QueueGauges::default()).deadline_exceeded, 1);
    }
}
