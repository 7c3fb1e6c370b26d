//! The daemon's request engine, independent of any transport.
//!
//! [`PredictService`] owns the registry, backend, counters and shutdown
//! flag, and turns one request frame into one response. A model the
//! backend resolves — at boot catch-up, for a `Preload`, on a registry
//! miss — is installed in one step: one registry insert, visible to the
//! next lookup. The backend is the daemon's one model source; a
//! store-backed daemon's backend is its store
//! ([`crate::backend::StoreModelBackend`]), and everything else the
//! service reads from a store comes through [`ModelBackend::store`].
//!
//! The TCP server in [`crate::server`] feeds it frames read off one
//! thread per connection; the `simtest` harness feeds it frames over an
//! in-memory channel on virtual time. Keeping the engine transport-free
//! is what makes the daemon's semantics (deadline accounting, miss/error
//! classification, counter conservation) testable deterministically.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use chronus::error::ChronusError;
use chronus::remote::{
    fastpath, wire, KeyOutcome, ObservedOutcome, Request, Response, StatsSnapshot, MAX_BATCH_KEYS,
};
use chronus::telemetry::{Telemetry, TraceContext};
use eco_adapt::Monitor;
use eco_store::ModelStore;
use parking_lot::Mutex;

use crate::backend::{verified, ModelBackend, PreparedModel, StoreModelBackend};
use crate::registry::{Lookup, ModelRegistry};
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
    /// Models installed, one registry generation each.
    pub installed: usize,
    /// Serving records refused because their blob failed verification
    /// (missing, hash mismatch, or unparseable) — never installed.
    pub rejected: Vec<String>,
}

/// The transport-independent daemon core: one instance per daemon,
/// shared by every connection (all methods take `&self`).
pub struct PredictService {
    registry: ModelRegistry,
    stats: ServerStats,
    backend: Arc<dyn ModelBackend>,
    telemetry: Arc<Telemetry>,
    shutdown: AtomicBool,
    replica: String,
    adapt: Monitor,
}

impl PredictService {
    /// A service on the wall clock whose registry holds `cache_cap`
    /// models. `_cache_shards` is ignored (the registry is one map); it
    /// stays because `benchmark/src/micro.rs` passes one.
    pub fn new(_cache_shards: usize, cache_cap: usize, backend: Arc<dyn ModelBackend>) -> PredictService {
        PredictService::with_clock(cache_cap, backend, Arc::new(WallClock::new()))
    }

    /// A service on an explicit clock (virtual time in simulation),
    /// with its own private telemetry over that clock.
    pub fn with_clock(
        cache_cap: usize,
        backend: Arc<dyn ModelBackend>,
        clock: Arc<dyn ServiceClock>,
    ) -> PredictService {
        PredictService::with_telemetry(cache_cap, backend, Arc::new(Telemetry::with_clock(clock)))
    }

    /// A service emitting through an externally owned [`Telemetry`] —
    /// counters, the latency histogram and request spans all land in
    /// its namespace, and the service's clock is the telemetry clock.
    /// The simulation harness hands successive daemon incarnations
    /// fresh `Telemetry` instances sharing one recorder, so counters
    /// reset on restart while the trace timeline persists.
    pub fn with_telemetry(
        cache_cap: usize,
        backend: Arc<dyn ModelBackend>,
        telemetry: Arc<Telemetry>,
    ) -> PredictService {
        PredictService {
            registry: ModelRegistry::new(1, cache_cap),
            stats: ServerStats::over(&telemetry),
            backend,
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

    /// Replaces the model source with the durable store at `dir`, as
    /// if built over [`StoreModelBackend::new`]. `benchmark/src/micro.rs`
    /// builds its service this way.
    pub fn with_store(mut self, store: Arc<Mutex<ModelStore>>, dir: impl Into<String>) -> PredictService {
        self.backend = Arc::new(StoreModelBackend::new(store, dir));
        self
    }

    /// Self-serve catch-up: installs every record the backend's store
    /// says should be serving ([`ModelStore::serving`] — the ledger
    /// folded with rollback-rewind semantics), each as its own registry
    /// generation, oldest first. Every record comes through [`verified`]
    /// *before* it installs: a model whose blob fails verification is
    /// reported and never served. A serving set larger than the registry
    /// leaves its newest records resident; the rest the store resolves
    /// on their first request. No-op for a backend that is not a store.
    pub fn catch_up_from_store(&self) -> StoreCatchUp {
        let mut report = StoreCatchUp::default();
        let Some((store, _)) = self.backend.store() else { return report };
        let mut store = store.lock();
        let _ = store.refresh();
        for record in store.serving() {
            match verified(&store, record) {
                Ok(model) => {
                    self.install(model, self.registry.begin_rollout());
                    self.stats.store_catchups.bump();
                    report.installed += 1;
                }
                Err(e) => report.rejected.push(e.to_string()),
            }
        }
        report
    }

    /// Installs `model` and publishes `generation`.
    fn install(&self, model: PreparedModel, generation: u64) {
        let key = (model.system_hash, model.binary_hash);
        self.registry.insert(key, model.model_id, model.model_type, model.config);
        self.registry.commit_rollout(generation);
    }

    /// The model registry (tests, preload-at-boot).
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

    /// The `stats` RPC's answer: counters, registry, store and monitor,
    /// plus the connection gauges the transport samples. Refits and canary
    /// verdicts are not here: the store's ledger records them
    /// (`chronus models`).
    pub fn snapshot(&self, gauges: QueueGauges) -> StatsSnapshot {
        let (store_dir, store_generation, models_by_class) = match self.backend.store() {
            Some((store, dir)) => {
                let store = store.lock();
                // serving-model counts per node class, from the ledger's
                // provenance (records predating classes land in `default`)
                let mut by_class = std::collections::BTreeMap::<String, u64>::new();
                for class in store.serving().into_iter().map(|r| r.provenance.node_class.as_str()) {
                    *by_class.entry(if class.is_empty() { "default" } else { class }.to_string()).or_default() += 1;
                }
                (dir.to_string(), store.high_water(), by_class.into_iter().collect())
            }
            None => (String::new(), 0, Vec::new()),
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
            evictions: self.registry.evictions(),
            model_generation: self.registry.generation(),
            preloads: s.preloads.get(),
            store_catchups: s.store_catchups.get(),
            batches: s.batches.get(),
            batched_keys: s.batched_keys.get(),
            store_dir,
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
                // the number is allocated before the load, so a load that
                // fails spends one and installs nothing
                self.stats.preloads.bump();
                let generation = self.registry.begin_rollout();
                match self.backend.load(model_id) {
                    Ok(model) => {
                        let response = Response::Preloaded {
                            model_id: model.model_id,
                            model_type: model.model_type.clone(),
                            system_hash: model.system_hash,
                            binary_hash: model.binary_hash,
                            generation,
                        };
                        self.install(model, generation);
                        response
                    }
                    Err(e) => {
                        self.stats.errors.bump();
                        Response::Error { message: e.to_string() }
                    }
                }
            }
            Request::Stats => {
                // the campaign CLI may have appended to a shared store
                // dir since boot; refresh (read-only — refresh never
                // truncates) so the generation gauge is current
                if let Some((store, _)) = self.backend.store() {
                    let _ = store.lock().refresh();
                }
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
    /// from the serving generation's fitted efficiency when a store
    /// knows it; a daemon over a fixed backend (tests, benches)
    /// self-calibrates from the first full window of observations.
    fn report_outcome(&self, system_hash: u64, binary_hash: u64, outcome: &ObservedOutcome) -> Response {
        let key = (system_hash, binary_hash);
        if !self.adapt.has_expectation(key) {
            if let Some((store, _)) = self.backend.store() {
                let store = store.lock();
                let expected = store.serving_for(system_hash, binary_hash).map(|r| r.provenance.best_gflops_per_watt);
                if let Some(expected) = expected.filter(|e| e.is_finite() && *e > 0.0) {
                    self.adapt.set_expectation(key, expected);
                }
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
    /// registry lookup (hit / miss), backend fallback on miss, and
    /// exactly one `prediction` + one `hit`-or-`miss` counter bump per
    /// key regardless of framing.
    fn predict_key(&self, system_hash: u64, binary_hash: u64, ctx: Option<TraceContext>) -> KeyOutcome {
        self.stats.predictions.bump();
        {
            let mut lookup = ctx.map(|c| self.telemetry.span_under(c, "daemon", "registry_lookup"));
            match self.registry.lookup(&(system_hash, binary_hash)) {
                Lookup::Hit { config, .. } => {
                    self.stats.cache_hits.bump();
                    if let Some(s) = &mut lookup {
                        s.attr("result", "hit");
                    }
                    return KeyOutcome::Config(config);
                }
                Lookup::Miss => {
                    self.stats.cache_misses.bump();
                    if let Some(s) = &mut lookup {
                        s.attr("result", "miss");
                    }
                }
            }
        }
        let mut backend_span = ctx.map(|c| self.telemetry.span_under(c, "daemon", "backend_lookup"));
        match self.backend.lookup(system_hash, binary_hash) {
            Ok(model) => {
                let config = model.config;
                self.registry.insert(
                    (model.system_hash, model.binary_hash),
                    model.model_id,
                    model.model_type,
                    config,
                );
                KeyOutcome::Config(config)
            }
            // "no answer for this key" is a protocol-level miss …
            Err(ChronusError::NotFound(_)) | Err(ChronusError::Model(_)) => {
                if let Some(s) = &mut backend_span {
                    s.attr("result", "miss");
                }
                KeyOutcome::Miss
            }
            // … anything else is the daemon's own problem
            Err(e) => {
                self.stats.errors.bump();
                if let Some(s) = &mut backend_span {
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
    use crate::backend::StaticBackend;
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
    fn predict_hits_backend_then_registry() {
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
        // the first, cold, lookup also consulted the backend under its handle
        let events = telemetry.recorder().trace_events(ctx.trace);
        let backend = events.iter().find(|e| e.name == "backend_lookup").expect("cold key also consults the backend");
        let first = events.iter().find(|e| e.layer == "daemon" && e.name == "handle").expect("recorded above");
        assert_eq!(backend.parent, Some(first.span));
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
    fn preload_commits_a_new_generation() {
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
    fn failed_preload_spends_a_number_without_moving_the_generation() {
        let svc = service_with_one_model();
        let payload = frame_bytes(&RequestFrame::new(Request::Preload { model_id: 999 }));
        assert!(matches!(svc.handle_frame(&payload, QueueGauges::default()), Response::Error { .. }));
        let snap = svc.snapshot(QueueGauges::default());
        assert_eq!((snap.model_generation, snap.errors), (0, 1), "a failed preload installs nothing");
        // the next successful rollout still gets a fresh generation number
        let ok = frame_bytes(&RequestFrame::new(Request::Preload { model_id: 1 }));
        match svc.handle_frame(&ok, QueueGauges::default()) {
            Response::Preloaded { generation, .. } => assert_eq!(generation, 2),
            other => panic!("expected Preloaded, got {other:?}"),
        }
        assert_eq!(svc.snapshot(QueueGauges::default()).model_generation, 2);
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

        let svc = PredictService::new(2, 8, over_store(store));
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
        assert_eq!(snap.model_generation, 1);
    }

    /// The one source of a store-backed daemon.
    fn over_store(store: ModelStore) -> Arc<StoreModelBackend> {
        Arc::new(StoreModelBackend::new(Arc::new(Mutex::new(store)), "/var/lib/chronus/store"))
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

        let svc = PredictService::new(2, 8, over_store(store));
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
        let svc = PredictService::new(2, 8, over_store(store));

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
        let svc = PredictService::new(2, 8, over_store(store));

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
        let svc = PredictService::with_clock(8, over_store(store), Arc::new(JumpClock(AtomicU64::new(0))));
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
        let backend = StaticBackend::new(vec![]);
        let svc = PredictService::with_clock(4, Arc::new(backend), Arc::new(JumpClock(AtomicU64::new(0))));
        let payload = frame_bytes(&RequestFrame::with_deadline(Request::Ping, 10));
        assert!(matches!(svc.handle_frame(&payload, QueueGauges::default()), Response::DeadlineExceeded));
        assert_eq!(svc.snapshot(QueueGauges::default()).deadline_exceeded, 1);
    }
}
