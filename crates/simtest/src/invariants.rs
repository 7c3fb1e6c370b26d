//! The ledger: an independent double-entry record of what the simulated
//! network delivered to the daemon, checked against the daemon's own
//! counters.
//!
//! Two layers of checking:
//!
//! * **per exchange** — [`Ledger::record_exchange`] diffs the daemon's
//!   counter snapshot across one `handle_frame` call and verifies the
//!   delta is exactly what that (request, response) pair permits: one
//!   request counted, predictions and hit/miss move together, the
//!   deadline verdict matches the *virtual* elapsed time, and errors are
//!   only counted when an error (or a deadline-masked error) happened;
//! * **per incarnation** — [`Ledger::check`] compares running totals
//!   against a final snapshot when the daemon "crashes" (conservation:
//!   `requests_total` = frames delivered, `hits + misses` = predictions,
//!   every busy bounce accounted, response kinds sum to deliveries).
//!
//! The ledger lives *outside* the daemon on purpose: it would catch a
//! daemon that drops, double-counts, or half-applies a frame.

use std::collections::BTreeMap;

use chronus::remote::{KeyOutcome, Request, RequestFrame, Response, StatsSnapshot};

/// A stable label for a request verb (event log + ledger keys).
pub fn verb_of(request: &Request) -> &'static str {
    match request {
        Request::Ping => "Ping",
        Request::Predict { .. } => "Predict",
        Request::PredictMany { .. } => "PredictMany",
        Request::Preload { .. } => "Preload",
        Request::Stats => "Stats",
        Request::ReportOutcome { .. } => "ReportOutcome",
    }
}

/// A stable label for a response kind (event log + ledger keys).
pub fn kind_of(response: &Response) -> &'static str {
    match response {
        Response::Pong => "Pong",
        Response::Config(_) => "Config",
        Response::Preloaded { .. } => "Preloaded",
        Response::Stats(_) => "Stats",
        Response::ManyConfigs { .. } => "ManyConfigs",
        Response::Busy { .. } => "Busy",
        Response::Miss { .. } => "Miss",
        Response::DeadlineExceeded => "DeadlineExceeded",
        Response::Error { .. } => "Error",
        Response::OutcomeAck { .. } => "OutcomeAck",
    }
}

/// What the network actually did to one daemon incarnation.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Frames the daemon's service actually handled.
    pub delivered: u64,
    /// Prediction *keys* delivered: 1 per `Predict` frame plus the key
    /// count of every accepted `PredictMany` — conservation counts
    /// batched keys, not frames.
    pub predicts: u64,
    /// `PredictMany` frames the daemon accepted (within the batch cap).
    pub batches: u64,
    /// Keys carried by those accepted batches.
    pub batched_keys: u64,
    /// `Busy` bounces the network injected on the daemon's behalf.
    pub busy_injected: u64,
    /// Response kind → count, for the sum check.
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Errors the daemon visibly answered: `Error` responses plus
    /// per-key `Error` outcomes inside `ManyConfigs` replies.
    pub errors_observed: u64,
    /// Upper bound on deadline-masked errors: 1 per single-frame
    /// `DeadlineExceeded` verdict, the key count for a batched one.
    pub error_slack: u64,
    /// How many deliveries were `Preload` (each allocates at most one
    /// rollout generation, committed or rolled back).
    pub preloads: u64,
    /// `OutcomeAck` answers observed (each moves exactly one of the
    /// daemon's ingested/rejected outcome counters).
    pub outcome_acks: u64,
    /// Upper bound on deadline-masked outcome reports: 1 per
    /// `DeadlineExceeded` verdict on a `ReportOutcome` frame (the
    /// monitor already counted the outcome, the answer was hidden).
    pub outcome_slack: u64,
}

impl Ledger {
    /// Forget everything — a fresh daemon incarnation starts at zero.
    pub fn reset(&mut self) {
        *self = Ledger::default();
    }

    /// Deliveries answered `DeadlineExceeded` so far.
    pub fn deadline_count(&self) -> u64 {
        self.by_kind.get("DeadlineExceeded").copied().unwrap_or(0)
    }

    /// Records one delivered frame and verifies the counter delta it
    /// produced. `elapsed_ms` is the *virtual* time `handle_frame` took.
    pub fn record_exchange(
        &mut self,
        frame: &RequestFrame,
        response: &Response,
        before: &StatsSnapshot,
        after: &StatsSnapshot,
        elapsed_ms: u64,
    ) -> Result<(), String> {
        self.delivered += 1;
        *self.by_kind.entry(kind_of(response)).or_insert(0) += 1;
        let is_predict = matches!(frame.body, Request::Predict { .. });
        let batch_keys = match &frame.body {
            Request::PredictMany { keys } => Some(keys.len() as u64),
            _ => None,
        };
        let is_preload = matches!(frame.body, Request::Preload { .. });
        if is_preload {
            self.preloads += 1;
        }
        let is_error = matches!(response, Response::Error { .. });
        let is_deadline = matches!(response, Response::DeadlineExceeded);

        let verb = verb_of(&frame.body);
        let kind = kind_of(response);
        let fail = |what: &str| Err(format!("{what} (verb {verb}, response {kind}, elapsed {elapsed_ms}ms)"));

        // Batched exchanges: every key in a batch is answered exactly
        // once (a `ManyConfigs` always carries one outcome per key) or
        // the whole batch fails with a typed answer — never a silent
        // partial loss.
        if let Some(k) = batch_keys {
            match response {
                Response::ManyConfigs { results } => {
                    if results.len() as u64 != k {
                        return fail("every key in a batch must be answered exactly once");
                    }
                }
                Response::Error { .. } | Response::DeadlineExceeded => {}
                _ => {
                    return fail("a batch may only be answered ManyConfigs, a whole-batch Error, or DeadlineExceeded")
                }
            }
        } else if matches!(response, Response::ManyConfigs { .. }) {
            return fail("ManyConfigs answered a frame that was not a batch");
        }
        // An accepted batch (anything but the whole-batch Error reject)
        // counts its frame and keys even under a deadline verdict: the
        // daemon bumps batch counters before the per-key loop.
        let accepted = batch_keys.is_some() && !is_error;
        let prediction_keys = match batch_keys {
            Some(k) if accepted => k,
            Some(_) => 0,
            None => u64::from(is_predict),
        };
        self.predicts += prediction_keys;
        if accepted {
            self.batches += 1;
            self.batched_keys += batch_keys.unwrap_or(0);
        }
        if after.batches - before.batches != u64::from(accepted) {
            return fail("batches counter moved out of step with accepted PredictMany deliveries");
        }
        if after.batched_keys - before.batched_keys != if accepted { batch_keys.unwrap_or(0) } else { 0 } {
            return fail("batched_keys counter moved out of step with accepted batch keys");
        }

        if after.requests_total - before.requests_total != 1 {
            return fail("one delivered frame must count exactly one request");
        }
        let d_predictions = after.predictions - before.predictions;
        if d_predictions != prediction_keys {
            return fail("predictions counter moved out of step with delivered prediction keys");
        }
        let d_cache = (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses);
        if d_cache != d_predictions {
            return fail("every prediction must be either a cache hit or a cache miss");
        }

        // The deadline verdict must be a pure function of virtual elapsed
        // time vs the frame's budget — never of host scheduling jitter.
        let over_budget = frame.deadline_ms.is_some_and(|budget| elapsed_ms > budget);
        if is_deadline != over_budget {
            return fail("deadline verdict disagrees with virtual elapsed time vs budget");
        }
        if after.deadline_exceeded - before.deadline_exceeded != u64::from(is_deadline) {
            return fail("deadline_exceeded counter moved out of step with the verdict");
        }

        // Errors: an `Error` response counts exactly once, a
        // `ManyConfigs` exactly its per-key `Error` outcomes; a deadline
        // verdict may mask up to one underlying error per prediction key
        // (counted but not returned); nothing else may touch the counter.
        let key_errors = match response {
            Response::ManyConfigs { results } => {
                results.iter().filter(|o| matches!(o, KeyOutcome::Error { .. })).count() as u64
            }
            _ => 0,
        };
        self.errors_observed += if is_error { 1 } else { key_errors };
        let d_errors = after.errors - before.errors;
        if is_deadline {
            let maskable = batch_keys.unwrap_or(1);
            self.error_slack += maskable;
            if d_errors > maskable {
                return fail("errors counter exceeded what a deadline verdict can mask");
            }
        } else {
            let expected = if is_error { 1 } else { key_errors };
            if d_errors != expected {
                return fail("each Error answer must count exactly one error (per-key errors included)");
            }
        }

        // The preload counter is a pure delivery count, and store
        // catch-up is a boot/idle action — neither may move except as
        // its trigger dictates while a frame is in flight.
        if after.preloads - before.preloads != u64::from(is_preload) {
            return fail("preloads counter moved out of step with Preload deliveries");
        }
        if after.store_catchups != before.store_catchups {
            return fail("store_catchups moved during frame handling (catch-up happens at boot, never mid-frame)");
        }

        // Rollout generations: the committed generation only ever moves
        // forward, and only a Preload may move it. A rollback means a
        // Preload allocated a generation and failed — which must also
        // have counted an error (possibly deadline-masked).
        if after.model_generation < before.model_generation {
            return fail("model_generation went backwards");
        }
        if after.model_generation > before.model_generation && !is_preload {
            return fail("model_generation advanced on a non-Preload frame");
        }
        let d_rollbacks = after.generation_rollbacks - before.generation_rollbacks;
        if d_rollbacks > 1 {
            return fail("generation_rollbacks jumped by more than one for a single frame");
        }
        if d_rollbacks == 1 {
            if !is_preload {
                return fail("generation rollback on a non-Preload frame");
            }
            if d_errors != 1 {
                return fail("a rolled-back rollout must count exactly one error");
            }
            if after.model_generation != before.model_generation {
                return fail("a rolled-back rollout must not move the committed generation");
            }
        }

        // Outcome reports: a ReportOutcome may only be answered
        // OutcomeAck, a whole-frame Error, or DeadlineExceeded; an
        // ack moves exactly one of ingested/rejected, matching its
        // accepted flag; and nothing else may touch those counters.
        let is_outcome = matches!(frame.body, Request::ReportOutcome { .. });
        if is_outcome {
            if !matches!(response, Response::OutcomeAck { .. } | Response::Error { .. } | Response::DeadlineExceeded)
            {
                return fail("a ReportOutcome may only be answered OutcomeAck, Error, or DeadlineExceeded");
            }
        } else if matches!(response, Response::OutcomeAck { .. }) {
            return fail("OutcomeAck answered a frame that was not a ReportOutcome");
        }
        let d_ingested = after.outcomes_ingested - before.outcomes_ingested;
        let d_rejected = after.outcomes_rejected - before.outcomes_rejected;
        match response {
            Response::OutcomeAck { accepted } => {
                self.outcome_acks += 1;
                if d_ingested != u64::from(*accepted) {
                    return fail("outcomes_ingested moved out of step with the ack's accepted flag");
                }
                if d_rejected != u64::from(!*accepted) {
                    return fail("outcomes_rejected moved out of step with the ack's accepted flag");
                }
            }
            Response::DeadlineExceeded if is_outcome => {
                self.outcome_slack += 1;
                if d_ingested + d_rejected > 1 {
                    return fail("a deadline-masked outcome report can move the outcome counters at most once");
                }
            }
            _ => {
                if d_ingested + d_rejected != 0 {
                    return fail("outcome counters moved on a non-ReportOutcome exchange");
                }
            }
        }

        // Stale-generation refusals: only a prediction key can hit a
        // stale registry entry (at most one per key in the frame), and
        // each stale refusal falls through to the backend, so it is
        // also a cache miss.
        let d_stale = after.stale_generation_hits - before.stale_generation_hits;
        if d_stale > prediction_keys {
            return fail("more stale-generation hits than prediction keys in the frame");
        }
        if d_stale > 0 && after.cache_misses - before.cache_misses < d_stale {
            return fail("a stale-generation refusal must also count a cache miss");
        }
        Ok(())
    }

    /// Conservation check for one whole daemon incarnation against its
    /// final counter snapshot.
    pub fn check(&self, snapshot: &StatsSnapshot) -> Result<(), String> {
        if snapshot.requests_total != self.delivered {
            return Err(format!("requests_total {} != frames delivered {}", snapshot.requests_total, self.delivered));
        }
        if snapshot.predictions != self.predicts {
            return Err(format!(
                "predictions {} != prediction keys delivered {}",
                snapshot.predictions, self.predicts
            ));
        }
        if snapshot.batches != self.batches {
            return Err(format!("batches {} != accepted PredictMany frames {}", snapshot.batches, self.batches));
        }
        if snapshot.batched_keys != self.batched_keys {
            return Err(format!(
                "batched_keys {} != keys carried by accepted batches {}",
                snapshot.batched_keys, self.batched_keys
            ));
        }
        if snapshot.cache_hits + snapshot.cache_misses != snapshot.predictions {
            return Err(format!(
                "hits {} + misses {} != predictions {}",
                snapshot.cache_hits, snapshot.cache_misses, snapshot.predictions
            ));
        }
        if snapshot.busy_rejections != self.busy_injected {
            return Err(format!(
                "busy_rejections {} != injected busy bounces {}",
                snapshot.busy_rejections, self.busy_injected
            ));
        }
        if snapshot.deadline_exceeded != self.deadline_count() {
            return Err(format!(
                "deadline_exceeded {} != DeadlineExceeded responses {}",
                snapshot.deadline_exceeded,
                self.deadline_count()
            ));
        }
        let kinds: u64 = self.by_kind.values().sum();
        if kinds != self.delivered {
            return Err(format!("response kinds sum {kinds} != frames delivered {}", self.delivered));
        }
        // A deadline verdict may mask errors that were already counted
        // (one per prediction key in the frame), so the daemon's error
        // counter may exceed the errors we saw answered — but never by
        // more than the accumulated slack.
        if snapshot.errors < self.errors_observed || snapshot.errors > self.errors_observed + self.error_slack {
            return Err(format!(
                "errors {} outside [{}, {}] (answered errors .. + deadline-masked slack)",
                snapshot.errors,
                self.errors_observed,
                self.errors_observed + self.error_slack
            ));
        }
        if snapshot.preloads != self.preloads {
            return Err(format!("preloads {} != Preload frames {}", snapshot.preloads, self.preloads));
        }
        // Generation conservation: each Preload delivery allocates at
        // most one rollout generation, and each store catch-up (boot
        // self-serve) commits exactly one — so the
        // committed generation can never exceed their sum, and the
        // rollback count can never exceed the Preloads we delivered.
        // A stale refusal is always also a miss.
        if snapshot.model_generation > self.preloads + snapshot.store_catchups {
            return Err(format!(
                "model_generation {} > Preload frames {} + store catch-ups {} (phantom rollout commit)",
                snapshot.model_generation, self.preloads, snapshot.store_catchups
            ));
        }
        if snapshot.generation_rollbacks > self.preloads {
            return Err(format!(
                "generation_rollbacks {} > Preload frames {}",
                snapshot.generation_rollbacks, self.preloads
            ));
        }
        if snapshot.stale_generation_hits > snapshot.cache_misses {
            return Err(format!(
                "stale_generation_hits {} > cache_misses {} (a stale refusal is also a miss)",
                snapshot.stale_generation_hits, snapshot.cache_misses
            ));
        }
        // Outcome conservation: every counted outcome was either acked
        // or masked by a deadline verdict on its ReportOutcome frame.
        let outcomes_counted = snapshot.outcomes_ingested + snapshot.outcomes_rejected;
        if outcomes_counted < self.outcome_acks || outcomes_counted > self.outcome_acks + self.outcome_slack {
            return Err(format!(
                "outcomes counted {outcomes_counted} outside [{}, {}] (acks .. + deadline-masked slack)",
                self.outcome_acks,
                self.outcome_acks + self.outcome_slack
            ));
        }
        // Drift hysteresis: a detector can only clear after tripping.
        if snapshot.drift_clears > snapshot.drift_trips {
            return Err(format!(
                "drift_clears {} > drift_trips {} (a detector can only clear after a trip)",
                snapshot.drift_clears, snapshot.drift_trips
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(requests: u64, predictions: u64, hits: u64, misses: u64) -> StatsSnapshot {
        StatsSnapshot {
            requests_total: requests,
            predictions,
            cache_hits: hits,
            cache_misses: misses,
            ..Default::default()
        }
    }

    #[test]
    fn clean_exchange_passes_and_accumulates() {
        let mut ledger = Ledger::default();
        let frame = RequestFrame::new(Request::Predict { system_hash: 1, binary_hash: 2 });
        let cfg = eco_sim_node::cpu::CpuConfig::new(4, 2_000_000, 1);
        ledger.record_exchange(&frame, &Response::Config(cfg), &snap(0, 0, 0, 0), &snap(1, 1, 0, 1), 3).unwrap();
        assert_eq!((ledger.delivered, ledger.predicts), (1, 1));
        ledger.check(&snap(1, 1, 0, 1)).unwrap();
    }

    #[test]
    fn dropped_count_is_caught() {
        let mut ledger = Ledger::default();
        let frame = RequestFrame::new(Request::Ping);
        // daemon "forgot" to count the request: before == after
        let err =
            ledger.record_exchange(&frame, &Response::Pong, &snap(5, 0, 0, 0), &snap(5, 0, 0, 0), 0).unwrap_err();
        assert!(err.contains("exactly one request"), "{err}");
    }

    #[test]
    fn deadline_verdict_must_match_virtual_time() {
        let mut ledger = Ledger::default();
        let frame = RequestFrame::with_deadline(Request::Ping, 10);
        // 20ms elapsed on a 10ms budget but the daemon answered Pong
        let err =
            ledger.record_exchange(&frame, &Response::Pong, &snap(0, 0, 0, 0), &snap(1, 0, 0, 0), 20).unwrap_err();
        assert!(err.contains("deadline verdict"), "{err}");
    }

    #[test]
    fn generation_may_only_advance_on_a_preload() {
        let mut ledger = Ledger::default();
        let frame = RequestFrame::new(Request::Ping);
        let mut after = snap(1, 0, 0, 0);
        after.model_generation = 1; // generation moved while we pinged
        let err = ledger.record_exchange(&frame, &Response::Pong, &snap(0, 0, 0, 0), &after, 0).unwrap_err();
        assert!(err.contains("non-Preload"), "{err}");
    }

    #[test]
    fn rollback_requires_a_counted_error() {
        let mut ledger = Ledger::default();
        let frame = RequestFrame::new(Request::Preload { model_id: 7 });
        let mut after = snap(1, 0, 0, 0);
        after.generation_rollbacks = 1; // rolled back but no error counted
        let err = ledger
            .record_exchange(&frame, &Response::Error { message: "load failed".into() }, &snap(0, 0, 0, 0), &after, 0)
            .unwrap_err();
        assert!(err.contains("exactly one error"), "{err}");
    }

    #[test]
    fn stale_refusal_must_also_be_a_miss() {
        let mut ledger = Ledger::default();
        let frame = RequestFrame::new(Request::Predict { system_hash: 1, binary_hash: 2 });
        let cfg = eco_sim_node::cpu::CpuConfig::new(4, 2_000_000, 1);
        let mut after = snap(1, 1, 1, 0); // counted as a *hit*...
        after.stale_generation_hits = 1; // ...yet claims a stale refusal
        let err = ledger.record_exchange(&frame, &Response::Config(cfg), &snap(0, 0, 0, 0), &after, 0).unwrap_err();
        assert!(err.contains("cache miss"), "{err}");
    }

    #[test]
    fn conservation_catches_phantom_rollout_commit() {
        let ledger = Ledger::default(); // zero Preloads delivered
        let mut snapshot = snap(0, 0, 0, 0);
        snapshot.model_generation = 3;
        let err = ledger.check(&snapshot).unwrap_err();
        assert!(err.contains("phantom rollout commit"), "{err}");
    }

    #[test]
    fn store_catchups_explain_generations_no_preload_delivered() {
        // A store-backed replica boots at generation 2 with zero
        // Preload frames ever delivered: conservation must accept it…
        let ledger = Ledger::default();
        let mut snapshot = snap(0, 0, 0, 0);
        snapshot.model_generation = 2;
        snapshot.store_catchups = 2;
        ledger.check(&snapshot).unwrap();
        // …but a generation beyond Preloads + catch-ups is phantom.
        snapshot.model_generation = 3;
        let err = ledger.check(&snapshot).unwrap_err();
        assert!(err.contains("phantom rollout commit"), "{err}");
    }

    #[test]
    fn store_catchup_during_a_frame_is_caught() {
        let mut ledger = Ledger::default();
        let frame = RequestFrame::new(Request::Ping);
        let mut after = snap(1, 0, 0, 0);
        after.store_catchups = 1; // catch-up ran mid-frame
        let err = ledger.record_exchange(&frame, &Response::Pong, &snap(0, 0, 0, 0), &after, 0).unwrap_err();
        assert!(err.contains("store_catchups"), "{err}");
    }

    fn batch_frame(keys: usize) -> RequestFrame {
        RequestFrame::new(Request::PredictMany { keys: (0..keys as u64).map(|i| (i, i)).collect() })
    }

    fn batch_snap(requests: u64, keys: u64, hits: u64, misses: u64) -> StatsSnapshot {
        let mut s = snap(requests, keys, hits, misses);
        s.batches = requests;
        s.batched_keys = keys;
        s
    }

    #[test]
    fn batch_exchange_counts_keys_not_frames() {
        let mut ledger = Ledger::default();
        let cfg = eco_sim_node::cpu::CpuConfig::new(4, 2_000_000, 1);
        let results = vec![KeyOutcome::Config(cfg), KeyOutcome::Miss, KeyOutcome::Miss];
        ledger
            .record_exchange(
                &batch_frame(3),
                &Response::ManyConfigs { results },
                &snap(0, 0, 0, 0),
                &batch_snap(1, 3, 1, 2),
                0,
            )
            .unwrap();
        assert_eq!((ledger.delivered, ledger.predicts, ledger.batches, ledger.batched_keys), (1, 3, 1, 3));
        ledger.check(&batch_snap(1, 3, 1, 2)).unwrap();
    }

    #[test]
    fn partial_batch_answer_is_caught() {
        let mut ledger = Ledger::default();
        // 3 keys in, only 2 outcomes back: a silently dropped key.
        let results = vec![KeyOutcome::Miss, KeyOutcome::Miss];
        let err = ledger
            .record_exchange(
                &batch_frame(3),
                &Response::ManyConfigs { results },
                &snap(0, 0, 0, 0),
                &batch_snap(1, 3, 0, 3),
                0,
            )
            .unwrap_err();
        assert!(err.contains("exactly once"), "{err}");
    }

    #[test]
    fn oversize_reject_must_not_move_batch_counters() {
        let mut ledger = Ledger::default();
        let mut after = snap(1, 0, 0, 0);
        after.errors = 1;
        after.batches = 1; // rejected whole, yet counted as accepted
        let err = ledger
            .record_exchange(
                &batch_frame(2),
                &Response::Error { message: "batch of 2 keys exceeds the limit".into() },
                &snap(0, 0, 0, 0),
                &after,
                0,
            )
            .unwrap_err();
        assert!(err.contains("batches counter"), "{err}");
    }

    #[test]
    fn per_key_errors_count_in_the_error_ledger() {
        let mut ledger = Ledger::default();
        let cfg = eco_sim_node::cpu::CpuConfig::new(4, 2_000_000, 1);
        let results =
            vec![KeyOutcome::Config(cfg), KeyOutcome::Error { message: "backend".into() }, KeyOutcome::Miss];
        let mut after = batch_snap(1, 3, 1, 2);
        after.errors = 1;
        ledger
            .record_exchange(&batch_frame(3), &Response::ManyConfigs { results }, &snap(0, 0, 0, 0), &after, 0)
            .unwrap();
        assert_eq!(ledger.errors_observed, 1);
        ledger.check(&after).unwrap();
    }

    #[test]
    fn batched_deadline_may_mask_at_most_its_key_count() {
        let mut ledger = Ledger::default();
        let frame = RequestFrame::with_deadline(Request::PredictMany { keys: vec![(1, 1), (2, 2)] }, 5);
        let mut after = batch_snap(1, 2, 0, 2);
        after.deadline_exceeded = 1;
        after.errors = 3; // more masked errors than keys in the batch
        let err =
            ledger.record_exchange(&frame, &Response::DeadlineExceeded, &snap(0, 0, 0, 0), &after, 10).unwrap_err();
        assert!(err.contains("deadline verdict can mask"), "{err}");
    }

    fn outcome_frame() -> RequestFrame {
        RequestFrame::new(Request::ReportOutcome {
            system_hash: 1,
            binary_hash: 2,
            outcome: chronus::remote::ObservedOutcome {
                config: eco_sim_node::cpu::CpuConfig::new(4, 2_000_000, 1),
                gflops: 30.0,
                watts: 200.0,
                duration_s: 60.0,
                node_class: String::new(),
            },
        })
    }

    #[test]
    fn outcome_ack_must_match_the_counter_it_moved() {
        let mut ledger = Ledger::default();
        let mut after = snap(1, 0, 0, 0);
        after.outcomes_ingested = 1;
        ledger
            .record_exchange(&outcome_frame(), &Response::OutcomeAck { accepted: true }, &snap(0, 0, 0, 0), &after, 0)
            .unwrap();
        assert_eq!(ledger.outcome_acks, 1);
        ledger.check(&after).unwrap();

        // an accepted ack that moved the *rejected* counter is a lie
        let mut ledger = Ledger::default();
        let mut bad = snap(1, 0, 0, 0);
        bad.outcomes_rejected = 1;
        let err = ledger
            .record_exchange(&outcome_frame(), &Response::OutcomeAck { accepted: true }, &snap(0, 0, 0, 0), &bad, 0)
            .unwrap_err();
        assert!(err.contains("accepted flag"), "{err}");
    }

    #[test]
    fn outcome_counters_must_not_move_on_other_frames() {
        let mut ledger = Ledger::default();
        let frame = RequestFrame::new(Request::Ping);
        let mut after = snap(1, 0, 0, 0);
        after.outcomes_ingested = 1; // an outcome snuck in during a ping
        let err = ledger.record_exchange(&frame, &Response::Pong, &snap(0, 0, 0, 0), &after, 0).unwrap_err();
        assert!(err.contains("non-ReportOutcome"), "{err}");
    }

    #[test]
    fn outcome_ack_may_not_answer_other_verbs() {
        let mut ledger = Ledger::default();
        let frame = RequestFrame::new(Request::Ping);
        let err = ledger
            .record_exchange(
                &frame,
                &Response::OutcomeAck { accepted: true },
                &snap(0, 0, 0, 0),
                &snap(1, 0, 0, 0),
                0,
            )
            .unwrap_err();
        assert!(err.contains("was not a ReportOutcome"), "{err}");
    }

    #[test]
    fn an_error_on_an_outcome_moves_no_outcome_counter() {
        // a whole-frame Error is a legal answer to a ReportOutcome, and
        // leaves the outcome counters where they were
        let mut ledger = Ledger::default();
        let mut after = snap(1, 0, 0, 0);
        after.errors = 1;
        ledger
            .record_exchange(
                &outcome_frame(),
                &Response::Error { message: "malformed request".into() },
                &snap(0, 0, 0, 0),
                &after,
                0,
            )
            .unwrap();
        ledger.check(&after).unwrap();
    }

    #[test]
    fn conservation_catches_phantom_outcomes_and_phantom_clears() {
        let ledger = Ledger::default();
        let mut snapshot = snap(0, 0, 0, 0);
        snapshot.outcomes_ingested = 2; // counted but never acked or masked
        let err = ledger.check(&snapshot).unwrap_err();
        assert!(err.contains("outcomes counted"), "{err}");

        let mut snapshot = snap(0, 0, 0, 0);
        snapshot.drift_clears = 1; // cleared without ever tripping
        let err = ledger.check(&snapshot).unwrap_err();
        assert!(err.contains("drift_clears"), "{err}");
    }

    #[test]
    fn conservation_catches_phantom_busy() {
        let ledger = Ledger::default();
        let mut snapshot = snap(0, 0, 0, 0);
        snapshot.busy_rejections = 1; // daemon claims a bounce we never injected
        let err = ledger.check(&snapshot).unwrap_err();
        assert!(err.contains("busy_rejections"), "{err}");
    }
}
