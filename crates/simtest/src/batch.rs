//! The batch world: batched prediction traffic under a fault plan.
//!
//! Where [`crate::fleet::run_fleet_seed`] exercises single-key failover
//! routing, [`run_batch_seed`] concentrates on what `PredictMany` adds:
//! mixed-size batches sent whole to the first healthy replica of a
//! three-replica fleet, mid-batch connection cuts, stale frames ahead
//! of and duplicates behind a tagged reply, partial-batch `Busy`
//! bounces and crashes between frames — every one of the thirteen
//! fault plans, driven by the seed it is paired with.
//!
//! Checked invariants, per seeded run:
//!
//! * **exactly-once per key** — `predict_many` returns precisely one
//!   outcome per asked key, every time, on every plan: a key is either
//!   answered with a config or a typed error, never silently dropped
//!   and never answered twice (the one key no model serves: `Miss`);
//! * **no cross-wiring** — on strict plans every answered key carries
//!   *its own* config (the tag check must never let reply N land on
//!   key M);
//! * **bounded batch cost** — one batched call consumes a bounded
//!   amount of virtual time even when it degrades to per-key failover;
//! * **ledger conservation** — every replica incarnation's counters
//!   audit clean under batched accounting (predictions count keys, not
//!   frames; `batches`/`batched_keys` move only on accepted batches),
//!   rollout churn included.
//!
//! Any violation panics with the seed, the plan and a replay command
//! ([`crate::sweep::fail`]).

use chronus::hash::{binary_hash, system_hash};
use chronus::remote::{CallOptions, PredictClient, RemoteError, Transport};
use chronusd::backend::PreparedModel;
use eco_sim_node::cpu::{CpuConfig, CpuSpec};
use rand::{Rng, SeedableRng, StdRng};

use crate::faults::FaultPlan;
use crate::net::{Injected, SimNet};
use crate::world::failover_client;

/// Replicas in the batch world (same shape as the fleet world, so a
/// batch has replicas to fail over to).
pub const BATCH_REPLICAS: usize = 3;

/// Modelled prediction keys in play, one model each (one more has none).
const KEYS: usize = 8;

/// Ceiling on the virtual time one `predict_many` call may consume.
/// Worst case every key in the largest batch degrades to the single-key
/// path and walks the fleet through retries, each attempt bounded by
/// dial/read timeouts and injected delays.
pub const MAX_BATCH_VIRTUAL_MS: u64 = 100_000;

/// Largest batch a round may ask for (keys repeat, exercising duplicate
/// keys inside one frame).
const MAX_ROUND_BATCH: usize = 32;

/// Batched rounds per phase of the choreography.
pub(crate) const ROUNDS_PER_PHASE: usize = 6;

/// What one seeded batch run produced (for assertions in tests).
#[derive(Debug)]
pub struct BatchReport {
    pub seed: u64,
    pub plan: String,
    /// The full virtual-time event log (byte-identical across replays).
    pub log: Vec<String>,
    /// `predict_many` calls issued.
    pub batch_calls: usize,
    /// Keys asked across all batched calls.
    pub keys_asked: usize,
    /// Keys answered as owed: a config, or `Miss` for the unmodelled key.
    pub keys_ok: usize,
    /// Keys answered with a typed error (must be 0 on strict plans).
    pub keys_failed: usize,
    /// Sum of the daemons' `batches` counters at the end of the run
    /// (only gathered on strict plans; 0 otherwise).
    pub daemon_batches: u64,
    /// What the simulated network delivered and injected.
    pub injected: Injected,
}

/// Runs the batched choreography once under `plan` with every random
/// choice derived from `seed`. Panics (with a replay command) on any
/// invariant violation; returns a report otherwise.
pub fn run_batch_seed(seed: u64, plan: &FaultPlan) -> BatchReport {
    // Distinct stream from the network's RNG, as in the other worlds,
    // so batch composition doesn't consume fault randomness.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x517c_c1b7_2722_0a95);
    let (mut driver, models) = BatchDriver::new("batched-binary-", plan);
    let net = SimNet::fleet(seed, plan.clone(), &["b0", "b1", "b2"], models);
    let telemetry = net.telemetry();
    let transports = (0..BATCH_REPLICAS).map(|i| Box::new(net.transport_for(i)) as Box<dyn Transport>).collect();
    let mut client = failover_client(transports).build().expect("batch client config is valid");
    client.set_telemetry(std::sync::Arc::clone(&telemetry));

    // Phase 1 — roll every model out, then steady-state batches.
    net.note("phase: rollout + steady batches".to_string());
    driver.roll_out_all(&mut client);
    for _ in 0..ROUNDS_PER_PHASE {
        driver.batch_once(&mut client, &mut rng, &net, "steady");
    }

    // Phase 2 — kill the first endpoint, where every batch goes while it
    // is healthy: its unanswered slots fall back per key until it is
    // voted off, and later batches go to the next replica.
    let victim = 0;
    net.note(format!("phase: kill b{victim}"));
    net.kill_replica(victim, 100_000);
    for _ in 0..ROUNDS_PER_PHASE {
        driver.batch_once(&mut client, &mut rng, &net, "kill");
    }

    // Phase 3 — partition the second endpoint: one healthy member left.
    let split = 1;
    net.note(format!("phase: partition b{split}"));
    net.partition_replica(split, 40);
    for _ in 0..ROUNDS_PER_PHASE {
        driver.batch_once(&mut client, &mut rng, &net, "partition");
    }

    // Phase 4 — heal, then interleave hot rollouts with batches: each
    // rollout refreshes a daemon's table while batched readers stream
    // through it, and every answer must still be a committed config.
    net.note("phase: heal + rollout churn".to_string());
    net.heal_all();
    for round in 0..ROUNDS_PER_PHASE {
        let id = 1 + (rng.gen_range(0..KEYS) as i64);
        let _ = client.preload(id, &CallOptions::default());
        net.note(format!("churn round {round}: re-preloaded model {id}"));
        driver.batch_once(&mut client, &mut rng, &net, "churn");
    }

    // On strict plans the daemons' own counters must show batched
    // traffic: frames on the `batches` counter and at least as many
    // keys on `batched_keys` (conservation counts keys, not frames).
    let mut daemon_batches = 0u64;
    if driver.strict {
        for (endpoint, outcome) in client.stats_all() {
            if let Ok(snap) = outcome {
                if snap.batched_keys < snap.batches {
                    driver.violations.push(format!(
                        "{endpoint}: batched_keys {} < batches {} (frames counted instead of keys)",
                        snap.batched_keys, snap.batches
                    ));
                }
                daemon_batches += snap.batches;
            }
        }
    }

    driver.violations.extend(net.finish());

    if !driver.violations.is_empty() {
        crate::sweep::fail("batch", seed, plan.name, &driver.violations, &net.export());
    }

    BatchReport {
        seed,
        plan: plan.name.to_string(),
        log: net.log(),
        batch_calls: driver.batch_calls,
        keys_asked: driver.keys_asked,
        keys_ok: driver.keys_ok,
        keys_failed: driver.keys_failed,
        daemon_batches,
        injected: net.injected(),
    }
}

/// The batched traffic the batch and shm worlds share: the 9-key fixture
/// (binaries `{prefix}0` …, one model each for the first 8), the initial
/// rollout, one batched call at a time, and the counters and violations
/// a report carries.
pub(crate) struct BatchDriver {
    keys: Vec<(u64, u64)>,
    answers: Vec<CpuConfig>,
    /// Whether every key is owed its own config: the plan's faults are
    /// ones a retry beats. Every frame is tagged, so no stale or
    /// duplicated reply answers a key; a reordered one can still outlast
    /// a single's retries.
    strict: bool,
    pub(crate) violations: Vec<String>,
    pub(crate) batch_calls: usize,
    pub(crate) keys_asked: usize,
    pub(crate) keys_ok: usize,
    pub(crate) keys_failed: usize,
}

impl BatchDriver {
    /// The fixture for `plan`, and the models the daemons serve for it.
    pub(crate) fn new(prefix: &str, plan: &FaultPlan) -> (BatchDriver, Vec<PreparedModel>) {
        let sys = system_hash(&CpuSpec::epyc_7502p(), 256);
        let keys: Vec<(u64, u64)> = (0..=KEYS).map(|i| (sys, binary_hash(&format!("{prefix}{i}")))).collect();
        let answers: Vec<CpuConfig> =
            (0..KEYS).map(|i| CpuConfig::new(4 + i as u32 * 4, 1_500_000 + i as u64 * 100_000, 1)).collect();
        let models = (0..KEYS)
            .map(|i| PreparedModel {
                model_id: 1 + i as i64,
                model_type: "brute-force".into(),
                system_hash: keys[i].0,
                binary_hash: keys[i].1,
                config: answers[i],
            })
            .collect();
        let driver = BatchDriver {
            keys,
            answers,
            strict: plan.retry_beats_it(),
            violations: Vec::new(),
            batch_calls: 0,
            keys_asked: 0,
            keys_ok: 0,
            keys_failed: 0,
        };
        (driver, models)
    }

    /// Rolls every model out; on strict plans each must commit somewhere.
    pub(crate) fn roll_out_all(&mut self, client: &mut PredictClient) {
        for id in 1..=KEYS as i64 {
            if let Err(e) = client.preload(id, &CallOptions::default()) {
                if self.strict {
                    self.violations.push(format!("rollout of model {id} failed on every replica: {e}"));
                }
            }
        }
    }

    /// One `predict_many` of a random shape — empty (a no-op by
    /// contract), single (delegates to the unbatched path) or multi-key
    /// with repeats, the unmodelled key too — checked for exactly-once, no
    /// cross-wiring, no loss on strict plans and bounded virtual time.
    pub(crate) fn batch_once(&mut self, client: &mut PredictClient, rng: &mut StdRng, net: &SimNet, phase: &str) {
        let n = match rng.gen_range(0..8) {
            0 => 0,
            1 => 1,
            r => 2 + (r * MAX_ROUND_BATCH / 8).min(MAX_ROUND_BATCH - 2),
        };
        let asked: Vec<usize> = (0..n).map(|_| rng.gen_range(0..=KEYS)).collect();
        let batch: Vec<(u64, u64)> = asked.iter().map(|&i| self.keys[i]).collect();
        let call = self.batch_calls;
        self.batch_calls += 1;
        self.keys_asked += n;
        let t0 = net.now_ms();
        let results = client.predict_many(&batch, &CallOptions::default());
        let elapsed = net.now_ms() - t0;
        if results.len() != n {
            self.violations.push(format!(
                "batch #{call} ({phase}): asked {n} keys, got {} outcomes (exactly-once broken)",
                results.len()
            ));
            return;
        }
        for (slot, (&key_idx, outcome)) in asked.iter().zip(&results).enumerate() {
            let owed = self.answers.get(key_idx);
            match outcome {
                Err(RemoteError::Miss { .. }) if owed.is_none() => self.keys_ok += 1,
                Ok(cfg) => {
                    self.keys_ok += 1;
                    // Batches and their single-key fallback are both
                    // tagged, so a stale or duplicated reply is refused,
                    // never taken; checked on every strict plan, and by
                    // the codec proptests.
                    if self.strict && Some(cfg) != owed {
                        self.violations.push(format!(
                            "batch #{call} ({phase}) slot {slot}: key {key_idx} answered with the wrong config \
                             {cfg:?}, owed {owed:?} (cross-wired reply)"
                        ));
                    }
                }
                Err(e) => {
                    self.keys_failed += 1;
                    if self.strict {
                        self.violations.push(format!(
                            "batch #{call} ({phase}) slot {slot}: key {key_idx} lost ({e}) with a live daemon"
                        ));
                    }
                }
            }
        }
        if elapsed > MAX_BATCH_VIRTUAL_MS {
            self.violations.push(format!(
                "batch #{call} ({phase}) consumed {elapsed}ms of virtual time (budget {MAX_BATCH_VIRTUAL_MS}ms)"
            ));
        }
    }
}
