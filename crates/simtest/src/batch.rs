//! The batch world: batched prediction traffic under a fault plan.
//!
//! Where [`crate::fleet::run_fleet_seed`] exercises single-key failover
//! routing, [`run_batch_seed`] concentrates on what `PredictMany` adds:
//! mixed-size batches through the ring-aware splitter of a
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
//!   and never answered twice;
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
use chronus::remote::{CallOptions, PredictClient, Transport};
use chronusd::backend::PreparedModel;
use eco_sim_node::cpu::{CpuConfig, CpuSpec};
use rand::{Rng, SeedableRng, StdRng};

use crate::faults::FaultPlan;
use crate::net::{Injected, SimNet};
use crate::world::failover_client;

/// Replicas in the batch world (same shape as the fleet world, so the
/// ring-aware splitter has something to split over).
pub const BATCH_REPLICAS: usize = 3;

/// Distinct prediction keys in play (and models, one per key).
const BATCH_KEYS: usize = 8;

/// Ceiling on the virtual time one `predict_many` call may consume.
/// Worst case every key in the largest batch degrades to the single-key
/// path and walks the fleet through retries, each attempt bounded by
/// dial/read timeouts and injected delays.
pub const MAX_BATCH_VIRTUAL_MS: u64 = 100_000;

/// Largest batch a round may ask for (keys repeat, exercising duplicate
/// keys inside one frame).
const MAX_ROUND_BATCH: usize = 32;

/// Batched rounds per phase of the choreography.
const ROUNDS_PER_PHASE: usize = 6;

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
    /// Keys answered with a config.
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
    let spec = CpuSpec::epyc_7502p();
    let sys = system_hash(&spec, 256);
    let keys: Vec<(u64, u64)> = (0..BATCH_KEYS).map(|i| (sys, binary_hash(&format!("batched-binary-{i}")))).collect();
    let answers: Vec<CpuConfig> =
        (0..BATCH_KEYS).map(|i| CpuConfig::new(4 + i as u32 * 4, 1_500_000 + i as u64 * 100_000, 1)).collect();
    let models: Vec<PreparedModel> = (0..BATCH_KEYS)
        .map(|i| PreparedModel {
            model_id: 1 + i as i64,
            model_type: "brute-force".into(),
            system_hash: keys[i].0,
            binary_hash: keys[i].1,
            config: answers[i],
        })
        .collect();
    let net = SimNet::fleet(seed, plan.clone(), &["b0", "b1", "b2"], models);
    let telemetry = net.telemetry();
    let transports = (0..BATCH_REPLICAS).map(|i| Box::new(net.transport_for(i)) as Box<dyn Transport>).collect();
    let mut client = failover_client(plan, transports).build().expect("batch client config is valid");
    client.set_telemetry(std::sync::Arc::clone(&telemetry));

    // The tagged batch path itself survives stale and duplicated frames,
    // but unanswered slots fall back to the untagged single-key path.
    let strict = plan.retry_beats_it();
    let mut violations: Vec<String> = Vec::new();
    let mut batch_calls = 0usize;
    let mut keys_asked = 0usize;
    let mut keys_ok = 0usize;
    let mut keys_failed = 0usize;

    let mut batch_once = |client: &mut PredictClient, rng: &mut StdRng, phase: &str, violations: &mut Vec<String>| {
        // Mixed shapes: empty (a no-op by contract), single (delegates
        // to the unbatched path), and multi-key with repeats.
        let n = match rng.gen_range(0..8) {
            0 => 0,
            1 => 1,
            r => 2 + (r * MAX_ROUND_BATCH / 8).min(MAX_ROUND_BATCH - 2),
        };
        let asked: Vec<usize> = (0..n).map(|_| rng.gen_range(0..BATCH_KEYS)).collect();
        let batch: Vec<(u64, u64)> = asked.iter().map(|&i| keys[i]).collect();
        let call = batch_calls;
        batch_calls += 1;
        keys_asked += n;
        let t0 = net.now_ms();
        let results = client.predict_many(&batch, &CallOptions::default());
        let elapsed = net.now_ms() - t0;
        if results.len() != n {
            violations.push(format!(
                "batch #{call} ({phase}): asked {n} keys, got {} outcomes (exactly-once broken)",
                results.len()
            ));
            return;
        }
        for (slot, (&key_idx, outcome)) in asked.iter().zip(&results).enumerate() {
            match outcome {
                Ok(cfg) => {
                    keys_ok += 1;
                    // Only the un-correlated single-key fallback can
                    // cross-wire (stale/duplicated bare frames), which
                    // is exactly what the non-strict plans inject; the
                    // tagged batched path is covered on every strict
                    // plan and by the codec proptests.
                    if strict && *cfg != answers[key_idx] {
                        violations.push(format!(
                            "batch #{call} ({phase}) slot {slot}: key {key_idx} answered with the wrong config \
                             {cfg:?} (cross-wired reply)"
                        ));
                    }
                }
                Err(e) => {
                    keys_failed += 1;
                    if strict {
                        violations.push(format!(
                            "batch #{call} ({phase}) slot {slot}: key {key_idx} lost ({e}) with a live replica"
                        ));
                    }
                }
            }
        }
        if elapsed > MAX_BATCH_VIRTUAL_MS {
            violations.push(format!(
                "batch #{call} ({phase}) consumed {elapsed}ms of virtual time (budget {MAX_BATCH_VIRTUAL_MS}ms)"
            ));
        }
    };

    // Phase 1 — roll every model out, then steady-state batches.
    net.note("phase: rollout + steady batches".to_string());
    for id in 1..=BATCH_KEYS as i64 {
        let rollout = client.preload(id, &CallOptions::default());
        if strict {
            if let Err(e) = &rollout {
                violations.push(format!("rollout of model {id} failed on every replica: {e}"));
            }
        }
    }
    for _ in 0..ROUNDS_PER_PHASE {
        batch_once(&mut client, &mut rng, "steady", &mut violations);
    }

    // Phase 2 — kill one replica: mid-run batches must fan out around
    // it (splitter groups re-route, unanswered slots fall back).
    let victim = (seed as usize) % BATCH_REPLICAS;
    net.note(format!("phase: kill b{victim}"));
    net.kill_replica(victim, 100_000);
    for _ in 0..ROUNDS_PER_PHASE {
        batch_once(&mut client, &mut rng, "kill", &mut violations);
    }

    // Phase 3 — partition a second replica: one healthy member left.
    let split = (victim + 1) % BATCH_REPLICAS;
    net.note(format!("phase: partition b{split}"));
    net.partition_replica(split, 40);
    for _ in 0..ROUNDS_PER_PHASE {
        batch_once(&mut client, &mut rng, "partition", &mut violations);
    }

    // Phase 4 — heal, then interleave hot rollouts with batches: the
    // registry republishes snapshots while batched readers stream
    // through it, and every answer must still be a committed config.
    net.note("phase: heal + rollout churn".to_string());
    net.heal_all();
    for round in 0..ROUNDS_PER_PHASE {
        let id = 1 + (rng.gen_range(0..BATCH_KEYS) as i64);
        let _ = client.preload(id, &CallOptions::default());
        net.note(format!("churn round {round}: re-preloaded model {id}"));
        batch_once(&mut client, &mut rng, "churn", &mut violations);
    }

    // On strict plans the daemons' own counters must show batched
    // traffic: frames on the `batches` counter and at least as many
    // keys on `batched_keys` (conservation counts keys, not frames).
    let mut daemon_batches = 0u64;
    if strict {
        for (endpoint, outcome) in client.stats_all() {
            if let Ok(snap) = outcome {
                if snap.batched_keys < snap.batches {
                    violations.push(format!(
                        "{endpoint}: batched_keys {} < batches {} (frames counted instead of keys)",
                        snap.batched_keys, snap.batches
                    ));
                }
                daemon_batches += snap.batches;
            }
        }
    }

    violations.extend(net.finish());

    if !violations.is_empty() {
        crate::sweep::fail("batch", seed, plan.name, &violations, &net.export());
    }

    BatchReport {
        seed,
        plan: plan.name.to_string(),
        log: net.log(),
        batch_calls,
        keys_asked,
        keys_ok,
        keys_failed,
        daemon_batches,
        injected: net.injected(),
    }
}
