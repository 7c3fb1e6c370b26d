//! The shm world: the shared-memory local transport and its fallback
//! ladder under a fault plan.
//!
//! One daemon, one client, **two** endpoints to it: the simulated shm
//! ring ([`crate::net::SimShmTransport`] — frame-level, `is_local`,
//! binary batch fast path) and a plain simulated TCP endpoint. The
//! client's local-preference routing must send everything over the
//! ring while it is healthy, and the choreography attacks exactly the
//! seams the real transport has:
//!
//! * torn slots and lost doorbells from the fault plan (cuts/drops
//!   translated to ring physics by `SimShmConnection`);
//! * the ring torn down while TCP keeps serving (`drop_shm`) — the
//!   shm→tcp rung of the fallback ladder;
//! * a full daemon crash mid-traffic (both listeners die) and the
//!   recovery after restart — the tcp→local rung is the plugin's
//!   business, not the client's, so the world stops at "every key
//!   answered once the daemon lives again".
//!
//! Checked invariants, per seeded run:
//!
//! * **exactly-once per key** — every batched call returns precisely
//!   one outcome per asked key, on every plan, through every teardown;
//! * **zero submissions lost to fallback** — on strict plans, keys
//!   asked while the ring is down (TCP alive) are all answered with
//!   the right config: falling off shm never loses or cross-wires a
//!   key;
//! * **locality preference** — on the clean plan, *all* exchanges ride
//!   the ring while it is up, and TCP carries the traffic the moment
//!   it is not;
//! * **ledger conservation** — the daemon's counters audit clean under
//!   mixed binary-fastpath and JSON accounting across every
//!   incarnation.
//!
//! Any violation panics with the seed, the plan and a replay command
//! ([`crate::sweep::fail`]).

use chronus::hash::{binary_hash, system_hash};
use chronus::remote::{CallOptions, PredictClient, Transport};
use chronusd::backend::PreparedModel;
use eco_sim_node::cpu::{CpuConfig, CpuSpec};
use rand::{Rng, SeedableRng, StdRng};

use crate::batch::MAX_BATCH_VIRTUAL_MS;
use crate::faults::FaultPlan;
use crate::net::{Exchange, Injected, SimNet};
use crate::world::failover_client;

/// Distinct prediction keys in play (one model each).
const SHM_KEYS: usize = 8;

/// Largest batch a round may ask for.
const MAX_ROUND_BATCH: usize = 32;

/// Batched rounds per phase of the choreography.
const ROUNDS_PER_PHASE: usize = 6;

/// What one seeded shm run produced (for assertions in tests).
#[derive(Debug)]
pub struct ShmReport {
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
    /// Keys answered with a typed error.
    pub keys_failed: usize,
    /// Exchanges the daemon served over the ring.
    pub shm_exchanges: usize,
    /// Exchanges the daemon served over TCP.
    pub tcp_exchanges: usize,
    /// What the simulated network delivered and injected.
    pub injected: Injected,
}

/// `(over the ring, over TCP)` of what the network counted under `what`.
fn by_listener(injected: &Injected, what: &str) -> (usize, usize) {
    let tcp = injected.count(what, Exchange::Single) + injected.count(what, Exchange::Batch);
    (injected.count(what, Exchange::Shm) as usize, tcp as usize)
}

/// Predictions served so far, by listener — the submit-path traffic
/// locality preference governs. Rollouts (`Preload`) go to *every*
/// endpoint by design and probes ping whichever replica is out of the
/// ring, so neither belongs in a locality assertion.
fn count_predicts(net: &SimNet) -> (usize, usize) {
    by_listener(&net.injected(), Injected::PREDICTS)
}

/// Runs the shm choreography once under `plan` with every random choice
/// derived from `seed`. Panics (with a replay command) on any invariant
/// violation; returns a report otherwise.
pub fn run_shm_seed(seed: u64, plan: &FaultPlan) -> ShmReport {
    // Distinct RNG stream from the network's, as in the other worlds.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9d3a_77f5_21eb_04c1);
    let spec = CpuSpec::epyc_7502p();
    let sys = system_hash(&spec, 256);
    let keys: Vec<(u64, u64)> = (0..SHM_KEYS).map(|i| (sys, binary_hash(&format!("shm-binary-{i}")))).collect();
    let answers: Vec<CpuConfig> =
        (0..SHM_KEYS).map(|i| CpuConfig::new(4 + i as u32 * 4, 1_500_000 + i as u64 * 100_000, 1)).collect();
    let models: Vec<PreparedModel> = (0..SHM_KEYS)
        .map(|i| PreparedModel {
            model_id: 1 + i as i64,
            model_type: "brute-force".into(),
            system_hash: keys[i].0,
            binary_hash: keys[i].1,
            config: answers[i],
        })
        .collect();
    let net = SimNet::new(seed, plan.clone(), models);
    let telemetry = net.telemetry();
    // The fallback ladder in one client: the ring first (preferred by
    // locality, not position), TCP to the same daemon as the net.
    let transports: Vec<Box<dyn Transport>> =
        vec![Box::new(net.shm_transport_for(0)), Box::new(net.transport_for(0))];
    let mut client = failover_client(plan, transports)
        // probe the torn-down ring every few requests so the restore
        // phase sees the rejoin within its rounds
        .probe_cooldown(4)
        .build()
        .expect("shm client config is valid");
    client.set_telemetry(std::sync::Arc::clone(&telemetry));

    // On the ring `blackout` is a seat that is always busy; stale and
    // duplicated frames only exist on the TCP fallback.
    let strict = plan.retry_beats_it();
    let mut violations: Vec<String> = Vec::new();
    let mut batch_calls = 0usize;
    let mut keys_asked = 0usize;
    let mut keys_ok = 0usize;
    let mut keys_failed = 0usize;

    let mut batch_once =
        |client: &mut PredictClient, rng: &mut StdRng, phase: &str, expect_ok: bool, violations: &mut Vec<String>| {
            let n = match rng.gen_range(0..8) {
                0 => 0,
                1 => 1,
                r => 2 + (r * MAX_ROUND_BATCH / 8).min(MAX_ROUND_BATCH - 2),
            };
            let asked: Vec<usize> = (0..n).map(|_| rng.gen_range(0..SHM_KEYS)).collect();
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
                        if strict && *cfg != answers[key_idx] {
                            violations.push(format!(
                                "batch #{call} ({phase}) slot {slot}: key {key_idx} answered with the wrong \
                                 config {cfg:?} (cross-wired reply)"
                            ));
                        }
                    }
                    Err(e) => {
                        keys_failed += 1;
                        if strict && expect_ok {
                            violations.push(format!(
                                "batch #{call} ({phase}) slot {slot}: key {key_idx} lost ({e}) with a live daemon"
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

    // Phase 1 — roll every model out, then steady batches: while the
    // ring is healthy, locality must route everything over it.
    net.note("phase: rollout + steady over the ring".to_string());
    for id in 1..=SHM_KEYS as i64 {
        let rollout = client.preload(id, &CallOptions::default());
        if strict {
            if let Err(e) = &rollout {
                violations.push(format!("rollout of model {id} failed: {e}"));
            }
        }
    }
    for _ in 0..ROUNDS_PER_PHASE {
        batch_once(&mut client, &mut rng, "steady", true, &mut violations);
    }
    if plan.name == "none" {
        let (shm, tcp) = count_predicts(&net);
        if tcp > 0 || shm == 0 {
            violations.push(format!(
                "locality preference broken: {tcp} predictions rode TCP (and {shm} the ring) with a clean, \
                 healthy ring"
            ));
        }
    }

    // Phase 2 — tear the ring down while TCP keeps serving: the
    // fallback rung. On strict plans not a single key may be lost.
    net.note("phase: ring torn down (TCP fallback)".to_string());
    net.drop_shm(0, 1_000_000);
    for _ in 0..ROUNDS_PER_PHASE {
        batch_once(&mut client, &mut rng, "ring-down", true, &mut violations);
    }
    if plan.name == "none" {
        let (_, tcp) = count_predicts(&net);
        if tcp == 0 {
            violations.push("ring torn down but no prediction fell back to TCP".to_string());
        }
    }

    // Phase 3 — restore the ring: the client's probe machinery must
    // rejoin it, and locality must pull traffic back off the network.
    net.note("phase: ring restored".to_string());
    net.heal_all();
    for _ in 0..ROUNDS_PER_PHASE {
        batch_once(&mut client, &mut rng, "restored", true, &mut violations);
    }
    if plan.name == "none" {
        let before = count_predicts(&net).0;
        batch_once(&mut client, &mut rng, "restored", true, &mut violations);
        let after = count_predicts(&net).0;
        if after == before {
            violations.push("ring restored but traffic never returned to it".to_string());
        }
    }

    // Phase 4 — full daemon crash mid-traffic (both listeners die,
    // exactly-once must hold through it), then restart and recover.
    net.note("phase: daemon crash + recovery".to_string());
    net.kill_replica(0, 50);
    for _ in 0..ROUNDS_PER_PHASE {
        // the daemon restarts 50 virtual ms in; retries ride it out,
        // so answers are still owed on strict plans
        batch_once(&mut client, &mut rng, "crash", true, &mut violations);
    }
    net.heal_all();
    for _ in 0..ROUNDS_PER_PHASE {
        batch_once(&mut client, &mut rng, "recovered", true, &mut violations);
    }

    violations.extend(net.finish());

    if !violations.is_empty() {
        crate::sweep::fail("shm", seed, plan.name, &violations, &net.export());
    }

    let injected = net.injected();
    let (shm_exchanges, tcp_exchanges) = by_listener(&injected, Injected::DELIVERED);
    ShmReport {
        seed,
        plan: plan.name.to_string(),
        log: net.log(),
        batch_calls,
        keys_asked,
        keys_ok,
        keys_failed,
        shm_exchanges,
        tcp_exchanges,
        injected,
    }
}
