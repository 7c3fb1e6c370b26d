//! The fleet world: one seeded run of a replicated chronusd fleet
//! behind the failover-aware [`PredictClient`], under a fault plan.
//!
//! Where [`crate::world::run_seed`] exercises the whole sbatch →
//! plugin → client → daemon pipeline against a single daemon,
//! [`run_fleet_seed`] concentrates on what replication adds: a
//! three-replica [`SimNet::fleet`] with per-replica crash and partition
//! schedules, the client's consistent-hash routing, health-driven ring
//! membership, probing, and rejoin-with-re-preload.
//!
//! Checked invariants, per seeded run:
//!
//! * **zero lost predictions** — on every plan whose faults a retry can
//!   beat ([`FaultPlan::retry_beats_it`] says which and why the rest
//!   are protocol-level exclusions, not flakiness), no predict ever
//!   fails or answers wrongly, including during an explicit kill of
//!   one replica and a partition of another;
//! * **bounded failover cost** — a predict consumes a bounded amount of
//!   virtual time even when it has to walk dead replicas;
//! * **rejoin convergence** — after all injected faults heal, the
//!   killed replica is probed back onto the ring and the committed
//!   model is re-preloaded, so every replica's live incarnation ends
//!   at a committed generation ≥ 1 (monotonic per incarnation: the
//!   restarted one starts over, it never serves a stale committed
//!   entry);
//! * **ledger conservation** — every replica incarnation's counters
//!   audit clean ([`crate::invariants::Ledger`]), kills and crashes
//!   included.
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

/// Replicas per fleet run.
pub const FLEET_REPLICAS: usize = 3;

/// Ceiling on the virtual time one fleet predict may consume. The
/// failover client may walk every replica several times (up to
/// `max_retries + replicas` attempts), each attempt costing at most a
/// dial timeout, injected delays and a read timeout — generously under
/// two virtual seconds.
pub const MAX_FLEET_PREDICT_VIRTUAL_MS: u64 = 2_000;

/// Predicts per phase of the choreography.
const PREDICTS_PER_PHASE: usize = 12;

/// Cap on the post-heal requests spent waiting for the killed replica
/// to be probed back onto the ring.
const REJOIN_REQUEST_CAP: usize = 400;

/// What one seeded fleet run produced (for assertions in tests).
#[derive(Debug)]
pub struct FleetReport {
    pub seed: u64,
    pub plan: String,
    /// The full virtual-time event log (byte-identical across replays).
    pub log: Vec<String>,
    /// Total predict calls issued.
    pub predictions: usize,
    /// Predict calls that failed (must be 0 on strict plans).
    pub failed_predictions: usize,
    /// Whether the full ring was observed healthy after healing.
    pub converged: bool,
    /// What the simulated network delivered and injected.
    pub injected: Injected,
}

/// Runs the fleet choreography once under `plan` with every random
/// choice derived from `seed`. Panics (with a replay command) on any
/// invariant violation; returns a report otherwise.
pub fn run_fleet_seed(seed: u64, plan: &FaultPlan) -> FleetReport {
    // Distinct stream from the network's RNG, as in the single-daemon
    // world, so key choice doesn't consume fault randomness.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let spec = CpuSpec::epyc_7502p();
    let sys = system_hash(&spec, 256);
    let hash_a = binary_hash("xhpcg-3.1-nx104");
    let hash_b = binary_hash("solver-2.0");
    let keys = [(sys, hash_a), (sys, hash_b)];
    let answers = [CpuConfig::new(32, 2_200_000, 1), CpuConfig::new(16, 1_500_000, 2)];

    let models = vec![
        PreparedModel {
            model_id: 1,
            model_type: "brute-force".into(),
            system_hash: sys,
            binary_hash: hash_a,
            config: answers[0],
        },
        PreparedModel {
            model_id: 2,
            model_type: "brute-force".into(),
            system_hash: sys,
            binary_hash: hash_b,
            config: answers[1],
        },
    ];
    let net = SimNet::fleet(seed, plan.clone(), &["r0", "r1", "r2"], models);
    let telemetry = net.telemetry();
    let transports = (0..FLEET_REPLICAS).map(|i| Box::new(net.transport_for(i)) as Box<dyn Transport>).collect();
    let mut client = failover_client(plan, transports).build().expect("fleet client config is valid");
    client.set_telemetry(std::sync::Arc::clone(&telemetry));

    // The ledger audit in `finish()` applies to every plan regardless.
    let strict = plan.retry_beats_it();
    let mut violations: Vec<String> = Vec::new();
    let mut predictions = 0usize;
    let mut failed = 0usize;

    let predict_once = |client: &mut PredictClient,
                        net: &SimNet,
                        rng: &mut StdRng,
                        predictions: &mut usize,
                        failed: &mut usize,
                        violations: &mut Vec<String>,
                        phase: &str| {
        let pick = rng.gen_range(0..keys.len());
        let (s, b) = keys[pick];
        let t0 = net.now_ms();
        let n = *predictions;
        *predictions += 1;
        match client.predict(s, b, &CallOptions::default()) {
            Ok(cfg) => {
                if strict && cfg != answers[pick] {
                    violations.push(format!("predict #{n} ({phase}): wrong answer {cfg:?} for key {pick}"));
                }
            }
            Err(e) => {
                *failed += 1;
                if strict {
                    violations.push(format!("predict #{n} ({phase}): lost ({e}) with a live replica in the fleet"));
                }
            }
        }
        let elapsed = net.now_ms() - t0;
        if elapsed > MAX_FLEET_PREDICT_VIRTUAL_MS {
            violations.push(format!(
                "predict #{n} ({phase}) consumed {elapsed}ms of virtual time (budget \
                 {MAX_FLEET_PREDICT_VIRTUAL_MS}ms)"
            ));
        }
    };

    // Phase 1 — roll the model out, then steady-state routing.
    net.note("phase: steady state".to_string());
    let rollout = client.preload(1, &CallOptions::default());
    if strict {
        if let Err(e) = &rollout {
            violations.push(format!("initial rollout failed on every replica: {e}"));
        }
    }
    for _ in 0..PREDICTS_PER_PHASE {
        predict_once(&mut client, &net, &mut rng, &mut predictions, &mut failed, &mut violations, "steady");
    }

    // Phase 2 — kill one replica outright; routing must fail over.
    let victim = (seed as usize) % FLEET_REPLICAS;
    net.note(format!("phase: kill r{victim}"));
    net.kill_replica(victim, 100_000);
    for _ in 0..PREDICTS_PER_PHASE {
        predict_once(&mut client, &net, &mut rng, &mut predictions, &mut failed, &mut violations, "kill");
    }

    // Phase 3 — partition a second replica while the first is down:
    // the fleet is down to one healthy member and must still answer.
    let split = (victim + 1) % FLEET_REPLICAS;
    net.note(format!("phase: partition r{split}"));
    net.partition_replica(split, 40);
    for _ in 0..PREDICTS_PER_PHASE {
        predict_once(&mut client, &net, &mut rng, &mut predictions, &mut failed, &mut violations, "partition");
    }

    // Phase 4 — heal everything and drive traffic until the client
    // probes the dead replica back onto the ring (count-based probe
    // cooldowns make this deterministic in requests, not wall time).
    net.note("phase: heal".to_string());
    net.heal_all();
    let mut converged = false;
    for _ in 0..REJOIN_REQUEST_CAP {
        predict_once(&mut client, &net, &mut rng, &mut predictions, &mut failed, &mut violations, "heal");
        if client.replicas_in_ring() == FLEET_REPLICAS {
            converged = true;
            break;
        }
    }
    if strict && !converged {
        violations.push(format!(
            "killed replica r{victim} never rejoined the ring within {REJOIN_REQUEST_CAP} post-heal requests \
             ({}/{FLEET_REPLICAS} in ring)",
            client.replicas_in_ring()
        ));
    }

    // Phase 5 — generation convergence: one more committed rollout must
    // land on every replica (the restarted incarnation starts its
    // generation counter over; it must end committed, never stale).
    if strict {
        let mut settled = false;
        for round in 0..5 {
            let fleet = client.preload_detailed(1, &CallOptions::default());
            if fleet.failures.is_empty() && net.generations().iter().all(|&g| g >= 1) {
                settled = true;
                break;
            }
            net.note(format!("rollout round {round} incomplete: {} failures", fleet.failures.len()));
        }
        if !settled {
            violations.push(format!("fleet generations did not converge after healing: {:?}", net.generations()));
        }
        // Every replica now answers Stats under its own identity.
        for (endpoint, outcome) in client.stats_all() {
            match outcome {
                Ok(snap) => {
                    let expected = endpoint.trim_start_matches("simnet://");
                    if snap.replica != expected {
                        violations.push(format!(
                            "stats from {endpoint} carry replica identity '{}' (expected '{expected}')",
                            snap.replica
                        ));
                    }
                    // A crash plan can crash the replica during this
                    // very stats exchange; the restarted incarnation
                    // then reports generation 0 until the client's
                    // rejoin path re-preloads it — only a violation
                    // when nothing can crash.
                    if snap.model_generation == 0 && plan.crash == 0.0 {
                        violations.push(format!("{endpoint} still serves at generation 0 after the rollout"));
                    }
                }
                Err(e) => violations.push(format!("{endpoint} unreachable after healing: {e}")),
            }
        }
    }

    violations.extend(net.finish());

    if !violations.is_empty() {
        crate::sweep::fail("fleet", seed, plan.name, &violations, &net.export());
    }

    FleetReport {
        seed,
        plan: plan.name.to_string(),
        log: net.log(),
        predictions,
        failed_predictions: failed,
        converged,
        injected: net.injected(),
    }
}
