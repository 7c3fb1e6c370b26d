//! The shm world: the shared-memory local transport and its fallback
//! ladder under a fault plan.
//!
//! One daemon, one client, **two** endpoints to it: the simulated shm
//! ring ([`SimNet::shm_transport_for`] — `is_local`) and a plain
//! simulated TCP endpoint. The
//! client's local-preference routing must send everything over the
//! ring while it is healthy, and the choreography attacks exactly the
//! seams the real transport has:
//!
//! * torn slots and lost doorbells from the fault plan (cuts and drops
//!   on the ring, see [`crate::net::SimTransport`]);
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
//!   mixed binary (predictions) and JSON (control-plane) traffic across
//!   every incarnation.
//!
//! Any violation panics with the seed, the plan and a replay command
//! ([`crate::sweep::fail`]).

use chronus::remote::Transport;
use rand::{SeedableRng, StdRng};

use crate::batch::{BatchDriver, ROUNDS_PER_PHASE};
use crate::faults::FaultPlan;
use crate::net::{Exchange, Injected, SimNet};
use crate::world::failover_client;

/// Requests between probes of the torn-down ring: few, so the restore phase sees its rejoin.
const PROBE_COOLDOWN: u32 = 4;

/// Batched rounds while the ring is down: the only phase whose batches
/// ride TCP, so the one where a plan's faults on TCP batches get their
/// chances. `chaos`'s 4 % `crash` misses all of `n` such frames with
/// odds 0.96ⁿ: ≈ 6 % at twice the rounds (≈ 70 frames over the plan's
/// nine sweep seeds), ≈ 2 % at three times (≈ 100).
const RING_DOWN_ROUNDS: usize = 3 * ROUNDS_PER_PHASE;

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
    // On the ring `blackout` is a seat that is always busy; stale and
    // duplicated frames only exist on the TCP fallback.
    let (mut driver, models) = BatchDriver::new("shm-binary-", plan);
    let net = SimNet::new(seed, plan.clone(), models);
    let telemetry = net.telemetry();
    // The fallback ladder in one client: the ring first (preferred by
    // locality, not position), TCP to the same daemon as the net.
    let transports: Vec<Box<dyn Transport>> =
        vec![Box::new(net.shm_transport_for(0)), Box::new(net.transport_for(0))];
    let mut client =
        failover_client(transports).probe_cooldown(PROBE_COOLDOWN).build().expect("shm client config is valid");
    client.set_telemetry(std::sync::Arc::clone(&telemetry));

    // Phase 1 — roll every model out, then steady batches: while the
    // ring is healthy, locality must route everything over it.
    net.note("phase: rollout + steady over the ring".to_string());
    driver.roll_out_all(&mut client);
    for _ in 0..ROUNDS_PER_PHASE {
        driver.batch_once(&mut client, &mut rng, &net, "steady");
    }
    if plan.name == "none" {
        let (shm, tcp) = count_predicts(&net);
        if tcp > 0 || shm == 0 {
            driver.violations.push(format!(
                "locality preference broken: {tcp} predictions rode TCP (and {shm} the ring) with a clean, \
                 healthy ring"
            ));
        }
    }

    // Phase 2 — tear the ring down while TCP keeps serving: the
    // fallback rung. On strict plans not a single key may be lost.
    net.note("phase: ring torn down (TCP fallback)".to_string());
    net.drop_shm(0, 1_000_000);
    for _ in 0..RING_DOWN_ROUNDS {
        driver.batch_once(&mut client, &mut rng, &net, "ring-down");
    }
    if plan.name == "none" {
        let (_, tcp) = count_predicts(&net);
        if tcp == 0 {
            driver.violations.push("ring torn down but no prediction fell back to TCP".to_string());
        }
    }

    // Phase 3 — restore the ring: the client's probe machinery must
    // rejoin it, and locality must pull traffic back off the network.
    net.note("phase: ring restored".to_string());
    net.heal_all();
    for _ in 0..ROUNDS_PER_PHASE {
        driver.batch_once(&mut client, &mut rng, &net, "restored");
    }
    if plan.name == "none" {
        // The rejoining probe is count-based (due `PROBE_COOLDOWN`
        // requests after the last, and an empty batch is no request): the
        // last of one cycle of non-empty batches must ride the ring.
        let (mut nonempty, mut before) = (0, 0);
        while nonempty <= PROBE_COOLDOWN {
            let asked = driver.keys_asked;
            before = count_predicts(&net).0;
            driver.batch_once(&mut client, &mut rng, &net, "restored");
            nonempty += u32::from(driver.keys_asked > asked);
        }
        if count_predicts(&net).0 == before {
            driver.violations.push("ring restored but traffic never returned to it".to_string());
        }
    }

    // Phase 4 — full daemon crash mid-traffic (both listeners die,
    // exactly-once must hold through it), then restart and recover.
    net.note("phase: daemon crash + recovery".to_string());
    net.kill_replica(0, 50);
    for _ in 0..ROUNDS_PER_PHASE {
        // the daemon restarts 50 virtual ms in; retries ride it out,
        // so answers are still owed on strict plans
        driver.batch_once(&mut client, &mut rng, &net, "crash");
    }
    net.heal_all();
    for _ in 0..ROUNDS_PER_PHASE {
        driver.batch_once(&mut client, &mut rng, &net, "recovered");
    }

    driver.violations.extend(net.finish());

    if !driver.violations.is_empty() {
        crate::sweep::fail("shm", seed, plan.name, &driver.violations, &net.export());
    }

    let injected = net.injected();
    let (shm_exchanges, tcp_exchanges) = by_listener(&injected, Injected::DELIVERED);
    ShmReport {
        seed,
        plan: plan.name.to_string(),
        log: net.log(),
        batch_calls: driver.batch_calls,
        keys_asked: driver.keys_asked,
        keys_ok: driver.keys_ok,
        keys_failed: driver.keys_failed,
        shm_exchanges,
        tcp_exchanges,
        injected,
    }
}
