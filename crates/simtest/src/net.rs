//! The simulated network: an in-memory [`Transport`] whose connections
//! deliver frames straight into a real [`PredictService`] under a seeded
//! fault plan, advancing a shared virtual clock instead of ever sleeping.
//!
//! Determinism contract: every random decision comes from one
//! [`StdRng`] seeded per run, every passage of time is an explicit
//! [`SharedSimClock::advance`], and every event appends a
//! `t=<virtual ms>` line to one log. Same seed + same plan ⇒ the same
//! log, byte for byte.
//!
//! A daemon here is a [`PredictService`] (the transport-free engine the
//! real TCP server uses) plus a [`SimBackend`]; "crashing" it swaps in a
//! fresh service, which loses the model registry exactly like a real
//! process restart — but not before the [`Ledger`] audits the dying
//! incarnation's counters. [`SimNet::new`] builds the classic single
//! daemon; [`SimNet::fleet`] builds N replicas sharing the clock, RNG
//! and backend but each with its own service, ledger, partition state
//! and crash schedule — the substrate the failover-aware
//! [`chronus::remote::PredictClient`] is simulated against.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::BytesMut;
use chronus::error::ChronusError;
use chronus::remote::{take_frame, wire, Connection, Request, RequestFrame, Response, Transport};
use chronus::telemetry::{Recorder, Telemetry};
use chronusd::backend::{ModelBackend, PreparedModel};
use chronusd::service::{PredictService, QueueGauges, ServiceClock};
use chronusd::store::ModelStore;
use eco_sim_node::clock::{SharedSimClock, SimDuration, SimTime};
use parking_lot::Mutex;
use rand::{Rng, SeedableRng, StdRng};

use crate::faults::FaultPlan;
use crate::invariants::{kind_of, verb_of, Ledger};

/// A deliberately tiny registry (single shard, one slot) so LRU churn,
/// backend consults and their fault opportunities happen constantly.
const CACHE_SHARDS: usize = 1;
const CACHE_CAP: usize = 1;

/// Virtual cost of a successful dial.
const DIAL_MS: u64 = 1;

/// Virtual cost of a dial that times out against a partition.
const DIAL_TIMEOUT_MS: u64 = 5;

/// The gauges the simulated transport reports with `Stats` answers (it
/// has no real accept queue).
fn sim_gauges() -> QueueGauges {
    QueueGauges { depth: 0, capacity: 64, workers: 4 }
}

/// Recorder capacity for one seeded run. Connectivity assertions walk
/// whole traces, so the ring must comfortably outlast a run (32
/// submissions × a dozen spans each plus admin traffic and retries).
const RECORDER_CAP: usize = 1 << 16;

/// What carried an exchange: one JSON frame or one `PredictMany` batch
/// over the simulated TCP stream, or any frame over the simulated shm
/// ring (which has its own fault physics, see [`SimShmTransport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Exchange {
    Single,
    Batch,
    Shm,
}

impl Exchange {
    pub const ALL: [Exchange; 3] = [Exchange::Single, Exchange::Batch, Exchange::Shm];

    /// Whether the fault `family` ([`FaultPlan::families`]) can show up
    /// under this kind at all. A dial carries no frame yet, so the TCP
    /// side books its dial-level families under `Single`; the ring never
    /// crosses the network and cannot reorder, duplicate or bounce.
    pub fn admits(self, family: &str) -> bool {
        match self {
            Exchange::Single => true,
            Exchange::Batch => !matches!(family, "connect_refuse" | "partition"),
            Exchange::Shm => !matches!(family, "partition" | "reorder" | "duplicate" | "busy"),
        }
    }
}

/// What one run's network actually did: events counted by `(name,
/// exchange kind)`, the name being [`Injected::DELIVERED`],
/// [`Injected::PREDICTS`] or the [`FaultPlan::families`] name of a fault
/// that took effect — the evidence the took-effect audit
/// ([`crate::sweep::took_effect`]) weighs a plan against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Injected(BTreeMap<(&'static str, Exchange), u64>);

impl Injected {
    /// Exchanges a daemon served.
    pub const DELIVERED: &'static str = "delivered";
    /// Of those, prediction traffic (`Predict` / `PredictMany`) — what
    /// locality preference governs; rollouts and probes go wherever
    /// they must.
    pub const PREDICTS: &'static str = "predicts";

    pub fn count(&self, what: &str, kind: Exchange) -> u64 {
        self.0.get(&(what, kind)).copied().unwrap_or(0)
    }

    pub fn add(&mut self, what: &'static str, kind: Exchange, n: u64) {
        if n > 0 {
            *self.0.entry((what, kind)).or_default() += n;
        }
    }

    /// Adds another run's counts to this one.
    pub fn absorb(&mut self, other: &Injected) {
        for (&(what, kind), &n) in &other.0 {
            self.add(what, kind, n);
        }
    }
}

/// Adapts the shared millisecond clock to the service's microsecond
/// deadline accounting.
struct SimServiceClock(Arc<SharedSimClock>);

impl ServiceClock for SimServiceClock {
    fn now_micros(&self) -> u64 {
        self.0.now().as_millis() * 1000
    }
}

/// The simulated model source: lookups advance virtual time when the
/// plan says the backend is slow, and fail internally when poisoned.
pub struct SimBackend {
    clock: Arc<SharedSimClock>,
    latency_ms: AtomicU64,
    poisoned: AtomicBool,
    /// Consults that really stalled / failed since [`NetCore::served`]
    /// last looked: arming the backend does nothing to a request the
    /// registry answers.
    stalled: AtomicU64,
    failed: AtomicU64,
    models: Vec<PreparedModel>,
}

impl SimBackend {
    fn consult(&self) -> chronus::error::Result<()> {
        let latency = self.latency_ms.load(Ordering::SeqCst);
        if latency > 0 {
            self.clock.advance(SimDuration::from_millis(latency));
            self.stalled.fetch_add(1, Ordering::SeqCst);
        }
        if self.poisoned.load(Ordering::SeqCst) {
            self.failed.fetch_add(1, Ordering::SeqCst);
            return Err(ChronusError::Io(io::Error::other("injected backend fault")));
        }
        Ok(())
    }
}

impl ModelBackend for SimBackend {
    fn load(&self, model_id: i64) -> chronus::error::Result<PreparedModel> {
        self.consult()?;
        self.models
            .iter()
            .find(|m| m.model_id == model_id)
            .cloned()
            .ok_or_else(|| ChronusError::NotFound(format!("model {model_id}")))
    }

    fn lookup(&self, system_hash: u64, binary_hash: u64) -> chronus::error::Result<PreparedModel> {
        self.consult()?;
        self.models
            .iter()
            .find(|m| m.system_hash == system_hash && m.binary_hash == binary_hash)
            .cloned()
            .ok_or_else(|| ChronusError::NotFound(format!("no model for ({system_hash:#x}, {binary_hash:#x})")))
    }
}

/// One simulated daemon replica: its current service incarnation, the
/// audit ledger for that incarnation, and its own failure schedule.
struct ReplicaCore {
    label: String,
    service: Arc<PredictService>,
    ledger: Ledger,
    partitioned_until: Option<SimTime>,
    crashed_until: Option<SimTime>,
    /// The replica's shared-memory ring is torn down (file unlinked /
    /// listener thread gone) while TCP keeps serving — the fault that
    /// exists only for [`SimShmTransport`]; network partitions never
    /// touch the local ring.
    shm_down_until: Option<SimTime>,
    incarnation: u64,
}

/// Everything that must be consistent under one lock: the RNG, the fault
/// schedule state, and every daemon replica with its audit ledger.
struct NetCore {
    rng: StdRng,
    plan: FaultPlan,
    clock: Arc<SharedSimClock>,
    replicas: Vec<ReplicaCore>,
    backend: Arc<SimBackend>,
    /// The durable model store every replica reads (None = the classic
    /// store-less fleet). A replica attaches it at (re)start and
    /// catches up to the serving generation — which is exactly how an
    /// adaptation rollout or rollback reaches a daemon that died and
    /// came back mid-canary.
    store: Option<Arc<Mutex<ModelStore>>>,
    /// The run-wide trace recorder. Daemon incarnations get fresh
    /// counter namespaces but share this ring, so the trace timeline
    /// survives crashes exactly like an external collector would.
    recorder: Arc<Recorder>,
    log: Vec<String>,
    injected: Injected,
    violations: Vec<String>,
    next_conn: u64,
}

impl NetCore {
    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_bool(p)
    }

    fn note(&mut self, msg: String) {
        let t = self.clock.now().as_millis();
        self.log.push(format!("t={t:06} {msg}"));
    }

    /// A replica-scoped log line; in a fleet, prefixed with the replica's
    /// label so interleaved events stay attributable.
    fn rnote(&mut self, replica: usize, msg: String) {
        if self.replicas.len() > 1 {
            let label = self.replicas[replica].label.clone();
            self.note(format!("[{label}] {msg}"));
        } else {
            self.note(msg);
        }
    }

    /// Logs a fault that took effect on `replica` and counts it under
    /// `(family, kind)` — one call, so the log line and the counter the
    /// took-effect audit reads cannot drift apart.
    fn inject(&mut self, replica: usize, family: &'static str, kind: Exchange, msg: String) {
        self.injected.add(family, kind, 1);
        self.rnote(replica, msg);
    }

    /// Counts one exchange the daemon served, and whatever the armed
    /// backend did to it.
    fn served(&mut self, kind: Exchange, request: &Request) {
        self.injected.add(Injected::DELIVERED, kind, 1);
        if matches!(request, Request::Predict { .. } | Request::PredictMany { .. }) {
            self.injected.add(Injected::PREDICTS, kind, 1);
        }
        self.injected.add("backend_slow", kind, self.backend.stalled.swap(0, Ordering::SeqCst));
        self.injected.add("backend_poison", kind, self.backend.failed.swap(0, Ordering::SeqCst));
    }

    /// What every delivery that survives its gauntlet does: rolls the
    /// backend faults for this exchange, puts the request payload through
    /// replica `r`'s one door and audits what came out *of the wire* —
    /// the reply payload decoded the way the client will decode it, not a
    /// value handed over beside it. `(binary, frame)` is `payload` as
    /// [`decoded`], `who` names the connection in the log. Returns the
    /// reply payload.
    fn serve_and_audit(
        &mut self,
        r: usize,
        kind: Exchange,
        who: &str,
        payload: &[u8],
        binary: bool,
        frame: &RequestFrame,
    ) -> Vec<u8> {
        let backend_slow = self.roll(self.plan.backend_slow);
        let backend_poisoned = self.roll(self.plan.backend_poison);
        let latency_ms = if backend_slow { self.plan.backend_latency_ms } else { 0 };
        self.backend.latency_ms.store(latency_ms, Ordering::SeqCst);
        self.backend.poisoned.store(backend_poisoned, Ordering::SeqCst);

        let before = self.replicas[r].service.snapshot(sim_gauges());
        let t0 = self.clock.now();
        let reply = self.replicas[r].service.answer(payload, sim_gauges());
        let elapsed_ms = (self.clock.now() - t0).as_millis();
        let after = self.replicas[r].service.snapshot(sim_gauges());
        let (_, response) =
            wire::decode_reply(&reply, frame.corr.is_some()).expect("the daemon writes well-formed replies");
        if let Err(e) = self.replicas[r].ledger.record_exchange(frame, &response, &before, &after, elapsed_ms) {
            let incarnation = self.replicas[r].incarnation;
            let label = self.replicas[r].label.clone();
            self.violations.push(format!("{label} incarnation {incarnation}: {e}"));
        }
        let fast = if binary { ", fastpath" } else { "" };
        self.rnote(
            r,
            format!("{who}: {} -> {} ({elapsed_ms}ms in service{fast})", verb_of(&frame.body), kind_of(&response)),
        );
        self.served(kind, &frame.body);
        reply
    }

    /// Expire a due partition or finish a due restart on `replica`.
    fn tick(&mut self, replica: usize) {
        let now = self.clock.now();
        if self.replicas[replica].crashed_until.is_some_and(|until| now >= until) {
            self.replicas[replica].crashed_until = None;
            self.rnote(replica, "daemon restarted (cache cold)".to_string());
        }
        if self.replicas[replica].partitioned_until.is_some_and(|until| now >= until) {
            self.replicas[replica].partitioned_until = None;
            self.rnote(replica, "partition healed".to_string());
        }
        if self.replicas[replica].shm_down_until.is_some_and(|until| now >= until) {
            self.replicas[replica].shm_down_until = None;
            self.rnote(replica, "shm ring restored".to_string());
        }
    }

    /// Audit the dying incarnation of `replica`, then replace it with a
    /// cold one.
    fn end_incarnation(&mut self, replica: usize, why: &str) {
        let snapshot = self.replicas[replica].service.snapshot(sim_gauges());
        let label = self.replicas[replica].label.clone();
        let incarnation = self.replicas[replica].incarnation;
        if let Err(e) = self.replicas[replica].ledger.check(&snapshot) {
            self.violations.push(format!("{label} incarnation {incarnation} ({why}): {e}"));
        }
        if self.replicas[replica].service.registry().len() > CACHE_CAP {
            self.violations.push(format!(
                "{label} incarnation {incarnation} ({why}): registry holds {} models over its capacity {CACHE_CAP}",
                self.replicas[replica].service.registry().len()
            ));
        }
        self.replicas[replica].service =
            fresh_service(&self.clock, &self.backend, &self.recorder, &label, self.store.as_ref());
        self.replicas[replica].ledger.reset();
        self.replicas[replica].incarnation += 1;
    }

    fn crash_now(&mut self, replica: usize, kind: Exchange) {
        let down = self.plan.crash_down_ms.max(1);
        self.end_incarnation(replica, "crash");
        self.replicas[replica].crashed_until = Some(self.clock.now() + SimDuration::from_millis(down));
        self.inject(replica, "crash", kind, format!("daemon crashed (down {down}ms, cache lost)"));
    }
}

fn fresh_service(
    clock: &Arc<SharedSimClock>,
    backend: &Arc<SimBackend>,
    recorder: &Arc<Recorder>,
    label: &str,
    store: Option<&Arc<Mutex<ModelStore>>>,
) -> Arc<PredictService> {
    // A fresh telemetry per incarnation resets the counters (a real
    // restart loses them too) but shares the run-wide recorder, so span
    // ids stay unique and traces span crash boundaries.
    let telemetry = Telemetry::with_parts(Arc::new(SimServiceClock(Arc::clone(clock))), Arc::clone(recorder));
    let mut service = PredictService::with_telemetry(
        CACHE_SHARDS,
        CACHE_CAP,
        Arc::clone(backend) as Arc<dyn ModelBackend>,
        Arc::new(telemetry),
    )
    .with_replica(label);
    if let Some(store) = store {
        service = service.with_store(Arc::clone(store), "/sim/store");
    }
    let service = Arc::new(service);
    if store.is_some() {
        // a store-backed daemon self-serves its models at boot, exactly
        // like the real process does before accepting traffic
        let _ = service.catch_up_from_store();
    }
    service
}

struct NetState {
    clock: Arc<SharedSimClock>,
    telemetry: Arc<Telemetry>,
    mu: Mutex<NetCore>,
}

/// One simulated network + daemon fleet. Build one per seed, hand
/// [`SimNet::transport_for`]s to clients, then [`SimNet::finish`] to
/// audit the final incarnations and collect violations.
pub struct SimNet {
    state: Arc<NetState>,
}

impl SimNet {
    /// The classic single-daemon network (a fleet of one, labelled
    /// `chronusd` so transport descriptions and logs read as before).
    pub fn new(seed: u64, plan: FaultPlan, models: Vec<PreparedModel>) -> SimNet {
        SimNet::fleet(seed, plan, &["chronusd"], models)
    }

    /// A replicated daemon fleet: every replica runs its own
    /// [`PredictService`] and audit ledger under its own crash/partition
    /// schedule, while the clock, RNG, recorder and model backend are
    /// shared — so a multi-replica run replays from its seed exactly
    /// like a single-daemon one.
    pub fn fleet(seed: u64, plan: FaultPlan, labels: &[&str], models: Vec<PreparedModel>) -> SimNet {
        SimNet::build(seed, plan, labels, models, None)
    }

    /// A fleet whose replicas all read one durable model store: each
    /// daemon attaches it and catches up to the serving generation at
    /// (re)start, so store commits, rollouts and rollbacks reach the
    /// fleet through [`SimNet::catch_up`] — the adaptation worlds'
    /// substrate. Pass an empty `models` vec to make the store the only
    /// model source.
    pub fn fleet_with_store(
        seed: u64,
        plan: FaultPlan,
        labels: &[&str],
        models: Vec<PreparedModel>,
        store: Arc<Mutex<ModelStore>>,
    ) -> SimNet {
        SimNet::build(seed, plan, labels, models, Some(store))
    }

    fn build(
        seed: u64,
        plan: FaultPlan,
        labels: &[&str],
        models: Vec<PreparedModel>,
        store: Option<Arc<Mutex<ModelStore>>>,
    ) -> SimNet {
        assert!(!labels.is_empty(), "a fleet needs at least one replica");
        let clock = Arc::new(SharedSimClock::new());
        let backend = Arc::new(SimBackend {
            clock: Arc::clone(&clock),
            latency_ms: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            stalled: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            models,
        });
        let recorder = Arc::new(Recorder::new(RECORDER_CAP));
        let replicas = labels
            .iter()
            .map(|label| ReplicaCore {
                label: (*label).to_string(),
                service: fresh_service(&clock, &backend, &recorder, label, store.as_ref()),
                ledger: Ledger::default(),
                partitioned_until: None,
                crashed_until: None,
                shm_down_until: None,
                incarnation: 0,
            })
            .collect();
        // The world side (cluster, plugin, client) shares the daemons'
        // clock and recorder, so one trace spans both sides of the wire.
        let telemetry =
            Arc::new(Telemetry::with_parts(Arc::new(SimServiceClock(Arc::clone(&clock))), Arc::clone(&recorder)));
        let core = NetCore {
            rng: StdRng::seed_from_u64(seed),
            plan,
            clock: Arc::clone(&clock),
            replicas,
            backend,
            store,
            recorder,
            log: Vec::new(),
            injected: Injected::default(),
            violations: Vec::new(),
            next_conn: 0,
        };
        SimNet { state: Arc::new(NetState { clock, telemetry, mu: Mutex::new(core) }) }
    }

    /// The world-side telemetry: the cluster, plugin and client emit
    /// through this; it shares a recorder (and the virtual clock) with
    /// every daemon incarnation.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.state.telemetry)
    }

    /// A fresh client-side endpoint to the first (or only) replica.
    pub fn transport(&self) -> SimTransport {
        self.transport_for(0)
    }

    /// A fresh client-side endpoint to replica `i` (share-nothing with
    /// other clients except the network itself).
    pub fn transport_for(&self, i: usize) -> SimTransport {
        assert!(i < self.state.mu.lock().replicas.len(), "replica {i} does not exist");
        SimTransport { net: Arc::clone(&self.state), replica: i }
    }

    /// A fresh client-side endpoint to replica `i`'s *shared-memory
    /// ring*: frame-level (no byte stream to tear mid-prefix), local
    /// (`is_local`, so the client prefers it over TCP entries to the
    /// same fleet) and on the binary batch fast path. Cuts become torn
    /// slots, drops become lost doorbells, and partitions are ignored —
    /// the ring never crosses the network.
    pub fn shm_transport_for(&self, i: usize) -> SimShmTransport {
        assert!(i < self.state.mu.lock().replicas.len(), "replica {i} does not exist");
        SimShmTransport { net: Arc::clone(&self.state), replica: i }
    }

    /// Tears down replica `i`'s shared-memory ring for `ms` of virtual
    /// time while its TCP side keeps serving — the shm-only failure
    /// (listener thread dead, ring file unlinked) the fallback ladder
    /// exists for. Live shm sessions die; TCP dials are untouched.
    pub fn drop_shm(&self, i: usize, ms: u64) {
        let mut core = self.state.mu.lock();
        core.replicas[i].shm_down_until = Some(core.clock.now() + SimDuration::from_millis(ms.max(1)));
        core.rnote(i, format!("shm ring torn down by the world ({ms}ms)"));
    }

    /// How many replicas this network simulates.
    pub fn replicas(&self) -> usize {
        self.state.mu.lock().replicas.len()
    }

    /// The live service incarnation of replica `i` — the adaptation
    /// driver's daemon-side handle (drain reservoirs, stamp canary
    /// state, bump transition counters). A crash replaces the service;
    /// re-fetch after any fault window rather than caching across one.
    pub fn service(&self, i: usize) -> Arc<PredictService> {
        Arc::clone(&self.state.mu.lock().replicas[i].service)
    }

    /// Tells replica `i`'s live service to catch up from the shared
    /// store — the rollout push: after a store commit this installs the
    /// new serving generation on exactly the replicas the driver names
    /// (canary first, the rest on promotion), and after a rollback it
    /// restores the rollback target the same way. Returns how many
    /// records installed.
    pub fn catch_up(&self, i: usize) -> usize {
        let mut core = self.state.mu.lock();
        let installed = core.replicas[i].service.catch_up_from_store().installed;
        core.rnote(i, format!("caught up from the store ({installed} records)"));
        installed
    }

    /// Kills replica `i` for `down_ms` of virtual time: its incarnation
    /// is audited and discarded, and dials are refused until the clock
    /// passes the restart mark (the restart comes back cold, exactly
    /// like a real process replacement).
    pub fn kill_replica(&self, i: usize, down_ms: u64) {
        let mut core = self.state.mu.lock();
        core.end_incarnation(i, "killed by the world");
        core.replicas[i].crashed_until = Some(core.clock.now() + SimDuration::from_millis(down_ms.max(1)));
        core.rnote(i, format!("daemon killed by the world (down {down_ms}ms)"));
    }

    /// Partitions replica `i` off the network for `ms` of virtual time;
    /// the daemon keeps running (no state lost) but every dial and
    /// in-flight frame times out.
    pub fn partition_replica(&self, i: usize, ms: u64) {
        let mut core = self.state.mu.lock();
        core.replicas[i].partitioned_until = Some(core.clock.now() + SimDuration::from_millis(ms.max(1)));
        core.rnote(i, format!("partitioned off by the world ({ms}ms)"));
    }

    /// Ends every in-force partition, restart wait and shm teardown
    /// immediately.
    pub fn heal_all(&self) {
        let mut core = self.state.mu.lock();
        for i in 0..core.replicas.len() {
            if core.replicas[i].crashed_until.take().is_some() {
                core.rnote(i, "daemon restarted early (healed, cache cold)".to_string());
            }
            if core.replicas[i].partitioned_until.take().is_some() {
                core.rnote(i, "partition healed early".to_string());
            }
            if core.replicas[i].shm_down_until.take().is_some() {
                core.rnote(i, "shm ring restored early".to_string());
            }
        }
    }

    /// The current committed model generation of each replica's live
    /// service (restarted incarnations start over at 0).
    pub fn generations(&self) -> Vec<u64> {
        let core = self.state.mu.lock();
        core.replicas.iter().map(|r| r.service.snapshot(sim_gauges()).model_generation).collect()
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.state.clock.now().as_millis()
    }

    /// Appends a world-level line to the shared event log.
    pub fn note(&self, msg: impl Into<String>) {
        self.state.mu.lock().note(msg.into());
    }

    /// The full event log so far.
    pub fn log(&self) -> Vec<String> {
        self.state.mu.lock().log.clone()
    }

    /// What the network delivered and injected so far.
    pub fn injected(&self) -> Injected {
        self.state.mu.lock().injected.clone()
    }

    /// What a failing run leaves for offline reading: the telemetry
    /// export (every trace event, counter and histogram), then the log.
    pub fn export(&self) -> String {
        format!("{}\n{}", self.state.telemetry.export_json(), self.log().join("\n"))
    }

    /// Audits the final incarnation of every replica and returns every
    /// invariant violation the run produced (empty means clean).
    pub fn finish(&self) -> Vec<String> {
        let mut core = self.state.mu.lock();
        for i in 0..core.replicas.len() {
            core.end_incarnation(i, "final audit");
        }
        core.violations.clone()
    }
}

/// The client side of the simulated network; implements [`Transport`] so
/// [`chronus::remote::PredictClient`] runs on it unchanged. Each
/// transport is pinned to one replica, exactly like a TCP endpoint.
pub struct SimTransport {
    net: Arc<NetState>,
    replica: usize,
}

impl Transport for SimTransport {
    fn connect(&mut self) -> io::Result<Box<dyn Connection>> {
        let r = self.replica;
        let mut core = self.net.mu.lock();
        core.tick(r);
        core.clock.advance(SimDuration::from_millis(DIAL_MS));
        if core.replicas[r].crashed_until.is_some() {
            core.rnote(r, "dial refused: daemon down".to_string());
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "daemon down"));
        }
        let p_partition = core.plan.partition;
        if core.replicas[r].partitioned_until.is_none() && core.roll(p_partition) {
            let span = core.plan.partition_ms.max(1);
            core.replicas[r].partitioned_until = Some(core.clock.now() + SimDuration::from_millis(span));
            core.inject(r, "partition", Exchange::Single, format!("network partition begins ({span}ms)"));
        }
        if core.replicas[r].partitioned_until.is_some() {
            core.clock.advance(SimDuration::from_millis(DIAL_TIMEOUT_MS));
            core.rnote(r, "dial timed out: partitioned".to_string());
            return Err(io::Error::new(io::ErrorKind::TimedOut, "network partitioned"));
        }
        let p_refuse = core.plan.connect_refuse;
        if core.roll(p_refuse) {
            core.inject(r, "connect_refuse", Exchange::Single, "dial refused".to_string());
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "connection refused"));
        }
        let id = core.next_conn;
        core.next_conn += 1;
        let incarnation = core.replicas[r].incarnation;
        core.rnote(r, format!("conn {id} established"));
        Ok(Box::new(SimConnection {
            net: Arc::clone(&self.net),
            replica: r,
            id,
            incarnation,
            pending: BytesMut::new(),
            inbox: VecDeque::new(),
            dead: None,
        }))
    }

    fn describe(&self) -> String {
        format!("simnet://{}", self.net.mu.lock().replicas[self.replica].label)
    }

    /// Client backoffs and Busy hints burn virtual time, not wall time.
    fn sleep(&mut self, d: Duration) {
        let ms = (d.as_millis() as u64).max(1);
        let mut core = self.net.mu.lock();
        core.clock.advance(SimDuration::from_millis(ms));
        core.note(format!("client backed off {ms}ms"));
    }
}

/// One simulated connection: outbound bytes are reframed and delivered
/// to its replica on `flush`; inbound bytes wait in `inbox`.
struct SimConnection {
    net: Arc<NetState>,
    replica: usize,
    id: u64,
    /// Daemon incarnation this connection was dialed against; a restart
    /// in between resets it, exactly like a real TCP peer dying.
    incarnation: u64,
    pending: BytesMut,
    inbox: VecDeque<u8>,
    dead: Option<io::ErrorKind>,
}

impl SimConnection {
    /// Runs one complete request frame through the fault plan and — if
    /// it survives the gauntlet — the daemon, queueing whatever response
    /// bytes the client should eventually read.
    fn deliver(&mut self, payload: &[u8]) -> io::Result<()> {
        let r = self.replica;
        let state = Arc::clone(&self.net);
        let mut core = state.mu.lock();
        core.tick(r);
        let plan = core.plan.clone();
        let (binary, frame) = decoded(payload);
        let kind = if matches!(frame.body, Request::PredictMany { .. }) { Exchange::Batch } else { Exchange::Single };
        let id = self.id;

        if core.replicas[r].crashed_until.is_some() {
            core.rnote(r, format!("conn {}: reset (daemon down)", self.id));
            self.dead = Some(io::ErrorKind::ConnectionReset);
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        if core.replicas[r].incarnation != self.incarnation {
            core.rnote(r, format!("conn {}: reset (stale connection, daemon restarted)", self.id));
            self.dead = Some(io::ErrorKind::ConnectionReset);
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        if core.roll(plan.crash) {
            core.crash_now(r, kind);
            self.dead = Some(io::ErrorKind::ConnectionReset);
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        if core.replicas[r].partitioned_until.is_some() {
            core.rnote(r, format!("conn {}: request lost in partition", self.id));
            return Ok(()); // the client's next read times out
        }
        if core.roll(plan.req_cut) {
            // the wire died mid-frame: the daemon must never see it
            core.inject(r, "req_cut", kind, format!("conn {id}: request frame cut mid-flight"));
            self.dead = Some(io::ErrorKind::ConnectionReset);
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        if core.roll(plan.req_drop) {
            core.inject(r, "req_drop", kind, format!("conn {id}: request dropped"));
            return Ok(());
        }
        if core.roll(plan.req_delay) {
            let d = core.rng.gen_range(1..=plan.max_delay_ms.max(1));
            core.clock.advance(SimDuration::from_millis(d));
            core.inject(r, "req_delay", kind, format!("conn {id}: request delayed {d}ms"));
        }
        if core.roll(plan.busy) {
            // what the accept loop does when its queue is full: count it,
            // answer Busy, hang up
            core.replicas[r].service.stats().busy_rejection();
            core.replicas[r].ledger.busy_injected += 1;
            self.inbox.extend(encode(Response::Busy { retry_after_ms: plan.retry_after_ms }));
            self.dead = Some(io::ErrorKind::ConnectionAborted);
            core.inject(r, "busy", kind, format!("conn {id}: busy bounce (retry after {}ms)", plan.retry_after_ms));
            return Ok(());
        }

        let wire = prefixed(&core.serve_and_audit(r, kind, &format!("conn {id}"), payload, binary, &frame));

        if core.roll(plan.resp_drop) {
            core.inject(r, "resp_drop", kind, format!("conn {id}: response dropped"));
            return Ok(());
        }
        if core.roll(plan.resp_delay) {
            let d = core.rng.gen_range(1..=plan.max_delay_ms.max(1));
            core.clock.advance(SimDuration::from_millis(d));
            core.inject(r, "resp_delay", kind, format!("conn {id}: response delayed {d}ms"));
        }
        if core.roll(plan.resp_cut) {
            let cut = (wire.len() / 2).max(1);
            self.inbox.extend(wire[..cut].iter().copied());
            self.dead = Some(io::ErrorKind::ConnectionReset);
            core.inject(r, "resp_cut", kind, format!("conn {id}: response cut after {cut}/{} bytes", wire.len()));
            return Ok(());
        }
        if core.roll(plan.reorder) {
            self.inbox.extend(encode(Response::Pong));
            core.inject(r, "reorder", kind, format!("conn {id}: stale frame delivered ahead (reorder)"));
        }
        self.inbox.extend(wire.iter().copied());
        if core.roll(plan.duplicate) {
            self.inbox.extend(wire.iter().copied());
            core.inject(r, "duplicate", kind, format!("conn {id}: response duplicated"));
        }
        Ok(())
    }
}

impl Read for SimConnection {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !self.inbox.is_empty() {
            let n = buf.len().min(self.inbox.len());
            for slot in buf.iter_mut().take(n) {
                *slot = self.inbox.pop_front().expect("inbox length checked above");
            }
            return Ok(n);
        }
        if let Some(kind) = self.dead {
            return Err(kind.into());
        }
        // Nothing queued and the connection is alive: the real client
        // would block until its read timeout — burn it in virtual time.
        let mut core = self.net.mu.lock();
        let ms = core.plan.read_timeout_ms.max(1);
        core.clock.advance(SimDuration::from_millis(ms));
        let id = self.id;
        core.rnote(self.replica, format!("conn {id}: read timed out after {ms}ms"));
        Err(io::ErrorKind::TimedOut.into())
    }
}

impl Write for SimConnection {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(kind) = self.dead {
            return Err(kind.into());
        }
        self.pending.put_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(kind) = self.dead {
            return Err(kind.into());
        }
        while let Some(payload) = take_frame(&mut self.pending)? {
            self.deliver(&payload)?;
        }
        Ok(())
    }
}

/// The client side of a simulated shared-memory ring: frame-level (the
/// slot header owns framing, so there is no byte stream to cut
/// mid-length-prefix), local (`is_local`, so a client holding both this
/// and a [`SimTransport`] routes everything here while it is healthy)
/// and on the binary batch fast path, exactly like the real
/// `ShmTransport`. The fault plan translates to ring physics:
///
/// * `req_cut` / `resp_cut` → a **torn slot**: the exchange dies with
///   `ConnectionReset` and no frame is ever yielded from the tear
///   (slot-header validation rejects partial writes; the byte level is
///   covered by the codec proptests);
/// * `req_drop` / `resp_drop` → a **lost doorbell**: the frame sits
///   unseen and the client's next read burns its timeout;
/// * `connect_refuse` → the single seat is already claimed;
/// * `partition` → **ignored**: the ring never crosses the network;
/// * `reorder` / `duplicate` / `busy` → impossible by construction
///   (SPSC FIFO slots, exactly-once turns, no accept queue);
/// * `crash` → the daemon dies mid-turn, shm and TCP listeners alike.
pub struct SimShmTransport {
    net: Arc<NetState>,
    replica: usize,
}

impl Transport for SimShmTransport {
    fn connect(&mut self) -> io::Result<Box<dyn Connection>> {
        let r = self.replica;
        let mut core = self.net.mu.lock();
        core.tick(r);
        core.clock.advance(SimDuration::from_millis(DIAL_MS));
        if core.replicas[r].crashed_until.is_some() || core.replicas[r].shm_down_until.is_some() {
            // no ring file: the dial fails fast (the ladder's cue to
            // fall back to TCP), never a lingering timeout
            core.rnote(r, "shm dial failed fast: ring file missing".to_string());
            return Err(io::Error::new(io::ErrorKind::NotFound, "shm ring file missing"));
        }
        let p_refuse = core.plan.connect_refuse;
        if core.roll(p_refuse) {
            core.inject(r, "connect_refuse", Exchange::Shm, "shm dial bounced: seat busy".to_string());
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "shm session seat is busy"));
        }
        let id = core.next_conn;
        core.next_conn += 1;
        let incarnation = core.replicas[r].incarnation;
        core.rnote(r, format!("shm conn {id} attached"));
        Ok(Box::new(SimShmConnection {
            net: Arc::clone(&self.net),
            replica: r,
            id,
            incarnation,
            inbox: VecDeque::new(),
        }))
    }

    fn describe(&self) -> String {
        format!("simshm://{}", self.net.mu.lock().replicas[self.replica].label)
    }

    fn is_local(&self) -> bool {
        true
    }

    fn sleep(&mut self, d: Duration) {
        let ms = (d.as_millis() as u64).max(1);
        let mut core = self.net.mu.lock();
        core.clock.advance(SimDuration::from_millis(ms));
        core.note(format!("client backed off {ms}ms"));
    }
}

/// One simulated ring session: whole frames in, whole frames out.
struct SimShmConnection {
    net: Arc<NetState>,
    replica: usize,
    id: u64,
    incarnation: u64,
    /// Complete reply frames awaiting `recv_frame` (FIFO — the ring
    /// cannot reorder).
    inbox: VecDeque<Vec<u8>>,
}

impl SimShmConnection {
    /// Runs one request frame through the fault gauntlet and — if it
    /// survives — the daemon, queueing the reply frame. Binary batch
    /// frames are audited in the ledger as the `PredictMany` they
    /// decode to.
    fn deliver(&mut self, payload: &[u8]) -> io::Result<()> {
        let r = self.replica;
        let state = Arc::clone(&self.net);
        let mut core = state.mu.lock();
        core.tick(r);
        let plan = core.plan.clone();
        let (id, kind) = (self.id, Exchange::Shm);

        if core.replicas[r].crashed_until.is_some()
            || core.replicas[r].shm_down_until.is_some()
            || core.replicas[r].incarnation != self.incarnation
        {
            core.rnote(r, format!("shm conn {}: session reset (daemon gone)", self.id));
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "shm daemon died"));
        }
        if core.roll(plan.crash) {
            core.crash_now(r, kind);
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "shm daemon died"));
        }
        if core.roll(plan.req_cut) {
            // a torn request slot: validation rejects it and the
            // session dies — the daemon never sees a frame
            core.inject(r, "req_cut", kind, format!("shm conn {id}: torn request slot"));
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "torn shm slot"));
        }
        if core.roll(plan.req_drop) {
            core.inject(r, "req_drop", kind, format!("shm conn {id}: doorbell lost (request unseen)"));
            return Ok(());
        }
        if core.roll(plan.req_delay) {
            let d = core.rng.gen_range(1..=plan.max_delay_ms.max(1));
            core.clock.advance(SimDuration::from_millis(d));
            core.inject(r, "req_delay", kind, format!("shm conn {id}: writer stalled {d}ms"));
        }

        let (binary, frame) = decoded(payload);
        let wire = core.serve_and_audit(r, kind, &format!("shm conn {id}"), payload, binary, &frame);

        if core.roll(plan.resp_drop) {
            core.inject(r, "resp_drop", kind, format!("shm conn {id}: doorbell lost (reply unseen)"));
            return Ok(());
        }
        if core.roll(plan.resp_delay) {
            let d = core.rng.gen_range(1..=plan.max_delay_ms.max(1));
            core.clock.advance(SimDuration::from_millis(d));
            core.inject(r, "resp_delay", kind, format!("shm conn {id}: reader stalled {d}ms"));
        }
        if core.roll(plan.resp_cut) {
            // a torn reply slot: the client validates, rejects, and the
            // session dies — never a partial or garbage frame
            core.inject(r, "resp_cut", kind, format!("shm conn {id}: torn reply slot"));
            self.inbox.clear();
            self.inbox.push_back(Vec::new()); // sentinel: next recv reports the tear
            return Ok(());
        }
        self.inbox.push_back(wire);
        Ok(())
    }
}

impl Connection for SimShmConnection {
    fn send_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        self.deliver(payload)
    }

    fn recv_frame(&mut self) -> io::Result<Vec<u8>> {
        if let Some(frame) = self.inbox.pop_front() {
            if frame.is_empty() {
                return Err(io::Error::new(io::ErrorKind::ConnectionReset, "torn shm slot"));
            }
            return Ok(frame);
        }
        // nothing queued: burn the virtual read timeout like the real
        // spin-then-park wait would
        let mut core = self.net.mu.lock();
        let ms = core.plan.read_timeout_ms.max(1);
        core.clock.advance(SimDuration::from_millis(ms));
        let id = self.id;
        core.rnote(self.replica, format!("shm conn {id}: wait timed out after {ms}ms"));
        Err(io::ErrorKind::TimedOut.into())
    }

    fn fast_batch(&self) -> bool {
        true
    }
}

/// One request payload as the daemon will decode it.
fn decoded(payload: &[u8]) -> (bool, RequestFrame) {
    let (binary, frame) = wire::decode_request(payload);
    (binary, frame.expect("the harness client only writes well-formed frames"))
}

/// `payload` behind its length prefix: what a byte stream carries.
fn prefixed(payload: &[u8]) -> Vec<u8> {
    let mut stream = io::Cursor::new(Vec::new());
    stream.send_frame(payload).expect("replies fit a frame");
    stream.into_inner()
}

/// A bare reply no request was read for (a bounce, a stale frame), as
/// the byte stream carries it.
fn encode(response: Response) -> Vec<u8> {
    prefixed(&wire::encode_reply(false, None, response))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus::remote::{CallOptions, PredictClient};
    use eco_sim_node::cpu::CpuConfig;

    fn model(id: i64, system_hash: u64, binary_hash: u64) -> PreparedModel {
        PreparedModel {
            model_id: id,
            model_type: "brute-force".into(),
            system_hash,
            binary_hash,
            config: CpuConfig::new(16, 2_200_000, 1),
        }
    }

    fn client(net: &SimNet) -> PredictClient {
        crate::world::sim_client(&FaultPlan::none(), net.transport())
    }

    const OPTS: &CallOptions = &CallOptions { trace: None };

    #[test]
    fn clean_network_round_trips_and_advances_virtual_time() {
        let net = SimNet::new(7, FaultPlan::none(), vec![model(1, 10, 20)]);
        let mut c = client(&net);
        let cfg = c.predict(10, 20, OPTS).expect("fault-free predict succeeds");
        assert_eq!(cfg, CpuConfig::new(16, 2_200_000, 1));
        assert!(net.now_ms() >= DIAL_MS, "dialing must cost virtual time");
        assert!(net.finish().is_empty(), "clean run has no violations");
    }

    #[test]
    fn traced_predict_chains_client_and_daemon_spans_across_the_sim_wire() {
        let net = SimNet::new(7, FaultPlan::none(), vec![model(1, 10, 20)]);
        let tel = net.telemetry();
        let mut c = client(&net);
        c.set_telemetry(Arc::clone(&tel));
        c.predict(10, 20, OPTS).expect("fault-free predict succeeds");
        let events = tel.recorder().events();
        let attempt = events.iter().find(|e| e.layer == "client" && e.name == "attempt").expect("attempt span");
        let handle = events.iter().find(|e| e.layer == "daemon" && e.name == "handle").expect("daemon span");
        assert_eq!(handle.trace, attempt.trace, "one trace spans the simulated wire");
        assert_eq!(handle.parent, Some(attempt.span), "daemon work parents under the attempt that carried it");
        assert!(events.iter().any(|e| e.name == "registry_lookup" && e.parent == Some(handle.span)));
    }

    #[test]
    fn blackout_fails_fast_without_wall_sleeps() {
        let net = SimNet::new(7, FaultPlan::blackout(), vec![model(1, 10, 20)]);
        let mut c = client(&net);
        assert!(c.predict(10, 20, OPTS).is_err(), "no daemon, no answer");
        assert!(net.finish().is_empty(), "an unreachable daemon violates nothing");
    }

    #[test]
    fn same_seed_same_network_log() {
        let run = |seed: u64| {
            let net = SimNet::new(seed, FaultPlan::chaos(), vec![model(1, 10, 20)]);
            let mut c = client(&net);
            for _ in 0..20 {
                let _ = c.predict(10, 20, OPTS);
                let _ = c.ping();
            }
            let violations = net.finish();
            assert!(violations.is_empty(), "chaos must not break invariants: {violations:?}");
            net.log()
        };
        assert_eq!(run(42), run(42), "same seed must replay identically");
        assert_ne!(run(42), run(43), "different seeds should diverge");
    }

    #[test]
    fn fleet_transports_reach_distinct_replicas() {
        let net = SimNet::fleet(11, FaultPlan::none(), &["r0", "r1", "r2"], vec![model(1, 10, 20)]);
        assert_eq!(net.replicas(), 3);
        let mut c = PredictClient::builder()
            .transport(Box::new(net.transport_for(0)))
            .transport(Box::new(net.transport_for(1)))
            .transport(Box::new(net.transport_for(2)))
            .build()
            .unwrap();
        assert_eq!(c.endpoints(), vec!["simnet://r0", "simnet://r1", "simnet://r2"]);
        c.predict(10, 20, OPTS).expect("fleet predict succeeds");
        // killing one replica reroutes instead of failing
        net.kill_replica(0, 1_000_000);
        net.kill_replica(1, 1_000_000);
        for _ in 0..4 {
            c.predict(10, 20, OPTS).expect("one live replica still answers");
        }
        assert!(net.finish().is_empty(), "fleet run has no violations");
    }
}
