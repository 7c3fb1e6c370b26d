//! The simulated network: one in-memory [`Transport`], [`SimTransport`],
//! whose connections carry whole frames over a simulated TCP stream or
//! shm ring straight into a real [`PredictService`] under a seeded fault
//! plan, advancing a shared virtual clock instead of ever sleeping.
//!
//! Determinism contract: every random decision comes from one
//! [`StdRng`] seeded per run, every passage of time is an explicit
//! [`SharedSimClock::advance`], and every event appends a
//! `t=<virtual ms>` line to one log. Same seed + same plan ⇒ the same
//! log, byte for byte.
//!
//! A daemon here is a [`PredictService`] (the transport-free engine the
//! real TCP server uses) over one model source: a [`SimBackend`], or in
//! a store-backed fleet the store itself, as in production
//! ([`StoreModelBackend`]). "Crashing" it swaps in a fresh service,
//! which loses the model registry exactly like a real process restart —
//! but not before the [`Ledger`] audits the dying incarnation's
//! counters. [`SimNet::new`] builds the classic single daemon;
//! [`SimNet::fleet`] builds N replicas sharing the clock, RNG and
//! backend but each with its own service, ledger, partition state and
//! crash schedule — the substrate the failover-aware
//! [`chronus::remote::PredictClient`] is simulated against.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use chronus::error::ChronusError;
use chronus::remote::{ceil_ms, wire, Connection, Request, RequestFrame, Response, Transport};
use chronus::telemetry::{Recorder, Telemetry};
use chronusd::backend::{ModelBackend, PreparedModel, StoreModelBackend};
use chronusd::service::{PredictService, QueueGauges, ServiceClock};
use chronusd::store::ModelStore;
use eco_sim_node::clock::{SharedSimClock, SimDuration, SimTime};
use parking_lot::Mutex;
use rand::{Rng, SeedableRng, StdRng};

use crate::faults::FaultPlan;
use crate::invariants::{kind_of, verb_of, Ledger};

/// A deliberately tiny registry (one slot) so LRU churn, backend
/// consults and their fault opportunities happen constantly.
const CACHE_CAP: usize = 1;

/// Virtual cost of a successful dial.
const DIAL_MS: u64 = 1;

/// Virtual cost of a dial that times out against a partition.
const DIAL_TIMEOUT_MS: u64 = 5;

/// The gauges the simulated transport reports with `Stats` answers (it
/// has no real sockets to count).
fn sim_gauges() -> QueueGauges {
    QueueGauges { connections: 0, max_connections: 64 }
}

/// Recorder capacity for one seeded run. Connectivity assertions walk
/// whole traces, so the ring must comfortably outlast a run (32
/// submissions × a dozen spans each plus admin traffic and retries).
const RECORDER_CAP: usize = 1 << 16;

/// What carried an exchange: one single-key or control-plane frame or
/// one `PredictMany` batch over the simulated TCP stream, or any frame
/// over the simulated shm ring (see [`SimTransport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Exchange {
    Single,
    Batch,
    Shm,
}

impl Exchange {
    pub const ALL: [Exchange; 3] = [Exchange::Single, Exchange::Batch, Exchange::Shm];

    /// Whether the fault `family` ([`FaultPlan::families`]) can show up
    /// under this kind at all — what the gauntlet rolls
    /// (`NetCore::roll`) and what the took-effect audit owes. A dial
    /// carries no frame yet, so the TCP side books its dial-level
    /// families under `Single`. The ring never crosses the network (no
    /// partition), its one mailbox per direction can neither reorder nor
    /// duplicate a frame, and it has no accept queue to bounce from (no
    /// busy).
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

/// Adapts the shared millisecond clock to the telemetry's nanosecond
/// readings, exactly: deadline verdicts and span durations stay
/// virtual-time exact.
struct SimServiceClock(Arc<SharedSimClock>);

impl ServiceClock for SimServiceClock {
    fn now_nanos(&self) -> u64 {
        self.0.now().as_millis() * 1_000_000
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
    /// exists only for a ring [`SimTransport`]; network partitions never
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
    /// The store-less replicas' model source (a store fleet never reads it).
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
    /// Whether fault `family` ([`FaultPlan::families`]) strikes an
    /// exchange of `kind` now. A family the kind cannot suffer
    /// ([`Exchange::admits`]) never does, and costs no draw.
    fn roll(&mut self, kind: Exchange, family: &str) -> bool {
        let (_, p) = self.plan.families().into_iter().find(|&(f, _)| f == family).expect("a fault family");
        kind.admits(family) && p > 0.0 && self.rng.gen_bool(p)
    }

    /// Draws an injected delay and lets it pass — but no further than
    /// `until`, when the client stops waiting; returns it in ms.
    fn delay(&mut self, until: u64) -> u64 {
        let d = self.rng.gen_range(1..=self.plan.max_delay_ms.max(1));
        self.clock.advance(SimDuration::from_millis(d.min(left(&self.clock, until))));
        d
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
    /// [`decoded`], `who` names the connection in the log. A slow backend
    /// stalls no further than `until`, when the client stops waiting.
    /// Returns the reply payload.
    #[allow(clippy::too_many_arguments)]
    fn serve_and_audit(
        &mut self,
        r: usize,
        kind: Exchange,
        who: &str,
        payload: &[u8],
        binary: bool,
        frame: &RequestFrame,
        until: u64,
    ) -> Vec<u8> {
        let backend_slow = self.roll(kind, "backend_slow");
        let backend_poisoned = self.roll(kind, "backend_poison");
        let latency_ms = if backend_slow { self.plan.backend_latency_ms.min(left(&self.clock, until)) } else { 0 };
        self.backend.latency_ms.store(latency_ms, Ordering::SeqCst);
        self.backend.poisoned.store(backend_poisoned, Ordering::SeqCst);

        let before = self.replicas[r].service.snapshot(sim_gauges());
        let t0 = self.clock.now();
        let reply = self.replicas[r].service.answer(payload, sim_gauges());
        let elapsed_ms = (self.clock.now() - t0).as_millis();
        let after = self.replicas[r].service.snapshot(sim_gauges());
        let (_, response) = wire::decode_reply(&reply).expect("the daemon writes well-formed replies");
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
    let source: Arc<dyn ModelBackend> = match store {
        Some(store) => Arc::new(StoreModelBackend::new(Arc::clone(store), "/sim/store")),
        None => Arc::clone(backend) as Arc<dyn ModelBackend>,
    };
    let service = PredictService::with_telemetry(CACHE_CAP, source, Arc::new(telemetry));
    let service = Arc::new(service.with_replica(label));
    // a store-backed daemon self-serves its models at boot, exactly like
    // the real process does before accepting traffic (a no-op without)
    let _ = service.catch_up_from_store();
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

    /// A fleet whose replicas all read one durable model store, their
    /// one model source ([`StoreModelBackend`], as in `chronus serve`):
    /// each catches up to the serving generation at (re)start, so store
    /// commits, rollouts and rollbacks reach the fleet through
    /// [`SimNet::catch_up`] — the adaptation worlds' substrate.
    pub fn fleet_with_store(seed: u64, plan: FaultPlan, labels: &[&str], store: Arc<Mutex<ModelStore>>) -> SimNet {
        SimNet::build(seed, plan, labels, Vec::new(), Some(store))
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
        self.endpoint(i, false)
    }

    /// A fresh client-side endpoint to replica `i`'s *shared-memory
    /// ring*: local, so the client prefers it over TCP entries to the
    /// same fleet (see [`SimTransport`]).
    pub fn shm_transport_for(&self, i: usize) -> SimTransport {
        self.endpoint(i, true)
    }

    fn endpoint(&self, i: usize, ring: bool) -> SimTransport {
        assert!(i < self.state.mu.lock().replicas.len(), "replica {i} does not exist");
        SimTransport { net: Arc::clone(&self.state), replica: i, ring }
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
/// transport is pinned to one replica, exactly like a real endpoint, and
/// reaches it over one of two media:
///
/// * the TCP stream (`simnet://`): a dial is refused, or times out
///   against a partition, and a cut leaves the client a stream that ends
///   mid-frame;
/// * the replica's shared-memory ring (`simshm://`, `ring`): local
///   ([`Transport::is_local`], so a client holding both routes everything
///   here while it is healthy) and gone while [`SimNet::drop_shm`] holds
///   it down. A refused dial is its one seat already claimed, a cut a
///   torn slot, a drop a lost doorbell, a delay a stalled writer or
///   reader.
///
/// Both media run one gauntlet; which families a medium cannot suffer
/// at all is [`Exchange::admits`].
pub struct SimTransport {
    net: Arc<NetState>,
    replica: usize,
    ring: bool,
}

impl Transport for SimTransport {
    fn connect(&mut self) -> io::Result<Box<dyn Connection>> {
        self.connect_within(Duration::from_millis(DIAL_TIMEOUT_MS))
    }

    /// A dial lost to a partition times out after the shorter of
    /// `timeout` and `DIAL_TIMEOUT_MS`.
    fn connect_within(&mut self, timeout: Duration) -> io::Result<Box<dyn Connection>> {
        let (r, ring) = (self.replica, self.ring);
        let kind = if ring { Exchange::Shm } else { Exchange::Single };
        let mut core = self.net.mu.lock();
        core.tick(r);
        core.clock.advance(SimDuration::from_millis(DIAL_MS));
        if ring && (core.replicas[r].crashed_until.is_some() || core.replicas[r].shm_down_until.is_some()) {
            // no ring file: the dial fails fast (the ladder's cue to
            // fall back to TCP), never a lingering timeout
            core.rnote(r, "shm dial failed fast: ring file missing".to_string());
            return Err(io::Error::new(io::ErrorKind::NotFound, "shm ring file missing"));
        }
        if core.replicas[r].crashed_until.is_some() {
            core.rnote(r, "dial refused: daemon down".to_string());
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "daemon down"));
        }
        if core.replicas[r].partitioned_until.is_none() && core.roll(kind, "partition") {
            let span = core.plan.partition_ms.max(1);
            core.replicas[r].partitioned_until = Some(core.clock.now() + SimDuration::from_millis(span));
            core.inject(r, "partition", kind, format!("network partition begins ({span}ms)"));
        }
        if !ring && core.replicas[r].partitioned_until.is_some() {
            core.clock.advance(SimDuration::from_millis(ceil_ms(timeout).min(DIAL_TIMEOUT_MS)));
            core.rnote(r, "dial timed out: partitioned".to_string());
            return Err(io::Error::new(io::ErrorKind::TimedOut, "network partitioned"));
        }
        if core.roll(kind, "connect_refuse") {
            if ring {
                core.inject(r, "connect_refuse", kind, "shm dial bounced: seat busy".to_string());
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "shm session seat is busy"));
            }
            core.inject(r, "connect_refuse", kind, "dial refused".to_string());
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "connection refused"));
        }
        let conn = SimConnection {
            net: Arc::clone(&self.net),
            replica: r,
            ring,
            id: core.next_conn,
            incarnation: core.replicas[r].incarnation,
            inbox: VecDeque::new(),
            dead: None,
            until: 0,
        };
        core.next_conn += 1;
        core.rnote(r, format!("{} {}", conn.who(), if ring { "attached" } else { "established" }));
        Ok(Box::new(conn))
    }

    fn describe(&self) -> String {
        let scheme = if self.ring { "simshm" } else { "simnet" };
        format!("{scheme}://{}", self.net.mu.lock().replicas[self.replica].label)
    }

    fn is_local(&self) -> bool {
        self.ring
    }

    /// The shared virtual clock: request budgets run on virtual time.
    fn now(&self) -> Duration {
        Duration::from_millis(self.net.clock.now().as_millis())
    }

    /// Client backoffs and Busy hints burn virtual time, not wall time.
    fn sleep(&mut self, d: Duration) {
        let ms = (d.as_millis() as u64).max(1);
        let mut core = self.net.mu.lock();
        core.clock.advance(SimDuration::from_millis(ms));
        core.note(format!("client backed off {ms}ms"));
    }
}

/// One simulated connection: whole request frames in, whole reply
/// frames out. The client never reads a partial frame: a cut stream and
/// a torn slot both leave it the connection's death, once `inbox` is
/// drained.
struct SimConnection {
    net: Arc<NetState>,
    replica: usize,
    ring: bool,
    id: u64,
    /// Daemon incarnation this connection was dialed against; a restart
    /// in between resets it, exactly like a real peer dying.
    incarnation: u64,
    inbox: VecDeque<Vec<u8>>,
    dead: Option<io::ErrorKind>,
    /// Virtual ms at which the client stops waiting for this exchange's
    /// reply ([`Connection::arm`]).
    until: u64,
}

/// Virtual milliseconds left before `until`.
fn left(clock: &SharedSimClock, until: u64) -> u64 {
    until.saturating_sub(clock.now().as_millis())
}

impl SimConnection {
    /// How the log names this connection.
    fn who(&self) -> String {
        format!("{}conn {}", if self.ring { "shm " } else { "" }, self.id)
    }

    /// Marks the connection dead: every send from now on, and every read
    /// once `inbox` is drained, fails with `kind`.
    fn die(&mut self, kind: io::ErrorKind) -> io::Result<()> {
        self.dead = Some(kind);
        Err(kind.into())
    }

    /// Runs one request frame through the fault gauntlet and — if it
    /// survives — the daemon, queueing whatever reply frames the client
    /// should eventually read. Both media roll the same families in the
    /// same order; [`NetCore::roll`] skips one the medium cannot suffer.
    /// Delays and stalls end when the client stops waiting, `until`.
    fn deliver(&mut self, payload: &[u8]) -> io::Result<()> {
        let (r, ring, who, until) = (self.replica, self.ring, self.who(), self.until);
        let state = Arc::clone(&self.net);
        let mut core = state.mu.lock();
        core.tick(r);
        let (binary, frame) = decoded(payload);
        let kind = match frame.body {
            _ if ring => Exchange::Shm,
            Request::PredictMany { .. } => Exchange::Batch,
            _ => Exchange::Single,
        };
        // what the log calls a fault on the stream and on the ring
        let say = |stream: &str, shm: &str| format!("{who}: {}", if ring { shm } else { stream });

        let down = core.replicas[r].crashed_until.is_some() || (ring && core.replicas[r].shm_down_until.is_some());
        if down || core.replicas[r].incarnation != self.incarnation {
            let stream = if down { "reset (daemon down)" } else { "reset (stale connection, daemon restarted)" };
            core.rnote(r, say(stream, "session reset (daemon gone)"));
            return self.die(io::ErrorKind::ConnectionReset);
        }
        if core.roll(kind, "crash") {
            core.crash_now(r, kind);
            return self.die(io::ErrorKind::ConnectionReset);
        }
        if !ring && core.replicas[r].partitioned_until.is_some() {
            core.rnote(r, format!("{who}: request lost in partition"));
            return Ok(()); // the client's next read times out
        }
        if core.roll(kind, "req_cut") {
            // the daemon never sees a frame cut off the wire or a torn slot
            core.inject(r, "req_cut", kind, say("request frame cut mid-flight", "torn request slot"));
            return self.die(io::ErrorKind::ConnectionReset);
        }
        if core.roll(kind, "req_drop") {
            core.inject(r, "req_drop", kind, say("request dropped", "doorbell lost (request unseen)"));
            return Ok(());
        }
        if core.roll(kind, "req_delay") {
            let d = core.delay(until);
            core.inject(r, "req_delay", kind, format!("{} {d}ms", say("request delayed", "writer stalled")));
        }
        if core.roll(kind, "busy") {
            // what the accept loop does when its queue is full: count it,
            // answer Busy, hang up
            let retry_after_ms = core.plan.retry_after_ms;
            core.replicas[r].service.telemetry().counter("daemon.busy_rejections").bump();
            core.replicas[r].ledger.busy_injected += 1;
            self.inbox.push_back(wire::encode_reply(false, None, Response::Busy { retry_after_ms }));
            self.dead = Some(io::ErrorKind::ConnectionAborted);
            core.inject(r, "busy", kind, format!("{who}: busy bounce (retry after {retry_after_ms}ms)"));
            return Ok(());
        }

        let reply = core.serve_and_audit(r, kind, &who, payload, binary, &frame, until);

        if core.roll(kind, "resp_drop") {
            core.inject(r, "resp_drop", kind, say("response dropped", "doorbell lost (reply unseen)"));
            return Ok(());
        }
        if core.roll(kind, "resp_delay") {
            let d = core.delay(until);
            core.inject(r, "resp_delay", kind, format!("{} {d}ms", say("response delayed", "reader stalled")));
        }
        if core.roll(kind, "resp_cut") {
            let len = 4 + reply.len(); // the stream's length prefix and payload
            let cut = format!("response cut after {}/{len} bytes", (len / 2).max(1));
            core.inject(r, "resp_cut", kind, say(&cut, "torn reply slot"));
            self.dead = Some(io::ErrorKind::ConnectionReset);
            return Ok(());
        }
        if core.roll(kind, "reorder") {
            self.inbox.push_back(wire::encode_reply(false, None, Response::Pong));
            core.inject(r, "reorder", kind, format!("{who}: stale frame delivered ahead (reorder)"));
        }
        if core.roll(kind, "duplicate") {
            self.inbox.push_back(reply.clone());
            core.inject(r, "duplicate", kind, format!("{who}: response duplicated"));
        }
        self.inbox.push_back(reply);
        Ok(())
    }
}

impl Connection for SimConnection {
    fn send_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        match self.dead {
            Some(kind) => Err(kind.into()),
            None => self.deliver(payload),
        }
    }

    /// Anything queued once the client stopped waiting is never read.
    fn recv_frame(&mut self) -> io::Result<Vec<u8>> {
        let left = left(&self.net.clock, self.until);
        if left > 0 {
            if let Some(frame) = self.inbox.pop_front() {
                return Ok(frame);
            }
            if let Some(kind) = self.dead {
                return Err(kind.into());
            }
        }
        // Nothing to read in time and the connection is alive: the real
        // client would block until its timeout — burn it in virtual time.
        let mut core = self.net.mu.lock();
        core.clock.advance(SimDuration::from_millis(left));
        let wait = if self.ring { "wait" } else { "read" };
        core.rnote(self.replica, format!("{}: {wait} timed out", self.who()));
        Err(io::ErrorKind::TimedOut.into())
    }

    fn arm(&mut self, timeout: Duration) -> io::Result<()> {
        self.until = self.net.clock.now().as_millis() + ceil_ms(timeout);
        Ok(())
    }
}

/// One request payload as the daemon will decode it.
fn decoded(payload: &[u8]) -> (bool, RequestFrame) {
    let (binary, frame) = wire::decode_request(payload);
    (binary, frame.expect("the harness client only writes well-formed frames"))
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
        crate::world::sim_client(net.transport())
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

    /// Every fault the gauntlet books is one its exchange kind admits:
    /// the ring rolls no family it cannot suffer, and the took-effect
    /// audit owes none.
    #[test]
    fn no_medium_books_a_fault_its_exchange_kind_does_not_admit() {
        let plan = FaultPlan::chaos();
        let net = SimNet::new(5, plan.clone(), vec![model(1, 10, 20), model(2, 10, 21)]);
        let transports: Vec<Box<dyn Transport>> =
            vec![Box::new(net.shm_transport_for(0)), Box::new(net.transport_for(0))];
        let mut c = crate::world::failover_client(transports).build().unwrap();
        let keys: Vec<(u64, u64)> = (20..26).map(|b| (10, b)).collect();
        for round in 0..400 {
            if round == 200 {
                net.drop_shm(0, 1_000_000);
            }
            let _ = c.predict_many(&keys, OPTS);
            let _ = c.ping();
        }
        let injected = net.injected();
        let faults: Vec<_> = injected
            .0
            .iter()
            .filter(|((what, _), _)| ![Injected::DELIVERED, Injected::PREDICTS].contains(what))
            .filter(|((what, _), _)| !what.starts_with("backend_"))
            .collect();
        assert!(faults.iter().any(|((_, kind), _)| *kind == Exchange::Shm), "the ring took no fault: {faults:?}");
        assert!(faults.iter().any(|((_, kind), _)| *kind != Exchange::Shm), "TCP took no fault: {faults:?}");
        for ((family, kind), n) in faults {
            assert!(kind.admits(family), "{n} {family} fault(s) booked under {kind:?}, which does not admit it");
        }
        assert!(net.finish().is_empty(), "chaos over both media breaks no invariant");
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
