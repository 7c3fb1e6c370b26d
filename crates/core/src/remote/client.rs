//! The blocking chronusd client: one or many replicas behind a
//! consistent-hash ring with health-checked failover.
//!
//! ## Fleet mode
//!
//! A client built with several endpoints routes each `Predict` by
//! [`predict_key`]`(system_hash, binary_hash)` on a [`HashRing`], so
//! every client in the cluster sends the same key to the same replica
//! and each daemon's registry stays hot for its share of the keyspace.
//! Transport failures fail over to the next replica in ring order
//! without sleeping; a replica that fails `DOWN_AFTER` consecutive
//! exchanges leaves the ring (negative-result caching: a dead replica
//! then costs one probe per cooldown window, not one timeout per
//! submission). Probes are plain `Ping`s; a probe that answers `Pong`
//! triggers rejoin, and a rejoining replica is first re-preloaded with
//! every fleet-committed model so it never re-enters the ring behind
//! the committed rollout state.
//!
//! With a single endpoint there is no ring lookup, no probe and no
//! failover: the retry loop runs over the one candidate. Everything
//! that touches a connection is [`Link`]'s; this module is the fleet
//! layer over it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use eco_sim_node::cpu::CpuConfig;

use super::endpoint::{Endpoint, EndpointParseError};
use super::link::Link;
use super::ring::{predict_key, HashRing};
use super::{
    KeyOutcome, ObservedOutcome, PreloadAck, RemoteError, Request, RequestFrame, Response, StatsSnapshot, Transport,
    MAX_BATCH_KEYS,
};
use crate::telemetry::{Counter, Histogram, Telemetry, TraceContext};

/// Per-call options for [`PredictClient`] RPCs: the caller's trace
/// context. (The deadline budget is the client's, see
/// [`ClientBuilder::deadline_ms`].)
#[derive(Debug, Clone, Copy, Default)]
pub struct CallOptions {
    /// Propagated trace context; each attempt opens a `client/attempt`
    /// span under it and stamps that span's context on the wire frame.
    pub trace: Option<TraceContext>,
}

impl CallOptions {
    /// Options carrying a trace context.
    pub fn traced(trace: Option<TraceContext>) -> CallOptions {
        CallOptions { trace }
    }
}

/// Why [`ClientBuilder::build`] refused a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientBuildError {
    /// No endpoint or transport was supplied.
    NoEndpoints,
    /// A timeout knob was zero (named in the payload).
    ZeroTimeout(&'static str),
    /// `max_retries` above the sanity bound (16).
    RetriesOutOfRange(u32),
    /// An endpoint string that does not parse (named in the payload);
    /// see [`Endpoint`] for the accepted shapes.
    BadEndpoint(EndpointParseError),
}

impl std::fmt::Display for ClientBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientBuildError::NoEndpoints => write!(f, "client needs at least one endpoint or transport"),
            ClientBuildError::ZeroTimeout(which) => write!(f, "{which} timeout must be non-zero"),
            ClientBuildError::RetriesOutOfRange(n) => write!(f, "max_retries {n} exceeds the sanity bound of 16"),
            ClientBuildError::BadEndpoint(e) => write!(f, "bad endpoint: {e}"),
        }
    }
}

impl std::error::Error for ClientBuildError {}

enum Target {
    /// An endpoint string, parsed by [`Endpoint::parse`] at build time.
    Spec(String),
    /// A caller-supplied transport (in-memory, fault-injecting, ...).
    Transport(Box<dyn Transport>),
}

/// Builds a [`PredictClient`], validating every knob up front. This is
/// the only way to construct a fleet-mode (multi-endpoint) client.
///
/// ```no_run
/// use chronus::remote::PredictClient;
/// let client = PredictClient::builder()
///     .endpoints(["10.0.0.1:4117", "10.0.0.2:4117", "10.0.0.3:4117"])
///     .max_retries(2)
///     .build()
///     .expect("valid config");
/// ```
pub struct ClientBuilder {
    endpoints: Vec<Target>,
    connect_timeout: Duration,
    read_timeout: Duration,
    max_retries: u32,
    backoff: Duration,
    deadline_ms: Option<u64>,
    probe_cooldown: u32,
}

/// Ring points per replica.
const VNODES: u32 = 64;
/// Consecutive transport failures before a replica leaves the ring. The
/// last in-ring replica never leaves.
const DOWN_AFTER: u32 = 2;

impl Default for ClientBuilder {
    fn default() -> Self {
        ClientBuilder {
            endpoints: Vec::new(),
            connect_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_millis(500),
            max_retries: 2,
            backoff: Duration::from_millis(10),
            deadline_ms: None,
            probe_cooldown: 16,
        }
    }
}

impl ClientBuilder {
    /// Adds one endpoint: `tcp://host:port`, `shm://path`, or bare
    /// `host:port` (which stays TCP, so pre-scheme configs survive).
    /// Repeatable; two or more endpoints make a fleet-mode client.
    /// Parsing happens — and bad strings are reported — at
    /// [`ClientBuilder::build`] time.
    pub fn endpoint(mut self, addr: impl Into<String>) -> Self {
        self.endpoints.push(Target::Spec(addr.into()));
        self
    }

    /// Adds several endpoints at once (same shapes as
    /// [`ClientBuilder::endpoint`]).
    pub fn endpoints<I, S>(mut self, addrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        for a in addrs {
            self.endpoints.push(Target::Spec(a.into()));
        }
        self
    }

    /// Adds a replica reached over an arbitrary [`Transport`]
    /// (in-memory, fault-injecting, ...). Repeatable, and mixable with
    /// [`ClientBuilder::endpoint`].
    pub fn transport(mut self, transport: Box<dyn Transport>) -> Self {
        self.endpoints.push(Target::Transport(transport));
        self
    }

    /// TCP connect timeout (default 200 ms).
    pub fn connect_timeout(mut self, d: Duration) -> Self {
        self.connect_timeout = d;
        self
    }

    /// Per-response read timeout (default 500 ms).
    pub fn read_timeout(mut self, d: Duration) -> Self {
        self.read_timeout = d;
        self
    }

    /// Additional attempts after the first (default 2; 0 = fail fast).
    pub fn max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Base backoff between attempts; grows linearly (default 10 ms).
    pub fn backoff(mut self, d: Duration) -> Self {
        self.backoff = d;
        self
    }

    /// Deadline budget stamped on every request frame (default: none).
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Requests to wait between probes of an out-of-ring replica
    /// (default 16). Each probe is one `Ping`, so a dead replica costs
    /// one timeout per window instead of one per submission.
    pub fn probe_cooldown(mut self, n: u32) -> Self {
        self.probe_cooldown = n;
        self
    }

    /// Validates the configuration and constructs the client. Nothing
    /// connects yet — the first RPC does.
    pub fn build(self) -> Result<PredictClient, ClientBuildError> {
        if self.endpoints.is_empty() {
            return Err(ClientBuildError::NoEndpoints);
        }
        if self.connect_timeout.is_zero() {
            return Err(ClientBuildError::ZeroTimeout("connect"));
        }
        if self.read_timeout.is_zero() {
            return Err(ClientBuildError::ZeroTimeout("read"));
        }
        if self.max_retries > 16 {
            return Err(ClientBuildError::RetriesOutOfRange(self.max_retries));
        }
        let mut replicas: Vec<Replica> = Vec::with_capacity(self.endpoints.len());
        for e in self.endpoints {
            let transport: Box<dyn Transport> = match e {
                Target::Spec(spec) => Endpoint::parse(&spec)
                    .map_err(ClientBuildError::BadEndpoint)?
                    .transport(self.connect_timeout, self.read_timeout),
                Target::Transport(t) => t,
            };
            replicas.push(Replica {
                link: Link::new(transport),
                in_ring: true,
                consecutive_failures: 0,
                probe_in: 0,
                generation: 0,
            });
        }
        let mut ring = HashRing::new(VNODES);
        ring.rebuild(0..replicas.len() as u32);
        Ok(PredictClient {
            replicas,
            ring,
            knobs: Knobs {
                max_retries: self.max_retries,
                backoff: self.backoff,
                deadline_ms: self.deadline_ms,
                probe_cooldown: self.probe_cooldown,
            },
            tel: None,
            rolled_models: Vec::new(),
            rejoining: false,
            last_tag: 0,
        })
    }
}

#[derive(Debug, Clone)]
struct Knobs {
    max_retries: u32,
    backoff: Duration,
    deadline_ms: Option<u64>,
    probe_cooldown: u32,
}

/// A [`Link`] plus what the fleet layer knows about its health. Local
/// links ([`Link::local`]) are preferred over ring routing while they
/// are on the ring.
struct Replica {
    link: Link,
    in_ring: bool,
    consecutive_failures: u32,
    /// Requests until the next probe while out of the ring.
    probe_in: u32,
    /// Last rollout generation this replica acknowledged to us.
    generation: u64,
}

/// One replica's health and rollout state, as the client sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// The replica's endpoint description.
    pub endpoint: String,
    /// Whether the replica is currently on the routing ring.
    pub in_ring: bool,
    /// The last rollout generation it acknowledged (0 = none seen).
    pub generation: u64,
}

/// Per-replica outcome of a fleet-wide model rollout
/// ([`PredictClient::preload_detailed`]).
#[derive(Debug)]
pub struct FleetPreload {
    /// Replicas that committed the model, with their acknowledgements.
    pub acks: Vec<(String, PreloadAck)>,
    /// Replicas that failed, with the error each one produced.
    pub failures: Vec<(String, RemoteError)>,
}

/// A blocking client for one chronusd daemon or a fleet of replicas.
/// Holds one persistent connection per replica, reconnecting lazily
/// after any failure; every RPC retries a bounded number of times with
/// linear backoff, honouring the daemon's `Busy { retry_after_ms }`
/// hint and failing over between replicas in ring order. All waiting
/// goes through each replica's [`Transport`], so a simulated transport
/// sees every back-off.
pub struct PredictClient {
    replicas: Vec<Replica>,
    ring: HashRing,
    knobs: Knobs,
    tel: Option<ClientTelemetry>,
    /// Model ids committed fleet-wide, in rollout order; replayed into
    /// any replica that rejoins the ring.
    rolled_models: Vec<i64>,
    /// Re-entrancy guard: rejoin replays preloads whose own successes
    /// must not recursively trigger another rejoin.
    rejoining: bool,
    /// The last tag stamped on a batch frame; never reused, so the echo
    /// check tells this exchange's reply from any earlier one's.
    last_tag: u64,
}

/// The client's cached telemetry handles: counter lookups happen once,
/// at [`PredictClient::set_telemetry`] time, not per request.
struct ClientTelemetry {
    telemetry: Arc<Telemetry>,
    requests: Counter,
    attempts: Counter,
    retries: Counter,
    busy: Counter,
    errors: Counter,
    batch_keys: Histogram,
    ring_lookups: Counter,
    ring_failovers: Counter,
    ring_rebuilds: Counter,
    ring_probes: Counter,
    ring_repreloads: Counter,
}

/// The routing key for a request body: predictions hash their
/// `(system, binary)` pair; every other verb shares one fixed position.
fn routing_key(body: &Request) -> u64 {
    match body {
        Request::Predict { system_hash, binary_hash } => predict_key(*system_hash, *binary_hash),
        // outcomes follow their prediction key so each replica's drift
        // detector sees the traffic it actually served
        Request::ReportOutcome { system_hash, binary_hash, .. } => predict_key(*system_hash, *binary_hash),
        _ => 0,
    }
}

impl std::fmt::Debug for PredictClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictClient")
            .field("endpoints", &self.replicas.iter().map(|r| r.link.desc.as_str()).collect::<Vec<_>>())
            .field("in_ring", &self.replicas_in_ring())
            .field("knobs", &self.knobs)
            .finish()
    }
}

impl PredictClient {
    /// Starts building a client; see [`ClientBuilder`].
    pub fn builder() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// The first replica's endpoint (the only one in single-daemon
    /// mode); see [`PredictClient::endpoints`] for the whole fleet.
    pub fn addr(&self) -> &str {
        &self.replicas[0].link.desc
    }

    /// Every replica endpoint this client balances over.
    pub fn endpoints(&self) -> Vec<&str> {
        self.replicas.iter().map(|r| r.link.desc.as_str()).collect()
    }

    /// Total replicas configured.
    pub fn replicas_total(&self) -> usize {
        self.replicas.len()
    }

    /// Replicas currently on the routing ring.
    pub fn replicas_in_ring(&self) -> usize {
        self.replicas.iter().filter(|r| r.in_ring).count()
    }

    /// Per-replica health and last-acknowledged rollout generation.
    pub fn replica_health(&self) -> Vec<ReplicaStatus> {
        self.replicas
            .iter()
            .map(|r| ReplicaStatus { endpoint: r.link.desc.clone(), in_ring: r.in_ring, generation: r.generation })
            .collect()
    }

    /// Attaches telemetry: every RPC from here on bumps `client.*` and
    /// `ring.*` counters and records one `client/attempt` span per
    /// exchange (retries included), each carrying its own context on
    /// the wire so daemon-side spans parent under the exact attempt
    /// that reached it.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.tel = Some(ClientTelemetry {
            requests: telemetry.counter("client.requests"),
            attempts: telemetry.counter("client.attempts"),
            retries: telemetry.counter("client.retries"),
            busy: telemetry.counter("client.busy"),
            errors: telemetry.counter("client.errors"),
            batch_keys: telemetry.histogram("client.batch_keys"),
            ring_lookups: telemetry.counter("ring.lookups"),
            ring_failovers: telemetry.counter("ring.failovers"),
            ring_rebuilds: telemetry.counter("ring.rebuilds"),
            ring_probes: telemetry.counter("ring.probes"),
            ring_repreloads: telemetry.counter("ring.repreloads"),
            telemetry,
        });
    }

    /// Sends one request, retrying on connection errors and on `Busy`
    /// back-pressure and failing over between replicas in ring order.
    /// Any protocol-level answer other than `Busy` (including `Miss`
    /// and `DeadlineExceeded`) is returned as-is.
    pub fn request(&mut self, body: Request, opts: &CallOptions) -> Result<Response, RemoteError> {
        if let Some(t) = &self.tel {
            t.requests.bump();
        }
        self.route(body, opts)
    }

    /// [`PredictClient::request`] without the `client.requests` bump,
    /// which counts public calls: a batch that falls back per key is
    /// still one request.
    fn route(&mut self, body: Request, opts: &CallOptions) -> Result<Response, RemoteError> {
        self.probe_if_due(opts.trace);
        let candidates = self.candidates(routing_key(&body));
        self.drive(body, opts, &candidates)
    }

    /// Round-trip liveness probe; returns the observed latency.
    pub fn ping(&mut self) -> Result<Duration, RemoteError> {
        let start = Instant::now();
        match self.request(Request::Ping, &CallOptions::default())? {
            Response::Pong => Ok(start.elapsed()),
            other => Err(RemoteError::Protocol(format!("expected Pong, got {other:?}"))),
        }
    }

    /// The plugin's query: the best configuration for a (system,
    /// binary). Routed by consistent hash of the pair in fleet mode.
    pub fn predict(
        &mut self,
        system_hash: u64,
        binary_hash: u64,
        opts: &CallOptions,
    ) -> Result<CpuConfig, RemoteError> {
        if let Some(t) = &self.tel {
            t.requests.bump();
        }
        self.predict_one(system_hash, binary_hash, opts)
    }

    /// [`PredictClient::predict`] as one step of a call already counted.
    fn predict_one(&mut self, s: u64, b: u64, opts: &CallOptions) -> Result<CpuConfig, RemoteError> {
        match self.route(Request::Predict { system_hash: s, binary_hash: b }, opts)? {
            Response::Config(c) => Ok(c),
            Response::Miss { system_hash, binary_hash } => Err(RemoteError::Miss { system_hash, binary_hash }),
            Response::DeadlineExceeded => Err(RemoteError::DeadlineExceeded),
            Response::Error { message } => Err(RemoteError::Server(message)),
            other => Err(RemoteError::Protocol(format!("expected Config, got {other:?}"))),
        }
    }

    /// The batched query: one result per key, in key order, always
    /// `keys.len()` of them. Keys are grouped by their ring owner
    /// (fleet mode fans one batch out across replicas and re-merges),
    /// and each group goes out as frames of at most [`MAX_BATCH_KEYS`]
    /// keys, one request/response exchange after another on the
    /// owner's connection. Any key a batched exchange fails to answer
    /// falls back to the single-key path with its full retry/failover
    /// machinery — a key is never silently dropped, only answered or
    /// given a typed error.
    pub fn predict_many(&mut self, keys: &[(u64, u64)], opts: &CallOptions) -> Vec<Result<CpuConfig, RemoteError>> {
        if let Some(t) = &self.tel {
            t.requests.bump();
            t.batch_keys.record_us(keys.len() as u64);
        }
        if keys.is_empty() {
            return Vec::new();
        }
        if keys.len() == 1 {
            let (s, b) = keys[0];
            return vec![self.predict_one(s, b, opts)];
        }
        self.probe_if_due(opts.trace);
        // ring-aware splitter: each key goes to its first-choice
        // replica — except that a healthy local (shm) replica owns the
        // whole batch: every key is cheapest there, and splitting a
        // batch between a daemon's shm and tcp endpoints would route
        // half the keys the slow way to the same process
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.replicas.len()];
        let local = self.replicas.iter().position(|r| r.link.local && r.in_ring);
        if let Some(owner) = local.or((self.replicas.len() == 1).then_some(0)) {
            groups[owner] = (0..keys.len()).collect();
        } else {
            if let Some(t) = &self.tel {
                t.ring_lookups.bump();
            }
            for (i, &(s, b)) in keys.iter().enumerate() {
                let owner = self.ring.ordered(predict_key(s, b)).first().copied().unwrap_or_default() as usize;
                groups[owner.min(self.replicas.len() - 1)].push(i);
            }
        }
        let mut results: Vec<Option<Result<CpuConfig, RemoteError>>> = (0..keys.len()).map(|_| None).collect();
        for (idx, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            self.batch_on(idx, keys, &group, opts, &mut results);
        }
        // per-key fallback for anything a batch left unanswered
        for i in 0..keys.len() {
            if results[i].is_none() {
                let (s, b) = keys[i];
                results[i] = Some(self.predict_one(s, b, opts));
            }
        }
        results.into_iter().map(|r| r.expect("every key answered or fallen back")).collect()
    }

    /// Sends one group of key indices to one replica as `PredictMany`
    /// frames, each answered before the next is sent, and fills their
    /// result slots. Every frame carries a fresh tag, so a reply left
    /// over from an earlier exchange can never fill this one's slots.
    /// Slots left `None` (connection died mid-batch, `Busy` bounce) are
    /// picked up by the caller's per-key fallback.
    fn batch_on(
        &mut self,
        idx: usize,
        keys: &[(u64, u64)],
        group: &[usize],
        opts: &CallOptions,
        results: &mut [Option<Result<CpuConfig, RemoteError>>],
    ) {
        for chunk in group.chunks(MAX_BATCH_KEYS) {
            self.last_tag += 1;
            let frame = RequestFrame {
                deadline_ms: self.knobs.deadline_ms,
                trace: opts.trace,
                corr: Some(self.last_tag),
                body: Request::PredictMany { keys: chunk.iter().map(|&i| keys[i]).collect() },
            };
            if let Some(t) = &self.tel {
                t.attempts.bump();
            }
            match self.replicas[idx].link.exchange(&frame) {
                Ok(Response::ManyConfigs { results: outcomes }) => {
                    for (&key_index, outcome) in chunk.iter().zip(outcomes) {
                        let (system_hash, binary_hash) = keys[key_index];
                        results[key_index] = Some(match outcome {
                            KeyOutcome::Config(c) => Ok(c),
                            KeyOutcome::Miss => Err(RemoteError::Miss { system_hash, binary_hash }),
                            KeyOutcome::Error { message } => Err(RemoteError::Server(message)),
                        });
                    }
                }
                Ok(Response::DeadlineExceeded) => {
                    for &key_index in chunk {
                        results[key_index] = Some(Err(RemoteError::DeadlineExceeded));
                    }
                }
                // a whole-batch error is that error for each of its keys
                Ok(Response::Error { message }) => {
                    for &key_index in chunk {
                        results[key_index] = Some(Err(RemoteError::Server(message.clone())));
                    }
                }
                // the accept loop's bounce or the service's: the keys fall back
                Ok(Response::Busy { .. }) => {
                    if let Some(t) = &self.tel {
                        t.busy.bump();
                    }
                    return;
                }
                // transport failure, foreign tag, wrong shape or
                // cardinality: the keys fall back rather than misalign
                _ => {
                    self.note_failure(idx);
                    return;
                }
            }
        }
        self.note_success(idx, opts.trace);
    }

    /// Stages a model on every replica (fan-out in fleet mode) and
    /// returns the highest-generation acknowledgement. Succeeds when at
    /// least one replica commits; per-replica outcomes are available
    /// through [`PredictClient::preload_detailed`]. The committed model
    /// is remembered and replayed into any replica that later rejoins
    /// the ring behind it.
    pub fn preload(&mut self, model_id: i64, opts: &CallOptions) -> Result<PreloadAck, RemoteError> {
        let fleet = self.preload_detailed(model_id, opts);
        match fleet.acks.into_iter().map(|(_, a)| a).max_by_key(|a| a.generation) {
            Some(ack) => Ok(ack),
            None => Err(fleet
                .failures
                .into_iter()
                .next()
                .map(|(_, e)| e)
                .unwrap_or_else(|| RemoteError::Protocol("preload fan-out produced no outcome".into()))),
        }
    }

    /// Stages a model on every replica, reporting each replica's
    /// outcome — the campaign layer's quorum decisions build on this.
    pub fn preload_detailed(&mut self, model_id: i64, opts: &CallOptions) -> FleetPreload {
        if let Some(t) = &self.tel {
            t.requests.bump();
        }
        let mut acks = Vec::new();
        let mut failures = Vec::new();
        for idx in 0..self.replicas.len() {
            let desc = self.replicas[idx].link.desc.clone();
            match self.preload_on(idx, model_id, opts) {
                Ok(ack) => {
                    self.replicas[idx].generation = ack.generation;
                    acks.push((desc, ack));
                }
                Err(e) => failures.push((desc, e)),
            }
        }
        if !acks.is_empty() && !self.rolled_models.contains(&model_id) {
            self.rolled_models.push(model_id);
        }
        FleetPreload { acks, failures }
    }

    /// Reports one production observation for a served prediction
    /// (routed to the replica that owns the key, like `Predict`).
    /// Returns whether the daemon accepted the outcome.
    pub fn report_outcome(
        &mut self,
        system_hash: u64,
        binary_hash: u64,
        outcome: &ObservedOutcome,
    ) -> Result<bool, RemoteError> {
        let body = Request::ReportOutcome { system_hash, binary_hash, outcome: outcome.clone() };
        match self.request(body, &CallOptions::default())? {
            Response::OutcomeAck { accepted } => Ok(accepted),
            Response::Error { message } => Err(RemoteError::Server(message)),
            Response::DeadlineExceeded => Err(RemoteError::DeadlineExceeded),
            other => Err(RemoteError::Protocol(format!("expected OutcomeAck, got {other:?}"))),
        }
    }

    /// Fetches one replica's counters (the ring's choice in fleet
    /// mode); see [`PredictClient::stats_all`] for the whole fleet.
    pub fn stats(&mut self) -> Result<StatsSnapshot, RemoteError> {
        match self.request(Request::Stats, &CallOptions::default())? {
            Response::Stats(s) => Ok(*s),
            other => Err(RemoteError::Protocol(format!("expected Stats, got {other:?}"))),
        }
    }

    /// Fetches every replica's counters, keyed by endpoint. Replicas
    /// that cannot answer report their error instead.
    pub fn stats_all(&mut self) -> Vec<(String, Result<StatsSnapshot, RemoteError>)> {
        if let Some(t) = &self.tel {
            t.requests.bump();
        }
        (0..self.replicas.len())
            .map(|idx| {
                let desc = self.replicas[idx].link.desc.clone();
                let res = self.drive(Request::Stats, &CallOptions::default(), &[idx]).and_then(|resp| match resp {
                    Response::Stats(s) => Ok(*s),
                    other => Err(RemoteError::Protocol(format!("expected Stats, got {other:?}"))),
                });
                (desc, res)
            })
            .collect()
    }

    // -- fleet internals ---------------------------------------------------

    /// The replica try-order for a key: healthy local (shm) replicas
    /// first — the fallback ladder shm → tcp → caller's local model —
    /// then ring members clockwise from the key, then out-of-ring
    /// replicas as a last resort. Single-replica clients skip the ring
    /// entirely (the warm-path fast path).
    fn candidates(&mut self, key: u64) -> Vec<usize> {
        if self.replicas.len() == 1 {
            return vec![0];
        }
        if let Some(t) = &self.tel {
            t.ring_lookups.bump();
        }
        let mut out: Vec<usize> = self.ring.ordered(key).into_iter().map(|m| m as usize).collect();
        // stable: local in-ring members jump the queue, everyone else
        // keeps ring order
        out.sort_by_key(|&i| !self.replicas[i].link.local);
        for (i, r) in self.replicas.iter().enumerate() {
            if !r.in_ring {
                out.push(i);
            }
        }
        out
    }

    /// The retry/failover state machine. With a single candidate:
    /// `max_retries + 1` attempts, busy hints honoured, linear backoff
    /// between attempts.
    /// With several candidates, a failed exchange moves to the next
    /// candidate immediately (the failed dial/read already cost its
    /// timeout); backoff only applies when the whole list wraps around.
    fn drive(&mut self, body: Request, opts: &CallOptions, candidates: &[usize]) -> Result<Response, RemoteError> {
        let verb = body.verb();
        let parent = opts.trace;
        let base = RequestFrame { deadline_ms: self.knobs.deadline_ms, trace: parent, corr: None, body };
        let fleet = self.replicas.len() > 1;
        let max_attempts = self.knobs.max_retries + candidates.len() as u32;
        let mut attempt: u32 = 0;
        let mut pos: usize = 0;
        loop {
            attempt += 1;
            let idx = candidates[pos];
            let mut span = self.tel.as_ref().map(|t| {
                t.attempts.bump();
                if attempt > 1 {
                    t.retries.bump();
                }
                let mut s = t.telemetry.span_maybe_under(parent, "client", "attempt");
                s.attr("verb", verb);
                s.attr("attempt", attempt);
                if fleet {
                    s.attr("replica", &self.replicas[idx].link.desc);
                }
                s
            });
            let frame = base.clone().traced(span.as_ref().map(|s| s.context()).or(parent));
            match self.replicas[idx].link.exchange(&frame) {
                Ok(Response::Busy { retry_after_ms }) => {
                    if let Some(t) = &self.tel {
                        t.busy.bump();
                    }
                    if let Some(s) = span.take() {
                        s.fail(format!("busy retry_after={retry_after_ms}ms"));
                    }
                    if attempt >= max_attempts {
                        return Err(RemoteError::Busy { retry_after_ms, attempts: attempt });
                    }
                    if pos + 1 < candidates.len() {
                        self.note_failover(idx, candidates[pos + 1], "busy", parent);
                        pos += 1;
                    } else {
                        pos = 0;
                        self.replicas[idx].link.transport.sleep(Duration::from_millis(retry_after_ms.min(50)));
                    }
                }
                Ok(resp) => {
                    drop(span);
                    self.note_success(idx, parent);
                    return Ok(resp);
                }
                Err(e) => {
                    if let Some(t) = &self.tel {
                        t.errors.bump();
                    }
                    if let Some(s) = span.take() {
                        s.fail(e.to_string());
                    }
                    self.note_failure(idx);
                    if attempt >= max_attempts {
                        return Err(e);
                    }
                    if pos + 1 < candidates.len() {
                        self.note_failover(idx, candidates[pos + 1], "error", parent);
                        pos += 1;
                    } else {
                        pos = 0;
                        let backoff = self.knobs.backoff * attempt;
                        self.replicas[idx].link.transport.sleep(backoff);
                    }
                }
            }
        }
    }

    /// A bounded preload against one specific replica.
    fn preload_on(&mut self, idx: usize, model_id: i64, opts: &CallOptions) -> Result<PreloadAck, RemoteError> {
        match self.drive(Request::Preload { model_id }, opts, &[idx])? {
            Response::Preloaded { model_id, model_type, system_hash, binary_hash, generation } => {
                Ok(PreloadAck { model_id, model_type, system_hash, binary_hash, generation })
            }
            Response::Error { message } => Err(RemoteError::Server(message)),
            other => Err(RemoteError::Protocol(format!("expected Preloaded, got {other:?}"))),
        }
    }

    fn in_ring_count(&self) -> usize {
        self.replicas.iter().filter(|r| r.in_ring).count()
    }

    fn rebuild_ring(&mut self) {
        let members =
            self.replicas.iter().enumerate().filter(|(_, r)| r.in_ring).map(|(i, _)| i as u32).collect::<Vec<_>>();
        self.ring.rebuild(members);
        if let Some(t) = &self.tel {
            t.ring_rebuilds.bump();
        }
    }

    /// A transport-level failure: after `DOWN_AFTER` in a row the
    /// replica leaves the ring — unless it is the last one standing.
    fn note_failure(&mut self, idx: usize) {
        self.replicas[idx].consecutive_failures += 1;
        if self.replicas[idx].in_ring
            && self.replicas[idx].consecutive_failures >= DOWN_AFTER
            && self.in_ring_count() > 1
        {
            self.replicas[idx].in_ring = false;
            self.replicas[idx].probe_in = self.knobs.probe_cooldown;
            self.rebuild_ring();
        }
    }

    /// A successful exchange: reset health, and rejoin the ring if the
    /// replica had been voted out.
    fn note_success(&mut self, idx: usize, parent: Option<TraceContext>) {
        self.replicas[idx].consecutive_failures = 0;
        if !self.replicas[idx].in_ring && !self.rejoining {
            self.rejoining = true;
            self.rejoin(idx, parent);
            self.rejoining = false;
        }
    }

    /// Brings a recovered replica back onto the ring. If the fleet has
    /// committed rollouts the replica may have missed (it may have
    /// restarted with an empty registry), every committed model is
    /// re-preloaded first — the replica never serves ring traffic
    /// behind the committed generation.
    ///
    /// A replica running with `--store` catches itself up from its own
    /// store at boot; its `Stats` then already show a committed
    /// generation and a configured store directory, and the re-preload
    /// replay is skipped (the store replaces the client-driven path).
    fn rejoin(&mut self, idx: usize, parent: Option<TraceContext>) {
        if !self.rolled_models.is_empty() {
            match self.drive(Request::Stats, &CallOptions::traced(parent), &[idx]) {
                Ok(Response::Stats(s)) if !s.store_dir.is_empty() && s.model_generation >= 1 => {
                    self.replicas[idx].generation = s.model_generation;
                    self.replicas[idx].in_ring = true;
                    self.rebuild_ring();
                    return;
                }
                Ok(_) => {} // memory-only or still cold: replay below
                Err(_) => {
                    // not healthy enough to answer Stats: stay out, probe later
                    self.replicas[idx].probe_in = self.knobs.probe_cooldown;
                    return;
                }
            }
        }
        let models = self.rolled_models.clone();
        for model_id in models {
            match self.preload_on(idx, model_id, &CallOptions::traced(parent)) {
                Ok(ack) => {
                    self.replicas[idx].generation = ack.generation;
                    if let Some(t) = &self.tel {
                        t.ring_repreloads.bump();
                    }
                }
                Err(_) => {
                    // not healthy enough to catch up: stay out, probe later
                    self.replicas[idx].probe_in = self.knobs.probe_cooldown;
                    return;
                }
            }
        }
        self.replicas[idx].in_ring = true;
        self.rebuild_ring();
    }

    /// Counts down out-of-ring cooldowns and pings at most one replica
    /// whose window expired. A `Pong` starts the rejoin flow; anything
    /// else re-arms the cooldown.
    fn probe_if_due(&mut self, parent: Option<TraceContext>) {
        if self.replicas.len() == 1 {
            return;
        }
        let mut due: Option<usize> = None;
        for (i, r) in self.replicas.iter_mut().enumerate() {
            if !r.in_ring {
                if r.probe_in == 0 {
                    due.get_or_insert(i);
                } else {
                    r.probe_in -= 1;
                }
            }
        }
        let Some(idx) = due else { return };
        if let Some(t) = &self.tel {
            t.ring_probes.bump();
        }
        if self.replicas[idx].link.probe(parent) {
            self.note_success(idx, parent);
        } else {
            self.replicas[idx].probe_in = self.knobs.probe_cooldown;
        }
    }

    fn note_failover(&mut self, from: usize, to: usize, why: &str, parent: Option<TraceContext>) {
        if let Some(t) = &self.tel {
            t.ring_failovers.bump();
            if let Some(ctx) = parent {
                let mut s = t.telemetry.span_under(ctx, "client", "failover");
                s.attr("from", &self.replicas[from].link.desc);
                s.attr("to", &self.replicas[to].link.desc);
                s.attr("why", why);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::{Connection, ResponseFrame};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The config the in-memory daemon holds for a key: distinct per
    /// key, so a cross-wired answer shows.
    fn answer((system_hash, binary_hash): (u64, u64)) -> CpuConfig {
        CpuConfig::new(1 + binary_hash as u32, 1_000_000 + system_hash, 1)
    }

    /// What a current daemon writes back: enveloped iff tagged.
    fn honest(frame: &RequestFrame) -> Vec<u8> {
        let body = match &frame.body {
            Request::Predict { system_hash, binary_hash } => Response::Config(answer((*system_hash, *binary_hash))),
            Request::PredictMany { keys } => {
                Response::ManyConfigs { results: keys.iter().map(|&k| KeyOutcome::Config(answer(k))).collect() }
            }
            other => panic!("unscripted verb {other:?}"),
        };
        match frame.corr {
            Some(corr) => serde_json::to_vec(&ResponseFrame { corr, body }),
            None => serde_json::to_vec(&body),
        }
        .unwrap()
    }

    /// An in-memory daemon, both ends of its connections: honest about
    /// singles, and answering its `n`th batch frame `f` with the reply
    /// frames `on_batch(f, n)`.
    #[derive(Clone)]
    struct Scripted {
        on_batch: fn(&RequestFrame, usize) -> Vec<Vec<u8>>,
        batches: Arc<AtomicUsize>,
        dials: Arc<AtomicUsize>,
        inbox: VecDeque<Vec<u8>>,
    }

    impl Transport for Scripted {
        fn connect(&mut self) -> std::io::Result<Box<dyn Connection>> {
            self.dials.fetch_add(1, Ordering::SeqCst);
            Ok(Box::new(self.clone()))
        }

        fn describe(&self) -> String {
            "scripted".to_string()
        }
    }

    impl Connection for Scripted {
        fn send_frame(&mut self, payload: &[u8]) -> std::io::Result<()> {
            let frame: RequestFrame = serde_json::from_slice(payload).expect("the client writes well-formed frames");
            match frame.body {
                Request::PredictMany { .. } => {
                    self.inbox.extend((self.on_batch)(&frame, self.batches.fetch_add(1, Ordering::SeqCst)))
                }
                _ => self.inbox.push_back(honest(&frame)),
            }
            Ok(())
        }

        fn recv_frame(&mut self) -> std::io::Result<Vec<u8>> {
            self.inbox.pop_front().ok_or_else(|| std::io::ErrorKind::TimedOut.into())
        }
    }

    const KEYS: [(u64, u64); 3] = [(7, 1), (7, 2), (9, 3)];
    const OPTS: &CallOptions = &CallOptions { trace: None };

    /// A single-replica client of a [`Scripted`] daemon; returns its
    /// dial count and its `client.requests` / `client.attempts` too.
    fn scripted(
        on_batch: fn(&RequestFrame, usize) -> Vec<Vec<u8>>,
    ) -> (PredictClient, Arc<AtomicUsize>, Counter, Counter) {
        let daemon = Scripted { on_batch, batches: Arc::default(), dials: Arc::default(), inbox: VecDeque::new() };
        let dials = Arc::clone(&daemon.dials);
        let mut client = PredictClient::builder().transport(Box::new(daemon)).build().unwrap();
        let tel = Arc::new(Telemetry::wall());
        client.set_telemetry(Arc::clone(&tel));
        (client, dials, tel.counter("client.requests"), tel.counter("client.attempts"))
    }

    /// Asks for [`KEYS`]; every key must come back with its own config.
    fn assert_all_answered(client: &mut PredictClient) {
        let got: Vec<CpuConfig> = client.predict_many(&KEYS, OPTS).into_iter().map(Result::unwrap).collect();
        assert_eq!(got, KEYS.map(answer), "a key was dropped or cross-wired");
    }

    #[test]
    fn requests_counts_one_per_public_call() {
        // the second batch frame is bounced
        let (mut client, _, requests, attempts) = scripted(|f, n| match n {
            1 => vec![serde_json::to_vec(&Response::Busy { retry_after_ms: 1 }).unwrap()],
            _ => vec![honest(f)],
        });
        client.predict(7, 1, OPTS).unwrap();
        assert_eq!(requests.get(), 1, "predict");
        assert_eq!(client.predict_many(&KEYS[..1], OPTS).len(), 1);
        assert_eq!(requests.get(), 2, "a one-key batch rides the single path, still one request");
        assert_all_answered(&mut client);
        assert_eq!((requests.get(), attempts.get()), (3, 3), "a multi-key batch is one request in one frame");
        assert_all_answered(&mut client);
        assert_eq!(requests.get(), 4, "a bounced batch is still one request");
        assert_eq!(attempts.get(), 3 + 1 + KEYS.len() as u64, "though its keys fell back one by one");
    }

    #[test]
    fn a_reply_that_is_not_this_exchanges_costs_the_connection_and_the_keys_fall_back() {
        let foreign_tag = |f: &RequestFrame, _| {
            // some other exchange's reply: right shape and length, wrong keys
            let Request::PredictMany { keys } = &f.body else { unreachable!() };
            let other = Request::PredictMany { keys: keys.iter().rev().copied().collect() };
            vec![honest(&RequestFrame::new(other).with_corr(f.corr.expect("batch frames are tagged") + 1))]
        };
        let stale_pong_ahead = |f: &RequestFrame, _| vec![serde_json::to_vec(&Response::Pong).unwrap(), honest(f)];
        for (mut client, dials, _, attempts) in [scripted(foreign_tag), scripted(stale_pong_ahead)] {
            assert_all_answered(&mut client);
            assert_eq!(dials.load(Ordering::SeqCst), 2, "the desynced connection is dropped");
            assert_eq!(attempts.get(), 1 + KEYS.len() as u64, "one batch frame, then one single per key");
        }
    }

    #[test]
    fn a_bare_reply_to_a_tagged_batch_is_taken_in_order() {
        // what the accept loop's bounce looks like, with an answer in it
        let (mut client, dials, _, attempts) = scripted(|f, _| vec![honest(&RequestFrame::new(f.body.clone()))]);
        assert_all_answered(&mut client);
        assert_eq!((dials.load(Ordering::SeqCst), attempts.get()), (1, 1));
    }

    #[test]
    fn a_malformed_request_error_is_that_error_for_each_key_on_every_call() {
        let (mut client, dials, _, attempts) = scripted(|_, _| {
            let message = "malformed request: unknown variant `PredictMany`".to_string();
            vec![serde_json::to_vec(&Response::Error { message }).unwrap()]
        });
        for call in 1..=2 {
            let results = client.predict_many(&KEYS, OPTS);
            assert_eq!(results.len(), KEYS.len());
            for result in results {
                assert!(
                    matches!(&result, Err(RemoteError::Server(m)) if m.starts_with("malformed request")),
                    "{result:?}"
                );
            }
            assert_eq!(attempts.get(), call, "one batch frame per call: an error is no capability probe");
        }
        assert_eq!(dials.load(Ordering::SeqCst), 1, "an Error leaves the connection in step");
    }

    #[test]
    fn a_bounce_or_a_cut_mid_batch_costs_one_redial_and_the_keys_fall_back() {
        let bounce = |_: &RequestFrame, _| vec![serde_json::to_vec(&Response::Busy { retry_after_ms: 1 }).unwrap()];
        let cut = |_: &RequestFrame, _| Vec::new();
        for (mut client, dials, _, attempts) in [scripted(bounce), scripted(cut)] {
            assert_all_answered(&mut client);
            assert_eq!(dials.load(Ordering::SeqCst), 2, "the link drops its own connection, once");
            assert_eq!(attempts.get(), 1 + KEYS.len() as u64, "one batch frame, then one single per key");
        }
    }

    #[test]
    fn builder_validates_knobs() {
        assert_eq!(PredictClient::builder().build().unwrap_err(), ClientBuildError::NoEndpoints);
        assert_eq!(
            PredictClient::builder().endpoint("a:1").connect_timeout(Duration::ZERO).build().unwrap_err(),
            ClientBuildError::ZeroTimeout("connect")
        );
        assert_eq!(
            PredictClient::builder().endpoint("a:1").read_timeout(Duration::ZERO).build().unwrap_err(),
            ClientBuildError::ZeroTimeout("read")
        );
        assert_eq!(
            PredictClient::builder().endpoint("a:1").max_retries(99).build().unwrap_err(),
            ClientBuildError::RetriesOutOfRange(99)
        );
        assert!(matches!(
            PredictClient::builder().endpoint("gopher://a:1").build().unwrap_err(),
            ClientBuildError::BadEndpoint(EndpointParseError::UnknownScheme(_))
        ));
        assert!(matches!(
            PredictClient::builder().endpoint("noport").build().unwrap_err(),
            ClientBuildError::BadEndpoint(EndpointParseError::BadAddr(_))
        ));
    }

    #[test]
    fn scheme_endpoints_build_and_describe() {
        let client = PredictClient::builder().endpoint("tcp://h1:4117").endpoint("shm:///run/c.shm").build().unwrap();
        assert_eq!(client.endpoints(), vec!["h1:4117", "shm:///run/c.shm"]);
        assert_eq!(client.replicas_total(), 2);
    }

    #[test]
    fn local_replicas_lead_every_candidate_list() {
        let mut client = PredictClient::builder()
            .endpoint("h1:4117")
            .endpoint("shm:///run/c.shm")
            .endpoint("h2:4117")
            .build()
            .unwrap();
        for key in [0u64, 1, 99, u64::MAX] {
            let order = client.candidates(key);
            assert_eq!(order[0], 1, "shm replica must lead for key {key}");
            assert_eq!(order.len(), 3);
        }
    }

    #[test]
    fn builder_accepts_a_fleet_and_reports_endpoints() {
        let client = PredictClient::builder().endpoints(["h1:4117", "h2:4117"]).endpoint("h3:4117").build().unwrap();
        assert_eq!(client.endpoints(), vec!["h1:4117", "h2:4117", "h3:4117"]);
        assert_eq!(client.addr(), "h1:4117");
        assert_eq!(client.replicas_total(), 3);
        assert_eq!(client.replicas_in_ring(), 3, "everyone starts on the ring");
        for s in client.replica_health() {
            assert!(s.in_ring);
            assert_eq!(s.generation, 0);
        }
    }

    #[test]
    fn client_fails_fast_against_a_dead_address() {
        // bind-then-drop guarantees the port is closed
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let mut client = PredictClient::builder()
            .endpoint(format!("127.0.0.1:{port}"))
            .connect_timeout(Duration::from_millis(50))
            .max_retries(1)
            .backoff(Duration::from_millis(1))
            .build()
            .unwrap();
        let start = Instant::now();
        let err = client.predict(1, 2, &CallOptions::default()).unwrap_err();
        assert!(matches!(err, RemoteError::Connect(_) | RemoteError::Io(_)), "{err}");
        assert!(start.elapsed() < Duration::from_secs(2), "bounded retries must fail fast");
    }

    #[test]
    fn fleet_client_exhausts_every_replica_before_failing() {
        let dead = || {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            format!("127.0.0.1:{}", l.local_addr().unwrap().port())
        };
        let mut client = PredictClient::builder()
            .endpoints([dead(), dead(), dead()])
            .connect_timeout(Duration::from_millis(20))
            .max_retries(1)
            .backoff(Duration::from_millis(1))
            .build()
            .unwrap();
        let start = Instant::now();
        let err = client.predict(7, 9, &CallOptions::default()).unwrap_err();
        assert!(matches!(err, RemoteError::Connect(_) | RemoteError::Io(_)), "{err}");
        assert!(start.elapsed() < Duration::from_secs(2), "failover must stay bounded");
        // repeated failures voted replicas off the ring, but never the last one
        assert!(client.replicas_in_ring() >= 1);
    }
}
