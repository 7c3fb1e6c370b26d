//! The blocking chronusd client: one or many replicas with
//! health-checked failover.
//!
//! ## Fleet mode
//!
//! Every daemon serves the store's whole serving fold, so any replica
//! can answer any key. A client built with several endpoints tries the
//! healthy replicas in endpoint order (healthy local ones first), then
//! the voted-off ones as a last resort. Transport failures fail over to
//! the next candidate without sleeping; a replica that fails
//! `DOWN_AFTER` consecutive exchanges is voted off (negative-result
//! caching: a dead replica then costs one probe per cooldown window, not
//! one timeout per submission). Probes are plain `Ping`s; a probe that
//! answers `Pong` makes the replica healthy again. Within one request, a
//! replica whose dial failed is not dialled again while another can be.
//!
//! With a single endpoint there is no probe and no failover: the retry
//! loop runs over the one candidate. Everything
//! that touches a connection is [`Link`]'s; this module is the fleet
//! layer over it.
//!
//! Every request has one time budget ([`ClientBuilder::budget`]) on the
//! transport's clock: its attempts, waits and failovers, and any probe
//! it triggers, all spend from it. An attempt waits at most
//! its share — what remains over the attempts still allowed — and no
//! wait starts unless an attempt can still follow it.

use std::sync::Arc;
use std::time::Duration;

use eco_sim_node::cpu::CpuConfig;

use super::endpoint::{Endpoint, EndpointParseError};
use super::link::Link;
use super::{
    KeyOutcome, ObservedOutcome, PreloadAck, RemoteError, Request, RequestFrame, Response, StatsSnapshot, Transport,
    MAX_BATCH_KEYS,
};
use crate::telemetry::{Counter, Histogram, Telemetry, TraceContext};

/// Per-call options for [`PredictClient`] RPCs: the caller's trace
/// context. (The time budget is the client's, see
/// [`ClientBuilder::budget`].)
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
    /// The request budget was zero.
    ZeroBudget,
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
            ClientBuildError::ZeroBudget => write!(f, "the request budget must be non-zero"),
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
    knobs: Knobs,
}

/// Consecutive transport failures before a replica is voted off. The
/// last healthy replica never is.
const DOWN_AFTER: u32 = 2;
/// Backoff before the `n`th retry of a candidate list: `n × BACKOFF`.
const BACKOFF: Duration = Duration::from_millis(10);

impl Default for ClientBuilder {
    fn default() -> Self {
        // the control plane's budget: three attempts of a ≈ 200 ms dial and a ≈ 500 ms read
        let knobs = Knobs { budget: Duration::from_secs(2), max_retries: 2, probe_cooldown: 16 };
        ClientBuilder { endpoints: Vec::new(), knobs }
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

    /// The most time one request may take (default 2 s, the control
    /// plane's; the plugin's source runs [`super::SUBMIT_BUDGET`]).
    pub fn budget(mut self, d: Duration) -> Self {
        self.knobs.budget = d;
        self
    }

    /// Additional attempts after the first (default 2; 0 = fail fast).
    pub fn max_retries(mut self, n: u32) -> Self {
        self.knobs.max_retries = n;
        self
    }

    /// Requests to wait between probes of a voted-off replica
    /// (default 16). Each probe is one `Ping`, so a dead replica costs
    /// one timeout per window instead of one per submission.
    pub fn probe_cooldown(mut self, n: u32) -> Self {
        self.knobs.probe_cooldown = n;
        self
    }

    /// Validates the configuration and constructs the client. Nothing
    /// connects yet — the first RPC does.
    pub fn build(self) -> Result<PredictClient, ClientBuildError> {
        if self.endpoints.is_empty() {
            return Err(ClientBuildError::NoEndpoints);
        }
        if self.knobs.budget.is_zero() {
            return Err(ClientBuildError::ZeroBudget);
        }
        if self.knobs.max_retries > 16 {
            return Err(ClientBuildError::RetriesOutOfRange(self.knobs.max_retries));
        }
        let mut replicas: Vec<Replica> = Vec::with_capacity(self.endpoints.len());
        for e in self.endpoints {
            let transport: Box<dyn Transport> = match e {
                Target::Spec(spec) => Endpoint::parse(&spec)
                    .map_err(ClientBuildError::BadEndpoint)?
                    .transport(self.knobs.budget, self.knobs.budget),
                Target::Transport(t) => t,
            };
            replicas.push(Replica {
                link: Link::new(transport),
                healthy: true,
                consecutive_failures: 0,
                probe_in: 0,
            });
        }
        Ok(PredictClient { replicas, order: Vec::new(), knobs: self.knobs, deadline: None, tel: None })
    }
}

#[derive(Debug, Clone)]
struct Knobs {
    budget: Duration,
    max_retries: u32,
    probe_cooldown: u32,
}

/// A [`Link`] plus what the fleet layer knows about its health. Local
/// links ([`Link::local`]) lead the try-order while they are healthy.
struct Replica {
    link: Link,
    healthy: bool,
    consecutive_failures: u32,
    /// Requests until the next probe while voted off.
    probe_in: u32,
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
/// hint and failing over between replicas in try-order, all inside
/// the request's budget. All waiting and timekeeping go through the
/// replicas' [`Transport`], so a simulated transport sees every wait.
pub struct PredictClient {
    replicas: Vec<Replica>,
    /// The try-order `drive` walks, held so that routing allocates nothing.
    order: Vec<u32>,
    knobs: Knobs,
    /// When the request in flight must be done, on the transport's clock:
    /// its attempts, and any probe it triggers, spend from it. A request
    /// starts with `None`; its first timed step sets it.
    deadline: Option<Duration>,
    tel: Option<ClientTelemetry>,
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
    /// `ring.failovers` and `ring.probes` (`benchmark/` reads the first).
    failovers: Counter,
    probes: Counter,
}

/// The candidate position `drive` tries after `pos` of `n`: the next one
/// whose dial has not failed in this request (`dial_failed`, one bit per
/// position below 64), wrapping — a result at or before `pos` — past the
/// end. Once every dial has failed, every candidate is tried again.
fn next_candidate(pos: usize, n: usize, dial_failed: &mut u64) -> usize {
    if n <= 64 && *dial_failed == u64::MAX >> (64 - n) {
        *dial_failed = 0;
    }
    (pos + 1..n).chain(0..=pos).find(|&p| p >= 64 || *dial_failed & (1 << p) == 0).unwrap_or(pos)
}

impl std::fmt::Debug for PredictClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictClient")
            .field("endpoints", &self.endpoints())
            .field("healthy", &self.replicas_healthy())
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

    /// Every replica endpoint this client fails over between.
    pub fn endpoints(&self) -> Vec<&str> {
        self.replicas.iter().map(|r| &*r.link.desc).collect()
    }

    /// Total replicas configured.
    pub fn replicas_total(&self) -> usize {
        self.replicas.len()
    }

    /// Replicas currently healthy (not voted off).
    pub fn replicas_healthy(&self) -> usize {
        self.replicas.iter().filter(|r| r.healthy).count()
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
            failovers: telemetry.counter("ring.failovers"),
            probes: telemetry.counter("ring.probes"),
            telemetry,
        });
    }

    /// Sends one request, retrying on connection errors and on `Busy`
    /// back-pressure and failing over between replicas in try-order.
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
        self.deadline = None;
        self.probe_if_due(opts.trace);
        self.order_candidates();
        self.drive(&mut RequestFrame::new(body).traced(opts.trace))
    }

    /// Round-trip liveness probe; returns the observed latency on the
    /// transport clock (every replica shares one clock).
    pub fn ping(&mut self) -> Result<Duration, RemoteError> {
        let clock = |client: &PredictClient| client.replicas[0].link.transport.now();
        let start = clock(self);
        match self.request(Request::Ping, &CallOptions::default())? {
            Response::Pong => Ok(clock(self).saturating_sub(start)),
            other => Err(RemoteError::Protocol(format!("expected Pong, got {other:?}"))),
        }
    }

    /// The plugin's query: the best configuration for a (system,
    /// binary).
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
    /// `keys.len()` of them. The whole batch goes to the first candidate
    /// as frames of at most [`MAX_BATCH_KEYS`] keys, one
    /// request/response exchange after another on its connection. Any
    /// key a batched exchange fails to answer falls back to the
    /// single-key path with its full retry/failover machinery — a key is
    /// never silently dropped, only answered or given a typed error.
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
        self.deadline = None;
        self.probe_if_due(opts.trace);
        self.order_candidates();
        let mut results: Vec<Option<Result<CpuConfig, RemoteError>>> = (0..keys.len()).map(|_| None).collect();
        self.batch_on(self.order[0] as usize, keys, opts, &mut results);
        // per-key fallback for anything the batch left unanswered
        keys.iter()
            .zip(results)
            .map(|(&(s, b), result)| result.unwrap_or_else(|| self.predict_one(s, b, opts)))
            .collect()
    }

    /// Sends `keys` to one replica as `PredictMany` frames, each answered
    /// before the next is sent and each one request with its own budget,
    /// and fills their result slots. Every frame carries a fresh tag
    /// ([`Link::exchange`]), so a reply left over from an earlier
    /// exchange can never fill this one's slots. Slots left `None`
    /// (connection died mid-batch, `Busy` bounce) are picked up by the
    /// caller's per-key fallback.
    fn batch_on(
        &mut self,
        idx: usize,
        keys: &[(u64, u64)],
        opts: &CallOptions,
        results: &mut [Option<Result<CpuConfig, RemoteError>>],
    ) {
        for (chunk, slots) in keys.chunks(MAX_BATCH_KEYS).zip(results.chunks_mut(MAX_BATCH_KEYS)) {
            self.deadline = None;
            let budget = self.left();
            // the frame waits one attempt's share, as `drive`'s first: a
            // lost reply costs that, not the budget, before the fallback
            let share = budget / (self.knobs.max_retries + self.replicas.len() as u32);
            let mut frame = RequestFrame {
                deadline_ms: Some(super::ceil_ms(budget)),
                trace: opts.trace,
                corr: None,
                body: Request::PredictMany { keys: chunk.to_vec() },
            };
            if let Some(t) = &self.tel {
                t.attempts.bump();
            }
            match self.replicas[idx].link.exchange(&mut frame, share) {
                Ok(Response::ManyConfigs { results: outcomes }) => {
                    for ((slot, &(system_hash, binary_hash)), outcome) in slots.iter_mut().zip(chunk).zip(outcomes) {
                        *slot = Some(match outcome {
                            KeyOutcome::Config(c) => Ok(c),
                            KeyOutcome::Miss => Err(RemoteError::Miss { system_hash, binary_hash }),
                            KeyOutcome::Error { message } => Err(RemoteError::Server(message)),
                        });
                    }
                }
                Ok(Response::DeadlineExceeded) => slots.fill_with(|| Some(Err(RemoteError::DeadlineExceeded))),
                // a whole-batch error is that error for each of its keys
                Ok(Response::Error { message }) => {
                    slots.fill_with(|| Some(Err(RemoteError::Server(message.clone()))))
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
        self.note_success(idx);
    }

    /// Stages a model on every replica (fan-out in fleet mode) and
    /// returns the highest-generation acknowledgement. Succeeds when at
    /// least one replica commits; per-replica outcomes are available
    /// through [`PredictClient::preload_detailed`]. Nothing is
    /// remembered: a replica that restarts empty answers from its own
    /// backend until the next rollout reaches it.
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
    /// Each replica's preload is one request with its own budget.
    pub fn preload_detailed(&mut self, model_id: i64, opts: &CallOptions) -> FleetPreload {
        if let Some(t) = &self.tel {
            t.requests.bump();
        }
        let mut acks = Vec::new();
        let mut failures = Vec::new();
        for idx in 0..self.replicas.len() {
            let desc = self.replicas[idx].link.desc.to_string();
            self.deadline = None;
            match self.preload_on(idx, model_id, opts) {
                Ok(ack) => acks.push((desc, ack)),
                Err(e) => failures.push((desc, e)),
            }
        }
        FleetPreload { acks, failures }
    }

    /// Reports one production observation for a served prediction
    /// (in the same try-order as `Predict`, so a healthy fleet pools a
    /// key's outcomes on the replica that served it).
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

    /// Fetches one replica's counters (the first candidate in fleet
    /// mode); see [`PredictClient::stats_all`] for the whole fleet.
    pub fn stats(&mut self) -> Result<StatsSnapshot, RemoteError> {
        match self.request(Request::Stats, &CallOptions::default())? {
            Response::Stats(s) => Ok(*s),
            other => Err(RemoteError::Protocol(format!("expected Stats, got {other:?}"))),
        }
    }

    /// Fetches every replica's counters, keyed by endpoint, one request
    /// with its own budget per replica. Replicas that cannot answer
    /// report their error instead.
    pub fn stats_all(&mut self) -> Vec<(String, Result<StatsSnapshot, RemoteError>)> {
        if let Some(t) = &self.tel {
            t.requests.bump();
        }
        (0..self.replicas.len())
            .map(|idx| {
                let desc = self.replicas[idx].link.desc.to_string();
                self.deadline = None;
                self.order = vec![idx as u32];
                let res = self.drive(&mut RequestFrame::new(Request::Stats)).and_then(|resp| match resp {
                    Response::Stats(s) => Ok(*s),
                    other => Err(RemoteError::Protocol(format!("expected Stats, got {other:?}"))),
                });
                (desc, res)
            })
            .collect()
    }

    // -- fleet internals ---------------------------------------------------

    /// The replica try-order, into `self.order`: healthy local (shm)
    /// replicas first — the fallback ladder shm → tcp → caller's local
    /// model — then the other healthy ones, then the voted-off ones as a
    /// last resort, each group in endpoint order. A single replica is
    /// always healthy (the last healthy replica is never voted off), so
    /// its order is `[0]`.
    fn order_candidates(&mut self) {
        let rank = |r: &Replica| if r.healthy { u8::from(!r.link.local) } else { 2 };
        self.order.clear();
        for want in 0..3 {
            self.order.extend((0..self.replicas.len() as u32).filter(|&i| rank(&self.replicas[i as usize]) == want));
        }
    }

    /// What remains of the request's budget, on the transport clock
    /// (every replica shares one clock).
    fn left(&mut self) -> Duration {
        let now = self.replicas[0].link.transport.now();
        self.deadline.get_or_insert(now + self.knobs.budget).saturating_sub(now)
    }

    /// The retry/failover state machine, inside the request's budget.
    /// With a single candidate: `max_retries + 1` attempts, busy hints
    /// honoured, linear backoff between attempts.
    /// With several candidates, a failed exchange moves to the next
    /// candidate immediately (the failed dial/read already cost its
    /// share); backoff only applies when the whole list wraps around.
    /// A candidate whose dial failed is skipped for the rest of the
    /// request while another can still be dialled.
    /// The candidates are `self.order`; each attempt sends `frame` under
    /// its own deadline, trace context and tag.
    fn drive(&mut self, frame: &mut RequestFrame) -> Result<Response, RemoteError> {
        let verb = frame.body.verb();
        let parent = frame.trace;
        let fleet = self.replicas.len() > 1;
        let max_attempts = self.knobs.max_retries + self.order.len() as u32;
        let mut attempt: u32 = 0;
        let mut pos: usize = 0;
        // bit `p`: candidate `p`'s dial failed in this request
        let mut dial_failed: u64 = 0;
        loop {
            attempt += 1;
            let idx = self.order[pos] as usize;
            let left = self.left();
            let share = left / (max_attempts - attempt + 1);
            if share.is_zero() {
                // only a first attempt gets here: a due probe spent the budget
                return Err(RemoteError::Io(std::io::ErrorKind::TimedOut.into()));
            }
            frame.deadline_ms = Some(super::ceil_ms(left));
            // the attempt's span closes in here, before the bookkeeping
            // below needs the client mutably
            let reply = {
                let span = self.tel.as_ref().map(|t| {
                    t.attempts.bump();
                    if attempt > 1 {
                        t.retries.bump();
                    }
                    let mut s = t.telemetry.span_maybe_under(parent, "client", "attempt");
                    s.attr("verb", verb);
                    s.attr("attempt", attempt);
                    if fleet {
                        s.attr("replica", Arc::clone(&self.replicas[idx].link.desc));
                    }
                    s
                });
                frame.trace = span.as_ref().map(|s| s.context()).or(parent);
                let reply = self.replicas[idx].link.exchange(frame, share);
                if let Some(s) = span {
                    match &reply {
                        Ok(Response::Busy { retry_after_ms }) => {
                            s.fail(format!("busy retry_after={retry_after_ms}ms"))
                        }
                        Ok(_) => s.finish(),
                        Err(e) => s.fail(e.to_string()),
                    }
                }
                reply
            };
            let (err, wait, why) = match reply {
                Ok(Response::Busy { retry_after_ms }) => {
                    if let Some(t) = &self.tel {
                        t.busy.bump();
                    }
                    let busy = RemoteError::Busy { retry_after_ms, attempts: attempt };
                    (busy, Duration::from_millis(retry_after_ms.min(50)), "busy")
                }
                Ok(resp) => {
                    self.note_success(idx);
                    return Ok(resp);
                }
                Err(e) => {
                    if let Some(t) = &self.tel {
                        t.errors.bump();
                    }
                    self.note_failure(idx);
                    if matches!(e, RemoteError::Connect(_)) && pos < 64 {
                        dial_failed |= 1 << pos;
                    }
                    (e, BACKOFF * attempt, "error")
                }
            };
            let next = next_candidate(pos, self.order.len(), &mut dial_failed);
            let wraps = next <= pos;
            let wait = if wraps { wait } else { Duration::ZERO };
            if attempt >= max_attempts || self.left() <= wait {
                return Err(err);
            }
            if wraps {
                self.replicas[idx].link.transport.sleep(wait);
            } else {
                self.note_failover(idx, self.order[next] as usize, why, parent);
            }
            pos = next;
        }
    }

    /// A bounded preload against one specific replica.
    fn preload_on(&mut self, idx: usize, model_id: i64, opts: &CallOptions) -> Result<PreloadAck, RemoteError> {
        self.order = vec![idx as u32];
        match self.drive(&mut RequestFrame::new(Request::Preload { model_id }).traced(opts.trace))? {
            Response::Preloaded { model_id, model_type, system_hash, binary_hash, generation } => {
                Ok(PreloadAck { model_id, model_type, system_hash, binary_hash, generation })
            }
            Response::Error { message } => Err(RemoteError::Server(message)),
            other => Err(RemoteError::Protocol(format!("expected Preloaded, got {other:?}"))),
        }
    }

    /// A transport-level failure: after `DOWN_AFTER` in a row the
    /// replica is voted off — unless it is the last healthy one.
    fn note_failure(&mut self, idx: usize) {
        self.replicas[idx].consecutive_failures += 1;
        if self.replicas[idx].healthy
            && self.replicas[idx].consecutive_failures >= DOWN_AFTER
            && self.replicas_healthy() > 1
        {
            self.replicas[idx].healthy = false;
            self.replicas[idx].probe_in = self.knobs.probe_cooldown;
        }
    }

    /// A successful exchange: reset health, and make the replica healthy
    /// again if it had been voted off.
    fn note_success(&mut self, idx: usize) {
        self.replicas[idx].consecutive_failures = 0;
        self.replicas[idx].healthy = true;
    }

    /// Counts down the voted-off replicas' cooldowns and pings at most
    /// one whose window expired, as one more attempt of the request in
    /// flight, inside its share of the budget. A `Pong` makes the
    /// replica healthy again; anything else re-arms the cooldown.
    fn probe_if_due(&mut self, parent: Option<TraceContext>) {
        let mut due: Option<usize> = None;
        for (i, r) in self.replicas.iter_mut().enumerate() {
            if !r.healthy {
                if r.probe_in == 0 {
                    due.get_or_insert(i);
                } else {
                    r.probe_in -= 1;
                }
            }
        }
        let Some(idx) = due else { return };
        if let Some(t) = &self.tel {
            t.probes.bump();
        }
        let share = self.left() / (self.knobs.max_retries + self.replicas.len() as u32 + 1);
        if !share.is_zero() && self.replicas[idx].link.probe(parent, share) {
            self.note_success(idx);
        } else {
            self.replicas[idx].probe_in = self.knobs.probe_cooldown;
        }
    }

    fn note_failover(&mut self, from: usize, to: usize, why: &'static str, parent: Option<TraceContext>) {
        if let Some(t) = &self.tel {
            t.failovers.bump();
            if let Some(ctx) = parent {
                let mut s = t.telemetry.span_under(ctx, "client", "failover");
                s.attr("from", Arc::clone(&self.replicas[from].link.desc));
                s.attr("to", Arc::clone(&self.replicas[to].link.desc));
                s.attr("why", why);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::{wire, Connection};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    /// The config the in-memory daemon holds for a key: distinct per
    /// key, so a cross-wired answer shows.
    fn answer((system_hash, binary_hash): (u64, u64)) -> CpuConfig {
        CpuConfig::new(1 + binary_hash as u32, 1_000_000 + system_hash, 1)
    }

    /// What a current daemon writes back, echoing the frame's tag: binary
    /// for a hot verb, JSON for a `Ping`.
    fn honest(frame: &RequestFrame) -> Vec<u8> {
        wire::encode_reply(frame.body != Request::Ping, frame.corr, served(&frame.body))
    }

    /// The same answer as a bare JSON reply, one that echoes no tag.
    fn bare(frame: &RequestFrame) -> Vec<u8> {
        wire::encode_reply(false, None, served(&frame.body))
    }

    fn served(body: &Request) -> Response {
        match body {
            Request::Ping => Response::Pong,
            Request::Predict { system_hash, binary_hash } => Response::Config(answer((*system_hash, *binary_hash))),
            Request::PredictMany { keys } => {
                Response::ManyConfigs { results: keys.iter().map(|&k| KeyOutcome::Config(answer(k))).collect() }
            }
            other => panic!("unscripted verb {other:?}"),
        }
    }

    fn pong() -> Vec<u8> {
        wire::encode_reply(false, None, Response::Pong)
    }

    /// Answers the `n`th frame the daemon was sent, `f`, with reply frames.
    type Script = fn(&RequestFrame, usize) -> Vec<Vec<u8>>;

    /// An in-memory daemon, both ends of its connections: answers a
    /// single with `on_single` and a batch with `on_batch`.
    #[derive(Clone)]
    struct Scripted {
        on_single: Script,
        on_batch: Script,
        frames: Arc<AtomicUsize>,
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
            let frame = wire::decode_request(payload).1.expect("the client writes well-formed frames");
            let script =
                if matches!(frame.body, Request::PredictMany { .. }) { self.on_batch } else { self.on_single };
            self.inbox.extend(script(&frame, self.frames.fetch_add(1, Ordering::SeqCst)));
            Ok(())
        }

        fn recv_frame(&mut self) -> std::io::Result<Vec<u8>> {
            self.inbox.pop_front().ok_or_else(|| std::io::ErrorKind::TimedOut.into())
        }
    }

    const KEYS: [(u64, u64); 3] = [(7, 1), (7, 2), (9, 3)];
    const OPTS: &CallOptions = &CallOptions { trace: None };

    fn daemon(on_single: Script, on_batch: Script) -> Scripted {
        Scripted { on_single, on_batch, frames: Arc::default(), dials: Arc::default(), inbox: VecDeque::new() }
    }

    /// A single-replica client of a [`Scripted`] daemon; returns its
    /// dial count and its `client.requests` / `client.attempts` too.
    fn scripted_with(on_single: Script, on_batch: Script) -> (PredictClient, Arc<AtomicUsize>, Counter, Counter) {
        let daemon = daemon(on_single, on_batch);
        let dials = Arc::clone(&daemon.dials);
        let mut client = PredictClient::builder().transport(Box::new(daemon)).build().unwrap();
        let tel = Arc::new(Telemetry::wall());
        client.set_telemetry(Arc::clone(&tel));
        (client, dials, tel.counter("client.requests"), tel.counter("client.attempts"))
    }

    /// [`scripted_with`] a daemon honest about singles.
    fn scripted(on_batch: Script) -> (PredictClient, Arc<AtomicUsize>, Counter, Counter) {
        scripted_with(|f, _| vec![honest(f)], on_batch)
    }

    /// Asks for [`KEYS`]; every key must come back with its own config.
    fn assert_all_answered(client: &mut PredictClient) {
        let got: Vec<CpuConfig> = client.predict_many(&KEYS, OPTS).into_iter().map(Result::unwrap).collect();
        assert_eq!(got, KEYS.map(answer), "a key was dropped or cross-wired");
    }

    /// A client of three [`Scripted`] daemons, in this endpoint order,
    /// whose voted-off replicas are probed every fourth request; returns
    /// the frames each daemon was sent.
    fn scripted_fleet(daemons: [Scripted; 3]) -> (PredictClient, [Arc<AtomicUsize>; 3]) {
        let frames = daemons.each_ref().map(|d| Arc::clone(&d.frames));
        let builder = PredictClient::builder().probe_cooldown(3);
        let client = daemons.into_iter().fold(builder, |b, d| b.transport(Box::new(d))).build().unwrap();
        (client, frames)
    }

    fn sent(frames: &[Arc<AtomicUsize>; 3]) -> [usize; 3] {
        frames.each_ref().map(|f| f.load(Ordering::SeqCst))
    }

    #[test]
    fn a_healthy_fleet_sends_a_whole_batch_to_its_first_endpoint() {
        let honest_daemon = || daemon(|f, _| vec![honest(f)], |f, _| vec![honest(f)]);
        let (mut client, frames) = scripted_fleet([honest_daemon(), honest_daemon(), honest_daemon()]);
        let keys: Vec<(u64, u64)> = (0..2 * MAX_BATCH_KEYS as u64 + 1).map(|i| (i, i % 5)).collect();
        for (result, &key) in client.predict_many(&keys, OPTS).into_iter().zip(&keys) {
            assert_eq!(result.unwrap(), answer(key), "a key was dropped or cross-wired");
        }
        assert_eq!(sent(&frames), [3, 0, 0], "three frames, every one to the first endpoint");
    }

    #[test]
    fn a_batch_the_first_replica_bounces_falls_back_per_key_on_the_next() {
        let busy = |_: &RequestFrame, _| vec![serde_json::to_vec(&Response::Busy { retry_after_ms: 1 }).unwrap()];
        let honest_daemon = || daemon(|f, _| vec![honest(f)], |f, _| vec![honest(f)]);
        let (mut client, frames) = scripted_fleet([daemon(busy, busy), honest_daemon(), honest_daemon()]);
        assert_all_answered(&mut client);
        assert_eq!(
            sent(&frames),
            [1 + KEYS.len(), KEYS.len(), 0],
            "the batch and each single bounced, then answered"
        );
        assert_eq!(client.replicas_healthy(), 3, "a bounce is no failure");
    }

    #[test]
    fn a_voted_off_first_replica_is_skipped_until_a_probe_answers_pong() {
        // the first two frames are lost, then it answers
        let flaky = daemon(|f, n| if n < 2 { Vec::new() } else { vec![honest(f)] }, |_, _| unreachable!());
        let honest_daemon = || daemon(|f, _| vec![honest(f)], |_, _| unreachable!());
        let (mut client, frames) = scripted_fleet([flaky, honest_daemon(), honest_daemon()]);
        for _ in 0..2 {
            assert_eq!(client.predict(7, 1, OPTS).unwrap(), answer((7, 1)));
        }
        assert_eq!((client.replicas_healthy(), sent(&frames)), (2, [2, 2, 0]), "voted off after two losses");
        for _ in 0..3 {
            assert_eq!(client.predict(7, 1, OPTS).unwrap(), answer((7, 1)));
        }
        assert_eq!(sent(&frames), [2, 5, 0], "skipped while its cooldown runs");
        // the fourth request probes it first: a Pong, and it answers again
        assert_eq!(client.predict(7, 1, OPTS).unwrap(), answer((7, 1)));
        assert_eq!((client.replicas_healthy(), sent(&frames)), (3, [4, 5, 0]), "a Ping, then the predict");
        assert_eq!(client.predict(7, 1, OPTS).unwrap(), answer((7, 1)));
        assert_eq!(sent(&frames), [5, 5, 0], "first again");
    }

    #[test]
    fn requests_counts_one_per_public_call() {
        // the second batch frame, the fourth frame sent, is bounced
        let (mut client, _, requests, attempts) = scripted(|f, n| match n {
            3 => vec![serde_json::to_vec(&Response::Busy { retry_after_ms: 1 }).unwrap()],
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
        let stale_pong_ahead = |f: &RequestFrame, _| vec![pong(), honest(f)];
        for (mut client, dials, _, attempts) in [scripted(foreign_tag), scripted(stale_pong_ahead)] {
            assert_all_answered(&mut client);
            assert_eq!(dials.load(Ordering::SeqCst), 2, "the desynced connection is dropped");
            assert_eq!(attempts.get(), 1 + KEYS.len() as u64, "one batch frame, then one single per key");
        }
    }

    #[test]
    fn a_bare_reply_to_a_tagged_batch_is_taken_in_order() {
        // what the accept loop's bounce looks like, with an answer in it
        let (mut client, dials, _, attempts) = scripted(|f, _| vec![bare(f)]);
        assert_all_answered(&mut client);
        assert_eq!((dials.load(Ordering::SeqCst), attempts.get()), (1, 1));
    }

    #[test]
    fn a_duplicated_or_stale_reply_to_a_single_costs_one_redial_and_answers_nothing() {
        // the first single's reply arrives twice, and the second call
        // reads the copy first; or a stale Pong is read ahead of it
        let duplicated = |f: &RequestFrame, n| vec![honest(f); if n == 0 { 2 } else { 1 }];
        let stale_pong_ahead = |f: &RequestFrame, n| if n == 0 { vec![pong(), honest(f)] } else { vec![honest(f)] };
        for (mut client, dials, _, attempts) in
            [scripted_with(duplicated, |_, _| unreachable!()), scripted_with(stale_pong_ahead, |_, _| unreachable!())]
        {
            for key in [(7, 1), (7, 2)] {
                assert_eq!(
                    client.predict(key.0, key.1, OPTS).unwrap(),
                    answer(key),
                    "an earlier reply answered {key:?}"
                );
            }
            assert_eq!((dials.load(Ordering::SeqCst), attempts.get()), (2, 3), "one refused reply, one redial");
        }
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
            PredictClient::builder().endpoint("a:1").budget(Duration::ZERO).build().unwrap_err(),
            ClientBuildError::ZeroBudget
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
        client.order_candidates();
        assert_eq!(client.order, [1, 0, 2], "the shm replica leads, the rest keep endpoint order");
        // voted off, it goes last, behind the healthy ones in endpoint order
        client.replicas[1].healthy = false;
        client.order_candidates();
        assert_eq!(client.order, [0, 2, 1]);
        // one endpoint: the same code orders it first and only
        let mut single = PredictClient::builder().endpoint("h1:4117").build().unwrap();
        single.order_candidates();
        assert_eq!(single.order, [0]);
    }

    #[test]
    fn builder_accepts_a_fleet_and_reports_endpoints() {
        let client = PredictClient::builder().endpoints(["h1:4117", "h2:4117"]).endpoint("h3:4117").build().unwrap();
        assert_eq!(client.endpoints(), vec!["h1:4117", "h2:4117", "h3:4117"]);
        assert_eq!(client.addr(), "h1:4117");
        assert_eq!(client.replicas_total(), 3);
        assert_eq!(client.replicas_healthy(), 3, "everyone starts healthy");
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
            .budget(Duration::from_millis(100))
            .max_retries(1)
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
            .budget(Duration::from_millis(200))
            .max_retries(1)
            .build()
            .unwrap();
        let start = Instant::now();
        let err = client.predict(7, 9, &CallOptions::default()).unwrap_err();
        assert!(matches!(err, RemoteError::Connect(_) | RemoteError::Io(_)), "{err}");
        assert!(start.elapsed() < Duration::from_secs(2), "failover must stay bounded");
        // repeated failures voted replicas off, but never the last healthy one
        assert!(client.replicas_healthy() >= 1);
    }
    /// A daemon on a fake clock that every transport cloned from it
    /// shares: it answers honestly, or — while `stalled`, and for its
    /// first `drops` frames — accepts a frame and never answers, so a
    /// read waits out exactly what the client armed. Each such wait is
    /// booked as `(start, length)`. A `ring_gone` one is a local (shm)
    /// endpoint whose ring file is missing: every dial fails at once.
    #[derive(Clone, Default)]
    struct Clocked {
        clock: Arc<parking_lot::Mutex<Duration>>,
        stalled: bool,
        drops: Arc<AtomicUsize>,
        ring_gone: bool,
        dials: Arc<AtomicUsize>,
        armed: Duration,
        waits: Arc<parking_lot::Mutex<Vec<(Duration, Duration)>>>,
        inbox: VecDeque<Vec<u8>>,
    }

    impl Transport for Clocked {
        fn connect(&mut self) -> std::io::Result<Box<dyn Connection>> {
            self.dials.fetch_add(1, Ordering::SeqCst);
            if self.ring_gone {
                return Err(std::io::Error::new(std::io::ErrorKind::NotFound, "shm ring file missing"));
            }
            Ok(Box::new(self.clone()))
        }

        fn describe(&self) -> String {
            format!("clocked{}", if self.stalled { " (stalled)" } else { "" })
        }

        fn is_local(&self) -> bool {
            self.ring_gone
        }

        fn sleep(&mut self, d: Duration) {
            *self.clock.lock() += d;
        }

        fn now(&self) -> Duration {
            *self.clock.lock()
        }
    }

    impl Connection for Clocked {
        fn send_frame(&mut self, payload: &[u8]) -> std::io::Result<()> {
            let dropped = self.drops.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)).is_ok();
            if !self.stalled && !dropped {
                // answered in the request's encoding, as a daemon does
                let (binary, frame) = wire::decode_request(payload);
                let frame = frame.expect("a well-formed frame");
                self.inbox.push_back(wire::encode_reply(binary, frame.corr, served(&frame.body)));
            }
            Ok(())
        }

        fn recv_frame(&mut self) -> std::io::Result<Vec<u8>> {
            if let Some(reply) = self.inbox.pop_front() {
                return Ok(reply);
            }
            let mut now = self.clock.lock();
            self.waits.lock().push((*now, self.armed));
            *now += self.armed;
            Err(std::io::ErrorKind::TimedOut.into())
        }

        fn arm(&mut self, timeout: Duration) -> std::io::Result<()> {
            self.armed = timeout;
            Ok(())
        }
    }

    const BUDGET: Duration = Duration::from_millis(50);

    #[test]
    fn a_ping_is_timed_on_the_transport_clock() {
        // the first frame is lost: the read waits out its share on the
        // transport clock, then the retry is answered
        let daemon = Clocked { drops: Arc::new(AtomicUsize::new(1)), ..Clocked::default() };
        let clock = Arc::clone(&daemon.clock);
        let mut client = PredictClient::builder().budget(BUDGET).transport(Box::new(daemon)).build().unwrap();
        let latency = client.ping().unwrap();
        assert!(*clock.lock() > Duration::ZERO, "the lost frame cost no time");
        assert_eq!(latency, *clock.lock(), "the ping's latency is what the transport clock moved");
    }

    #[test]
    fn a_stalled_daemon_costs_one_budget_and_no_attempt_more_than_its_share() {
        let daemon = Clocked { stalled: true, ..Clocked::default() };
        let (clock, waits) = (Arc::clone(&daemon.clock), Arc::clone(&daemon.waits));
        let mut client = PredictClient::builder().budget(BUDGET).transport(Box::new(daemon)).build().unwrap();
        let err = client.predict(7, 1, OPTS).unwrap_err();
        assert!(matches!(&err, RemoteError::Io(e) if e.kind() == std::io::ErrorKind::TimedOut), "{err}");
        assert!(*clock.lock() <= BUDGET, "the request outlived its budget: {:?}", clock.lock());
        let waits = waits.lock();
        assert!(waits.len() >= 2, "one stalled attempt must leave time for the next: {waits:?}");
        for (i, &(start, wait)) in waits.iter().enumerate() {
            // three attempts (max_retries 2), this one and those after it
            let share = (BUDGET - start) / (3 - i as u32);
            assert!(wait <= share, "attempt {i} waited {wait:?}, over its share {share:?}");
        }
    }

    #[test]
    fn a_due_probe_of_a_stalled_replica_spends_from_the_requests_budget() {
        let healthy = Clocked::default();
        let stalled = Clocked { stalled: true, clock: Arc::clone(&healthy.clock), ..Clocked::default() };
        let (clock, waits) = (Arc::clone(&healthy.clock), Arc::clone(&stalled.waits));
        let mut client = PredictClient::builder()
            .budget(BUDGET)
            .probe_cooldown(0)
            .transport(Box::new(stalled))
            .transport(Box::new(healthy))
            .build()
            .unwrap();
        // the stalled first replica fails over to the second, until it is voted off
        for b in 0..64 {
            assert_eq!(client.predict(7, b, OPTS).unwrap(), answer((7, b)));
            if client.replicas_healthy() == 1 {
                break;
            }
        }
        assert_eq!(client.replicas_healthy(), 1, "the stalled replica was never voted off");

        // voted off with no cooldown: the next request probes it first
        let (start, probes) = (*clock.lock(), waits.lock().len());
        let config = client.predict(7, 1, OPTS).expect("the probe left the request no time");
        assert_eq!(config, answer((7, 1)));
        assert!(*clock.lock() - start <= BUDGET, "the request and its probe outlived one budget");
        let waits = waits.lock();
        assert_eq!(waits.len(), probes + 1, "one probe: {waits:?}");
        // the probe is one more attempt ahead of the request's four
        // (max_retries 2 over two candidates)
        let (probed, wait) = waits[probes];
        let share = (start + BUDGET - probed) / 5;
        assert!(wait <= share, "the probe waited {wait:?}, over its share {share:?}");
    }

    /// The `shm://…,tcp://…` ladder after its ring died: whether the
    /// ring was voted off before it (`off` 0) or is the last healthy
    /// replica with TCP voted off (`off` 1), a request whose TCP exchange is lost
    /// `k` times dials the missing ring once and spends every retry on
    /// TCP.
    #[test]
    fn a_failed_dial_is_not_retried_while_another_candidate_can_answer() {
        for off in [0, 1] {
            for k in 2..=4 {
                let tcp = Clocked::default();
                let ring = Clocked { ring_gone: true, clock: Arc::clone(&tcp.clock), ..Clocked::default() };
                let (drops, ring_dials) = (Arc::clone(&tcp.drops), Arc::clone(&ring.dials));
                let mut client = PredictClient::builder()
                    .budget(Duration::from_secs(1))
                    .max_retries(k)
                    .transport(Box::new(ring))
                    .transport(Box::new(tcp))
                    .build()
                    .unwrap();
                // voted off with no probe due in this test
                client.replicas[off].healthy = false;
                client.replicas[off].probe_in = u32::MAX;
                drops.store(k as usize, Ordering::SeqCst);
                let got = client.predict(7, 1, OPTS);
                assert_eq!(got.unwrap(), answer((7, 1)), "off {off}, k {k}");
                assert_eq!(ring_dials.load(Ordering::SeqCst), 1, "off {off}, k {k}: the missing ring was re-dialled");
            }
        }
    }

    #[test]
    fn when_every_dial_fails_every_candidate_is_tried_again() {
        let mut dial_failed = 0b11;
        assert_eq!(next_candidate(1, 2, &mut dial_failed), 0, "all failed: wrap to the first");
        assert_eq!(dial_failed, 0);
        let mut dial_failed = 0b01;
        assert_eq!(next_candidate(1, 2, &mut dial_failed), 1, "the live one again, wrapping");
        assert_eq!(next_candidate(0, 3, &mut 0b010), 2, "past the failed one");
        assert_eq!(next_candidate(0, 1, &mut 0b1), 0, "one candidate is always retried");
        let mut dial_failed = u64::MAX;
        assert_eq!(next_candidate(63, 70, &mut dial_failed), 64, "positions past 64 are never skipped");
    }
}
