//! Remote prediction: the wire protocol spoken between the eco plugin
//! and the `chronusd` prediction daemon, plus the blocking client and
//! the [`PredictionSource`] port that lets the plugin switch between
//! in-process prediction (today's staged-model path) and a daemon on
//! the head node.
//!
//! ## Framing
//!
//! On a byte stream every message is a 4-byte big-endian length prefix
//! followed by that many payload bytes; frame-level transports (the
//! shared-memory ring) carry the payload alone. Frames above
//! [`MAX_FRAME_LEN`] are a protocol violation and close the connection.
//! Which bytes a payload is — the binary layout of [`fastpath`] for the
//! two hot verbs on every transport, JSON for the control plane; a bare
//! [`Response`] or a [`ResponseFrame`] envelope — is decided in [`wire`]
//! and nowhere else. A request is a [`RequestFrame`]: the verb plus an
//! optional deadline budget, trace context and correlation tag, in
//! either encoding. The client has at most one request in flight per
//! connection; it tags every frame and checks the echo, so a stale or
//! duplicated reply is dropped with its connection instead of being read
//! as the answer to a later exchange.
//!
//! ## Batching
//!
//! [`Request::PredictMany`] answers up to [`MAX_BATCH_KEYS`] prediction
//! keys in one round trip with [`Response::ManyConfigs`]: one
//! [`KeyOutcome`] per key, in request order, always the same length as
//! the key list.
//!
//! ## One protocol version
//!
//! Every peer is built from this workspace at one commit, so there is
//! no handshake and no capability probe: a frame the daemon cannot
//! decode is answered with a `malformed request` [`Response::Error`],
//! and the client reports that as the error it is.
//!
//! ## Transports
//!
//! The client is generic over a [`Transport`] that dials connections,
//! owns every wait the client performs (busy back-off, retry back-off)
//! and keeps the clock a request's budget is measured on.
//! [`TcpTransport`] is the production path; the `simtest` crate plugs in
//! an in-memory channel whose `sleep` and `now` run a discrete-event
//! clock, so the whole retry/backoff state machine runs on virtual time.
//!
//! ## Fleet mode
//!
//! A [`PredictClient`] built with several endpoints routes predictions
//! over a consistent-hash [`ring::HashRing`] keyed by `(system_hash,
//! binary_hash)`, with health-checked failover between replicas; see the
//! [`client`](self::PredictClient) docs for the full protocol.

mod client;
mod endpoint;
pub mod fastpath;
mod link;
pub mod ring;
pub mod shm;
pub mod wire;

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use eco_sim_node::cpu::CpuConfig;
use eco_slurm_sim::plugin::DEFAULT_PLUGIN_BUDGET_MS;
use serde::{Deserialize, Serialize};

use crate::application::predict_from_settings;
use crate::domain::LoadedModel;
use crate::error::{ChronusError, Result};
use crate::integrations::storage::FileStamp;
use crate::interfaces::LocalStorage;
use crate::telemetry::{Telemetry, TraceContext};

pub use client::{CallOptions, ClientBuildError, ClientBuilder, FleetPreload, PredictClient};
pub use endpoint::{Endpoint, EndpointParseError};
pub use ring::{predict_key, HashRing};
pub use shm::{SessionEnd, ShmListener, ShmTransport};

/// Upper bound on a single frame's JSON payload (1 MiB).
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// The plugin's request budget: half the scheduler's per-plugin budget,
/// leaving the rest for the plugin's own work and host jitter.
pub const SUBMIT_BUDGET: Duration = Duration::from_millis(DEFAULT_PLUGIN_BUDGET_MS / 2);

/// `d` in whole milliseconds, rounded up: how a transport arms a timeout.
pub fn ceil_ms(d: Duration) -> u64 {
    (d.as_nanos() as u64).div_ceil(1_000_000)
}

/// Upper bound on the keys one [`Request::PredictMany`] may carry.
/// Chosen so a worst-case reply (one full `Config` per key) stays far
/// under [`MAX_FRAME_LEN`]; bigger batches are split by the client and
/// rejected with an `Error` by the daemon.
pub const MAX_BATCH_KEYS: usize = 1024;

// ---------------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------------

/// A request body (the RPC verb).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// "What is the most energy-efficient configuration for this
    /// (system, binary)?" — the plugin's submit-path query.
    Predict { system_hash: u64, binary_hash: u64 },
    /// The batched form of [`Request::Predict`]: up to
    /// [`MAX_BATCH_KEYS`] `(system_hash, binary_hash)` keys answered in
    /// one round trip by [`Response::ManyConfigs`], one [`KeyOutcome`]
    /// per key in request order. Counted as one request but `keys.len()`
    /// predictions in the daemon's stats.
    PredictMany { keys: Vec<(u64, u64)> },
    /// Refresh the daemon's table from its store and confirm that this
    /// model serves there (the rollout push).
    Preload { model_id: i64 },
    /// Fetch the daemon's operational counters.
    Stats,
    /// The adaptation loop's outcome feed: the plugin reports what a
    /// served prediction actually did in production. Answered with
    /// [`Response::OutcomeAck`].
    ReportOutcome { system_hash: u64, binary_hash: u64, outcome: ObservedOutcome },
}

impl Request {
    /// The verb's name, as spans and protocol errors spell it.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Predict { .. } => "predict",
            Request::PredictMany { .. } => "predict_many",
            Request::Preload { .. } => "preload",
            Request::Stats => "stats",
            Request::ReportOutcome { .. } => "report_outcome",
        }
    }
}

/// One production observation of a served prediction: what the job
/// actually achieved under the configuration the plugin applied. The
/// daemon folds these into per-key reservoirs that feed the drift
/// detector and the incremental re-fit (see `chronusd::adapt`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservedOutcome {
    /// The configuration the job actually ran under (the served
    /// prediction, or whatever the operator overrode it to).
    pub config: CpuConfig,
    /// Achieved compute throughput.
    pub gflops: f64,
    /// Average system power draw over the job.
    pub watts: f64,
    /// Wall-clock duration of the job in seconds.
    pub duration_s: f64,
    /// The node class the job ran on (empty = the unnamed default
    /// class, and from plugins predating node classes).
    #[serde(default)]
    pub node_class: String,
}

impl ObservedOutcome {
    /// Observed energy efficiency, the drift detector's statistic.
    /// `None` when the observation is degenerate (non-positive or
    /// non-finite power).
    pub fn gflops_per_watt(&self) -> Option<f64> {
        if self.watts > 0.0 && self.watts.is_finite() && self.gflops.is_finite() {
            Some(self.gflops / self.watts)
        } else {
            None
        }
    }

    /// Whether the observation is well-formed enough to ingest:
    /// finite, non-negative measurements with positive power and
    /// duration. Malformed outcomes are acked `accepted: false` and
    /// counted, never folded into a reservoir.
    pub fn is_valid(&self) -> bool {
        self.gflops.is_finite()
            && self.gflops >= 0.0
            && self.watts.is_finite()
            && self.watts > 0.0
            && self.duration_s.is_finite()
            && self.duration_s > 0.0
    }
}

/// A request plus its per-request deadline budget. The daemon answers
/// [`Response::DeadlineExceeded`] instead of the real result when
/// handling took longer than `deadline_ms` — the plugin's cue to fall
/// back rather than blow the scheduler's submit budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestFrame {
    /// Time budget in milliseconds, measured from frame receipt.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Propagated trace context, when the caller is traced. Untraced
    /// frames omit the field entirely and decode with it defaulted, so
    /// the header costs an untraced submission no bytes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<TraceContext>,
    /// Correlation id: a per-exchange tag. When present, the daemon
    /// echoes it — in a [`ResponseFrame`] for JSON, in the reply header
    /// for binary — and the client checks the echo against the tag it
    /// sent, so a reply left over from an earlier exchange is never
    /// taken for this one's. The client tags every frame; an untagged
    /// JSON frame is answered bare.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub corr: Option<u64>,
    /// The RPC verb.
    pub body: Request,
}

impl RequestFrame {
    /// A frame with no deadline.
    pub fn new(body: Request) -> RequestFrame {
        RequestFrame { deadline_ms: None, trace: None, corr: None, body }
    }

    /// A frame with a deadline budget in milliseconds.
    pub fn with_deadline(body: Request, deadline_ms: u64) -> RequestFrame {
        RequestFrame { deadline_ms: Some(deadline_ms), trace: None, corr: None, body }
    }

    /// The same frame carrying a trace context header.
    pub fn traced(mut self, trace: Option<TraceContext>) -> RequestFrame {
        self.trace = trace;
        self
    }

    /// The same frame carrying a correlation id (asks the daemon to
    /// answer with a [`ResponseFrame`] envelope).
    pub fn with_corr(mut self, corr: u64) -> RequestFrame {
        self.corr = Some(corr);
        self
    }
}

/// A response frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// The predicted most energy-efficient configuration.
    Config(CpuConfig),
    /// Answer to a successful [`Request::Preload`]. `generation` is the
    /// ledger generation of the serving record the daemon answered with.
    Preloaded { model_id: i64, model_type: String, system_hash: u64, binary_hash: u64, generation: u64 },
    /// Answer to [`Request::Stats`]. Boxed: the snapshot is by far the
    /// largest payload, and the box keeps every other `Response` small
    /// on the submit path (serde is transparent to the box).
    Stats(Box<StatsSnapshot>),
    /// Answer to [`Request::PredictMany`]: one [`KeyOutcome`] per
    /// requested key, in request order, always exactly as many as the
    /// request carried keys — a key is never silently dropped.
    ManyConfigs { results: Vec<KeyOutcome> },
    /// The daemon is at its connection cap; retry after the hint.
    Busy { retry_after_ms: u64 },
    /// No model is resident (or loadable) for this key.
    Miss { system_hash: u64, binary_hash: u64 },
    /// Handling overran the frame's `deadline_ms`.
    DeadlineExceeded,
    /// The daemon hit an internal error serving the request.
    Error { message: String },
    /// Answer to [`Request::ReportOutcome`]. `accepted` is false when
    /// the outcome was malformed (non-finite or non-positive
    /// measurements) or the daemon has no adaptation monitor; either
    /// way the submit path is unaffected.
    OutcomeAck { accepted: bool },
}

/// The per-key result inside [`Response::ManyConfigs`]. A batch never
/// fails half-silently: every key comes back as exactly one of these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum KeyOutcome {
    /// The predicted most energy-efficient configuration for this key.
    Config(CpuConfig),
    /// No model is resident (or loadable) for this key.
    Miss,
    /// The daemon hit an internal error serving this key; the rest of
    /// the batch is unaffected.
    Error { message: String },
}

/// The reply envelope: a [`Response`] plus the correlation id of
/// the [`RequestFrame`] it answers. Sent **only** when the request
/// carried [`RequestFrame::corr`]; plain requests keep the bare
/// [`Response`] wire shape. The two shapes cannot be confused on
/// decode: a bare `Response` is a string or a single-variant-key
/// object, never an object with `corr` and `body` fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseFrame {
    /// Echo of the request's correlation id.
    pub corr: u64,
    /// The answer itself.
    pub body: Response,
}

/// A successful preload acknowledgement, as returned by
/// [`PredictClient::preload`].
#[derive(Debug, Clone, PartialEq)]
pub struct PreloadAck {
    /// The staged model's repository id.
    pub model_id: i64,
    /// The optimizer type string.
    pub model_type: String,
    /// The system the model answers for.
    pub system_hash: u64,
    /// The binary the model answers for.
    pub binary_hash: u64,
    /// The ledger generation of the serving record the daemon answered
    /// with.
    pub generation: u64,
}

/// A point-in-time copy of the daemon's counters (the `stats` RPC).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct StatsSnapshot {
    /// Requests handled, all verbs.
    pub requests_total: u64,
    /// `Predict` requests handled.
    pub predictions: u64,
    /// `Predict` answered straight from the registry.
    pub cache_hits: u64,
    /// `Predict` keys the table did not hold: each refreshed from the
    /// store, then answered or `Miss`.
    pub cache_misses: u64,
    /// Connections bounced with `Busy` because the daemon was at its
    /// connection cap.
    pub busy_rejections: u64,
    /// Requests answered `DeadlineExceeded`.
    pub deadline_exceeded: u64,
    /// Requests answered `Error`.
    pub errors: u64,
    /// TCP connections open right now, one serving thread each.
    pub connections: u64,
    /// Open connections past which a new one is bounced with `Busy`.
    pub max_connections: u64,
    /// Models in the daemon's answer table: every key its store serves.
    pub models_resident: u64,
    /// Always 0: the daemon evicts nothing. Kept because
    /// `benchmark/src/main.rs` reads it.
    pub evictions: u64,
    /// The ledger generation the daemon's table has reached: the store's
    /// high-water mark as of its last refresh (0 before the first).
    pub model_generation: u64,
    /// `Preload` requests handled (installed or refused).
    pub preloads: u64,
    /// Models installed by boot catch-up from the daemon's store.
    pub store_catchups: u64,
    /// The daemon's store directory (`memory` for an in-memory store;
    /// empty from a daemon that predates stores).
    pub store_dir: String,
    /// The store's committed-generation high-water mark as of this
    /// snapshot (0 = no store configured, or an empty store).
    pub store_generation: u64,
    /// `PredictMany` frames handled (each also counts once in
    /// `requests_total`; its keys count in `predictions`).
    pub batches: u64,
    /// Keys carried by all `PredictMany` frames handled.
    pub batched_keys: u64,
    /// The reporting replica's identity (empty when never given one).
    pub replica: String,
    /// Serving-model counts per node class, sorted by class name; the
    /// unnamed legacy class reports as `default`. Empty when no store is
    /// configured.
    pub models_by_class: Vec<(String, u64)>,
    /// `ReportOutcome` observations folded into adaptation reservoirs.
    pub outcomes_ingested: u64,
    /// `ReportOutcome` observations rejected as malformed.
    pub outcomes_rejected: u64,
    /// Distinct `(system, binary)` reservoirs currently populated.
    pub outcome_reservoirs: u64,
    /// Worst current drift score across keys, in milli-units of
    /// absolute mean relative error (0 = no drift or too few samples).
    pub drift_score_milli: u64,
    /// Drift detector trips (sustained efficiency divergence).
    pub drift_trips: u64,
    /// Drift detector clears (divergence subsided below hysteresis).
    pub drift_clears: u64,
    /// Median request handling latency (µs, bucket upper bound).
    pub latency_p50_us: u64,
    /// 99th-percentile request handling latency (µs, bucket upper bound).
    pub latency_p99_us: u64,
    /// Worst observed request handling latency (µs, exact).
    pub latency_max_us: u64,
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

fn invalid_data(why: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_string())
}

/// `msg` as a JSON payload.
fn to_json<T: Serialize>(msg: &T) -> std::io::Result<Vec<u8>> {
    serde_json::to_vec(msg).map_err(invalid_data)
}

/// The payload length a 4-byte big-endian prefix announces.
fn frame_len(header: &[u8]) -> std::io::Result<usize> {
    let len = u32::from_be_bytes(header.try_into().expect("a 4-byte prefix")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(invalid_data(format!("peer announced a {len} byte frame (limit {MAX_FRAME_LEN})")));
    }
    Ok(len)
}

/// Writes `payload` behind its length prefix in one `write_all`,
/// assembled in `out`: a held `out` keeps its capacity, so a warm send
/// allocates nothing.
pub fn write_prefixed<W: Write + ?Sized>(stream: &mut W, out: &mut BytesMut, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(invalid_data(format!("frame of {} bytes exceeds the {MAX_FRAME_LEN} byte limit", payload.len())));
    }
    out.clear();
    out.put_u32(payload.len() as u32);
    out.put_slice(payload);
    stream.write_all(out)?;
    stream.flush()
}

/// Reads one length prefix and the payload it announces, never a byte
/// more: what a connection that holds no buffer between frames can do.
fn read_prefixed<R: Read + ?Sized>(stream: &mut R) -> std::io::Result<Vec<u8>> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header)?;
    let mut payload = vec![0u8; frame_len(&header)?];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

/// Serializes `msg` and writes it as one length-prefixed frame.
pub fn write_frame<T: Serialize>(stream: &mut dyn Write, msg: &T) -> std::io::Result<()> {
    write_prefixed(stream, &mut BytesMut::new(), &to_json(msg)?)
}

/// Reads one length-prefixed frame and deserializes it.
pub fn read_frame<T: for<'de> Deserialize<'de>>(stream: &mut dyn Read) -> std::io::Result<T> {
    serde_json::from_slice(&read_prefixed(stream)?).map_err(invalid_data)
}

/// Reassembles length-prefixed frames from a byte stream in one buffer
/// held across frames. A `read` takes whatever the stream has ready, up
/// to the buffer's free space, so a reply normally costs one `read`;
/// bytes past a frame wait in the buffer for the next call. The buffer
/// grows to the largest frame seen and keeps that capacity.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
}

/// What a [`FrameReader`] asks a stream for at least: one `read` holds
/// any hot-verb reply and most control-plane ones.
const READ_CHUNK: usize = 4096;

impl FrameReader {
    /// The next whole frame already buffered, consumed: `Ok(None)` while
    /// it is incomplete, `InvalidData` on an oversized length prefix.
    pub fn take(&mut self) -> std::io::Result<Option<&[u8]>> {
        Ok(self.take_range()?.map(|frame| &self.buf[frame]))
    }

    fn take_range(&mut self) -> std::io::Result<Option<std::ops::Range<usize>>> {
        let pending = &self.buf[self.start..self.end];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = frame_len(&pending[..4])?;
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let frame = self.start + 4..self.start + 4 + len;
        self.start = frame.end;
        if self.start == self.end {
            // nothing left over: the next frame starts at the front
            (self.start, self.end) = (0, 0);
        }
        Ok(Some(frame))
    }

    /// One `read` from `stream` into the buffer, once
    /// [`FrameReader::take`] has answered `None`. A partial frame moves to
    /// the front first, and the buffer grows to hold the whole frame its
    /// prefix announces. `Ok(0)` is the peer's end of stream; a read
    /// timeout is the stream's error, with every buffered byte kept.
    pub fn fill<R: Read + ?Sized>(&mut self, stream: &mut R) -> std::io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        let whole = if self.end >= 4 { 4 + frame_len(&self.buf[..4])? } else { 4 };
        if self.buf.len() < whole.max(READ_CHUNK) {
            self.buf.resize(whole.max(READ_CHUNK), 0);
        }
        let n = stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The next frame, reading as often as it takes. The stream ending
    /// before the frame does is `UnexpectedEof`, never a short frame.
    pub fn next<R: Read + ?Sized>(&mut self, stream: &mut R) -> std::io::Result<&[u8]> {
        loop {
            if let Some(frame) = self.take_range()? {
                return Ok(&self.buf[frame]);
            }
            match self.fill(stream) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// A bidirectional *frame* pipe the client exchanges messages over.
///
/// The unit of transfer is a whole payload (`Vec<u8>`), not a byte
/// stream: transports that already move discrete messages — the
/// shared-memory ring in [`shm`], simulated channels — implement the
/// two methods directly and never see length prefixes, while anything
/// `Read + Write + Send` (e.g. `TcpStream`) gets them via the blanket
/// impl below, which speaks the classic 4-byte big-endian
/// length-prefixed framing on the stream.
pub trait Connection: Send {
    /// Sends one complete frame. Payloads above [`MAX_FRAME_LEN`] are
    /// rejected with `InvalidData` without transmitting anything.
    fn send_frame(&mut self, payload: &[u8]) -> std::io::Result<()>;

    /// Receives the next complete frame.
    fn recv_frame(&mut self) -> std::io::Result<Vec<u8>>;

    /// Bounds the next exchange's write and read by `timeout`, an
    /// attempt's share of its request's budget. The default keeps the
    /// bound the connection was dialed with.
    fn arm(&mut self, timeout: Duration) -> std::io::Result<()> {
        let _ = timeout;
        Ok(())
    }

    /// No longer consulted: the verb, not the connection, picks a
    /// frame's encoding (see [`wire`]). Kept, with its default, because
    /// `benchmark/src/layers.rs` forwards it from its connection
    /// decorator.
    fn fast_batch(&self) -> bool {
        false
    }
}

/// Byte streams frame themselves: 4-byte big-endian length prefix,
/// then the payload — the same bytes [`write_frame`] and [`read_frame`]
/// speak. Such a stream holds no buffer between frames; [`TcpTransport`]'s
/// connections do.
impl<T: Read + Write + Send> Connection for T {
    fn send_frame(&mut self, payload: &[u8]) -> std::io::Result<()> {
        write_prefixed(self, &mut BytesMut::new(), payload)
    }

    fn recv_frame(&mut self) -> std::io::Result<Vec<u8>> {
        read_prefixed(self)
    }
}

/// How the client reaches the daemon: dials connections and serves
/// every wait the client wants to perform. Production code uses
/// [`TcpTransport`] or [`ShmTransport`]; deterministic tests substitute
/// a channel whose `sleep` advances simulated time instead of blocking
/// the thread.
pub trait Transport: Send {
    /// Opens a fresh connection to the daemon.
    fn connect(&mut self) -> std::io::Result<Box<dyn Connection>>;

    /// [`Transport::connect`] within `timeout`; the default ignores it.
    fn connect_within(&mut self, timeout: Duration) -> std::io::Result<Box<dyn Connection>> {
        let _ = timeout;
        self.connect()
    }

    /// The clock request budgets run on, from a fixed origin: by default
    /// the monotonic wall clock.
    fn now(&self) -> Duration {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed()
    }

    /// Human-readable endpoint description for logs.
    fn describe(&self) -> String;

    /// Waits out a back-off interval. The default blocks the calling
    /// thread; virtual-time transports advance their clock instead.
    fn sleep(&mut self, d: Duration) {
        std::thread::sleep(d);
    }

    /// Whether this transport reaches a co-located daemon over a local
    /// fast path (shared memory). The client prefers local replicas
    /// over ring routing while they are healthy — the whole point of a
    /// local transport is that *every* key is cheapest there — and
    /// falls back to the ring (TCP) when the local peer dies.
    fn is_local(&self) -> bool {
        false
    }
}

/// The production transport: plain TCP with connect and I/O timeouts.
#[derive(Debug, Clone)]
pub struct TcpTransport {
    addr: String,
    connect_timeout: Duration,
    io_timeout: Duration,
}

impl TcpTransport {
    /// A transport dialing `addr` with the given timeouts. The I/O
    /// timeout applies to both reads and writes on the dialed stream.
    pub fn new(addr: impl Into<String>, connect_timeout: Duration, io_timeout: Duration) -> TcpTransport {
        TcpTransport { addr: addr.into(), connect_timeout, io_timeout }
    }
}

impl Transport for TcpTransport {
    fn connect(&mut self) -> std::io::Result<Box<dyn Connection>> {
        self.connect_within(self.connect_timeout)
    }

    fn connect_within(&mut self, timeout: Duration) -> std::io::Result<Box<dyn Connection>> {
        let mut last = std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no addresses resolved");
        for addr in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, timeout.min(self.connect_timeout)) {
                Ok(stream) => {
                    let mut conn =
                        TcpConnection { stream, armed_ms: 0, inbox: FrameReader::default(), out: BytesMut::new() };
                    conn.arm(self.io_timeout)?;
                    let _ = conn.stream.set_nodelay(true);
                    return Ok(Box::new(conn));
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn describe(&self) -> String {
        self.addr.clone()
    }
}

/// A TCP stream, its I/O timeout in whole ms, re-armed only when a
/// share differs (a warm exchange costs no `setsockopt`), and the two
/// buffers it frames through: a warm exchange is one `write` and
/// normally one `read`.
struct TcpConnection {
    stream: TcpStream,
    armed_ms: u64,
    inbox: FrameReader,
    out: BytesMut,
}

impl Connection for TcpConnection {
    fn send_frame(&mut self, payload: &[u8]) -> std::io::Result<()> {
        write_prefixed(&mut self.stream, &mut self.out, payload)
    }

    fn recv_frame(&mut self) -> std::io::Result<Vec<u8>> {
        self.inbox.next(&mut self.stream).map(<[u8]>::to_vec)
    }

    fn arm(&mut self, timeout: Duration) -> std::io::Result<()> {
        let ms = ceil_ms(timeout).max(1);
        if ms != self.armed_ms {
            let timeout = Some(Duration::from_millis(ms));
            self.stream.set_read_timeout(timeout)?;
            self.stream.set_write_timeout(timeout)?;
            self.armed_ms = ms;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Errors the client distinguishes so callers can pick a fallback.
#[derive(Debug)]
pub enum RemoteError {
    /// Could not reach the daemon at all.
    Connect(std::io::Error),
    /// The connection died mid-exchange (includes read timeouts).
    Io(std::io::Error),
    /// The peer sent something that is not the protocol.
    Protocol(String),
    /// The daemon stayed saturated through every retry.
    Busy { retry_after_ms: u64, attempts: u32 },
    /// The daemon gave up on the request's deadline budget.
    DeadlineExceeded,
    /// The daemon has no model for the key.
    Miss { system_hash: u64, binary_hash: u64 },
    /// The daemon reported an internal error.
    Server(String),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Connect(e) => write!(f, "connect failed: {e}"),
            RemoteError::Io(e) => write!(f, "connection error: {e}"),
            RemoteError::Protocol(m) => write!(f, "protocol violation: {m}"),
            RemoteError::Busy { retry_after_ms, attempts } => {
                write!(f, "daemon busy after {attempts} attempts (retry_after {retry_after_ms} ms)")
            }
            RemoteError::DeadlineExceeded => write!(f, "daemon exceeded the request deadline"),
            RemoteError::Miss { system_hash, binary_hash } => {
                write!(f, "no model resident for system {system_hash:#x} binary {binary_hash:#x}")
            }
            RemoteError::Server(m) => write!(f, "daemon error: {m}"),
        }
    }
}

impl std::error::Error for RemoteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RemoteError::Connect(e) | RemoteError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RemoteError> for ChronusError {
    fn from(e: RemoteError) -> ChronusError {
        match e {
            RemoteError::Miss { system_hash, binary_hash } => {
                ChronusError::NotFound(format!("remote model for system {system_hash:#x} binary {binary_hash:#x}"))
            }
            other => ChronusError::Model(format!("remote prediction failed: {other}")),
        }
    }
}

// ---------------------------------------------------------------------------
// PredictionSource
// ---------------------------------------------------------------------------

/// Where the eco plugin gets its predictions from: the in-process
/// staged-model path (the paper's §3.1.2 pre-load design) or a
/// chronusd daemon on the head node. The plugin treats any error as
/// "leave the job untouched", so a dead or slow source degrades to
/// vanilla Slurm behaviour.
pub trait PredictionSource: Send + Sync {
    /// The best configuration for a (system, binary), or an error when
    /// no answer is available inside the budget.
    fn predict(&self, system_hash: u64, binary_hash: u64) -> Result<CpuConfig>;

    /// [`PredictionSource::predict`] joined to a caller's trace. The
    /// default drops the context — right for purely local sources; the
    /// remote source overrides it to propagate the context on the wire.
    fn predict_traced(&self, system_hash: u64, binary_hash: u64, ctx: Option<TraceContext>) -> Result<CpuConfig> {
        let _ = ctx;
        self.predict(system_hash, binary_hash)
    }

    /// Predicts a whole set of keys, one result per key in order. The
    /// default answers them one at a time; sources with a batched fast
    /// path ([`RemotePrediction`] over the daemon's `PredictMany`
    /// frame) override it to amortize round trips.
    fn predict_many(&self, keys: &[(u64, u64)]) -> Vec<Result<CpuConfig>> {
        keys.iter().map(|&(s, b)| self.predict(s, b)).collect()
    }

    /// Reports what a served prediction actually did in production
    /// (the adaptation loop's outcome feed). Returns `Ok(true)` when
    /// the daemon accepted the observation, `Ok(false)` when it did not
    /// or the source has nowhere to report to (local sources) — the
    /// plugin treats both as success because outcome loss must never
    /// perturb the submit path.
    fn report_outcome(&self, system_hash: u64, binary_hash: u64, outcome: &ObservedOutcome) -> Result<bool> {
        let _ = (system_hash, binary_hash, outcome);
        Ok(false)
    }

    /// Human-readable description for logs.
    fn describe(&self) -> String;
}

/// The in-process source: loads settings from local storage and runs
/// the staged optimizer, exactly like the CLI's `slurm-config` — once.
/// It then holds the *answer* beside what it was derived from — the
/// staged-model entry of `settings.json` and the model file's stamp
/// (length, mtime, inode, ctime) — and repeats it for as long as both
/// read the same; a `chronus load-model`, a model file that was
/// replaced, removed or touched, or another key goes back through
/// [`predict_from_settings`]. Errors are never held.
pub struct LocalPrediction {
    storage: Arc<dyn LocalStorage + Send + Sync>,
    held: parking_lot::Mutex<Option<(LoadedModel, FileStamp, CpuConfig)>>,
}

impl LocalPrediction {
    pub fn new(storage: Arc<dyn LocalStorage + Send + Sync>) -> LocalPrediction {
        LocalPrediction { storage, held: parking_lot::Mutex::new(None) }
    }
}

impl PredictionSource for LocalPrediction {
    fn predict(&self, system_hash: u64, binary_hash: u64) -> Result<CpuConfig> {
        let settings = self.storage.load_settings()?;
        // the staged model, if it is the one this key asks for, and the
        // stamp its file carries now — taken before anything reads the
        // file, so a held answer is never older than its stamp
        let staged = settings
            .loaded_model
            .as_ref()
            .filter(|m| (m.system_hash, m.binary_hash) == (system_hash, binary_hash))
            .and_then(|m| Some((m, FileStamp::of(Path::new(&m.local_path)).ok()?)));
        let mut held = self.held.lock();
        if let (Some((model, stamp)), Some((held_model, held_stamp, config))) = (&staged, &*held) {
            if *model == held_model && stamp == held_stamp {
                return Ok(*config);
            }
        }
        let config = predict_from_settings(&settings, system_hash, binary_hash)?;
        *held = staged.map(|(model, stamp)| (model.clone(), stamp, config));
        Ok(config)
    }

    fn describe(&self) -> String {
        "local staged model".to_string()
    }
}

/// The daemon-backed source. Wraps the client in a mutex because the
/// plugin is shared behind an `Arc` while the client's persistent
/// connection needs `&mut`. Submissions arrive one at a time (the
/// scheduler calls job-submit plugins under its own lock), so the lock
/// is uncontended on the submit path; callers that do share a source
/// across threads are serialised, each with its own round trip, trace
/// context and error.
pub struct RemotePrediction {
    client: parking_lot::Mutex<PredictClient>,
}

impl RemotePrediction {
    /// A remote source from a comma-separated endpoint list — the shape
    /// plugin configuration carries (`shm:///run/chronusd.shm,head:4517`).
    /// Each entry is an [`Endpoint`]; when a `shm://` ring of a same-host
    /// daemon is listed, the client prefers it and keeps the TCP entries
    /// as failover, so the submit path rides shared memory while the
    /// daemon is up and degrades to the network when it is not.
    /// Every request gets [`SUBMIT_BUDGET`].
    pub fn from_endpoints(addrs: &str) -> std::result::Result<RemotePrediction, client::ClientBuildError> {
        let endpoints = addrs.split(',').map(str::trim).filter(|a| !a.is_empty());
        let client = PredictClient::builder().budget(SUBMIT_BUDGET).endpoints(endpoints).build()?;
        Ok(RemotePrediction::from_client(client))
    }

    /// A remote source wrapping an already-built client — the path for
    /// custom knobs and for fleet-mode (multi-replica) clients; see
    /// [`PredictClient::builder`].
    pub fn from_client(client: PredictClient) -> RemotePrediction {
        RemotePrediction { client: parking_lot::Mutex::new(client) }
    }

    /// Attaches telemetry to the wrapped client (see
    /// [`PredictClient::set_telemetry`]).
    pub fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        self.client.lock().set_telemetry(telemetry);
    }
}

impl PredictionSource for RemotePrediction {
    fn predict(&self, system_hash: u64, binary_hash: u64) -> Result<CpuConfig> {
        self.predict_traced(system_hash, binary_hash, None)
    }

    fn predict_traced(&self, system_hash: u64, binary_hash: u64, ctx: Option<TraceContext>) -> Result<CpuConfig> {
        let mut client = self.client.lock();
        client.predict(system_hash, binary_hash, &CallOptions::traced(ctx)).map_err(ChronusError::from)
    }

    fn predict_many(&self, keys: &[(u64, u64)]) -> Vec<Result<CpuConfig>> {
        let mut client = self.client.lock();
        client
            .predict_many(keys, &CallOptions::default())
            .into_iter()
            .map(|r| r.map_err(ChronusError::from))
            .collect()
    }

    fn report_outcome(&self, system_hash: u64, binary_hash: u64, outcome: &ObservedOutcome) -> Result<bool> {
        let mut client = self.client.lock();
        client.report_outcome(system_hash, binary_hash, outcome).map_err(ChronusError::from)
    }

    fn describe(&self) -> String {
        format!("chronusd at {}", self.client.lock().endpoints().join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let frame = RequestFrame::with_deadline(Request::Predict { system_hash: u64::MAX, binary_hash: 7 }, 80);
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        assert_eq!(wire.len(), 4 + u32::from_be_bytes(wire[..4].try_into().unwrap()) as usize);
        let back: RequestFrame = read_frame(&mut &wire[..]).unwrap();
        assert_eq!(back, frame);
    }

    /// A stream end that counts the `read` calls made on it.
    struct Counted<R> {
        inner: R,
        reads: usize,
    }

    impl<R: Read> Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.inner.read(buf)
        }
    }

    /// A connected socket pair: the far end writes, the counted near end
    /// is read through a [`FrameReader`].
    fn socket_pair() -> (std::os::unix::net::UnixStream, Counted<std::os::unix::net::UnixStream>) {
        let (far, near) = std::os::unix::net::UnixStream::pair().unwrap();
        near.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        (far, Counted { inner: near, reads: 0 })
    }

    fn framed(msg: &Response) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, msg).unwrap();
        wire
    }

    fn decoded(frame: &[u8]) -> Response {
        serde_json::from_slice(frame).unwrap()
    }

    #[test]
    fn a_frame_split_across_reads_is_reassembled() {
        let (mut far, mut near) = socket_pair();
        let wire = framed(&Response::Busy { retry_after_ms: 5 });
        let mut reader = FrameReader::default();
        far.write_all(&wire[..3]).unwrap();
        assert_eq!(reader.fill(&mut near).unwrap(), 3);
        assert!(reader.take().unwrap().is_none(), "3 bytes is not even a header");
        far.write_all(&wire[3..6]).unwrap();
        reader.fill(&mut near).unwrap();
        assert!(reader.take().unwrap().is_none(), "a header and two payload bytes are not a frame");
        far.write_all(&wire[6..]).unwrap();
        assert_eq!(decoded(reader.next(&mut near).unwrap()), Response::Busy { retry_after_ms: 5 });
        assert_eq!(near.reads, 3);
    }

    #[test]
    fn two_frames_in_one_read_answer_two_calls() {
        let (mut far, mut near) = socket_pair();
        let mut wire = framed(&Response::Pong);
        wire.extend(framed(&Response::Busy { retry_after_ms: 5 }));
        far.write_all(&wire).unwrap();
        let mut reader = FrameReader::default();
        assert_eq!(decoded(reader.next(&mut near).unwrap()), Response::Pong);
        assert_eq!(near.reads, 1, "one read carries both frames");
        assert_eq!(decoded(reader.next(&mut near).unwrap()), Response::Busy { retry_after_ms: 5 });
        assert_eq!(near.reads, 1, "the second frame waited in the buffer");
        // the buffer, emptied, keeps its capacity for the next reply
        let held = reader.buf.capacity();
        far.write_all(&framed(&Response::Pong)).unwrap();
        assert_eq!(decoded(reader.next(&mut near).unwrap()), Response::Pong);
        assert_eq!((near.reads, reader.buf.capacity()), (2, held));
    }

    #[test]
    fn a_stream_cut_mid_frame_is_an_error_never_a_frame() {
        let (mut far, mut near) = socket_pair();
        let wire = framed(&Response::Busy { retry_after_ms: 5 });
        far.write_all(&wire[..wire.len() - 1]).unwrap();
        drop(far);
        let cut = FrameReader::default().next(&mut near).unwrap_err();
        assert_eq!(cut.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn an_oversized_prefix_is_invalid_data() {
        let (mut far, mut near) = socket_pair();
        far.write_all(&((MAX_FRAME_LEN + 1) as u32).to_be_bytes()).unwrap();
        let mut reader = FrameReader::default();
        let err = reader.next(&mut near).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(reader.buf.len() <= READ_CHUNK, "nothing was allocated for the announced frame");
    }

    /// What a client's byte stream does when the peer dies mid-frame:
    /// the blanket `Connection` impl reports the stream's end or its
    /// reset, and never hands back the frame's first half.
    #[test]
    fn a_byte_stream_cut_mid_frame_is_an_error_never_a_frame() {
        /// Yields its bytes, then fails the way a reset socket does.
        struct Reset(std::io::Cursor<Vec<u8>>);
        impl Read for Reset {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.0.read(buf)? {
                    0 => Err(std::io::ErrorKind::ConnectionReset.into()),
                    n => Ok(n),
                }
            }
        }
        impl Write for Reset {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut stream = Vec::new();
        write_frame(&mut stream, &Response::Busy { retry_after_ms: 5 }).unwrap();
        let half = stream[..4 + (stream.len() - 4) / 2].to_vec();
        let whole = std::io::Cursor::new(stream).recv_frame().unwrap();
        assert_eq!(serde_json::from_slice::<Response>(&whole).unwrap(), Response::Busy { retry_after_ms: 5 });

        let eof = std::io::Cursor::new(half.clone()).recv_frame().unwrap_err();
        assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);
        let reset = Reset(std::io::Cursor::new(half)).recv_frame().unwrap_err();
        assert_eq!(reset.kind(), std::io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut wire: &[u8] = &(((MAX_FRAME_LEN + 1) as u32).to_be_bytes());
        assert!(read_frame::<Response>(&mut wire).is_err());
    }

    #[test]
    fn response_json_shape_is_stable() {
        let json = serde_json::to_string(&Response::Config(CpuConfig::new(32, 2_200_000, 1))).unwrap();
        // the paper's JSON field name for the DVFS knob is "frequency"
        assert!(json.contains("\"Config\""), "{json}");
        assert!(json.contains("\"frequency\":2200000"), "{json}");
        assert_eq!(serde_json::to_string(&Response::Pong).unwrap(), "\"Pong\"");
    }

    #[test]
    fn batched_frames_round_trip_through_a_buffer() {
        let frame = RequestFrame::new(Request::PredictMany { keys: vec![(1, 2), (u64::MAX, 0)] }).with_corr(42);
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let back: RequestFrame = read_frame(&mut &wire[..]).unwrap();
        assert_eq!(back, frame);

        let reply = ResponseFrame {
            corr: 42,
            body: Response::ManyConfigs {
                results: vec![
                    KeyOutcome::Config(CpuConfig::new(32, 2_200_000, 1)),
                    KeyOutcome::Miss,
                    KeyOutcome::Error { message: "backend exploded".into() },
                ],
            },
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &reply).unwrap();
        let back: ResponseFrame = read_frame(&mut &wire[..]).unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn envelope_and_bare_responses_cannot_be_confused() {
        // a bare Response never parses as an envelope...
        for bare in [Response::Pong, Response::Busy { retry_after_ms: 5 }] {
            let json = serde_json::to_vec(&bare).unwrap();
            assert!(serde_json::from_slice::<ResponseFrame>(&json).is_err(), "bare {bare:?} parsed as envelope");
        }
        // ...and an envelope never parses as a bare Response
        let envelope = ResponseFrame { corr: 7, body: Response::Pong };
        let json = serde_json::to_vec(&envelope).unwrap();
        assert!(serde_json::from_slice::<Response>(&json).is_err(), "envelope parsed as bare Response");
    }

    #[test]
    fn corr_field_is_additive_on_the_wire() {
        // an untagged frame carries an explicit null, exactly like the
        // `trace` header
        let frame = RequestFrame::new(Request::Ping);
        let json = serde_json::to_string(&frame).unwrap();
        assert!(json.contains("\"corr\":null"), "{json}");
        // a frame with no corr key at all parses as untagged too
        let corrd = serde_json::to_string(&frame.clone().with_corr(9)).unwrap();
        let stripped = corrd.replace("\"corr\":9,", "").replace(",\"corr\":9", "");
        assert_ne!(corrd, stripped);
        assert_eq!(serde_json::from_str::<RequestFrame>(&stripped).unwrap(), frame);
        // and a null corr parses the same as an absent one
        let nulled = corrd.replace("\"corr\":9", "\"corr\":null");
        assert_eq!(serde_json::from_str::<RequestFrame>(&nulled).unwrap(), frame);
    }

    /// An in-memory daemon, both ends of its connections: keeps every
    /// request frame it is sent, and whether it came binary, and answers
    /// `Predict` with one config in kind.
    #[derive(Clone, Default)]
    struct Recording {
        sent: Arc<parking_lot::Mutex<Vec<(bool, RequestFrame)>>>,
        inbox: std::collections::VecDeque<Vec<u8>>,
    }

    impl Transport for Recording {
        fn connect(&mut self) -> std::io::Result<Box<dyn Connection>> {
            Ok(Box::new(self.clone()))
        }

        fn describe(&self) -> String {
            "recording".to_string()
        }
    }

    impl Connection for Recording {
        fn send_frame(&mut self, payload: &[u8]) -> std::io::Result<()> {
            let (binary, frame) = wire::decode_request(payload);
            let frame = frame.expect("the client writes well-formed frames");
            let reply = Response::Config(CpuConfig::new(32, 2_200_000, 1));
            self.inbox.push_back(wire::encode_reply(binary, frame.corr, reply));
            self.sent.lock().push((binary, frame));
            Ok(())
        }

        fn recv_frame(&mut self) -> std::io::Result<Vec<u8>> {
            self.inbox.pop_front().ok_or_else(|| std::io::ErrorKind::TimedOut.into())
        }
    }

    #[test]
    fn each_traced_predict_is_one_tagged_binary_frame_under_its_own_trace() {
        let daemon = Recording::default();
        let sent = Arc::clone(&daemon.sent);
        let client = PredictClient::builder().transport(Box::new(daemon)).build().unwrap();
        let source = RemotePrediction::from_client(client);
        let telemetry = Arc::new(Telemetry::wall());
        source.set_telemetry(Arc::clone(&telemetry));
        let requests = telemetry.counter("client.requests");

        let callers =
            [telemetry.root_span("test", "first").context(), telemetry.root_span("test", "second").context()];
        assert_ne!(callers[0].trace, callers[1].trace);
        for (i, ctx) in callers.into_iter().enumerate() {
            let cfg = source.predict_traced(7, 1 + i as u64, Some(ctx)).unwrap();
            assert_eq!(cfg, CpuConfig::new(32, 2_200_000, 1));
            assert_eq!(requests.get(), 1 + i as u64, "one request per submission");
        }

        let sent = sent.lock();
        assert_eq!(sent.len(), 2, "one frame per submission: {sent:?}");
        for (i, ((binary, frame), ctx)) in sent.iter().zip(callers).enumerate() {
            assert_eq!(frame.body, Request::Predict { system_hash: 7, binary_hash: 1 + i as u64 });
            assert!(binary, "a single travels in the binary layout");
            assert_eq!(frame.corr, Some(1 + i as u64), "every frame carries a fresh tag");
            // the header is the `client/attempt` span opened under the
            // caller's context: same trace, a child span
            let header = frame.trace.expect("a traced call stamps its frame");
            assert_eq!(header.trace, ctx.trace, "frame {i} rides another caller's trace");
            let attempt = telemetry.recorder().trace_events(ctx.trace).into_iter().find(|e| e.span == header.span.0);
            let attempt = attempt.expect("the header names a recorded span");
            assert_eq!((&*attempt.layer, &*attempt.name), ("client", "attempt"));
            assert_eq!(attempt.parent, Some(ctx.span.0));
        }
        assert_eq!(telemetry.histogram("client.batch_keys").count(), 0, "a single is not a batch");
    }

    #[test]
    fn remote_errors_map_into_chronus_errors() {
        let miss: ChronusError = RemoteError::Miss { system_hash: 1, binary_hash: 2 }.into();
        assert!(matches!(miss, ChronusError::NotFound(_)));
        let busy: ChronusError = RemoteError::Busy { retry_after_ms: 5, attempts: 3 }.into();
        assert!(matches!(busy, ChronusError::Model(_)));
    }
}
