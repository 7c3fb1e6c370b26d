//! The daemon's network engine: one accept thread feeding a fixed
//! worker pool through a bounded connection queue.
//!
//! Back-pressure is explicit: when the queue is full the accept thread
//! answers `Busy { retry_after_ms }` on the new connection and closes
//! it, instead of letting latency pile up invisibly. Workers own a
//! connection for its lifetime and answer any number of pipelined
//! requests on it; the request semantics themselves (deadline budgets,
//! miss/error classification, counters) live in the transport-free
//! [`crate::service::PredictService`], which this module only carries
//! frames to and from.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use chronus::remote::{
    wire, write_prefixed, Connection, FrameReader, Response, SessionEnd, ShmListener, StatsSnapshot,
};
use chronus::telemetry::Histogram;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};

use eco_store::ModelStore;
use parking_lot::Mutex;

use crate::backend::{ModelBackend, StoreModelBackend};
use crate::registry::ModelRegistry;
use crate::service::{PredictService, QueueGauges, StoreCatchUp, WallClock};

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (each owns one connection at a time).
    pub workers: usize,
    /// Connections that may wait between accept and a worker.
    pub queue_cap: usize,
    /// Registry capacity: resident models in total.
    pub cache_cap: usize,
    /// This daemon's fleet identity, stamped on `Stats` answers
    /// (empty = unnamed single daemon).
    pub replica_id: String,
    /// Durable model store directory, the model source of every `chronus
    /// serve`: opened at boot and every serving model re-installed — blob
    /// hash-verified first — before the listener accepts a connection,
    /// so a restarted replica is warm with zero Preload traffic; then
    /// every `Preload` and registry miss resolves from it the same way.
    /// The daemon only *reads* it; `load-model`, the campaign and `chronus
    /// models` write it. `None` serves `start`'s backend (tests, benches).
    pub store_dir: Option<String>,
    /// When set, the daemon also listens on a shared-memory ring at
    /// this filesystem path (dialed as `shm://<path>`) for same-host
    /// clients. One client session at a time.
    pub shm_path: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:4517".to_string(),
            workers: 4,
            queue_cap: 64,
            cache_cap: 64,
            replica_id: String::new(),
            store_dir: None,
            shm_path: None,
        }
    }
}

/// Idle tick on worker connections: how often a blocked read wakes up
/// to check for shutdown.
const READ_TICK: Duration = Duration::from_millis(25);

/// The hint sent with `Busy` rejections, in milliseconds.
pub const RETRY_AFTER_MS: u64 = 20;

struct Ctx {
    service: PredictService,
    queue_cap: usize,
    workers: usize,
    /// Accept-to-worker wait, resolved once from the service telemetry
    /// so workers bump bare atomics per dequeue.
    queue_wait: Histogram,
}

impl Ctx {
    fn gauges(&self, queue_depth: usize) -> QueueGauges {
        QueueGauges { depth: queue_depth as u64, capacity: self.queue_cap as u64, workers: self.workers as u64 }
    }
}

/// Everything the daemon recovered at boot, before the listener
/// accepted a single connection.
#[derive(Debug, Default)]
pub struct BootRecovery {
    /// Store catch-up outcome (all-zero when `store_dir` is unset).
    pub store: StoreCatchUp,
}

/// A running chronusd instance. Dropping it shuts the daemon down and
/// joins every thread.
pub struct PredictServer {
    addr: SocketAddr,
    shm_path: Option<String>,
    ctx: Arc<Ctx>,
    boot: BootRecovery,
    tx: Option<Sender<(Instant, TcpStream)>>,
    accept: Option<JoinHandle<()>>,
    shm: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl PredictServer {
    /// Binds, spawns the worker pool and the accept thread, and
    /// returns immediately.
    ///
    /// With [`ServerConfig::store_dir`] set, as in every production
    /// daemon, the store is the source and `backend` is never consulted:
    /// the store is opened once, caught up from before the address is
    /// reachable, and the same handle then answers every `Preload` and
    /// miss through [`StoreModelBackend`]. An unopenable store is a hard
    /// error (better dead than silently cold). Without one, `backend` (a
    /// test's or a benchmark's fixed set) is the source.
    pub fn start(cfg: ServerConfig, backend: Arc<dyn ModelBackend>) -> std::io::Result<PredictServer> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| std::io::Error::new(e.kind(), format!("cannot bind {}: {e}", cfg.addr)))?;
        let addr = listener.local_addr()?;
        let workers_n = cfg.workers.max(1);
        let serve_from = |source| {
            PredictService::with_clock(cfg.cache_cap, source, Arc::new(WallClock::new()))
                .with_replica(&cfg.replica_id)
        };
        let service = match &cfg.store_dir {
            Some(dir) => {
                let store = ModelStore::open_dir(dir).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("model store at {dir}: {e}"))
                })?;
                serve_from(Arc::new(StoreModelBackend::new(Arc::new(Mutex::new(store)), dir)))
            }
            None => serve_from(backend),
        };
        let boot = BootRecovery { store: service.catch_up_from_store() };
        let queue_wait = service.telemetry().histogram("daemon.queue_wait_us");
        let ctx = Arc::new(Ctx { service, queue_cap: cfg.queue_cap.max(1), workers: workers_n, queue_wait });
        let (tx, rx) = bounded::<(Instant, TcpStream)>(cfg.queue_cap.max(1));

        let mut workers = Vec::with_capacity(workers_n);
        for i in 0..workers_n {
            let rx = rx.clone();
            let ctx = Arc::clone(&ctx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("chronusd-worker-{i}"))
                    .spawn(move || worker_loop(rx, ctx))?,
            );
        }
        drop(rx);

        let accept = {
            let tx = tx.clone();
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("chronusd-accept".to_string())
                .spawn(move || accept_loop(listener, tx, ctx))?
        };

        let shm = match &cfg.shm_path {
            Some(path) => {
                let ring = ShmListener::create(path)
                    .map_err(|e| std::io::Error::new(e.kind(), format!("cannot create shm ring {path}: {e}")))?;
                let ctx = Arc::clone(&ctx);
                Some(
                    std::thread::Builder::new()
                        .name("chronusd-shm".to_string())
                        .spawn(move || shm_loop(ring, ctx))?,
                )
            }
            None => None,
        };

        Ok(PredictServer {
            addr,
            shm_path: cfg.shm_path.clone(),
            ctx,
            boot,
            tx: Some(tx),
            accept: Some(accept),
            shm,
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared-memory ring path, when the daemon is serving one
    /// (dial it as `shm://<path>`).
    pub fn shm_path(&self) -> Option<&str> {
        self.shm_path.as_deref()
    }

    /// What boot-time recovery installed (the store catch-up).
    pub fn boot_recovery(&self) -> &BootRecovery {
        &self.boot
    }

    /// A counters snapshot taken in-process (no RPC round trip).
    pub fn snapshot(&self) -> StatsSnapshot {
        let depth = self.tx.as_ref().map(|t| t.len()).unwrap_or(0);
        self.ctx.service.snapshot(self.ctx.gauges(depth))
    }

    /// Direct registry access for tests and the CLI's preload-at-boot.
    pub fn registry(&self) -> &ModelRegistry {
        self.ctx.service.registry()
    }

    fn shutdown_impl(&mut self) {
        self.ctx.service.begin_shutdown();
        // Unblock the accept loop with a throwaway connection; it
        // checks the flag before doing anything with it.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // With the accept loop gone, dropping our sender disconnects
        // the channel and the workers drain out.
        self.tx = None;
        if let Some(handle) = self.shm.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Stops the daemon and joins all threads.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }
}

impl Drop for PredictServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn accept_loop(listener: TcpListener, tx: Sender<(Instant, TcpStream)>, ctx: Arc<Ctx>) {
    for conn in listener.incoming() {
        if ctx.service.is_shutting_down() {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        match tx.try_send((Instant::now(), stream)) {
            Ok(()) => {}
            Err(TrySendError::Full((_, mut stream))) => {
                ctx.service.stats().busy_rejections.bump();
                let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
                // bare: the bounce never reads the request, so it has no
                // tag to echo; dropping the stream then closes the connection
                let bounce = Response::Busy { retry_after_ms: RETRY_AFTER_MS };
                let _ = stream.send_frame(&wire::encode_reply(false, None, bounce));
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

fn worker_loop(rx: Receiver<(Instant, TcpStream)>, ctx: Arc<Ctx>) {
    while let Ok((queued_at, stream)) = rx.recv() {
        if ctx.service.is_shutting_down() {
            break;
        }
        ctx.queue_wait.record_us(queued_at.elapsed().as_micros() as u64);
        serve_connection(stream, &ctx, &rx);
    }
}

/// Serves every request on one connection until the peer hangs up, a
/// protocol violation occurs, or the daemon shuts down. Requests are
/// framed out of one held buffer and replies written from another, so a
/// warm request costs one `read` and one `write` and allocates only its
/// reply.
fn serve_connection(mut stream: TcpStream, ctx: &Ctx, rx: &Receiver<(Instant, TcpStream)>) {
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut inbox = FrameReader::default();
    let mut out = BytesMut::new();
    loop {
        loop {
            let reply = match inbox.take() {
                Ok(Some(payload)) => ctx.service.answer(payload, ctx.gauges(rx.len())),
                Ok(None) => break,
                // oversized length prefix: unrecoverable framing state
                Err(_) => return,
            };
            if write_prefixed(&mut stream, &mut out, &reply).is_err() {
                return;
            }
        }
        match inbox.fill(&mut stream) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {
                if ctx.service.is_shutting_down() {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// The shared-memory listener thread: serves one same-host client
/// session at a time until shutdown. Frames on the ring carry no
/// length prefix (the slot header owns framing), so a reply is the
/// payload [`PredictService::answer`] returns and nothing else.
fn shm_loop(ring: ShmListener, ctx: Arc<Ctx>) {
    let mut should_stop = || ctx.service.is_shutting_down();
    let mut handle = |payload: &[u8]| ctx.service.answer(payload, ctx.gauges(0));
    loop {
        match ring.serve_session(&mut should_stop, &mut handle) {
            Ok(SessionEnd::Stopped) | Err(_) => return,
            Ok(SessionEnd::ClientGone) => {}
        }
    }
}
