//! The shared-memory local transport: one mailbox per direction in a
//! memory-mapped file, for clients co-located with the daemon (the eco
//! plugin on the head node).
//!
//! ## File layout
//!
//! One 4 KiB header page, then two mailboxes: client→daemon (`c2s`)
//! and daemon→client (`s2c`). A mailbox is a 64-byte slot header
//! (`seq`, `len`, `check`, then the doorbell and waiter words) and
//! [`MAX_FRAME_LEN`] payload bytes, so the ring refuses exactly the
//! frames TCP refuses: `InvalidData`, before anything is written. The
//! file is ≈ 2.1 MB, sparse until written.
//!
//! ## Mailbox protocol
//!
//! The client has at most one request in flight: it writes request
//! `n + 1` only after reading reply `n`, and the daemon writes reply `n`
//! only after consuming request `n`. So one slot per direction holds
//! every state a session can reach, and its `seq` word alternates.
//! Before message `n` of a session it holds `2n` (empty); the writer
//! requires exactly that, fills the payload, publishes `len` and
//! `check = slot_check(2n + 1, len)`, then stores `seq = 2n + 1`; the
//! reader waits until `seq` leaves `2n`, validates the header with
//! [`validate_slot`] against `2n + 1`, copies the payload out and
//! `Release`-stores `2n + 2`. A writer that finds its mailbox full is
//! talking to a broken peer, never a slow one, so it does not wait: the
//! client's `send_frame` errors at once (and the client drops the
//! connection), and the daemon ends the session.
//!
//! The reader's wait is spin-then-park: a bounded `spin_loop` burst
//! for the warm path (a co-located daemon answers in microseconds),
//! then a futex wait on the mailbox's doorbell word in short ticks,
//! re-checking peer liveness and the I/O deadline between ticks. The
//! writer bumps the doorbell after every publish and issues a
//! `FUTEX_WAKE` only when the waiter count says someone is parked.
//!
//! ## Sessions and liveness
//!
//! The header stamps the daemon's pid and a boot epoch, and carries a
//! one-seat session word: a client claims the seat by CAS-ing
//! `IDLE → CLAIM`, writes its pid, and publishes `ACTIVE`; dropping
//! the connection publishes `DONE`. Resets are solely the daemon's
//! job — it re-arms both mailboxes and only then stores `IDLE`, so a
//! new session never reads a predecessor's frames. The daemon detects
//! a dead client with `kill(pid, 0)`; the client detects a dead daemon
//! the same way (plus the epoch stamp) and surfaces `ConnectionReset`,
//! which sends the client's failover loop to the next endpoint — TCP, if
//! the operator configured the recommended `shm://…,tcp://…` pair. A
//! restarting daemon recreates the file via temp+rename, so stale
//! client mappings keep pointing at the orphaned inode and fail fast
//! instead of corrupting the new one.

mod sys;

use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use super::{Connection, Transport, MAX_FRAME_LEN};

const MAGIC: u64 = 0x4348_524F_4E53_484D; // "CHRONSHM"
/// The layout's version: a peer built against another layout reads
/// "not a chronusd shm ring file" and fails over to TCP.
const VERSION: u32 = 2;

const HEADER_LEN: usize = 4096;
const SLOT_HDR_LEN: usize = 64;
/// One mailbox: its slot header, then room for the largest frame.
const MAILBOX_LEN: usize = SLOT_HDR_LEN + MAX_FRAME_LEN;
/// The whole file: the header page and the two mailboxes.
const FILE_LEN: usize = HEADER_LEN + 2 * MAILBOX_LEN;

// Header field offsets.
const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 8;
const OFF_STATE: usize = 20;
const OFF_EPOCH: usize = 24;
const OFF_DAEMON_PID: usize = 32;
const OFF_CLIENT_PID: usize = 36;
// Slot-header field offsets, from the start of a mailbox.
const SLOT_SEQ: usize = 0;
const SLOT_LEN: usize = 8;
const SLOT_CHECK: usize = 12;
const SLOT_DOORBELL: usize = 16;
const SLOT_WAITERS: usize = 20;

// Session seat states.
const IDLE: u32 = 0;
const CLAIM: u32 = 1;
const ACTIVE: u32 = 2;
const DONE: u32 = 3;

/// Spin budget before parking on the doorbell futex. Sized so a
/// co-located daemon's typical turnaround lands inside the burst.
const SPIN: u32 = 5000;

/// Futex park tick: between ticks the waiter re-checks peer liveness,
/// session state and its I/O deadline.
const PARK_TICK: Duration = Duration::from_millis(5);

// ---------------------------------------------------------------------------
// Slot-header codec (pure — the proptest surface)
// ---------------------------------------------------------------------------

/// The integrity word stored beside a slot's payload length. Mixing
/// the publishing sequence number in means a stale header from an
/// earlier message — or any torn combination of old and new words —
/// fails validation instead of yielding a phantom frame.
pub fn slot_check(seq: u64, len: u32) -> u32 {
    (seq as u32) ^ ((seq >> 32) as u32) ^ len.rotate_left(16) ^ 0x9E37_79B9
}

/// Validates a slot header as the reader expecting `expect_seq` sees
/// it: the sequence must match exactly, the length must fit the slot,
/// and the check word must agree. Returns the payload length, or `None`
/// for anything torn, stale, or corrupt.
pub fn validate_slot(expect_seq: u64, seq: u64, len: u32, check: u32, max_len: u32) -> Option<u32> {
    (seq == expect_seq && len <= max_len && check == slot_check(seq, len)).then_some(len)
}

/// Encodes the 16 meaningful bytes of a slot header as they live in
/// the file: `seq u64 | len u32 | check u32`, little-endian.
pub fn encode_slot_header(seq: u64, len: u32) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&seq.to_le_bytes());
    out[8..12].copy_from_slice(&len.to_le_bytes());
    out[12..].copy_from_slice(&slot_check(seq, len).to_le_bytes());
    out
}

/// Decodes and validates a raw slot header (see [`validate_slot`]).
pub fn decode_slot_header(raw: &[u8; 16], expect_seq: u64, max_len: u32) -> Option<u32> {
    let seq = u64::from_le_bytes(raw[..8].try_into().unwrap());
    let len = u32::from_le_bytes(raw[8..12].try_into().unwrap());
    let check = u32::from_le_bytes(raw[12..].try_into().unwrap());
    validate_slot(expect_seq, seq, len, check, max_len)
}

// ---------------------------------------------------------------------------
// Mapping
// ---------------------------------------------------------------------------

fn io_err(kind: std::io::ErrorKind, msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(kind, msg.into())
}

/// An mmap-ed ring file. All access goes through atomics or
/// `copy_nonoverlapping` on offsets this module computes, so the raw
/// pointer is never handed out.
struct ShmMap {
    ptr: *mut u8,
    len: usize,
    _file: File,
}

// The mapping is plain shared memory addressed through atomics; the
// struct itself is just a pointer + length.
unsafe impl Send for ShmMap {}
unsafe impl Sync for ShmMap {}

impl Drop for ShmMap {
    fn drop(&mut self) {
        unsafe { sys::unmap(self.ptr, self.len) };
    }
}

impl ShmMap {
    fn map(file: File, len: usize) -> std::io::Result<ShmMap> {
        use std::os::unix::io::AsRawFd;
        let ptr = sys::map_shared(file.as_raw_fd(), len)?;
        Ok(ShmMap { ptr, len, _file: file })
    }

    fn atomic_u32(&self, off: usize) -> &AtomicU32 {
        debug_assert!(off + 4 <= self.len && off.is_multiple_of(4));
        unsafe { &*(self.ptr.add(off) as *const AtomicU32) }
    }

    fn atomic_u64(&self, off: usize) -> &AtomicU64 {
        debug_assert!(off + 8 <= self.len && off.is_multiple_of(8));
        unsafe { &*(self.ptr.add(off) as *const AtomicU64) }
    }

    fn write_bytes(&self, off: usize, src: &[u8]) {
        debug_assert!(off + src.len() <= self.len);
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(off), src.len()) };
    }

    fn read_bytes(&self, off: usize, dst: &mut [u8]) {
        debug_assert!(off + dst.len() <= self.len);
        unsafe { std::ptr::copy_nonoverlapping(self.ptr.add(off), dst.as_mut_ptr(), dst.len()) };
    }

    fn daemon_pid(&self) -> u32 {
        self.atomic_u32(OFF_DAEMON_PID).load(Ordering::Relaxed)
    }

    fn epoch(&self) -> u64 {
        self.atomic_u64(OFF_EPOCH).load(Ordering::Relaxed)
    }

    fn state(&self) -> &AtomicU32 {
        self.atomic_u32(OFF_STATE)
    }
}

// ---------------------------------------------------------------------------
// Mailboxes
// ---------------------------------------------------------------------------

/// One direction's mailbox, by its offset in the file.
#[derive(Clone, Copy)]
struct Mailbox(usize);

/// Client → daemon.
const C2S: Mailbox = Mailbox(HEADER_LEN);
/// Daemon → client.
const S2C: Mailbox = Mailbox(HEADER_LEN + MAILBOX_LEN);

impl Mailbox {
    fn seq(self, map: &ShmMap) -> &AtomicU64 {
        map.atomic_u64(self.0 + SLOT_SEQ)
    }

    fn doorbell(self, map: &ShmMap) -> &AtomicU32 {
        map.atomic_u32(self.0 + SLOT_DOORBELL)
    }

    fn waiters(self, map: &ShmMap) -> &AtomicU32 {
        map.atomic_u32(self.0 + SLOT_WAITERS)
    }

    /// Empty, at message 0 of a session.
    fn reset(self, map: &ShmMap) {
        self.seq(map).store(0, Ordering::Relaxed);
        self.waiters(map).store(0, Ordering::Relaxed);
    }

    /// Bumps the doorbell, waking whoever is parked on it.
    fn ring(self, map: &ShmMap) {
        self.doorbell(map).fetch_add(1, Ordering::SeqCst);
        if self.waiters(map).load(Ordering::SeqCst) > 0 {
            sys::futex_wake(self.doorbell(map), u32::MAX);
        }
    }

    /// Publishes `payload` as message `n` of the session. The mailbox
    /// must be empty: under the one-in-flight contract a full one is a
    /// broken peer, so this errors at once instead of waiting.
    fn send(self, map: &ShmMap, n: u64, payload: &[u8]) -> std::io::Result<()> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(io_err(
                std::io::ErrorKind::InvalidData,
                format!("frame of {} bytes exceeds the {MAX_FRAME_LEN} byte limit", payload.len()),
            ));
        }
        let seq = self.seq(map);
        if seq.load(Ordering::Acquire) != 2 * n {
            return Err(io_err(
                std::io::ErrorKind::ConnectionReset,
                "shm mailbox is not empty: a frame is in flight",
            ));
        }
        map.write_bytes(self.0 + SLOT_HDR_LEN, payload);
        let publish = 2 * n + 1;
        let len = payload.len() as u32;
        map.atomic_u32(self.0 + SLOT_LEN).store(len, Ordering::Relaxed);
        map.atomic_u32(self.0 + SLOT_CHECK).store(slot_check(publish, len), Ordering::Relaxed);
        // SeqCst, not just Release: with the doorbell bump and the
        // waiter load it is what a parking reader re-checks.
        seq.store(publish, Ordering::SeqCst);
        self.ring(map);
        Ok(())
    }

    /// Receives message `n` of the session, spin-then-park waiting for
    /// the writer. `tick` runs between parks; its error aborts the wait
    /// (deadline, dead peer, closed session).
    fn recv(self, map: &ShmMap, n: u64, tick: &mut dyn FnMut() -> std::io::Result<()>) -> std::io::Result<Vec<u8>> {
        let (seq, doorbell, waiters) = (self.seq(map), self.doorbell(map), self.waiters(map));
        let mut spun = 0u32;
        while seq.load(Ordering::Acquire) == 2 * n {
            if spun < SPIN {
                spun += 1;
                std::hint::spin_loop();
                continue;
            }
            waiters.fetch_add(1, Ordering::SeqCst);
            let snap = doorbell.load(Ordering::SeqCst);
            if seq.load(Ordering::SeqCst) == 2 * n {
                sys::futex_wait(doorbell, snap, PARK_TICK);
            }
            waiters.fetch_sub(1, Ordering::SeqCst);
            tick()?;
        }
        let published = seq.load(Ordering::Acquire);
        let len = map.atomic_u32(self.0 + SLOT_LEN).load(Ordering::Relaxed);
        let check = map.atomic_u32(self.0 + SLOT_CHECK).load(Ordering::Relaxed);
        let len = validate_slot(2 * n + 1, published, len, check, MAX_FRAME_LEN as u32)
            .ok_or_else(|| io_err(std::io::ErrorKind::ConnectionReset, "torn shm slot"))?;
        let mut out = vec![0u8; len as usize];
        map.read_bytes(self.0 + SLOT_HDR_LEN, &mut out);
        // Release, paired with the writer's Acquire check in `send`: the
        // copy-out is done before the next message overwrites the payload.
        seq.store(2 * n + 2, Ordering::Release);
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// The client half of the shared-memory transport: dials the daemon's
/// ring file. Plugs into [`super::PredictClient`] like any transport;
/// [`Transport::is_local`] makes the client prefer it over ring
/// routing while healthy.
#[derive(Debug, Clone)]
pub struct ShmTransport {
    path: String,
    connect_timeout: Duration,
    io_timeout: Duration,
}

impl ShmTransport {
    /// A transport dialing the ring file at `path`. `connect_timeout`
    /// bounds how long to wait for the session seat; `io_timeout`
    /// bounds each frame wait, like a TCP read timeout.
    pub fn new(path: impl Into<String>, connect_timeout: Duration, io_timeout: Duration) -> ShmTransport {
        ShmTransport { path: path.into(), connect_timeout, io_timeout }
    }
}

impl Transport for ShmTransport {
    fn connect(&mut self) -> std::io::Result<Box<dyn Connection>> {
        Ok(Box::new(ShmConnection::dial(&self.path, self.connect_timeout, self.io_timeout)?))
    }

    fn describe(&self) -> String {
        format!("shm://{}", self.path)
    }

    fn is_local(&self) -> bool {
        true
    }
}

/// One claimed session over the ring file.
pub struct ShmConnection {
    map: ShmMap,
    /// Replies read so far: the next request and the next reply are
    /// both message `exchanged` of the session.
    exchanged: u64,
    daemon_pid: u32,
    epoch: u64,
    io_timeout: Duration,
}

impl ShmConnection {
    fn dial(path: &str, connect_timeout: Duration, io_timeout: Duration) -> std::io::Result<ShmConnection> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        if (file.metadata()?.len() as usize) < FILE_LEN {
            return Err(io_err(std::io::ErrorKind::InvalidData, "shm ring file shorter than its layout"));
        }
        let map = ShmMap::map(file, FILE_LEN)?;
        if map.atomic_u64(OFF_MAGIC).load(Ordering::Relaxed) != MAGIC
            || map.atomic_u32(OFF_VERSION).load(Ordering::Relaxed) != VERSION
        {
            return Err(io_err(std::io::ErrorKind::InvalidData, "not a chronusd shm ring file"));
        }
        let daemon_pid = map.daemon_pid();
        let start = Instant::now();
        loop {
            if !sys::process_alive(daemon_pid) {
                return Err(io_err(std::io::ErrorKind::ConnectionRefused, "shm daemon is dead"));
            }
            if map.state().compare_exchange(IDLE, CLAIM, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
                break;
            }
            if start.elapsed() >= connect_timeout {
                return Err(io_err(std::io::ErrorKind::WouldBlock, "shm session seat is busy"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        map.atomic_u32(OFF_CLIENT_PID).store(std::process::id(), Ordering::SeqCst);
        map.state().store(ACTIVE, Ordering::Release);
        // Ring the c2s doorbell so the daemon's acceptor wakes.
        C2S.ring(&map);
        let epoch = map.epoch();
        Ok(ShmConnection { map, exchanged: 0, daemon_pid, epoch, io_timeout })
    }

    /// The client's between-parks check: daemon still the one we
    /// dialed and alive, session still ours, deadline not blown.
    fn liveness_tick(&self, deadline: Instant) -> std::io::Result<()> {
        if self.map.daemon_pid() != self.daemon_pid
            || self.map.epoch() != self.epoch
            || !sys::process_alive(self.daemon_pid)
        {
            return Err(io_err(std::io::ErrorKind::ConnectionReset, "shm daemon died"));
        }
        if self.map.state().load(Ordering::Acquire) != ACTIVE {
            return Err(io_err(std::io::ErrorKind::ConnectionReset, "shm session was reset by the daemon"));
        }
        if Instant::now() >= deadline {
            return Err(io_err(std::io::ErrorKind::TimedOut, "shm exchange timed out"));
        }
        Ok(())
    }
}

impl Connection for ShmConnection {
    /// A second frame before the reply to the first finds the mailbox
    /// not at this message's empty mark (its own frame, or the daemon's
    /// consumed mark of it) and is refused at once.
    fn send_frame(&mut self, payload: &[u8]) -> std::io::Result<()> {
        C2S.send(&self.map, self.exchanged, payload)
    }

    fn recv_frame(&mut self) -> std::io::Result<Vec<u8>> {
        let deadline = Instant::now() + self.io_timeout;
        let out = S2C.recv(&self.map, self.exchanged, &mut || self.liveness_tick(deadline))?;
        self.exchanged += 1;
        Ok(out)
    }
}

impl Drop for ShmConnection {
    fn drop(&mut self) {
        // Hand the seat back only if it is still ours — the daemon may
        // already have reseated another client after declaring us dead.
        if self.map.atomic_u32(OFF_CLIENT_PID).load(Ordering::SeqCst) == std::process::id()
            && self.map.state().compare_exchange(ACTIVE, DONE, Ordering::SeqCst, Ordering::SeqCst).is_ok()
        {
            C2S.ring(&self.map);
        }
    }
}

// ---------------------------------------------------------------------------
// Daemon side
// ---------------------------------------------------------------------------

/// Why [`ShmListener::serve_session`] returned.
#[derive(Debug, PartialEq, Eq)]
pub enum SessionEnd {
    /// `should_stop` asked the daemon loop to wind down.
    Stopped,
    /// The client closed (or died); the seat was reset for the next one.
    ClientGone,
}

/// The daemon half: owns the ring file (created fresh via temp+rename
/// at boot so stale clients keep their orphaned mapping) and serves
/// one client session at a time.
pub struct ShmListener {
    map: ShmMap,
    path: PathBuf,
}

impl ShmListener {
    /// Creates the ring file at `path` and becomes its daemon.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<ShmListener> {
        let path = path.as_ref().to_path_buf();
        let tmp = {
            let mut name = path.as_os_str().to_os_string();
            name.push(format!(".tmp.{}", std::process::id()));
            PathBuf::from(name)
        };
        let _ = std::fs::remove_file(&tmp);
        let file = OpenOptions::new().read(true).write(true).create_new(true).open(&tmp)?;
        file.set_len(FILE_LEN as u64)?;
        // A fresh file is all zeroes: both mailboxes empty at message 0,
        // no waiters, the seat IDLE.
        let map = ShmMap::map(file, FILE_LEN)?;
        map.atomic_u32(OFF_VERSION).store(VERSION, Ordering::Relaxed);
        let epoch = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
            ^ u64::from(std::process::id()).rotate_left(32);
        map.atomic_u64(OFF_EPOCH).store(epoch, Ordering::Relaxed);
        map.atomic_u32(OFF_DAEMON_PID).store(std::process::id(), Ordering::Relaxed);
        // Publish the magic last: a concurrent early client sees either
        // no file (pre-rename) or a fully initialized one.
        map.atomic_u64(OFF_MAGIC).store(MAGIC, Ordering::SeqCst);
        std::fs::rename(&tmp, &path)?;
        Ok(ShmListener { map, path })
    }

    /// Waits for a client to claim the seat, then answers its frames
    /// with `handle` until it leaves, dies, or `should_stop` says to
    /// wind down; the seat is reset before returning. Run this in a
    /// loop on a dedicated daemon thread.
    pub fn serve_session(
        &self,
        should_stop: &mut dyn FnMut() -> bool,
        handle: &mut dyn FnMut(&[u8]) -> Vec<u8>,
    ) -> std::io::Result<SessionEnd> {
        let (doorbell, waiters) = (C2S.doorbell(&self.map), C2S.waiters(&self.map));
        let mut claim_ticks = 0u32;
        loop {
            if should_stop() {
                return Ok(SessionEnd::Stopped);
            }
            match self.map.state().load(Ordering::Acquire) {
                ACTIVE => break,
                DONE => {
                    self.reset_seat();
                    claim_ticks = 0;
                }
                CLAIM => {
                    // A claimant that never went ACTIVE: give it ~1s,
                    // then reclaim the seat if its process is gone.
                    claim_ticks += 1;
                    let pid = self.map.atomic_u32(OFF_CLIENT_PID).load(Ordering::SeqCst);
                    if claim_ticks > 200 && !sys::process_alive(pid) {
                        self.reset_seat();
                        claim_ticks = 0;
                    }
                }
                _ => claim_ticks = 0,
            }
            waiters.fetch_add(1, Ordering::SeqCst);
            let snap = doorbell.load(Ordering::SeqCst);
            if self.map.state().load(Ordering::SeqCst) == IDLE || self.map.state().load(Ordering::SeqCst) == CLAIM {
                sys::futex_wait(doorbell, snap, PARK_TICK);
            }
            waiters.fetch_sub(1, Ordering::SeqCst);
        }

        let client_pid = self.map.atomic_u32(OFF_CLIENT_PID).load(Ordering::SeqCst);
        let mut tick = || -> std::io::Result<()> {
            if should_stop() {
                return Err(io_err(std::io::ErrorKind::Interrupted, "daemon shutting down"));
            }
            let state = self.map.state().load(Ordering::Acquire);
            if state == DONE || !sys::process_alive(client_pid) {
                return Err(io_err(std::io::ErrorKind::UnexpectedEof, "shm client left"));
            }
            Ok(())
        };
        let mut n = 0u64;
        let end = loop {
            let request = match C2S.recv(&self.map, n, &mut tick) {
                Ok(p) => p,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => break SessionEnd::Stopped,
                Err(_) => break SessionEnd::ClientGone,
            };
            // A full reply mailbox is a client that left its last reply
            // unread, yet sent again: a broken peer, the session is over.
            if S2C.send(&self.map, n, &handle(&request)).is_err() {
                break SessionEnd::ClientGone;
            }
            n += 1;
        };
        self.reset_seat();
        Ok(end)
    }

    /// Re-arms both mailboxes and frees the seat. Solely the daemon's
    /// job: clients never touch sequence words on exit, so a half-dead
    /// client cannot corrupt the next session.
    fn reset_seat(&self) {
        C2S.reset(&self.map);
        S2C.reset(&self.map);
        self.map.atomic_u32(OFF_CLIENT_PID).store(0, Ordering::SeqCst);
        self.map.state().store(IDLE, Ordering::Release);
    }

    /// The filesystem path clients dial.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ShmListener {
    fn drop(&mut self) {
        // Remove the file so dialing clients fail fast (NotFound) and
        // fall back to TCP instead of camping on a dead ring.
        let _ = std::fs::remove_file(&self.path);
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn temp_ring(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("chronus-shm-test-{}-{tag}-{n}.ring", std::process::id()))
    }

    /// Skips ring tests on platforms without the syscall layer.
    fn listener_or_skip(path: &Path) -> Option<ShmListener> {
        match ShmListener::create(path) {
            Ok(l) => Some(l),
            Err(e) if e.kind() == std::io::ErrorKind::Unsupported => None,
            Err(e) => panic!("shm listener failed: {e}"),
        }
    }

    fn echo_daemon(listener: Arc<ShmListener>, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let mut should_stop = || stop.load(Ordering::SeqCst);
                let mut handle = |payload: &[u8]| {
                    let mut reply = b"echo:".to_vec();
                    reply.extend_from_slice(payload);
                    reply
                };
                listener.serve_session(&mut should_stop, &mut handle).unwrap();
            }
        })
    }

    #[test]
    fn frames_round_trip_and_sessions_turn_over() {
        let path = temp_ring("roundtrip");
        let Some(listener) = listener_or_skip(&path) else { return };
        let listener = Arc::new(listener);
        let stop = Arc::new(AtomicBool::new(false));
        let daemon = echo_daemon(listener.clone(), stop.clone());

        let mut transport =
            ShmTransport::new(path.to_str().unwrap(), Duration::from_millis(500), Duration::from_secs(2));
        assert!(transport.is_local());
        for session in 0..3 {
            let mut conn = transport.connect().unwrap_or_else(|e| panic!("session {session}: {e}"));
            for i in 0..200u32 {
                let msg = vec![i as u8; (i as usize * 131) % 4096 + 1];
                conn.send_frame(&msg).unwrap();
                let reply = conn.recv_frame().unwrap();
                assert_eq!(&reply[..5], b"echo:");
                assert_eq!(&reply[5..], &msg[..]);
            }
        }

        stop.store(true, Ordering::SeqCst);
        daemon.join().unwrap();
    }

    #[test]
    fn a_second_frame_before_the_reply_is_refused_not_queued() {
        let path = temp_ring("second");
        let Some(listener) = listener_or_skip(&path) else { return };
        let listener = Arc::new(listener);
        let stop = Arc::new(AtomicBool::new(false));
        let daemon = echo_daemon(listener.clone(), stop.clone());

        let io_timeout = Duration::from_secs(2);
        let mut transport = ShmTransport::new(path.to_str().unwrap(), Duration::from_millis(500), io_timeout);
        let mut conn = transport.connect().unwrap();
        for round in 0..20u8 {
            conn.send_frame(&[b'a', round]).unwrap();
            // Whether or not the daemon has consumed the first frame yet,
            // the mailbox is not at the second one's empty mark.
            let t0 = Instant::now();
            assert!(conn.send_frame(&[b'b', round]).is_err(), "round {round}: a second frame was accepted");
            assert!(t0.elapsed() < io_timeout / 10, "round {round}: the refusal waited");
            assert_eq!(conn.recv_frame().unwrap(), [&b"echo:a"[..], &[round]].concat(), "round {round}");
        }

        drop(conn);
        stop.store(true, Ordering::SeqCst);
        daemon.join().unwrap();
    }

    #[test]
    fn oversized_frames_are_refused_without_touching_the_ring() {
        let path = temp_ring("oversize");
        let Some(listener) = listener_or_skip(&path) else { return };
        let listener = Arc::new(listener);
        let stop = Arc::new(AtomicBool::new(false));
        let daemon = echo_daemon(listener.clone(), stop.clone());

        let mut transport =
            ShmTransport::new(path.to_str().unwrap(), Duration::from_millis(500), Duration::from_secs(2));
        let mut conn = transport.connect().unwrap();
        // The ring carries every frame TCP carries ...
        let big: Vec<u8> = (0..300 * 1024u32).map(|i| i as u8).collect();
        conn.send_frame(&big).unwrap();
        assert_eq!(conn.recv_frame().unwrap(), [&b"echo:"[..], &big].concat());
        // ... and refuses what TCP refuses.
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert_eq!(conn.send_frame(&huge).unwrap_err().kind(), std::io::ErrorKind::InvalidData);
        // The ring is still usable afterwards.
        conn.send_frame(b"still alive").unwrap();
        assert_eq!(conn.recv_frame().unwrap(), b"echo:still alive");

        drop(conn);
        stop.store(true, Ordering::SeqCst);
        daemon.join().unwrap();
    }

    #[test]
    fn a_ring_file_of_another_layout_version_is_refused_fast() {
        let path = temp_ring("version");
        let Some(listener) = listener_or_skip(&path) else { return };
        let connect_timeout = Duration::from_secs(2);
        let mut transport = ShmTransport::new(path.to_str().unwrap(), connect_timeout, Duration::from_secs(2));
        for version in [VERSION - 1, VERSION + 1] {
            listener.map.atomic_u32(OFF_VERSION).store(version, Ordering::SeqCst);
            let t0 = Instant::now();
            let err = match transport.connect() {
                Err(e) => e,
                Ok(_) => panic!("a version {version} ring file must be refused"),
            };
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "version {version}: {err}");
            assert!(t0.elapsed() < connect_timeout / 10, "version {version}: the refusal waited");
        }
        listener.map.atomic_u32(OFF_VERSION).store(VERSION, Ordering::SeqCst);
        assert!(transport.connect().is_ok(), "the daemon's own version is served");
    }

    #[test]
    fn missing_ring_file_fails_fast() {
        let path = temp_ring("missing");
        let mut transport =
            ShmTransport::new(path.to_str().unwrap(), Duration::from_millis(50), Duration::from_millis(50));
        let err = match transport.connect() {
            Err(e) => e,
            Ok(_) => panic!("dialing a missing ring file must fail"),
        };
        assert!(
            matches!(err.kind(), std::io::ErrorKind::NotFound | std::io::ErrorKind::Unsupported),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn unanswered_exchange_times_out() {
        let path = temp_ring("timeout");
        let Some(_listener) = listener_or_skip(&path) else { return };
        // No serving thread: the claim succeeds (the seat is free) but
        // nothing ever answers.
        let mut transport =
            ShmTransport::new(path.to_str().unwrap(), Duration::from_millis(100), Duration::from_millis(80));
        let mut conn = transport.connect().unwrap();
        conn.send_frame(b"anyone?").unwrap();
        assert_eq!(conn.recv_frame().unwrap_err().kind(), std::io::ErrorKind::TimedOut);
    }

    #[test]
    fn second_client_waits_for_the_seat() {
        let path = temp_ring("seat");
        let Some(listener) = listener_or_skip(&path) else { return };
        let listener = Arc::new(listener);
        let stop = Arc::new(AtomicBool::new(false));
        let daemon = echo_daemon(listener.clone(), stop.clone());

        let mut transport =
            ShmTransport::new(path.to_str().unwrap(), Duration::from_millis(60), Duration::from_secs(1));
        let _held = transport.connect().unwrap();
        let err = match transport.connect() {
            Err(e) => e,
            Ok(_) => panic!("second client must not share the seat"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);

        drop(_held);
        stop.store(true, Ordering::SeqCst);
        daemon.join().unwrap();
    }

    #[test]
    fn slot_header_codec_round_trips_and_rejects_tears() {
        let max = MAX_FRAME_LEN as u32;
        for (seq, len) in [(1u64, 0u32), (63, 1), (u64::MAX, max)] {
            let raw = encode_slot_header(seq, len);
            assert_eq!(decode_slot_header(&raw, seq, max), Some(len));
            // Any single flipped byte must invalidate the header.
            for i in 0..raw.len() {
                let mut torn = raw;
                torn[i] ^= 0x41;
                assert_eq!(decode_slot_header(&torn, seq, max), None, "byte {i} tear accepted");
            }
            // The previous message's header, still in the mailbox, never
            // validates for the next one.
            assert_eq!(decode_slot_header(&raw, seq.wrapping_add(2), max), None);
        }
        assert_eq!(decode_slot_header(&encode_slot_header(5, max + 1), 5, max), None);
    }
}
