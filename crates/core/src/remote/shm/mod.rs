//! The shared-memory local transport: a lock-free SPSC ring-buffer
//! pair over a memory-mapped file, for clients co-located with the
//! daemon (the eco plugin on the head node).
//!
//! ## File layout
//!
//! One 4 KiB header page, then two slot arrays: the client→daemon ring
//! (`c2s`) and the daemon→client ring (`s2c`). Each ring has
//! [`SLOTS`] slots of a 64-byte slot header plus [`SLOT_PAYLOAD`]
//! payload bytes — sized so a maximum `PredictMany` frame fits with
//! room to spare. A frame that exceeds a slot is refused client-side
//! with `InvalidData`, which the failover loop treats like any other
//! I/O failure and routes over TCP.
//!
//! ## Ring protocol
//!
//! Single producer, single consumer, Vyukov-style per-slot sequence
//! numbers: slot `i` starts at `seq = i`; the writer at absolute
//! position `p` waits for `seq == p`, fills the payload, publishes
//! `len`/`check`, then `Release`-stores `seq = p + 1`; the reader at
//! `p` requires exactly `seq == p + 1` (`Acquire`), validates the
//! header with [`validate_slot`], copies the payload out and
//! `Release`-stores `seq = p + SLOTS` to free the slot for the next
//! lap. The client has at most one request in flight, so a full ring
//! (`SLOTS` = 64) means a stopped consumer, never a live protocol state.
//!
//! The reader's wait is spin-then-park: a bounded `spin_loop` burst
//! for the warm path (a co-located daemon answers in microseconds),
//! then a futex wait on the ring's doorbell word in short ticks,
//! re-checking peer liveness and the I/O deadline between ticks. The
//! writer bumps the doorbell after every publish and issues a
//! `FUTEX_WAKE` only when the waiter count says someone is parked.
//!
//! ## Sessions and liveness
//!
//! The header stamps the daemon's pid and a boot epoch, and carries a
//! one-seat session word: a client claims the seat by CAS-ing
//! `IDLE → CLAIM`, writes its pid, and publishes `ACTIVE`; dropping
//! the connection publishes `DONE`. Ring resets are solely the
//! daemon's job — it re-arms the slot sequences and counters and only
//! then stores `IDLE`, so a new session never reads a predecessor's
//! slots. The daemon detects a dead client with `kill(pid, 0)`; the
//! client detects a dead daemon the same way (plus the epoch stamp)
//! and surfaces `ConnectionReset`, which sends the PR-5 failover loop
//! to the next endpoint — TCP, if the operator configured the
//! recommended `shm://…,tcp://…` pair. A restarting daemon recreates
//! the file via temp+rename, so stale client mappings keep pointing at
//! the orphaned inode and fail fast instead of corrupting the new one.

mod sys;

use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use super::{Connection, Transport, MAX_FRAME_LEN};

/// Slots per ring. The client has at most one request in flight, so
/// a full ring means a stopped consumer — which the liveness ticks
/// then detect — never a transient state of a healthy session.
pub const SLOTS: u64 = 64;

/// Payload capacity of one slot (256 KiB): a worst-case 1024-key
/// `PredictMany` JSON reply measures ~70 KiB, so even pathological
/// frames fit; anything larger is refused and falls back to TCP.
pub const SLOT_PAYLOAD: u32 = 256 * 1024;

const MAGIC: u64 = 0x4348_524F_4E53_484D; // "CHRONSHM"
const VERSION: u32 = 1;

const HEADER_LEN: usize = 4096;
const SLOT_HDR_LEN: usize = 64;

// Header field offsets.
const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 8;
const OFF_SLOTS: usize = 12;
const OFF_SLOT_PAYLOAD: usize = 16;
const OFF_STATE: usize = 20;
const OFF_EPOCH: usize = 24;
const OFF_DAEMON_PID: usize = 32;
const OFF_CLIENT_PID: usize = 36;
// Per-ring control blocks (c2s, then s2c), cache-line separated.
const OFF_C2S_CTL: usize = 64;
const OFF_S2C_CTL: usize = 128;
const CTL_PRODUCED: usize = 0;
const CTL_CONSUMED: usize = 8;
const CTL_DOORBELL: usize = 16;
const CTL_WAITERS: usize = 20;

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
/// earlier lap — or any torn combination of old and new words — fails
/// validation instead of yielding a phantom frame.
pub fn slot_check(seq: u64, len: u32) -> u32 {
    (seq as u32) ^ ((seq >> 32) as u32) ^ len.rotate_left(16) ^ 0x9E37_79B9
}

/// Validates a slot header as the reader at `expect_seq - 1` sees it:
/// the sequence must match exactly, the length must fit the slot, and
/// the check word must agree. Returns the payload length, or `None`
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

/// Geometry read from (or written to) the header, kept dynamic so a
/// client can speak to a daemon built with different ring constants.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    slots: u64,
    slot_payload: u32,
}

impl Geometry {
    fn stride(&self) -> usize {
        SLOT_HDR_LEN + self.slot_payload as usize
    }

    fn ring_len(&self) -> usize {
        self.slots as usize * self.stride()
    }

    fn total_len(&self) -> usize {
        HEADER_LEN + 2 * self.ring_len()
    }

    fn validate(&self) -> std::io::Result<()> {
        if self.slots == 0
            || self.slots > 4096
            || self.slot_payload == 0
            || self.slot_payload as usize > MAX_FRAME_LEN
        {
            return Err(io_err(std::io::ErrorKind::InvalidData, "shm header advertises absurd ring geometry"));
        }
        Ok(())
    }
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

    fn geometry(&self) -> Geometry {
        Geometry {
            slots: self.atomic_u32(OFF_SLOTS).load(Ordering::Relaxed) as u64,
            slot_payload: self.atomic_u32(OFF_SLOT_PAYLOAD).load(Ordering::Relaxed),
        }
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
// Ring endpoints
// ---------------------------------------------------------------------------

/// One directional ring as seen from this process: offsets into the
/// map plus the geometry needed to locate slots.
#[derive(Clone, Copy)]
struct Ring {
    base: usize,
    ctl: usize,
    geo: Geometry,
}

impl Ring {
    fn c2s(geo: Geometry) -> Ring {
        Ring { base: HEADER_LEN, ctl: OFF_C2S_CTL, geo }
    }

    fn s2c(geo: Geometry) -> Ring {
        Ring { base: HEADER_LEN + geo.ring_len(), ctl: OFF_S2C_CTL, geo }
    }

    fn slot_off(&self, pos: u64) -> usize {
        self.base + (pos % self.geo.slots) as usize * self.geo.stride()
    }

    fn reset(&self, map: &ShmMap) {
        for i in 0..self.geo.slots {
            map.atomic_u64(self.slot_off(i)).store(i, Ordering::Relaxed);
        }
        map.atomic_u64(self.ctl + CTL_PRODUCED).store(0, Ordering::Relaxed);
        map.atomic_u64(self.ctl + CTL_CONSUMED).store(0, Ordering::Relaxed);
        map.atomic_u32(self.ctl + CTL_WAITERS).store(0, Ordering::Relaxed);
    }

    /// Publishes `payload` at absolute position `pos`. `tick` is
    /// called between waits while the target slot is still occupied
    /// (only possible with a stuck peer — see [`SLOTS`]); it returns
    /// an error to abort the send.
    fn send(
        &self,
        map: &ShmMap,
        pos: u64,
        payload: &[u8],
        tick: &mut dyn FnMut() -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        if payload.len() > self.geo.slot_payload as usize {
            return Err(io_err(
                std::io::ErrorKind::InvalidData,
                format!("frame of {} bytes exceeds the {} byte shm slot", payload.len(), self.geo.slot_payload),
            ));
        }
        let slot = self.slot_off(pos);
        let seq = map.atomic_u64(slot);
        let mut spun = 0u32;
        while seq.load(Ordering::Acquire) != pos {
            if spun < SPIN {
                spun += 1;
                std::hint::spin_loop();
            } else {
                tick()?;
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        map.write_bytes(slot + SLOT_HDR_LEN, payload);
        let publish = pos + 1;
        let len = payload.len() as u32;
        map.atomic_u32(slot + 8).store(len, Ordering::Relaxed);
        map.atomic_u32(slot + 12).store(slot_check(publish, len), Ordering::Relaxed);
        seq.store(publish, Ordering::Release);
        map.atomic_u64(self.ctl + CTL_PRODUCED).store(publish, Ordering::SeqCst);
        let doorbell = map.atomic_u32(self.ctl + CTL_DOORBELL);
        doorbell.fetch_add(1, Ordering::SeqCst);
        if map.atomic_u32(self.ctl + CTL_WAITERS).load(Ordering::SeqCst) > 0 {
            sys::futex_wake(doorbell, u32::MAX);
        }
        Ok(())
    }

    /// Receives the frame at absolute position `pos`, spin-then-park
    /// waiting for the producer. `tick` runs between parks; its error
    /// aborts the wait (deadline, dead peer, closed session).
    fn recv(
        &self,
        map: &ShmMap,
        pos: u64,
        tick: &mut dyn FnMut() -> std::io::Result<()>,
    ) -> std::io::Result<Vec<u8>> {
        let produced = map.atomic_u64(self.ctl + CTL_PRODUCED);
        let doorbell = map.atomic_u32(self.ctl + CTL_DOORBELL);
        let waiters = map.atomic_u32(self.ctl + CTL_WAITERS);
        let mut spun = 0u32;
        while produced.load(Ordering::Acquire) <= pos {
            if spun < SPIN {
                spun += 1;
                std::hint::spin_loop();
                continue;
            }
            waiters.fetch_add(1, Ordering::SeqCst);
            let snap = doorbell.load(Ordering::SeqCst);
            if produced.load(Ordering::SeqCst) <= pos {
                sys::futex_wait(doorbell, snap, PARK_TICK);
            }
            waiters.fetch_sub(1, Ordering::SeqCst);
            tick()?;
        }
        let slot = self.slot_off(pos);
        let seq = map.atomic_u64(slot).load(Ordering::Acquire);
        let len = map.atomic_u32(slot + 8).load(Ordering::Relaxed);
        let check = map.atomic_u32(slot + 12).load(Ordering::Relaxed);
        let len = validate_slot(pos + 1, seq, len, check, self.geo.slot_payload)
            .ok_or_else(|| io_err(std::io::ErrorKind::ConnectionReset, "torn shm slot"))?;
        let mut out = vec![0u8; len as usize];
        map.read_bytes(slot + SLOT_HDR_LEN, &mut out);
        map.atomic_u64(slot).store(pos + self.geo.slots, Ordering::Release);
        map.atomic_u64(self.ctl + CTL_CONSUMED).store(pos + 1, Ordering::Release);
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
    c2s: Ring,
    s2c: Ring,
    send_pos: u64,
    recv_pos: u64,
    daemon_pid: u32,
    epoch: u64,
    io_timeout: Duration,
}

impl ShmConnection {
    fn dial(path: &str, connect_timeout: Duration, io_timeout: Duration) -> std::io::Result<ShmConnection> {
        let start = Instant::now();
        loop {
            let file = OpenOptions::new().read(true).write(true).open(path)?;
            let map = ShmMap::map(file, HEADER_LEN)?;
            if map.atomic_u64(OFF_MAGIC).load(Ordering::Relaxed) != MAGIC
                || map.atomic_u32(OFF_VERSION).load(Ordering::Relaxed) != VERSION
            {
                return Err(io_err(std::io::ErrorKind::InvalidData, "not a chronusd shm ring file"));
            }
            let geo = map.geometry();
            geo.validate()?;
            let daemon_pid = map.daemon_pid();
            if !sys::process_alive(daemon_pid) {
                return Err(io_err(std::io::ErrorKind::ConnectionRefused, "shm daemon is dead"));
            }
            // Remap at full ring length now that the geometry is known.
            drop(map);
            let file = OpenOptions::new().read(true).write(true).open(path)?;
            if (file.metadata()?.len() as usize) < geo.total_len() {
                return Err(io_err(std::io::ErrorKind::InvalidData, "shm ring file shorter than its header claims"));
            }
            let map = ShmMap::map(file, geo.total_len())?;
            if map.state().compare_exchange(IDLE, CLAIM, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
                map.atomic_u32(OFF_CLIENT_PID).store(std::process::id(), Ordering::SeqCst);
                map.state().store(ACTIVE, Ordering::Release);
                // Ring the c2s doorbell so the daemon's acceptor wakes.
                let doorbell = map.atomic_u32(OFF_C2S_CTL + CTL_DOORBELL);
                doorbell.fetch_add(1, Ordering::SeqCst);
                sys::futex_wake(doorbell, u32::MAX);
                let epoch = map.epoch();
                return Ok(ShmConnection {
                    map,
                    c2s: Ring::c2s(geo),
                    s2c: Ring::s2c(geo),
                    send_pos: 0,
                    recv_pos: 0,
                    daemon_pid,
                    epoch,
                    io_timeout,
                });
            }
            drop(map);
            if start.elapsed() >= connect_timeout {
                return Err(io_err(std::io::ErrorKind::WouldBlock, "shm session seat is busy"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
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
    fn send_frame(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let deadline = Instant::now() + self.io_timeout;
        let (map, pos) = (&self.map, self.send_pos);
        let conn = &*self;
        self.c2s.send(map, pos, payload, &mut || conn.liveness_tick(deadline))?;
        self.send_pos += 1;
        Ok(())
    }

    fn recv_frame(&mut self) -> std::io::Result<Vec<u8>> {
        let deadline = Instant::now() + self.io_timeout;
        let conn = &*self;
        let out = self.s2c.recv(&self.map, self.recv_pos, &mut || conn.liveness_tick(deadline))?;
        self.recv_pos += 1;
        Ok(out)
    }

    fn fast_batch(&self) -> bool {
        true
    }
}

impl Drop for ShmConnection {
    fn drop(&mut self) {
        // Hand the seat back only if it is still ours — the daemon may
        // already have reseated another client after declaring us dead.
        if self.map.atomic_u32(OFF_CLIENT_PID).load(Ordering::SeqCst) == std::process::id()
            && self.map.state().compare_exchange(ACTIVE, DONE, Ordering::SeqCst, Ordering::SeqCst).is_ok()
        {
            let doorbell = self.map.atomic_u32(OFF_C2S_CTL + CTL_DOORBELL);
            doorbell.fetch_add(1, Ordering::SeqCst);
            sys::futex_wake(doorbell, u32::MAX);
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
    c2s: Ring,
    s2c: Ring,
}

impl ShmListener {
    /// Creates the ring file at `path` and becomes its daemon.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<ShmListener> {
        let path = path.as_ref().to_path_buf();
        let geo = Geometry { slots: SLOTS, slot_payload: SLOT_PAYLOAD };
        let tmp = {
            let mut name = path.as_os_str().to_os_string();
            name.push(format!(".tmp.{}", std::process::id()));
            PathBuf::from(name)
        };
        let _ = std::fs::remove_file(&tmp);
        let file = OpenOptions::new().read(true).write(true).create_new(true).open(&tmp)?;
        file.set_len(geo.total_len() as u64)?;
        let map = ShmMap::map(file, geo.total_len())?;
        map.atomic_u32(OFF_VERSION).store(VERSION, Ordering::Relaxed);
        map.atomic_u32(OFF_SLOTS).store(geo.slots as u32, Ordering::Relaxed);
        map.atomic_u32(OFF_SLOT_PAYLOAD).store(geo.slot_payload, Ordering::Relaxed);
        let epoch = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
            ^ u64::from(std::process::id()).rotate_left(32);
        map.atomic_u64(OFF_EPOCH).store(epoch, Ordering::Relaxed);
        map.atomic_u32(OFF_DAEMON_PID).store(std::process::id(), Ordering::Relaxed);
        let (c2s, s2c) = (Ring::c2s(geo), Ring::s2c(geo));
        c2s.reset(&map);
        s2c.reset(&map);
        map.state().store(IDLE, Ordering::Relaxed);
        // Publish the magic last: a concurrent early client sees either
        // no file (pre-rename) or a fully initialized one.
        map.atomic_u64(OFF_MAGIC).store(MAGIC, Ordering::SeqCst);
        std::fs::rename(&tmp, &path)?;
        Ok(ShmListener { map, path, c2s, s2c })
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
        let doorbell = self.map.atomic_u32(OFF_C2S_CTL + CTL_DOORBELL);
        let waiters = self.map.atomic_u32(OFF_C2S_CTL + CTL_WAITERS);
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
        let mut recv_pos = 0u64;
        let mut send_pos = 0u64;
        let end = loop {
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
            let payload = match self.c2s.recv(&self.map, recv_pos, &mut tick) {
                Ok(p) => p,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => break SessionEnd::Stopped,
                Err(_) => break SessionEnd::ClientGone,
            };
            recv_pos += 1;
            let reply = handle(&payload);
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
            match self.s2c.send(&self.map, send_pos, &reply, &mut tick) {
                Ok(()) => send_pos += 1,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => break SessionEnd::Stopped,
                Err(_) => break SessionEnd::ClientGone,
            }
        };
        self.reset_seat();
        Ok(end)
    }

    /// Re-arms both rings and frees the seat. Solely the daemon's job:
    /// clients never touch sequence words or counters on exit, so a
    /// half-dead client cannot corrupt the next session.
    fn reset_seat(&self) {
        self.c2s.reset(&self.map);
        self.s2c.reset(&self.map);
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
            assert!(conn.fast_batch());
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
    fn pipelined_frames_keep_order_across_ring_laps() {
        let path = temp_ring("pipeline");
        let Some(listener) = listener_or_skip(&path) else { return };
        let listener = Arc::new(listener);
        let stop = Arc::new(AtomicBool::new(false));
        let daemon = echo_daemon(listener.clone(), stop.clone());

        let mut transport =
            ShmTransport::new(path.to_str().unwrap(), Duration::from_millis(500), Duration::from_secs(2));
        let mut conn = transport.connect().unwrap();
        // Keep SLOTS frames in flight for several laps of the ring.
        let depth = SLOTS as u32;
        for wave in 0..10u32 {
            for i in 0..depth {
                conn.send_frame(&(wave * depth + i).to_le_bytes()).unwrap();
            }
            for i in 0..depth {
                let reply = conn.recv_frame().unwrap();
                assert_eq!(reply[5..9], (wave * depth + i).to_le_bytes());
            }
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
        let huge = vec![0u8; SLOT_PAYLOAD as usize + 1];
        assert_eq!(conn.send_frame(&huge).unwrap_err().kind(), std::io::ErrorKind::InvalidData);
        // The ring is still usable afterwards.
        conn.send_frame(b"still alive").unwrap();
        assert_eq!(conn.recv_frame().unwrap(), b"echo:still alive");

        drop(conn);
        stop.store(true, Ordering::SeqCst);
        daemon.join().unwrap();
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
        for (seq, len) in [(1u64, 0u32), (64, 1), (u64::MAX, SLOT_PAYLOAD)] {
            let raw = encode_slot_header(seq, len);
            assert_eq!(decode_slot_header(&raw, seq, SLOT_PAYLOAD), Some(len));
            // Any single flipped byte must invalidate the header.
            for i in 0..raw.len() {
                let mut torn = raw;
                torn[i] ^= 0x41;
                assert_eq!(decode_slot_header(&torn, seq, SLOT_PAYLOAD), None, "byte {i} tear accepted");
            }
            // A stale header from the previous lap never validates.
            assert_eq!(decode_slot_header(&raw, seq.wrapping_add(SLOTS), SLOT_PAYLOAD), None);
        }
        assert_eq!(decode_slot_header(&encode_slot_header(5, SLOT_PAYLOAD + 1), 5, SLOT_PAYLOAD), None);
    }
}
