//! Real-socket serving tier: TCP fan-out behind the broker core.
//!
//! The modeled broker ([`crate::broker`]) proved the *policies* — one
//! retention-bounded ring, per-client resume cursors, admission gating,
//! bulkheads, circuit breakers, catch-up pacing. This module is the
//! deployable half of that claim: a [`FrameServer`] tees the live
//! pipeline's frames into the same [`FrameLog`] ring and serves N
//! concurrent *socket* clients, so every policy has to survive real
//! partial writes, half-open peers, slow-loris readers, and
//! mid-handshake resets (which `tests/server_soak.rs` injects through
//! the seeded [`toxic`] proxy).
//!
//! ## Wire protocol (serving extensions over v3)
//!
//! The frame and ack framing is byte-identical to
//! [`crate::net_transport`] v3 (`AFR3` header with seq / length / CRC-32
//! / rung byte; 9-byte `+`-status acks). The serving tier adds a client
//! hello and an admission response in front of it, and one control
//! frame:
//!
//! ```text
//! client hello (client → server, once per connection):
//!     magic "AHL2" | u64 LE client id | u64 LE last-applied sequence
//! admission (server → client, once per connection):
//!     status byte | u64 LE value
//!         '+' admitted   — value = resume cursor serving starts from
//!         '~' deferred   — value = retry-after in milliseconds
//!         '!' rejected   — circuit breaker quarantined this client id
//!         '#' draining   — server is shutting down, try a replacement
//! control frame (server → client, AFR3 slot):
//!     magic "ACT1" | u64 LE value | u32 LE 0 | u32 LE 0 | u8 kind
//!         kind 1 = DRAIN — value is the client's resume cursor
//! ```
//!
//! Wire sequences are 1-based like v3 (`0` = nothing applied), so a
//! frame at ring sequence `s` travels with wire sequence `s + 1` and a
//! client whose last-applied is `c` holds ring cursor `c`.
//!
//! ## Robustness posture
//!
//! Every wire path is bounded: the client hello is read under one
//! overall handshake deadline (via the same deadline loop the sender
//! handshake uses, so a trickled hello cannot stretch it), frame writes
//! carry a write deadline, and acks an ack deadline. A deadline miss is
//! a *slow-client stall*: the breaker records a failure and the session's
//! backlog is handled by the configured [`ShedPolicy`] — `DropOldest`
//! keeps the cursor for resume, `DemoteToTrackOnly` pins the session to
//! fix-sized frames, `Disconnect` sheds the whole backlog to the head so
//! a kicked laggard cannot re-kick itself forever. Graceful drain stops
//! admissions, finishes serving every retained frame to connected
//! clients (still under the write deadlines), hands each a `DRAIN`
//! control carrying its resume cursor, and returns the cursor map so a
//! replacement server can be started at the same ring position with
//! [`FrameServer::start_resuming`].
//!
//! A frame's checksum is a property of its ring entry: [`FrameServer::publish`]
//! computes it once, on the publisher's thread, and every delivery of
//! that frame — live, replayed, resumed, to any client — stamps the
//! stored value. The viewer verifies each body into one receive buffer
//! per connection, which grows only as far as the bytes that arrive
//! (see `net_transport::read_body`), so the length in a header is never
//! trusted with memory.
//!
//! Conservation holds at the wire exactly as in the modeled broker:
//! `frames_delivered + frames_shed == cursor_advance`, checked by the
//! soak's invariant battery against hundreds of real loopback clients.

pub mod toxic;

use crate::broker::{Admission, AdmissionGate, BreakerConfig, FrameLog, ShedPolicy};
use crate::net_transport::{
    read_body, read_exact_deadline, FrameHeader, TransportError, ACK_APPLIED, HANDSHAKE_MAGIC,
    HEADER_BYTES,
};
use crate::qos::{self, QosRung};
use crate::resilience::{crc32, BackoffPolicy};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use viz::TrackLog;

/// Magic for serving-tier control frames (rides in an `AFR3`-shaped
/// header slot so clients parse one header format).
pub const CONTROL_MAGIC: &[u8; 4] = b"ACT1";
/// Control kind: server is draining; the value field is the client's
/// resume cursor.
pub const CONTROL_DRAIN: u8 = 1;

const ADMIT_OK: u8 = b'+';
const ADMIT_DEFER: u8 = b'~';
const ADMIT_REJECT: u8 = b'!';
const ADMIT_DRAIN: u8 = b'#';

const HELLO_BYTES: usize = 20;
const ACK_BYTES: usize = 9;

/// How long accept/serve loops sleep when idle before re-checking flags.
const IDLE_TICK: Duration = Duration::from_millis(5);

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Where frames are consumed, after the martinstarkov simulation-server
/// split: purely in-process, both, or purely over sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingMode {
    /// In-process viewers only; no TCP listener is bound.
    Local,
    /// In-process viewers *and* socket clients share the ring.
    Hybrid,
    /// Socket clients only.
    Remote,
}

/// Tunables for one [`FrameServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Serving mode (listener bound unless [`ServingMode::Local`]).
    pub mode: ServingMode,
    /// Nominal frame size for ring byte accounting.
    pub frame_bytes: u64,
    /// Ring retention: at most this many frames replayable.
    pub retention_frames: u64,
    /// Per-client backlog bulkhead, frames.
    pub max_backlog_frames: u64,
    /// What happens to a client over the bulkhead (or stalled).
    pub shed: ShedPolicy,
    /// Admission gate sustained rate, sessions/second.
    pub admission_rate_per_sec: f64,
    /// Admission gate burst.
    pub admission_burst: u64,
    /// Circuit breaker for flapping / repeatedly failing clients.
    pub breaker: BreakerConfig,
    /// Overall deadline for reading the 20-byte client hello.
    pub handshake_deadline: Duration,
    /// Deadline for writing one frame to a client.
    pub write_deadline: Duration,
    /// Deadline for the client's ack after a frame.
    pub ack_deadline: Duration,
    /// Shared downlink budget, bytes/second (`0` = unpaced).
    pub link_bytes_per_sec: f64,
    /// Share of the link catch-up replay may use (live frames always
    /// draw on the full link, so catch-up can never starve them).
    pub catchup_share: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            mode: ServingMode::Remote,
            frame_bytes: qos::FIX_BYTES as u64,
            retention_frames: 512,
            max_backlog_frames: 128,
            shed: ShedPolicy::DropOldest,
            admission_rate_per_sec: 256.0,
            admission_burst: 64,
            breaker: BreakerConfig::default(),
            handshake_deadline: Duration::from_secs(2),
            write_deadline: Duration::from_secs(2),
            ack_deadline: Duration::from_secs(2),
            link_bytes_per_sec: 0.0,
            catchup_share: 0.5,
        }
    }
}

// ---------------------------------------------------------------------------
// Frame store: the broker ring plus retained bodies
// ---------------------------------------------------------------------------

/// One retained frame: everything that depends only on its bytes — the
/// rung, the encoded body and the body's CRC-32 — computed once when it
/// enters the ring and shared by reference, so N clients replaying it
/// cost one allocation and one checksum.
#[derive(Debug, Clone)]
struct StoredFrame {
    rung: QosRung,
    crc: u32,
    body: Arc<Vec<u8>>,
}

/// The modeled broker's counters-only [`FrameLog`] with real bodies
/// alongside: `bodies[i]` is ring sequence `base + tail + i`. `base`
/// lets a replacement server continue a drained predecessor's sequence
/// numbering without replaying its history.
#[derive(Debug)]
struct FrameStore {
    base: u64,
    log: FrameLog,
    bodies: VecDeque<StoredFrame>,
}

impl FrameStore {
    fn new(frame_bytes: u64, retention: u64, base: u64) -> Self {
        Self {
            base,
            log: FrameLog::new(frame_bytes, retention),
            bodies: VecDeque::new(),
        }
    }

    fn publish(&mut self, frame: StoredFrame) -> u64 {
        let seq = self.base + self.log.append();
        self.bodies.push_back(frame);
        while self.bodies.len() as u64 > self.log.len() {
            self.bodies.pop_front();
        }
        seq
    }

    fn head(&self) -> u64 {
        self.base + self.log.head()
    }

    fn tail(&self) -> u64 {
        self.base + self.log.tail()
    }

    fn get(&self, seq: u64) -> Option<StoredFrame> {
        if seq < self.tail() || seq >= self.head() {
            return None;
        }
        self.bodies.get((seq - self.tail()) as usize).cloned()
    }
}

// ---------------------------------------------------------------------------
// Counters and sessions
// ---------------------------------------------------------------------------

/// Wire-tier counters. The conservation invariant is
/// `frames_delivered + frames_shed == cursor_advance`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Hellos that were short, stalled, or carried the wrong magic.
    pub handshake_failures: u64,
    /// Sessions admitted (reconnects count again).
    pub admitted_sessions: u64,
    /// Admissions deferred by the gate.
    pub deferred_admissions: u64,
    /// Hellos refused because the client id is quarantined.
    pub rejected_quarantined: u64,
    /// Resumes whose cursor had expired past the ring tail.
    pub resume_failures: u64,
    /// Bulkhead shed events (any policy).
    pub bulkhead_sheds: u64,
    /// Sessions kicked by the `Disconnect` policy.
    pub bulkhead_disconnects: u64,
    /// Frame writes or acks that missed their deadline.
    pub slow_client_stalls: u64,
    /// Sessions pinned to track-only by `DemoteToTrackOnly`.
    pub demotions: u64,
    /// Client ids quarantined by the circuit breaker.
    pub quarantined_clients: u64,
    /// Frames acknowledged by socket clients (plus ack-loss
    /// fast-forwards, which were delivered even though the ack died).
    pub frames_delivered: u64,
    /// Frames skipped past a client's cursor without delivery.
    pub frames_shed: u64,
    /// Total cursor movement across all sessions.
    pub cursor_advance: u64,
    /// Most sockets connected at once.
    pub peak_connected: u64,
    /// Graceful drains completed.
    pub drains: u64,
}

/// Per-client-id state, surviving across that client's connections.
#[derive(Debug)]
struct Session {
    /// Ring cursor: next sequence to serve (== the client's last-applied
    /// wire sequence).
    cursor: u64,
    /// Pinned to track-only frames by `DemoteToTrackOnly`.
    pinned: bool,
    /// Breaker failure timestamps inside the window (seconds since
    /// server start), oldest first; never more than `trip_after` of them.
    failures: Vec<f64>,
    /// Tripped breaker: refuse this id for the rest of the run.
    quarantined: bool,
    /// Bumped on every admission; a serving thread observing a newer
    /// generation exits instead of racing the replacement connection.
    generation: u64,
    /// A serving thread currently owns this session.
    connected: bool,
}

impl Session {
    fn new(cursor: u64) -> Self {
        Self {
            cursor,
            pinned: false,
            failures: Vec::new(),
            quarantined: false,
            generation: 0,
            connected: false,
        }
    }

    /// Record one breaker failure; returns true when the breaker trips
    /// (once: a quarantined session stays quarantined).
    fn note_failure(&mut self, now: f64, cfg: &BreakerConfig) -> bool {
        // One spare slot for this failure, unless the history already holds
        // the `trip_after` newest (then the oldest makes room). Grown per
        // failure, not sized to `trip_after`: "never trip" is spelled
        // `u32::MAX`.
        let mut len = self.failures.len() as u32;
        if len < cfg.trip_after.max(1) {
            self.failures.push(0.0);
        }
        let over = cfg.record_failure(&mut self.failures, &mut len, now);
        self.failures.truncate(len as usize);
        let trips = over && !self.quarantined;
        self.quarantined |= over;
        trips
    }
}

// ---------------------------------------------------------------------------
// Link pacer
// ---------------------------------------------------------------------------

/// Two-pot token bucket over the shared downlink: live frames draw on
/// the main pot only; catch-up replay must also draw on the smaller
/// catch-up pot, so a storm of replaying laggards can never starve the
/// live stream — the wire-tier version of the broker's tick budget.
#[derive(Debug)]
struct LinkPacer {
    rate: f64,
    main: f64,
    catchup: f64,
    share: f64,
    last: Instant,
}

impl LinkPacer {
    fn new(rate: f64, share: f64, now: Instant) -> Self {
        Self {
            rate,
            main: rate.max(1.0),
            catchup: (rate * share).max(1.0),
            share,
            last: now,
        }
    }

    /// Try to take `bytes` from the pots; `true` on success. Refills
    /// from elapsed wall time, capped at one second of budget.
    fn try_acquire(&mut self, bytes: f64, is_catchup: bool) -> bool {
        if self.rate <= 0.0 {
            return true;
        }
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.main = (self.main + dt * self.rate).min(self.rate.max(bytes));
        self.catchup =
            (self.catchup + dt * self.rate * self.share).min((self.rate * self.share).max(bytes));
        if self.main < bytes || (is_catchup && self.catchup < bytes) {
            return false;
        }
        self.main -= bytes;
        if is_catchup {
            self.catchup -= bytes;
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Shared server state
// ---------------------------------------------------------------------------

struct Shared {
    cfg: ServerConfig,
    store: Mutex<FrameStore>,
    frame_cv: Condvar,
    gate: Mutex<AdmissionGate>,
    sessions: Mutex<HashMap<u64, Session>>,
    counters: Mutex<ServerCounters>,
    pacer: Mutex<LinkPacer>,
    draining: AtomicBool,
    stopped: AtomicBool,
    connected: AtomicU64,
    epoch: Instant,
    /// Body checksums this server has computed.
    #[cfg(test)]
    checksums: AtomicU64,
}

impl Shared {
    fn now_secs(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The server side's only checksum: once per frame, as it enters the
    /// ring. Every delivery — live, replayed, resumed, to any client —
    /// stamps the stored value.
    fn checksum(&self, body: &[u8]) -> u32 {
        #[cfg(test)]
        self.checksums.fetch_add(1, Ordering::SeqCst);
        crc32(body)
    }

    /// Record a breaker failure for `id`, bumping the quarantine counter
    /// on a trip.
    fn breaker_failure(&self, id: u64) {
        let now = self.now_secs();
        let mut sessions = self.sessions.lock().expect("sessions lock");
        if let Some(s) = sessions.get_mut(&id) {
            if s.note_failure(now, &self.cfg.breaker) {
                self.counters
                    .lock()
                    .expect("counters lock")
                    .quarantined_clients += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// What a graceful drain hands back: where every known client can
/// resume, and the final counters.
#[derive(Debug)]
pub struct DrainReport {
    /// Client id → resume cursor (ring sequence).
    pub resume_cursors: HashMap<u64, u64>,
    /// Final wire-tier counters.
    pub counters: ServerCounters,
    /// Ring head at drain: a replacement server should
    /// [`FrameServer::start_resuming`] from here.
    pub head: u64,
}

/// The TCP serving tier. Frames enter via [`publish`](Self::publish) (or
/// the [`ServingTransport`] tee) and fan out to socket clients and
/// [`LocalViewer`]s.
pub struct FrameServer {
    shared: Arc<Shared>,
    addr: Option<SocketAddr>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl FrameServer {
    /// Start a server at ring sequence zero.
    pub fn start(cfg: ServerConfig) -> Result<Self, std::io::Error> {
        Self::start_resuming(cfg, 0)
    }

    /// Start a server whose ring begins at `first_seq` — the `head` of a
    /// drained predecessor's [`DrainReport`] — so clients resuming with
    /// their old cursors line up without replaying history.
    pub fn start_resuming(cfg: ServerConfig, first_seq: u64) -> Result<Self, std::io::Error> {
        let epoch = Instant::now();
        let shared = Arc::new(Shared {
            store: Mutex::new(FrameStore::new(
                cfg.frame_bytes,
                cfg.retention_frames,
                first_seq,
            )),
            frame_cv: Condvar::new(),
            gate: Mutex::new(AdmissionGate::new(
                cfg.admission_rate_per_sec,
                cfg.admission_burst,
            )),
            sessions: Mutex::new(HashMap::new()),
            counters: Mutex::new(ServerCounters::default()),
            pacer: Mutex::new(LinkPacer::new(
                cfg.link_bytes_per_sec,
                cfg.catchup_share,
                epoch,
            )),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            connected: AtomicU64::new(0),
            epoch,
            #[cfg(test)]
            checksums: AtomicU64::new(0),
            cfg,
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let (addr, accept) = if shared.cfg.mode == ServingMode::Local {
            (None, None)
        } else {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            listener.set_nonblocking(true)?;
            let addr = listener.local_addr()?;
            let sh = Arc::clone(&shared);
            let cn = Arc::clone(&conns);
            let handle = std::thread::Builder::new()
                .name("server-accept".into())
                .spawn(move || accept_loop(listener, sh, cn))
                .expect("spawn accept thread");
            (Some(addr), Some(handle))
        };
        Ok(Self {
            shared,
            addr,
            accept,
            conns,
        })
    }

    /// Listener address (None in [`ServingMode::Local`]).
    pub fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Publish one frame into the ring; returns its ring sequence.
    ///
    /// The body is checksummed here, once, on the caller's thread and
    /// before the store lock is taken, so serving threads never wait on
    /// it and never repeat it.
    pub fn publish(&self, rung: QosRung, body: Vec<u8>) -> u64 {
        let frame = StoredFrame {
            rung,
            crc: self.shared.checksum(&body),
            body: Arc::new(body),
        };
        let seq = self.shared.store.lock().expect("store lock").publish(frame);
        self.shared.frame_cv.notify_all();
        seq
    }

    /// Next ring sequence to be published.
    pub fn head(&self) -> u64 {
        self.shared.store.lock().expect("store lock").head()
    }

    /// Snapshot of the wire-tier counters.
    pub fn counters(&self) -> ServerCounters {
        *self.shared.counters.lock().expect("counters lock")
    }

    /// Sockets currently connected.
    pub fn connected(&self) -> u64 {
        self.shared.connected.load(Ordering::SeqCst)
    }

    /// An in-process viewer sharing the ring ([`ServingMode::Local`] /
    /// [`ServingMode::Hybrid`]; `None` in pure remote mode).
    pub fn local_viewer(&self) -> Option<LocalViewer> {
        if self.shared.cfg.mode == ServingMode::Remote {
            return None;
        }
        let cursor = self.shared.store.lock().expect("store lock").tail();
        Some(LocalViewer {
            shared: Arc::clone(&self.shared),
            cursor,
            delivered: 0,
            track: TrackLog::default(),
        })
    }

    /// Graceful drain: stop admitting, let every serving thread finish
    /// the retained backlog (still under write deadlines), hand each
    /// client a `DRAIN` control with its resume cursor, then stop.
    pub fn drain(mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.frame_cv.notify_all();
        let handles: Vec<_> = self.conns.lock().expect("conns lock").drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        self.shared.stopped.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let resume_cursors = self
            .shared
            .sessions
            .lock()
            .expect("sessions lock")
            .iter()
            .map(|(&id, s)| (id, s.cursor))
            .collect();
        let head = self.shared.store.lock().expect("store lock").head();
        let counters = {
            let mut c = self.shared.counters.lock().expect("counters lock");
            c.drains += 1;
            *c
        };
        DrainReport {
            resume_cursors,
            counters,
            head,
        }
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        // Hard stop (no drain controls); `drain` consumed self if the
        // graceful path ran.
        self.shared.stopped.store(true, Ordering::SeqCst);
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.frame_cv.notify_all();
        let handles: Vec<_> = self.conns.lock().expect("conns lock").drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Accept + serve
// ---------------------------------------------------------------------------

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, conns: Arc<Mutex<Vec<JoinHandle<()>>>>) {
    loop {
        if shared.stopped.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let sh = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("server-conn".into())
                    .stack_size(256 * 1024)
                    .spawn(move || serve_connection(stream, sh))
                    .expect("spawn connection thread");
                let mut conns = conns.lock().expect("conns lock");
                // Reap finished connections here rather than only at
                // drain/drop, so reconnect storms on a long-lived server
                // don't grow the handle vector without bound.
                conns.retain(|h: &JoinHandle<()>| !h.is_finished());
                conns.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(IDLE_TICK);
            }
            Err(_) => std::thread::sleep(IDLE_TICK),
        }
    }
}

/// Read the client hello, run admission, then serve frames until the
/// client disconnects, stalls past a deadline, or the server drains.
fn serve_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.cfg.write_deadline));

    // --- hello, under one overall deadline -------------------------------
    let mut hello = [0u8; HELLO_BYTES];
    if read_exact_deadline(&mut stream, &mut hello, shared.cfg.handshake_deadline).is_err()
        || &hello[..4] != HANDSHAKE_MAGIC
    {
        shared
            .counters
            .lock()
            .expect("counters lock")
            .handshake_failures += 1;
        return;
    }
    let client_id = u64::from_le_bytes(hello[4..12].try_into().expect("8 bytes"));
    let hello_applied = u64::from_le_bytes(hello[12..20].try_into().expect("8 bytes"));

    // --- admission --------------------------------------------------------
    if shared.draining.load(Ordering::SeqCst) {
        let _ = write_admission(&mut stream, ADMIT_DRAIN, 0);
        return;
    }
    {
        let sessions = shared.sessions.lock().expect("sessions lock");
        if sessions.get(&client_id).is_some_and(|s| s.quarantined) {
            drop(sessions);
            shared
                .counters
                .lock()
                .expect("counters lock")
                .rejected_quarantined += 1;
            let _ = write_admission(&mut stream, ADMIT_REJECT, 0);
            return;
        }
    }
    match shared
        .gate
        .lock()
        .expect("gate lock")
        .request(shared.now_secs())
    {
        Admission::Admitted => {}
        Admission::Deferred { retry_after_secs } => {
            shared
                .counters
                .lock()
                .expect("counters lock")
                .deferred_admissions += 1;
            let ms = (retry_after_secs * 1000.0).ceil().max(1.0) as u64;
            let _ = write_admission(&mut stream, ADMIT_DEFER, ms);
            return;
        }
    }

    // --- resume: establish the session cursor ----------------------------
    let (tail, head) = {
        let store = shared.store.lock().expect("store lock");
        (store.tail(), store.head())
    };
    let (cursor, my_generation, pinned) = {
        let mut sessions = shared.sessions.lock().expect("sessions lock");
        let mut counters = shared.counters.lock().expect("counters lock");
        let session = sessions.entry(client_id).or_insert_with(|| {
            // First contact: a zero hello joins live at the head; a
            // non-zero hello (a drain handoff from a predecessor) keeps
            // its place — deliberately *not* clamped to the tail, so a
            // handoff cursor that already expired is caught by the
            // resume-expiry check below. Baseline placement is not a
            // cursor advance.
            Session::new(if hello_applied == 0 {
                head
            } else {
                hello_applied.min(head)
            })
        });
        // Lost acks: the client proves it applied further than we
        // booked. Those frames *were* delivered. `head` is a snapshot
        // taken before this lock, so a concurrent old-generation thread
        // for the same client id may already have committed a fresher
        // cursor past it (stall-shed to a newer head, reconnect race);
        // floor with the cursor *after* capping at the snapshot so the
        // bounds can never invert into a `clamp` panic.
        let acked = hello_applied.min(head).max(session.cursor);
        if acked > session.cursor {
            counters.frames_delivered += acked - session.cursor;
            counters.cursor_advance += acked - session.cursor;
            session.cursor = acked;
        }
        // Resume expiry: the ring moved past this cursor while the
        // client was away; the gap is shed and the breaker notices.
        if session.cursor < tail {
            counters.frames_shed += tail - session.cursor;
            counters.cursor_advance += tail - session.cursor;
            counters.resume_failures += 1;
            session.cursor = tail;
            drop(counters);
            let now = shared.now_secs();
            if session.note_failure(now, &shared.cfg.breaker) {
                shared
                    .counters
                    .lock()
                    .expect("counters lock")
                    .quarantined_clients += 1;
            }
            if session.quarantined {
                let _ = write_admission(&mut stream, ADMIT_REJECT, 0);
                return;
            }
            let mut counters = shared.counters.lock().expect("counters lock");
            counters.admitted_sessions += 1;
        } else {
            counters.admitted_sessions += 1;
        }
        session.generation += 1;
        session.connected = true;
        (session.cursor, session.generation, session.pinned)
    };
    if write_admission(&mut stream, ADMIT_OK, cursor).is_err() {
        session_disconnect(&shared, client_id, my_generation);
        return;
    }

    let live = shared.connected.fetch_add(1, Ordering::SeqCst) + 1;
    {
        let mut counters = shared.counters.lock().expect("counters lock");
        counters.peak_connected = counters.peak_connected.max(live);
    }
    serve_frames(
        &mut stream,
        &shared,
        client_id,
        my_generation,
        cursor,
        pinned,
    );
    shared.connected.fetch_sub(1, Ordering::SeqCst);
    session_disconnect(&shared, client_id, my_generation);
}

fn session_disconnect(shared: &Shared, client_id: u64, my_generation: u64) {
    let mut sessions = shared.sessions.lock().expect("sessions lock");
    if let Some(s) = sessions.get_mut(&client_id) {
        if s.generation == my_generation {
            s.connected = false;
        }
    }
}

/// The frame loop. `cursor` is owned locally and mirrored back into the
/// session under the sessions lock after every advance, guarded by the
/// generation so a replacement connection is never raced.
fn serve_frames(
    stream: &mut TcpStream,
    shared: &Shared,
    client_id: u64,
    my_generation: u64,
    mut cursor: u64,
    mut pinned: bool,
) {
    let cfg = &shared.cfg;
    loop {
        // --- wait for a frame (or drain) ---------------------------------
        let (frame, is_catchup) = {
            let mut store = shared.store.lock().expect("store lock");
            loop {
                if shared.stopped.load(Ordering::SeqCst) {
                    return;
                }
                let head = store.head();
                if cursor < head {
                    break;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    // Backlog fully served: hand over the resume cursor.
                    drop(store);
                    let _ = write_control(stream, CONTROL_DRAIN, cursor);
                    return;
                }
                let (s, _t) = shared
                    .frame_cv
                    .wait_timeout(store, Duration::from_millis(50))
                    .expect("store lock");
                store = s;
            }

            // --- bulkhead -------------------------------------------------
            let head = store.head();
            let backlog = head - cursor;
            if backlog > cfg.max_backlog_frames {
                match cfg.shed {
                    ShedPolicy::DropOldest => {
                        let keep = cfg.max_backlog_frames;
                        let shed = backlog - keep;
                        cursor += shed;
                        let mut c = shared.counters.lock().expect("counters lock");
                        c.frames_shed += shed;
                        c.cursor_advance += shed;
                        c.bulkhead_sheds += 1;
                    }
                    ShedPolicy::DemoteToTrackOnly => {
                        if !pinned {
                            pinned = true;
                            let mut sessions = shared.sessions.lock().expect("sessions lock");
                            if let Some(s) = sessions.get_mut(&client_id) {
                                s.pinned = true;
                            }
                            shared.counters.lock().expect("counters lock").demotions += 1;
                        }
                        // Byte-equivalent cap: pinned frames are fix-sized,
                        // so the frame bulkhead scales by the rung's byte
                        // factor before oldest frames drop.
                        let byte_cap = (cfg.max_backlog_frames as f64
                            / QosRung::TrackOnly.byte_factor())
                            as u64;
                        if backlog > byte_cap {
                            let shed = backlog - byte_cap;
                            cursor += shed;
                            let mut c = shared.counters.lock().expect("counters lock");
                            c.frames_shed += shed;
                            c.cursor_advance += shed;
                            c.bulkhead_sheds += 1;
                        }
                    }
                    ShedPolicy::Disconnect => {
                        cursor = head;
                        {
                            let mut c = shared.counters.lock().expect("counters lock");
                            c.frames_shed += backlog;
                            c.cursor_advance += backlog;
                            c.bulkhead_sheds += 1;
                            c.bulkhead_disconnects += 1;
                        }
                        if !commit_cursor(shared, client_id, my_generation, cursor) {
                            return;
                        }
                        shared.breaker_failure(client_id);
                        return;
                    }
                }
                if !commit_cursor(shared, client_id, my_generation, cursor) {
                    return;
                }
            }

            match store.get(cursor) {
                // Classified under the same acquisition that fetched it:
                // one store lock per delivered frame.
                Some(f) => (f, store.head() - cursor > crate::broker::LIVE_LAG_FRAMES),
                None => {
                    // Evicted while we waited: resume expiry mid-session.
                    let tail = store.tail();
                    let shed = tail.saturating_sub(cursor);
                    cursor = tail.max(cursor);
                    let mut c = shared.counters.lock().expect("counters lock");
                    c.frames_shed += shed;
                    c.cursor_advance += shed;
                    c.resume_failures += 1;
                    drop(c);
                    if !commit_cursor(shared, client_id, my_generation, cursor) {
                        return;
                    }
                    continue;
                }
            }
        };

        // A pinned session only carries fix-sized frames: heavier bodies
        // are shed at the wire (the in-process broker demotes at encode
        // time; here the bytes are already encoded).
        if pinned && frame.rung != QosRung::TrackOnly {
            cursor += 1;
            {
                let mut c = shared.counters.lock().expect("counters lock");
                c.frames_shed += 1;
                c.cursor_advance += 1;
            }
            if !commit_cursor(shared, client_id, my_generation, cursor) {
                return;
            }
            continue;
        }

        // --- pace against the shared downlink -----------------------------
        let bytes = (HEADER_BYTES + frame.body.len()) as f64;
        let pace_deadline = Instant::now() + cfg.write_deadline;
        loop {
            if shared
                .pacer
                .lock()
                .expect("pacer lock")
                .try_acquire(bytes, is_catchup)
            {
                break;
            }
            if Instant::now() >= pace_deadline || shared.stopped.load(Ordering::SeqCst) {
                // Link saturated for a whole deadline: treat like a
                // stalled write so drain cannot hang on a starved pot.
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }

        // --- write the frame, read the ack, both under deadlines ----------
        let wire_seq = cursor + 1;
        if write_frame(stream, wire_seq, &frame).is_err() {
            stall(shared, client_id, my_generation, &mut cursor);
            return;
        }
        let mut ack = [0u8; ACK_BYTES];
        if read_exact_deadline(stream, &mut ack, cfg.ack_deadline).is_err() || ack[0] != ACK_APPLIED
        {
            stall(shared, client_id, my_generation, &mut cursor);
            return;
        }
        let acked = u64::from_le_bytes(ack[1..9].try_into().expect("8 bytes"));
        let advance = acked.clamp(cursor, wire_seq) - cursor;
        if advance > 0 {
            cursor += advance;
            let mut c = shared.counters.lock().expect("counters lock");
            c.frames_delivered += advance;
            c.cursor_advance += advance;
        }
        if !commit_cursor(shared, client_id, my_generation, cursor) {
            return;
        }
    }
}

/// A frame write or ack missed its deadline: book a slow-client stall,
/// apply the shed policy to the backlog, and notify the breaker.
fn stall(shared: &Shared, client_id: u64, my_generation: u64, cursor: &mut u64) {
    {
        let mut c = shared.counters.lock().expect("counters lock");
        c.slow_client_stalls += 1;
    }
    if shared.cfg.shed == ShedPolicy::Disconnect {
        // Kick with the backlog shed so the resume starts live.
        let head = shared.store.lock().expect("store lock").head();
        let shed = head.saturating_sub(*cursor);
        if shed > 0 {
            *cursor = head;
            let mut c = shared.counters.lock().expect("counters lock");
            c.frames_shed += shed;
            c.cursor_advance += shed;
        }
    }
    // DropOldest / DemoteToTrackOnly keep the cursor for resume.
    let _ = commit_cursor(shared, client_id, my_generation, *cursor);
    shared.breaker_failure(client_id);
}

/// Mirror the local cursor into the session; `false` when a newer
/// connection took the session over (this thread must stop touching it).
fn commit_cursor(shared: &Shared, client_id: u64, my_generation: u64, cursor: u64) -> bool {
    let mut sessions = shared.sessions.lock().expect("sessions lock");
    match sessions.get_mut(&client_id) {
        Some(s) if s.generation == my_generation => {
            s.cursor = cursor;
            true
        }
        _ => false,
    }
}

fn write_admission(stream: &mut TcpStream, status: u8, value: u64) -> std::io::Result<()> {
    let mut buf = [0u8; ACK_BYTES];
    buf[0] = status;
    buf[1..9].copy_from_slice(&value.to_le_bytes());
    stream.write_all(&buf)
}

fn write_frame(stream: &mut TcpStream, wire_seq: u64, frame: &StoredFrame) -> std::io::Result<()> {
    let header = FrameHeader {
        seq: wire_seq,
        len: frame.body.len() as u32,
        crc: frame.crc,
        rung: frame.rung,
    };
    stream.write_all(&header.to_bytes())?;
    stream.write_all(&frame.body)
}

fn write_control(stream: &mut TcpStream, kind: u8, value: u64) -> std::io::Result<()> {
    let mut header = [0u8; HEADER_BYTES];
    header[..4].copy_from_slice(CONTROL_MAGIC);
    header[4..12].copy_from_slice(&value.to_le_bytes());
    header[20] = kind;
    stream.write_all(&header)
}

// ---------------------------------------------------------------------------
// Local viewer (Local / Hybrid modes)
// ---------------------------------------------------------------------------

/// An in-process consumer sharing the ring with socket clients: the
/// "local" half of the hybrid serving split. No sockets, no copies
/// beyond the shared bodies.
pub struct LocalViewer {
    shared: Arc<Shared>,
    cursor: u64,
    delivered: u64,
    track: TrackLog,
}

impl LocalViewer {
    /// Apply every retained frame past the cursor; returns how many.
    pub fn drain_available(&mut self) -> u64 {
        let mut applied = 0;
        loop {
            let frame = {
                let store = self.shared.store.lock().expect("store lock");
                self.cursor = self.cursor.max(store.tail());
                if self.cursor >= store.head() {
                    return applied;
                }
                store.get(self.cursor)
            };
            let Some(frame) = frame else { continue };
            qos::apply_body(&mut self.track, frame.rung, &frame.body);
            self.cursor += 1;
            self.delivered += 1;
            applied += 1;
        }
    }

    /// Frames applied so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The accumulated track.
    pub fn into_track(self) -> TrackLog {
        self.track
    }
}

// ---------------------------------------------------------------------------
// Pipeline tee
// ---------------------------------------------------------------------------

use crate::engine::FrameTransport;
use wrf::WrfModel;

/// A [`FrameTransport`] tee publishing every parked frame's encoded body
/// into a [`FrameServer`]'s ring, while delegating all pipeline
/// semantics to the wrapped transport — the wire-tier sibling of
/// [`crate::broker::BrokerTransport`].
pub struct ServingTransport<T: FrameTransport> {
    inner: T,
    server: Arc<FrameServer>,
    /// Bodies emitted but not yet parked, in emit order, keyed by the
    /// frame's sim-time (strictly increasing across emits) so `park` can
    /// match bodies to committed frames instead of trusting FIFO order.
    pending: VecDeque<(u64, QosRung, Vec<u8>)>,
}

impl<T: FrameTransport> ServingTransport<T> {
    /// Wrap `inner`, teeing frames into `server`.
    pub fn new(inner: T, server: Arc<FrameServer>) -> Self {
        Self {
            inner,
            server,
            pending: VecDeque::new(),
        }
    }

    /// The shared server handle.
    pub fn server(&self) -> Arc<FrameServer> {
        Arc::clone(&self.server)
    }
}

impl<T: FrameTransport> FrameTransport for ServingTransport<T> {
    fn emit(
        &mut self,
        model: &WrfModel,
        sim_min: f64,
        modeled_bytes: u64,
        rung: QosRung,
    ) -> (u64, Vec<u8>) {
        let (disk, payload) = self.inner.emit(model, sim_min, modeled_bytes, rung);
        // The serving ring always carries a decodable body; when the
        // inner transport is modeled (empty payload) a fix-sized body
        // stands in so socket viewers still track the storm.
        let body = if payload.is_empty() {
            qos::encode_fix(&qos::model_fix(model)).to_vec()
        } else {
            payload.clone()
        };
        let served_rung = if payload.is_empty() {
            QosRung::TrackOnly
        } else {
            rung
        };
        self.pending
            .push_back((sim_min.to_bits(), served_rung, body));
        (disk, payload)
    }

    fn decision_frame_bytes(&self, modeled_bytes: u64) -> u64 {
        self.inner.decision_frame_bytes(modeled_bytes)
    }

    fn park(&mut self, id: u64, sim_min: f64, payload: Vec<u8>) {
        // Publish the pending body for *this* frame, identified by its
        // sim-time (`sim_min` crosses the engine's `FrameDone` event
        // bit-exact and strictly increases across emits). Older leftover
        // bodies belong to frames that were emitted but never committed
        // (full-disk drop: no `park` follows), so they are discarded
        // rather than published under the wrong ring sequence.
        let key = sim_min.to_bits();
        while self
            .pending
            .front()
            .is_some_and(|&(pending_key, _, _)| f64::from_bits(pending_key) < sim_min)
        {
            self.pending.pop_front();
        }
        match self.pending.front() {
            Some(&(pending_key, _, _)) if pending_key == key => {
                let (_, rung, body) = self.pending.pop_front().expect("front checked");
                self.server.publish(rung, body);
            }
            newer => debug_assert!(
                newer.is_none(),
                "serving tee parked frame {id} out of emit order"
            ),
        }
        self.inner.park(id, sim_min, payload);
    }

    fn deliver(&mut self, id: u64, sim_min: f64) -> bool {
        self.inner.deliver(id, sim_min)
    }

    fn applied_watermark(&self) -> u64 {
        self.inner.applied_watermark()
    }

    fn finish(&mut self) -> TrackLog {
        self.inner.finish()
    }
}

// ---------------------------------------------------------------------------
// Remote viewer (the wire client)
// ---------------------------------------------------------------------------

/// Why a [`RemoteViewer`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewerEnd {
    /// The server drained; the viewer holds its resume cursor.
    Drained,
    /// The stop flag was raised by the caller.
    Stopped,
    /// The reconnect wall-clock budget ran out.
    BudgetExhausted,
    /// The server quarantined this client id.
    Rejected,
}

/// Wire-client statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ViewerStats {
    /// Frames freshly applied.
    pub delivered: u64,
    /// Replays at or below the watermark (lost-ack redeliveries).
    pub deduped: u64,
    /// Frames the server skipped past this client (shed gaps).
    pub shed: u64,
    /// Connections established after the first.
    pub reconnects: u64,
    /// Admissions deferred by the gate.
    pub deferrals: u64,
    /// Wire-level `DRAIN` controls received: the server served this
    /// client its full backlog before handing over the resume cursor.
    pub drains: u64,
    /// Admissions refused with the draining status: the server was
    /// already going away, so the viewer keeps its watermark as the
    /// resume cursor without having been caught up first.
    pub drain_turnaways: u64,
    /// Bodies whose CRC passed but whose decode failed.
    pub decode_failures: u64,
}

/// Configuration for a [`RemoteViewer`].
#[derive(Debug, Clone)]
pub struct ViewerConfig {
    /// Client id carried in the hello (stable across reconnects).
    pub client_id: u64,
    /// Socket connect/read/write timeout.
    pub io_timeout: Duration,
    /// Reconnect backoff (give it a `max_total_delay` so a vanished
    /// server exhausts in bounded wall time).
    pub backoff: BackoffPolicy,
}

impl ViewerConfig {
    /// A viewer with snappy timeouts suitable for loopback tests.
    pub fn loopback(client_id: u64, seed: u64) -> Self {
        Self {
            client_id,
            io_timeout: Duration::from_millis(500),
            backoff: BackoffPolicy::new(seed)
                .with_base(Duration::from_millis(5))
                .with_cap(Duration::from_millis(100))
                .with_max_attempts(u32::MAX)
                .with_max_total_delay(Duration::from_secs(10)),
        }
    }
}

/// A real socket client: connects, speaks the serving handshake, applies
/// frames into a [`TrackLog`] with exactly-once semantics, acks, and
/// reconnects through backoff when the link dies.
pub struct RemoteViewer {
    addr: SocketAddr,
    cfg: ViewerConfig,
    last_applied: u64,
    ever_connected: bool,
    stats: ViewerStats,
    applied_seqs: Vec<u64>,
    track: TrackLog,
}

impl RemoteViewer {
    /// New viewer against a server (or a fault proxy in front of one).
    pub fn new(addr: SocketAddr, cfg: ViewerConfig) -> Self {
        Self {
            addr,
            cfg,
            last_applied: 0,
            ever_connected: false,
            stats: ViewerStats::default(),
            applied_seqs: Vec::new(),
            track: TrackLog::default(),
        }
    }

    /// Point future reconnects somewhere else (a replacement server).
    pub fn set_addr(&mut self, addr: SocketAddr) {
        self.addr = addr;
    }

    /// Wire watermark (last applied wire sequence == ring cursor).
    pub fn last_applied(&self) -> u64 {
        self.last_applied
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ViewerStats {
        self.stats
    }

    /// Every wire sequence applied, in application order.
    pub fn applied_seqs(&self) -> &[u64] {
        &self.applied_seqs
    }

    /// The accumulated track.
    pub fn track(&self) -> &TrackLog {
        &self.track
    }

    /// Run until the server drains, the caller raises `stop`, the
    /// reconnect budget exhausts, or the server rejects this client.
    pub fn run(&mut self, stop: &AtomicBool) -> ViewerEnd {
        let mut attempt = 0u32;
        loop {
            if stop.load(Ordering::SeqCst) {
                return ViewerEnd::Stopped;
            }
            match self.connect_once(stop) {
                Ok(ConnEnd::Drained) => return ViewerEnd::Drained,
                Ok(ConnEnd::Stopped) => return ViewerEnd::Stopped,
                Ok(ConnEnd::Rejected) => return ViewerEnd::Rejected,
                Ok(ConnEnd::Deferred(ms)) => {
                    self.stats.deferrals += 1;
                    // The gate reserved a distinct retry slot; honor it
                    // (capped so tests stay fast) instead of backoff.
                    std::thread::sleep(Duration::from_millis(ms.min(2_000)));
                    continue;
                }
                Ok(ConnEnd::Interrupted) => {
                    // The session was admitted before dying; reset the
                    // backoff ladder.
                    attempt = 0;
                }
                Err(_) => {}
            }
            attempt += 1;
            match self.cfg.backoff.checked_delay(attempt.saturating_sub(1)) {
                Some(d) => std::thread::sleep(d),
                None => return ViewerEnd::BudgetExhausted,
            }
        }
    }

    fn connect_once(&mut self, stop: &AtomicBool) -> Result<ConnEnd, TransportError> {
        let mut stream = TcpStream::connect_timeout(&self.addr, self.cfg.io_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(self.cfg.io_timeout))?;

        // Hello + admission.
        let mut hello = [0u8; HELLO_BYTES];
        hello[..4].copy_from_slice(HANDSHAKE_MAGIC);
        hello[4..12].copy_from_slice(&self.cfg.client_id.to_le_bytes());
        hello[12..20].copy_from_slice(&self.last_applied.to_le_bytes());
        stream.write_all(&hello)?;
        let mut admission = [0u8; ACK_BYTES];
        read_exact_deadline(&mut stream, &mut admission, self.cfg.io_timeout)?;
        let value = u64::from_le_bytes(admission[1..9].try_into().expect("8 bytes"));
        match admission[0] {
            ADMIT_OK => {}
            ADMIT_DEFER => return Ok(ConnEnd::Deferred(value)),
            ADMIT_REJECT => return Ok(ConnEnd::Rejected),
            ADMIT_DRAIN => {
                self.stats.drain_turnaways += 1;
                return Ok(ConnEnd::Drained);
            }
            _ => return Err(TransportError::Handshake("bad admission status")),
        }
        if self.ever_connected {
            self.stats.reconnects += 1;
        }
        self.ever_connected = true;
        // The server's cursor may sit past our watermark (resume expiry
        // while away): that gap is shed, not silence.
        if value > self.last_applied {
            self.stats.shed += value - self.last_applied;
            self.last_applied = value;
        }

        // Frame loop, over one receive buffer for the whole connection.
        let mut buf = Vec::new();
        loop {
            if stop.load(Ordering::SeqCst) {
                return Ok(ConnEnd::Stopped);
            }
            let mut header = [0u8; HEADER_BYTES];
            if read_exact_deadline(&mut stream, &mut header, self.cfg.io_timeout).is_err() {
                return Ok(ConnEnd::Interrupted);
            }
            if &header[..4] == CONTROL_MAGIC {
                let value = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
                if header[20] == CONTROL_DRAIN {
                    self.stats.drains += 1;
                    if value > self.last_applied {
                        self.stats.shed += value - self.last_applied;
                        self.last_applied = value;
                    }
                    return Ok(ConnEnd::Drained);
                }
                continue;
            }
            let Ok(FrameHeader {
                seq: wire_seq,
                len,
                crc,
                rung,
            }) = FrameHeader::parse(&header)
            else {
                return Ok(ConnEnd::Interrupted);
            };
            // One deadline over the whole body, however many steps the
            // buffer grows in.
            let t0 = Instant::now();
            let Ok(body) = read_body(&mut buf, len as usize, |chunk| {
                let remaining = self.cfg.io_timeout.saturating_sub(t0.elapsed());
                read_exact_deadline(&mut stream, chunk, remaining)
            }) else {
                return Ok(ConnEnd::Interrupted);
            };
            if crc32(body) != crc {
                // Torn mid-stream by a fault: drop the connection and
                // resume from the watermark rather than apply garbage.
                return Ok(ConnEnd::Interrupted);
            }
            if wire_seq <= self.last_applied {
                self.stats.deduped += 1;
            } else {
                if wire_seq > self.last_applied + 1 {
                    self.stats.shed += wire_seq - 1 - self.last_applied;
                }
                if qos::apply_body(&mut self.track, rung, body) {
                    self.stats.delivered += 1;
                    self.applied_seqs.push(wire_seq);
                } else {
                    self.stats.decode_failures += 1;
                }
                self.last_applied = wire_seq;
            }
            let mut ack = [0u8; ACK_BYTES];
            ack[0] = ACK_APPLIED;
            ack[1..9].copy_from_slice(&self.last_applied.to_le_bytes());
            if stream.write_all(&ack).is_err() {
                return Ok(ConnEnd::Interrupted);
            }
        }
    }
}

enum ConnEnd {
    Drained,
    Stopped,
    Rejected,
    Deferred(u64),
    Interrupted,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::{decode_fix, encode_fix};
    use std::io::Read;
    use viz::EyeFix;

    fn fix(i: u64) -> EyeFix {
        EyeFix {
            sim_minutes: i as f64,
            lon: 80.0 + i as f64 * 0.01,
            lat: 15.0 + i as f64 * 0.005,
            pressure_hpa: 990.0 - (i % 50) as f64,
        }
    }

    fn fix_body(i: u64) -> Vec<u8> {
        encode_fix(&fix(i)).to_vec()
    }

    fn quick_cfg() -> ServerConfig {
        ServerConfig {
            handshake_deadline: Duration::from_millis(500),
            write_deadline: Duration::from_millis(500),
            ack_deadline: Duration::from_millis(500),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn a_session_trips_once_and_its_history_stays_trip_after_slots() {
        let breaker = BreakerConfig {
            trip_after: 3,
            window_secs: 10.0,
        };
        let mut s = Session::new(0);
        // 0, 1 — then 20 expires both, so the third failure does not trip.
        let trips: Vec<bool> = [0.0, 1.0, 20.0, 21.0, 22.0, 23.0, 24.0]
            .iter()
            .map(|&now| s.note_failure(now, &breaker))
            .collect();
        assert_eq!(trips, [false, false, false, false, true, false, false]);
        assert!(s.quarantined);
        // A quarantined client that keeps failing inside the window used to
        // keep growing its history.
        assert_eq!(s.failures, [22.0, 23.0, 24.0]);
        // "Never trip" costs a slot per failure inside the window, not
        // `trip_after` slots.
        let never = BreakerConfig {
            trip_after: u32::MAX,
            window_secs: 1.0,
        };
        let mut s = Session::new(0);
        for now in [0.0, 0.5, 1.0, 5.0] {
            assert!(!s.note_failure(now, &never));
        }
        assert_eq!(s.failures, [5.0]);
    }

    #[test]
    fn one_client_applies_every_frame_byte_identically() {
        let server = FrameServer::start(quick_cfg()).expect("bind");
        let addr = server.addr().expect("remote mode");
        for i in 0..20 {
            server.publish(QosRung::TrackOnly, fix_body(i));
        }
        let stop = AtomicBool::new(false);
        let mut viewer = RemoteViewer::new(addr, ViewerConfig::loopback(1, 42));
        let handle = std::thread::spawn({
            let server = server;
            move || {
                // Let the viewer connect and catch up, then drain.
                std::thread::sleep(Duration::from_millis(200));
                server.drain()
            }
        });
        let end = viewer.run(&stop);
        let report = handle.join().expect("drain");
        assert_eq!(end, ViewerEnd::Drained);
        // A fresh (hello=0) client joins at the live head — which was 20
        // at connect time, so it sees nothing new before the drain. A
        // *resuming* client replays. Check the conservation identity.
        let c = report.counters;
        assert_eq!(
            c.frames_delivered + c.frames_shed,
            c.cursor_advance,
            "wire conservation"
        );
    }

    #[test]
    fn resuming_client_replays_from_its_cursor_byte_identically() {
        let server = FrameServer::start(quick_cfg()).expect("bind");
        let addr = server.addr().expect("remote mode");
        let stop = Arc::new(AtomicBool::new(false));
        let mut viewer = RemoteViewer::new(addr, ViewerConfig::loopback(7, 43));
        // Connect first (cursor parks at head 0), then publish.
        let v = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                let end = viewer.run(&stop);
                (viewer, end)
            }
        });
        let t0 = Instant::now();
        while server.connected() == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        for i in 0..30 {
            server.publish(QosRung::TrackOnly, fix_body(i));
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(300));
        let report = server.drain();
        let (viewer, end) = v.join().expect("viewer");
        assert_eq!(end, ViewerEnd::Drained);
        assert_eq!(viewer.stats().delivered, 30, "every frame applied once");
        assert_eq!(viewer.last_applied(), 30);
        assert_eq!(report.resume_cursors.get(&7), Some(&30));
        // Byte-identical: the track is exactly the published fixes.
        let fixes = viewer.track().fixes();
        assert_eq!(fixes.len(), 30);
        for (i, f) in fixes.iter().enumerate() {
            assert_eq!(
                encode_fix(f),
                encode_fix(&fix(i as u64)),
                "fix {i} bit-exact"
            );
        }
        let c = report.counters;
        assert_eq!(c.frames_delivered + c.frames_shed, c.cursor_advance);
        assert_eq!(c.frames_delivered, 30);
        assert_eq!(c.frames_shed, 0);
    }

    #[test]
    fn a_frame_is_checksummed_once_however_many_clients_and_replays_it_serves() {
        const FRAMES: u64 = 24;
        let server = FrameServer::start(quick_cfg()).expect("bind");
        let addr = server.addr().expect("remote mode");
        let shared = Arc::clone(&server.shared);
        let stop = Arc::new(AtomicBool::new(false));
        let spawn_viewer = |id: u64| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut viewer = RemoteViewer::new(addr, ViewerConfig::loopback(id, 40 + id));
                let end = viewer.run(&stop);
                (viewer, end)
            })
        };
        // Two clients on the live tail...
        let mut viewers = vec![spawn_viewer(1), spawn_viewer(2)];
        let t0 = Instant::now();
        while server.connected() < 2 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        for i in 0..FRAMES {
            server.publish(QosRung::TrackOnly, fix_body(i));
        }
        // ...and a third whose session still sits at ring sequence 0 when it
        // connects: the whole stream is replayed to it from the ring.
        shared
            .sessions
            .lock()
            .expect("sessions lock")
            .insert(3, Session::new(0));
        viewers.push(spawn_viewer(3));
        let t0 = Instant::now();
        while server.counters().frames_delivered < 3 * FRAMES
            && t0.elapsed() < Duration::from_secs(5)
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = server.drain();
        for v in viewers {
            let (viewer, end) = v.join().expect("viewer");
            assert_eq!(end, ViewerEnd::Drained);
            assert_eq!(viewer.stats().delivered, FRAMES, "CRC verified, applied");
        }
        assert_eq!(report.counters.frames_delivered, 3 * FRAMES);
        assert_eq!(report.counters.frames_shed, 0);
        assert_eq!(
            shared.checksums.load(Ordering::SeqCst),
            FRAMES,
            "server-side checksums for {FRAMES} publishes and {} deliveries",
            3 * FRAMES
        );
    }

    #[test]
    fn expired_resume_sheds_the_gap_and_counts_a_resume_failure() {
        let cfg = ServerConfig {
            retention_frames: 8,
            ..quick_cfg()
        };
        let server = FrameServer::start(cfg).expect("bind");
        let addr = server.addr().expect("remote mode");
        // A client that applied 2 frames long ago...
        for i in 0..2 {
            server.publish(QosRung::TrackOnly, fix_body(i));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut viewer = RemoteViewer::new(addr, ViewerConfig::loopback(9, 44));
        {
            let stop2 = Arc::clone(&stop);
            let h = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(250));
                stop2.store(true, Ordering::SeqCst);
            });
            let end = viewer.run(&stop);
            assert_eq!(end, ViewerEnd::Stopped);
            h.join().expect("stopper");
        }
        assert_eq!(viewer.last_applied(), 2);
        // ...comes back after the ring rolled far past its cursor.
        for i in 2..40 {
            server.publish(QosRung::TrackOnly, fix_body(i));
        }
        stop.store(false, Ordering::SeqCst);
        let h = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                let end = viewer.run(&stop);
                (viewer, end)
            }
        });
        std::thread::sleep(Duration::from_millis(300));
        let report = server.drain();
        let (viewer, end) = h.join().expect("viewer");
        assert_eq!(end, ViewerEnd::Drained);
        let c = report.counters;
        assert!(c.resume_failures >= 1, "expired cursor noticed");
        assert!(viewer.stats().shed >= 30, "the gap is shed, not silent");
        assert_eq!(viewer.last_applied(), 40, "caught up to the head");
        assert_eq!(c.frames_delivered + c.frames_shed, c.cursor_advance);
        // Exactly-once even across the gap.
        let seqs = viewer.applied_seqs();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    }

    #[test]
    fn slow_client_stall_is_shed_not_a_hang() {
        let cfg = ServerConfig {
            write_deadline: Duration::from_millis(200),
            ack_deadline: Duration::from_millis(200),
            shed: ShedPolicy::Disconnect,
            ..quick_cfg()
        };
        let server = FrameServer::start(cfg).expect("bind");
        let addr = server.addr().expect("remote mode");
        server.publish(QosRung::TrackOnly, fix_body(0));
        // A hand-rolled client that connects, hellos, then never acks.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut hello = [0u8; HELLO_BYTES];
        hello[..4].copy_from_slice(HANDSHAKE_MAGIC);
        hello[4..12].copy_from_slice(&77u64.to_le_bytes());
        stream.write_all(&hello).expect("hello");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let mut admission = [0u8; ACK_BYTES];
        stream.read_exact(&mut admission).expect("admission");
        assert_eq!(admission[0], ADMIT_OK);
        // New frame arrives; we read it but never ack.
        server.publish(QosRung::TrackOnly, fix_body(1));
        let mut header = [0u8; HEADER_BYTES];
        stream.read_exact(&mut header).expect("frame header");
        let started = Instant::now();
        loop {
            if server.counters().slow_client_stalls >= 1 {
                break;
            }
            assert!(
                started.elapsed() < Duration::from_secs(3),
                "stall must be detected within the ack deadline"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let report = server.drain();
        let c = report.counters;
        assert!(c.slow_client_stalls >= 1);
        assert_eq!(c.frames_delivered + c.frames_shed, c.cursor_advance);
    }

    #[test]
    fn quarantine_rejects_a_flapping_client() {
        let cfg = ServerConfig {
            breaker: BreakerConfig {
                trip_after: 2,
                window_secs: 600.0,
            },
            retention_frames: 4,
            ..quick_cfg()
        };
        let server = FrameServer::start(cfg).expect("bind");
        let addr = server.addr().expect("remote mode");
        // Two expired resumes in a row trip the breaker for id 5.
        for round in 0..2u64 {
            for i in 0..8 {
                server.publish(QosRung::TrackOnly, fix_body(round * 8 + i));
            }
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut hello = [0u8; HELLO_BYTES];
            hello[..4].copy_from_slice(HANDSHAKE_MAGIC);
            hello[4..12].copy_from_slice(&5u64.to_le_bytes());
            hello[12..20].copy_from_slice(&1u64.to_le_bytes());
            stream.write_all(&hello).expect("hello");
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .expect("timeout");
            let mut admission = [0u8; ACK_BYTES];
            stream.read_exact(&mut admission).expect("admission");
            if round == 0 {
                assert_eq!(admission[0], ADMIT_OK, "first expiry is tolerated");
            } else {
                assert_eq!(admission[0], ADMIT_REJECT, "breaker tripped");
            }
        }
        let c = server.counters();
        assert_eq!(c.quarantined_clients, 1);
        // Round 0 books one expired resume; the unacked frame that
        // follows books a stall — both count toward the trip.
        assert!(c.resume_failures >= 1);
    }

    #[test]
    fn hybrid_mode_serves_local_and_remote_from_one_ring() {
        let cfg = ServerConfig {
            mode: ServingMode::Hybrid,
            ..quick_cfg()
        };
        let server = FrameServer::start(cfg).expect("bind");
        let addr = server.addr().expect("hybrid binds a listener");
        let mut local = server.local_viewer().expect("hybrid has local viewers");
        let stop = Arc::new(AtomicBool::new(false));
        let mut viewer = RemoteViewer::new(addr, ViewerConfig::loopback(3, 45));
        let h = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                let end = viewer.run(&stop);
                (viewer, end)
            }
        });
        let t0 = Instant::now();
        while server.connected() == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        for i in 0..10 {
            server.publish(QosRung::TrackOnly, fix_body(i));
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(local.drain_available(), 10, "local path sees the ring");
        let _ = server.drain();
        let (viewer, end) = h.join().expect("viewer");
        assert_eq!(end, ViewerEnd::Drained);
        assert_eq!(viewer.stats().delivered, 10, "remote path sees the ring");
        let local_track = local.into_track();
        assert_eq!(local_track.fixes().len(), 10);
        // Both consumers decoded the same bytes.
        for (a, b) in local_track.fixes().iter().zip(viewer.track().fixes()) {
            assert_eq!(encode_fix(a), encode_fix(b));
        }
    }

    #[test]
    fn local_mode_binds_no_listener() {
        let cfg = ServerConfig {
            mode: ServingMode::Local,
            ..quick_cfg()
        };
        let server = FrameServer::start(cfg).expect("no bind needed");
        assert!(server.addr().is_none());
        let mut local = server.local_viewer().expect("local viewers");
        server.publish(QosRung::TrackOnly, fix_body(0));
        assert_eq!(local.drain_available(), 1);
        let f = decode_fix(&fix_body(0)).expect("decodable");
        assert_eq!(encode_fix(&local.into_track().fixes()[0]), encode_fix(&f));
    }

    #[test]
    fn draining_admission_turns_new_clients_away() {
        let server = FrameServer::start(quick_cfg()).expect("bind");
        let addr = server.addr().expect("remote mode");
        // Start the drain with no clients; it completes immediately, but
        // the listener answers '#' until the accept loop stops.
        let shared = Arc::clone(&server.shared);
        shared.draining.store(true, Ordering::SeqCst);
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut hello = [0u8; HELLO_BYTES];
        hello[..4].copy_from_slice(HANDSHAKE_MAGIC);
        hello[4..12].copy_from_slice(&1u64.to_le_bytes());
        stream.write_all(&hello).expect("hello");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let mut admission = [0u8; ACK_BYTES];
        stream.read_exact(&mut admission).expect("admission");
        assert_eq!(admission[0], ADMIT_DRAIN);
        let _ = server.drain();
    }

    #[test]
    fn stale_head_snapshot_reconnect_does_not_invert_cursor_bounds() {
        // A reconnect reads the store head, then can lose the
        // sessions-lock race to an old-generation serving thread that
        // commits the same client's cursor *past* that snapshot
        // (stall-shed to a fresher head after new publishes). The
        // admission path must tolerate cursor > head-snapshot instead of
        // panicking in `clamp` (min > max) while holding the sessions
        // and counters mutexes — one racy reconnect would poison them
        // and crash the whole server.
        let server = FrameServer::start(quick_cfg()).expect("bind");
        let addr = server.addr().expect("remote mode");
        for _ in 0..3 {
            server.publish(QosRung::FullRes, vec![0u8; 16]);
        }
        let head = server.head();
        // The racing old-generation commit: cursor beyond the head this
        // connection is about to snapshot.
        server
            .shared
            .sessions
            .lock()
            .expect("sessions lock")
            .insert(9, Session::new(head + 5));
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut hello = [0u8; HELLO_BYTES];
        hello[..4].copy_from_slice(HANDSHAKE_MAGIC);
        hello[4..12].copy_from_slice(&9u64.to_le_bytes());
        // An applied watermark between the snapshot and the cursor:
        // exactly the inverted clamp bounds.
        hello[12..20].copy_from_slice(&(head + 3).to_le_bytes());
        stream.write_all(&hello).expect("hello");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let mut admission = [0u8; ACK_BYTES];
        stream.read_exact(&mut admission).expect("admission");
        assert_eq!(admission[0], ADMIT_OK, "admitted without panicking");
        let cursor = u64::from_le_bytes(admission[1..9].try_into().expect("8 bytes"));
        assert_eq!(cursor, head + 5, "the fresher cursor never moves backward");
        drop(stream);
        let _ = server.drain();
    }

    #[test]
    fn serving_transport_tees_pipeline_frames_into_the_ring() {
        use crate::engine::ModeledTransport;
        use wrf::ModelConfig;

        let cfg = ServerConfig {
            mode: ServingMode::Local,
            ..quick_cfg()
        };
        let server = Arc::new(FrameServer::start(cfg).expect("no bind"));
        let mut tee = ServingTransport::new(ModeledTransport, Arc::clone(&server));
        let mut model =
            WrfModel::new(ModelConfig::aila_default().with_decimation(16)).expect("valid");
        let mut local = server.local_viewer().expect("local viewer");
        for i in 0..3 {
            model
                .advance_to_minutes(model.sim_minutes() + 60.0, 1)
                .expect("finite");
            let (_, payload) = tee.emit(&model, model.sim_minutes(), 1_000_000, QosRung::FullRes);
            tee.park(i, model.sim_minutes(), payload);
        }
        assert_eq!(server.head(), 3, "every parked frame published");
        assert_eq!(local.drain_available(), 3);
        let (lon, lat) = model.eye_lonlat();
        let last = *local.into_track().fixes().last().expect("fixes");
        assert_eq!(last.lon, lon, "modeled tee serves the true fix");
        assert_eq!(last.lat, lat);
    }
}
