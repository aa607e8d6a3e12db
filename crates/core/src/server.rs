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
//! ## Wire protocol
//!
//! Frames and acks use the codec of [`crate::net_transport`] (`AFR3`
//! header with seq / length / CRC-32 / rung byte; 9-byte `+`-status
//! acks). In front of them the serving tier puts a client hello and an
//! admission verdict, and it adds one control frame:
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
//! Wire sequences are 1-based (`0` = nothing applied), so a
//! frame at ring sequence `s` travels with wire sequence `s + 1` and a
//! client whose last-applied is `c` holds ring cursor `c`.
//!
//! ## Robustness posture
//!
//! Every wire path is bounded: the client hello is read under one
//! overall handshake deadline (the same deadline loop the viewer reads
//! its verdict and frames with, so a trickled hello cannot stretch it),
//! frame writes carry a write deadline, and acks an ack deadline. A
//! deadline miss is a *slow-client stall*: the breaker records a failure
//! and the session's backlog is handled by the configured [`ShedPolicy`]:
//! `DropOldest` keeps the cursor for resume, `DemoteToTrackOnly` pins the
//! session to fix-sized frames, `Disconnect` sheds the whole backlog to
//! the head so a kicked laggard cannot re-kick itself forever. Graceful
//! drain stops admissions, finishes serving every retained frame to
//! connected clients (still under the write deadlines), hands each a
//! `DRAIN` control carrying its resume cursor, and returns the cursor map
//! so a replacement server can be started at the same ring position with
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
//! Retained bodies are not all on the heap: past a byte-bounded hot tail
//! of the newest frames, a body lives only in an unlinked spill segment
//! under [`std::env::temp_dir`], so `TMPDIR` must name a disk (see
//! DESIGN §16, "Where a retained body lives").
//!
//! Conservation holds at the wire exactly as in the modeled broker:
//! `frames_delivered + frames_shed == cursor_advance`, checked by the
//! soak's invariant battery against hundreds of real loopback clients.

pub mod toxic;

use crate::broker::{
    Admission, AdmissionGate, BreakerConfig, FrameLog, ShedPolicy, LIVE_LAG_FRAMES,
};
use crate::net_transport::{
    read_body, read_exact_deadline, FrameHeader, TransportError, ACK_APPLIED, HANDSHAKE_MAGIC,
    HEADER_BYTES,
};
use crate::qos::{self, QosRung};
use crate::resilience::{crc32, BackoffPolicy};
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::fs::{FileExt, OpenOptionsExt};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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

/// The client hello: `AHL2 | u64 LE client id | u64 LE last-applied`.
fn encode_hello(client_id: u64, last_applied: u64) -> [u8; HELLO_BYTES] {
    let mut hello = [0u8; HELLO_BYTES];
    hello[..4].copy_from_slice(HANDSHAKE_MAGIC);
    hello[4..12].copy_from_slice(&client_id.to_le_bytes());
    hello[12..20].copy_from_slice(&last_applied.to_le_bytes());
    hello
}

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
    /// Nominal frame size handed to the ring's [`FrameLog`]. No server
    /// code reads the log's byte total: what the server holds is set by
    /// the bodies published (resident bodies are bounded by the store's
    /// hot tail, the rest lies in spill segments).
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
// Frame store: the broker ring, a hot tail of bodies, the rest on disk
// ---------------------------------------------------------------------------

/// Bytes of written-through bodies the store keeps resident: the hot tail
/// of the newest frames, which live and near-live deliveries read. A body
/// is written through when a full ring of bodies its size would exceed
/// this, so a ring of fix-sized frames never touches the disk.
const HOT_TAIL_BYTES: usize = 8 << 20;

/// Capacity of one spill segment; a larger body gets a segment of its own
/// length.
const SEGMENT_BYTES: u64 = 8 << 20;

/// File-name prefix of spill segments in [`std::env::temp_dir`], followed
/// by the pid and a per-process counter. A segment is unlinked as soon as
/// it is open, so the name exists only for that instant.
const SPILL_PREFIX: &str = "afs-spill-";

/// One spill segment: an unlinked file of fixed capacity, rewritten from
/// offset 0 once no slot and no reader holds it any more.
#[derive(Debug)]
struct Segment {
    file: File,
    capacity: u64,
}

impl Segment {
    fn create(capacity: u64) -> io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "{SPILL_PREFIX}{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .mode(0o600)
            .open(&path)?;
        std::fs::remove_file(&path)?;
        Ok(Self { file, capacity })
    }
}

/// Where a written-through body lies. Holding one keeps its segment from
/// being recycled.
#[derive(Debug, Clone)]
struct Extent {
    segment: Arc<Segment>,
    offset: u64,
    len: usize,
}

/// The publisher-side segment writer.
#[derive(Debug, Default)]
struct Spill {
    /// Every open segment; one whose `Arc` only this list holds is free.
    segments: Vec<Arc<Segment>>,
    /// The segment being filled (an index into `segments`) and its fill
    /// mark.
    current: Option<(usize, u64)>,
}

impl Spill {
    fn write(&mut self, body: &[u8]) -> io::Result<Extent> {
        let len = body.len() as u64;
        let (i, offset) = match self.current {
            Some((i, at)) if at + len <= self.segments[i].capacity => (i, at),
            _ => (self.roll(len)?, 0),
        };
        self.current = Some((i, offset + len));
        let segment = &self.segments[i];
        segment.file.write_all_at(body, offset)?;
        Ok(Extent {
            segment: Arc::clone(segment),
            offset,
            len: body.len(),
        })
    }

    /// A free segment with room for `len` bytes, else a new one. Reusing
    /// a segment rewrites pages the page cache already holds.
    fn roll(&mut self, len: u64) -> io::Result<usize> {
        self.current = None;
        // Only this list can hand out a new reference, and it is behind
        // the spill lock, so a count of one stays one. Free segments too
        // small for this body are closed rather than kept forever.
        self.segments
            .retain(|s| Arc::strong_count(s) > 1 || s.capacity >= len);
        if let Some(i) = self.segments.iter().position(|s| Arc::strong_count(s) == 1) {
            // Pairs with the release decrement of the last reader's `Arc`:
            // its read is done before this segment is overwritten.
            fence(Ordering::Acquire);
            return Ok(i);
        }
        self.segments
            .push(Arc::new(Segment::create(len.max(SEGMENT_BYTES))?));
        Ok(self.segments.len() - 1)
    }
}

/// One retained frame: the rung and the body's CRC-32, computed once when
/// it enters the ring, and its body — resident, on disk, or both while it
/// is in the hot tail.
#[derive(Debug)]
struct Slot {
    rung: QosRung,
    crc: u32,
    resident: Option<Arc<Vec<u8>>>,
    spilled: Option<Extent>,
}

/// A frame taken from the ring under the store lock; its bytes are read
/// with [`FrameStore::load`] after the lock is released.
#[derive(Debug)]
struct Fetched {
    rung: QosRung,
    crc: u32,
    body: Held,
}

#[derive(Debug)]
enum Held {
    Memory(Arc<Vec<u8>>),
    Disk(Extent),
}

/// The part of the store behind the store lock: the modeled broker's
/// counters-only [`FrameLog`] with a slot per retained frame alongside.
/// `slots[i]` is ring sequence `base + tail + i`; `base` lets a
/// replacement server continue a drained predecessor's numbering.
#[derive(Debug)]
struct Ring {
    base: u64,
    log: FrameLog,
    slots: VecDeque<Slot>,
    /// Leading slots past the hot tail: their written-through bodies are
    /// no longer resident.
    cold: usize,
    /// Resident bytes of written-through bodies in `slots[cold..]`.
    hot_bytes: usize,
}

impl Ring {
    fn push(&mut self, slot: Slot) -> u64 {
        let seq = self.base + self.log.append();
        self.hot_bytes += slot.spilled.as_ref().map_or(0, |extent| extent.len);
        self.slots.push_back(slot);
        while self.slots.len() as u64 > self.log.len() {
            let gone = self.slots.pop_front().expect("more slots than frames");
            if self.cold > 0 {
                self.cold -= 1;
            } else if let (Some(body), Some(_)) = (&gone.resident, &gone.spilled) {
                self.hot_bytes -= body.len();
            }
        }
        // Past the budget the oldest hot bodies are released, but the
        // frames a live client may still be sent stay resident.
        while self.hot_bytes > HOT_TAIL_BYTES
            && self.slots.len() - self.cold > LIVE_LAG_FRAMES as usize + 1
        {
            let slot = &mut self.slots[self.cold];
            if slot.spilled.is_some() {
                if let Some(body) = slot.resident.take() {
                    self.hot_bytes -= body.len();
                }
            }
            self.cold += 1;
        }
        seq
    }

    fn head(&self) -> u64 {
        self.base + self.log.head()
    }

    fn tail(&self) -> u64 {
        self.base + self.log.tail()
    }

    fn get(&self, seq: u64) -> Option<Fetched> {
        if seq < self.tail() || seq >= self.head() {
            return None;
        }
        let slot = &self.slots[(seq - self.tail()) as usize];
        let body = match &slot.resident {
            Some(body) => Held::Memory(Arc::clone(body)),
            None => Held::Disk(slot.spilled.clone().expect("a released body was spilled")),
        };
        Some(Fetched {
            rung: slot.rung,
            crc: slot.crc,
            body,
        })
    }
}

/// Retained frames: the ring behind the store lock, and the spill writer
/// behind a lock of its own so that disk writes never hold up readers.
/// The only place that decides whether a body is resident and where it
/// lies on disk.
#[derive(Debug)]
struct FrameStore {
    ring: Mutex<Ring>,
    spill: Mutex<Spill>,
    /// Longest body kept resident for its whole ring life: a full ring of
    /// longer ones would exceed [`HOT_TAIL_BYTES`].
    resident_max: usize,
    #[cfg(test)]
    faults: Faults,
}

/// Injected segment I/O failures: each counter is how many of the next
/// writes or reads fail.
#[cfg(test)]
#[derive(Debug, Default)]
struct Faults {
    writes: AtomicU64,
    reads: AtomicU64,
}

#[cfg(test)]
fn injected(left: &AtomicU64, what: &str) -> io::Result<()> {
    match left.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)) {
        Ok(_) => Err(io::Error::other(format!("injected {what} failure"))),
        Err(_) => Ok(()),
    }
}

impl FrameStore {
    fn new(frame_bytes: u64, retention: u64, base: u64) -> Self {
        Self {
            ring: Mutex::new(Ring {
                base,
                log: FrameLog::new(frame_bytes, retention),
                slots: VecDeque::new(),
                cold: 0,
                hot_bytes: 0,
            }),
            spill: Mutex::new(Spill::default()),
            resident_max: HOT_TAIL_BYTES / retention.max(1) as usize,
            #[cfg(test)]
            faults: Faults::default(),
        }
    }

    /// The store lock.
    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().expect("store lock")
    }

    /// Append a frame; returns its ring sequence. A body too long to keep
    /// a whole ring of in memory is first written to the current spill
    /// segment, on the caller's thread and outside the store lock; if
    /// that fails, the body stays resident.
    fn publish(&self, rung: QosRung, crc: u32, body: Vec<u8>) -> u64 {
        let spilled = if body.len() > self.resident_max {
            self.write_through(&body).ok()
        } else {
            None
        };
        self.lock().push(Slot {
            rung,
            crc,
            resident: Some(Arc::new(body)),
            spilled,
        })
    }

    fn write_through(&self, body: &[u8]) -> io::Result<Extent> {
        #[cfg(test)]
        injected(&self.faults.writes, "write")?;
        self.spill.lock().expect("spill lock").write(body)
    }

    /// The bytes of a fetched frame: shared from the hot tail, or read
    /// from its segment into `buf`, which grows to the longest body read.
    /// Never called with the store lock held.
    fn load<'a>(&self, frame: &'a Fetched, buf: &'a mut Vec<u8>) -> io::Result<&'a [u8]> {
        match &frame.body {
            Held::Memory(body) => Ok(body),
            Held::Disk(extent) => {
                #[cfg(test)]
                injected(&self.faults.reads, "read")?;
                if buf.len() < extent.len {
                    buf.resize(extent.len, 0);
                }
                let bytes = &mut buf[..extent.len];
                extent.segment.file.read_exact_at(bytes, extent.offset)?;
                Ok(bytes)
            }
        }
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
    store: FrameStore,
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
            store: FrameStore::new(cfg.frame_bytes, cfg.retention_frames, first_seq),
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
    /// it and never repeat it. A body written through to a spill segment
    /// is written here too, after the checksum and before the lock.
    pub fn publish(&self, rung: QosRung, body: Vec<u8>) -> u64 {
        let crc = self.shared.checksum(&body);
        let seq = self.shared.store.publish(rung, crc, body);
        self.shared.frame_cv.notify_all();
        seq
    }

    /// Next ring sequence to be published.
    pub fn head(&self) -> u64 {
        self.shared.store.lock().head()
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
        let cursor = self.shared.store.lock().tail();
        Some(LocalViewer {
            shared: Arc::clone(&self.shared),
            cursor,
            delivered: 0,
            track: TrackLog::default(),
            buf: Vec::new(),
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
        let head = self.shared.store.lock().head();
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
        let store = shared.store.lock();
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
    let mut buf = Vec::new();
    loop {
        // --- wait for a frame (or drain) ---------------------------------
        let (frame, is_catchup) = {
            let mut store = shared.store.lock();
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
                Some(f) => (f, store.head() - cursor > LIVE_LAG_FRAMES),
                None => {
                    // Evicted while we waited: resume expiry mid-session.
                    let tail = store.tail();
                    drop(store);
                    cursor = shed_lost(shared, cursor, tail.max(cursor));
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

        // --- the body, shared from the hot tail or read from its segment
        // into this connection's buffer, outside the store lock ------------
        let body = match shared.store.load(&frame, &mut buf) {
            Ok(body) => body,
            Err(_) => {
                cursor = shed_lost(shared, cursor, cursor + 1);
                if !commit_cursor(shared, client_id, my_generation, cursor) {
                    return;
                }
                continue;
            }
        };

        // --- pace against the shared downlink -----------------------------
        let bytes = (HEADER_BYTES + body.len()) as f64;
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
        if write_frame(stream, wire_seq, &frame, body).is_err() {
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

/// Frames `[cursor, to)` can no longer be served — evicted while the
/// session waited, or a body that could not be read back from its
/// segment: they are shed and booked like an expired resume. Returns the
/// new cursor, `to`.
fn shed_lost(shared: &Shared, cursor: u64, to: u64) -> u64 {
    let mut c = shared.counters.lock().expect("counters lock");
    c.frames_shed += to - cursor;
    c.cursor_advance += to - cursor;
    c.resume_failures += 1;
    to
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
        let head = shared.store.lock().head();
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

fn write_frame(
    stream: &mut TcpStream,
    wire_seq: u64,
    frame: &Fetched,
    body: &[u8],
) -> std::io::Result<()> {
    let header = FrameHeader {
        seq: wire_seq,
        len: body.len() as u32,
        crc: frame.crc,
        rung: frame.rung,
    };
    stream.write_all(&header.to_bytes())?;
    stream.write_all(body)
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
/// "local" half of the hybrid serving split. No sockets; hot-tail bodies
/// are shared, older ones are read into one buffer.
pub struct LocalViewer {
    shared: Arc<Shared>,
    cursor: u64,
    delivered: u64,
    track: TrackLog,
    buf: Vec<u8>,
}

impl LocalViewer {
    /// Apply every retained frame past the cursor; returns how many. A
    /// frame whose body cannot be read back is skipped, not retried.
    pub fn drain_available(&mut self) -> u64 {
        let mut applied = 0;
        loop {
            let frame = {
                let store = self.shared.store.lock();
                self.cursor = self.cursor.max(store.tail());
                if self.cursor >= store.head() {
                    return applied;
                }
                store.get(self.cursor)
            };
            self.cursor += 1;
            let Some(frame) = frame else { continue };
            let Ok(body) = self.shared.store.load(&frame, &mut self.buf) else {
                continue;
            };
            qos::apply_body(&mut self.track, frame.rung, body);
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

/// The pipeline's one tee: a [`FrameTransport`] publishing every parked
/// frame's encoded body into a [`FrameServer`]'s ring, while delegating
/// all pipeline semantics to the wrapped transport. The modeled broker
/// ([`crate::broker`]) needs no tee — it generates its own frame stream
/// on the DES clock.
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
        stream.write_all(&encode_hello(self.cfg.client_id, self.last_applied))?;
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
        stream.write_all(&encode_hello(77, 0)).expect("hello");
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
            stream.write_all(&encode_hello(5, 1)).expect("hello");
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
        stream.write_all(&encode_hello(1, 0)).expect("hello");
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
        // An applied watermark between the snapshot and the cursor:
        // exactly the inverted clamp bounds.
        stream.write_all(&encode_hello(9, head + 3)).expect("hello");
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

    // --- where a retained body lives ---------------------------------------

    /// `len` bytes of noise unique to `seq`.
    fn noise(seq: u64, len: usize) -> Vec<u8> {
        let mut z = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(seq + 1) | 1;
        let mut out = vec![0u8; len];
        for chunk in out.chunks_mut(8) {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
        }
        out
    }

    /// A full-resolution body of about `4 × 64 × nx` bytes whose eye fix
    /// is unique to `seq`.
    fn eye_body(seq: u64, nx: usize) -> Vec<u8> {
        use ncdf::{AttrValue, Data, Dataset};
        let mut ds = Dataset::new();
        ds.set_attr("sim_minutes", AttrValue::F64(seq as f64));
        ds.set_attr(
            "domain_lonlat",
            AttrValue::F64List(vec![80.0, 10.0, 95.0, 25.0]),
        );
        let y = ds.add_dim("y", 64).expect("new dim");
        let x = ds.add_dim("x", nx).expect("new dim");
        let mut pressure = vec![1000.0f32; 64 * nx];
        pressure[(seq as usize * 7919) % (64 * nx)] = 950.0 - (seq % 40) as f32;
        ds.add_var("pressure", &[y, x], Data::F32(pressure))
            .expect("fills its dims");
        let mut out = Vec::new();
        ds.encode_into(&mut out);
        out
    }

    /// Load every sequence in `[tail, head)` and compare it with what was
    /// published; returns how many came from disk.
    fn assert_window_loads(store: &FrameStore, published: &[(u64, Vec<u8>)]) -> usize {
        let (tail, head) = {
            let ring = store.lock();
            (ring.tail(), ring.head())
        };
        let window: Vec<_> = published
            .iter()
            .filter(|(s, _)| (tail..head).contains(s))
            .collect();
        assert_eq!(window.len() as u64, head - tail, "every retained sequence");
        let mut buf = Vec::new();
        let mut cold = 0;
        for (seq, body) in window {
            let frame = store.lock().get(*seq).expect("retained");
            cold += usize::from(matches!(frame.body, Held::Disk(_)));
            let got = store.load(&frame, &mut buf).expect("segment read");
            assert_eq!(got, &body[..], "sequence {seq} byte-identical");
            assert_eq!(frame.crc, *seq as u32, "the checksum handed in");
        }
        assert!(store.lock().get(head).is_none());
        assert!(tail == 0 || store.lock().get(tail - 1).is_none());
        cold
    }

    #[test]
    fn spill_every_retained_sequence_loads_byte_identically() {
        // (retention, base, body lengths cycled by publish number,
        // publishes, whether part of the window ends up cold)
        let at = |retention: usize| HOT_TAIL_BYTES / retention;
        let cases: [(u64, u64, Vec<usize>, u64, bool); 5] = [
            // Exactly at the threshold: a full ring fits, nothing spills.
            (64, 0, vec![at(64)], 100, false),
            // One byte over: written through, several segment recycles.
            (64, 0, vec![at(64) + 1], 250, true),
            // A drained predecessor's base, mixed sizes on both sides of
            // the threshold.
            (
                32,
                1_000,
                vec![32, at(32) + 1, 5_000, 6 * at(32), 1, at(32), 2 * at(32)],
                60,
                true,
            ),
            // Bodies over the hot budget: the live lag stays resident.
            (8, 7, vec![at(8) + 1, 9 * at(8) / 8], 20, true),
            // A body longer than a segment gets a segment of its own.
            (4, 0, vec![SEGMENT_BYTES as usize + 1, at(4) + 1], 8, true),
        ];
        for (retention, base, lens, publishes, has_cold) in cases {
            let store = FrameStore::new(32, retention, base);
            let mut published = Vec::new();
            let mut written = 0;
            for n in 0..publishes {
                let seq = base + n;
                let body = noise(seq, lens[n as usize % lens.len()]);
                let published_at = store.publish(QosRung::FullRes, seq as u32, body.clone());
                assert_eq!(published_at, seq);
                if body.len() > store.resident_max {
                    written += body.len();
                }
                published.push((seq, body));
                if published.len() as u64 > retention {
                    published.remove(0);
                }
                let ring = store.lock();
                let longest = lens.iter().copied().max().unwrap_or(0);
                assert!(
                    ring.hot_bytes <= HOT_TAIL_BYTES.max((LIVE_LAG_FRAMES as usize + 1) * longest),
                    "hot tail {} B over budget",
                    ring.hot_bytes
                );
                // The newest frames a live client may be sent are resident.
                let newest = ring.slots.iter().rev().take(LIVE_LAG_FRAMES as usize + 1);
                assert!(newest.into_iter().all(|s| s.resident.is_some()));
            }
            let cold = assert_window_loads(&store, &published);
            assert_eq!(cold > 0, has_cold, "retention {retention}: {cold} cold");
            let segments = store.spill.lock().expect("spill lock").segments.len();
            if retention == 64 && has_cold {
                // 250 bodies of 128 KiB are 31 MiB through 8 MiB segments,
                // of which the ring needs about one.
                assert!(written as u64 > 3 * SEGMENT_BYTES);
                assert!(segments <= 3, "{segments} segments: none recycled");
            }
        }
    }

    #[test]
    fn spill_a_fetched_slot_outlives_the_recycling_of_its_segment() {
        let len = HOT_TAIL_BYTES / 16 + 1;
        let store = FrameStore::new(32, 16, 0);
        for seq in 0..40 {
            store.publish(QosRung::FullRes, 0, noise(seq, len));
        }
        let tail = store.lock().tail();
        let held = store.lock().get(tail).expect("retained");
        assert!(matches!(held.body, Held::Disk(_)), "the tail is cold");
        // Every frame in the held segment leaves the ring, and four
        // segments' worth more are written.
        for seq in 40..100 {
            store.publish(QosRung::FullRes, 0, noise(seq, len));
        }
        assert!(store.lock().get(tail).is_none(), "evicted");
        let segments = store.spill.lock().expect("spill lock").segments.len();
        assert!(segments <= 4, "{segments} segments: none recycled");
        let mut buf = Vec::new();
        let got = store.load(&held, &mut buf).expect("segment read");
        assert_eq!(
            got,
            &noise(tail, len)[..],
            "its own bytes, not a recycler's"
        );
    }

    #[test]
    fn spill_a_failed_write_keeps_the_body_resident() {
        // 16 bodies of 1 MiB: the hot tail holds the newest 8.
        let store = FrameStore::new(32, 16, 0);
        store.faults.writes.store(1, Ordering::SeqCst);
        let published: Vec<_> = (0..16)
            .map(|seq| {
                let body = noise(seq, HOT_TAIL_BYTES / 8);
                store.publish(QosRung::FullRes, seq as u32, body.clone());
                (seq, body)
            })
            .collect();
        {
            let ring = store.lock();
            let held = |seq| ring.get(seq).expect("retained").body;
            assert!(
                matches!(held(0), Held::Memory(_)),
                "the body whose write failed stays in memory past the hot tail"
            );
            assert!(matches!(held(1), Held::Disk(_)));
            assert!(matches!(held(15), Held::Memory(_)));
        }
        assert_eq!(assert_window_loads(&store, &published), 7);
    }

    #[test]
    fn spill_a_local_viewer_drains_a_large_body_ring_from_its_tail() {
        let cfg = ServerConfig {
            mode: ServingMode::Hybrid,
            retention_frames: 64,
            ..quick_cfg()
        };
        let server = FrameServer::start(cfg).expect("bind");
        // 64 bodies of 256 KiB are twice the hot tail: half the ring is cold.
        let nx = 1024;
        let mut want = TrackLog::default();
        for seq in 0..150 {
            let body = eye_body(seq, nx);
            if seq >= 150 - 64 {
                assert!(qos::apply_body(&mut want, QosRung::FullRes, &body));
            }
            server.publish(QosRung::FullRes, body);
        }
        let mut local = server.local_viewer().expect("hybrid has local viewers");
        assert_eq!(local.drain_available(), 64, "tail to head");
        let cold = (86..150)
            .filter(|&s| {
                matches!(
                    server.shared.store.lock().get(s).map(|f| f.body),
                    Some(Held::Disk(_))
                )
            })
            .count();
        assert!(cold >= 30, "{cold} cold frames");
        assert_eq!(local.into_track().fixes(), want.fixes(), "byte-identical");
    }

    #[test]
    fn spill_a_failed_read_sheds_one_frame_and_the_local_viewer_advances() {
        let cfg = ServerConfig {
            mode: ServingMode::Hybrid,
            retention_frames: 64,
            max_backlog_frames: 64,
            ..quick_cfg()
        };
        let server = FrameServer::start(cfg).expect("bind");
        let addr = server.addr().expect("hybrid binds a listener");
        let nx = 1024;
        let bodies: Vec<Vec<u8>> = (0..100).map(|seq| eye_body(seq, nx)).collect();
        for body in &bodies {
            server.publish(QosRung::FullRes, body.clone());
        }
        let tail = server.shared.store.lock().tail();

        // In process: the first cold read fails, the viewer skips it.
        let mut local = server.local_viewer().expect("local viewer");
        server.shared.store.faults.reads.store(1, Ordering::SeqCst);
        assert_eq!(local.drain_available(), 63, "one skipped, never retried");
        assert_eq!(local.drain_available(), 0);
        let mut want = TrackLog::default();
        for body in &bodies[tail as usize + 1..] {
            qos::apply_body(&mut want, QosRung::FullRes, body);
        }
        assert_eq!(local.into_track().fixes(), want.fixes());

        // Over a socket: a client resuming at the tail loses exactly the
        // frame whose read fails.
        server
            .shared
            .sessions
            .lock()
            .expect("sessions lock")
            .insert(5, Session::new(tail));
        server.shared.store.faults.reads.store(1, Ordering::SeqCst);
        let stop = Arc::new(AtomicBool::new(false));
        let mut viewer = RemoteViewer::new(addr, ViewerConfig::loopback(5, 46));
        let h = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                let end = viewer.run(&stop);
                (viewer, end)
            }
        });
        let t0 = Instant::now();
        while server.counters().cursor_advance < 100 - tail
            && t0.elapsed() < Duration::from_secs(10)
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = server.drain();
        let (viewer, end) = h.join().expect("viewer");
        assert_eq!(end, ViewerEnd::Drained);
        let c = report.counters;
        assert_eq!((c.frames_delivered, c.frames_shed), (99 - tail, 1));
        assert_eq!(c.resume_failures, 1, "booked like an eviction");
        assert_eq!(c.frames_delivered + c.frames_shed, c.cursor_advance);
        // The placed session is ahead of the viewer's own watermark (0).
        assert_eq!(viewer.stats().shed, tail + 1);
        let want: Vec<u64> = (tail + 2..=100).collect();
        assert_eq!(viewer.applied_seqs(), want.as_slice());
    }
}
