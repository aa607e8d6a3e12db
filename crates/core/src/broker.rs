//! Overload-safe frame fan-out broker — the serving tier between one
//! simulation's frame stream and 10^5 remote viewers.
//!
//! The paper's pipeline ends at a handful of known receivers
//! ([`crate::fanout`] broadcasts to three sites). This module models the
//! next tier out: a broker that multiplexes the stream to an *open*
//! population of client sessions, each with its own resume-from-last-ack
//! cursor (the AHL2 handshake of [`crate::net_transport`]) and its own
//! QoS ladder rung ([`crate::qos`]). The interesting regime is overload —
//! a mass reconnect after a WAN outage, a thundering herd at startup, a
//! flapping client squad — and the broker's job is to degrade *by policy*
//! instead of collapsing:
//!
//! - **Admission control** ([`AdmissionGate`]): a token bucket with a
//!   virtual FIFO queue. Overflow admissions are not dropped, they are
//!   *deferred* with an explicit `retry_after` that spreads retries at
//!   exactly the admission rate — so a storm of 10^4 simultaneous
//!   reconnects drains in order instead of retrying in lockstep.
//! - **Bulkheads** ([`ShedPolicy`]): every client's backlog is bounded.
//!   A slow client sheds its own oldest frames, demotes itself to the
//!   track-only rung, or is disconnected — it never grows broker memory,
//!   which is structurally bounded by the shared [`FrameLog`] ring.
//! - **Catch-up-storm suppression**: reconnecting clients replay from
//!   their cursor at a paced burst ([`BrokerConfig::catchup_burst_frames`])
//!   out of a capped share of the link ([`BrokerConfig::catchup_share`]),
//!   so catch-up traffic can never starve live frames.
//! - **Circuit breakers** ([`BreakerConfig`]): a client that fails
//!   repeatedly inside a window (flapping, resume loops) is quarantined
//!   for the run instead of consuming admission and link capacity.
//!
//! Everything runs on the deterministic DES clock: a load scenario in,
//! a [`BrokerOutcome`] of counters + series out, replayable bit-for-bit
//! from its seed. [`loadgen`] sweeps client counts 10^3 → 10^5 through
//! outage/reconnect scenarios and renders `results/fanout_load.csv`.

pub mod loadgen;

use crate::engine::FrameTransport;
use crate::fault::SplitMix64;
use crate::qos::{QosConfig, QosLadder, QosRung, QosSignals};
use crate::resilience::BackoffPolicy;
use des::{Scheduler, Series, SeriesSet, SimTime};
use resources::SharedLink;
use std::cell::RefCell;
use std::rc::Rc;

/// A client within this many frames of the head is "live" (served from
/// the live pot); beyond it, it is catching up (paced, capped share).
pub const LIVE_LAG_FRAMES: u64 = 2;

// ---------------------------------------------------------------------------
// Frame log ring
// ---------------------------------------------------------------------------

/// The broker's single shared frame buffer: a counters-only ring.
///
/// Frames exist in the broker exactly once regardless of client count —
/// clients hold *cursors* into this log, not copies — so broker memory is
/// `retention × frame_bytes` by construction, the bulkhead invariant the
/// chaos motifs check. Appending past `retention` advances the tail;
/// clients whose cursor falls behind the tail shed the gap on their next
/// service (a *resume expiry*).
#[derive(Debug, Clone)]
pub struct FrameLog {
    frame_bytes: u64,
    retention: u64,
    head: u64,
    tail: u64,
}

impl FrameLog {
    /// New empty log retaining at most `retention` frames.
    ///
    /// # Panics
    /// If `retention` is zero.
    pub fn new(frame_bytes: u64, retention: u64) -> Self {
        assert!(retention > 0, "FrameLog retention must be positive");
        Self {
            frame_bytes,
            retention,
            head: 0,
            tail: 0,
        }
    }

    /// Append one frame, returning its sequence number; evicts the oldest
    /// frame when the ring is full.
    pub fn append(&mut self) -> u64 {
        let seq = self.head;
        self.head += 1;
        if self.head - self.tail > self.retention {
            self.tail = self.head - self.retention;
        }
        seq
    }

    /// Next sequence number to be produced (frames `[tail, head)` live).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Oldest retained sequence number.
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Frames currently retained.
    pub fn len(&self) -> u64 {
        self.head - self.tail
    }

    /// Whether the log holds no frames.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Bytes currently held — the broker's entire frame memory.
    pub fn bytes(&self) -> u64 {
        self.len() * self.frame_bytes
    }

    /// Whether `seq` is still replayable.
    pub fn contains(&self, seq: u64) -> bool {
        (self.tail..self.head).contains(&seq)
    }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Outcome of one admission request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Session admitted; start serving.
    Admitted,
    /// Over rate — retry after this many seconds. Deferrals are placed in
    /// a virtual FIFO, so each deferred client gets a *distinct* slot and
    /// the storm drains at the admission rate instead of retrying in
    /// lockstep.
    Deferred {
        /// Seconds until this client's reserved retry slot.
        retry_after_secs: f64,
    },
}

/// Token-bucket admission gate with virtual-FIFO deferral slots.
#[derive(Debug, Clone)]
pub struct AdmissionGate {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last_refill: f64,
    /// Virtual end-of-queue: the next free retry slot handed to a
    /// deferred client. Monotone, so N simultaneous deferrals spread
    /// over N / rate seconds.
    next_slot: f64,
    admitted: u64,
    deferred: u64,
}

impl AdmissionGate {
    /// Gate admitting `rate_per_sec` sessions sustained, `burst` at once.
    ///
    /// # Panics
    /// If the rate is not positive and finite, or `burst` is zero.
    pub fn new(rate_per_sec: f64, burst: u64) -> Self {
        assert!(
            rate_per_sec > 0.0 && rate_per_sec.is_finite(),
            "admission rate must be positive and finite, got {rate_per_sec}"
        );
        assert!(burst > 0, "admission burst must be positive");
        Self {
            rate_per_sec,
            burst: burst as f64,
            tokens: burst as f64,
            last_refill: 0.0,
            next_slot: 0.0,
            admitted: 0,
            deferred: 0,
        }
    }

    /// Request admission at wall time `now` (seconds, non-decreasing).
    pub fn request(&mut self, now: f64) -> Admission {
        let dt = (now - self.last_refill).max(0.0);
        self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
        self.last_refill = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            self.admitted += 1;
            Admission::Admitted
        } else {
            self.next_slot = self.next_slot.max(now) + 1.0 / self.rate_per_sec;
            self.deferred += 1;
            Admission::Deferred {
                retry_after_secs: self.next_slot - now,
            }
        }
    }

    /// Sessions admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests deferred so far.
    pub fn deferred(&self) -> u64 {
        self.deferred
    }
}

// ---------------------------------------------------------------------------
// Bulkheads and breakers
// ---------------------------------------------------------------------------

/// What the broker does to a client whose backlog exceeds the bulkhead
/// ([`BrokerConfig::max_backlog_frames`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Advance the client's cursor past its oldest pending frames —
    /// lossy, but the session stays up at its rung.
    DropOldest,
    /// Pin the client to the track-only rung until it catches back up;
    /// backlogs beyond the equivalent *byte* bound still drop oldest.
    DemoteToTrackOnly,
    /// Kick the session and shed its entire queued backlog — the client
    /// reconnects through backoff and the admission gate at the live
    /// head (and counts a breaker failure). Without the queue drop a
    /// kicked laggard would resume with the same over-bulkhead backlog
    /// and be re-kicked until the breaker quarantined it.
    Disconnect,
}

/// Circuit breaker quarantining clients that fail repeatedly.
///
/// A *failure* is an ungraceful session end: a flap drop, a mass-outage
/// disconnect, a bulkhead disconnect, or a resume whose cursor has
/// expired past the ring tail. `trip_after` failures inside `window_secs`
/// quarantine the client for the rest of the run. The default trips at
/// 3 so a single mass outage (one disconnect + at most one expired
/// resume per client) never quarantines a healthy fleet, while a
/// flapping client trips within a few periods.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Failures within the window that trip the breaker.
    pub trip_after: u32,
    /// Sliding window over which failures are counted, seconds.
    pub window_secs: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            trip_after: 3,
            window_secs: 600.0,
        }
    }
}

impl BreakerConfig {
    /// Record one failure at `now` (non-decreasing across calls) in a
    /// client's sliding window; true if the breaker trips.
    ///
    /// The window is `slots[..*len]`, oldest first, in storage the caller
    /// owns (at least one slot). `trip_after` slots are all it ever needs:
    /// when that many failures lie inside `window_secs`, the newest that
    /// many do, so an older one can be dropped as soon as the slots are
    /// full. Both serving tiers keep their histories this way: the modeled
    /// broker as a stride of one flat table, the socket server as a vector
    /// per session that stops growing at `trip_after` entries.
    pub(crate) fn record_failure(&self, slots: &mut [f64], len: &mut u32, now: f64) -> bool {
        debug_assert!(!slots.is_empty(), "a breaker window needs a slot");
        let mut n = *len as usize;
        if n == slots.len() {
            slots.copy_within(1.., 0);
            n -= 1;
        }
        slots[n] = now;
        n += 1;
        let expired = slots[..n]
            .iter()
            .take_while(|&&t0| now - t0 > self.window_secs)
            .count();
        slots.copy_within(expired..n, 0);
        n -= expired;
        *len = n as u32;
        n >= self.trip_after as usize
    }
}

// ---------------------------------------------------------------------------
// Load scenario
// ---------------------------------------------------------------------------

/// One timed disturbance in a broker load scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadEvent {
    /// `clients` new viewers arrive, spread evenly over `over_secs`
    /// (0 = thundering herd: all at once, the admission gate's job).
    ArrivalRamp { clients: u64, over_secs: f64 },
    /// A fraction of currently connected clients drops ungracefully and
    /// returns after `outage_secs` (plus per-client deterministic
    /// jitter) — the catch-up storm.
    MassDisconnect { frac: f64, outage_secs: f64 },
    /// The shared serving link degrades to `factor` of nominal for
    /// `for_secs`, then restores to nominal.
    LinkSag { factor: f64, for_secs: f64 },
    /// `clients` pathological viewers that drop every `period_secs`
    /// after connecting — breaker bait.
    FlapSquad { clients: u64, period_secs: f64 },
}

/// A deterministic schedule of [`LoadEvent`]s at offsets (seconds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadScenario {
    /// `(at_secs, event)` pairs; order of same-time events is preserved.
    pub events: Vec<(f64, LoadEvent)>,
}

impl LoadScenario {
    /// Scenario with a single event.
    pub fn single(at_secs: f64, ev: LoadEvent) -> Self {
        Self {
            events: vec![(at_secs, ev)],
        }
    }

    /// Append an event, returning self (builder style).
    pub fn then(mut self, at_secs: f64, ev: LoadEvent) -> Self {
        self.events.push((at_secs, ev));
        self
    }
}

// ---------------------------------------------------------------------------
// Broker configuration
// ---------------------------------------------------------------------------

/// Full configuration for one modeled broker run.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Bytes per full-resolution frame.
    pub frame_bytes: u64,
    /// Seconds between produced frames.
    pub frame_interval_secs: f64,
    /// Seconds of frame production (ticks continue past this until the
    /// backlog drains).
    pub horizon_secs: f64,
    /// Serving tick, seconds (link budget quantum).
    pub tick_secs: f64,
    /// Shared WAN uplink all clients are served over.
    pub link: SharedLink,
    /// Frames the broker ring retains for catch-up replay.
    pub retention_frames: u64,
    /// Bulkhead: max frames of backlog one client may hold.
    pub max_backlog_frames: u64,
    /// What happens at the bulkhead.
    pub shed: ShedPolicy,
    /// Admission gate sustained rate, sessions/second.
    pub admission_rate_per_sec: f64,
    /// Admission gate burst size.
    pub admission_burst: u64,
    /// Max fraction of each tick's link budget spendable on catch-up
    /// replay (live frames get the rest first; catch-up inherits any
    /// slack — the split is work-conserving).
    pub catchup_share: f64,
    /// Max frames replayed to one catching-up client per tick (pacing).
    pub catchup_burst_frames: u64,
    /// Reconnect backoff; per-client jitter via
    /// [`BackoffPolicy::client_delay`].
    pub backoff: BackoffPolicy,
    /// Circuit breaker for flapping clients.
    pub breaker: BreakerConfig,
    /// Per-client QoS ladder configuration.
    pub qos: QosConfig,
    /// Seed for every stochastic choice (mass-disconnect selection).
    pub seed: u64,
    /// The load schedule to drive.
    pub scenario: LoadScenario,
}

impl BrokerConfig {
    /// Defaults sized so the QoS ladder is load-bearing: a 1 Gb/s link
    /// cannot broadcast 1 MB frames at full resolution to more than
    /// ~3,750 clients per 30 s interval, so larger fleets only stay live
    /// by demoting rungs.
    pub fn new(seed: u64, scenario: LoadScenario) -> Self {
        Self {
            frame_bytes: 1_000_000,
            frame_interval_secs: 30.0,
            horizon_secs: 3.0 * 3600.0,
            tick_secs: 30.0,
            link: SharedLink::new(1e9),
            retention_frames: 60,
            max_backlog_frames: 32,
            shed: ShedPolicy::DropOldest,
            admission_rate_per_sec: 200.0,
            admission_burst: 50,
            catchup_share: 0.5,
            catchup_burst_frames: 8,
            backoff: BackoffPolicy::new(seed ^ 0xB0FF),
            breaker: BreakerConfig::default(),
            qos: QosConfig::default(),
            seed,
            scenario,
        }
    }

    fn validate(&self) {
        assert!(self.frame_bytes > 0, "frame_bytes must be positive");
        assert!(
            self.frame_interval_secs > 0.0 && self.frame_interval_secs.is_finite(),
            "frame interval must be positive and finite"
        );
        assert!(
            self.tick_secs > 0.0 && self.tick_secs.is_finite(),
            "tick must be positive and finite"
        );
        assert!(
            self.horizon_secs >= self.frame_interval_secs,
            "horizon shorter than one frame interval"
        );
        assert!(self.retention_frames > 0, "retention must be positive");
        assert!(
            self.max_backlog_frames > LIVE_LAG_FRAMES,
            "bulkhead must exceed the live-lag threshold"
        );
        assert!(
            (0.0..=1.0).contains(&self.catchup_share),
            "catchup_share must be in [0, 1], got {}",
            self.catchup_share
        );
        assert!(
            self.catchup_burst_frames > 0,
            "catch-up pacing must allow at least one frame per tick"
        );
        assert!(
            self.breaker.trip_after > 0,
            "breaker trip_after must be positive"
        );
        assert!(
            self.breaker.window_secs >= 0.0 && self.breaker.window_secs.is_finite(),
            "breaker window must be non-negative and finite, got {}",
            self.breaker.window_secs
        );
        self.qos.validate();
        // Every client owns `trip_after` slots of one flat breaker table.
        let fleet =
            self.scenario
                .events
                .iter()
                .try_fold(0u64, |sum, (_, ev)| match *ev {
                    LoadEvent::ArrivalRamp { clients, .. }
                    | LoadEvent::FlapSquad { clients, .. } => sum.checked_add(clients),
                    LoadEvent::MassDisconnect { .. } | LoadEvent::LinkSag { .. } => Some(sum),
                });
        let slots = fleet
            .and_then(|n| n.checked_mul(self.breaker.trip_after.into()))
            .and_then(|n| usize::try_from(n).ok());
        assert!(
            slots.is_some(),
            "breaker table (clients × trip_after) overflows usize"
        );
        for &(at, ref ev) in &self.scenario.events {
            assert!(
                at.is_finite() && at >= 0.0,
                "scenario event at invalid time {at}"
            );
            if let LoadEvent::MassDisconnect { frac, outage_secs } = *ev {
                assert!(
                    (0.0..=1.0).contains(&frac),
                    "MassDisconnect frac must be in [0, 1], got {frac}"
                );
                assert!(
                    outage_secs >= 0.0 && outage_secs.is_finite(),
                    "MassDisconnect outage invalid: {outage_secs}"
                );
            }
            if let LoadEvent::LinkSag { factor, for_secs } = *ev {
                assert!(
                    factor > 0.0 && factor.is_finite(),
                    "LinkSag factor must be positive and finite, got {factor}"
                );
                assert!(
                    for_secs > 0.0 && for_secs.is_finite(),
                    "LinkSag duration invalid: {for_secs}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Outcome
// ---------------------------------------------------------------------------

/// Event counters for one broker run. `PartialEq` + `Copy` so acceptance
/// tests can pin the whole struct and determinism checks can compare
/// runs wholesale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BrokerCounters {
    /// Clients ever created by the scenario.
    pub clients_total: u64,
    /// Sessions admitted (reconnects count again).
    pub admitted_sessions: u64,
    /// Admission requests deferred with a retry slot.
    pub deferred_admissions: u64,
    /// Resumes whose cursor had expired past the ring tail.
    pub resume_failures: u64,
    /// Sessions kicked at the bulkhead under [`ShedPolicy::Disconnect`].
    pub bulkhead_disconnects: u64,
    /// Clients quarantined by the circuit breaker.
    pub quarantined: u64,
    /// Frames produced into the ring.
    pub frames_produced: u64,
    /// Client-frames delivered (live + catch-up).
    pub frames_delivered: u64,
    /// Client-frames shed (bulkhead drops + resume expiries).
    pub frames_shed: u64,
    /// Ticks where live clients wanted frames, the live pot could afford
    /// at least one, none were served, yet catch-up traffic moved —
    /// structurally zero; nonzero means the budget split regressed.
    pub starvation_ticks: u64,
    /// QoS rung demotions summed over all clients.
    pub demotions: u64,
    /// QoS rung promotions summed over all clients.
    pub promotions: u64,
    /// Deepest rung any client reached (0 = never left full-res).
    pub deepest_rung: u8,
    /// Peak simultaneously connected clients.
    pub peak_connected: u64,
    /// Peak frames retained in the ring (≤ retention by construction).
    pub peak_ring_frames: u64,
    /// Total cursor advances; conservation demands
    /// `frames_delivered + frames_shed == cursor_advance`.
    pub cursor_advance: u64,
}

/// Everything a broker run reports.
#[derive(Debug, Clone)]
pub struct BrokerOutcome {
    /// Event counters (pinnable, comparable).
    pub counters: BrokerCounters,
    /// Bytes spent serving live frames.
    pub live_bytes: f64,
    /// Bytes spent on catch-up replay.
    pub catchup_bytes: f64,
    /// Worst per-tick p99 staleness of connected clients' newest
    /// delivered frame, seconds (while production was live).
    pub p99_staleness_secs: f64,
    /// Longest any client waited from first admission request to
    /// admission, seconds.
    pub max_admission_wait_secs: f64,
    /// Seconds from outage end until every mass-disconnected client was
    /// reconnected and live again (None if no mass disconnect, or never).
    pub recovery_secs: Option<f64>,
    /// Total wall-clock seconds simulated.
    pub wall_secs: f64,
    /// Whether every surviving connected client ended live (backlog ≤
    /// [`LIVE_LAG_FRAMES`]).
    pub drained: bool,
    /// Time series: `connected`, `ring_frames`, `p99_staleness`.
    pub series: SeriesSet,
}

// ---------------------------------------------------------------------------
// The DES run
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Created or dropped; an `Admit` event may be in flight.
    Offline,
    /// Requested admission, waiting on a deferral slot.
    Waiting,
    /// Being served.
    Connected,
    /// Circuit breaker tripped; out for the rest of the run.
    Quarantined,
}

/// One modeled viewer. 10^5 of these are the broker's resident memory, so
/// a client is plain inline data — no heap pointer, nothing that is the
/// same for every client: the QoS policy is the one [`BrokerConfig::qos`]
/// and the breaker history is this client's stride of
/// [`World::breaker_slots`].
struct Client {
    phase: Phase,
    /// Next frame sequence this client needs.
    cursor: u64,
    qos: QosLadder,
    /// Pinned to track-only by [`ShedPolicy::DemoteToTrackOnly`].
    pinned: bool,
    ever_admitted: bool,
    /// Reconnect attempt counter (jitter input; reset on admission).
    attempt: u32,
    /// Breaker failures within the window (live entries of this client's
    /// slots).
    failures: u32,
    /// When the current admission wait started.
    waiting_since: Option<f64>,
    /// Part of an in-progress mass-disconnect recovery cohort.
    in_recovery: bool,
    /// Drops itself every `period` seconds while connected.
    flap_period: Option<f64>,
    // Per-tick scratch (avoids allocating per tick).
    tick_wanted: u64,
    tick_served: u64,
}

const _: () = assert!(std::mem::size_of::<Client>() <= 112);

impl Client {
    fn new(flap_period: Option<f64>) -> Self {
        Self {
            phase: Phase::Offline,
            cursor: 0,
            qos: QosLadder::new(),
            pinned: false,
            ever_admitted: false,
            attempt: 0,
            failures: 0,
            waiting_since: None,
            in_recovery: false,
            flap_period,
            tick_wanted: 0,
            tick_served: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Produce,
    Tick,
    Scenario(usize),
    Admit { client: usize },
    FlapDrop { client: usize },
    LinkRestore,
}

struct World {
    cfg: BrokerConfig,
    link: SharedLink,
    log: FrameLog,
    gate: AdmissionGate,
    clients: Vec<Client>,
    /// Breaker failure timestamps, `cfg.breaker.trip_after` slots per
    /// client: client `id` owns `[id × trip_after, (id + 1) × trip_after)`.
    breaker_slots: Vec<f64>,
    /// Maintained incrementally — an O(clients) scan per admission would
    /// make a 10^5-client reconnect storm quadratic.
    connected_count: u64,
    counters: BrokerCounters,
    live_bytes: f64,
    catchup_bytes: f64,
    p99_staleness: f64,
    max_admission_wait: f64,
    recovery_open: u64,
    recovery_start: f64,
    recovery_secs: Option<f64>,
    tick_index: u64,
    connected_series: Series,
    ring_series: Series,
    staleness_series: Series,
    // Scratch buffers reused across ticks.
    live: Vec<usize>,
    catchup: Vec<usize>,
    stale_buf: Vec<f64>,
}

impl World {
    fn quarantine(&mut self, id: usize) {
        self.clients[id].phase = Phase::Quarantined;
        self.counters.quarantined += 1;
        self.clear_recovery(id);
    }

    /// Remove a client from the recovery cohort, closing the window when
    /// it was the last one out.
    fn clear_recovery(&mut self, id: usize) {
        if !self.clients[id].in_recovery {
            return;
        }
        self.clients[id].in_recovery = false;
        self.recovery_open -= 1;
    }

    /// Record one breaker failure for `id`; true if the breaker trips.
    fn breaker_trips(&mut self, id: usize, now: f64) -> bool {
        let stride = self.cfg.breaker.trip_after as usize;
        self.cfg.breaker.record_failure(
            &mut self.breaker_slots[id * stride..(id + 1) * stride],
            &mut self.clients[id].failures,
            now,
        )
    }

    fn spawn_clients(
        &mut self,
        count: u64,
        over_secs: f64,
        flap_period: Option<f64>,
        now: f64,
        sched: &mut Scheduler<Ev>,
    ) {
        // Both tables grow to exactly what the fleet needs: a doubling
        // `Vec` would copy 10^5 clients several times over and leave up to
        // half the final capacity unused.
        let fleet = self.clients.len() + count as usize;
        let slots = fleet * self.cfg.breaker.trip_after as usize;
        self.clients.reserve_exact(count as usize);
        // A "never trip" `trip_after` of `u32::MAX` is a 34 GB stride:
        // refuse it by name instead of aborting inside the allocator.
        self.breaker_slots
            .try_reserve_exact(slots - self.breaker_slots.len())
            .unwrap_or_else(|e| panic!("breaker table of {slots} slots for {fleet} clients: {e}"));
        self.breaker_slots.resize(slots, 0.0);
        for i in 0..count {
            let id = self.clients.len();
            self.clients.push(Client::new(flap_period));
            self.counters.clients_total += 1;
            let spread = if count > 1 {
                over_secs * i as f64 / count as f64
            } else {
                0.0
            };
            sched.schedule_at(SimTime::from_secs(now + spread), Ev::Admit { client: id });
        }
    }
}

/// Effective per-frame cost for a client right now, bytes.
fn frame_cost(c: &Client, frame_bytes: u64) -> f64 {
    let rung = if c.pinned {
        QosRung::TrackOnly
    } else {
        c.qos.rung
    };
    frame_bytes as f64 * rung.byte_factor()
}

/// Round-robin whole frames from `pot` across `order`ed clients until the
/// pot or the wants run out. Returns (frames_served, bytes_spent).
fn serve_round_robin(
    clients: &mut [Client],
    order: &[usize],
    offset: usize,
    mut pot: f64,
    frame_bytes: u64,
) -> (u64, f64) {
    let n = order.len();
    let mut frames = 0u64;
    let mut bytes = 0.0f64;
    if n == 0 {
        return (frames, bytes);
    }
    let mut progress = true;
    while progress {
        progress = false;
        for k in 0..n {
            let id = order[(k + offset) % n];
            let c = &mut clients[id];
            if c.tick_served >= c.tick_wanted {
                continue;
            }
            let cost = frame_cost(c, frame_bytes);
            if cost <= pot {
                pot -= cost;
                bytes += cost;
                c.tick_served += 1;
                c.cursor += 1;
                frames += 1;
                progress = true;
            }
        }
    }
    (frames, bytes)
}

/// Drop a connected session ungracefully: record a breaker failure and
/// either quarantine or schedule a jittered reconnect.
fn drop_session(w: &mut World, id: usize, now: f64, sched: &mut Scheduler<Ev>, extra_delay: f64) {
    debug_assert_eq!(w.clients[id].phase, Phase::Connected);
    w.clients[id].phase = Phase::Offline;
    w.connected_count -= 1;
    if w.breaker_trips(id, now) {
        w.quarantine(id);
        return;
    }
    let attempt = w.clients[id].attempt;
    let jitter = w.cfg.backoff.client_delay(id as u64, attempt).as_secs_f64();
    w.clients[id].attempt = attempt.saturating_add(1);
    sched.schedule_at(
        SimTime::from_secs(now + extra_delay + jitter),
        Ev::Admit { client: id },
    );
}

fn handle_admit(w: &mut World, id: usize, now: f64, sched: &mut Scheduler<Ev>) {
    match w.clients[id].phase {
        Phase::Quarantined | Phase::Connected => return,
        Phase::Offline | Phase::Waiting => {}
    }
    if w.clients[id].waiting_since.is_none() {
        w.clients[id].waiting_since = Some(now);
    }
    match w.gate.request(now) {
        Admission::Deferred { retry_after_secs } => {
            w.counters.deferred_admissions += 1;
            w.clients[id].phase = Phase::Waiting;
            sched.schedule_at(
                SimTime::from_secs(now + retry_after_secs),
                Ev::Admit { client: id },
            );
        }
        Admission::Admitted => {
            w.counters.admitted_sessions += 1;
            if let Some(since) = w.clients[id].waiting_since.take() {
                w.max_admission_wait = w.max_admission_wait.max(now - since);
            }
            w.clients[id].attempt = 0;
            if w.clients[id].ever_admitted {
                // Resume from last ack (the AHL2 cursor). A cursor that
                // has expired past the ring tail is a resume failure: the
                // gap is shed, and the breaker hears about it.
                if w.clients[id].cursor < w.log.tail() {
                    let gap = w.log.tail() - w.clients[id].cursor;
                    w.counters.resume_failures += 1;
                    w.counters.frames_shed += gap;
                    w.counters.cursor_advance += gap;
                    w.clients[id].cursor = w.log.tail();
                    if w.breaker_trips(id, now) {
                        w.quarantine(id);
                        return;
                    }
                }
            } else {
                // Fresh session starts at the live head (uncounted: a
                // session start, not a cursor advance).
                w.clients[id].cursor = w.log.head();
                w.clients[id].ever_admitted = true;
            }
            w.clients[id].phase = Phase::Connected;
            w.connected_count += 1;
            w.counters.peak_connected = w.counters.peak_connected.max(w.connected_count);
            if let Some(period) = w.clients[id].flap_period {
                sched.schedule_at(
                    SimTime::from_secs(now + period),
                    Ev::FlapDrop { client: id },
                );
            }
        }
    }
}

fn handle_scenario(w: &mut World, idx: usize, now: f64, sched: &mut Scheduler<Ev>) {
    let ev = w.cfg.scenario.events[idx].1.clone();
    match ev {
        LoadEvent::ArrivalRamp { clients, over_secs } => {
            w.spawn_clients(clients, over_secs, None, now, sched);
        }
        LoadEvent::FlapSquad {
            clients,
            period_secs,
        } => {
            w.spawn_clients(clients, 1.0, Some(period_secs), now, sched);
        }
        LoadEvent::LinkSag { factor, for_secs } => {
            w.link.set_degradation(factor);
            sched.schedule_at(SimTime::from_secs(now + for_secs), Ev::LinkRestore);
        }
        LoadEvent::MassDisconnect { frac, outage_secs } => {
            let seed = w.cfg.seed;
            let mut victims = Vec::new();
            for id in 0..w.clients.len() {
                if w.clients[id].phase != Phase::Connected {
                    continue;
                }
                let mut rng = SplitMix64::new(
                    seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (idx as u64),
                );
                if rng.unit_f64() < frac {
                    victims.push(id);
                }
            }
            for id in victims {
                if !w.clients[id].in_recovery {
                    w.clients[id].in_recovery = true;
                    w.recovery_open += 1;
                }
                w.recovery_start = w.recovery_start.max(now + outage_secs);
                drop_session(w, id, now, sched, outage_secs);
            }
        }
    }
}

fn handle_tick(w: &mut World, now: f64, sched: &mut Scheduler<Ev>) {
    let head = w.log.head();
    let tail = w.log.tail();
    let frame_bytes = w.cfg.frame_bytes;
    let budget = w.link.budget_bytes(w.cfg.tick_secs);

    // Pass 1 — clamp expired cursors, enforce the bulkhead, classify.
    w.live.clear();
    w.catchup.clear();
    let mut live_wanted = 0u64;
    let mut catchup_cost = 0.0f64;
    let mut min_live_cost = f64::INFINITY;
    let mut kicked: Vec<usize> = Vec::new();
    for id in 0..w.clients.len() {
        let max_backlog = w.cfg.max_backlog_frames;
        let shed = w.cfg.shed;
        let burst = w.cfg.catchup_burst_frames;
        let c = &mut w.clients[id];
        c.tick_wanted = 0;
        c.tick_served = 0;
        if c.phase != Phase::Connected {
            continue;
        }
        if c.cursor < tail {
            let gap = tail - c.cursor;
            w.counters.frames_shed += gap;
            w.counters.cursor_advance += gap;
            c.cursor = tail;
        }
        let mut backlog = head - c.cursor;
        if backlog > max_backlog {
            match shed {
                ShedPolicy::DropOldest => {
                    let overflow = backlog - max_backlog;
                    w.counters.frames_shed += overflow;
                    w.counters.cursor_advance += overflow;
                    c.cursor += overflow;
                    backlog = max_backlog;
                }
                ShedPolicy::DemoteToTrackOnly => {
                    c.pinned = true;
                    // The bulkhead is a *byte* bound: at the track-only
                    // rate the same bytes cover far more frames, but a
                    // backlog beyond that still drops oldest.
                    let cap = (max_backlog as f64 / QosRung::TrackOnly.byte_factor()) as u64;
                    if backlog > cap {
                        let overflow = backlog - cap;
                        w.counters.frames_shed += overflow;
                        w.counters.cursor_advance += overflow;
                        c.cursor += overflow;
                        backlog = cap;
                    }
                }
                ShedPolicy::Disconnect => {
                    w.counters.bulkhead_disconnects += 1;
                    w.counters.frames_shed += backlog;
                    w.counters.cursor_advance += backlog;
                    c.cursor = head;
                    kicked.push(id);
                    continue;
                }
            }
        }
        if c.pinned && backlog <= LIVE_LAG_FRAMES {
            c.pinned = false;
        }
        if backlog == 0 {
            continue;
        }
        let cost = frame_cost(c, frame_bytes);
        if backlog <= LIVE_LAG_FRAMES {
            c.tick_wanted = backlog;
            live_wanted += backlog;
            min_live_cost = min_live_cost.min(cost);
            w.live.push(id);
        } else {
            c.tick_wanted = backlog.min(burst);
            catchup_cost += c.tick_wanted as f64 * cost;
            w.catchup.push(id);
        }
    }
    for id in kicked {
        drop_session(w, id, now, sched, 0.0);
    }

    // Pass 2 — spend the link budget: live first out of its reserved
    // share, then catch-up from whatever is left (work-conserving).
    let catchup_reserve = (w.cfg.catchup_share * budget).min(catchup_cost);
    let pot_live = budget - catchup_reserve;
    let offset = w.tick_index as usize;
    let live_order = std::mem::take(&mut w.live);
    let (live_served, live_spent) =
        serve_round_robin(&mut w.clients, &live_order, offset, pot_live, frame_bytes);
    w.live = live_order;
    let pot_catchup = budget - live_spent;
    let catchup_order = std::mem::take(&mut w.catchup);
    let (catchup_served, catchup_spent) = serve_round_robin(
        &mut w.clients,
        &catchup_order,
        offset,
        pot_catchup,
        frame_bytes,
    );
    w.catchup = catchup_order;
    w.counters.frames_delivered += live_served + catchup_served;
    w.counters.cursor_advance += live_served + catchup_served;
    w.live_bytes += live_spent;
    w.catchup_bytes += catchup_spent;
    if live_wanted > 0 && live_served == 0 && catchup_served > 0 && pot_live >= min_live_cost {
        w.counters.starvation_ticks += 1;
    }

    // Pass 3 — QoS observation, staleness, recovery bookkeeping.
    w.stale_buf.clear();
    let production_live = now <= w.cfg.horizon_secs + 1e-9;
    let mut recovered: Vec<usize> = Vec::new();
    for id in 0..w.clients.len() {
        let interval = w.cfg.frame_interval_secs;
        let c = &mut w.clients[id];
        if c.phase != Phase::Connected {
            continue;
        }
        let backlog = head - c.cursor;
        let sig = QosSignals {
            bandwidth_frac: if c.tick_wanted > 0 {
                c.tick_served as f64 / c.tick_wanted as f64
            } else {
                1.0
            },
            receiver_lag_frames: backlog,
            free_disk_pct: 100.0,
            deadline_slack: 10.0,
        };
        c.qos.observe(&w.cfg.qos, &sig);
        if production_live {
            // Frame s is produced at (s + 1) × interval, so a client
            // whose cursor sits at the head is exactly current.
            w.stale_buf
                .push((now - interval * c.cursor as f64).max(0.0));
        }
        if c.in_recovery && backlog <= LIVE_LAG_FRAMES {
            recovered.push(id);
        }
    }
    for id in recovered {
        w.clear_recovery(id);
    }
    if w.recovery_open == 0 && w.recovery_secs.is_none() && w.recovery_start > 0.0 {
        // Close the recovery window only once the last cohort member is
        // live again *after* the outage ended.
        if now >= w.recovery_start {
            w.recovery_secs = Some(now - w.recovery_start);
        }
    }
    if production_live && !w.stale_buf.is_empty() {
        let p99 = crate::metrics::percentile_in_place(&mut w.stale_buf, 99.0);
        w.p99_staleness = w.p99_staleness.max(p99);
        w.staleness_series.record(SimTime::from_secs(now), p99);
    }
    w.connected_series
        .record(SimTime::from_secs(now), w.connected_count as f64);
    w.ring_series
        .record(SimTime::from_secs(now), w.log.len() as f64);
    w.tick_index += 1;

    // Keep ticking while production runs, events are pending, or any
    // connected client still has a backlog — capped by a safety horizon.
    let work_left = w
        .clients
        .iter()
        .any(|c| c.phase == Phase::Connected && c.cursor < head);
    let max_wall = w.cfg.horizon_secs * 10.0 + 3600.0;
    if (now < w.cfg.horizon_secs || !sched.is_empty() || work_left)
        && now + w.cfg.tick_secs < max_wall
    {
        sched.schedule_in(w.cfg.tick_secs, Ev::Tick);
    }
}

/// Run one broker load scenario on the DES clock.
///
/// # Panics
/// On invalid configuration (see [`BrokerConfig`] field docs).
pub fn run_broker(cfg: BrokerConfig) -> BrokerOutcome {
    cfg.validate();
    let mut sched: Scheduler<Ev> = Scheduler::new();
    // Produce before Tick at equal timestamps: scheduled first, and both
    // reschedule themselves in handler order, so ties keep breaking the
    // same way — frame N is in the ring before the tick that serves it.
    sched.schedule_in(cfg.frame_interval_secs, Ev::Produce);
    sched.schedule_in(cfg.tick_secs, Ev::Tick);
    for (idx, &(at, _)) in cfg.scenario.events.iter().enumerate() {
        sched.schedule_at(SimTime::from_secs(at), Ev::Scenario(idx));
    }
    let mut world = World {
        link: cfg.link.clone(),
        log: FrameLog::new(cfg.frame_bytes, cfg.retention_frames),
        gate: AdmissionGate::new(cfg.admission_rate_per_sec, cfg.admission_burst),
        clients: Vec::new(),
        breaker_slots: Vec::new(),
        connected_count: 0,
        counters: BrokerCounters::default(),
        live_bytes: 0.0,
        catchup_bytes: 0.0,
        p99_staleness: 0.0,
        max_admission_wait: 0.0,
        recovery_open: 0,
        recovery_start: 0.0,
        recovery_secs: None,
        tick_index: 0,
        connected_series: Series::new("connected"),
        ring_series: Series::new("ring_frames"),
        staleness_series: Series::new("p99_staleness"),
        live: Vec::new(),
        catchup: Vec::new(),
        stale_buf: Vec::new(),
        cfg,
    };
    let end = des::run_until_empty(&mut sched, &mut world, |w, t, ev, sched| {
        let now = t.as_secs();
        match ev {
            Ev::Produce => {
                w.log.append();
                w.counters.frames_produced += 1;
                w.counters.peak_ring_frames = w.counters.peak_ring_frames.max(w.log.len());
                if now + w.cfg.frame_interval_secs <= w.cfg.horizon_secs + 1e-9 {
                    sched.schedule_in(w.cfg.frame_interval_secs, Ev::Produce);
                }
            }
            Ev::Tick => handle_tick(w, now, sched),
            Ev::Scenario(idx) => handle_scenario(w, idx, now, sched),
            Ev::Admit { client } => handle_admit(w, client, now, sched),
            Ev::FlapDrop { client } => {
                if w.clients[client].phase == Phase::Connected {
                    drop_session(w, client, now, sched, 0.0);
                }
            }
            Ev::LinkRestore => w.link.set_degradation(1.0),
        }
        true
    });

    let head = world.log.head();
    let drained = world
        .clients
        .iter()
        .all(|c| c.phase != Phase::Connected || head - c.cursor <= LIVE_LAG_FRAMES);
    for c in &world.clients {
        world.counters.demotions += c.qos.demotions;
        world.counters.promotions += c.qos.promotions;
        world.counters.deepest_rung = world.counters.deepest_rung.max(c.qos.deepest.as_byte());
    }
    let mut series = SeriesSet::new();
    series.push(world.connected_series);
    series.push(world.ring_series);
    series.push(world.staleness_series);
    BrokerOutcome {
        counters: world.counters,
        live_bytes: world.live_bytes,
        catchup_bytes: world.catchup_bytes,
        p99_staleness_secs: world.p99_staleness,
        max_admission_wait_secs: world.max_admission_wait,
        recovery_secs: world.recovery_secs,
        wall_secs: end.as_secs(),
        drained,
        series,
    }
}

// ---------------------------------------------------------------------------
// Transport integration
// ---------------------------------------------------------------------------

/// A [`FrameTransport`] tee that records every parked frame into a shared
/// [`FrameLog`], making any live pipeline's frame stream replayable by
/// broker client cursors while delegating all transport behavior to the
/// wrapped implementation.
pub struct BrokerTransport<T: FrameTransport> {
    inner: T,
    log: Rc<RefCell<FrameLog>>,
}

impl<T: FrameTransport> BrokerTransport<T> {
    /// Wrap `inner`, teeing frames into `log`.
    pub fn new(inner: T, log: Rc<RefCell<FrameLog>>) -> Self {
        Self { inner, log }
    }

    /// The shared frame log handle.
    pub fn log(&self) -> Rc<RefCell<FrameLog>> {
        Rc::clone(&self.log)
    }
}

impl<T: FrameTransport> FrameTransport for BrokerTransport<T> {
    fn emit(
        &mut self,
        model: &wrf::WrfModel,
        sim_min: f64,
        modeled_bytes: u64,
        rung: QosRung,
    ) -> (u64, Vec<u8>) {
        self.inner.emit(model, sim_min, modeled_bytes, rung)
    }

    fn decision_frame_bytes(&self, modeled_bytes: u64) -> u64 {
        self.inner.decision_frame_bytes(modeled_bytes)
    }

    fn park(&mut self, id: u64, sim_min: f64, payload: Vec<u8>) {
        self.log.borrow_mut().append();
        self.inner.park(id, sim_min, payload);
    }

    fn deliver(&mut self, id: u64, sim_min: f64) -> bool {
        self.inner.deliver(id, sim_min)
    }

    fn applied_watermark(&self) -> u64 {
        self.inner.applied_watermark()
    }

    fn finish(&mut self) -> viz::TrackLog {
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ModeledTransport;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn frame_log_ring_semantics() {
        let mut log = FrameLog::new(100, 3);
        assert!(log.is_empty());
        assert_eq!(log.append(), 0);
        assert_eq!(log.append(), 1);
        assert_eq!(log.append(), 2);
        assert_eq!((log.tail(), log.head(), log.len()), (0, 3, 3));
        assert_eq!(log.append(), 3);
        // Oldest evicted: memory is bounded by retention, not history.
        assert_eq!((log.tail(), log.head(), log.len()), (1, 4, 3));
        assert!(!log.contains(0));
        assert!(log.contains(1) && log.contains(3));
        assert!(!log.contains(4));
        assert_eq!(log.bytes(), 300);
    }

    #[test]
    #[should_panic(expected = "retention must be positive")]
    fn frame_log_rejects_zero_retention() {
        FrameLog::new(1, 0);
    }

    #[test]
    fn gate_admits_burst_then_defers_with_fifo_slots() {
        let mut gate = AdmissionGate::new(10.0, 3);
        for _ in 0..3 {
            assert_eq!(gate.request(0.0), Admission::Admitted);
        }
        // Deferred retries get strictly increasing slots spaced 1/rate:
        // a storm drains in arrival order at the admission rate.
        let mut last = 0.0;
        for i in 1..=5 {
            match gate.request(0.0) {
                Admission::Deferred { retry_after_secs } => {
                    assert!((retry_after_secs - i as f64 * 0.1).abs() < 1e-9);
                    assert!(retry_after_secs > last);
                    last = retry_after_secs;
                }
                other => panic!("expected deferral, got {other:?}"),
            }
        }
        assert_eq!((gate.admitted(), gate.deferred()), (3, 5));
        // Tokens refill at the rate; a later request is admitted again.
        assert_eq!(gate.request(1.0), Admission::Admitted);
    }

    #[test]
    #[should_panic(expected = "admission rate must be positive")]
    fn gate_rejects_bad_rate() {
        AdmissionGate::new(0.0, 1);
    }

    /// Small fleet, ~1 h of production, frames fit the link: everything
    /// is delivered live, nothing shed, and the books balance.
    #[test]
    fn steady_ramp_serves_everyone_live() {
        let mut cfg = BrokerConfig::new(7, loadgen::steady_ramp(200));
        cfg.horizon_secs = 3600.0;
        let out = run_broker(cfg);
        let c = out.counters;
        assert_eq!(c.clients_total, 200);
        assert_eq!(c.peak_connected, 200);
        assert_eq!(c.frames_produced, 120);
        assert_eq!(c.frames_shed, 0);
        assert_eq!(c.starvation_ticks, 0);
        assert_eq!(c.quarantined, 0);
        assert_eq!(c.frames_delivered + c.frames_shed, c.cursor_advance);
        assert!(c.peak_ring_frames <= 60);
        assert!(out.drained);
        assert!(out.p99_staleness_secs <= 2.0 * 30.0 + 1e-9);
        assert!(out.recovery_secs.is_none());
    }

    #[test]
    fn broker_runs_are_deterministic() {
        let cfg = || {
            let mut c = BrokerConfig::new(99, loadgen::outage_reconnect(150, 1200.0));
            c.horizon_secs = 2.0 * 3600.0;
            c
        };
        let a = run_broker(cfg());
        let b = run_broker(cfg());
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.p99_staleness_secs, b.p99_staleness_secs);
        assert_eq!(
            a.live_bytes + a.catchup_bytes,
            b.live_bytes + b.catchup_bytes
        );
        assert_eq!(a.recovery_secs, b.recovery_secs);
    }

    #[test]
    fn thundering_herd_drains_through_the_gate_fairly() {
        let mut cfg = BrokerConfig::new(3, loadgen::thundering_herd(500));
        cfg.horizon_secs = 1800.0;
        let out = run_broker(cfg);
        let c = out.counters;
        assert_eq!(c.peak_connected, 500);
        assert!(
            c.deferred_admissions > 0,
            "500 at once must overflow burst 50"
        );
        assert_eq!(c.starvation_ticks, 0);
        // Virtual-FIFO fairness: nobody waits much longer than the time
        // the gate needs to drain the whole herd at its rate.
        let drain = 500.0 / 200.0;
        assert!(
            out.max_admission_wait_secs <= 2.0 * drain + 1.0,
            "max wait {} vs drain {}",
            out.max_admission_wait_secs,
            drain
        );
        assert_eq!(c.frames_delivered + c.frames_shed, c.cursor_advance);
        assert!(out.drained);
    }

    /// The pinned storm: a 2 h WAN outage outlives the 0.5 h ring, so
    /// every client's resume cursor has expired — each sheds the gap
    /// exactly once, catches up paced, and nobody is quarantined or
    /// starves the live stream.
    #[test]
    fn mass_reconnect_after_long_outage_recovers() {
        let mut cfg = BrokerConfig::new(42, loadgen::outage_reconnect(300, 7200.0));
        cfg.horizon_secs = 3.0 * 3600.0;
        let out = run_broker(cfg);
        let c = out.counters;
        assert_eq!(c.clients_total, 300);
        assert_eq!(c.resume_failures, 300, "every cursor outlived by the ring");
        assert_eq!(c.quarantined, 0, "one outage must not trip breakers");
        assert_eq!(
            c.starvation_ticks, 0,
            "catch-up must not starve live frames"
        );
        assert!(c.peak_ring_frames <= cfg_retention());
        assert_eq!(c.frames_delivered + c.frames_shed, c.cursor_advance);
        assert!(out.drained, "storm must drain");
        let rec = out.recovery_secs.expect("recovery window must close");
        assert!(
            rec <= 600.0,
            "fleet took {rec}s after outage end to go live again"
        );
        assert!(out.catchup_bytes > 0.0);
    }

    fn cfg_retention() -> u64 {
        BrokerConfig::new(0, LoadScenario::default()).retention_frames
    }

    /// A link sag long enough to blow the 32-frame bulkhead, under each
    /// shed policy.
    fn sag_cfg(shed: ShedPolicy) -> BrokerConfig {
        let scenario = loadgen::steady_ramp(20).then(
            900.0,
            LoadEvent::LinkSag {
                factor: 1e-9,
                for_secs: 1500.0,
            },
        );
        let mut cfg = BrokerConfig::new(5, scenario);
        cfg.horizon_secs = 3600.0;
        cfg.shed = shed;
        cfg
    }

    #[test]
    fn bulkhead_drop_oldest_sheds_but_keeps_sessions() {
        let out = run_broker(sag_cfg(ShedPolicy::DropOldest));
        let c = out.counters;
        assert!(
            c.frames_shed > 0,
            "50 stalled frames must overflow the bulkhead"
        );
        assert_eq!(c.bulkhead_disconnects, 0);
        assert_eq!(c.admitted_sessions, 20, "nobody reconnects");
        assert_eq!(c.frames_delivered + c.frames_shed, c.cursor_advance);
        assert!(out.drained);
    }

    #[test]
    fn bulkhead_demote_rides_out_the_sag_losslessly() {
        let out = run_broker(sag_cfg(ShedPolicy::DemoteToTrackOnly));
        let c = out.counters;
        // Track-only frames are cheap enough that the byte-bound bulkhead
        // (and the 60-frame ring) never trims a 50-frame backlog.
        assert_eq!(c.frames_shed, 0);
        assert_eq!(c.bulkhead_disconnects, 0);
        assert_eq!(c.frames_delivered, c.cursor_advance);
        assert!(out.drained);
    }

    #[test]
    fn bulkhead_disconnect_kicks_and_readmits() {
        let out = run_broker(sag_cfg(ShedPolicy::Disconnect));
        let c = out.counters;
        assert!(c.bulkhead_disconnects > 0);
        assert!(
            c.admitted_sessions > 20,
            "kicked sessions reconnect through the gate"
        );
        assert_eq!(c.frames_delivered + c.frames_shed, c.cursor_advance);
        assert!(out.drained);
    }

    #[test]
    fn flap_squad_trips_the_breaker() {
        let mut cfg = BrokerConfig::new(11, loadgen::ramp_with_flappers(50, 5));
        cfg.horizon_secs = 3600.0;
        let out = run_broker(cfg);
        let c = out.counters;
        assert_eq!(c.quarantined, 5, "every flapper quarantined, nobody else");
        assert_eq!(c.clients_total, 55);
        assert_eq!(c.starvation_ticks, 0);
        assert!(out.drained);
    }

    #[test]
    #[should_panic(expected = "catchup_share must be in [0, 1]")]
    fn config_rejects_bad_catchup_share() {
        let mut cfg = BrokerConfig::new(0, loadgen::steady_ramp(1));
        cfg.catchup_share = 1.5;
        run_broker(cfg);
    }

    #[test]
    #[should_panic(expected = "hysteresis requires")]
    fn config_rejects_a_ladder_without_hysteresis() {
        let mut cfg = BrokerConfig::new(0, loadgen::steady_ramp(1));
        cfg.qos.promote_at[0] = cfg.qos.demote_at[0];
        run_broker(cfg);
    }

    #[test]
    #[should_panic(expected = "trip_after must be positive")]
    fn config_rejects_a_breaker_that_trips_on_nothing() {
        let mut cfg = BrokerConfig::new(0, loadgen::steady_ramp(1));
        cfg.breaker.trip_after = 0;
        run_broker(cfg);
    }

    #[test]
    #[should_panic(expected = "breaker window must be non-negative and finite")]
    fn config_rejects_a_negative_breaker_window() {
        let mut cfg = BrokerConfig::new(0, loadgen::steady_ramp(1));
        cfg.breaker.window_secs = -1.0;
        run_broker(cfg);
    }

    #[test]
    #[should_panic(expected = "breaker window must be non-negative and finite")]
    fn config_rejects_a_nan_breaker_window() {
        let mut cfg = BrokerConfig::new(0, loadgen::steady_ramp(1));
        cfg.breaker.window_secs = f64::NAN;
        run_broker(cfg);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn config_rejects_a_fleet_whose_breaker_table_cannot_be_indexed() {
        let scenario = loadgen::steady_ramp(u64::MAX / 2).then(
            0.0,
            LoadEvent::FlapSquad {
                clients: 2,
                period_secs: 45.0,
            },
        );
        run_broker(BrokerConfig::new(0, scenario));
    }

    /// The sliding window as both tiers used to keep it: an unbounded
    /// deque per client.
    fn record_failure_oracle(
        history: &mut VecDeque<f64>,
        now: f64,
        breaker: &BreakerConfig,
    ) -> bool {
        history.push_back(now);
        while let Some(&t0) = history.front() {
            if now - t0 > breaker.window_secs {
                history.pop_front();
            } else {
                break;
            }
        }
        history.len() >= breaker.trip_after as usize
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whole-second gaps and windows, so entries routinely sit exactly
        /// on the `now - t0 == window_secs` edge (kept, not expired).
        #[test]
        fn trip_after_slots_decide_as_the_unbounded_history_did(
            trip_after in 1u32..=8,
            window_secs in prop_oneof![Just(0.0), (1u32..40).prop_map(f64::from), Just(1e9)],
            gaps in prop::collection::vec(
                prop_oneof![Just(0.0), (0u32..12).prop_map(f64::from), 0.0f64..50.0],
                1..80,
            ),
        ) {
            let breaker = BreakerConfig { trip_after, window_secs };
            let mut history = VecDeque::new();
            let mut slots = vec![0.0; trip_after as usize];
            let mut len = 0u32;
            let mut now = 0.0;
            for gap in gaps {
                now += gap;
                let want = record_failure_oracle(&mut history, now, &breaker);
                prop_assert_eq!(breaker.record_failure(&mut slots, &mut len, now), want);
                // The slots are the newest entries of the full history.
                let kept = history.len().min(trip_after as usize);
                prop_assert_eq!(len as usize, kept);
                let newest: Vec<f64> = history.iter().skip(history.len() - kept).copied().collect();
                prop_assert_eq!(&slots[..kept], &newest[..]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "MassDisconnect frac must be in [0, 1]")]
    fn config_rejects_bad_disconnect_frac() {
        let scenario = LoadScenario::single(
            10.0,
            LoadEvent::MassDisconnect {
                frac: 2.0,
                outage_secs: 10.0,
            },
        );
        run_broker(BrokerConfig::new(0, scenario));
    }

    #[test]
    fn broker_transport_tees_parked_frames_into_the_log() {
        let log = Rc::new(RefCell::new(FrameLog::new(10, 4)));
        let mut t = BrokerTransport::new(ModeledTransport, Rc::clone(&log));
        for seq in 0..6u64 {
            t.park(seq, seq as f64, Vec::new());
            assert!(t.deliver(seq, seq as f64));
        }
        let log = log.borrow();
        assert_eq!(log.head(), 6);
        assert_eq!(log.tail(), 2, "ring evicts beyond retention");
    }
}
