//! One epoch engine for both execution modes.
//!
//! The paper's application manager runs a single adaptation loop —
//! observe disk and bandwidth, decide (processors, output interval),
//! simulate an epoch, emit frames, persist, advance — yet this repo used
//! to implement that loop twice: once on the DES clock
//! ([`crate::orchestrator`]) and once as live daemons
//! ([`crate::online`]). This module extracts the loop into one
//! [`EpochEngine`] state machine, parameterized by four environment
//! traits so the two drivers differ only in the trait impls they plug in:
//!
//! | Trait             | DES driver                 | Live driver                     |
//! |-------------------|----------------------------|---------------------------------|
//! | [`Clock`]         | [`VirtualClock`] (no-op)   | [`ScaledClock`] (scaled sleeps) |
//! | [`FrameTransport`]| [`ModeledTransport`]       | [`ChannelTransport`]            |
//! | [`Durability`]    | [`NoDurability`]           | [`JournalDurability`]           |
//! | [`FaultInjector`] | [`ModeledInjector`]        | [`LiveInjector`]                |
//!
//! (The parity harness uses a third transport, [`InProcessTransport`]:
//! real encoded frames and a real track, but no receiver thread.)
//!
//! The engine advances on the DES scheduler in *both* modes — the live
//! driver simply paces event deltas against the wall clock and moves real
//! encoded frames through a real receiver thread. One loop, one fault
//! model, one accounting structure ([`PipelineCounters`]) — so every
//! future change to the adaptation loop lands once.

use crate::config::ApplicationConfig;
use crate::decision::{AlgorithmKind, BindingConstraint, RESUME_FREE_PERCENT};
use crate::fault::{Fault, FaultPlan};
use crate::jobhandler::{JobHandler, SimProcessState};
use crate::manager::{ApplicationManager, EpochContext, ManagerState};
use crate::qos::{self, QosConfig, QosController, QosRung, QosSignals};
use crate::recovery::{self, CheckpointMeta, DurabilityOptions};
use crate::steering::{SteeringCommand, SteeringState};
use cyclone::{Mission, Site};
use des::{EventId, Scheduler, Series, SeriesSet, ShardPoll, SimTime};
use perfmodel::ProcTable;
use resources::{FrameStore, Network, SharedCores, WanQueue};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use viz::TrackLog;
use wrf::WrfModel;

// ---------------------------------------------------------------------
// Shared run configuration
// ---------------------------------------------------------------------

/// How many *real* integrator workers the physics runs on.
///
/// The manager's decided processor count (`num_procs`) is a *modeled*
/// quantity: it drives the performance law, the LP, and the paper's
/// figures, and stays meaningful on any host. This knob is the *real*
/// counterpart — the size of the persistent rank team
/// ([`wrf::WorkerPool`]) actually integrating the PDE. Bitwise
/// serial/parallel parity makes the two independent: following the
/// decision changes wall time, never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysicsThreads {
    /// A fixed worker count, independent of the manager's decisions
    /// (1 = fully deterministic scheduling, plenty for decimated grids).
    Fixed(usize),
    /// Size the rank team to the manager's decided processor count each
    /// step — the paper's premise ("adding processors speeds up the
    /// simulation") made real. The team is clamped to the host's cores.
    FollowDecision,
}

impl Default for PhysicsThreads {
    fn default() -> Self {
        PhysicsThreads::Fixed(1)
    }
}

impl PhysicsThreads {
    /// Worker count to use given the manager's current decision.
    pub fn resolve(self, decided_procs: usize) -> usize {
        match self {
            PhysicsThreads::Fixed(n) => n.max(1),
            PhysicsThreads::FollowDecision => decided_procs.max(1),
        }
    }
}

/// Knobs shared by every pipeline driver (DES and live). One source of
/// defaults, so the drivers cannot drift apart.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Give up (as the paper's dotted lines do) after this much modeled
    /// wall time.
    pub wall_cap_hours: f64,
    /// Real integrator worker-team sizing (see [`PhysicsThreads`]).
    pub physics_threads: PhysicsThreads,
    /// Seed for the network-variability walk.
    pub seed: u64,
    /// Period of the stalled-disk re-check, wall seconds.
    pub stall_probe_secs: f64,
    /// Scripted resource faults, fired at their modeled wall times.
    pub fault_plan: FaultPlan,
    /// Crash-consistent durable state (`None` = volatile run). The DES
    /// driver models durability analytically and ignores this; the live
    /// driver journals and checkpoints under the given directory.
    pub durability: Option<DurabilityOptions>,
    /// Closed-loop degradation controller (`None` = ladder off: every
    /// frame ships at full resolution, exactly the pre-ladder pipeline).
    pub qos: Option<QosConfig>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            wall_cap_hours: 120.0,
            physics_threads: PhysicsThreads::default(),
            seed: 42,
            stall_probe_secs: 600.0,
            fault_plan: FaultPlan::new(),
            durability: None,
            qos: None,
        }
    }
}

// ---------------------------------------------------------------------
// Shared accounting
// ---------------------------------------------------------------------

/// Every counter the pipeline maintains, identical across drivers.
///
/// Conservation identities (asserted by
/// [`assert_frame_conservation`]):
///
/// ```text
/// frames_emitted == frames_written + frames_dropped
/// frames_written == frames_shipped + frames_in_flight
/// frames_rendered <= frames_shipped
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineCounters {
    /// Frames whose parallel I/O completed (whether or not the disk then
    /// accepted them).
    pub frames_emitted: u64,
    /// Frames written to the simulation-site disk (ledger-cumulative
    /// across incarnations in durable mode).
    pub frames_written: u64,
    /// Frames whose transfer to the visualization site completed.
    pub frames_shipped: u64,
    /// Frames decoded and rendered at the visualization site.
    pub frames_rendered: u64,
    /// Frames dropped because the disk was completely full.
    pub frames_dropped: u64,
    /// Frames still on the simulation-site disk (pending or mid-transfer)
    /// when the run ended.
    pub frames_in_flight: u64,
    /// Frames that survived a process kill on the durable ledger and were
    /// requeued for shipment by recovery.
    pub frames_recovered: u64,
    /// Completed restarts (configuration/resolution changes).
    pub restarts: u64,
    /// Stall episodes.
    pub stalls: u64,
    /// Simulation-process crashes injected (each costs a checkpoint
    /// relaunch with a requeue penalty).
    pub crashes: u64,
    /// Sender reconnects after receiver outages.
    pub reconnects: u64,
    /// Frames replayed (pushed back to the queue and re-sent) after a
    /// lost connection.
    pub replays: u64,
    /// Sends abandoned because a sender's retry *wall-clock* budget
    /// ([`crate::resilience::BackoffPolicy::with_max_total_delay`]) ran
    /// out. Live socket transports surface a permanently dead receiver
    /// here in bounded time; the modeled transport parks frames during an
    /// outage instead of spinning a sender, so DES runs report 0.
    pub retry_budget_exhausted: u64,
    /// Decision epochs that ran under a badly degraded link (measured
    /// bandwidth below a quarter of the best seen) — the store-and-
    /// forward regime where the manager widens the output interval
    /// rather than dropping frames.
    pub degraded_epochs: u64,
    /// Whole-pipeline kill→recover cycles (the recovery supervisor
    /// rebuilding an incarnation from the journal and checkpoints).
    pub recoveries: u64,
    /// Write-ahead journal replays performed while recovering.
    pub journal_replays: u64,
    /// Steering commands applied during the run.
    pub steering_commands_applied: u64,
    /// Decision epochs the application manager ran (epoch zero included).
    pub decisions: u64,
    /// Degradation-ladder demotions performed by the QoS controller
    /// (0 when the ladder is off).
    pub qos_demotions: u64,
    /// Degradation-ladder promotions performed by the QoS controller.
    pub qos_promotions: u64,
    /// Deepest ladder rung ever reached (0 = stayed at full resolution).
    pub deepest_rung: u8,
    /// Lowest free-disk percentage ever observed.
    pub min_free_disk_pct: f64,
    /// Free-disk percentage at the end of the run.
    pub final_free_disk_pct: f64,
    /// Wall hours at the first stall, if the run ever stalled.
    pub first_stall_wall_hours: Option<f64>,
}

impl Default for PipelineCounters {
    fn default() -> Self {
        PipelineCounters {
            frames_emitted: 0,
            frames_written: 0,
            frames_shipped: 0,
            frames_rendered: 0,
            frames_dropped: 0,
            frames_in_flight: 0,
            frames_recovered: 0,
            restarts: 0,
            stalls: 0,
            crashes: 0,
            reconnects: 0,
            replays: 0,
            retry_budget_exhausted: 0,
            degraded_epochs: 0,
            recoveries: 0,
            journal_replays: 0,
            steering_commands_applied: 0,
            decisions: 0,
            qos_demotions: 0,
            qos_promotions: 0,
            deepest_rung: 0,
            min_free_disk_pct: 100.0,
            final_free_disk_pct: 100.0,
            first_stall_wall_hours: None,
        }
    }
}

/// Everything one engine run produces, shared by both drivers.
/// [`crate::orchestrator::RunOutcome`] and
/// [`crate::online::OnlineReport`] embed this and deref into it.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// True when the full mission was simulated before the wall cap.
    pub completed: bool,
    /// True when the run ended (capped) while stalled on disk space.
    pub ended_stalled: bool,
    /// Modeled wall-clock hours consumed (to completion or the cap).
    pub wall_hours: f64,
    /// Simulated minutes reached.
    pub sim_minutes: f64,
    /// The figure time series (`sim_progress`, `free_disk_pct`,
    /// `viz_progress`, `procs`, `output_interval`, `binding_constraint`).
    pub series: SeriesSet,
    /// The cyclone track accumulated at the visualization end (empty for
    /// the modeled transport, which ships byte counts, not frames).
    pub track: TrackLog,
    /// All counters.
    pub counters: PipelineCounters,
}

impl Deref for PipelineReport {
    type Target = PipelineCounters;
    fn deref(&self) -> &PipelineCounters {
        &self.counters
    }
}

impl DerefMut for PipelineReport {
    fn deref_mut(&mut self) -> &mut PipelineCounters {
        &mut self.counters
    }
}

impl PipelineReport {
    /// Average simulation rate over the run, simulated minutes per wall
    /// hour.
    pub fn sim_rate_min_per_hour(&self) -> f64 {
        if self.wall_hours > 0.0 {
            self.sim_minutes / self.wall_hours
        } else {
            0.0
        }
    }
}

/// Assert the engine-level frame-conservation identities. Works on any
/// report that derefs into [`PipelineCounters`] — both drivers' reports
/// satisfy it regardless of which fault plan ran.
#[track_caller]
pub fn assert_frame_conservation(c: &PipelineCounters) {
    assert_eq!(
        c.frames_emitted,
        c.frames_written + c.frames_dropped,
        "every emitted frame is written or dropped: {c:?}"
    );
    assert_eq!(
        c.frames_written,
        c.frames_shipped + c.frames_in_flight,
        "every written frame is shipped or still held: {c:?}"
    );
    assert!(
        c.frames_rendered <= c.frames_shipped,
        "nothing renders before it ships: {c:?}"
    );
}

/// How an incarnation died (set when a scripted [`Fault::ProcessKill`]
/// fired under a [`FaultInjector`] that halts), plus the storage damage
/// staged to land with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KillEvent {
    /// Modeled wall hours into the run at which the kill fired.
    pub at_hours: f64,
    /// A [`Fault::TornWrite`] was staged: the supervisor tears the
    /// journal tail before restarting.
    pub torn_write: bool,
    /// A [`Fault::CorruptCheckpoint`] was staged: the supervisor flips
    /// bytes in the newest checkpoint before restarting.
    pub corrupt_checkpoint: bool,
}

/// Numeric code for a binding constraint so it fits a time series
/// (0 machine, 1 disk, 2 visualization, 3 infeasible).
pub fn binding_code(b: BindingConstraint) -> f64 {
    match b {
        BindingConstraint::MachineBound => 0.0,
        BindingConstraint::DiskBound => 1.0,
        BindingConstraint::VisualizationBound => 2.0,
        BindingConstraint::InfeasibleSafeCorner => 3.0,
    }
}

// ---------------------------------------------------------------------
// Environment traits
// ---------------------------------------------------------------------

/// How modeled time relates to real time.
pub trait Clock {
    /// Called once per event with the modeled seconds elapsed since the
    /// previous event; a live clock sleeps here, a virtual clock returns
    /// immediately.
    fn pace(&mut self, modeled_dt_secs: f64);
}

/// Pure virtual time: the whole run completes as fast as the host can
/// pop events.
pub struct VirtualClock;

impl Clock for VirtualClock {
    fn pace(&mut self, _modeled_dt_secs: f64) {}
}

/// Wall-clock pacing: sleep `scale` real seconds per modeled second
/// (capped per event). A non-positive scale degenerates to virtual time.
pub struct ScaledClock {
    /// Real seconds slept per modeled second (e.g. `2e-5` runs a modeled
    /// hour in 72 ms).
    pub scale: f64,
}

impl Clock for ScaledClock {
    fn pace(&mut self, modeled_dt_secs: f64) {
        if self.scale > 0.0 && modeled_dt_secs > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(
                (modeled_dt_secs * self.scale).min(0.25),
            ));
        }
    }
}

/// How frames leave the simulation site and reach the visualization end.
pub trait FrameTransport {
    /// Produce the frame that parallel I/O will write: returns the bytes
    /// that land on the simulation-site disk plus the encoded payload
    /// that will later cross the link (empty for a modeled transport).
    /// `rung` is the degradation rung the QoS controller has in force —
    /// [`QosRung::FullRes`] whenever the ladder is off.
    fn emit(
        &mut self,
        model: &WrfModel,
        sim_min: f64,
        modeled_bytes: u64,
        rung: QosRung,
    ) -> (u64, Vec<u8>);

    /// Frame size the decision algorithm should plan with. The modeled
    /// transport plans with Table-IV frame sizes; live transports plan
    /// with a representative real encoding so a scaled-down disk is sized
    /// in frame multiples.
    fn decision_frame_bytes(&self, modeled_bytes: u64) -> u64 {
        modeled_bytes
    }

    /// Park a committed frame's payload until the sender ships it.
    fn park(&mut self, id: u64, sim_min: f64, payload: Vec<u8>);

    /// Deliver frame `id` to the visualization site (the transfer itself
    /// has already been timed by the engine). Returns true when the frame
    /// was freshly applied — i.e. a visualization render should follow —
    /// and false for duplicates below the receiver's watermark or ledger
    /// entries whose payload did not survive (settled shipped-and-lost).
    fn deliver(&mut self, id: u64, sim_min: f64) -> bool;

    /// The receiver's applied watermark (last applied frame id + 1), for
    /// checkpoint metadata.
    fn applied_watermark(&self) -> u64 {
        0
    }

    /// Tear the transport down and hand back the accumulated track.
    fn finish(&mut self) -> TrackLog;
}

/// The DES transport: frames are byte counts; shipping is fully modeled
/// and every delivered frame renders.
pub struct ModeledTransport;

impl FrameTransport for ModeledTransport {
    fn emit(
        &mut self,
        _model: &WrfModel,
        _sim_min: f64,
        modeled_bytes: u64,
        rung: QosRung,
    ) -> (u64, Vec<u8>) {
        // Scale the modeled frame by the rung's encoding ratio, exactly
        // as the real encodings shrink live payloads.
        let scaled = ((modeled_bytes as f64 * rung.byte_factor()).ceil() as u64).max(1);
        (scaled, Vec::new())
    }

    fn park(&mut self, _id: u64, _sim_min: f64, _payload: Vec<u8>) {}

    fn deliver(&mut self, _id: u64, _sim_min: f64) -> bool {
        true
    }

    fn finish(&mut self) -> TrackLog {
        TrackLog::new()
    }
}

/// Real encoded frames and a real track, applied in-process (no receiver
/// thread). Used by the DES↔live parity harness: it exercises the exact
/// live emission path while keeping the run single-threaded.
pub struct InProcessTransport {
    decision_bytes: u64,
    receiver_path: Option<PathBuf>,
    payloads: Vec<(u64, Vec<u8>)>,
    spent: SpentBuffers,
    watermark: u64,
    track: TrackLog,
}

impl InProcessTransport {
    /// New transport planning decisions around `decision_bytes` per frame.
    pub fn new(decision_bytes: u64) -> Self {
        InProcessTransport {
            decision_bytes,
            receiver_path: None,
            payloads: Vec::new(),
            spent: SpentBuffers::default(),
            watermark: 0,
            track: TrackLog::new(),
        }
    }
}

/// Payload buffers the receiving end is done with, kept for the next
/// `emit` to encode into. A buffer is only ever allocated when none has
/// come back yet, so the transports never hold more buffers than frames
/// were in flight at once; the cap bounds what sits idle after a backlog
/// drains.
#[derive(Default)]
struct SpentBuffers(Vec<Vec<u8>>);

impl SpentBuffers {
    const MAX_IDLE: usize = 4;

    fn give(&mut self, buf: Vec<u8>) {
        if self.0.len() < Self::MAX_IDLE {
            self.0.push(buf);
        }
    }

    /// Encode the frame at `rung` into a recycled buffer (a new one when
    /// none has come back yet).
    fn encode(&mut self, model: &WrfModel, rung: QosRung) -> (u64, Vec<u8>) {
        let mut bytes = self.0.pop().unwrap_or_default();
        qos::encode_frame_into(model, rung, &mut bytes);
        (bytes.len() as u64, bytes)
    }
}

fn pop_payload(payloads: &mut Vec<(u64, Vec<u8>)>, id: u64) -> Option<Vec<u8>> {
    let idx = payloads.iter().position(|(pid, _)| *pid == id)?;
    Some(payloads.remove(idx).1)
}

impl FrameTransport for InProcessTransport {
    fn emit(
        &mut self,
        model: &WrfModel,
        _sim_min: f64,
        _modeled_bytes: u64,
        rung: QosRung,
    ) -> (u64, Vec<u8>) {
        self.spent.encode(model, rung)
    }

    fn decision_frame_bytes(&self, _modeled_bytes: u64) -> u64 {
        self.decision_bytes
    }

    fn park(&mut self, id: u64, _sim_min: f64, payload: Vec<u8>) {
        self.payloads.push((id, payload));
    }

    fn deliver(&mut self, id: u64, _sim_min: f64) -> bool {
        let Some(bytes) = pop_payload(&mut self.payloads, id) else {
            return false; // ledger entry without payload: shipped-and-lost
        };
        if id < self.watermark {
            return false; // duplicate below the watermark: replay idempotence
        }
        qos::ingest_tagged(&mut self.track, &bytes);
        self.spent.give(bytes);
        self.watermark = id + 1;
        if let Some(path) = &self.receiver_path {
            let _ = recovery::save_receiver_state(path, self.watermark, &self.track);
        }
        true
    }

    fn applied_watermark(&self) -> u64 {
        self.watermark
    }

    fn finish(&mut self) -> TrackLog {
        std::mem::take(&mut self.track)
    }
}

/// The live transport: a bounded channel standing in for the wide-area
/// link, with a real receiver/visualization thread decoding frames,
/// persisting its durable state, and acking each frame after it is
/// applied — the engine settles a frame in the ledger only after the
/// remote end durably has it.
pub struct ChannelTransport {
    decision_bytes: u64,
    payloads: Vec<(u64, Vec<u8>)>,
    spent: SpentBuffers,
    watermark: Arc<AtomicU64>,
    frame_tx: Option<crossbeam::channel::Sender<(u64, f64, Vec<u8>)>>,
    /// Acks carry the frame's buffer back: the receiver is the last reader
    /// of the bytes, and the sender is about to need a buffer that size.
    ack_rx: crossbeam::channel::Receiver<(u64, Vec<u8>)>,
    receiver: Option<std::thread::JoinHandle<TrackLog>>,
}

impl ChannelTransport {
    /// Spawn the receiver/visualization thread. `receiver_path` is where
    /// its durable state lives (`None` = volatile); `boot_watermark`,
    /// `boot_track`, and `payloads` resume a prior incarnation.
    pub fn new(
        decision_bytes: u64,
        receiver_path: Option<PathBuf>,
        boot_watermark: u64,
        boot_track: TrackLog,
        payloads: Vec<(u64, f64, Vec<u8>)>,
    ) -> Self {
        let watermark = Arc::new(AtomicU64::new(boot_watermark));
        let (frame_tx, frame_rx) = crossbeam::channel::bounded::<(u64, f64, Vec<u8>)>(1);
        let (ack_tx, ack_rx) = crossbeam::channel::bounded::<(u64, Vec<u8>)>(1);
        let thread_mark = Arc::clone(&watermark);
        let receiver = std::thread::spawn(move || {
            let mut track = boot_track;
            while let Ok((id, _t, bytes)) = frame_rx.recv() {
                let mark = thread_mark.load(Ordering::SeqCst);
                if id >= mark {
                    qos::ingest_tagged(&mut track, &bytes);
                    // Apply-then-persist-then-ack: the receiver's durable
                    // state always covers everything it has acknowledged.
                    thread_mark.store(id + 1, Ordering::SeqCst);
                    if let Some(path) = &receiver_path {
                        let _ = recovery::save_receiver_state(path, id + 1, &track);
                    }
                }
                // Duplicates (already below the watermark) are acked
                // without re-applying — replay idempotence.
                if ack_tx.send((id, bytes)).is_err() {
                    break;
                }
            }
            track
        });
        ChannelTransport {
            decision_bytes,
            payloads: payloads.into_iter().map(|(id, _, b)| (id, b)).collect(),
            spent: SpentBuffers::default(),
            watermark,
            frame_tx: Some(frame_tx),
            ack_rx,
            receiver: Some(receiver),
        }
    }
}

impl FrameTransport for ChannelTransport {
    fn emit(
        &mut self,
        model: &WrfModel,
        _sim_min: f64,
        _modeled_bytes: u64,
        rung: QosRung,
    ) -> (u64, Vec<u8>) {
        self.spent.encode(model, rung)
    }

    fn decision_frame_bytes(&self, _modeled_bytes: u64) -> u64 {
        self.decision_bytes
    }

    fn park(&mut self, id: u64, _sim_min: f64, payload: Vec<u8>) {
        self.payloads.push((id, payload));
    }

    fn deliver(&mut self, id: u64, sim_min: f64) -> bool {
        let Some(bytes) = pop_payload(&mut self.payloads, id) else {
            return false; // shipped-and-lost: settle without rendering
        };
        let mark_before = self.watermark.load(Ordering::SeqCst);
        let Some(tx) = &self.frame_tx else {
            return false;
        };
        if tx.send((id, sim_min, bytes)).is_err() {
            return false;
        }
        match self.ack_rx.recv() {
            Ok((acked, spent)) if acked == id => self.spent.give(spent),
            _ => return false,
        }
        id >= mark_before
    }

    fn applied_watermark(&self) -> u64 {
        self.watermark.load(Ordering::SeqCst)
    }

    fn finish(&mut self) -> TrackLog {
        self.frame_tx = None; // closes the channel; the receiver drains out
        match self.receiver.take() {
            Some(handle) => handle.join().unwrap_or_default(),
            None => TrackLog::new(),
        }
    }
}

/// One checkpoint's worth of state, cut by the engine when the
/// [`Durability`] layer says a checkpoint is due.
pub struct CheckpointCut<'a> {
    /// Simulated minutes at checkpoint time.
    pub sim_minutes: f64,
    /// Next scheduled output, simulated minutes.
    pub next_output_min: f64,
    /// Application configuration in force.
    pub config: ApplicationConfig,
    /// Manager epoch state.
    pub manager: ManagerState,
    /// Cumulative stall episodes.
    pub stalls: u64,
    /// Cumulative simulation crashes.
    pub crashes: u64,
    /// Receiver's applied watermark.
    pub applied_watermark: u64,
    /// The model to serialize — borrowed, so the durability layer streams
    /// it to its file and no copy of the state is cut on the solver thread.
    pub model: &'a WrfModel,
}

/// How (and whether) the pipeline persists crash-consistent state.
pub trait Durability {
    /// Make frame `id`'s payload durable *before* its ledger record
    /// commits. Returning false vetoes the commit (the frame is dropped).
    fn persist_frame(&mut self, id: u64, payload: &[u8]) -> bool {
        let _ = (id, payload);
        true
    }

    /// Remove a persisted payload whose ledger commit failed after all.
    fn discard_frame(&mut self, id: u64) {
        let _ = id;
    }

    /// True when a checkpoint should be cut at this simulated minute.
    fn checkpoint_due(&self, sim_minutes: f64) -> bool {
        let _ = sim_minutes;
        false
    }

    /// Write one checkpoint bundle.
    fn write_checkpoint(&mut self, cut: &CheckpointCut<'_>) {
        let _ = cut;
    }

    /// The mission completed cleanly; retire the durable state.
    fn mark_completed(&mut self) {}
}

/// Volatile run: nothing is persisted.
pub struct NoDurability;

impl Durability for NoDurability {}

/// Journal + checkpoint durability rooted at a
/// [`DurabilityOptions::state_dir`] (see [`crate::recovery`] for the
/// on-disk layout). Payload files are fsynced before the journal record
/// that commits them; checkpoints are cut on a simulated-minute cadence.
pub struct JournalDurability {
    opts: DurabilityOptions,
    ckpt_seq: u64,
    next_ckpt: f64,
    every: f64,
}

impl JournalDurability {
    /// New durability layer resuming at `resume_sim_minutes` with
    /// `next_checkpoint_seq` as the next checkpoint file number.
    pub fn new(opts: DurabilityOptions, resume_sim_minutes: f64, next_checkpoint_seq: u64) -> Self {
        let every = opts.checkpoint_every_min;
        // First cadence boundary strictly ahead of the resume point.
        let next_ckpt = if every > 0.0 {
            (resume_sim_minutes / every).floor() * every + every
        } else {
            f64::INFINITY
        };
        JournalDurability {
            opts,
            ckpt_seq: next_checkpoint_seq,
            next_ckpt,
            every,
        }
    }
}

impl Durability for JournalDurability {
    fn persist_frame(&mut self, id: u64, payload: &[u8]) -> bool {
        // Durable order: payload file first (fsynced), then the journal
        // record that commits it — a Store record in the journal implies
        // its bytes are on disk.
        let path = recovery::frame_path(&self.opts.frames_dir(), id);
        wrf::checkpoint::write_snapshot_file(&path, payload).is_ok()
    }

    fn discard_frame(&mut self, id: u64) {
        let _ = std::fs::remove_file(recovery::frame_path(&self.opts.frames_dir(), id));
    }

    fn checkpoint_due(&self, sim_minutes: f64) -> bool {
        sim_minutes + 1e-9 >= self.next_ckpt
    }

    fn write_checkpoint(&mut self, cut: &CheckpointCut<'_>) {
        let meta = CheckpointMeta {
            sim_minutes: cut.sim_minutes,
            next_output_min: cut.next_output_min,
            config: cut.config.clone(),
            manager: cut.manager,
            stalls: cut.stalls,
            crashes: cut.crashes,
            applied_watermark: cut.applied_watermark,
        };
        let dir = self.opts.checkpoints_dir();
        if recovery::write_checkpoint(&dir, self.ckpt_seq, &meta, cut.model).is_ok() {
            self.ckpt_seq += 1;
            recovery::prune_checkpoints(&dir, self.opts.keep_checkpoints);
        }
        self.next_ckpt += self.every;
    }

    fn mark_completed(&mut self) {
        recovery::mark_completed(&self.opts);
    }
}

impl<D: Durability> Durability for Option<D> {
    fn persist_frame(&mut self, id: u64, payload: &[u8]) -> bool {
        match self {
            Some(d) => d.persist_frame(id, payload),
            None => true,
        }
    }

    fn discard_frame(&mut self, id: u64) {
        if let Some(d) = self {
            d.discard_frame(id);
        }
    }

    fn checkpoint_due(&self, sim_minutes: f64) -> bool {
        match self {
            Some(d) => d.checkpoint_due(sim_minutes),
            None => false,
        }
    }

    fn write_checkpoint(&mut self, cut: &CheckpointCut<'_>) {
        if let Some(d) = self {
            d.write_checkpoint(cut);
        }
    }

    fn mark_completed(&mut self) {
        if let Some(d) = self {
            d.mark_completed();
        }
    }
}

/// What a [`Fault::ProcessKill`] does under this driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillAction {
    /// Model the whole kill→replay→relaunch cycle analytically inside
    /// the run (the DES driver).
    ModeledRecovery,
    /// Halt this incarnation dead and report a [`KillEvent`] for the
    /// recovery supervisor to act on (the live driver).
    HaltIncarnation,
}

/// How scripted faults that end a process are interpreted. All other
/// fault kinds behave identically across drivers and are handled by the
/// engine itself — this trait is the *only* driver-specific fault hook.
pub trait FaultInjector {
    /// What a whole-pipeline kill does under this driver.
    fn kill_action(&mut self) -> KillAction;
}

/// DES driver: kills are modeled analytically.
pub struct ModeledInjector;

impl FaultInjector for ModeledInjector {
    fn kill_action(&mut self) -> KillAction {
        KillAction::ModeledRecovery
    }
}

/// Live driver: kills halt the incarnation for the recovery supervisor.
pub struct LiveInjector;

impl FaultInjector for LiveInjector {
    fn kill_action(&mut self) -> KillAction {
        KillAction::HaltIncarnation
    }
}

// ---------------------------------------------------------------------
// Engine setup
// ---------------------------------------------------------------------

/// State carried into the engine when resuming a durable incarnation
/// (all `None`/empty on a cold start).
pub struct EngineBoot {
    /// Model to resume from (`None` = cold start from the mission config).
    pub model: Option<WrfModel>,
    /// Next scheduled output in simulated minutes (`None` = mission
    /// minimum).
    pub next_output_min: Option<f64>,
    /// Configuration to resume with (`None` = run epoch zero).
    pub config: Option<ApplicationConfig>,
    /// Manager epoch state to resume from.
    pub manager: Option<ManagerState>,
    /// Outputs at or before this simulated minute are already durable:
    /// the resuming engine advances its output schedule through them
    /// without re-storing (re-simulation is bit-exact).
    pub skip_outputs_through: f64,
    /// Cumulative stall episodes from prior incarnations.
    pub base_stalls: u64,
    /// Cumulative crashes from prior incarnations.
    pub base_crashes: u64,
}

impl Default for EngineBoot {
    fn default() -> Self {
        EngineBoot {
            model: None,
            next_output_min: None,
            config: None,
            manager: None,
            skip_outputs_through: f64::NEG_INFINITY,
            base_stalls: 0,
            base_crashes: 0,
        }
    }
}

/// The resource models one fleet's missions contend for. Each mission
/// touches these only inside shared-resource events, which the fleet
/// coordinator executes in global `(time, shard)` order — so although the
/// mutexes admit any interleaving, the *sequence* of mutations is a pure
/// function of the mission set (see `crates/des/src/shard.rs`).
pub struct FleetShared {
    /// The cluster's core pool, re-partitioned at decision epochs.
    pub cluster: Mutex<SharedCores>,
    /// The shared sim→vis WAN link (one transfer at a time, FIFO grants).
    pub wan: Mutex<WanQueue>,
}

/// One mission's handle into its fleet's shared resources.
#[derive(Clone)]
pub struct FleetHandle {
    /// The shared resource models, one set per fleet.
    pub shared: Arc<FleetShared>,
    /// This mission's shard id (its member index in the shared models).
    pub shard: usize,
}

impl FleetHandle {
    fn wan(&self) -> std::sync::MutexGuard<'_, WanQueue> {
        self.shared.wan.lock().expect("fleet wan lock")
    }

    fn cluster(&self) -> std::sync::MutexGuard<'_, SharedCores> {
        self.shared.cluster.lock().expect("fleet cluster lock")
    }
}

/// Everything a driver hands the engine besides the environment traits.
pub struct EngineSetup {
    /// Site characteristics (cluster, link, disk, render cost).
    pub site: Site,
    /// The mission to simulate.
    pub mission: Mission,
    /// Decision algorithm for the application manager.
    pub algorithm: AlgorithmKind,
    /// Shared run knobs (wall cap, seed, fault plan, ...).
    pub options: PipelineOptions,
    /// Frame ledger over the simulation-site disk (journal-backed when
    /// resuming a durable incarnation).
    pub store: FrameStore,
    /// The sim→vis link model the sender and bandwidth probe observe.
    pub net: Network,
    /// Scripted steering commands, fired at modeled wall hours.
    pub steering_script: Vec<(f64, SteeringCommand)>,
    /// Where to publish the application configuration file after every
    /// decision (`None` = keep it in memory only).
    pub publish_config: Option<PathBuf>,
    /// Keep running after mission completion until every written frame
    /// has shipped and rendered (the live drivers drain; the DES driver
    /// halts where the paper's figures end).
    pub drain_on_complete: bool,
    /// Resume state from a prior incarnation.
    pub boot: EngineBoot,
    /// Fleet mode: this mission shares the cluster core pool and the WAN
    /// link with its fleet-mates (`None` = solo run, resources private).
    pub fleet: Option<FleetHandle>,
}

/// What [`EpochEngine::run`] returns.
pub struct EngineOutput {
    /// The shared report.
    pub report: PipelineReport,
    /// Set when a scripted kill halted this incarnation.
    pub kill: Option<KillEvent>,
}

/// The unified pipeline engine: one epoch-driven state machine
/// (observe → decide → simulate-epoch → emit/transport → persist →
/// advance) advancing on a DES scheduler, parameterized by the
/// environment traits.
pub struct EpochEngine<C, T, D, F> {
    setup: EngineSetup,
    clock: C,
    transport: T,
    durability: D,
    injector: F,
}

// ---------------------------------------------------------------------
// The state machine
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Ev {
    /// One solve step finished.
    Step,
    /// One frame finished writing through parallel I/O.
    FrameDone {
        sim_min: f64,
        bytes: u64,
        payload: Vec<u8>,
    },
    /// One frame finished crossing the network.
    TransferDone { id: u64 },
    /// Fleet mode: the sender asks for the shared WAN link. Solo runs
    /// never schedule this — their `kick_sender` starts the transfer
    /// inline, exactly as before the fleet split.
    LinkRequest,
    /// The visualization process finished rendering a frame.
    RenderDone { sim_min: f64 },
    /// Application-manager decision epoch.
    Decision,
    /// Checkpoint-restart finished; the new configuration is live.
    RestartDone,
    /// Periodic re-check while stalled with a full disk.
    StallProbe,
    /// A scripted steering command from the visualization end arrives.
    Steering(SteeringCommand),
    /// A scripted resource fault strikes.
    Fault(Fault),
    /// A receiver outage ends; the resilient sender reconnects and
    /// replays whatever is pending.
    ReceiverRestored,
    /// An external writer releases seized disk space.
    ExternalRelease { bytes: u64 },
}

struct World<T, D, F> {
    site: Site,
    mission: Mission,
    options: PipelineOptions,
    manager: ApplicationManager,
    handler: JobHandler,
    model: WrfModel,
    store: FrameStore,
    net: Network,
    transport: T,
    durability: D,
    injector: F,
    config: ApplicationConfig,
    pending_config: Option<ApplicationConfig>,
    next_output_min: f64,
    io_pending: bool,
    sender_busy: bool,
    step_event: Option<EventId>,
    /// The in-flight transfer's (event, frame id), so a receiver outage
    /// can cancel it and push the frame back to pending.
    transfer_event: Option<(EventId, u64)>,
    /// Fleet mode: shared-resource handle (`None` = solo run).
    fleet: Option<FleetHandle>,
    /// Fleet mode: the sender is queued for the shared WAN link (its
    /// grant will arrive through the per-member mailbox).
    wan_waiting: bool,
    /// Nesting depth of overlapping receiver outages (0 = reachable).
    outage_depth: u32,
    /// Link degradation the faults intend, independent of outages (the
    /// value restored when the receiver comes back).
    link_factor: f64,
    completed: bool,
    drain: bool,
    /// Processor-table cache keyed by (scaling-fit fingerprint,
    /// resolution bits, nest): a perfmodel re-fit changes the fingerprint,
    /// so stale tables (and the ∂t/∂p decisions read off them) can never
    /// be served against new coefficients.
    tables: HashMap<(u64, u64, bool), ProcTable>,
    publish_config: Option<PathBuf>,
    /// Closed-loop degradation controller (`None` = ladder off).
    qos: Option<QosController>,
    /// The rung currently in force ([`QosRung::FullRes`] when off).
    rung: QosRung,
    // Series.
    sim_progress: Series,
    free_disk: Series,
    viz_progress: Series,
    procs_series: Series,
    oi_series: Series,
    binding_series: Series,
    qos_rung_series: Series,
    qos_pressure_series: Series,
    // Counters.
    frames_emitted: u64,
    frames_dropped: u64,
    frames_rendered: u64,
    renders_outstanding: u32,
    min_free_pct: f64,
    first_stall: Option<f64>,
    steering: SteeringState,
    reconnects: u64,
    replays: u64,
    crashes: u64,
    recoveries: u64,
    journal_replays: u64,
    frames_recovered: u64,
    base_stalls: u64,
    base_crashes: u64,
    /// Outputs at or before this simulated minute are already durable.
    skip_outputs_through: f64,
    /// A [`Fault::TornWrite`] is staged to land with the next kill.
    torn_staged: bool,
    /// A [`Fault::CorruptCheckpoint`] is staged to land with the next
    /// kill (recovery then falls back to an older checkpoint, which
    /// costs extra re-simulation).
    corrupt_staged: bool,
    /// Set when a scripted kill halted this incarnation.
    kill: Option<KillEvent>,
}

impl<T: FrameTransport, D: Durability, F: FaultInjector> World<T, D, F> {
    fn proc_table(&mut self, res_km: f64, nest: bool) -> &ProcTable {
        let (site, mission) = (&self.site, &self.mission);
        let key = (site.cluster.scaling.fingerprint(), res_km.to_bits(), nest);
        self.tables
            .entry(key)
            .or_insert_with(|| site.proc_table(mission, res_km, nest))
    }

    /// Wall seconds per solve step under the active configuration.
    fn step_wall_secs(&mut self) -> f64 {
        let (res, nest, procs) = (
            self.config.resolution_km,
            self.config.nest_active,
            self.config.num_procs,
        );
        let table = self.proc_table(res, nest);
        table
            .time_for(procs)
            .unwrap_or_else(|| table.procs_closest_to_time(f64::INFINITY).1)
    }

    fn frame_bytes(&self) -> u64 {
        self.mission
            .frame_bytes(self.config.resolution_km, self.config.nest_active)
    }

    /// Estimated remaining wall time (the LP's overflow horizon `n`).
    ///
    /// Deliberately pessimistic: the pressure schedule will refine the
    /// grid toward its finest stage, where steps are smaller *and* each
    /// costs more, so the remaining mission is costed at the finest
    /// resolution with the nest active. A horizon estimated from the
    /// current (coarse) stage would let the early epochs write far too
    /// eagerly — the greedy algorithm's exact failure mode.
    fn horizon_secs(&mut self) -> f64 {
        let remaining_min = (self.mission.duration_minutes() - self.model.sim_minutes()).max(0.0);
        let finest = self.mission.schedule.finest_km();
        let dt = self.mission.dt_secs(finest);
        let steps = remaining_min * 60.0 / dt;
        // Cost the horizon at *maximum* cores, independent of the current
        // allocation: if it tracked the chosen processor count, slowing
        // down would lengthen the horizon, which tightens the overflow
        // constraint, which slows down further — a death spiral.
        let t = self.proc_table(finest, true).min_time();
        (steps * t).max(self.mission.decision_interval_hours * 3600.0)
    }

    fn record_disk(&mut self, now: SimTime) {
        let pct = self.store.disk().free_percent();
        self.min_free_pct = self.min_free_pct.min(pct);
        self.free_disk.record(now, pct);
    }

    fn record_config(&mut self, now: SimTime) {
        self.procs_series.record(now, self.config.num_procs as f64);
        self.oi_series.record(now, self.config.output_interval_min);
    }

    fn record_sim(&mut self, now: SimTime) {
        self.sim_progress.record(now, self.model.sim_minutes());
    }

    /// Publish the application configuration file, when this driver
    /// carries one (the live mode's real JSON file on disk).
    fn publish_config_file(&self) {
        if let Some(path) = &self.publish_config {
            self.config
                .write_file(path)
                .expect("application configuration file is writable");
        }
    }

    /// Remember when the first stall happened (for the non-adaptive-
    /// baseline comparison: "stalls much earlier").
    fn note_stall(&mut self, now: SimTime) {
        if self.first_stall.is_none() {
            self.first_stall = Some(now.as_hours());
        }
    }

    /// Start the next transfer if the link is free, the receiver is
    /// reachable, and frames are waiting. The ladder's bottom rung
    /// (store-and-forward pause) holds the sender entirely: frames keep
    /// accumulating on the durable store and ship when the controller
    /// promotes again — or when the mission completes and drains.
    fn kick_sender(&mut self, sched: &mut Scheduler<Ev>) {
        if self.sender_busy || self.outage_depth > 0 || !self.store.has_pending() {
            return;
        }
        if self.rung == QosRung::Pause && !self.completed {
            return;
        }
        if self.fleet.is_some() {
            // Fleet mode: the WAN is shared, so acquisition goes through
            // the coordinator-ordered LinkRequest event instead of
            // starting the transfer inline. `sender_busy` holds the send
            // slot until the request resolves.
            self.sender_busy = true;
            sched.schedule_in(0.0, Ev::LinkRequest);
            return;
        }
        let meta = self.store.begin_transfer().expect("pending checked");
        self.net.step();
        let secs = self.net.transfer_time(meta.bytes);
        self.sender_busy = true;
        let id = sched.schedule_in(secs, Ev::TransferDone { id: meta.id });
        self.transfer_event = Some((id, meta.id));
    }

    /// Begin the pending frame's transfer with the link already in hand,
    /// completing `transfer_time` seconds after `at`. Fleet-mode only:
    /// `at` is the request instant (immediate acquisition) or the WAN
    /// grant instant, which never precedes this shard's clock.
    fn start_transfer_at(&mut self, at: SimTime, sched: &mut Scheduler<Ev>) {
        let meta = self.store.begin_transfer().expect("pending checked");
        self.net.step();
        let secs = self.net.transfer_time(meta.bytes);
        let id = sched.schedule_at(at + secs, Ev::TransferDone { id: meta.id });
        self.transfer_event = Some((id, meta.id));
    }

    /// Fleet mode: hand the shared WAN link back, granting the earliest
    /// waiting fleet-mate (no-op solo).
    fn release_wan(&mut self, now: SimTime) {
        if let Some(fleet) = &self.fleet {
            fleet.wan().release(fleet.shard, now.as_secs());
        }
    }

    /// Fleet mode: withdraw a pending WAN wait (outage or kill struck
    /// while queued); an already-arrived grant is passed straight on.
    /// No-op solo or when not waiting.
    fn cancel_wan_wait(&mut self, now: SimTime) {
        if !self.wan_waiting {
            return;
        }
        let fleet = self.fleet.clone().expect("wan_waiting implies fleet mode");
        fleet.wan().cancel(fleet.shard, now.as_secs());
        self.wan_waiting = false;
        self.sender_busy = false;
    }

    /// Fleet mode: consume the WAN grant sitting in this shard's mailbox
    /// and start the transfer at the grant instant. The request's
    /// conditions are re-checked first — a Pause demotion (or, defensively,
    /// an outage) that landed while queued passes the link straight on
    /// instead of transferring.
    fn take_wan_grant(&mut self, sched: &mut Scheduler<Ev>) {
        let fleet = self.fleet.clone().expect("grant implies fleet mode");
        let g = fleet.wan().take_grant(fleet.shard);
        self.wan_waiting = false;
        if self.outage_depth > 0 || (self.rung == QosRung::Pause && !self.completed) {
            self.sender_busy = false;
            fleet.wan().release(fleet.shard, g);
            return;
        }
        let at = SimTime::from_secs(g);
        debug_assert!(at >= sched.now(), "WAN grant precedes the shard clock");
        self.start_transfer_at(at, sched);
    }

    /// Fleet mode: clamp a decided processor count to this mission's
    /// grant from the shared core pool (identity solo). The coordinator
    /// executes decision epochs in global `(time, shard)` order, so
    /// contention resolves identically on every run.
    fn clamp_shared_cores(&self, mut next: ApplicationConfig) -> ApplicationConfig {
        if let Some(fleet) = &self.fleet {
            next.num_procs = fleet.cluster().realloc(fleet.shard, next.num_procs);
        }
        next
    }

    /// Push the faults' intended link state onto the network model: a
    /// down receiver reads as an (effectively) dead link so the bandwidth
    /// probe and the decision algorithm see the outage through their
    /// ordinary observations.
    fn apply_link(&mut self) {
        let factor = if self.outage_depth > 0 {
            1e-6
        } else {
            self.link_factor
        };
        self.net.set_degradation(factor);
    }

    /// Schedule the next solve step.
    fn schedule_step(&mut self, sched: &mut Scheduler<Ev>) {
        debug_assert!(self.handler.is_running());
        debug_assert!(!self.io_pending);
        let t = self.step_wall_secs();
        self.step_event = Some(sched.schedule_in(t, Ev::Step));
    }

    fn cancel_step(&mut self, sched: &mut Scheduler<Ev>) {
        if let Some(id) = self.step_event.take() {
            sched.cancel(id);
        }
    }

    /// Begin a checkpoint-stop-restart with `next` as the target
    /// configuration.
    fn begin_restart(&mut self, next: ApplicationConfig, sched: &mut Scheduler<Ev>) {
        self.cancel_step(sched);
        self.handler.begin_restart();
        self.pending_config = Some(next);
        sched.schedule_in(self.site.cluster.restart_overhead_secs, Ev::RestartDone);
    }

    /// The pressure schedule's prescription given the current state
    /// (with coarsening hysteresis — see
    /// [`cyclone::ResolutionSchedule::apply_with_hysteresis`]).
    fn scheduled_resolution(&self) -> (f64, bool) {
        let p = self.model.min_pressure_hpa();
        let scheduled = self.mission.schedule.apply_with_hysteresis(
            p,
            self.config.resolution_km,
            self.config.nest_active,
        );
        self.steering.effective_resolution(scheduled)
    }

    /// Cut a checkpoint when the durability layer's cadence says one is
    /// due. Called wherever the output schedule is settled (end of a
    /// solve step or a completed frame write).
    fn maybe_checkpoint(&mut self) {
        if !self.durability.checkpoint_due(self.model.sim_minutes()) {
            return;
        }
        let cut = CheckpointCut {
            sim_minutes: self.model.sim_minutes(),
            next_output_min: self.next_output_min,
            config: self.config.clone(),
            manager: self.manager.state(),
            stalls: self.base_stalls + self.handler.stalls() as u64,
            crashes: self.base_crashes + self.crashes,
            applied_watermark: self.transport.applied_watermark(),
            model: &self.model,
        };
        self.durability.write_checkpoint(&cut);
    }
}

impl<C, T, D, F> EpochEngine<C, T, D, F>
where
    C: Clock,
    T: FrameTransport,
    D: Durability,
    F: FaultInjector,
{
    /// Assemble an engine from its setup and environment impls.
    pub fn new(setup: EngineSetup, clock: C, transport: T, durability: D, injector: F) -> Self {
        EpochEngine {
            setup,
            clock,
            transport,
            durability,
            injector,
        }
    }

    /// Run the pipeline to completion, the wall cap, or a halting kill.
    /// Exactly [`Self::start`], [`RunningEngine::step_one`] to a halt,
    /// then [`RunningEngine::finish`] — the fleet layer drives the same
    /// three pieces, one event at a time, under its coordinator.
    pub fn run(self) -> EngineOutput {
        let mut running = self.start();
        while running.step_one() {}
        running.finish()
    }

    /// Build the world and seed the event queue, handing back a
    /// [`RunningEngine`] ready to be stepped.
    pub fn start(self) -> RunningEngine<C, T, D, F> {
        let EpochEngine {
            setup,
            clock,
            transport,
            durability,
            injector,
        } = self;
        let EngineSetup {
            site,
            mission,
            algorithm,
            options,
            store,
            net,
            steering_script,
            publish_config,
            drain_on_complete,
            boot,
            fleet,
        } = setup;

        let cold_config = boot.config.is_none();
        let model = match boot.model {
            Some(m) => m,
            None => WrfModel::new(mission.model).expect("mission model config is valid"),
        };
        let manager = match boot.manager {
            Some(state) => ApplicationManager::restore(algorithm, state),
            None => ApplicationManager::new(algorithm),
        };
        let config = boot.config.unwrap_or_else(|| {
            ApplicationConfig::initial(
                site.cluster.max_cores,
                mission.min_output_interval_min,
                mission.model.resolution_km,
            )
        });
        let next_output_min = boot
            .next_output_min
            .unwrap_or(mission.min_output_interval_min);
        let fault_script = options.fault_plan.events.clone();

        let mut world = World {
            manager,
            handler: JobHandler::new(),
            model,
            store,
            net,
            transport,
            durability,
            injector,
            config,
            pending_config: None,
            next_output_min,
            io_pending: false,
            sender_busy: false,
            step_event: None,
            transfer_event: None,
            fleet,
            wan_waiting: false,
            outage_depth: 0,
            link_factor: 1.0,
            completed: false,
            drain: drain_on_complete,
            tables: HashMap::new(),
            publish_config,
            qos: options.qos.clone().map(QosController::new),
            rung: QosRung::FullRes,
            sim_progress: Series::new("sim_progress"),
            free_disk: Series::new("free_disk_pct"),
            viz_progress: Series::new("viz_progress"),
            procs_series: Series::new("procs"),
            oi_series: Series::new("output_interval"),
            binding_series: Series::new("binding_constraint"),
            qos_rung_series: Series::new("qos_rung"),
            qos_pressure_series: Series::new("qos_pressure"),
            frames_emitted: 0,
            frames_dropped: 0,
            frames_rendered: 0,
            renders_outstanding: 0,
            min_free_pct: 100.0,
            first_stall: None,
            steering: SteeringState::new(),
            reconnects: 0,
            replays: 0,
            crashes: 0,
            recoveries: 0,
            journal_replays: 0,
            frames_recovered: 0,
            base_stalls: boot.base_stalls,
            base_crashes: boot.base_crashes,
            skip_outputs_through: boot.skip_outputs_through,
            torn_staged: false,
            corrupt_staged: false,
            kill: None,
            site,
            mission,
            options,
        };

        let mut sched: Scheduler<Ev> = match &world.fleet {
            Some(f) => Scheduler::for_shard(f.shard),
            None => Scheduler::new(),
        };
        for (wall_hours, cmd) in steering_script {
            sched.schedule_at(SimTime::from_hours(wall_hours.max(0.0)), Ev::Steering(cmd));
        }
        for (wall_hours, fault) in fault_script {
            sched.schedule_at(SimTime::from_hours(wall_hours.max(0.0)), Ev::Fault(fault));
        }
        // Epoch zero runs before the simulation starts (the optimization
        // method "adapts the frequency of output to the best possible
        // value ... from the beginning of the simulations"), with no
        // restart penalty — it *is* the starting configuration. A resumed
        // incarnation already has its configuration and skips it.
        if cold_config {
            initial_epoch(&mut world);
            world.next_output_min = world.config.output_interval_min;
        }
        world.publish_config_file();
        world.record_config(SimTime::ZERO);
        world.record_disk(SimTime::ZERO);
        world.record_sim(SimTime::ZERO);
        if world.config.critical {
            // Resumed into a CRITICAL stall: wait for space, as the dead
            // incarnation was doing.
            world.handler.stall();
            world.note_stall(SimTime::ZERO);
            sched.schedule_in(world.options.stall_probe_secs, Ev::StallProbe);
        } else {
            world.schedule_step(&mut sched);
        }
        // A resumed ledger may already hold pending frames; start
        // shipping them immediately (no-op on a cold start).
        world.kick_sender(&mut sched);
        sched.schedule_at(
            SimTime::from_hours(world.mission.decision_interval_hours),
            Ev::Decision,
        );

        let wall_cap = SimTime::from_hours(world.options.wall_cap_hours);
        RunningEngine {
            clock,
            world,
            sched,
            wall_cap,
            last_secs: 0.0,
            halted: false,
            released: false,
        }
    }
}

/// An engine mid-run: the world plus its event queue and pacing state.
/// Produced by [`EpochEngine::start`]; stepped by [`Self::step_one`]
/// (solo) or by the fleet coordinator through [`Self::fleet_poll`] /
/// [`Self::fleet_step`]; torn down by [`Self::finish`].
pub struct RunningEngine<C, T, D, F> {
    clock: C,
    world: World<T, D, F>,
    sched: Scheduler<Ev>,
    wall_cap: SimTime,
    last_secs: f64,
    /// The event loop is over (queue drained, wall cap passed, a halting
    /// event, or the drain condition satisfied).
    halted: bool,
    /// Fleet mode: the shared resources have been handed back.
    released: bool,
}

impl<C, T, D, F> RunningEngine<C, T, D, F>
where
    C: Clock,
    T: FrameTransport,
    D: Durability,
    F: FaultInjector,
{
    /// Pop and handle one event. Returns `false` once the run is over:
    /// queue drained, wall cap passed, a halting fault, or (for draining
    /// drivers) every written frame shipped and rendered after mission
    /// completion.
    pub fn step_one(&mut self) -> bool {
        if self.halted {
            return false;
        }
        let Some((now, ev)) = self.sched.pop() else {
            self.halted = true;
            return false;
        };
        if now > self.wall_cap {
            self.halted = true;
            return false;
        }
        self.clock.pace((now.as_secs() - self.last_secs).max(0.0));
        self.last_secs = now.as_secs();
        if !handle(&mut self.world, now, ev, &mut self.sched) {
            self.halted = true;
            return false;
        }
        // The live drivers drain: keep the run alive after mission
        // completion until every written frame has shipped and every
        // shipped frame has rendered.
        if self.world.drain
            && self.world.completed
            && !self.world.sender_busy
            && !self.world.store.has_pending()
            && self.world.renders_outstanding == 0
        {
            self.halted = true;
            return false;
        }
        true
    }

    /// Classify this shard's next action for the fleet coordinator
    /// (fleet mode only). A grant sitting in the WAN mailbox comes first
    /// — its release event was itself horizon-gated, and the horizon
    /// pinned this shard's clock at or below the grant instant while it
    /// waited, so consuming it immediately is safe and deterministic.
    /// Shared-resource events — and *any* event while the shard is
    /// queued for the WAN — are `Gated` behind the conservative horizon;
    /// everything else is `Local` and free-running.
    pub fn fleet_poll(&mut self) -> ShardPoll {
        if !self.halted {
            let fleet = self
                .world
                .fleet
                .clone()
                .expect("fleet_poll requires fleet mode");
            if let Some(g) = fleet.wan().grant_time(fleet.shard) {
                return ShardPoll::Granted {
                    time: SimTime::from_secs(g),
                };
            }
            match self.sched.peek() {
                Some((t, ev)) => {
                    let shared = matches!(
                        ev,
                        Ev::LinkRequest | Ev::TransferDone { .. } | Ev::Decision | Ev::Fault(_)
                    );
                    return if shared || self.world.wan_waiting {
                        ShardPoll::Gated { time: t }
                    } else {
                        ShardPoll::Local { time: t }
                    };
                }
                None => {
                    assert!(
                        !self.world.wan_waiting,
                        "waiting on the WAN with an empty queue"
                    );
                    self.halted = true;
                }
            }
        }
        if self.released {
            ShardPoll::Done
        } else {
            // One final gated action remains: handing the shared
            // resources back, serialized in global order like any other
            // shared mutation.
            ShardPoll::Gated {
                time: self.sched.now(),
            }
        }
    }

    /// Execute what the immediately preceding [`Self::fleet_poll`]
    /// described: consume a WAN grant, run one event, or (once the loop
    /// has halted) release the shared resources.
    pub fn fleet_step(&mut self) {
        if !self.halted {
            let fleet = self
                .world
                .fleet
                .clone()
                .expect("fleet_step requires fleet mode");
            let granted = fleet.wan().grant_time(fleet.shard).is_some();
            if granted {
                self.world.take_wan_grant(&mut self.sched);
                return;
            }
            self.step_one();
            return;
        }
        let fleet = self
            .world
            .fleet
            .clone()
            .expect("fleet_step requires fleet mode");
        let end = self.sched.now().as_secs();
        // `cancel` covers every holding state: mid-transfer (the wall cap
        // struck first), an unconsumed grant, still queued, or nothing.
        fleet.wan().cancel(fleet.shard, end);
        fleet.cluster().release_all(fleet.shard);
        self.released = true;
    }

    /// Fleet mode: true once the halted engine has handed its shared
    /// resources back — the shard's final gated step has run and
    /// [`Self::finish`] may be called.
    pub fn fleet_released(&self) -> bool {
        self.released
    }

    /// Tear the run down and assemble the report.
    pub fn finish(self) -> EngineOutput {
        let mut world = self.world;
        let ended_stalled = world.handler.state() == SimProcessState::Stalled;
        let completed = world.completed;
        if completed {
            world.durability.mark_completed();
        }
        let track = world.transport.finish();
        let wall_hours = if completed {
            world
                .sim_progress
                .points
                .last()
                .map(|&(t, _)| t / 3600.0)
                .unwrap_or(0.0)
        } else {
            world.options.wall_cap_hours
        };
        let counters = PipelineCounters {
            frames_emitted: world.frames_emitted,
            frames_written: world.store.frames_stored(),
            frames_shipped: world.store.frames_shipped(),
            frames_rendered: world.frames_rendered,
            frames_dropped: world.frames_dropped,
            frames_in_flight: (world.store.pending_count() + world.store.in_flight_count()) as u64,
            frames_recovered: world.frames_recovered,
            restarts: world.handler.restarts() as u64,
            stalls: world.base_stalls + world.handler.stalls() as u64,
            crashes: world.base_crashes + world.crashes,
            reconnects: world.reconnects,
            replays: world.replays,
            retry_budget_exhausted: 0,
            degraded_epochs: world.manager.degraded_epochs() as u64,
            recoveries: world.recoveries,
            journal_replays: world.journal_replays,
            steering_commands_applied: world.steering.commands_applied as u64,
            decisions: world.manager.epochs(),
            qos_demotions: world.qos.as_ref().map_or(0, |c| c.demotions()),
            qos_promotions: world.qos.as_ref().map_or(0, |c| c.promotions()),
            deepest_rung: world.qos.as_ref().map_or(0, |c| c.deepest().as_byte()),
            min_free_disk_pct: world.min_free_pct,
            final_free_disk_pct: world.store.disk().free_percent(),
            first_stall_wall_hours: world.first_stall,
        };
        let report = PipelineReport {
            completed,
            ended_stalled,
            wall_hours,
            sim_minutes: world.model.sim_minutes(),
            series: {
                let mut s = SeriesSet::new();
                s.push(world.sim_progress);
                s.push(world.free_disk);
                s.push(world.viz_progress);
                s.push(world.procs_series);
                s.push(world.oi_series);
                s.push(world.binding_series);
                if world.qos.is_some() {
                    // Only ladder-enabled runs carry the QoS series, so
                    // pre-ladder figure CSVs stay byte-identical.
                    s.push(world.qos_rung_series);
                    s.push(world.qos_pressure_series);
                }
                s
            },
            track,
            counters,
        };
        EngineOutput {
            report,
            kill: world.kill,
        }
    }
}

/// One engine event. Returns false to halt the run.
fn handle<T: FrameTransport, D: Durability, F: FaultInjector>(
    w: &mut World<T, D, F>,
    now: SimTime,
    ev: Ev,
    sched: &mut Scheduler<Ev>,
) -> bool {
    match ev {
        Ev::Step => {
            w.step_event = None;
            let workers = w.options.physics_threads.resolve(w.config.num_procs);
            w.model
                .advance_steps(1, workers)
                .expect("integrator stays finite on mission configurations");
            w.record_sim(now);

            if w.model.sim_minutes() >= w.mission.duration_minutes() {
                w.completed = true;
                if !w.drain {
                    return false; // Mission accomplished; the figures end here.
                }
                // Draining drivers keep shipping what is still on disk.
                w.kick_sender(sched);
                return true;
            }

            // The pressure schedule may prescribe a reconfiguration
            // ("whenever WRF finds the values of its certain variables
            // drop below a certain threshold, it stops and the job handler
            // reschedules it").
            let (res, nest) = w.scheduled_resolution();
            if res != w.config.resolution_km || nest != w.config.nest_active {
                let mut next = w.config.clone();
                next.resolution_km = res;
                next.nest_active = nest;
                w.begin_restart(next, sched);
                return true;
            }

            if w.model.sim_minutes() + 1e-9 >= w.next_output_min {
                if w.model.sim_minutes() <= w.skip_outputs_through + 1e-6 {
                    // This output is already on the durable record from a
                    // dead incarnation; re-simulation is bit-exact, so
                    // advance the schedule without storing a duplicate.
                    w.next_output_min = w.model.sim_minutes() + w.config.output_interval_min;
                    w.schedule_step(sched);
                } else {
                    // Write a history frame; I/O blocks the solver.
                    w.io_pending = true;
                    let modeled = w.frame_bytes();
                    let sim_min = w.model.sim_minutes();
                    let (bytes, payload) = w.transport.emit(&w.model, sim_min, modeled, w.rung);
                    sched.schedule_in(
                        w.site.cluster.io_time(bytes),
                        Ev::FrameDone {
                            sim_min,
                            bytes,
                            payload,
                        },
                    );
                }
            } else {
                w.schedule_step(sched);
            }
            if !w.io_pending {
                w.maybe_checkpoint();
            }
        }

        Ev::FrameDone {
            sim_min,
            bytes,
            payload,
        } => {
            w.io_pending = false;
            w.frames_emitted += 1;
            let id = w.store.next_id();
            // Durable order: payload first, then the ledger record that
            // commits it; a ledger commit that fails after all discards
            // the payload again.
            let mut committed = w.durability.persist_frame(id, &payload);
            if committed && w.store.store(sim_min, bytes).is_err() {
                w.durability.discard_frame(id);
                committed = false;
            }
            if committed {
                w.transport.park(id, sim_min, payload);
                w.next_output_min = sim_min + w.config.output_interval_min;
                w.kick_sender(sched);
            } else {
                // Disk completely full: drop the frame and stall until
                // transfers free space.
                w.frames_dropped += 1;
                if w.handler.state() != SimProcessState::Stalled {
                    w.handler.stall();
                    w.note_stall(now);
                    sched.schedule_in(w.options.stall_probe_secs, Ev::StallProbe);
                }
            }
            w.record_disk(now);
            if w.handler.is_running() {
                w.schedule_step(sched);
            }
            w.maybe_checkpoint();
        }

        Ev::LinkRequest => {
            // Fleet mode only. The kick's conditions may have changed in
            // the same instant (an outage, a Pause demotion); re-check
            // before contending for the link.
            let fleet = w
                .fleet
                .clone()
                .expect("LinkRequest only fires in fleet mode");
            if w.outage_depth > 0
                || (w.rung == QosRung::Pause && !w.completed)
                || !w.store.has_pending()
            {
                w.sender_busy = false;
                return true;
            }
            let acquired = fleet.wan().try_acquire(fleet.shard, now.as_secs());
            if acquired {
                w.start_transfer_at(now, sched);
            } else {
                // Queued behind a fleet-mate; the grant arrives through
                // the mailbox and `take_wan_grant` starts the transfer.
                w.wan_waiting = true;
            }
        }

        Ev::TransferDone { id } => {
            w.sender_busy = false;
            w.transfer_event = None;
            w.release_wan(now);
            let meta = w
                .store
                .complete_transfer(id)
                .expect("transfer was begun by kick_sender");
            w.record_disk(now);
            if w.transport.deliver(id, meta.sim_minutes) {
                w.renders_outstanding += 1;
                sched.schedule_in(
                    w.site.render_secs_per_frame,
                    Ev::RenderDone {
                        sim_min: meta.sim_minutes,
                    },
                );
            }
            w.kick_sender(sched);
            // Freed space may un-stall the simulation.
            maybe_resume(w, sched);
        }

        Ev::RenderDone { sim_min } => {
            w.renders_outstanding = w.renders_outstanding.saturating_sub(1);
            w.frames_rendered += 1;
            w.viz_progress.record(now, sim_min);
        }

        Ev::Decision => {
            if w.completed {
                return true;
            }
            let horizon = w.horizon_secs();
            let (res, nest) = (w.config.resolution_km, w.config.nest_active);
            // Plan with the rung currently in force: a degraded rung
            // writes smaller frames, so the decision algorithm can keep
            // the output cadence tight instead of starving the
            // visualization (one-epoch lag; identity when the ladder is
            // off).
            let frame_bytes = {
                let fb = w.transport.decision_frame_bytes(w.frame_bytes());
                ((fb as f64 * w.rung.byte_factor()).ceil() as u64).max(1)
            };
            let io_secs = w.site.cluster.io_time(frame_bytes);
            let dt = w.model.dt_secs();
            let (min_oi, max_oi) = (
                w.mission.min_output_interval_min,
                w.steering.effective_max_oi(
                    w.mission.min_output_interval_min,
                    w.mission.max_output_interval_min,
                ),
            );
            // Split borrows: the table lives in a map on `w`; clone it so
            // the manager can borrow the rest of the world.
            let table = w.proc_table(res, nest).clone();
            let ctx = EpochContext {
                frame_bytes,
                io_secs_per_frame: io_secs,
                proc_table: &table,
                dt_sim_secs: dt,
                min_oi_min: min_oi,
                max_oi_min: max_oi,
                horizon_secs: horizon,
            };
            let next = {
                let decided = w.manager.epoch(w.store.disk(), &mut w.net, &ctx, &w.config);
                w.clamp_shared_cores(decided)
            };
            if let Some(binding) = w.manager.last_binding() {
                w.binding_series.record(now, binding_code(binding));
            }
            w.record_disk(now);

            // Closed loop: fold this epoch's observations into the
            // degradation ladder. The bandwidth measurement the manager
            // just made doubles as the controller's link signal.
            if let Some(ctrl) = &mut w.qos {
                let peak = w.manager.peak_bandwidth_bps();
                let bandwidth_frac = match w.manager.observed_bandwidth_bps() {
                    Some(obs) if peak > 0.0 => (obs / peak).clamp(0.0, 1.0),
                    _ => 1.0,
                };
                let receiver_lag_frames =
                    (w.store.pending_count() + w.store.in_flight_count()) as u64;
                let remaining_wall = (w.options.wall_cap_hours * 3600.0 - now.as_secs()).max(0.0);
                let deadline_slack = if horizon > 0.0 {
                    remaining_wall / horizon
                } else {
                    1.0
                };
                let before = w.rung;
                w.rung = ctrl.observe(&QosSignals {
                    bandwidth_frac,
                    receiver_lag_frames,
                    free_disk_pct: w.store.disk().free_percent(),
                    deadline_slack,
                });
                w.qos_rung_series.record(now, w.rung.as_byte() as f64);
                w.qos_pressure_series.record(now, ctrl.last_pressure());
                if before == QosRung::Pause && w.rung != QosRung::Pause {
                    // Promotion out of store-and-forward: resume shipping
                    // the parked backlog.
                    w.kick_sender(sched);
                }
            }

            match w.handler.state() {
                SimProcessState::Running => {
                    if next.critical {
                        w.cancel_step(sched);
                        w.handler.stall();
                        w.note_stall(now);
                        w.config.critical = true;
                    } else if w.config.requires_restart(&next) {
                        w.begin_restart(next, sched);
                    }
                }
                SimProcessState::Stalled => {
                    if !next.critical && w.store.disk().free_percent() >= RESUME_FREE_PERCENT {
                        w.handler.resume();
                        w.config.critical = false;
                        if w.config.requires_restart(&next) {
                            w.begin_restart(next, sched);
                        } else if !w.io_pending {
                            w.schedule_step(sched);
                        }
                    }
                }
                SimProcessState::Restarting => {
                    // A restart is in flight; the next epoch will see the
                    // new configuration.
                }
            }
            w.record_config(now);
            w.publish_config_file();
            sched.schedule_in(w.mission.decision_interval_hours * 3600.0, Ev::Decision);
        }

        Ev::RestartDone => {
            let next = w
                .pending_config
                .take()
                .expect("restart completion implies a pending configuration");
            if next.resolution_km != w.config.resolution_km {
                w.model
                    .set_resolution(next.resolution_km)
                    .expect("schedule resolutions are valid");
            }
            if next.nest_active && !w.model.has_nest() {
                w.model.spawn_nest();
            } else if !next.nest_active && w.model.has_nest() {
                w.model.despawn_nest();
            }
            let critical = w.config.critical;
            w.config = next;
            w.config.critical = critical;
            w.handler.finish_restart();
            w.record_config(now);
            w.publish_config_file();
            if critical {
                // Came up stalled (CRITICAL still set).
                w.handler.stall();
                w.note_stall(now);
            } else if !w.io_pending {
                w.schedule_step(sched);
            }
            // A kill aborts the in-flight transfer; the relaunched
            // incarnation's sender resumes shipment (no-op when a
            // transfer is already running or nothing is pending).
            w.kick_sender(sched);
        }

        Ev::Steering(cmd) => {
            w.steering.apply(cmd);
            // Respond immediately where the command demands it: a tighter
            // temporal-resolution cap than the running interval, or a
            // resolution pin different from the live grid, triggers a
            // reconfiguration right away (when the process is running and
            // not already mid-restart).
            if w.handler.is_running() && !w.completed {
                let mut next = w.config.clone();
                let cap = w.steering.effective_max_oi(
                    w.mission.min_output_interval_min,
                    w.mission.max_output_interval_min,
                );
                if next.output_interval_min > cap {
                    next.output_interval_min = cap;
                }
                let (res, nest_active) = w.scheduled_resolution();
                next.resolution_km = res;
                next.nest_active = nest_active;
                if w.config.requires_restart(&next) {
                    w.begin_restart(next, sched);
                }
            }
        }

        Ev::Fault(fault) => match fault {
            Fault::LinkDegradation { factor } => {
                w.link_factor = factor;
                w.apply_link();
            }
            Fault::BandwidthFlap {
                factor,
                half_period_hours,
                flips,
            } => {
                // Toggle between degraded and healthy, and re-arm until
                // the flip budget is spent.
                w.link_factor = if (w.link_factor - factor).abs() < 1e-12 {
                    1.0
                } else {
                    factor
                };
                w.apply_link();
                if flips > 1 {
                    sched.schedule_in(
                        half_period_hours.max(1e-3) * 3600.0,
                        Ev::Fault(Fault::BandwidthFlap {
                            factor,
                            half_period_hours,
                            flips: flips - 1,
                        }),
                    );
                }
            }
            Fault::DiskPressure {
                bytes,
                duration_hours,
            } => {
                let got = w.store.seize_external(bytes);
                w.record_disk(now);
                if got > 0 {
                    sched.schedule_in(
                        duration_hours.max(1e-3) * 3600.0,
                        Ev::ExternalRelease { bytes: got },
                    );
                }
            }
            Fault::ReceiverOutage { duration_hours } => {
                w.outage_depth += 1;
                w.apply_link();
                // Whatever was mid-transfer is lost with the connection;
                // the frame goes back to the head of the queue and will be
                // replayed from the last acked frame once the receiver is
                // back (its bytes were never freed, so no data is lost).
                if let Some((event, frame_id)) = w.transfer_event.take() {
                    sched.cancel(event);
                    w.sender_busy = false;
                    w.store
                        .abort_transfer(frame_id)
                        .expect("transfer was in flight");
                    w.replays += 1;
                    w.release_wan(now);
                }
                // A queued WAN request is withdrawn with the connection.
                w.cancel_wan_wait(now);
                sched.schedule_in(duration_hours.max(1e-3) * 3600.0, Ev::ReceiverRestored);
            }
            Fault::SimCrash => {
                // The solver process dies; the job handler relaunches it
                // from the last checkpoint. Modeled as a restart with a
                // requeue penalty on top of the ordinary restart overhead
                // (crash-time requeues wait in the batch queue).
                w.crashes += 1;
                if w.handler.state() != SimProcessState::Restarting && !w.completed {
                    let stalled = w.handler.state() == SimProcessState::Stalled;
                    w.cancel_step(sched);
                    w.handler.begin_restart();
                    w.pending_config = Some(w.config.clone());
                    let penalty = 3.0 * w.site.cluster.restart_overhead_secs;
                    sched.schedule_in(penalty, Ev::RestartDone);
                    if stalled {
                        // Preserve the CRITICAL stall across the relaunch.
                        w.config.critical = true;
                    }
                }
            }
            Fault::TornWrite => {
                w.torn_staged = true;
            }
            Fault::CorruptCheckpoint => {
                w.corrupt_staged = true;
            }
            Fault::ProcessKill { at_hours } => match w.injector.kill_action() {
                KillAction::ModeledRecovery => {
                    // `kill -9` of the whole simulation-site pipeline,
                    // modeled analytically. The durable ledger (journal +
                    // payload files + checkpoints) survives; everything
                    // volatile — the in-flight transfer, the scheduled
                    // step — dies with the process. The recovery
                    // supervisor replays the journal, requeues what was
                    // pending, and relaunches from the newest valid
                    // checkpoint.
                    if w.handler.state() != SimProcessState::Restarting && !w.completed {
                        w.recoveries += 1;
                        w.journal_replays += 1;
                        if let Some((event, frame_id)) = w.transfer_event.take() {
                            sched.cancel(event);
                            w.sender_busy = false;
                            w.store
                                .abort_transfer(frame_id)
                                .expect("transfer was in flight");
                            w.replays += 1;
                            w.release_wan(now);
                        }
                        // The dying sender's queued WAN request dies too.
                        w.cancel_wan_wait(now);
                        w.frames_recovered +=
                            (w.store.pending_count() + w.store.in_flight_count()) as u64;
                        let stalled = w.handler.state() == SimProcessState::Stalled;
                        w.cancel_step(sched);
                        w.handler.begin_restart();
                        w.pending_config = Some(w.config.clone());
                        // Crash-requeue penalty, plus extra re-simulation
                        // when the newest checkpoint was corrupt and
                        // recovery had to fall back to an older one. A
                        // torn journal tail only loses the uncommitted
                        // record — replay truncates it at no modeled cost.
                        let mut penalty = 3.0 * w.site.cluster.restart_overhead_secs;
                        if w.corrupt_staged {
                            penalty += 2.0 * w.site.cluster.restart_overhead_secs;
                        }
                        w.torn_staged = false;
                        w.corrupt_staged = false;
                        sched.schedule_in(penalty, Ev::RestartDone);
                        if stalled {
                            w.config.critical = true;
                        }
                    }
                }
                KillAction::HaltIncarnation => {
                    // The incarnation dies where it stands: no draining,
                    // no final checkpoint. The in-flight transfer stays
                    // in-flight on the journal (recovery requeues it);
                    // the recovery supervisor reads the KillEvent and
                    // relaunches from disk.
                    if !w.completed {
                        w.kill = Some(KillEvent {
                            at_hours,
                            torn_write: w.torn_staged,
                            corrupt_checkpoint: w.corrupt_staged,
                        });
                        return false;
                    }
                }
            },
        },

        Ev::ReceiverRestored => {
            w.outage_depth = w.outage_depth.saturating_sub(1);
            if w.outage_depth == 0 {
                w.apply_link();
                // The resilient sender re-establishes the connection and
                // resumes from the receiver's last-applied frame.
                w.reconnects += 1;
                w.kick_sender(sched);
            }
        }

        Ev::ExternalRelease { bytes } => {
            w.store.release_external(bytes);
            w.record_disk(now);
            maybe_resume(w, sched);
        }

        Ev::StallProbe => {
            if w.handler.state() == SimProcessState::Stalled && !maybe_resume(w, sched) {
                sched.schedule_in(w.options.stall_probe_secs, Ev::StallProbe);
            }
        }
    }
    true
}

/// Epoch zero: decide the starting configuration (applied directly, no
/// restart — the simulation has not been launched yet).
fn initial_epoch<T: FrameTransport, D: Durability, F: FaultInjector>(w: &mut World<T, D, F>) {
    let horizon = w.horizon_secs();
    let (res, nest) = (w.config.resolution_km, w.config.nest_active);
    let frame_bytes = w.transport.decision_frame_bytes(w.frame_bytes());
    let io_secs = w.site.cluster.io_time(frame_bytes);
    let dt = w.model.dt_secs();
    let (min_oi, max_oi) = (
        w.mission.min_output_interval_min,
        w.steering.effective_max_oi(
            w.mission.min_output_interval_min,
            w.mission.max_output_interval_min,
        ),
    );
    let table = w.proc_table(res, nest).clone();
    let ctx = EpochContext {
        frame_bytes,
        io_secs_per_frame: io_secs,
        proc_table: &table,
        dt_sim_secs: dt,
        min_oi_min: min_oi,
        max_oi_min: max_oi,
        horizon_secs: horizon,
    };
    let next = {
        let decided = w.manager.epoch(w.store.disk(), &mut w.net, &ctx, &w.config);
        w.clamp_shared_cores(decided)
    };
    debug_assert!(!next.critical, "a fresh disk cannot be critical");
    w.config = next;
}

/// Resume a stalled simulation once enough disk has been freed. Returns
/// true when the simulation resumed.
fn maybe_resume<T: FrameTransport, D: Durability, F: FaultInjector>(
    w: &mut World<T, D, F>,
    sched: &mut Scheduler<Ev>,
) -> bool {
    if w.handler.state() == SimProcessState::Stalled
        && w.store.disk().free_percent() >= RESUME_FREE_PERCENT
    {
        w.handler.resume();
        w.config.critical = false;
        if !w.io_pending {
            w.schedule_step(sched);
        }
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_options_defaults_match_the_documented_knobs() {
        let opts = PipelineOptions::default();
        assert_eq!(opts.wall_cap_hours, 120.0);
        assert_eq!(opts.physics_threads, PhysicsThreads::Fixed(1));
        assert_eq!(opts.physics_threads.resolve(9), 1);
        assert_eq!(PhysicsThreads::FollowDecision.resolve(9), 9);
        assert_eq!(PhysicsThreads::FollowDecision.resolve(0), 1);
        assert_eq!(PhysicsThreads::Fixed(0).resolve(5), 1);
        assert_eq!(opts.seed, 42);
        assert_eq!(opts.stall_probe_secs, 600.0);
        assert!(opts.fault_plan.is_empty());
        assert!(opts.durability.is_none());
        assert!(opts.qos.is_none(), "the ladder is opt-in");
    }

    #[test]
    fn conservation_helper_accepts_a_consistent_ledger() {
        let c = PipelineCounters {
            frames_emitted: 10,
            frames_written: 8,
            frames_dropped: 2,
            frames_shipped: 5,
            frames_in_flight: 3,
            frames_rendered: 5,
            ..Default::default()
        };
        assert_frame_conservation(&c);
    }

    #[test]
    #[should_panic(expected = "every emitted frame")]
    fn conservation_helper_rejects_a_leaky_ledger() {
        let c = PipelineCounters {
            frames_emitted: 10,
            frames_written: 8,
            frames_dropped: 1, // one frame unaccounted for
            ..Default::default()
        };
        assert_frame_conservation(&c);
    }

    #[test]
    fn optional_durability_delegates_or_defaults() {
        let mut none: Option<NoDurability> = None;
        assert!(none.persist_frame(0, b"x"));
        assert!(!none.checkpoint_due(1e9));
        let mut some = Some(NoDurability);
        assert!(some.persist_frame(0, b"x"));
    }

    #[test]
    fn binding_codes_are_stable() {
        assert_eq!(binding_code(BindingConstraint::MachineBound), 0.0);
        assert_eq!(binding_code(BindingConstraint::DiskBound), 1.0);
        assert_eq!(binding_code(BindingConstraint::VisualizationBound), 2.0);
        assert_eq!(binding_code(BindingConstraint::InfeasibleSafeCorner), 3.0);
    }
}
