//! Whole-pipeline crash recovery for the live online mode.
//!
//! The DES orchestrator models a `kill -9` analytically; this module makes
//! the *live* pipeline actually survive one. All simulation-site state is
//! kept crash-consistent in a single state directory:
//!
//! ```text
//! <state_dir>/
//!   MANIFEST.json          incarnation record (+ completed flag)
//!   LOCK                   held while an incarnation is alive
//!   journal/               FrameStore write-ahead log (resources::journal)
//!   frames/frame-<id>.bin  pending frame payloads (snapshot container)
//!   checkpoints/checkpoint-<n>.acp
//!                          bundles: meta JSON + WrfModel checkpoint bytes
//!   receiver.acp           visualization site: applied watermark + track
//! ```
//!
//! On startup the (crate-internal) `bootstrap` step detects a prior
//! incarnation (manifest present,
//! not marked completed), replays the journal into a rebuilt
//! [`FrameStore`], loads the newest *valid* checkpoint (falling back past
//! corrupt ones, to a cold start if none survive), reconciles the ledger
//! with the receiver's durable last-applied watermark (the live analogue
//! of the `AHL2` handshake's last-applied sequence), and requeues whatever
//! was mid-flight. [`run_with_recovery`] wraps the whole thing in a
//! supervisor loop: run the pipeline, and if it was killed, restart it
//! from disk until the mission completes.

use crate::config::ApplicationConfig;
use crate::decision::AlgorithmKind;
use crate::manager::ManagerState;
use crate::online::{run_online, OnlineOptions, OnlineReport};
use cyclone::{Mission, Site};
use resources::{journal, Disk, FrameStore};
use serde::{Deserialize, Serialize};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use viz::{EyeFix, TrackLog};
use wrf::checkpoint::{read_snapshot_file, write_snapshot_file, write_snapshot_with};
use wrf::WrfModel;

/// Where and how often the online pipeline persists its state.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Root of the state directory sketched in the module docs.
    pub state_dir: PathBuf,
    /// Checkpoint cadence in *simulated* minutes; `0.0` disables periodic
    /// checkpoints (the journal and receiver state stay durable, so
    /// recovery still works — it just re-simulates from the start).
    pub checkpoint_every_min: f64,
    /// How many checkpoint files to keep (at least 1). Older ones are
    /// pruned after each write; keeping several lets recovery fall back
    /// past a corrupt newest file.
    pub keep_checkpoints: usize,
}

impl DurabilityOptions {
    /// Sensible defaults: checkpoint every simulated hour, keep three.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        DurabilityOptions {
            state_dir: state_dir.into(),
            checkpoint_every_min: 60.0,
            keep_checkpoints: 3,
        }
    }

    /// Builder: checkpoint cadence in simulated minutes (`0` disables).
    pub fn with_checkpoint_every_min(mut self, minutes: f64) -> Self {
        self.checkpoint_every_min = minutes;
        self
    }

    /// Builder: checkpoint files to retain.
    pub fn with_keep_checkpoints(mut self, keep: usize) -> Self {
        self.keep_checkpoints = keep.max(1);
        self
    }

    /// Journal directory.
    pub fn journal_dir(&self) -> PathBuf {
        self.state_dir.join("journal")
    }

    /// Frame payload directory.
    pub fn frames_dir(&self) -> PathBuf {
        self.state_dir.join("frames")
    }

    /// Checkpoint directory.
    pub fn checkpoints_dir(&self) -> PathBuf {
        self.state_dir.join("checkpoints")
    }

    /// Receiver-state snapshot path.
    pub fn receiver_path(&self) -> PathBuf {
        self.state_dir.join("receiver.acp")
    }

    fn manifest_path(&self) -> PathBuf {
        self.state_dir.join("MANIFEST.json")
    }

    fn lock_path(&self) -> PathBuf {
        self.state_dir.join("LOCK")
    }
}

/// The manifest: one JSON file recording which incarnation last owned the
/// state directory and whether the mission ran to completion.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    incarnation: u64,
    completed: bool,
}

const MANIFEST_VERSION: u32 = 1;

fn read_manifest(d: &DurabilityOptions) -> Option<Manifest> {
    let text = fs::read_to_string(d.manifest_path()).ok()?;
    serde_json::from_str(&text).ok()
}

fn write_manifest(d: &DurabilityOptions, m: &Manifest) -> io::Result<()> {
    let text = serde_json::to_string_pretty(m)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let tmp = d.manifest_path().with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, d.manifest_path())
}

/// Mark the mission complete and release the lock — called by the
/// pipeline after a clean finish.
pub(crate) fn mark_completed(d: &DurabilityOptions) {
    if let Some(mut m) = read_manifest(d) {
        m.completed = true;
        let _ = write_manifest(d, &m);
    }
    let _ = fs::remove_file(d.lock_path());
}

// ---------------------------------------------------------------------
// Checkpoint bundles
// ---------------------------------------------------------------------

/// Everything a checkpoint carries besides the model bytes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointMeta {
    /// Simulated minutes at checkpoint time.
    pub sim_minutes: f64,
    /// The sim thread's next scheduled output, simulated minutes.
    pub next_output_min: f64,
    /// Application configuration in force (nest schedule position rides
    /// in `resolution_km` / `nest_active`).
    pub config: ApplicationConfig,
    /// Manager epoch state.
    pub manager: ManagerState,
    /// Cumulative stall episodes.
    pub stalls: u64,
    /// Cumulative simulation crashes recovered in-process.
    pub crashes: u64,
    /// Receiver's applied watermark (last applied frame id + 1) when the
    /// checkpoint was cut — the transport's last-acked sequence.
    pub applied_watermark: u64,
}

fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq:06}.acp"))
}

fn checkpoint_seqs(dir: &Path) -> Vec<u64> {
    let mut seqs = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(mid) = name
                .strip_prefix("checkpoint-")
                .and_then(|s| s.strip_suffix(".acp"))
            {
                if let Ok(seq) = mid.parse::<u64>() {
                    seqs.push(seq);
                }
            }
        }
    }
    seqs.sort_unstable();
    seqs
}

/// Write one checkpoint bundle: `u32 LE meta_len | meta JSON | model
/// checkpoint bytes` inside the checksummed snapshot container, the model
/// streamed from its grids into the file (no bundle is assembled in
/// memory).
pub fn write_checkpoint(
    dir: &Path,
    seq: u64,
    meta: &CheckpointMeta,
    model: &WrfModel,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let meta_json = serde_json::to_string(meta)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_snapshot_with(&checkpoint_path(dir, seq), |out| {
        out.write_all(&(meta_json.len() as u32).to_le_bytes())?;
        out.write_all(meta_json.as_bytes())?;
        model.checkpoint_to(out)
    })
}

fn parse_checkpoint(payload: &[u8]) -> Option<(CheckpointMeta, WrfModel)> {
    if payload.len() < 4 {
        return None;
    }
    let meta_len = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
    let rest = payload.get(4..)?;
    if rest.len() < meta_len {
        return None;
    }
    let meta: CheckpointMeta =
        serde_json::from_str(std::str::from_utf8(&rest[..meta_len]).ok()?).ok()?;
    let model = WrfModel::restore(&rest[meta_len..]).ok()?;
    Some((meta, model))
}

/// Load the newest checkpoint that verifies and parses, walking backwards
/// past corrupt ones. Returns the bundle, its sequence number, and how
/// many corrupt files were skipped on the way.
pub fn load_newest_checkpoint(dir: &Path) -> Option<(CheckpointMeta, WrfModel, u64, usize)> {
    let mut skipped = 0;
    for &seq in checkpoint_seqs(dir).iter().rev() {
        match read_snapshot_file(&checkpoint_path(dir, seq)) {
            Ok(payload) => {
                if let Some((meta, model)) = parse_checkpoint(&payload) {
                    return Some((meta, model, seq, skipped));
                }
                skipped += 1;
            }
            Err(_) => skipped += 1,
        }
    }
    None
}

/// Delete all but the newest `keep` checkpoints.
pub(crate) fn prune_checkpoints(dir: &Path, keep: usize) {
    let seqs = checkpoint_seqs(dir);
    if seqs.len() > keep {
        for &seq in &seqs[..seqs.len() - keep] {
            let _ = fs::remove_file(checkpoint_path(dir, seq));
        }
    }
}

/// Fault-injection hook: flip bytes in the middle of the newest
/// checkpoint file so its CRC no longer verifies. Returns `true` when a
/// file was damaged.
pub(crate) fn corrupt_newest_checkpoint(dir: &Path) -> bool {
    let Some(&seq) = checkpoint_seqs(dir).last() else {
        return false;
    };
    let path = checkpoint_path(dir, seq);
    let Ok(mut data) = fs::read(&path) else {
        return false;
    };
    if data.len() < 64 {
        return false;
    }
    let mid = data.len() / 2;
    for b in &mut data[mid..mid + 8] {
        *b ^= 0xa5;
    }
    fs::write(&path, &data).is_ok()
}

// ---------------------------------------------------------------------
// Receiver-state snapshots
// ---------------------------------------------------------------------

/// Persist the visualization site's durable state: the applied watermark
/// (last applied frame id + 1) and every accumulated eye fix.
pub(crate) fn save_receiver_state(path: &Path, watermark: u64, track: &TrackLog) -> io::Result<()> {
    let fixes = track.fixes();
    let mut payload = Vec::with_capacity(16 + fixes.len() * 32);
    payload.extend_from_slice(&watermark.to_le_bytes());
    payload.extend_from_slice(&(fixes.len() as u64).to_le_bytes());
    for f in fixes {
        payload.extend_from_slice(&f.sim_minutes.to_le_bytes());
        payload.extend_from_slice(&f.lon.to_le_bytes());
        payload.extend_from_slice(&f.lat.to_le_bytes());
        payload.extend_from_slice(&f.pressure_hpa.to_le_bytes());
    }
    write_snapshot_file(path, &payload)
}

/// Load receiver state saved by [`save_receiver_state`]; `None` when the
/// snapshot is absent or does not verify (the receiver then starts cold
/// and the sender re-ships everything still on disk).
pub(crate) fn load_receiver_state(path: &Path) -> Option<(u64, TrackLog)> {
    let payload = read_snapshot_file(path).ok()?;
    if payload.len() < 16 {
        return None;
    }
    let f64_at = |off: usize| f64::from_le_bytes(payload[off..off + 8].try_into().unwrap());
    let watermark = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let n = u64::from_le_bytes(payload[8..16].try_into().unwrap());
    // Compared in u64 on the payload's side: a hostile count must not
    // overflow `16 + n * 32`.
    let fixes_bytes = payload.len() - 16;
    if !fixes_bytes.is_multiple_of(32) || (fixes_bytes / 32) as u64 != n {
        return None;
    }
    let n = n as usize;
    let mut fixes = Vec::with_capacity(n);
    for i in 0..n {
        let off = 16 + i * 32;
        fixes.push(EyeFix {
            sim_minutes: f64_at(off),
            lon: f64_at(off + 8),
            lat: f64_at(off + 16),
            pressure_hpa: f64_at(off + 24),
        });
    }
    Some((watermark, TrackLog::from_fixes(fixes)))
}

// ---------------------------------------------------------------------
// Frame payload files
// ---------------------------------------------------------------------

/// Path of frame `id`'s payload file.
pub(crate) fn frame_path(frames_dir: &Path, id: u64) -> PathBuf {
    frames_dir.join(format!("frame-{id:08}.bin"))
}

fn frame_ids(frames_dir: &Path) -> Vec<u64> {
    let mut ids = Vec::new();
    if let Ok(entries) = fs::read_dir(frames_dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(mid) = name
                .strip_prefix("frame-")
                .and_then(|s| s.strip_suffix(".bin"))
            {
                if let Ok(id) = mid.parse::<u64>() {
                    ids.push(id);
                }
            }
        }
    }
    ids.sort_unstable();
    ids
}

// ---------------------------------------------------------------------
// Bootstrap
// ---------------------------------------------------------------------

/// Everything `run_online` needs to start (or resume) a durable
/// incarnation.
pub(crate) struct DurableBoot {
    /// Journal-backed store carrying the prior incarnation's ledger.
    pub store: FrameStore,
    /// Model to resume from (`None` = cold start from the mission config).
    pub model: Option<WrfModel>,
    /// Next scheduled output in simulated minutes (`None` = mission
    /// minimum).
    pub next_output_min: Option<f64>,
    /// Configuration to (re)write to the config file.
    pub config: Option<ApplicationConfig>,
    /// Manager epoch state to resume from.
    pub manager: Option<ManagerState>,
    /// Reloaded payloads of still-pending frames: `(id, sim_minutes,
    /// bytes)`.
    pub payloads: Vec<(u64, f64, Vec<u8>)>,
    /// Receiver's durable applied watermark.
    pub applied_watermark: u64,
    /// Receiver's durable track.
    pub track: TrackLog,
    /// Cumulative stalls / in-process crashes from the checkpoint.
    pub base_stalls: u64,
    pub base_crashes: u64,
    /// Outputs at or before this simulated minute are already durable:
    /// the resuming sim thread advances its output schedule through them
    /// without re-storing (re-simulation is bit-exact, so the skipped
    /// frames are identical to the stored ones).
    pub skip_outputs_through: f64,
    /// 1 when a prior incarnation's journal was replayed.
    pub journal_replays: u64,
    /// Frames that came back from the dead incarnation's disk (pending
    /// again after reconcile + requeue).
    pub frames_recovered: u64,
    /// Corrupt checkpoint files skipped while loading.
    pub checkpoints_skipped: usize,
    /// Sequence number for the next checkpoint this incarnation writes.
    pub next_checkpoint_seq: u64,
}

/// Remove the `*.tmp` files directly under `dir`. Every durable file here
/// is written as a `.tmp` sibling and renamed into place, so a kill
/// between the open and the rename orphans up to a whole payload that no
/// reader ever looks at and no later write reuses (frame and checkpoint
/// names carry a sequence number).
fn sweep_orphaned_tmp(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "tmp") {
            let _ = fs::remove_file(path);
        }
    }
}

/// Prepare the state directory and rebuild whatever a prior incarnation
/// left behind.
pub(crate) fn bootstrap(d: &DurabilityOptions, disk_capacity: u64) -> io::Result<DurableBoot> {
    fs::create_dir_all(&d.state_dir)?;
    fs::create_dir_all(d.frames_dir())?;
    fs::create_dir_all(d.checkpoints_dir())?;
    // Whoever was writing these is dead; nothing below may trip over them.
    for dir in [d.frames_dir(), d.checkpoints_dir(), d.state_dir.clone()] {
        sweep_orphaned_tmp(&dir);
    }

    let manifest = read_manifest(d);
    let prior = manifest.as_ref().is_some_and(|m| !m.completed);
    let incarnation = manifest.map_or(1, |m| m.incarnation + 1);
    write_manifest(
        d,
        &Manifest {
            version: MANIFEST_VERSION,
            incarnation,
            completed: false,
        },
    )?;
    fs::write(d.lock_path(), format!("{}\n", std::process::id()))?;

    let (mut store, replay) = FrameStore::recover(Disk::new(disk_capacity), &d.journal_dir())?;

    let mut boot = DurableBoot {
        model: None,
        next_output_min: None,
        config: None,
        manager: None,
        payloads: Vec::new(),
        applied_watermark: 0,
        track: TrackLog::new(),
        base_stalls: 0,
        base_crashes: 0,
        skip_outputs_through: f64::NEG_INFINITY,
        journal_replays: if prior { 1 } else { 0 },
        frames_recovered: 0,
        checkpoints_skipped: 0,
        next_checkpoint_seq: checkpoint_seqs(&d.checkpoints_dir())
            .last()
            .map(|s| s + 1)
            .unwrap_or(0),
        store: FrameStore::new(Disk::new(disk_capacity)), // placeholder, replaced below
    };

    if prior {
        // Reconcile with the receiver's durable watermark, then requeue
        // whatever was mid-flight when the process died.
        if let Some((watermark, track)) = load_receiver_state(&d.receiver_path()) {
            boot.applied_watermark = watermark;
            boot.track = track;
            store.reconcile_shipped(watermark);
        }
        store.requeue_in_flight();

        // Reload pending payloads; prune files the ledger no longer owns
        // (shipped frames, or a store whose journal record was torn away).
        let frames_dir = d.frames_dir();
        let pending: Vec<_> = store.pending_frames().copied().collect();
        for meta in &pending {
            if let Ok(bytes) = read_snapshot_file(&frame_path(&frames_dir, meta.id)) {
                boot.payloads.push((meta.id, meta.sim_minutes, bytes));
            }
            // A pending frame whose payload file did not survive (it is
            // written before the journal record commits, so this is
            // external damage) stays in the ledger; the sender settles it
            // as shipped-and-lost when its turn comes.
        }
        let owned: std::collections::HashSet<u64> =
            boot.payloads.iter().map(|(id, _, _)| *id).collect();
        for id in frame_ids(&frames_dir) {
            if !owned.contains(&id) {
                let _ = fs::remove_file(frame_path(&frames_dir, id));
            }
        }
        boot.frames_recovered = boot.payloads.len() as u64;

        // Newest valid checkpoint, falling back past corrupt ones.
        if let Some((meta, model, _seq, skipped)) = load_newest_checkpoint(&d.checkpoints_dir()) {
            boot.next_output_min = Some(meta.next_output_min);
            boot.config = Some(meta.config.clone());
            boot.manager = Some(meta.manager);
            boot.base_stalls = meta.stalls;
            boot.base_crashes = meta.crashes;
            boot.model = Some(model);
            boot.checkpoints_skipped = skipped;
        } else {
            boot.checkpoints_skipped = checkpoint_seqs(&d.checkpoints_dir()).len();
        }
        // Outputs already on the durable record are not re-stored.
        if let Some(last) = replay.last_stored_sim_minutes {
            boot.skip_outputs_through = last;
        }
    }

    boot.store = store;
    Ok(boot)
}

// ---------------------------------------------------------------------
// The supervisor
// ---------------------------------------------------------------------

/// Hard cap on restarts, so a fault plan that kills every incarnation
/// cannot loop forever.
const MAX_INCARNATIONS: u64 = 16;

/// Run the live pipeline under the recovery supervisor: every time an
/// incarnation is killed, stage any torn-write / corrupt-checkpoint
/// damage the fault plan scripted, strip the already-fired fault events,
/// and relaunch from disk — until the mission completes (or the restart
/// cap trips). Requires `options.pipeline.durability` to be set.
pub fn run_with_recovery(
    site: &Site,
    mission: &Mission,
    algorithm: AlgorithmKind,
    options: &OnlineOptions,
) -> OnlineReport {
    let durability = options
        .pipeline
        .durability
        .clone()
        .expect("run_with_recovery needs OnlineOptions durability");
    let mut opts = options.clone();
    let mut recoveries = 0u64;
    let mut journal_replays = 0u64;
    let mut frames_recovered = 0u64;
    // Volatile per-incarnation counters, accumulated so the final report
    // conserves frames across incarnation boundaries (written/shipped/
    // in-flight come ledger-cumulative from the journal already).
    let mut frames_emitted = 0u64;
    let mut frames_dropped = 0u64;
    let mut frames_rendered = 0u64;

    loop {
        let mut report = run_online(site, mission, algorithm, &opts);
        journal_replays += report.journal_replays;
        frames_recovered += report.frames_recovered;
        frames_emitted += report.frames_emitted;
        frames_dropped += report.frames_dropped;
        frames_rendered += report.frames_rendered;
        report.recoveries = recoveries;
        report.journal_replays = journal_replays;
        report.frames_recovered = frames_recovered;
        report.frames_emitted = frames_emitted;
        report.frames_dropped = frames_dropped;
        report.frames_rendered = frames_rendered;

        let Some(kill) = report.kill else {
            return report;
        };
        if report.completed || recoveries + 1 >= MAX_INCARNATIONS {
            return report;
        }

        // The incarnation is dead. Stage the scripted storage damage the
        // kill was supposed to tear into the durable state…
        if kill.torn_write {
            let _ = journal::simulate_torn_tail(&durability.journal_dir(), 7);
        }
        if kill.corrupt_checkpoint {
            corrupt_newest_checkpoint(&durability.checkpoints_dir());
        }
        // …and drop every fault that already fired so the next
        // incarnation does not die at the same scripted instant again.
        let mut plan = opts.pipeline.fault_plan.clone();
        plan.events.retain(|&(at, _)| at > kill.at_hours + 1e-9);
        opts = opts.with_fault_plan(plan);
        recoveries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("adaptive-recovery-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn meta(sim_minutes: f64) -> CheckpointMeta {
        CheckpointMeta {
            sim_minutes,
            next_output_min: sim_minutes + 15.0,
            config: ApplicationConfig::initial(48, 15.0, 24.0),
            manager: ManagerState {
                epochs: 2,
                peak_bandwidth_bps: 1e6,
                degraded_epochs: 0,
            },
            stalls: 1,
            crashes: 0,
            applied_watermark: 3,
        }
    }

    fn model() -> WrfModel {
        WrfModel::new(wrf::ModelConfig::aila_default().with_decimation(16)).unwrap()
    }

    #[test]
    fn checkpoint_bundle_roundtrips() {
        let dir = tmpdir("bundle");
        let m = model();
        write_checkpoint(&dir, 0, &meta(60.0), &m).unwrap();
        let (got_meta, got_model, seq, skipped) = load_newest_checkpoint(&dir).unwrap();
        assert_eq!(seq, 0);
        assert_eq!(skipped, 0);
        assert_eq!(got_meta.sim_minutes, 60.0);
        assert_eq!(got_meta.applied_watermark, 3);
        assert_eq!(got_meta.manager.epochs, 2);
        assert_eq!(got_model, m);
    }

    #[test]
    fn recovery_falls_back_past_a_corrupt_newest_checkpoint() {
        let dir = tmpdir("fallback");
        let m = model();
        write_checkpoint(&dir, 0, &meta(30.0), &m).unwrap();
        write_checkpoint(&dir, 1, &meta(60.0), &m).unwrap();
        assert!(corrupt_newest_checkpoint(&dir));
        let (got_meta, _, seq, skipped) = load_newest_checkpoint(&dir).unwrap();
        assert_eq!(seq, 0, "fell back to the older checkpoint");
        assert_eq!(skipped, 1);
        assert_eq!(got_meta.sim_minutes, 30.0);
    }

    #[test]
    fn all_checkpoints_corrupt_means_cold_start() {
        let dir = tmpdir("cold");
        let m = model();
        write_checkpoint(&dir, 0, &meta(30.0), &m).unwrap();
        assert!(corrupt_newest_checkpoint(&dir));
        assert!(load_newest_checkpoint(&dir).is_none());
    }

    #[test]
    fn pruning_keeps_only_the_newest() {
        let dir = tmpdir("prune");
        let m = model();
        for seq in 0..5 {
            write_checkpoint(&dir, seq, &meta(seq as f64 * 10.0), &m).unwrap();
        }
        prune_checkpoints(&dir, 2);
        assert_eq!(checkpoint_seqs(&dir), vec![3, 4]);
    }

    #[test]
    fn receiver_state_roundtrips() {
        let path = tmpdir("receiver").join("receiver.acp");
        let track = TrackLog::from_fixes(vec![
            EyeFix {
                sim_minutes: 15.0,
                lon: 88.1,
                lat: 14.2,
                pressure_hpa: 1001.5,
            },
            EyeFix {
                sim_minutes: 30.0,
                lon: 88.3,
                lat: 14.6,
                pressure_hpa: 999.25,
            },
        ]);
        save_receiver_state(&path, 2, &track).unwrap();
        let (watermark, got) = load_receiver_state(&path).unwrap();
        assert_eq!(watermark, 2);
        assert_eq!(got, track, "fixes survive bit-exactly");
        // Corruption is detected, not mis-parsed.
        let mut data = fs::read(&path).unwrap();
        let n = data.len();
        data[n - 3] ^= 0x40;
        fs::write(&path, &data).unwrap();
        assert!(load_receiver_state(&path).is_none());
    }

    #[test]
    fn bootstrap_fresh_directory_is_a_cold_start() {
        let d = DurabilityOptions::new(tmpdir("fresh"));
        let boot = bootstrap(&d, 1_000_000).unwrap();
        assert_eq!(boot.journal_replays, 0, "no prior incarnation");
        assert_eq!(boot.journal_replays, 0);
        assert_eq!(boot.frames_recovered, 0);
        assert!(boot.model.is_none());
        assert_eq!(boot.store.frames_stored(), 0);
        // A lock and manifest now exist; a second bootstrap sees a prior
        // (uncompleted) incarnation.
        let boot2 = bootstrap(&d, 1_000_000).unwrap();

        assert_eq!(boot2.journal_replays, 1);
    }

    #[test]
    fn orphan_tmp_files_are_swept_before_anything_is_read() {
        let d = DurabilityOptions::new(tmpdir("orphans"));
        bootstrap(&d, 1_000_000).unwrap();
        let m = model();
        write_checkpoint(&d.checkpoints_dir(), 0, &meta(60.0), &m).unwrap();
        // A kill right after the placeholder header, one mid-payload, and
        // their like in every directory the tmp + rename protocol writes.
        let good = fs::read(checkpoint_path(&d.checkpoints_dir(), 0)).unwrap();
        let orphans = [
            (
                d.checkpoints_dir().join("checkpoint-000001.tmp"),
                &[0u8; 20][..],
            ),
            (
                d.checkpoints_dir().join("checkpoint-000002.tmp"),
                &good[..good.len() / 2],
            ),
            (d.frames_dir().join("frame-00000007.tmp"), &good[..64]),
            (d.state_dir.join("receiver.tmp"), &[0u8; 20][..]),
            (d.state_dir.join("MANIFEST.tmp"), &b"{\"version\":"[..]),
        ];
        for (path, bytes) in &orphans {
            fs::write(path, bytes).unwrap();
        }
        let boot = bootstrap(&d, 1_000_000).unwrap();
        for (path, _) in &orphans {
            assert!(!path.exists(), "{} survived", path.display());
        }
        assert_eq!(boot.model, Some(m), "the good checkpoint loads");
        assert_eq!(boot.checkpoints_skipped, 0);
        assert_eq!(boot.next_checkpoint_seq, 1);
        assert_eq!(checkpoint_seqs(&d.checkpoints_dir()), vec![0]);
    }

    #[test]
    fn receiver_state_with_a_hostile_count_is_refused() {
        let path = tmpdir("receiver-hostile").join("receiver.acp");
        for n in [1u64, u64::MAX, u64::MAX / 32 + 1, 1 << 59] {
            // Correctly checksummed, so only the count check stands
            // between the payload and `16 + n * 32`.
            let mut payload = 5u64.to_le_bytes().to_vec();
            payload.extend_from_slice(&n.to_le_bytes());
            write_snapshot_file(&path, &payload).unwrap();
            assert!(load_receiver_state(&path).is_none(), "count {n}");
            payload.extend_from_slice(&[0u8; 31]);
            write_snapshot_file(&path, &payload).unwrap();
            assert!(load_receiver_state(&path).is_none(), "count {n}, ragged");
        }
    }

    #[test]
    fn completed_manifest_resets_to_a_cold_start() {
        let d = DurabilityOptions::new(tmpdir("completed"));
        bootstrap(&d, 1_000_000).unwrap();
        mark_completed(&d);
        assert!(!d.lock_path().exists());
        let boot = bootstrap(&d, 1_000_000).unwrap();
        assert_eq!(boot.journal_replays, 0, "completed runs are not resumed");
    }
}
