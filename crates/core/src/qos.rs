//! Closed-loop graceful degradation: the QoS controller and its ladder.
//!
//! The paper's framework *adapts*: when the constrained link or cluster
//! degrades, it should trade visualization fidelity for timeliness
//! instead of stalling a critical cyclone forecast. The pipeline already
//! *measures* degradation (`manager.rs` counts `degraded_epochs`); this
//! module closes the loop. A [`QosController`] watches four per-epoch
//! signals — link throughput relative to the best ever seen, receiver
//! lag in frames, disk pressure, and deadline slack — folds them into a
//! single pressure score, and walks a five-rung **degradation ladder**:
//!
//! | rung | payload                              | ~bytes vs full |
//! |------|--------------------------------------|----------------|
//! | 0    | full-resolution frame (`NCDL`)       | 1.0            |
//! | 1    | delta/quantized frame (`AQZ1`)       | 0.25           |
//! | 2    | thumbnail: decimated + nest dropped  | 0.04           |
//! | 3    | track-only: one 32-byte eye fix      | 0.001          |
//! | 4    | store-and-forward pause (fix parked) | 0.001          |
//!
//! Demotion and promotion use *separate* thresholds plus dwell windows
//! (hysteresis), so a flapping link cannot make the ladder oscillate: a
//! single bad epoch demotes, but promotion needs several consecutive
//! calm epochs and a strictly lower pressure than the one that demoted.
//! The controller moves at most one rung per epoch, and under monotone
//! non-decreasing pressure the rung sequence is monotone non-decreasing
//! — both properties are load-bearing for the chaos-soak invariant
//! checker ([`crate::chaos`]).
//!
//! The rung travels with each frame (a one-byte tag on channel/in-process
//! payloads, a header field on the TCP wire — see
//! [`crate::net_transport`]), so viewers decode correctly whatever mix
//! of rungs a run produced.

use ncdf::{codec, AttrValue, Data, Dataset, DatasetView};
use std::collections::HashMap;
use viz::{EyeFix, TrackLog};
use wrf::WrfModel;

// ---------------------------------------------------------------------
// The ladder
// ---------------------------------------------------------------------

/// One rung of the degradation ladder, ordered from full fidelity (0)
/// to store-and-forward pause (4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosRung {
    /// Full-resolution encoded frame.
    FullRes = 0,
    /// Quantized + delta-coded frame ([`ncdf::codec::encode_quantized`]).
    DeltaQuantized = 1,
    /// Spatially decimated frame with the nest dropped.
    Thumbnail = 2,
    /// A bare 32-byte eye fix — the forecast-critical minimum.
    TrackOnly = 3,
    /// Store-and-forward: fixes are parked on disk, nothing is sent
    /// until the controller promotes again (or the mission drains).
    Pause = 4,
}

/// Stride used by the thumbnail rung's spatial decimation. Two keeps
/// the eye localizable even on already-decimated test grids; combined
/// with quantization and nest-dropping it still cuts the payload by an
/// order of magnitude.
pub const THUMBNAIL_STRIDE: usize = 2;

impl QosRung {
    /// All rungs, top to bottom.
    pub const ALL: [QosRung; 5] = [
        QosRung::FullRes,
        QosRung::DeltaQuantized,
        QosRung::Thumbnail,
        QosRung::TrackOnly,
        QosRung::Pause,
    ];

    /// Wire byte for this rung.
    pub fn as_byte(self) -> u8 {
        self as u8
    }

    /// Parse a wire byte.
    pub fn from_byte(b: u8) -> Option<QosRung> {
        QosRung::ALL.get(b as usize).copied()
    }

    /// Approximate payload size relative to a full-resolution frame;
    /// the modeled (DES) transport scales its byte counts by this, so
    /// the ladder relieves both the link and the disk in the model
    /// exactly as the real encodings do live.
    pub fn byte_factor(self) -> f64 {
        match self {
            QosRung::FullRes => 1.0,
            QosRung::DeltaQuantized => 0.25,
            QosRung::Thumbnail => 0.06,
            QosRung::TrackOnly | QosRung::Pause => 0.001,
        }
    }

    fn down(self) -> QosRung {
        QosRung::from_byte(self.as_byte() + 1).unwrap_or(QosRung::Pause)
    }

    fn up(self) -> QosRung {
        match self.as_byte() {
            0 => QosRung::FullRes,
            b => QosRung::from_byte(b - 1).expect("b-1 < 4"),
        }
    }
}

// ---------------------------------------------------------------------
// Signals and pressure
// ---------------------------------------------------------------------

/// The per-epoch observations the controller folds into one pressure
/// score. All four are cheap reads the engine already has on hand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosSignals {
    /// Measured link throughput over the last epoch relative to the best
    /// throughput ever measured (1.0 = healthy, → 0 = collapsed).
    pub bandwidth_frac: f64,
    /// Frames written but not yet delivered (pending + in flight).
    pub receiver_lag_frames: u64,
    /// Free space on the simulation-site disk, percent.
    pub free_disk_pct: f64,
    /// Remaining wall budget over the estimated remaining work
    /// (>1 = ahead of the deadline, <1 = behind).
    pub deadline_slack: f64,
}

impl QosSignals {
    /// A fully healthy observation (pressure 0).
    pub fn healthy() -> Self {
        QosSignals {
            bandwidth_frac: 1.0,
            receiver_lag_frames: 0,
            free_disk_pct: 100.0,
            deadline_slack: 10.0,
        }
    }
}

/// Controller tuning: hysteresis thresholds and dwell windows.
///
/// `demote_at[r]` is the pressure at or above which rung `r` demotes to
/// `r+1`; `promote_at[r]` is the pressure at or below which rung `r+1`
/// promotes back to `r`. The structural invariant
/// `promote_at[r] < demote_at[r]` (validated by
/// [`QosController::new`]) is what makes the ladder monotone under
/// monotone pressure and flap-proof in between.
///
/// This is the *policy*: shared, read-only, checked once. What moves is a
/// ladder's own small state, which a [`QosController`] pairs with one
/// config and the modeled broker holds 10^5 of against a single config.
#[derive(Debug, Clone, PartialEq)]
pub struct QosConfig {
    /// Demotion thresholds, one per descent edge (rung r → r+1).
    pub demote_at: [f64; 4],
    /// Promotion thresholds, one per ascent edge (rung r+1 → r).
    pub promote_at: [f64; 4],
    /// Consecutive epochs at or above the demote threshold before
    /// demoting (1 = react immediately to real trouble).
    pub demote_dwell: u32,
    /// Consecutive epochs at or below the promote threshold before
    /// promoting (>1 = a flap must stay calm a while to win back
    /// fidelity).
    pub promote_dwell: u32,
    /// Receiver lag (frames) that alone saturates the lag term.
    pub lag_scale_frames: f64,
    /// Free-disk percentage below which the disk term starts rising
    /// (it saturates at 0% free).
    pub disk_low_pct: f64,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            demote_at: [0.55, 0.70, 0.80, 0.92],
            promote_at: [0.30, 0.45, 0.55, 0.70],
            demote_dwell: 1,
            promote_dwell: 3,
            lag_scale_frames: 12.0,
            disk_low_pct: 40.0,
        }
    }
}

impl QosConfig {
    /// Panics when the configuration violates the hysteresis invariant
    /// (`promote_at[r] < demote_at[r]` for every edge, thresholds within
    /// `(0, 1]`, dwells ≥ 1). A policy is checked once, however many
    /// ladders run under it.
    pub(crate) fn validate(&self) {
        for r in 0..4 {
            assert!(
                self.promote_at[r] < self.demote_at[r],
                "hysteresis requires promote_at[{r}] < demote_at[{r}]"
            );
            assert!(
                self.demote_at[r] > 0.0 && self.demote_at[r] <= 1.0,
                "demote_at[{r}] must lie in (0, 1]"
            );
            assert!(
                self.promote_at[r] >= 0.0,
                "promote_at[{r}] must be non-negative"
            );
        }
        assert!(self.demote_dwell >= 1, "demote dwell must be at least 1");
        assert!(self.promote_dwell >= 1, "promote dwell must be at least 1");
        assert!(self.lag_scale_frames > 0.0, "lag scale must be positive");
        assert!(self.disk_low_pct > 0.0, "disk threshold must be positive");
    }

    /// See [`QosController::pressure`].
    fn pressure(&self, s: &QosSignals) -> f64 {
        let bw = (1.0 - s.bandwidth_frac).clamp(0.0, 1.0);
        let lag = (s.receiver_lag_frames as f64 / self.lag_scale_frames).clamp(0.0, 1.0);
        let disk = (1.0 - s.free_disk_pct / self.disk_low_pct).clamp(0.0, 1.0);
        let slack = (1.0 - s.deadline_slack).clamp(0.0, 1.0);
        bw.max(lag).max(disk).max(slack)
    }
}

/// See [`QosController::recovery_pressure`].
fn recovery_pressure(s: &QosSignals) -> f64 {
    let bw = (1.0 - s.bandwidth_frac).clamp(0.0, 1.0);
    let slack = (1.0 - s.deadline_slack).clamp(0.0, 1.0);
    bw.max(slack)
}

/// One ladder's state: everything a [`QosController`] holds that is not
/// policy. `Copy` and pointer-free, so the modeled broker
/// ([`crate::broker`]) keeps one inline per viewer and all 10^5 of them
/// read a single shared [`QosConfig`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct QosLadder {
    pub(crate) rung: QosRung,
    pub(crate) deepest: QosRung,
    above: u32,
    below: u32,
    last_pressure: f64,
    pub(crate) demotions: u64,
    pub(crate) promotions: u64,
}

impl QosLadder {
    /// A ladder at full fidelity.
    pub(crate) fn new() -> Self {
        QosLadder {
            rung: QosRung::FullRes,
            deepest: QosRung::FullRes,
            above: 0,
            below: 0,
            last_pressure: 0.0,
            demotions: 0,
            promotions: 0,
        }
    }

    /// One epoch tick under `cfg` (which the caller has
    /// [validated](QosConfig::validate)): fold the signals, update the
    /// dwell windows, move at most one rung, and return the rung now in
    /// force.
    pub(crate) fn observe(&mut self, cfg: &QosConfig, s: &QosSignals) -> QosRung {
        let p = cfg.pressure(s);
        self.last_pressure = p;
        let r = self.rung.as_byte() as usize;
        let wants_down = r < 4 && p >= cfg.demote_at[r];
        let wants_up = r > 0 && recovery_pressure(s) <= cfg.promote_at[r - 1];
        self.above = if wants_down { self.above + 1 } else { 0 };
        self.below = if wants_up { self.below + 1 } else { 0 };
        if wants_down && self.above >= cfg.demote_dwell {
            self.rung = self.rung.down();
            self.demotions += 1;
            self.above = 0;
            self.below = 0;
        } else if wants_up && self.below >= cfg.promote_dwell {
            self.rung = self.rung.up();
            self.promotions += 1;
            self.above = 0;
            self.below = 0;
        }
        self.deepest = self.deepest.max(self.rung);
        self.rung
    }
}

/// The closed-loop degradation controller: one policy ([`QosConfig`])
/// and one ladder walking under it. Volatile: a recovered
/// incarnation restarts at [`QosRung::FullRes`] and re-derives its rung
/// from fresh observations (the signals it watches are themselves
/// rebuilt from the durable ledger).
#[derive(Debug, Clone)]
pub struct QosController {
    cfg: QosConfig,
    ladder: QosLadder,
}

impl QosController {
    /// New controller at full fidelity. Panics when the configuration
    /// violates the hysteresis invariant (`promote_at[r] < demote_at[r]`
    /// for every edge, thresholds within `(0, 1]`, dwells ≥ 1).
    pub fn new(cfg: QosConfig) -> Self {
        cfg.validate();
        QosController {
            cfg,
            ladder: QosLadder::new(),
        }
    }

    /// Current rung.
    pub fn rung(&self) -> QosRung {
        self.ladder.rung
    }

    /// Pressure computed by the most recent [`observe`](Self::observe).
    pub fn last_pressure(&self) -> f64 {
        self.ladder.last_pressure
    }

    /// Deepest rung ever reached.
    pub fn deepest(&self) -> QosRung {
        self.ladder.deepest
    }

    /// Demotions performed so far.
    pub fn demotions(&self) -> u64 {
        self.ladder.demotions
    }

    /// Promotions performed so far.
    pub fn promotions(&self) -> u64 {
        self.ladder.promotions
    }

    /// Fold the four signals into one pressure score in `[0, 1]`.
    ///
    /// MAX-combining of monotone per-signal terms: each signal alone can
    /// drive the ladder down (a collapsed link is an emergency even with
    /// an empty disk), and pressure is monotone in every signal — the
    /// property the ladder-monotonicity invariant rests on.
    pub fn pressure(&self, s: &QosSignals) -> f64 {
        self.cfg.pressure(s)
    }

    /// The pressure that gates *promotion*: only the leading signals
    /// (link health, deadline slack). Receiver lag and disk backlog are
    /// *consequences* of the degraded state — while shipping is parked
    /// at [`QosRung::Pause`] they cannot drain, so holding promotion
    /// hostage to them would deadlock the ladder at the bottom (classic
    /// integrator windup). Demotion still uses the full
    /// [`pressure`](Self::pressure), so a lag or disk emergency always
    /// drives the ladder down; it just cannot keep it down after the
    /// root cause has cleared.
    pub fn recovery_pressure(&self, s: &QosSignals) -> f64 {
        recovery_pressure(s)
    }

    /// One epoch tick: fold the signals, update the dwell windows, move
    /// at most one rung, and return the rung now in force.
    pub fn observe(&mut self, s: &QosSignals) -> QosRung {
        self.ladder.observe(&self.cfg, s)
    }
}

// ---------------------------------------------------------------------
// Per-rung frame encodings
// ---------------------------------------------------------------------

/// Byte length of an encoded eye fix (rungs 3 and 4).
pub const FIX_BYTES: usize = 32;

/// Encode one eye fix as 32 little-endian bytes
/// (`sim_minutes, lon, lat, pressure_hpa`, each f64).
pub fn encode_fix(fix: &EyeFix) -> [u8; FIX_BYTES] {
    let mut out = [0u8; FIX_BYTES];
    out[0..8].copy_from_slice(&fix.sim_minutes.to_le_bytes());
    out[8..16].copy_from_slice(&fix.lon.to_le_bytes());
    out[16..24].copy_from_slice(&fix.lat.to_le_bytes());
    out[24..32].copy_from_slice(&fix.pressure_hpa.to_le_bytes());
    out
}

/// Decode a 32-byte eye fix; `None` on wrong length or non-finite
/// values.
pub fn decode_fix(b: &[u8]) -> Option<EyeFix> {
    if b.len() != FIX_BYTES {
        return None;
    }
    let f = |i: usize| f64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
    let fix = EyeFix {
        sim_minutes: f(0),
        lon: f(8),
        lat: f(16),
        pressure_hpa: f(24),
    };
    let finite = fix.sim_minutes.is_finite()
        && fix.lon.is_finite()
        && fix.lat.is_finite()
        && fix.pressure_hpa.is_finite();
    finite.then_some(fix)
}

/// The model's current eye fix from ground truth (what the track-only
/// rung ships instead of a frame).
pub fn model_fix(model: &WrfModel) -> EyeFix {
    let (lon, lat) = model.eye_lonlat();
    EyeFix {
        sim_minutes: model.sim_minutes(),
        lon,
        lat,
        pressure_hpa: model.min_pressure_hpa(),
    }
}

/// Build the thumbnail rung's dataset: every spatial dimension sampled
/// with the given stride and the nest (variables, dimensions, and
/// geometry attributes) dropped. Eye detection still works on the
/// decimated parent grid because [`viz::track::detect_eye`]'s parent path uses
/// fractional grid indices, which survive decimation.
pub fn thumbnail_dataset(ds: &Dataset, stride: usize) -> Dataset {
    let d = stride.max(1);
    let mut out = Dataset::new();
    for (name, val) in ds.attrs() {
        if name == "nest_origin_km" || name == "nest_dx_km" {
            continue;
        }
        out.set_attr(name, val.clone());
    }
    out.set_attr("thumbnail_stride", AttrValue::I64(d as i64));
    let src_dims: Vec<&ncdf::Dim> = ds.dims().collect();
    let mut ids = HashMap::new();
    for dim in &src_dims {
        if dim.name.starts_with("nest_") {
            continue;
        }
        let new_len = if dim.len == 0 {
            0
        } else {
            (dim.len - 1) / d + 1
        };
        let id = out.add_dim(&dim.name, new_len).expect("fresh dataset");
        ids.insert(dim.name.as_str(), id);
    }
    for var in ds.vars() {
        if var.name.starts_with("nest_") {
            continue;
        }
        let shape = var.shape(ds);
        let vdims: Vec<_> = var
            .dims
            .iter()
            .map(|&id| ids[src_dims[id.index()].name.as_str()])
            .collect();
        let picks = strided_indices(&shape, d);
        let data = match &var.data {
            Data::F32(xs) => Data::F32(picks.iter().map(|&i| xs[i]).collect()),
            Data::F64(xs) => Data::F64(picks.iter().map(|&i| xs[i]).collect()),
            Data::I32(xs) => Data::I32(picks.iter().map(|&i| xs[i]).collect()),
            Data::U8(xs) => Data::U8(picks.iter().map(|&i| xs[i]).collect()),
        };
        let v = out
            .add_var(&var.name, &vdims, data)
            .expect("decimated shape matches decimated dims");
        v.attrs.extend(var.attrs.clone());
    }
    out
}

/// Row-major flat indices of an N-D strided sample.
fn strided_indices(shape: &[usize], d: usize) -> Vec<usize> {
    let out_shape: Vec<usize> = shape
        .iter()
        .map(|&s| if s == 0 { 0 } else { (s - 1) / d + 1 })
        .collect();
    let total: usize = out_shape.iter().product();
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    let mut picks = Vec::with_capacity(total);
    let mut multi = vec![0usize; shape.len()];
    for _ in 0..total {
        picks.push(multi.iter().zip(&strides).map(|(&m, &st)| m * d * st).sum());
        for ax in (0..shape.len()).rev() {
            multi[ax] += 1;
            if multi[ax] < out_shape[ax] {
                break;
            }
            multi[ax] = 0;
        }
    }
    picks
}

/// Encode the current model state at the given rung. Full-resolution
/// frames stay byte-identical to the pre-ladder pipeline (a raw `NCDL`
/// dataset, no tag); every degraded rung prepends a one-byte rung tag.
/// The two cases never collide: rung tags are `1..=4`, while an `NCDL`
/// blob starts with `0x4E` (`'N'`).
pub fn encode_frame(model: &WrfModel, rung: QosRung) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(model, rung, &mut out);
    out
}

/// [`encode_frame`] into a caller-owned buffer, replacing its contents —
/// what the live transports call with a buffer the receiver has handed
/// back, so a steady run of frames is encoded without a fresh allocation.
pub fn encode_frame_into(model: &WrfModel, rung: QosRung, out: &mut Vec<u8>) {
    out.clear();
    if rung != QosRung::FullRes {
        out.push(rung.as_byte());
    }
    append_body(model, rung, out);
}

/// Encode just the rung body (no tag) — what the TCP wire ships, with
/// the rung carried in the frame header instead.
pub fn encode_body(model: &WrfModel, rung: QosRung) -> Vec<u8> {
    let mut out = Vec::new();
    append_body(model, rung, &mut out);
    out
}

/// Append the rung body to `out`, which is empty or holds only the rung
/// tag (never the case for a full-resolution frame, whose encoder replaces
/// the buffer's contents).
fn append_body(model: &WrfModel, rung: QosRung, out: &mut Vec<u8>) {
    match rung {
        QosRung::FullRes => model.frame_into(out),
        QosRung::DeltaQuantized => out.extend_from_slice(&codec::encode_quantized(&model.frame())),
        QosRung::Thumbnail => out.extend_from_slice(&codec::encode_quantized(&thumbnail_dataset(
            &model.frame(),
            THUMBNAIL_STRIDE,
        ))),
        QosRung::TrackOnly | QosRung::Pause => {
            out.extend_from_slice(&encode_fix(&model_fix(model)))
        }
    }
}

/// Apply a rung body at the receiving end. Returns true when the track
/// accepted a fix from it. A full-resolution body is validated and
/// scanned where it lies ([`DatasetView`]): only its pressure variables
/// are ever converted.
pub fn apply_body(track: &mut TrackLog, rung: QosRung, body: &[u8]) -> bool {
    match rung {
        QosRung::FullRes => match DatasetView::parse(body) {
            Ok(view) => track.ingest(&view).is_some(),
            Err(_) => false,
        },
        QosRung::DeltaQuantized | QosRung::Thumbnail => match codec::decode_quantized(body) {
            Ok(ds) => track.ingest(&ds).is_some(),
            Err(_) => false,
        },
        QosRung::TrackOnly | QosRung::Pause => match decode_fix(body) {
            Some(fix) => {
                track.push_fix(fix);
                true
            }
            None => false,
        },
    }
}

/// Ingest a payload that may be rung-tagged (first byte `1..=4`) or a
/// legacy untagged full-resolution dataset. Returns true when the track
/// accepted a fix.
pub fn ingest_tagged(track: &mut TrackLog, bytes: &[u8]) -> bool {
    match bytes.first().and_then(|&b| {
        if (1..=4).contains(&b) {
            QosRung::from_byte(b)
        } else {
            None
        }
    }) {
        Some(rung) => apply_body(track, rung, &bytes[1..]),
        None => apply_body(track, QosRung::FullRes, bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::SplitMix64;
    use wrf::ModelConfig;

    fn model() -> WrfModel {
        WrfModel::new(ModelConfig::aila_default().with_decimation(16)).expect("valid config")
    }

    fn pressured(p: f64) -> QosSignals {
        QosSignals {
            bandwidth_frac: 1.0 - p,
            ..QosSignals::healthy()
        }
    }

    #[test]
    fn rung_bytes_roundtrip_and_factors_decrease() {
        for r in QosRung::ALL {
            assert_eq!(QosRung::from_byte(r.as_byte()), Some(r));
        }
        assert_eq!(QosRung::from_byte(5), None);
        for pair in QosRung::ALL.windows(2) {
            assert!(pair[0].byte_factor() >= pair[1].byte_factor());
        }
        assert_eq!(QosRung::FullRes.byte_factor(), 1.0);
    }

    #[test]
    fn controller_demotes_fast_and_promotes_slow() {
        let mut c = QosController::new(QosConfig::default());
        assert_eq!(c.rung(), QosRung::FullRes);
        // A collapsed link demotes one rung per epoch, down to Pause.
        let collapse = pressured(0.98);
        for want in [1u8, 2, 3, 4, 4] {
            assert_eq!(c.observe(&collapse).as_byte(), want);
        }
        assert_eq!(c.deepest(), QosRung::Pause);
        assert_eq!(c.demotions(), 4);
        // Recovery promotes only after the dwell window, one rung at a
        // time: with promote_dwell=3, the first two calm epochs hold.
        let calm = QosSignals::healthy();
        assert_eq!(c.observe(&calm), QosRung::Pause);
        assert_eq!(c.observe(&calm), QosRung::Pause);
        assert_eq!(c.observe(&calm), QosRung::TrackOnly);
        let mut seen = vec![c.rung()];
        for _ in 0..12 {
            seen.push(c.observe(&calm));
        }
        assert_eq!(*seen.last().unwrap(), QosRung::FullRes);
        assert_eq!(c.promotions(), 4);
        assert_eq!(c.deepest(), QosRung::Pause, "deepest is sticky");
    }

    #[test]
    fn paused_ladder_promotes_once_the_link_recovers_despite_backlog() {
        let mut c = QosController::new(QosConfig::default());
        // Collapse the link until the ladder parks at Pause.
        while c.rung() != QosRung::Pause {
            c.observe(&pressured(0.98));
        }
        // The link recovers, but the pause left a big receiver backlog
        // and a nearly full disk — consequences that can only drain
        // *after* promotion. Anti-windup: promotion keys off the leading
        // signals, so the ladder climbs anyway.
        let recovered_with_backlog = QosSignals {
            bandwidth_frac: 1.0,
            receiver_lag_frames: 500,
            free_disk_pct: 0.5,
            deadline_slack: 5.0,
        };
        assert_eq!(
            c.pressure(&recovered_with_backlog),
            1.0,
            "full pressure pinned"
        );
        assert_eq!(c.recovery_pressure(&recovered_with_backlog), 0.0);
        let mut promoted = false;
        for _ in 0..(QosConfig::default().promote_dwell + 1) {
            promoted |= c.observe(&recovered_with_backlog) < QosRung::Pause;
        }
        assert!(promoted, "ladder must not deadlock at Pause on backlog");
    }

    #[test]
    fn flapping_pressure_cannot_oscillate_the_ladder() {
        let mut c = QosController::new(QosConfig::default());
        // Alternate one bad epoch with one calm epoch: demotions happen
        // (dwell 1) but no promotion ever fires (dwell 3 is never met),
        // so the rung ratchets down instead of flapping.
        let mut rungs = Vec::new();
        for i in 0..20 {
            let s = if i % 2 == 0 {
                pressured(0.95)
            } else {
                QosSignals::healthy()
            };
            rungs.push(c.observe(&s));
        }
        assert!(
            rungs.windows(2).all(|w| w[1] >= w[0]),
            "no promotions: {rungs:?}"
        );
        assert_eq!(c.promotions(), 0);
    }

    #[test]
    fn ladder_is_monotone_under_monotone_pressure() {
        // Property: for seeded random monotone non-decreasing pressure
        // schedules, the rung sequence is monotone non-decreasing and
        // moves at most one rung per epoch.
        let mut rng = SplitMix64::new(0x5eed_cafe);
        for _case in 0..200 {
            let mut c = QosController::new(QosConfig::default());
            let mut p = 0.0f64;
            let mut prev = QosRung::FullRes;
            for _ in 0..60 {
                p = (p + rng.unit_f64() * 0.08).min(1.0);
                let r = c.observe(&pressured(p));
                assert!(r >= prev, "monotone pressure demoted then promoted");
                assert!(
                    r.as_byte() <= prev.as_byte() + 1,
                    "more than one rung per epoch"
                );
                prev = r;
            }
        }
    }

    #[test]
    fn pressure_is_max_combined_and_monotone_per_signal() {
        let c = QosController::new(QosConfig::default());
        assert_eq!(c.pressure(&QosSignals::healthy()), 0.0);
        let lagged = QosSignals {
            receiver_lag_frames: 6,
            ..QosSignals::healthy()
        };
        assert!((c.pressure(&lagged) - 0.5).abs() < 1e-12);
        let full_disk = QosSignals {
            free_disk_pct: 0.0,
            ..QosSignals::healthy()
        };
        assert_eq!(c.pressure(&full_disk), 1.0);
        let behind = QosSignals {
            deadline_slack: 0.25,
            ..QosSignals::healthy()
        };
        assert!((c.pressure(&behind) - 0.75).abs() < 1e-12);
        // MAX-combining: the worst signal alone sets the score.
        let combo = QosSignals {
            bandwidth_frac: 0.9,
            receiver_lag_frames: 6,
            free_disk_pct: 100.0,
            deadline_slack: 0.25,
        };
        assert!((c.pressure(&combo) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "hysteresis requires")]
    fn config_without_hysteresis_gap_is_rejected() {
        let cfg = QosConfig {
            promote_at: [0.55, 0.45, 0.55, 0.70], // promote_at[0] == demote_at[0]
            ..QosConfig::default()
        };
        QosController::new(cfg);
    }

    #[test]
    fn fix_codec_roundtrips_and_rejects_garbage() {
        let fix = EyeFix {
            sim_minutes: 123.5,
            lon: 88.25,
            lat: 16.125,
            pressure_hpa: 964.75,
        };
        let b = encode_fix(&fix);
        assert_eq!(decode_fix(&b), Some(fix));
        assert_eq!(decode_fix(&b[..31]), None);
        let mut nan = b;
        nan[0..8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(decode_fix(&nan), None);
    }

    #[test]
    fn every_rung_body_yields_a_track_fix() {
        let mut m = model();
        m.advance_steps(4, 1).expect("finite");
        let truth = model_fix(&m);
        for rung in QosRung::ALL {
            let body = encode_body(&m, rung);
            let mut track = TrackLog::new();
            assert!(
                apply_body(&mut track, rung, &body),
                "rung {rung:?} body must apply"
            );
            let fix = track.fixes()[0];
            // Degraded rungs stay close to the full-res eye; the fix
            // rungs ship model ground truth exactly.
            assert!(
                (fix.lon - truth.lon).abs() < 3.0 && (fix.lat - truth.lat).abs() < 3.0,
                "rung {rung:?} fix drifted: {fix:?} vs {truth:?}"
            );
            if rung >= QosRung::TrackOnly {
                assert_eq!(fix, truth);
            }
        }
    }

    /// A structurally valid body off the wire with one poisoned value: the
    /// receiver must decline it, not die on it.
    #[test]
    fn nan_in_a_pressure_payload_is_declined_without_a_panic() {
        /// `body` with the middle f32 of variable `var` overwritten by NaN.
        fn poison(body: &[u8], var: &str) -> Vec<u8> {
            let view = DatasetView::parse(body).expect("valid");
            let raw = view.var(var).expect("present").raw();
            let cell = raw.as_ptr() as usize - body.as_ptr() as usize + 4 * (raw.len() / 8);
            let mut bad = body.to_vec();
            bad[cell..cell + 4].copy_from_slice(&f32::NAN.to_le_bytes());
            assert!(DatasetView::parse(&bad).is_ok(), "still a valid frame");
            bad
        }
        let mut m = model();
        m.advance_steps(3, 1).expect("finite");
        // The variable the eye is read from: the parent field, then — once
        // a nest is up — the nest field.
        for eye_var in ["pressure", "nest_pressure"] {
            if eye_var == "nest_pressure" {
                m.spawn_nest();
                m.advance_steps(2, 1).expect("finite");
            }
            let good = encode_body(&m, QosRung::FullRes);
            let mut track = TrackLog::new();
            assert!(apply_body(&mut track, QosRung::FullRes, &good));
            let before = track.clone();
            let bad = poison(&good, eye_var);
            assert!(!apply_body(&mut track, QosRung::FullRes, &bad));
            assert!(!ingest_tagged(&mut track, &bad));
            assert_eq!(track, before, "track unchanged");
            // A variable the viewer never reads does not cost the fix.
            assert!(apply_body(
                &mut track,
                QosRung::FullRes,
                &poison(&good, "qvapor")
            ));
            assert_eq!(track.fixes()[0], track.fixes()[1]);
        }
    }

    #[test]
    fn recycled_buffers_encode_the_same_frame_bytes() {
        let mut m = model();
        m.advance_steps(2, 1).expect("finite");
        let mut buf = vec![0xa5u8; 3];
        for rung in QosRung::ALL {
            // Whatever the buffer last held — a larger frame, a 33-byte
            // fix — the next encode replaces it.
            encode_frame_into(&m, rung, &mut buf);
            assert_eq!(buf, encode_frame(&m, rung));
            match rung {
                QosRung::FullRes => assert_eq!(buf, encode_body(&m, rung)),
                _ => {
                    assert_eq!(buf[0], rung.as_byte());
                    assert_eq!(buf[1..], encode_body(&m, rung));
                }
            }
        }
        encode_frame_into(&m, QosRung::FullRes, &mut buf);
        assert_eq!(buf, m.frame().to_bytes().to_vec());
    }

    #[test]
    fn degraded_rungs_shrink_payloads_in_order() {
        let mut m = model();
        m.advance_steps(2, 1).expect("finite");
        let sizes: Vec<usize> = QosRung::ALL
            .iter()
            .map(|&r| encode_frame(&m, r).len())
            .collect();
        assert!(
            sizes.windows(2).all(|w| w[1] <= w[0]),
            "sizes must not grow down the ladder: {sizes:?}"
        );
        assert!(
            sizes[1] * 2 < sizes[0],
            "quantized at least halves the frame: {sizes:?}"
        );
        assert!(
            sizes[2] * 4 < sizes[0],
            "thumbnail is a small fraction even on a tiny test grid: {sizes:?}"
        );
        assert_eq!(sizes[3], FIX_BYTES + 1);
    }

    #[test]
    fn tagged_and_legacy_payloads_both_ingest() {
        let mut m = model();
        m.advance_steps(2, 1).expect("finite");
        let mut track = TrackLog::new();
        // Legacy untagged full-res payload.
        assert!(ingest_tagged(&mut track, &m.frame().to_bytes()));
        // Tagged payloads for every degraded rung.
        for rung in [
            QosRung::DeltaQuantized,
            QosRung::Thumbnail,
            QosRung::TrackOnly,
        ] {
            assert!(ingest_tagged(&mut track, &encode_frame(&m, rung)));
        }
        assert_eq!(track.fixes().len(), 4);
        // Garbage neither panics nor applies.
        assert!(!ingest_tagged(&mut track, b""));
        assert!(!ingest_tagged(&mut track, &[1, 2, 3]));
        assert!(!ingest_tagged(&mut track, &[9u8; 40]));
    }

    #[test]
    fn thumbnail_drops_nest_and_decimates_every_grid() {
        let mut m = model();
        m.advance_steps(3, 1).expect("finite");
        m.spawn_nest();
        m.advance_steps(2, 1).expect("finite");
        let full = m.frame();
        assert!(full.var("nest_pressure").is_some(), "nest present");
        let thumb = thumbnail_dataset(&full, THUMBNAIL_STRIDE);
        assert!(thumb.var("nest_pressure").is_none());
        assert!(thumb.attr("nest_origin_km").is_none());
        assert!(thumb.attr("nest_dx_km").is_none());
        let (full_ny, thumb_ny) = (
            full.dim("south_north").unwrap().len,
            thumb.dim("south_north").unwrap().len,
        );
        assert_eq!(thumb_ny, (full_ny - 1) / THUMBNAIL_STRIDE + 1);
        // Decimated values are exact samples of the full grid.
        let fp = full.var("pressure").unwrap().data.to_f64_vec();
        let tp = thumb.var("pressure").unwrap().data.to_f64_vec();
        let nx = full.dim("west_east").unwrap().len;
        assert_eq!(tp[0], fp[0]);
        assert_eq!(tp[1], fp[THUMBNAIL_STRIDE]);
        let tnx = thumb.dim("west_east").unwrap().len;
        assert_eq!(tp[tnx], fp[THUMBNAIL_STRIDE * nx]);
        // The decimated frame still carries an eye.
        let mut track = TrackLog::new();
        assert!(track.ingest(&thumb).is_some());
    }

    #[test]
    fn strided_indices_cover_corners() {
        assert_eq!(strided_indices(&[5], 2), vec![0, 2, 4]);
        assert_eq!(strided_indices(&[1], 4), vec![0]);
        assert_eq!(strided_indices(&[3, 3], 2), vec![0, 2, 6, 8], "2-D corners");
        assert_eq!(strided_indices(&[], 2), vec![0], "scalar");
    }
}
