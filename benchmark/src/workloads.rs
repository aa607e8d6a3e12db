//! The five workloads. Each drives one frame's whole life through the
//! program's public entry points, with work fixed by count (never by
//! time) so that every count repeats exactly.
//!
//! Why these five — each optimisation should have a workload that
//! exercises it and one that bypasses it:
//!
//! - `live_compute`: full-resolution physics is > 90 % of the wall, so
//!   kernel, pool/halo/barrier and nest work shows here and pipeline
//!   work does not.
//! - `live_durable`: the only workload where journal/store fsyncs,
//!   checkpoints, exact encode/decode and the engine's epoch loop
//!   dominate; physics is the minority.
//! - `serve_fanout`: sockets, per-client threads, the ring/body store
//!   and CRC + decode + eye detection on the viewer do all the work, the
//!   solver none; the resume cycle uses the same tier for catch-up
//!   replay beside the live tail.
//! - `des_campaign`: virtual time makes the DES, the epoch engine, the
//!   decision/LP code and the resource models the cost; it bypasses
//!   sockets, fsync and full-grid kernels.
//! - `des_storm`: the modeled broker at 10^5 clients, the fan-out
//!   implementation that is *not* the socket tier; untouched by solver
//!   or codec work.

use crate::host::{cpu_secs, Host, TempRoot};
use crate::trace::Tracer;
use climate_adaptive::adaptive::broker::{self, loadgen, BreakerConfig, BrokerConfig};
use climate_adaptive::adaptive::decision::AlgorithmKind;
use climate_adaptive::adaptive::engine::{
    assert_frame_conservation, PhysicsThreads, PipelineCounters, PipelineOptions,
};
use climate_adaptive::adaptive::online::{run_online, OnlineOptions, OnlineReport};
use climate_adaptive::adaptive::orchestrator::Orchestrator;
use climate_adaptive::adaptive::qos::{self, QosRung};
use climate_adaptive::adaptive::recovery::DurabilityOptions;
use climate_adaptive::adaptive::server::{
    FrameServer, RemoteViewer, ServerConfig, ServingMode, ViewerConfig,
};
use climate_adaptive::cyclone::{Mission, Site};
use climate_adaptive::viz::{EyeFix, TrackLog};
use climate_adaptive::wrf::{ModelConfig, WrfModel};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 5] = [
    "live_compute",
    "live_durable",
    "serve_fanout",
    "des_campaign",
    "des_storm",
];

/// A producer that has to wait sleeps; it never spins (a `yield_now`
/// producer competes with the two viewer threads for the two cores and
/// widened the serve spread from 4 % to 11 %).
const PRODUCER_NAP: Duration = Duration::from_micros(200);
/// Any wait on the serving tier gives up after this long.
const SERVE_DEADLINE: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------
// Sizes
// ---------------------------------------------------------------------

/// Work per timed window, as a function of `--seconds` only. The
/// reference sizes (at `--seconds 10`) were measured on the 2-core
/// reference host to give a window of 9–11 s each.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `live_compute` mission length, simulated hours (decimation 1).
    pub compute_hours: f64,
    /// `live_durable` mission length, simulated hours (decimation 2).
    pub durable_hours: f64,
    /// `serve_fanout` segments of 800 live + 200 away publishes.
    pub serve_segments: u64,
    /// `des_campaign` repetitions of 3 sites × 2 algorithms.
    pub campaign_reps: u64,
    /// `des_storm` repetitions of the 10^5-client outage storm.
    pub storm_reps: u64,
}

impl Sizes {
    pub fn for_seconds(seconds: f64) -> Self {
        // Past the last resolution change both live missions cost a
        // near-constant wall per simulated hour (≈ 1.07 s and ≈ 0.86 s on
        // the reference host), so the length is linear in `--seconds`.
        let reps = |per_second: f64| ((seconds * per_second).round() as u64).max(3);
        Sizes {
            compute_hours: (39.0 + (seconds - 10.0) / 1.07).clamp(30.0, 60.0),
            durable_hours: (44.0 + (seconds - 10.0) / 0.86).clamp(30.0, 60.0),
            serve_segments: reps(0.5),
            campaign_reps: reps(0.4),
            storm_reps: reps(0.8),
        }
    }
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// What one timed window produced.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Frame lives completed in the window.
    pub frames: u64,
    /// Wall seconds of the whole window.
    pub wall_s: f64,
    /// Frames per second of each repetition, in order; empty for a
    /// workload that is one mission.
    pub rep_rates: Vec<f64>,
    /// Frames per wall second: the median of `rep_rates`, or
    /// `frames / wall_s` for a single mission.
    pub frames_per_s: f64,
    /// User + system CPU seconds spent in the window.
    pub cpu_s: f64,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, human readable.
    pub errors: Vec<String>,
    /// Counts that must repeat exactly from run to run.
    pub counts: Vec<(String, u64)>,
    /// Modeled wall of the window, built by the ledger from counts ×
    /// unit costs (traced run only).
    pub shape: WindowShape,
}

/// The counts the ledger multiplies by unit costs for `ledger.coverage`.
#[derive(Debug, Clone, Default)]
pub enum WindowShape {
    #[default]
    None,
    /// Eye fixes of every rendered frame of a live mission.
    Live {
        decimation: usize,
        durable: bool,
        sim_minutes: f64,
        fixes: Vec<EyeFix>,
    },
    Serve {
        publishes: u64,
        deliveries: u64,
    },
    Campaign {
        reps: u64,
    },
    Storm {
        reps: u64,
    },
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

// ---------------------------------------------------------------------
// The rig: everything set-up builds and the timed window runs on
// ---------------------------------------------------------------------

pub struct Rig {
    name: &'static str,
    seed: u64,
    team: usize,
    kind: Kind,
}

/// What the timed window runs, and how much of it.
enum Kind {
    Live { spec: LiveSpec, hours: f64 },
    Serve { rig: Box<ServeRig>, segments: u64 },
    Campaign { reps: u64 },
    Storm { reps: u64 },
}

impl Rig {
    /// Set-up: build inputs, start pools/servers, and run a fixed
    /// warm-up pass of the workload's own code, so that set-up time is
    /// CPU-bound work and not process start.
    pub fn prepare(
        name: &str,
        seed: u64,
        seconds: f64,
        host: &Host,
        tmp: &mut TempRoot,
        tracer: &mut Tracer,
    ) -> Result<Rig, String> {
        let sizes = Sizes::for_seconds(seconds);
        let team = host.team_of_two;
        let span = tracer.begin("setup");
        let mut warm_live = |spec: LiveSpec, warm_hours: f64, hours: f64| {
            let report = spec.run(warm_hours, seed, tmp);
            check_live(&report).map_err(|e| format!("warm-up: {e}"))?;
            Ok::<_, String>(Kind::Live { spec, hours })
        };
        let (name, kind) = match name {
            "live_compute" => {
                let spec = LiveSpec {
                    decimation: 1,
                    threads: team,
                    durable: false,
                };
                let kind = warm_live(spec, COMPUTE_WARMUP_HOURS, sizes.compute_hours)?;
                ("live_compute", kind)
            }
            "live_durable" => {
                let spec = LiveSpec {
                    decimation: 2,
                    threads: 1,
                    durable: true,
                };
                let kind = warm_live(spec, DURABLE_WARMUP_HOURS, sizes.durable_hours)?;
                ("live_durable", kind)
            }
            "serve_fanout" => {
                let bodies = tracer.timed("setup.encode_bodies", ServeBodies::generate).0;
                let mut rig =
                    ServeRig::start(seed, Arc::new(bodies), LIVE_PER_SEGMENT, AWAY_PER_SEGMENT)?;
                rig.publish_live(WARMUP_FRAMES, tracer)?;
                rig.wait_all_delivered()?;
                let kind = Kind::Serve {
                    rig: Box::new(rig),
                    segments: sizes.serve_segments,
                };
                ("serve_fanout", kind)
            }
            "des_campaign" => {
                campaign_once(tracer)?;
                let reps = sizes.campaign_reps;
                ("des_campaign", Kind::Campaign { reps })
            }
            "des_storm" => {
                storm_once(seed)?;
                let reps = sizes.storm_reps;
                ("des_storm", Kind::Storm { reps })
            }
            other => return Err(format!("unknown workload {other:?}")),
        };
        tracer.end(span);
        Ok(Rig {
            name,
            seed,
            team,
            kind,
        })
    }

    /// The timed window. May be called more than once on one rig (the
    /// traced run measures it untraced first, then traced).
    pub fn window(&mut self, tmp: &mut TempRoot, tracer: &mut Tracer) -> Window {
        let span = tracer.begin(&format!("window.{}", self.name));
        let cpu0 = cpu_secs();
        let t0 = Instant::now();
        let mut w = match &mut self.kind {
            Kind::Live { spec, hours } => live_window(spec, *hours, self.seed, tmp, tracer),
            Kind::Serve { rig, segments } => serve_window(rig, *segments, tracer),
            Kind::Campaign { reps } => campaign_window(*reps, tracer),
            Kind::Storm { reps } => storm_window(self.seed, *reps, tracer),
        };
        w.wall_s = t0.elapsed().as_secs_f64();
        w.cpu_s = cpu_secs() - cpu0;
        if let (Kind::Serve { rig, .. }, true) = (&mut self.kind, w.errors.is_empty()) {
            // Checking stops the viewers (outside the timed window);
            // resume them so that the rig can run another window.
            if let Err(e) = rig.verify() {
                w.errors.push(e);
            }
            rig.resume_viewers();
        }
        if w.rep_rates.is_empty() {
            w.frames_per_s = w.frames as f64 / w.wall_s;
        } else {
            w.frames_per_s = median(&w.rep_rates);
        }
        if !w.errors.is_empty() {
            // A failed output check fails every operation it covers.
            w.failed = w.attempted.max(1);
        }
        tracer.end(span);
        w
    }

    /// Worker team the live workloads integrate on.
    pub fn team(&self) -> usize {
        self.team
    }

    /// Pre-encoded serving bodies, when this rig has them.
    pub fn serve_bodies(&self) -> Option<Arc<ServeBodies>> {
        match &self.kind {
            Kind::Serve { rig, .. } => Some(Arc::clone(&rig.source)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// live_compute / live_durable
// ---------------------------------------------------------------------

/// Warm-up missions, long enough that set-up is ≥ 1 s of the workload's
/// own code on the reference host.
const COMPUTE_WARMUP_HOURS: f64 = 26.0;
const DURABLE_WARMUP_HOURS: f64 = 30.0;

pub struct LiveSpec {
    pub decimation: usize,
    pub threads: usize,
    pub durable: bool,
}

impl LiveSpec {
    /// One `run_online` incarnation of the Aila mission cut to `hours`,
    /// on a purely virtual clock, with a disk and link large enough that
    /// nothing stalls or drops.
    pub fn run(&self, hours: f64, seed: u64, tmp: &mut TempRoot) -> OnlineReport {
        let dir = tmp.fresh_dir("live");
        let mut options = OnlineOptions {
            time_scale: 0.0,
            config_path: dir.join("application.json"),
            disk_capacity: 4_000_000_000,
            bandwidth_bps: 3_000_000.0,
            pipeline: PipelineOptions {
                physics_threads: PhysicsThreads::Fixed(self.threads),
                seed,
                ..PipelineOptions::default()
            },
        };
        if self.durable {
            options = options.with_durability(DurabilityOptions::new(dir.join("state")));
        }
        let mission = Mission::aila()
            .with_duration_hours(hours)
            .with_decimation(self.decimation);
        let report = run_online(
            &Site::inter_department(),
            &mission,
            AlgorithmKind::Optimization,
            &options,
        );
        let _ = std::fs::remove_dir_all(&dir);
        report
    }
}

/// `assert_frame_conservation` panics; turn that into a check result.
fn conservation(c: &PipelineCounters) -> Result<(), String> {
    std::panic::catch_unwind(|| assert_frame_conservation(c))
        .map_err(|_| format!("frame conservation violated: {c:?}"))
}

fn check_live(r: &OnlineReport) -> Result<(), String> {
    if !r.completed || r.kill.is_some() {
        return Err(format!("mission did not complete: {:?}", r.counters));
    }
    conservation(&r.counters)?;
    if r.frames_rendered != r.frames_written {
        return Err(format!(
            "rendered {} of {} written frames",
            r.frames_rendered, r.frames_written
        ));
    }
    if r.stalls != 0 || r.frames_dropped != 0 {
        return Err(format!(
            "{} stalls, {} dropped frames where none are expected",
            r.stalls, r.frames_dropped
        ));
    }
    if r.track.fixes().len() as u64 != r.frames_rendered {
        return Err(format!(
            "track holds {} fixes for {} rendered frames",
            r.track.fixes().len(),
            r.frames_rendered
        ));
    }
    Ok(())
}

fn live_window(
    spec: &LiveSpec,
    hours: f64,
    seed: u64,
    tmp: &mut TempRoot,
    tracer: &mut Tracer,
) -> Window {
    let span = tracer.begin("online.run_online");
    let r = spec.run(hours, seed, tmp);
    tracer.end(span);
    let mut w = Window {
        frames: r.frames_rendered,
        attempted: r.frames_emitted,
        failed: r.frames_emitted.saturating_sub(r.frames_rendered),
        counts: vec![
            ("frames_emitted".into(), r.frames_emitted),
            ("frames_written".into(), r.frames_written),
            ("frames_rendered".into(), r.frames_rendered),
            ("restarts".into(), r.restarts),
            ("decisions".into(), r.decisions),
        ],
        shape: WindowShape::Live {
            decimation: spec.decimation,
            durable: spec.durable,
            sim_minutes: r.sim_minutes,
            fixes: r.track.fixes().to_vec(),
        },
        ..Window::default()
    };
    if let Err(e) = check_live(&r) {
        w.errors.push(e);
    }
    w
}

// ---------------------------------------------------------------------
// des_campaign
// ---------------------------------------------------------------------

/// Short label used in span and metric names.
pub fn alg_tag(alg: AlgorithmKind) -> &'static str {
    match alg {
        AlgorithmKind::GreedyThreshold => "greedy",
        AlgorithmKind::Optimization => "optimization",
        AlgorithmKind::StaticBaseline => "static",
    }
}

pub fn campaign_members() -> Vec<(Site, AlgorithmKind)> {
    [
        Site::inter_department(),
        Site::intra_country(),
        Site::cross_continent(),
    ]
    .into_iter()
    .flat_map(|site| AlgorithmKind::both().map(|alg| (site.clone(), alg)))
    .collect()
}

/// One member of the paper's campaign on the DES driver; returns its
/// counters and the wall it took.
///
/// The campaign is a fixed input, run at the library's default seed: the
/// network-walk seed moves a member's frame count by a few per cent while
/// its wall (decimation-8 physics of the whole mission) stays put, so a
/// per-run seed would read as spread in `frames_per_s`.
pub fn campaign_member(
    site: Site,
    alg: AlgorithmKind,
    tracer: &mut Tracer,
) -> (PipelineCounters, bool, f64) {
    let name = format!("orchestrator.run.{}.{}", site.label, alg_tag(alg));
    let (outcome, secs) = tracer.timed(&name, || {
        Orchestrator::new(site, Mission::aila(), alg).run()
    });
    (outcome.report.counters, outcome.report.completed, secs)
}

/// The paper's campaign once: the counts of every member, flattened.
fn campaign_once(tracer: &mut Tracer) -> Result<Vec<u64>, String> {
    let mut counts = Vec::new();
    for (site, alg) in campaign_members() {
        let (c, completed, _) = campaign_member(site, alg, tracer);
        conservation(&c)?;
        if c.frames_dropped != 0 {
            return Err(format!(
                "{} frames dropped in the campaign",
                c.frames_dropped
            ));
        }
        counts.extend([
            c.frames_emitted,
            c.frames_written,
            c.frames_shipped,
            c.frames_rendered,
            c.frames_in_flight,
            c.decisions,
            u64::from(completed),
        ]);
    }
    Ok(counts)
}

/// Run `once` `reps` times, each one span: frames and rate of every
/// repetition, and the counts of the first, which every other repetition
/// must reproduce exactly.
fn repeated<C: PartialEq>(
    span_name: &str,
    reps: u64,
    tracer: &mut Tracer,
    mut once: impl FnMut(&mut Tracer) -> Result<(u64, C), String>,
) -> (Window, Option<C>) {
    let mut w = Window::default();
    let mut first: Option<C> = None;
    for rep in 0..reps {
        let span = tracer.begin(span_name);
        let t0 = Instant::now();
        let result = once(tracer);
        let secs = t0.elapsed().as_secs_f64();
        tracer.end(span);
        match result {
            Ok((frames, counts)) => {
                w.frames += frames;
                w.attempted += frames;
                w.rep_rates.push(frames as f64 / secs);
                match &first {
                    None => first = Some(counts),
                    Some(f) if *f != counts => w
                        .errors
                        .push(format!("repetition {rep} counts differ from repetition 0")),
                    Some(_) => {}
                }
            }
            Err(e) => w.errors.push(e),
        }
    }
    (w, first)
}

fn campaign_window(reps: u64, tracer: &mut Tracer) -> Window {
    let (mut w, _) = repeated("campaign.repetition", reps, tracer, |tracer| {
        let counts = campaign_once(tracer)?;
        // Every 7th entry, from the first, is a member's emitted count.
        Ok((counts.iter().step_by(7).sum(), counts))
    });
    w.counts = vec![("frames_emitted".into(), w.frames)];
    w.shape = WindowShape::Campaign { reps };
    w
}

// ---------------------------------------------------------------------
// des_storm
// ---------------------------------------------------------------------

pub const STORM_CLIENTS: u64 = 100_000;
pub const STORM_OUTAGE_SECS: f64 = 7200.0;

pub fn storm_config(seed: u64) -> BrokerConfig {
    let mut cfg = BrokerConfig::new(
        seed,
        loadgen::outage_reconnect(STORM_CLIENTS, STORM_OUTAGE_SECS),
    );
    cfg.horizon_secs = 3.0 * 3600.0;
    cfg
}

/// Check a modeled-broker outcome; returns `[delivered, shed, deferred]`.
pub fn check_broker(out: &broker::BrokerOutcome) -> Result<[u64; 3], String> {
    let c = &out.counters;
    if !out.drained {
        return Err("broker run did not drain".into());
    }
    if c.frames_delivered + c.frames_shed != c.cursor_advance {
        return Err(format!(
            "delivered {} + shed {} != cursor advance {}",
            c.frames_delivered, c.frames_shed, c.cursor_advance
        ));
    }
    Ok([c.frames_delivered, c.frames_shed, c.deferred_admissions])
}

fn storm_once(seed: u64) -> Result<[u64; 3], String> {
    check_broker(&broker::run_broker(storm_config(seed)))
}

fn storm_window(seed: u64, reps: u64, tracer: &mut Tracer) -> Window {
    // Shed frames are the overload policy at work, not failures: a storm
    // attempts, and must complete, its delivered frames.
    let (mut w, first) = repeated("broker.run_broker", reps, tracer, |_| {
        storm_once(seed).map(|counts| (counts[0], counts))
    });
    if let Some([delivered, shed, deferred]) = first {
        w.counts = vec![
            ("frames_delivered_per_storm".into(), delivered),
            ("frames_shed_per_storm".into(), shed),
            ("deferred_admissions_per_storm".into(), deferred),
        ];
    }
    w.shape = WindowShape::Storm { reps };
    w
}

// ---------------------------------------------------------------------
// serve_fanout
// ---------------------------------------------------------------------

const VIEWERS: u64 = 2;
/// Closed loop: at most this many frames per viewer published but not
/// yet applied.
const WINDOW_FRAMES: u64 = 8;
const BODY_COUNT: usize = 16;
const RETENTION_FRAMES: u64 = 256;
const WARMUP_FRAMES: u64 = 600;
pub const LIVE_PER_SEGMENT: u64 = 800;
pub const AWAY_PER_SEGMENT: u64 = 200;

/// Pre-encoded full-resolution bodies of the decimation-2 model and the
/// eye fix a viewer must extract from each.
pub struct ServeBodies {
    pub model: WrfModel,
    pub bodies: Vec<Vec<u8>>,
    pub fixes: Vec<EyeFix>,
}

impl ServeBodies {
    pub fn generate() -> Self {
        let mut model = WrfModel::new(ModelConfig::aila_default().with_decimation(2))
            .expect("the Aila configuration is valid");
        let mut track = TrackLog::new();
        let mut bodies = Vec::with_capacity(BODY_COUNT);
        for _ in 0..BODY_COUNT {
            model.advance_steps(20, 1).expect("the model stays finite");
            let body = qos::encode_body(&model, QosRung::FullRes);
            assert!(
                qos::apply_body(&mut track, QosRung::FullRes, &body),
                "a full-resolution body carries an eye fix"
            );
            bodies.push(body);
        }
        ServeBodies {
            model,
            bodies,
            fixes: track.fixes().to_vec(),
        }
    }
}

/// Which body publish number `i` carries: a pure function of the seed.
fn body_choice(seed: u64, i: u64) -> usize {
    // SplitMix64 finaliser.
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % BODY_COUNT as u64) as usize
}

/// What one segment (live tail, then a resume cycle) measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegmentStats {
    pub wall_s: f64,
    pub deliveries: u64,
    pub live_wall_s: f64,
    pub live_deliveries: u64,
    pub reconnect_s: f64,
    pub catchup_wall_s: f64,
    pub replayed: u64,
    pub publish_s: f64,
    pub publishes: u64,
}

/// A `FrameServer` on loopback with two `RemoteViewer`s, and the
/// single-threaded closed-loop producer that feeds it.
pub struct ServeRig {
    server: FrameServer,
    source: Arc<ServeBodies>,
    seed: u64,
    /// Viewers at rest, in client-id order, and the threads of those
    /// that are running; one of the two is always empty.
    viewers: Vec<RemoteViewer>,
    running: Vec<JoinHandle<RemoteViewer>>,
    stop: Arc<AtomicBool>,
    published: u64,
    publish_s: f64,
    live_per_segment: u64,
    away_per_segment: u64,
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) -> Result<(), String> {
    let t0 = Instant::now();
    while !done() {
        if t0.elapsed() > SERVE_DEADLINE {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(PRODUCER_NAP);
    }
    Ok(())
}

impl ServeRig {
    pub fn start(
        seed: u64,
        source: Arc<ServeBodies>,
        live_per_segment: u64,
        away_per_segment: u64,
    ) -> Result<Self, String> {
        let server = FrameServer::start(ServerConfig {
            mode: ServingMode::Remote,
            frame_bytes: source.bodies[0].len() as u64,
            retention_frames: RETENTION_FRAMES,
            max_backlog_frames: RETENTION_FRAMES,
            // The server cannot tell a viewer that was stopped on purpose
            // from a stalled one, so every resume cycle books a breaker
            // failure per client; the default breaker (3 in 600 s) would
            // quarantine both viewers in the third segment.
            breaker: BreakerConfig {
                trip_after: u32::MAX,
                ..BreakerConfig::default()
            },
            ..ServerConfig::default()
        })
        .map_err(|e| format!("bind 127.0.0.1:0: {e}"))?;
        let addr = server.addr().expect("remote mode binds a listener");
        let viewers = (0..VIEWERS)
            .map(|id| {
                RemoteViewer::new(addr, ViewerConfig::loopback(id + 1, seed.wrapping_add(id)))
            })
            .collect();
        let mut rig = ServeRig {
            server,
            source,
            seed,
            viewers,
            running: Vec::new(),
            stop: Arc::new(AtomicBool::new(false)),
            published: 0,
            publish_s: 0.0,
            live_per_segment,
            away_per_segment,
        };
        // A viewer that says hello with cursor 0 joins at the live head,
        // so both must be connected before the first publish.
        rig.resume_viewers();
        rig.wait_connected(VIEWERS)?;
        Ok(rig)
    }

    fn delivered(&self) -> u64 {
        self.server.counters().frames_delivered
    }

    fn wait_connected(&self, n: u64) -> Result<(), String> {
        wait_until("viewer connections", || self.server.connected() == n)
    }

    pub fn wait_all_delivered(&self) -> Result<(), String> {
        let want = VIEWERS * self.published;
        wait_until("every published frame to be applied", || {
            self.delivered() >= want
        })
    }

    fn publish_one(&mut self, tracer: &mut Tracer) {
        let body = self.source.bodies[body_choice(self.seed, self.published)].clone();
        let server = &self.server;
        let (_, secs) = tracer.timed("server.publish", || server.publish(QosRung::FullRes, body));
        self.publish_s += secs;
        self.published += 1;
    }

    /// Publish `n` frames closed-loop behind the live tail.
    pub fn publish_live(&mut self, n: u64, tracer: &mut Tracer) -> Result<(), String> {
        for _ in 0..n {
            let floor = (VIEWERS * (self.published + 1)).saturating_sub(VIEWERS * WINDOW_FRAMES);
            wait_until("the viewers to keep up", || self.delivered() >= floor)?;
            self.publish_one(tracer);
        }
        Ok(())
    }

    fn resume_viewers(&mut self) {
        self.stop.store(false, Ordering::SeqCst);
        for mut viewer in self.viewers.drain(..) {
            let stop = Arc::clone(&self.stop);
            self.running.push(std::thread::spawn(move || {
                viewer.run(&stop);
                viewer
            }));
        }
    }

    /// Raise the stop flag and join both viewer threads. A viewer in the
    /// middle of the stream sees the flag after its next frame; an idle
    /// one after its read times out.
    fn stop_viewers(&mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        for handle in self.running.drain(..) {
            self.viewers.push(
                handle
                    .join()
                    .map_err(|_| "a viewer thread panicked".to_string())?,
            );
        }
        Ok(())
    }

    /// One segment: a live tail, then a resume cycle — both viewers
    /// stopped, frames published while they are away, viewers resumed
    /// from their AHL2 cursors and replayed to the head. The gap stays
    /// inside retention, so nothing expires or sheds.
    pub fn segment(&mut self, tracer: &mut Tracer) -> Result<SegmentStats, String> {
        let t0 = Instant::now();
        let (publish_s0, published0) = (self.publish_s, self.published);
        let applied0: u64 = VIEWERS * self.published;

        let live = tracer.begin("serve.live_tail");
        self.publish_live(self.live_per_segment - 1, tracer)?;
        // Flag first, then one more frame: it wakes a viewer that has
        // caught up and sits in a read, so neither waits out a timeout.
        self.stop.store(true, Ordering::SeqCst);
        self.publish_one(tracer);
        self.stop_viewers()?;
        tracer.end(live);
        let live_wall_s = t0.elapsed().as_secs_f64();
        let applied_live: u64 = self.viewers.iter().map(|v| v.last_applied()).sum();

        let away = tracer.begin("serve.away");
        for _ in 0..self.away_per_segment {
            self.publish_one(tracer);
        }
        // The old connections die on their next write; wait them out so
        // `connected()` counts only the resumed sessions below.
        self.wait_connected(0)?;
        tracer.end(away);

        let replayed: u64 = self
            .viewers
            .iter()
            .map(|v| self.published - v.last_applied())
            .sum();
        let resume = tracer.begin("serve.resume");
        let t_resume = Instant::now();
        self.resume_viewers();
        let reconnect = tracer.begin("serve.reconnect");
        self.wait_connected(VIEWERS)?;
        tracer.end(reconnect);
        let reconnect_s = t_resume.elapsed().as_secs_f64();
        self.wait_all_delivered()?;
        let catchup_wall_s = t_resume.elapsed().as_secs_f64();
        tracer.end(resume);

        Ok(SegmentStats {
            wall_s: t0.elapsed().as_secs_f64(),
            deliveries: VIEWERS * (self.published - published0),
            live_wall_s,
            live_deliveries: applied_live - applied0,
            reconnect_s,
            catchup_wall_s,
            replayed,
            publish_s: self.publish_s - publish_s0,
            publishes: self.published - published0,
        })
    }

    /// Stop the viewers and check what they hold: every sequence
    /// `1..=published` applied exactly once, in order, and a track equal
    /// to the published order; nothing shed anywhere. Returns how many
    /// times the viewers resumed.
    pub fn verify(&mut self) -> Result<u64, String> {
        self.wait_all_delivered()?;
        self.stop_viewers()?;
        let expect_seqs: Vec<u64> = (1..=self.published).collect();
        for (i, viewer) in self.viewers.iter().enumerate() {
            if viewer.applied_seqs() != expect_seqs.as_slice() {
                return Err(format!(
                    "viewer {i} applied {} sequences, want exactly 1..={}",
                    viewer.applied_seqs().len(),
                    self.published
                ));
            }
            let fixes = viewer.track().fixes();
            let in_order = fixes.len() as u64 == self.published
                && fixes
                    .iter()
                    .enumerate()
                    .all(|(n, fix)| *fix == self.source.fixes[body_choice(self.seed, n as u64)]);
            if !in_order {
                return Err(format!("viewer {i} track differs from the published order"));
            }
            let s = viewer.stats();
            if s.shed != 0 || s.decode_failures != 0 {
                return Err(format!("viewer {i} saw shed or undecodable frames: {s:?}"));
            }
        }
        let c = self.server.counters();
        if c.frames_shed != 0
            || c.frames_delivered != VIEWERS * self.published
            || c.frames_delivered + c.frames_shed != c.cursor_advance
            || c.resume_failures != 0
            || c.quarantined_clients != 0
        {
            return Err(format!("server counters off: {c:?}"));
        }
        Ok(self.viewers.iter().map(|v| v.stats().reconnects).sum())
    }

    pub fn counters(&self) -> climate_adaptive::adaptive::server::ServerCounters {
        self.server.counters()
    }
}

impl Drop for ServeRig {
    /// Viewer threads borrow nothing, so a rig dropped without stopping
    /// them would leave them running against a dead server.
    fn drop(&mut self) {
        let _ = self.stop_viewers();
    }
}

fn serve_window(rig: &mut ServeRig, segments: u64, tracer: &mut Tracer) -> Window {
    let mut w = Window::default();
    let mut publishes = 0;
    for _ in 0..segments {
        let span = tracer.begin("serve.segment");
        let result = rig.segment(tracer);
        tracer.end(span);
        match result {
            Ok(s) => {
                w.frames += s.deliveries;
                publishes += s.publishes;
                w.rep_rates.push(s.deliveries as f64 / s.wall_s);
            }
            Err(e) => {
                w.errors.push(e);
                break;
            }
        }
    }
    w.attempted = VIEWERS * segments * (rig.live_per_segment + rig.away_per_segment);
    w.failed = w.attempted - w.frames;
    w.counts = vec![("deliveries".into(), w.frames)];
    w.shape = WindowShape::Serve {
        publishes,
        deliveries: w.frames,
    };
    w
}
