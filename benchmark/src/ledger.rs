//! The outside-in layer ledger: one number per layer of a frame's life,
//! each a timed call into a crate's public function on inputs taken from
//! the workloads. Every traced run measures the whole ledger, at fixed
//! sizes, so the same names are comparable across workloads and commits.
//!
//! Which end-to-end metric each layer metric should move is written down
//! in `README.md` before anything is optimised; a layer not listed there
//! is predicted unchanged.

use crate::host::{Host, TempRoot};
use crate::trace::Tracer;
use crate::workloads::{
    alg_tag, campaign_member, campaign_members, check_broker, median, storm_config, LiveSpec,
    ServeBodies, ServeRig, Window, WindowShape, STORM_CLIENTS,
};
use climate_adaptive::adaptive::broker::{self, loadgen, BrokerConfig};
use climate_adaptive::adaptive::config::ApplicationConfig;
use climate_adaptive::adaptive::decision::{AlgorithmKind, DecisionInputs};
use climate_adaptive::adaptive::qos::{self, QosRung};
use climate_adaptive::adaptive::resilience::crc32;
use climate_adaptive::cyclone::{Mission, Site};
use climate_adaptive::des::Scheduler;
use climate_adaptive::lp::{Problem, Relation};
use climate_adaptive::ncdf::{codec, Dataset};
use climate_adaptive::perfmodel::{ProcTable, Sample, ScalingFit};
use climate_adaptive::resources::journal::{self, Journal, JournalOp};
use climate_adaptive::resources::{Disk, FrameStore};
use climate_adaptive::viz::TrackLog;
use climate_adaptive::wrf::{ModelConfig, WrfModel};
use std::hint::black_box;
use std::sync::Arc;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

#[derive(Default)]
pub struct Ledger {
    pub metrics: Vec<Metric>,
}

impl Ledger {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is measured before it is used"))
            .value
    }
}

/// Median seconds of `reps` timed calls of `f`, each one span.
fn median_secs<T>(tracer: &mut Tracer, name: &str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, secs) = tracer.timed(name, &mut f);
            black_box(out);
            secs
        })
        .collect();
    median(&times)
}

const STEP_REPS: usize = 5;
const STEPS_PER_REP: usize = 3;

/// Milliseconds per parent step of `model` on a team of `team` ranks.
fn step_ms(tracer: &mut Tracer, name: &str, model: &mut WrfModel, team: usize) -> f64 {
    // Two unrecorded steps size the team and the scratch buffers.
    model
        .advance_steps(2, team)
        .expect("the model stays finite");
    let secs = median_secs(tracer, name, STEP_REPS, || {
        model
            .advance_steps(STEPS_PER_REP, team)
            .expect("the model stays finite")
    });
    secs * 1e3 / STEPS_PER_REP as f64
}

/// Measure every layer. `bodies` are the serving bodies of the workload
/// when it has them; they are generated otherwise.
pub fn measure(
    seed: u64,
    host: &Host,
    tmp: &mut TempRoot,
    tracer: &mut Tracer,
    bodies: Option<Arc<ServeBodies>>,
) -> Result<Ledger, String> {
    let span = tracer.begin("ledger");
    let mut l = Ledger::default();
    let bodies = bodies.unwrap_or_else(|| Arc::new(ServeBodies::generate()));
    wrf_layers(&mut l, host, tmp, tracer, &bodies.model);
    ncdf_and_qos_layers(&mut l, tracer, &bodies);
    resources_layers(&mut l, tmp, tracer)?;
    decision_layers(&mut l, tracer);
    campaign_layers(&mut l, tracer);
    server_layers(&mut l, seed, tracer, bodies)?;
    broker_layers(&mut l, seed, tracer)?;
    online_layers(&mut l, seed, tmp, tracer);
    tracer.end(span);
    Ok(l)
}

fn wrf_layers(
    l: &mut Ledger,
    host: &Host,
    tmp: &mut TempRoot,
    tracer: &mut Tracer,
    frame_model: &WrfModel,
) {
    let team = host.team_of_two;
    // Full-resolution physics as `live_compute` ends its mission: 10 km,
    // decimation 1, with and without the moving nest.
    let mut parent = WrfModel::new(ModelConfig::aila_default().with_resolution(10.0))
        .expect("the Aila configuration is valid");
    let mut nested = parent.clone();
    nested.spawn_nest();
    l.put(
        "wrf.step_parent_ms",
        step_ms(tracer, "wrf.advance_steps.parent", &mut parent, team),
        "ms",
    );
    let nest_team = step_ms(tracer, "wrf.advance_steps.nest", &mut nested, team);
    let nest_one = step_ms(tracer, "wrf.advance_steps.nest.team1", &mut nested, 1);
    l.put("wrf.step_nest_ms", nest_team, "ms");
    l.put("wrf.step_nest_team1_ms", nest_one, "ms");
    l.put("wrf.pool_speedup", nest_one / nest_team, "ratio");
    l.put(
        "wrf.pool_scaling_valid",
        f64::from(u8::from(host.scaling_valid())),
        "count",
    );
    drop((parent, nested));

    // The decimation-8 grid every DES mission integrates.
    let mut small = WrfModel::new(Mission::aila().model).expect("the Aila configuration is valid");
    small.advance_steps(50, 1).expect("the model stays finite");
    let secs = median_secs(tracer, "wrf.advance_steps.small", STEP_REPS, || {
        small.advance_steps(400, 1).expect("the model stays finite")
    });
    l.put("wrf.step_small_us", secs * 1e6 / 400.0, "us");

    // Frame extraction and checkpointing of the decimation-2 model.
    let secs = median_secs(tracer, "wrf.frame", 9, || frame_model.frame());
    l.put("wrf.frame_ms", secs * 1e3, "ms");
    let dir = tmp.fresh_dir("checkpoint");
    let path = dir.join("model.ckpt");
    let secs = median_secs(tracer, "wrf.checkpoint_to_file", 7, || {
        frame_model
            .checkpoint_to_file(&path)
            .expect("the temp root is writable")
    });
    l.put("wrf.checkpoint_write_ms", secs * 1e3, "ms");
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    l.put("wrf.checkpoint_bytes", bytes as f64, "bytes");
    let secs = median_secs(tracer, "wrf.restore_from_file", 7, || {
        WrfModel::restore_from_file(&path).expect("a fresh checkpoint restores")
    });
    l.put("wrf.restore_ms", secs * 1e3, "ms");
    let _ = std::fs::remove_dir_all(dir);
}

fn ncdf_and_qos_layers(l: &mut Ledger, tracer: &mut Tracer, bodies: &ServeBodies) {
    let model = &bodies.model;
    let frame: Dataset = model.frame();
    let exact = frame.to_bytes();
    let secs = median_secs(tracer, "ncdf.to_bytes", 9, || frame.to_bytes());
    l.put("ncdf.encode_exact_ms", secs * 1e3, "ms");
    let secs = median_secs(tracer, "ncdf.from_bytes", 9, || {
        Dataset::from_bytes(&exact).expect("an exact frame decodes")
    });
    l.put("ncdf.decode_exact_ms", secs * 1e3, "ms");
    l.put("ncdf.exact_bytes", exact.len() as f64, "bytes");
    let aqz1 = codec::encode_quantized(&frame);
    let secs = median_secs(tracer, "ncdf.encode_quantized", 9, || {
        codec::encode_quantized(&frame)
    });
    l.put("ncdf.encode_aqz1_ms", secs * 1e3, "ms");
    let secs = median_secs(tracer, "ncdf.decode_quantized", 9, || {
        codec::decode_quantized(&aqz1).expect("an AQZ1 frame decodes")
    });
    l.put("ncdf.decode_aqz1_ms", secs * 1e3, "ms");
    l.put("ncdf.aqz1_bytes", aqz1.len() as f64, "bytes");

    for (rung, tag) in [
        (QosRung::FullRes, "fullres"),
        (QosRung::DeltaQuantized, "deltaq"),
        (QosRung::Thumbnail, "thumbnail"),
        (QosRung::TrackOnly, "trackonly"),
    ] {
        let name = format!("qos.encode_body_ms.{tag}");
        let secs = median_secs(tracer, &name, 7, || qos::encode_body(model, rung));
        l.put(&name, secs * 1e3, "ms");
        if matches!(rung, QosRung::FullRes | QosRung::DeltaQuantized) {
            let body = qos::encode_body(model, rung);
            let name = format!("qos.apply_body_ms.{tag}");
            let secs = median_secs(tracer, &name, 7, || {
                let mut track = TrackLog::new();
                assert!(qos::apply_body(&mut track, rung, &body));
                track
            });
            l.put(&name, secs * 1e3, "ms");
        }
    }
    let secs = median_secs(tracer, "viz.ingest", 9, || {
        TrackLog::new()
            .ingest(&frame)
            .expect("a frame carries an eye")
    });
    l.put("viz.ingest_us", secs * 1e6, "us");
    // Both ends of the socket tier checksum every body.
    let body = &bodies.bodies[0];
    let secs = median_secs(tracer, "resilience.crc32", 9, || crc32(body));
    l.put("server.crc_body_us", secs * 1e6, "us");
}

fn resources_layers(l: &mut Ledger, tmp: &mut TempRoot, tracer: &mut Tracer) -> Result<(), String> {
    let io = |e: std::io::Error| format!("journal I/O in the temp root: {e}");
    let big_disk = || Disk::new(1 << 40);
    let frame_bytes = 332_150;

    let dir = tmp.fresh_dir("journal");
    let mut journal = Journal::open(&dir).map_err(io)?;
    let mut id = 0;
    let secs = median_secs(tracer, "resources.journal.append", 40, || {
        id += 1;
        journal.append(&JournalOp::Store {
            id,
            sim_minutes: id as f64,
            bytes: frame_bytes,
        })
    });
    l.put("resources.journal_append_ms", secs * 1e3, "ms");
    drop(journal);

    let cycle = |store: &mut FrameStore, n: u64| {
        let stored = store
            .store(n as f64, frame_bytes)
            .expect("the disk is huge");
        let begun = store.begin_transfer().expect("a frame is pending");
        assert_eq!(begun.id, stored.id);
        store
            .complete_transfer(begun.id)
            .expect("the frame is in flight");
    };
    let durable_dir = tmp.fresh_dir("store");
    let mut durable = FrameStore::open(big_disk(), &durable_dir).map_err(io)?;
    let mut n = 0;
    let secs = median_secs(tracer, "resources.store_cycle.durable", 30, || {
        n += 1;
        cycle(&mut durable, n)
    });
    l.put("resources.store_cycle_durable_ms", secs * 1e3, "ms");
    drop(durable);

    let mut volatile = FrameStore::new(big_disk());
    let secs = median_secs(tracer, "resources.store_cycle.volatile", 5, || {
        for _ in 0..2000 {
            n += 1;
            cycle(&mut volatile, n);
        }
    });
    l.put("resources.store_cycle_us", secs * 1e6 / 2000.0, "us");

    // The read side of the same layer, on the journal just written.
    let ops = journal::replay(&durable_dir).map_err(io)?.0.len().max(1);
    let secs = median_secs(tracer, "resources.journal.replay", 9, || {
        journal::replay(&durable_dir).expect("the journal just replayed")
    });
    l.put(
        "resources.journal_replay_ms",
        secs * 1e3 * 1000.0 / ops as f64,
        "ms",
    );
    let secs = median_secs(tracer, "resources.store.recover", 9, || {
        FrameStore::recover(big_disk(), &durable_dir).expect("the journal just replayed")
    });
    l.put("resources.store_recover_ms", secs * 1e3, "ms");
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(durable_dir);
    Ok(())
}

/// The Eq. 5–8 program at the observations of `inp`: minimise the step
/// time `t` subject to the link-balance and disk-horizon constraints.
fn steady_state_lp(inp: &DecisionInputs<'_>) -> Problem {
    let o_over_b = inp.frame_bytes as f64 / inp.bandwidth_bps;
    let budget = inp.free_disk_bytes as f64 / inp.horizon_secs;
    let k_disk = inp.frame_bytes as f64 / (budget + inp.bandwidth_bps) - inp.io_secs_per_frame;
    let ts_min = inp.dt_sim_secs / 60.0;
    let (z_lb, z_ub) = (ts_min / inp.max_oi_min, (ts_min / inp.min_oi_min).min(1.0));
    let mut p = Problem::minimize(&[1.0, 0.0, 0.0]);
    p.set_bounds(0, inp.proc_table.min_time(), inp.proc_table.max_time());
    p.set_bounds(1, z_lb, z_ub);
    p.set_bounds(2, 0.0, z_ub);
    p.add_constraint(&[1.0, inp.io_secs_per_frame, -o_over_b], Relation::Le, 0.0);
    p.add_constraint(&[1.0, -k_disk, 0.0], Relation::Ge, 0.0);
    p.add_constraint(&[0.0, -1.0, 1.0], Relation::Le, 0.0);
    p
}

fn decision_layers(l: &mut Ledger, tracer: &mut Tracer) {
    // A mid-mission decision epoch on the inter-department site: 15 km
    // with the nest up, the disk 40 % used.
    let site = Site::inter_department();
    let mission = Mission::aila();
    let (res_km, nest) = (15.0, true);
    let table = site.proc_table(&mission, res_km, nest);
    let current = ApplicationConfig::initial(site.cluster.max_cores, 3.0, res_km);
    let disk = site.make_disk();
    let frame_bytes = mission.frame_bytes(res_km, nest);
    let inputs = DecisionInputs {
        free_disk_percent: 60.0,
        free_disk_bytes: disk.capacity() / 10 * 6,
        disk_capacity_bytes: disk.capacity(),
        bandwidth_bps: site.bandwidth_mbps * 1e6 / 8.0,
        frame_bytes,
        io_secs_per_frame: site.cluster.io_time(frame_bytes),
        proc_table: &table,
        current: &current,
        dt_sim_secs: mission.dt_secs(res_km),
        min_oi_min: mission.min_output_interval_min,
        max_oi_min: mission.max_output_interval_min,
        horizon_secs: 20.0 * 3600.0,
    };
    const CALLS: usize = 500;
    for (kind, name) in [
        (AlgorithmKind::Optimization, "decision.optimize_us"),
        (AlgorithmKind::GreedyThreshold, "decision.greedy_us"),
    ] {
        let mut alg = kind.build();
        let secs = median_secs(tracer, name, 5, || {
            for _ in 0..CALLS {
                black_box(alg.decide(black_box(&inputs)));
            }
        });
        l.put(name, secs * 1e6 / CALLS as f64, "us");
    }
    let lp = steady_state_lp(&inputs);
    let secs = median_secs(tracer, "lp.solve_us", 5, || {
        for _ in 0..CALLS {
            black_box(black_box(&lp).solve().expect("the program is well formed"));
        }
    });
    l.put("lp.solve_us", secs * 1e6 / CALLS as f64, "us");

    // Profiling samples as the site's own law would have produced them.
    let law = &site.cluster.scaling;
    let samples: Vec<Sample> = [10.0, 15.0, 24.0]
        .iter()
        .flat_map(|&res| {
            let work = mission.work_points(res, true);
            [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0].map(|procs| Sample {
                procs,
                work,
                time: law.predict(procs, work),
            })
        })
        .collect();
    let secs = median_secs(tracer, "perfmodel.fit_us", 5, || {
        for _ in 0..CALLS {
            black_box(ScalingFit::fit(black_box(&samples)).expect("the samples identify the law"));
        }
    });
    l.put("perfmodel.fit_us", secs * 1e6 / CALLS as f64, "us");
    let fit = ScalingFit::fit(&samples).expect("the samples identify the law");
    let allowed = site.allowed_procs(&mission, res_km, nest);
    let work = mission.work_points(res_km, nest);
    let secs = median_secs(tracer, "perfmodel.table_us", 5, || {
        for _ in 0..CALLS {
            black_box(ProcTable::from_fit(&fit, work, black_box(&allowed)));
        }
    });
    l.put("perfmodel.table_us", secs * 1e6 / CALLS as f64, "us");

    // Hold-model churn on the event queue: 10^4 pending, pop one, push one.
    const PENDING: u64 = 10_000;
    const EVENTS: u64 = 200_000;
    let mut sched: Scheduler<u64> = Scheduler::new();
    for i in 0..PENDING {
        sched.schedule_in(1.0 + (i % 97) as f64, i);
    }
    let secs = median_secs(tracer, "des.schedule_pop", 5, || {
        for _ in 0..EVENTS {
            let (_, event) = sched.pop().expect("the queue never empties");
            sched.schedule_in(1.0 + (event % 89) as f64, event);
        }
    });
    l.put("des.events_per_s", EVENTS as f64 / secs, "1/s");
}

fn campaign_layers(l: &mut Ledger, tracer: &mut Tracer) {
    for (site, alg) in campaign_members() {
        let name = format!("orchestrator.run_ms.{}.{}", site.label, alg_tag(alg));
        let (_, _, secs) = campaign_member(site, alg, tracer);
        l.put(&name, secs * 1e3, "ms");
    }
}

const LEDGER_LIVE_FRAMES: u64 = 400;
const LEDGER_AWAY_FRAMES: u64 = 100;

fn server_layers(
    l: &mut Ledger,
    seed: u64,
    tracer: &mut Tracer,
    bodies: Arc<ServeBodies>,
) -> Result<(), String> {
    let span = tracer.begin("server.segment");
    let mut rig = ServeRig::start(seed, bodies, LEDGER_LIVE_FRAMES, LEDGER_AWAY_FRAMES)?;
    rig.publish_live(100, tracer)?;
    rig.wait_all_delivered()?;
    let s = rig.segment(tracer)?;
    let resumes = rig.verify()?;
    tracer.end(span);
    let per_viewer = |deliveries: u64| (deliveries as f64 / 2.0).max(1.0);
    l.put(
        "server.publish_us",
        s.publish_s * 1e6 / s.publishes as f64,
        "us",
    );
    l.put(
        "server.live_deliver_ms",
        s.live_wall_s * 1e3 / per_viewer(s.live_deliveries),
        "ms",
    );
    l.put(
        "server.catchup_deliver_ms",
        s.catchup_wall_s * 1e3 / per_viewer(s.replayed),
        "ms",
    );
    l.put("server.reconnect_ms", s.reconnect_s * 1e3, "ms");
    let c = rig.counters();
    l.put(
        "server.frames_delivered",
        c.frames_delivered as f64,
        "count",
    );
    l.put("server.frames_shed", c.frames_shed as f64, "count");
    l.put("server.resumes", resumes as f64, "count");
    Ok(())
}

fn broker_layers(l: &mut Ledger, seed: u64, tracer: &mut Tracer) -> Result<(), String> {
    let (out, secs) = tracer.timed("broker.run_broker.storm", || {
        broker::run_broker(storm_config(seed))
    });
    let [delivered, shed, deferred] = check_broker(&out)?;
    l.put("broker.storm_s", secs, "s");
    l.put("broker.frames_delivered", delivered as f64, "count");
    l.put("broker.frames_shed", shed as f64, "count");
    l.put("broker.deferred_admissions", deferred as f64, "count");
    // The same layer with no outage: no shed, no catch-up.
    let (out, secs) = tracer.timed("broker.run_broker.steady", || {
        broker::run_broker(BrokerConfig::new(seed, loadgen::steady_ramp(STORM_CLIENTS)))
    });
    check_broker(&out)?;
    l.put("broker.steady_s", secs, "s");
    Ok(())
}

/// Simulated hours of the durable/volatile twin slice.
const TWIN_HOURS: f64 = 30.0;

fn online_layers(l: &mut Ledger, seed: u64, tmp: &mut TempRoot, tracer: &mut Tracer) {
    let twin = |durable: bool| LiveSpec {
        decimation: 2,
        threads: 1,
        durable,
    };
    let (d, durable_s) = tracer.timed("online.run_online.durable_slice", || {
        twin(true).run(TWIN_HOURS, seed, tmp)
    });
    let (v, volatile_s) = tracer.timed("online.run_online.volatile_twin", || {
        twin(false).run(TWIN_HOURS, seed, tmp)
    });
    assert_eq!(d.frames_rendered, v.frames_rendered, "twins render alike");
    l.put("online.volatile_twin_s", volatile_s, "s");
    l.put(
        "online.durability_tax_ms_per_frame",
        (durable_s - volatile_s) * 1e3 / d.frames_rendered.max(1) as f64,
        "ms",
    );
}

// ---------------------------------------------------------------------
// Coverage: counts of the window × unit costs of the ledger ÷ its wall
// ---------------------------------------------------------------------

/// Share of the window's wall that the ledger's unit costs account for.
/// Reported, not gated: the counts come from outside the program (the
/// track, the mission's schedule), so this is a model of the window, and
/// it becomes a gate only when spans move inside the program.
pub fn coverage(l: &Ledger, w: &Window, team: usize) -> f64 {
    let modeled_s = match &w.shape {
        WindowShape::None => 0.0,
        WindowShape::Live {
            decimation,
            durable,
            sim_minutes,
            fixes,
        } => {
            let mission = Mission::aila();
            let dec = *decimation as f64;
            let points = |res: f64, nest: bool| {
                let (nx, ny) = mission.parent_grid(res);
                let (nnx, nny) = if nest { mission.nest_grid(res) } else { (0, 0) };
                (nx * ny + nnx * nny) as f64
            };
            // Seconds per work point of one parent step, from the 10 km
            // nested step on the team this workload integrates on.
            let step_ms = if team >= 2 {
                l.get("wrf.step_nest_ms")
            } else {
                l.get("wrf.step_nest_team1_ms")
            };
            let per_work = step_ms * 1e-3 / mission.work_points(10.0, true);
            // Seconds per frame point for extract + encode + decode + eye.
            let per_frame_point = (l.get("wrf.frame_ms")
                + l.get("ncdf.encode_exact_ms")
                + l.get("ncdf.decode_exact_ms"))
                * 1e-3
                / points(48.0, false)
                + l.get("viz.ingest_us") * 1e-6 / points(48.0, false);
            let (mut res, mut nest) = (mission.schedule.default_resolution_km, false);
            let (mut physics, mut frame_points, mut prev_min) = (0.0, 0.0, 0.0);
            for fix in fixes {
                let steps = (fix.sim_minutes - prev_min) * 60.0 / mission.dt_secs(res);
                physics += steps * mission.work_points(res * dec, nest) * per_work;
                frame_points += points(res * dec, nest);
                prev_min = fix.sim_minutes;
                (res, nest) = mission
                    .schedule
                    .apply_with_hysteresis(fix.pressure_hpa, res, nest);
            }
            // Volatile: one in-memory store cycle per frame.
            let mut durability = fixes.len() as f64 * l.get("resources.store_cycle_us") * 1e-6;
            if *durable {
                // Three journal records per frame, one checkpoint per
                // simulated hour, and two durable file writes per frame
                // (payload, receiver snapshot) costed as a checkpoint
                // write of the frame's size.
                let write_s_per_byte =
                    l.get("wrf.checkpoint_write_ms") * 1e-3 / l.get("wrf.checkpoint_bytes");
                durability = fixes.len() as f64 * l.get("resources.store_cycle_durable_ms") * 1e-3
                    + sim_minutes / 60.0 * l.get("wrf.checkpoint_write_ms") * 1e-3
                    + 2.0 * frame_points * l.get("ncdf.exact_bytes") / points(48.0, false)
                        * write_s_per_byte;
            }
            physics + frame_points * per_frame_point + durability
        }
        WindowShape::Serve {
            publishes,
            deliveries,
        } => {
            // One connection's lock-step chain: checksum on both ends,
            // decode + eye detection on the viewer; plus the producer.
            let per_delivery = l.get("qos.apply_body_ms.fullres") * 1e-3
                + 2.0 * l.get("server.crc_body_us") * 1e-6;
            *deliveries as f64 / 2.0 * per_delivery
                + *publishes as f64 * l.get("server.publish_us") * 1e-6
        }
        WindowShape::Campaign { reps } => {
            let once: f64 = l
                .metrics
                .iter()
                .filter(|m| m.name.starts_with("orchestrator.run_ms."))
                .map(|m| m.value * 1e-3)
                .sum();
            *reps as f64 * once
        }
        WindowShape::Storm { reps } => *reps as f64 * l.get("broker.storm_s"),
    };
    modeled_s / w.wall_s
}
