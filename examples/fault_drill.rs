//! Fault drill: inject every fault class and watch the framework heal.
//!
//! Part one replays the Aila mission in the DES orchestrator under a
//! scripted `FaultPlan` — a WAN collapse, a flapping link, external disk
//! pressure, a receiver outage, and a simulation crash — and prints the
//! recovery counters next to a fault-free control run. Part two runs the
//! serving tier on real sockets: a `FrameServer` is dropped without a
//! drain while a frame is in flight, a replacement resumes the ring on a
//! *different* port and republishes the durable frames, and the
//! re-pointed `RemoteViewer` resumes from its own watermark until the
//! remote track is byte-identical to an unfaulted serve.
//!
//! Part three is the recovery drill: the *live* online pipeline runs
//! with durable state, is hard-killed at a scripted wall hour, and is
//! restarted from disk by the recovery supervisor — the journal is
//! replayed, pending frames are requeued, and the mission finishes with
//! the recovery counters printed.
//!
//! ```text
//! cargo run --release --example fault_drill
//! cargo run --release --example fault_drill -- --kill-at 0.02
//! cargo run --release --example fault_drill -- --physics-threads follow
//! cargo run --release --example fault_drill -- --soak 2000 --seed 7
//! ```
//!
//! With `--kill-at <hours>` only the recovery drill runs, killing the
//! pipeline at that modeled wall hour. `--physics-threads <n|follow>`
//! sizes the *real* integrator rank team for the live runs: a fixed
//! worker count, or `follow` to track the manager's decided processor
//! count (the modeled knob). Results are bitwise identical either way —
//! only wall time changes.
//!
//! With `--soak <hours>` the drill instead runs the deterministic
//! chaos-soak harness: seeded composed fault storms through the DES,
//! each checked against the full invariant battery, until at least that
//! many *simulated* hours have been covered. `--seed <n>` picks the
//! first storm seed (storm `i` uses `n + i`); failures are shrunk to a
//! minimal replayable schedule and the process exits non-zero.
//!
//! With `--missions <n>` (optionally `--des-shards <k>` worker threads,
//! default 2) the drill instead throws seeded random fault storms at the
//! *sharded* multi-mission engine: n missions contend for one cluster
//! core pool and one WAN link while their faults abort transfers and
//! kill processes, the whole fleet is run twice, and any divergence
//! between the two runs exits non-zero (thread-interleaving bugs shake
//! out here).

use climate_adaptive::adaptive::chaos;
use climate_adaptive::adaptive::decision::AlgorithmKind;
use climate_adaptive::adaptive::engine::PhysicsThreads;
use climate_adaptive::adaptive::online::{run_online, OnlineOptions};
use climate_adaptive::adaptive::orchestrator::{Fault, FaultPlan, Orchestrator};
use climate_adaptive::adaptive::qos::QosRung;
use climate_adaptive::adaptive::recovery::{run_with_recovery, DurabilityOptions};
use climate_adaptive::adaptive::server::{
    FrameServer, RemoteViewer, ServerConfig, ViewerConfig, ViewerEnd,
};
use climate_adaptive::prelude::*;
use climate_adaptive::wrf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let physics = match args.iter().position(|a| a == "--physics-threads") {
        None => PhysicsThreads::default(),
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("follow") => PhysicsThreads::FollowDecision,
            Some(v) => match v.parse() {
                Ok(n) => PhysicsThreads::Fixed(n),
                Err(_) => usage(),
            },
            None => usage(),
        },
    };
    if let Some(i) = args.iter().position(|a| a == "--soak") {
        let hours: f64 = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage());
        let seed0: u64 = match args.iter().position(|a| a == "--seed") {
            None => 0xC1A05,
            Some(j) => args
                .get(j + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage()),
        };
        soak_drill(hours, seed0);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--missions") {
        let missions: usize = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage());
        let workers: usize = match args.iter().position(|a| a == "--des-shards") {
            None => 2,
            Some(j) => args
                .get(j + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage()),
        };
        fleet_drill(missions.max(1), workers.max(1));
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--kill-at") {
        let hours: f64 = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage());
        recovery_drill(hours, physics);
        return;
    }
    des_drill();
    transport_drill();
    recovery_drill(0.02, physics);
}

fn usage() -> ! {
    eprintln!(
        "usage: fault_drill [--kill-at <hours>] [--physics-threads <n|follow>] \
         [--soak <sim-hours> [--seed <n>]] [--missions <n> [--des-shards <k>]]"
    );
    std::process::exit(2);
}

/// Chaos storms against the sharded multi-mission engine: every mission
/// carries its own seeded random fault plan, all of them contend for one
/// core pool and one WAN link, and the whole fleet must reproduce
/// byte-identical counters on a second run.
fn fleet_drill(missions: usize, workers: usize) {
    use climate_adaptive::adaptive::engine::PipelineOptions;
    use climate_adaptive::adaptive::fleet::{ensemble, run_fleet, FleetOptions};

    println!("== fleet drill: {missions} mission(s), {workers} DES worker thread(s) ==");
    let site = Site::inter_department();
    let mission = Mission::aila().with_duration_hours(6.0);
    let specs = || {
        let mut specs = ensemble(
            &site,
            &mission,
            AlgorithmKind::Optimization,
            &PipelineOptions::default(),
            missions,
        );
        for (i, spec) in specs.iter_mut().enumerate() {
            // A distinct storm per mission, inside the mission's modeled
            // wall-hour span so the faults actually land mid-run.
            spec.options.fault_plan = FaultPlan::random(0xF1EE7 + i as u64, 1.0);
        }
        specs
    };
    let opts = FleetOptions::for_site(&site, workers);
    let report = run_fleet(specs(), &opts);
    for m in &report.missions {
        let r = &m.report;
        println!(
            "  {}: completed={} wall {:>5.2} h, shipped {:>3}, replays {}, \
             crashes {}, reconnects {}, stalls {}",
            m.label,
            r.completed,
            r.wall_hours,
            r.frames_shipped,
            r.replays,
            r.crashes,
            r.reconnects,
            r.stalls,
        );
    }
    println!(
        "  fleet: {}/{} completed on a {}-core shared pool",
        report.completed(),
        missions,
        report.total_cores
    );
    let again = run_fleet(specs(), &opts);
    let deterministic = report
        .missions
        .iter()
        .zip(&again.missions)
        .all(|(a, b)| a.report.counters == b.report.counters);
    if deterministic {
        println!("  re-run under fresh thread interleaving: byte-identical counters");
    } else {
        println!("  RE-RUN DIVERGED — sharded-DES determinism bug");
        std::process::exit(1);
    }
}

/// Seeded chaos storms through the DES until `target_sim_hours` of
/// simulated time are covered, every invariant checked on every storm.
fn soak_drill(target_sim_hours: f64, seed0: u64) {
    println!(
        "== chaos soak: seeded fault storms until {target_sim_hours:.0} simulated hours \
         (first seed {seed0}) =="
    );
    let budgets = chaos::InvariantBudgets::default();
    let mut sim_hours = 0.0;
    let mut storm = 0u64;
    let mut failures = 0u64;
    while sim_hours < target_sim_hours {
        let spec = chaos::StormSpec::generate(seed0 + storm);
        let baseline_wall = chaos::run_storm(&spec.baseline()).wall_hours;
        let out = chaos::run_storm(&spec);
        let violations = chaos::check_invariants(&spec, &out, baseline_wall, &budgets);
        sim_hours += out.sim_minutes / 60.0;
        println!(
            "storm {:>3} seed {:>7}: {} events, sim {:>4.0} h, wall {:>5.2} h, \
             deepest rung {}, stalls {}, {} violation(s)",
            storm,
            spec.seed,
            spec.events.len(),
            out.sim_minutes / 60.0,
            out.wall_hours,
            out.deepest_rung,
            out.stalls,
            violations.len(),
        );
        if !violations.is_empty() {
            failures += 1;
            for v in &violations {
                println!("    {v}");
            }
            let kinds: Vec<&'static str> = violations.iter().map(|v| v.kind()).collect();
            let shrunk = chaos::shrink(&spec, &budgets, &kinds);
            println!("    shrunk to {} event(s):", shrunk.spec.events.len());
            println!("    {}", shrunk.spec.replay_line());
        }
        storm += 1;
    }
    println!("soak finished: {storm} storms, {sim_hours:.0} simulated hours, {failures} failing");
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Hard-kill the live durable pipeline mid-mission and let the recovery
/// supervisor restart it from disk.
fn recovery_drill(kill_at_hours: f64, physics: PhysicsThreads) {
    println!(
        "== recovery drill: live pipeline hard-killed at {kill_at_hours:.2} wall hours, \
         restarted from durable state (physics workers: {physics:?}) =="
    );
    let site = Site::inter_department();
    let mut mission = Mission::aila().with_duration_hours(2.0).with_decimation(16);
    mission.decision_interval_hours = 0.5;
    let state_dir = std::env::temp_dir().join(format!(
        "adaptive-fault-drill-recovery-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&state_dir);
    let durability = DurabilityOptions::new(&state_dir).with_checkpoint_every_min(20.0);

    // Control: the same durable mission with no kill.
    let control_dir = std::env::temp_dir().join(format!(
        "adaptive-fault-drill-control-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&control_dir);
    let control = run_online(
        &site,
        &mission,
        AlgorithmKind::StaticBaseline,
        &OnlineOptions::fast("drill-control")
            .with_physics_threads(physics)
            .with_durability(DurabilityOptions::new(&control_dir).with_checkpoint_every_min(20.0)),
    );

    let plan = FaultPlan::from_events(vec![(
        kill_at_hours,
        Fault::ProcessKill {
            at_hours: kill_at_hours,
        },
    )]);
    let report = run_with_recovery(
        &site,
        &mission,
        AlgorithmKind::StaticBaseline,
        &OnlineOptions::fast("drill-recovery")
            .with_physics_threads(physics)
            .with_fault_plan(plan)
            .with_durability(durability),
    );

    for (label, r) in [("control", &control), ("killed", &report)] {
        println!(
            "{label:>8}: completed={} sim={:.0}min frames {} written / {} shipped / {} in flight; \
             recoveries={} journal_replays={} frames_recovered={} rendered={}",
            r.completed,
            r.sim_minutes,
            r.frames_written,
            r.frames_shipped,
            r.frames_in_flight,
            r.recoveries,
            r.journal_replays,
            r.frames_recovered,
            r.frames_rendered,
        );
    }
    assert!(report.completed, "mission must survive the kill");
    assert_eq!(
        report.frames_written,
        report.frames_shipped + report.frames_in_flight,
        "frame conservation across the incarnation boundary"
    );
    if report.recoveries > 0 {
        assert_eq!(
            report.track.to_csv(),
            control.track.to_csv(),
            "recovered track must match the fault-free run byte-for-byte"
        );
        println!("recovered track is byte-identical to the fault-free run ✓");
    } else {
        println!("(kill time fell past mission end; no recovery exercised)");
    }
    let _ = std::fs::remove_dir_all(&state_dir);
    let _ = std::fs::remove_dir_all(&control_dir);
    println!();
}

/// Every fault class at once, against the full adaptation loop.
fn des_drill() {
    let site = Site::inter_department();
    let mission = Mission::aila();
    let plan = FaultPlan::from_events(vec![
        (2.0, Fault::LinkDegradation { factor: 0.05 }),
        (5.0, Fault::LinkDegradation { factor: 1.0 }),
        (
            7.0,
            Fault::DiskPressure {
                bytes: 40 << 30,
                duration_hours: 3.0,
            },
        ),
        (
            9.0,
            Fault::ReceiverOutage {
                duration_hours: 1.5,
            },
        ),
        (5.5, Fault::SimCrash),
        (
            11.0,
            Fault::BandwidthFlap {
                factor: 0.1,
                half_period_hours: 0.5,
                flips: 6,
            },
        ),
    ]);

    println!(
        "== DES drill: {} scripted faults over a full Aila mission ==",
        plan.len()
    );
    let control =
        Orchestrator::new(site.clone(), mission.clone(), AlgorithmKind::Optimization).run();
    let faulted = Orchestrator::new(site, mission, AlgorithmKind::Optimization)
        .with_fault_plan(plan)
        .run();

    for (label, out) in [("control", &control), ("faulted", &faulted)] {
        println!(
            "{label:>8}: completed={} wall={:.1}h frames {} written / {} shipped / {} in flight; \
             reconnects={} replays={} crashes={} degraded_epochs={} min_free={:.1}%",
            out.completed,
            out.wall_hours,
            out.frames_written,
            out.frames_shipped,
            out.frames_in_flight,
            out.reconnects,
            out.replays,
            out.crashes,
            out.degraded_epochs,
            out.min_free_disk_pct,
        );
    }
    assert!(faulted.completed, "mission must survive the drill");
    assert_eq!(
        faulted.frames_written,
        faulted.frames_shipped + faulted.frames_in_flight,
        "frame conservation"
    );
    println!();
}

/// Drop the frame server mid-stream, start a replacement elsewhere, heal,
/// compare.
fn transport_drill() {
    println!(
        "== transport drill: server dropped with frame 3 in flight, replaced on a new port =="
    );
    let payloads: Vec<Vec<u8>> = {
        let mut model = wrf::WrfModel::new(wrf::ModelConfig::aila_default().with_decimation(16))
            .expect("valid config");
        (0..6)
            .map(|_| {
                model
                    .advance_to_minutes(model.sim_minutes() + 120.0, 1)
                    .expect("finite");
                model.frame().to_bytes().to_vec()
            })
            .collect()
    };
    let cfg = || ServerConfig {
        handshake_deadline: Duration::from_millis(500),
        write_deadline: Duration::from_millis(500),
        ack_deadline: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let stop = Arc::new(AtomicBool::new(false));
    let spawn = |mut viewer: RemoteViewer| {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let end = viewer.run(&stop);
            (viewer, end)
        })
    };
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let t0 = std::time::Instant::now();
        while !done() {
            assert!(t0.elapsed() < Duration::from_secs(10), "{what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    let wait_connected =
        |server: &FrameServer| wait_for("viewer admitted", &|| server.connected() > 0);

    // Control: a healthy server, for the byte-identity check.
    let control = FrameServer::start(cfg()).expect("bind");
    let running = spawn(RemoteViewer::new(
        control.addr().expect("remote"),
        ViewerConfig::loopback(1, 7),
    ));
    wait_connected(&control);
    for p in &payloads {
        control.publish(QosRung::FullRes, p.clone());
    }
    control.drain();
    let (viewer, end) = running.join().expect("viewer");
    assert_eq!(end, ViewerEnd::Drained);
    let control_track = viewer.track().to_csv();

    // Drill: frames 1-2 acknowledged, frame 3 published, then the server
    // is dropped without a drain.
    let server1 = FrameServer::start(cfg()).expect("bind");
    let addr1 = server1.addr().expect("remote");
    let running = spawn(RemoteViewer::new(addr1, ViewerConfig::loopback(1, 11)));
    wait_connected(&server1);
    for p in &payloads[..2] {
        server1.publish(QosRung::FullRes, p.clone());
    }
    wait_for("frames 1-2 acknowledged", &|| {
        server1.counters().frames_delivered >= 2
    });
    let released = server1.counters().frames_delivered;
    server1.publish(QosRung::FullRes, payloads[2].clone());
    drop(server1);

    // A replacement resumes the ring where the simulation site released
    // frames and republishes the durable rest.
    let server2 = FrameServer::start_resuming(cfg(), released).expect("rebind");
    let addr2 = server2.addr().expect("remote");
    for p in &payloads[released as usize..3] {
        server2.publish(QosRung::FullRes, p.clone());
    }
    stop.store(true, Ordering::SeqCst);
    let (mut viewer, _) = running.join().expect("viewer");
    println!(
        "server on {addr1} dropped; viewer watermark = {}; replacement on {addr2} resumes at {released}",
        viewer.last_applied()
    );
    viewer.set_addr(addr2);
    stop.store(false, Ordering::SeqCst);
    let running = spawn(viewer);
    wait_connected(&server2);
    for p in &payloads[3..] {
        server2.publish(QosRung::FullRes, p.clone());
    }
    let report = server2.drain();
    let (viewer, end) = running.join().expect("viewer");
    assert_eq!(end, ViewerEnd::Drained);
    let stats = viewer.stats();
    println!(
        "viewer healed: {} frames applied, {} reconnects, {} deduplicated, {} shed",
        stats.delivered, stats.reconnects, stats.deduped, stats.shed
    );

    assert_eq!(
        viewer.track().to_csv(),
        control_track,
        "tracks must be byte-identical"
    );
    assert!(stats.reconnects >= 1);
    assert_eq!((stats.shed, report.counters.frames_shed), (0, 0));
    assert_eq!(viewer.applied_seqs(), [1, 2, 3, 4, 5, 6], "each frame once");
    println!("remote track is byte-identical to the fault-free serve ✓");
    println!();
}
