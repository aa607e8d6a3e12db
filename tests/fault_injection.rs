//! Failure injection: the framework has no special fault-handling code —
//! these tests verify that the *ordinary* adaptation loop (bandwidth
//! probe → decision algorithm → reconfiguration) absorbs resource faults,
//! and quantify what the adaptivity buys compared to the non-adaptive
//! baseline under the same fault.

use climate_adaptive::adaptive::decision::AlgorithmKind;
use climate_adaptive::adaptive::orchestrator::{Fault, FaultPlan, Orchestrator, RunOptions};
use climate_adaptive::adaptive::qos::QosRung;
use climate_adaptive::adaptive::server::{
    FrameServer, RemoteViewer, ServerConfig, ViewerConfig, ViewerEnd,
};
use climate_adaptive::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn opts() -> RunOptions {
    RunOptions {
        wall_cap_hours: 60.0,
        ..Default::default()
    }
}

#[test]
fn optimization_survives_a_mid_run_link_collapse() {
    // The inter-department link collapses to 2 % (56 Mbps → ~1.1 Mbps) at
    // hour 2 and never recovers — effectively turning fire into a
    // cross-continent-class configuration mid-mission.
    let faults = vec![(2.0, Fault::LinkDegradation { factor: 0.02 })];
    let out = Orchestrator::new(
        Site::inter_department(),
        Mission::aila(),
        AlgorithmKind::Optimization,
    )
    .with_options(opts())
    .with_faults(faults)
    .run();
    assert!(
        out.completed,
        "optimization must re-plan around the collapsed link: {out:?}"
    );
    assert!(
        out.min_free_disk_pct > 10.0,
        "and stay clear of overflow ({:.1}%)",
        out.min_free_disk_pct
    );
}

#[test]
fn faulted_link_forces_sparser_output() {
    let healthy = Orchestrator::new(
        Site::inter_department(),
        Mission::aila(),
        AlgorithmKind::Optimization,
    )
    .with_options(opts())
    .run();
    let faulted = Orchestrator::new(
        Site::inter_department(),
        Mission::aila(),
        AlgorithmKind::Optimization,
    )
    .with_options(opts())
    .with_faults(vec![(1.0, Fault::LinkDegradation { factor: 0.02 })])
    .run();
    assert!(
        faulted.frames_written < healthy.frames_written,
        "a starved link must reduce output: {} vs {}",
        faulted.frames_written,
        healthy.frames_written
    );
    // The adaptation is visible in the output-interval series: somewhere
    // after the fault the interval exceeds its pre-fault setting. (It may
    // legitimately tighten again near mission end — the overflow horizon
    // shrinks to nothing, so the disk outlives any output rate.)
    let oi = faulted.series.get("output_interval").expect("recorded");
    let pre = oi.value_at(0.5 * 3600.0).expect("early sample");
    let post_peak = oi
        .points
        .iter()
        .filter(|&&(t, _)| t > 1.0 * 3600.0)
        .map(|&(_, v)| v)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        post_peak > pre,
        "interval should widen after the fault: pre {pre}, post peak {post_peak}"
    );
}

#[test]
fn transient_fault_heals() {
    // Collapse at hour 1, restored at hour 4: the run must end healthy,
    // with the disk recovering once the link returns.
    let out = Orchestrator::new(
        Site::intra_country(),
        Mission::aila(),
        AlgorithmKind::Optimization,
    )
    .with_options(opts())
    .with_faults(vec![
        (1.0, Fault::LinkDegradation { factor: 0.05 }),
        (4.0, Fault::LinkDegradation { factor: 1.0 }),
    ])
    .run();
    assert!(out.completed);
    let disk = out.series.get("free_disk_pct").expect("recorded");
    let trough = disk.min_value().expect("non-empty");
    let end = disk.last_value().expect("non-empty");
    assert!(
        end >= trough,
        "disk should not end below its fault-era trough"
    );
}

#[test]
fn baseline_fares_worse_than_optimization_under_the_same_fault() {
    let fault = vec![(1.0, Fault::LinkDegradation { factor: 0.02 })];
    let run = |algo| {
        Orchestrator::new(Site::inter_department(), Mission::aila(), algo)
            .with_options(opts())
            .with_faults(fault.clone())
            .run()
    };
    let baseline = run(AlgorithmKind::StaticBaseline);
    let opt = run(AlgorithmKind::Optimization);
    assert!(
        opt.min_free_disk_pct > baseline.min_free_disk_pct,
        "adaptivity must preserve more disk under the fault: {:.1}% vs {:.1}%",
        opt.min_free_disk_pct,
        baseline.min_free_disk_pct
    );
    assert!(baseline.stalls > 0, "the baseline runs into CRITICAL");
    assert_eq!(opt.stalls, 0, "optimization avoids stalling");
}

/// Encoded frames for transport tests: a short decimated run, one frame
/// every couple of simulated hours.
fn test_payloads(n: usize) -> Vec<Vec<u8>> {
    let mut model = wrf::WrfModel::new(wrf::ModelConfig::aila_default().with_decimation(16))
        .expect("valid config");
    (0..n)
        .map(|_| {
            model
                .advance_to_minutes(model.sim_minutes() + 120.0, 1)
                .expect("finite");
            model.frame().to_bytes().to_vec()
        })
        .collect()
}

fn serving_cfg() -> ServerConfig {
    ServerConfig {
        handshake_deadline: Duration::from_millis(500),
        write_deadline: Duration::from_millis(500),
        ack_deadline: Duration::from_millis(500),
        ..ServerConfig::default()
    }
}

/// Run `viewer` on its own thread until `stop` is raised or a server
/// drains it.
fn spawn_viewer(
    mut viewer: RemoteViewer,
    stop: &Arc<AtomicBool>,
) -> JoinHandle<(RemoteViewer, ViewerEnd)> {
    let stop = Arc::clone(stop);
    std::thread::spawn(move || {
        let end = viewer.run(&stop);
        (viewer, end)
    })
}

/// Block until `server` has `n` sockets admitted (a viewer's cursor is
/// set by then, so nothing published afterwards passes it by).
fn wait_connected(server: &FrameServer, n: u64) {
    let t0 = Instant::now();
    while server.connected() != n {
        assert!(t0.elapsed() < Duration::from_secs(10), "want {n} connected");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The acceptance case for transport healing: the server is dropped
/// without a drain while a frame is in flight, a replacement on another
/// port resumes the sequence space and republishes from the simulation
/// site's durable copy, and the viewer — re-pointed — resumes from its
/// own watermark. The track is byte-identical to an unfaulted serve.
#[test]
fn server_killed_mid_stream_is_healed_by_a_resuming_replacement() {
    let payloads = test_payloads(6);
    let stop = Arc::new(AtomicBool::new(false));

    // Fault-free baseline.
    let baseline = {
        let server = FrameServer::start(serving_cfg()).expect("bind");
        let viewer =
            RemoteViewer::new(server.addr().expect("remote"), ViewerConfig::loopback(1, 7));
        let running = spawn_viewer(viewer, &stop);
        wait_connected(&server, 1);
        for p in &payloads {
            server.publish(QosRung::FullRes, p.clone());
        }
        server.drain();
        let (viewer, end) = running.join().expect("viewer thread");
        assert_eq!(end, ViewerEnd::Drained);
        viewer.track().to_csv()
    };

    // Faulted run: frames 1 and 2 are acknowledged; frame 3 enters the
    // ring and the server dies with it in flight — no drain, no DRAIN
    // control, so the viewer learns nothing but a dead socket. Whether
    // frame 3 reached the viewer first is a race; both outcomes must heal
    // to the same track.
    let server1 = FrameServer::start(serving_cfg()).expect("bind");
    let viewer = RemoteViewer::new(
        server1.addr().expect("remote"),
        ViewerConfig::loopback(1, 11),
    );
    let running = spawn_viewer(viewer, &stop);
    wait_connected(&server1, 1);
    for p in &payloads[..2] {
        server1.publish(QosRung::FullRes, p.clone());
    }
    let t0 = Instant::now();
    while server1.counters().frames_delivered < 2 {
        assert!(t0.elapsed() < Duration::from_secs(10), "frames 1-2 acked");
        std::thread::sleep(Duration::from_millis(2));
    }
    // The simulation site may release what every viewer acknowledged;
    // the rest stays durable.
    let released = server1.counters().frames_delivered;
    server1.publish(QosRung::FullRes, payloads[2].clone());
    drop(server1);

    // Ops stand-in: a replacement on a fresh port resumes the ring at the
    // release point and republishes the durable frames.
    let server2 = FrameServer::start_resuming(serving_cfg(), released).expect("bind replacement");
    for p in &payloads[released as usize..3] {
        server2.publish(QosRung::FullRes, p.clone());
    }
    stop.store(true, Ordering::SeqCst);
    let (mut viewer, end) = running.join().expect("viewer thread");
    assert_eq!(end, ViewerEnd::Stopped);
    assert!(
        viewer.last_applied() >= released,
        "the watermark survives the kill"
    );
    viewer.set_addr(server2.addr().expect("remote"));
    stop.store(false, Ordering::SeqCst);
    let running = spawn_viewer(viewer, &stop);
    wait_connected(&server2, 1);
    for p in &payloads[3..] {
        server2.publish(QosRung::FullRes, p.clone());
    }
    let report = server2.drain();
    let (viewer, end) = running.join().expect("viewer thread");
    assert_eq!(end, ViewerEnd::Drained);

    let stats = viewer.stats();
    assert!(
        stats.reconnects >= 1,
        "reconnected after the kill: {stats:?}"
    );
    assert_eq!(stats.shed, 0, "{stats:?}");
    assert_eq!(report.counters.frames_shed, 0, "{:?}", report.counters);
    assert_eq!(
        viewer.applied_seqs(),
        [1, 2, 3, 4, 5, 6],
        "every frame applied exactly once"
    );
    assert_eq!(
        viewer.track().to_csv(),
        baseline,
        "track is byte-identical to the fault-free serve"
    );
}

proptest! {
    // Each case is a full DES run under a random fault schedule; keep the
    // count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any random fault plan: the run must terminate (no event-loop
    /// livelock from outages/flaps re-arming) and conserve frames —
    /// everything written is either shipped or still sitting on the
    /// simulation-site disk.
    #[test]
    fn random_fault_plans_terminate_and_conserve_frames(
        plan_seed in 0u64..500,
        net_seed in 0u64..100,
        hours in 2.0f64..6.0,
    ) {
        let plan = FaultPlan::random(plan_seed, hours * 2.0);
        let out = Orchestrator::new(
            Site::inter_department(),
            Mission::aila().with_duration_hours(hours),
            AlgorithmKind::Optimization,
        )
        .with_options(RunOptions {
            wall_cap_hours: 40.0,
            seed: net_seed,
            ..Default::default()
        })
        .with_fault_plan(plan)
        .run();

        // Termination: the DES loop returned (reaching here proves it);
        // the wall clock is bounded by the cap.
        prop_assert!(out.wall_hours <= 40.0 + 1e-9);

        // Frame conservation (shared engine-level helper: emitted =
        // written + dropped, written = shipped + still-on-disk, with
        // visualization trailing shipping).
        climate_adaptive::adaptive::engine::assert_frame_conservation(&out);

        // Fault bookkeeping is consistent with the plan's vocabulary.
        prop_assert!((0.0..=100.0).contains(&out.min_free_disk_pct));
        if out.completed {
            prop_assert!(out.sim_minutes >= hours * 60.0 - 1e-6);
        }
    }
}
