//! The paper's evidence as one table of experiments.
//!
//! Each [`Experiment`] regenerates one table, figure or study of the paper
//! (DESIGN.md §4 is the index). It writes its CSVs, PPM charts and its
//! transcript into one in-memory [`Sink`]. `repro [name…]` writes the
//! sink's files under `results/`, and `tests/repro_check.rs` byte-compares
//! every file of every `pinned` entry with the committed one. Transcripts
//! name files by their path from the repository root, so a transcript is
//! itself a deterministic artefact.
//!
//! Only `std` and the workspace crates the root package depends on are
//! used here, so the root test can include this file by path.

use adaptive_core::decision::AlgorithmKind;
use adaptive_core::metrics;
use adaptive_core::online::{run_online, OnlineOptions};
use adaptive_core::orchestrator::{Orchestrator, RunOptions, RunOutcome};
use adaptive_core::recovery::DurabilityOptions;
use cyclone::{Mission, Site, SiteKind};
use des::{run_until_empty, Scheduler};
use resources::{Disk, FrameStore};
use std::cell::OnceCell;
use std::time::Instant;
use viz::plot::{Plot, GREEDY_RED, OPTIMIZATION_BLUE};
use viz::{FrameRenderer, TrackLog};
use wrf::WrfModel;

/// Append one formatted line to the running experiment's transcript.
macro_rules! say {
    ($sink:expr, $($arg:tt)*) => {
        $sink.say(&format!($($arg)*))
    };
}

/// One entry of the experiment table.
pub struct Experiment {
    /// What `repro` is called with; the transcript is `<name>_output.txt`.
    pub name: &'static str,
    /// Every file but the PPM charts is deterministic and committed under
    /// `results/`; otherwise the entry holds wall-clock measurements.
    pub pinned: bool,
    run: fn(&Runs, &mut Sink),
}

const fn entry(name: &'static str, pinned: bool, run: fn(&Runs, &mut Sink)) -> Experiment {
    Experiment { name, pinned, run }
}

/// Every experiment, in the order `repro` with no name runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    entry("table1", true, table1),
    entry("table3", true, table3),
    entry("table4", true, table4),
    entry("summary", true, summary),
    entry("fig5", true, |r, s| figure(&FIG5, r, s)),
    entry("fig6", true, |r, s| figure(&FIG6, r, s)),
    entry("fig7", true, |r, s| figure(&FIG7, r, s)),
    entry("fig8", true, |r, s| figure(&FIG8, r, s)),
    entry("figures34", true, figures34),
    entry("ablation", true, ablation),
    entry("checkpoint_cadence", false, checkpoint_cadence),
];

/// What one invocation writes: files by name under `results/`, in the
/// order written.
#[derive(Default)]
pub struct Sink {
    pub files: Vec<(String, Vec<u8>)>,
    transcript: String,
}

impl Sink {
    fn say(&mut self, line: &str) {
        self.transcript.push_str(line);
        self.transcript.push('\n');
    }

    fn file(&mut self, name: String, bytes: Vec<u8>) {
        say!(self, "  [wrote results/{name}]");
        self.files.push((name, bytes));
    }
}

/// Run `experiments` in order into one sink, each followed by its
/// transcript.
pub fn run(experiments: &[&Experiment]) -> Sink {
    let runs = Runs::default();
    let mut sink = Sink::default();
    for e in experiments {
        (e.run)(&runs, &mut sink);
        let transcript = std::mem::take(&mut sink.transcript);
        sink.files
            .push((format!("{}_output.txt", e.name), transcript.into_bytes()));
    }
    sink
}

/// The six canonical runs (each site's greedy/optimization pair over the
/// full Aila mission), computed on first use and shared by every
/// experiment of one invocation.
#[derive(Default)]
struct Runs([OnceCell<(RunOutcome, RunOutcome)>; 3]);

impl Runs {
    fn pair(&self, kind: SiteKind) -> (&RunOutcome, &RunOutcome) {
        let (greedy, opt) = self.0[kind as usize].get_or_init(|| {
            let run = |algo| Orchestrator::new(Site::of_kind(kind), Mission::aila(), algo).run();
            (
                run(AlgorithmKind::GreedyThreshold),
                run(AlgorithmKind::Optimization),
            )
        });
        (greedy, opt)
    }
}

/// `HH:MM` label for a wall-clock offset in seconds (the x-axes of
/// Figures 5–8).
fn wall_label(secs: f64) -> String {
    let mins = (secs / 60.0).round() as i64;
    format!("{:02}:{:02}", mins / 60, mins % 60)
}

/// Sample a run's series every `every_secs` of wall time up to the run's
/// end, skipping instants before the series' first point.
fn sample_series(out: &RunOutcome, series: &str, every_secs: f64) -> Vec<(f64, f64)> {
    let s = out.series.get(series).expect("known series name");
    let end = out.wall_hours * 3600.0;
    let mut rows = Vec::new();
    let mut t = 0.0;
    while t <= end + 1e-9 {
        if let Some(v) = s.value_at(t) {
            rows.push((t, v));
        }
        t += every_secs;
    }
    rows
}

/// One run's outcome on one line.
fn outcome_line(out: &RunOutcome) -> String {
    format!(
        "{:<16} {:<18} completed={:<5} wall={:>6.1}h sim={} frames(w/s/v)={}/{}/{} \
         restarts={} stalls={} minfree={:>5.1}% endfree={:>5.1}%",
        out.site_label,
        out.algorithm.label(),
        out.completed,
        out.wall_hours,
        Mission::format_sim_time(out.sim_minutes),
        out.frames_written,
        out.frames_shipped,
        out.frames_rendered,
        out.restarts,
        out.stalls,
        out.min_free_disk_pct,
        out.final_free_disk_pct,
    )
}

/// Table I: when does stable storage become full? "Climate simulation of
/// grid size 4486×4486 points, 10 KM resolution [≈31 GB of output per
/// frame], execution on 16,384 cores with 1.2 seconds of execution time
/// per time step, and I/O bandwidth of about 5 GBps", for disks of
/// {5, 100, 300, 500} TB and networks of {1, 10} Gbps.
///
/// Two independent computations side by side: the closed-form fill-time
/// model, and a discrete-event replay of the same pipeline (steps, frame
/// writes, FIFO transfers against a byte-accurate disk) that validates the
/// orchestration machinery against the arithmetic.
fn table1(_: &Runs, sink: &mut Sink) {
    // "About 5 GBps" I/O reproduces the printed rows best at 4 GBps
    // (their own rows imply a ~9 s produce cycle).
    let frame = 31e9;
    let step = 1.2;
    let io = 4e9;
    sink.say("Table I — time until stable storage becomes full");
    sink.say("(4486x4486 grid, 10 km, 31 GB/frame, 1.2 s/step, ~5 GBps I/O)\n");
    sink.say("      Disk    Network |     analytic   DES replay |      paper");
    let paper_rows = [
        ("5 TB", "1 Gbps", 5e12, 1e9, "25 min"),
        ("5 TB", "10 Gbps", 5e12, 10e9, "36 min"),
        ("100 TB", "1 Gbps", 100e12, 1e9, "8 hours"),
        ("100 TB", "10 Gbps", 100e12, 10e9, "12 hours"),
        ("300 TB", "1 Gbps", 300e12, 1e9, "24.5 hours"),
        ("300 TB", "10 Gbps", 300e12, 10e9, "36 hours"),
        ("500 TB", "1 Gbps", 500e12, 1e9, "41 hours"),
        ("500 TB", "10 Gbps", 500e12, 10e9, "60 hours"),
    ];
    let human = |secs: f64| {
        if secs < 3600.0 {
            format!("{:.0} minutes", secs / 60.0)
        } else {
            format!("{:.1} hours", secs / 3600.0)
        }
    };
    let mut csv = String::from("disk,network,analytic_secs,des_secs,paper\n");
    for (disk_label, net_label, disk, net_bits, paper) in paper_rows {
        let net = net_bits / 8.0;
        let a = analytic_fill_secs(disk, net, frame, step, io);
        let d = des_fill_secs(disk as u64, net, frame as u64, step, io);
        say!(
            sink,
            "{:>10} {:>10} | {:>12} {:>12} | {:>10}",
            disk_label,
            net_label,
            human(a),
            human(d),
            paper
        );
        // The two computations must agree closely: the DES lags the
        // continuous model by at most one produce cycle plus the frame
        // that is in flight (its bytes free only at transfer completion).
        let slack = (step + frame / io) + frame / net + 1.0;
        assert!(
            (a - d).abs() <= slack,
            "analytic {a:.1}s vs DES {d:.1}s (slack {slack:.1}s)"
        );
        csv.push_str(&format!("{disk_label},{net_label},{a:.1},{d:.1},{paper}\n"));
    }
    sink.file("table1_fill_times.csv".into(), csv.into_bytes());
}

/// One frame is produced per solve-plus-write cycle; the disk fills when
/// cumulative production minus cumulative drain exceeds capacity.
fn analytic_fill_secs(
    disk_bytes: f64,
    net_bps: f64,
    frame_bytes: f64,
    step_secs: f64,
    io_bps: f64,
) -> f64 {
    let cycle = step_secs + frame_bytes / io_bps;
    let production = frame_bytes / cycle;
    let net = production - net_bps;
    assert!(net > 0.0, "with these parameters the disk never fills");
    disk_bytes / net
}

/// DES replay: the simulation writes a frame every cycle; the sender
/// ships FIFO at `net_bps`; report the time of the first rejected write.
fn des_fill_secs(
    disk_bytes: u64,
    net_bps: f64,
    frame_bytes: u64,
    step_secs: f64,
    io_bps: f64,
) -> f64 {
    #[derive(PartialEq)]
    enum Ev {
        FrameDone,
        TransferDone,
    }
    struct W {
        store: FrameStore,
        sending: Option<u64>,
        full_at: Option<f64>,
        net_bps: f64,
        frame_bytes: u64,
        cycle: f64,
    }
    let cycle = step_secs + frame_bytes as f64 / io_bps;
    let mut w = W {
        store: FrameStore::new(Disk::new(disk_bytes)),
        sending: None,
        full_at: None,
        net_bps,
        frame_bytes,
        cycle,
    };
    let mut sched: Scheduler<Ev> = Scheduler::new();
    sched.schedule_in(cycle, Ev::FrameDone);
    run_until_empty(&mut sched, &mut w, |w, now, ev, sched| {
        match ev {
            Ev::FrameDone => {
                if w.store.store(now.as_mins(), w.frame_bytes).is_err() {
                    w.full_at = Some(now.as_secs());
                    return false;
                }
                sched.schedule_in(w.cycle, Ev::FrameDone);
            }
            Ev::TransferDone => {
                let id = w.sending.take().expect("transfer in flight");
                w.store.complete_transfer(id).expect("tracked frame");
            }
        }
        if w.sending.is_none() {
            if let Some(meta) = w.store.begin_transfer() {
                w.sending = Some(meta.id);
                sched.schedule_in(meta.bytes as f64 / w.net_bps, Ev::TransferDone);
            }
        }
        true
    });
    w.full_at.expect("parameters guarantee overflow")
}

/// Table III: resolutions for different pressure values — the schedule
/// itself, plus a trace of when the Aila simulation actually triggered
/// each stage (the dynamic behaviour Table III drives).
fn table3(_: &Runs, sink: &mut Sink) {
    let mission = Mission::aila();
    sink.say("Table III — resolutions for different pressure values\n");
    say!(sink, "{:>15} {:>17}", "Pressure (hPa)", "Resolution (km)");
    let mut csv = String::from("pressure_hpa,resolution_km\n");
    for stage in &mission.schedule.stages {
        let (hpa, km) = (stage.pressure_hpa, stage.resolution_km);
        say!(sink, "{hpa:>15} {km:>17}");
        csv.push_str(&format!("{hpa},{km}\n"));
    }
    say!(
        sink,
        "\nnest spawned below {} hPa; nest resolution = parent/3 (finest {} km → {:.2} km)\n",
        mission.schedule.nest_spawn_hpa,
        mission.schedule.finest_km(),
        mission.schedule.finest_km() / 3.0
    );

    // Integrate the mission and report first-crossing times.
    sink.say("stage activation during the simulated Aila lifecycle:");
    let mut model = WrfModel::new(mission.model).expect("valid mission model");
    let mut current = mission.schedule.default_resolution_km;
    let mut nest = false;
    let mut trace = String::from("sim_time,event\n");
    let mut hour = 0.0;
    while hour < mission.duration_hours {
        hour += 0.5;
        model
            .advance_to_minutes(hour * 60.0, 1)
            .expect("finite integration");
        let p = model.min_pressure_hpa();
        let at = Mission::format_sim_time(model.sim_minutes());
        let (res, want_nest) = mission.schedule.apply_with_hysteresis(p, current, nest);
        if want_nest && !nest {
            say!(sink, "  {at}  pressure {p:6.1} hPa -> nest spawned");
            trace.push_str(&format!("{at},nest_spawned\n"));
            model.spawn_nest();
            nest = true;
        }
        if res != current {
            say!(
                sink,
                "  {at}  pressure {p:6.1} hPa -> resolution {res} km (nest {:.2} km)",
                res / 3.0
            );
            trace.push_str(&format!("{at},resolution_{res}km\n"));
            model.set_resolution(res).expect("schedule resolution");
            current = res;
        }
    }
    sink.file("table3_schedule.csv".into(), csv.into_bytes());
    sink.file("table3_activation_trace.csv".into(), trace.into_bytes());
}

/// Table IV: the three sites — clusters, disks and links — plus the
/// derived quantities the framework actually consumes (profiled step
/// times, allowed processor counts, frame I/O costs).
fn table4(_: &Runs, sink: &mut Sink) {
    let mission = Mission::aila();
    sink.say("Table IV — simulation and visualization configurations\n");
    let mut csv = String::from(
        "configuration,cluster,max_cores,disk_gb,bandwidth_mbps,io_mbps,restart_secs\n",
    );
    for site in SiteKind::all().map(Site::of_kind) {
        let Site {
            label,
            disk_gb,
            bandwidth_mbps,
            ref cluster,
            ..
        } = site;
        let (name, cores) = (&cluster.name, cluster.max_cores);
        let io_mbps = cluster.io_bps / 1e6;
        let restart = cluster.restart_overhead_secs;
        say!(sink, "{label}:");
        say!(sink, "  cluster ................ {name}");
        say!(sink, "  maximum cores .......... {cores}");
        say!(sink, "  disk space ............. {disk_gb} GB");
        say!(sink, "  avg sim-vis bandwidth .. {bandwidth_mbps} Mbps");
        say!(sink, "  parallel I/O ........... {io_mbps:.0} MB/s");
        say!(sink, "  restart overhead ....... {restart:.0} s");
        let t24 = site.proc_table(&mission, 24.0, false).min_time();
        let t10 = site.proc_table(&mission, 10.0, true).min_time();
        say!(
            sink,
            "  profiled s/step ........ {t24:.1} (24 km, max cores) … {t10:.1} (10 km + nest)"
        );
        let allowed = site.allowed_procs(&mission, 24.0, true);
        say!(
            sink,
            "  allowed cores @24 km ... {} counts in [{}, {}]",
            allowed.len(),
            allowed.first().expect("non-empty"),
            allowed.last().expect("non-empty"),
        );
        let frame = mission.frame_bytes(24.0, false);
        say!(
            sink,
            "  frame @24 km ........... {:.0} MB ({:.1} s of I/O)\n",
            frame as f64 / 1e6,
            cluster.io_time(frame),
        );
        csv.push_str(&format!(
            "{label},{name},{cores},{disk_gb},{bandwidth_mbps},{io_mbps:.0},{restart:.0}\n"
        ));
    }
    sink.file("table4_sites.csv".into(), csv.into_bytes());
}

/// §V headline summary over the six canonical runs: simulation-rate gain,
/// storage saving, completion/stall behaviour, plus a CSV of the per-run
/// outcomes.
///
/// Paper claims being checked (shape, not absolute numbers):
/// - optimization completes the entire simulation for all three network
///   configurations; greedy stalls on the cross-continent link,
/// - optimization provides ≈30% higher simulation rate,
/// - optimization consumes ≈25–50% less storage, avoiding disk overflow,
/// - optimization's output interval is near-constant (consistent QoS).
fn summary(runs: &Runs, sink: &mut Sink) {
    sink.say("=== §V summary: six canonical experiments ===\n");
    let mut csv = String::from(
        "site,algorithm,completed,ended_stalled,wall_hours,sim_minutes,frames_written,\
         frames_shipped,frames_rendered,restarts,stalls,min_free_pct,final_free_pct\n",
    );
    let mut comparisons = Vec::new();
    for kind in SiteKind::all() {
        let (greedy, opt) = runs.pair(kind);
        say!(sink, "{}", outcome_line(greedy));
        say!(sink, "{}", outcome_line(opt));
        for out in [greedy, opt] {
            csv.push_str(&format!(
                "{},{},{},{},{:.3},{:.1},{},{},{},{},{},{:.2},{:.2}\n",
                out.site_label,
                out.algorithm.label(),
                out.completed,
                out.ended_stalled,
                out.wall_hours,
                out.sim_minutes,
                out.frames_written,
                out.frames_shipped,
                out.frames_rendered,
                out.restarts,
                out.stalls,
                out.min_free_disk_pct,
                out.final_free_disk_pct,
            ));
        }
        // Which force drove the LP's choices over this run?
        if let Some(binding) = opt.series.get("binding_constraint") {
            let mut counts = [0usize; 4];
            for &(_, code) in &binding.points {
                counts[(code as usize).min(3)] += 1;
            }
            say!(
                sink,
                "  optimization binding constraints: machine {} / disk {} / viz {} / infeasible {}",
                counts[0],
                counts[1],
                counts[2],
                counts[3]
            );
        }
        let c = metrics::compare(greedy, opt);
        say!(
            sink,
            "  -> sim-rate gain {:+.1}%  storage saving {:+.1}%  mid-run viz gain {:+.1} sim-min  \
             OI variation greedy {:.2} vs opt {:.2}\n",
            c.sim_rate_gain_pct,
            c.storage_saving_pct,
            c.viz_progress_gain_min,
            c.oi_variation.0,
            c.oi_variation.1
        );
        comparisons.push(c);
    }
    sink.file("summary.csv".into(), csv.into_bytes());

    sink.say("=== paper-shape checklist ===");
    let all = |f: fn(&metrics::Comparison) -> bool| comparisons.iter().all(f);
    let per_site = |f: fn(&metrics::Comparison) -> String| -> String {
        comparisons.iter().map(f).collect::<Vec<_>>().join(" / ")
    };
    let cross = &comparisons[2];
    let checklist = [
        (
            "optimization completes everywhere",
            all(|c| c.completed.1).to_string(),
        ),
        (
            "greedy fails cross-continent",
            (!cross.completed.0).to_string(),
        ),
        (
            "optimization ahead at mid-run viz",
            all(|c| c.viz_progress_gain_min > 0.0).to_string(),
        ),
        (
            "optimization rate gain (paper ~30%)",
            per_site(|c| format!("{:+.1}%", c.sim_rate_gain_pct)),
        ),
        (
            "storage saving (paper ~25-50%)",
            per_site(|c| format!("{:+.1}%", c.storage_saving_pct)),
        ),
        (
            "OI variation (σ/μ) greedy vs opt",
            per_site(|c| format!("{:.2}/{:.2}", c.oi_variation.0, c.oi_variation.1)),
        ),
        // The paper's QoS argument is about the starved link; the ordering
        // on the intermediate link is RNG-sensitive (EXPERIMENTS.md
        // deviation 5).
        (
            "opt OI steadier on the starved link",
            (cross.oi_variation.1 <= cross.oi_variation.0 + 1e-9).to_string(),
        ),
    ];
    for (claim, verdict) in checklist {
        say!(sink, "{:.<42} {verdict}", format!("{claim} "));
    }
}

/// One Figure 5–8 panel layout: the sites it shows and the recorded
/// series it plots.
struct Figure {
    number: u8,
    csv: &'static str,
    csv_header: &'static str,
    sites: &'static [SiteKind],
    /// Wall-clock spacing of the transcript's table rows.
    table_step_secs: f64,
    curves: &'static [Curve],
}

/// One recorded series of a figure: its chart, and how one value is
/// written to the CSV. The chart and the transcript's table show
/// `plot_y` of the value.
struct Curve {
    series: &'static str,
    /// Chart file infix (`fig8a_procs_…`) and y-axis label.
    tag: &'static str,
    y_label: &'static str,
    plot_y: fn(f64) -> f64,
    csv: fn(f64) -> String,
}

/// Simulated time vs wall clock. The optimization curve is steady and
/// reaches 25-May first everywhere; greedy cross-continent flattens
/// (dotted in the paper) when the simulation stalls on a full disk.
const FIG5: Figure = Figure {
    number: 5,
    csv: "fig5_sim_progress.csv",
    csv_header: "config,algorithm,wall_secs,wall_label,sim_minutes,sim_label",
    sites: &SITES,
    table_step_secs: 2.0 * 3600.0,
    curves: &[Curve {
        series: "sim_progress",
        tag: "",
        y_label: "simulated hours",
        plot_y: |sim_min| sim_min / 60.0,
        csv: |v| format!("{v},{}", Mission::format_sim_time(v)),
    }],
};

/// Remaining free disk vs wall clock. Greedy dives early and saw-tooths,
/// overflowing (<10 %) and stalling cross-continent; optimization stays
/// high and steady.
const FIG6: Figure = Figure {
    number: 6,
    csv: "fig6_free_disk.csv",
    csv_header: "config,algorithm,wall_secs,wall_label,free_pct",
    sites: &SITES,
    table_step_secs: 2.0 * 3600.0,
    curves: &[Curve {
        series: "free_disk_pct",
        tag: "",
        y_label: "free disk (%)",
        plot_y: |v| v,
        csv: |v| format!("{v:.3}"),
    }],
};

/// Simulated time of the latest visualized frame vs wall clock. Greedy
/// lags — "it tries to send every time step from the simulation to the
/// visualization site in the initial stages" — while optimization makes
/// steady progress.
const FIG7: Figure = Figure {
    number: 7,
    csv: "fig7_viz_progress.csv",
    csv_header: "config,algorithm,wall_secs,wall_label,viz_sim_minutes,viz_sim_label",
    sites: &SITES,
    table_step_secs: 2.0 * 3600.0,
    curves: &[Curve {
        series: "viz_progress",
        tag: "",
        y_label: "visualized sim hours",
        plot_y: |sim_min| sim_min / 60.0,
        csv: |v| format!("{v},{}", Mission::format_sim_time(v)),
    }],
};

/// Adaptivity: processors and output interval vs wall clock, table rows
/// one decision epoch apart. Greedy starts at maximum processors and the
/// 3-minute interval, then reacts as the disk drains; optimization
/// settles near its steady state from the first epoch.
const FIG8: Figure = Figure {
    number: 8,
    csv: "fig8_adaptivity.csv",
    csv_header: "config,algorithm,wall_secs,wall_label,procs,output_interval_min",
    sites: &[SiteKind::InterDepartment, SiteKind::CrossContinent],
    table_step_secs: 1.5 * 3600.0,
    curves: &[
        Curve {
            series: "procs",
            tag: "_procs",
            y_label: "processors",
            plot_y: |v| v,
            csv: |v| format!("{v:.0}"),
        },
        Curve {
            series: "output_interval",
            tag: "_oi",
            y_label: "output interval (sim min)",
            plot_y: |v| v,
            csv: |v| format!("{v:.1}"),
        },
    ],
};

const SITES: [SiteKind; 3] = [
    SiteKind::InterDepartment,
    SiteKind::IntraCountry,
    SiteKind::CrossContinent,
];

/// One figure from the shared canonical runs: per panel (site) a table
/// of both algorithms every `table_step_secs`, one chart per curve, and
/// CSV rows every 30 minutes of wall clock.
fn figure(fig: &Figure, runs: &Runs, sink: &mut Sink) {
    let algos = ["Greedy-Threshold", "Optimization Method"];
    let mut csv = format!("{}\n", fig.csv_header);
    for (panel, &kind) in ('a'..).zip(fig.sites) {
        let (greedy, opt) = runs.pair(kind);
        let site = greedy.site_label;
        say!(sink, "--- Fig {}({panel}) {site} ---", fig.number);
        let mut header = format!("{:>9} |", "wall");
        for algo in ["greedy", "optim."] {
            for c in fig.curves {
                header.push_str(&format!(" {:>24}", format!("{algo} {}", c.series)));
            }
        }
        say!(sink, "{header}");
        let end = greedy.wall_hours.max(opt.wall_hours) * 3600.0;
        let mut t = 0.0;
        while t <= end + 1e-9 {
            let mut row = format!("{:>9} |", wall_label(t));
            for out in [greedy, opt] {
                for c in fig.curves {
                    let series = out.series.get(c.series).expect("known series name");
                    let v = series
                        .value_at(t)
                        .filter(|_| t <= out.wall_hours * 3600.0 + 1e-9);
                    let cell = v.map_or("-".into(), |v| format!("{:.1}", (c.plot_y)(v)));
                    row.push_str(&format!(" {cell:>24}"));
                }
            }
            say!(sink, "{row}");
            t += fig.table_step_secs;
        }
        say!(sink, "{}", outcome_line(greedy));
        say!(sink, "{}\n", outcome_line(opt));

        for c in fig.curves {
            let mut plot = Plot::new(
                format!("Fig {}({panel}) {site} - {}", fig.number, c.y_label).to_uppercase(),
            );
            plot.x_label = "WALL CLOCK (HOURS)".into();
            plot.y_label = c.y_label.to_uppercase();
            for (label, out, color) in [
                ("GREEDY-THRESHOLD", greedy, GREEDY_RED),
                ("OPTIMIZATION", opt, OPTIMIZATION_BLUE),
            ] {
                let pts: Vec<(f64, f64)> = sample_series(out, c.series, 900.0)
                    .into_iter()
                    .map(|(t, v)| (t / 3600.0, (c.plot_y)(v)))
                    .collect();
                if !pts.is_empty() {
                    plot.add_series(label, pts, color);
                }
            }
            let name = format!("fig{}{panel}{}_{site}.ppm", fig.number, c.tag);
            sink.file(name, plot.render().to_ppm());
        }

        for (algo, out) in algos.into_iter().zip([greedy, opt]) {
            let samples: Vec<_> = fig
                .curves
                .iter()
                .map(|c| sample_series(out, c.series, 1800.0))
                .collect();
            for (k, &(t, _)) in samples[0].iter().enumerate() {
                csv.push_str(&format!("{site},{algo},{t},{}", wall_label(t)));
                for (c, s) in fig.curves.iter().zip(&samples) {
                    let v = s.get(k).map_or(f64::NAN, |&(_, v)| v);
                    csv.push_str(&format!(",{}", (c.csv)(v)));
                }
                csv.push('\n');
            }
        }
    }
    sink.file(fig.csv.into(), csv.into_bytes());
}

/// Figures 3 & 4, the qualitative views. Figure 3: "Windspeed
/// visualization in finer resolution nest inside parent domain" — the
/// parent with the nest window outlined, plus the nest-only view.
/// Figure 4: "Visualization of Perturbation Pressure at 18:00 hours on
/// 23rd, 24th and 25th May, 2009", with the coastline and eye marked, and
/// the accumulated track as CSV.
fn figures34(_: &Runs, sink: &mut Sink) {
    // Decimation 4: sharper fields than the experiment default, still fast.
    let mission = Mission::aila();
    let mut model = WrfModel::new(mission.model.with_decimation(4)).expect("valid model");
    let mut track = TrackLog::new();
    let pressure = FrameRenderer {
        scale: 3,
        ..Default::default()
    };
    let wind = FrameRenderer {
        scalar: viz::ScalarField::Windspeed,
        scale: 3,
        ..Default::default()
    };

    // The paper's three epochs: 18:00 on May 23/24/25 = t = 24 h/48 h/72 h
    // — the mission ends at 60 h, so the last panel is taken at the final
    // state (25-May 06:00), as the experiments were also stopped early.
    for (i, hours) in [24.0, 48.0, 60.0].into_iter().enumerate() {
        model
            .advance_to_minutes(hours * 60.0, 2)
            .expect("finite integration");
        let p = model.min_pressure_hpa();
        let (res, nest) = mission.schedule.apply_with_hysteresis(
            p,
            model.config().resolution_km,
            model.has_nest(),
        );
        if nest && !model.has_nest() {
            model.spawn_nest();
        }
        if res != model.config().resolution_km {
            model.set_resolution(res).expect("schedule resolution");
        }
        let frame = model.frame();
        track.ingest(&frame);

        let at = Mission::format_sim_time(model.sim_minutes());
        let label = at.replace([' ', ':'], "_");
        let (lon, lat) = model.eye_lonlat();
        say!(
            sink,
            "fig4 panel {}: {at} — min pressure {p:.1} hPa, eye at ({lon:.1}E, {lat:.1}N)",
            i + 1
        );
        let img = pressure.render(&frame).expect("full frame renders");
        sink.file(format!("fig4_pressure_{label}.ppm"), img.to_ppm());

        // Figure 3: windspeed with the nest, once the nest exists.
        if model.has_nest() {
            say!(
                sink,
                "fig3: windspeed max {:.1} m/s, parent and nest views",
                model.max_wind_ms()
            );
            let full = wind.render(&frame).expect("parent renders");
            let nest_view = wind.render_nest(&frame).expect("nest renders");
            sink.file(format!("fig3_windspeed_parent_{label}.ppm"), full.to_ppm());
            sink.file(
                format!("fig3_windspeed_nest_{label}.ppm"),
                nest_view.to_ppm(),
            );
        }
    }

    say!(
        sink,
        "track: {} fixes, {:.1} degrees long, deepest {:.1} hPa",
        track.fixes().len(),
        track.length_deg(),
        track.min_pressure().expect("fixes exist")
    );
    sink.file("fig4_track.csv".into(), track.to_csv().into_bytes());
}

/// Ablations over the policy constants DESIGN.md §6 documents and the
/// paper leaves implicit, each row a full capped mission with one knob
/// moved: the decision interval, the restart overhead, WAN jitter, and
/// the algorithm ladder (static baseline vs greedy vs optimization on
/// every site — the framework's whole value proposition in one table).
fn ablation(_: &Runs, sink: &mut Sink) {
    let run_with = |kind, algo, mutate: &dyn Fn(&mut Site, &mut Mission)| {
        let mut site = Site::of_kind(kind);
        let mut mission = Mission::aila();
        mutate(&mut site, &mut mission);
        Orchestrator::new(site, mission, algo)
            .with_options(RunOptions {
                wall_cap_hours: 60.0,
                ..Default::default()
            })
            .run()
    };
    let mut csv = String::from(
        "study,variant,site,algorithm,completed,wall_hours,min_free_pct,frames,stalls\n",
    );
    // Adds the CSV row and returns the transcript's summary of the run.
    let mut record = |study: &str, variant: &str, out: &RunOutcome| {
        let (completed, wall, frames) = (out.completed, out.wall_hours, out.frames_written);
        let (min_free, stalls, site) = (out.min_free_disk_pct, out.stalls, out.site_label);
        let algo = out.algorithm.label();
        csv.push_str(&format!(
            "{study},{variant},{site},{algo},{completed},{wall:.2},{min_free:.2},{frames},{stalls}\n"
        ));
        format!(
            "completed={completed:<5} wall={wall:>6.1}h frames={frames:>4} minfree={min_free:>5.1}% \
             stalls={stalls} restarts={}",
            out.restarts
        )
    };
    let opt = AlgorithmKind::Optimization;

    sink.say("=== ablation 1: decision interval (intra-country, optimization) ===");
    for hours in [0.5, 1.5, 3.0, 6.0] {
        let out = run_with(SiteKind::IntraCountry, opt, &|_, m| {
            m.decision_interval_hours = hours
        });
        let row = record("decision_interval", &format!("{hours}h"), &out);
        say!(sink, "  epoch {hours:>4} h : {row}");
    }
    sink.say("(too-slow managers miss regime changes; too-fast ones add restart churn)\n");

    sink.say("=== ablation 2: restart overhead (inter-department, optimization) ===");
    for secs in [0.0, 180.0, 900.0, 3600.0] {
        let out = run_with(SiteKind::InterDepartment, opt, &|s, _| {
            s.cluster.restart_overhead_secs = secs
        });
        let row = record("restart_overhead", &format!("{secs}s"), &out);
        say!(sink, "  restart {secs:>5.0} s : {row}");
    }
    sink.say("");

    sink.say("=== ablation 3: network variability (cross-continent, optimization) ===");
    for var in [0.0, 0.3, 0.6] {
        let out = run_with(SiteKind::CrossContinent, opt, &|s, _| s.variability = var);
        let row = record("net_variability", &format!("{var}"), &out);
        say!(sink, "  jitter ±{:>3.0}% : {row}", var * 100.0);
    }
    sink.say("(the EMA bandwidth probe keeps the LP stable under jitter)\n");

    sink.say("=== ablation 4: the algorithm ladder (all sites) ===");
    for kind in SiteKind::all() {
        for algo in AlgorithmKind::all() {
            let out = run_with(kind, algo, &|_, _| {});
            let (site, algo) = (out.site_label, out.algorithm.label());
            let row = record("ladder", "-", &out);
            say!(sink, "  {site:<16} {algo:<22}: {row}");
        }
        sink.say("");
    }
    sink.file("ablation.csv".into(), csv.into_bytes());
}

/// The crash-consistency tax, measured: the live durable pipeline timed
/// end to end with durability off, then at successively tighter
/// checkpoint cadences. Every variant runs the same compressed mission
/// under `StaticBaseline`, so the output schedule is identical and the
/// elapsed wall time isolates the journal + checkpoint overhead.
fn checkpoint_cadence(_: &Runs, sink: &mut Sink) {
    let site = Site::inter_department();
    let mut mission = Mission::aila().with_duration_hours(2.0).with_decimation(16);
    mission.decision_interval_hours = 0.5;
    sink.say("=== checkpoint cadence (live durable pipeline, best of 5) ===");
    let mut csv = String::from("variant,completed,frames,stalls,elapsed_secs\n");
    let mut volatile_secs = None;
    for cadence_min in [0.0_f64, 60.0, 30.0, 10.0] {
        let durable = cadence_min > 0.0;
        let variant = if durable {
            format!("{cadence_min}min")
        } else {
            "volatile".to_string()
        };
        let tag = format!("ablation-ckpt-{variant}");
        let state_dir = std::env::temp_dir().join(format!("adaptive-{tag}-{}", std::process::id()));
        // Best of five repetitions: a single run is ~tens of ms, where
        // one cold fsync or a scheduler hiccup would swamp the signal.
        let mut elapsed = f64::INFINITY;
        let mut report = None;
        for _ in 0..5 {
            let mut options = OnlineOptions::fast(&tag);
            if durable {
                let _ = std::fs::remove_dir_all(&state_dir);
                options = options.with_durability(
                    DurabilityOptions::new(&state_dir).with_checkpoint_every_min(cadence_min),
                );
            }
            let started = Instant::now();
            let r = run_online(&site, &mission, AlgorithmKind::StaticBaseline, &options);
            elapsed = elapsed.min(started.elapsed().as_secs_f64());
            report = Some(r);
        }
        let report = report.expect("five repetitions ran");
        if durable {
            let _ = std::fs::remove_dir_all(&state_dir);
        }
        let base = *volatile_secs.get_or_insert(elapsed);
        let overhead = 100.0 * (elapsed - base) / base;
        let (completed, frames) = (report.completed, report.frames_written);
        say!(
            sink,
            "  cadence {variant:>8}: completed={completed} frames={frames:>3} \
             elapsed={elapsed:>6.3}s {overhead:+.1}% vs volatile"
        );
        csv.push_str(&format!(
            "{variant},{completed},{frames},{},{elapsed:.6}\n",
            report.stalls
        ));
    }
    sink.say("(fsync-per-frame journaling plus periodic snapshots, priced in wall time)");
    sink.file("checkpoint_cadence.csv".into(), csv.into_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_format_like_the_paper() {
        assert_eq!(wall_label(0.0), "00:00");
        assert_eq!(wall_label(2.5 * 3600.0), "02:30");
        assert_eq!(wall_label(26.0 * 3600.0), "26:00");
    }
}
