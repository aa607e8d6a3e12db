//! Benchmark profiling runs — the paper's calibration procedure, run for
//! real against our own dynamical core.
//!
//! "The execution times of a subset of configurations have been
//! experimentally found by running sample WRF runs ... for different
//! discrete number of processors, spanning the available processor space
//! and using performance modeling or curve fitting tools to interpolate
//! for other number of processors."
//!
//! This binary does exactly that with the in-repo solver: time real
//! integration steps on the persistent rank team ([`wrf::WorkerPool`],
//! the only engine that steps a model — DESIGN.md §17) across worker
//! counts and workloads (resolutions), fit the scaling law with
//! `perfmodel` from the honest rows only, report its held-out error and
//! the sign of ∂t/∂p, and emit the machine-readable baseline
//! `BENCH_physics.json` at the repo root for future regressions.
//!
//! ```text
//! cargo run --release -p repro-bench --bin profiling [-- --quick]
//! ```
//!
//! # Honesty rules
//!
//! - A worker count beyond the host's cores measures *oversubscription*,
//!   not scaling. Those rows are recorded (they calibrate pool overhead)
//!   but marked `scaling_valid: false`, and neither the fit nor the
//!   adaptation-premise verdict reads them.
//! - The fit consumes only `scaling_valid: true` rows. Fewer than
//!   [`ScalingFit::MIN_SAMPLES`] such rows and the binary **refuses to
//!   emit a fit at all** (`"fit": null` plus a `fit_refusal` reason) —
//!   an unidentifiable law is worse than no law.
//! - On a single-core host every valid row has `procs = 1`, so the
//!   collectives column of the law is unobservable; the fit pins that
//!   coefficient to zero and the premise verdict is refused for lack of
//!   a processor axis. Workload scaling (resolution sweep) is still
//!   measured and fitted honestly.

use perfmodel::{ProcTable, Sample, ScalingFit};
use repro_bench::write_artifact;
use std::fmt::Write as _;
use std::time::Instant;
use wrf::{Fields, ModelConfig, WorkerPool};

/// Print a report line and append it to the text artifact
/// (`results/profiling_output.txt`).
macro_rules! out {
    ($report:expr, $($arg:tt)*) => {{
        let line = format!($($arg)*);
        println!("{line}");
        $report.push_str(&line);
        $report.push('\n');
    }};
}

struct Measurement {
    resolution_km: f64,
    nx: usize,
    ny: usize,
    workers: usize,
    pooled_secs: f64,
}

/// The physics state one resolution's measurements run on.
struct Workload {
    cfg: ModelConfig,
    fields: Fields,
}

impl Workload {
    fn new(resolution_km: f64) -> Self {
        let cfg = ModelConfig::aila_default().with_resolution(resolution_km);
        let model = wrf::WrfModel::new(cfg).expect("valid configuration");
        Workload {
            cfg,
            fields: model.fields().clone(),
        }
    }

    fn work_points(&self) -> f64 {
        (self.fields.nx() * self.fields.ny()) as f64
    }

    /// Seconds per step on the persistent pool (double-buffered, warm).
    /// The work is deterministic, so the *minimum* over `repeats` timed
    /// passes is the least-noise estimator — scheduler and frequency
    /// jitter only ever add time, never subtract it.
    fn time_pooled(&self, workers: usize, steps: usize, repeats: usize) -> f64 {
        let model = wrf::WrfModel::new(self.cfg).expect("valid configuration");
        let vortex = model.vortex();
        let dt = model.dt_secs();
        // Exact team: the profiled worker count must be the team that
        // actually runs, even oversubscribed, or the fit's processor axis
        // would silently be the clamped count.
        let mut pool = WorkerPool::with_exact_team(workers);
        let mut cur = self.fields.clone();
        let mut out = Fields::zeros(1, 1, 1.0);
        // Warm-up: spawn the team, shape the scratch buffers.
        pool.step(
            &cur,
            vortex,
            &self.cfg.phys,
            &self.cfg.vortex,
            &self.cfg.geom,
            dt,
            &mut out,
        );
        let mut best = f64::INFINITY;
        for _ in 0..repeats.max(1) {
            let start = Instant::now();
            for _ in 0..steps {
                pool.step(
                    &cur,
                    vortex,
                    &self.cfg.phys,
                    &self.cfg.vortex,
                    &self.cfg.geom,
                    dt,
                    &mut out,
                );
                std::mem::swap(&mut cur, &mut out);
            }
            best = best.min(start.elapsed().as_secs_f64() / steps as f64);
        }
        best
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let worker_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 6, 8] };
    // Four resolutions so that even a single-core host (every multi-worker
    // row oversubscribed) yields MIN_SAMPLES honest rows for the fit via
    // the workload axis.
    let resolutions: &[f64] = if quick {
        &[24.0]
    } else {
        &[48.0, 32.0, 24.0, 16.0]
    };
    let steps = if quick { 2 } else { 8 };
    // Each cell is the min over this many timed passes — see time_pooled.
    let repeats = if quick { 1 } else { 3 };
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut report = String::new();
    out!(
        report,
        "profiling the dynamical core (real measurements, host cores = {host_cores}, \
         {steps} steps x {repeats} passes per cell, min taken)\n"
    );
    let scaling_valid = |workers: usize| workers <= host_cores;
    let mut measurements = Vec::new();
    let mut csv = String::from("resolution_km,workers,secs_per_step\n");
    for &res in resolutions {
        let wl = Workload::new(res);
        let (nx, ny) = (wl.fields.nx(), wl.fields.ny());
        out!(
            report,
            "resolution {res} km ({nx}x{ny} grid, W = {:.0} points):",
            wl.work_points()
        );
        for &w in worker_counts {
            let pooled = wl.time_pooled(w, steps, repeats);
            out!(
                report,
                "  {w} workers: {:.2} ms/step{}",
                pooled * 1e3,
                if scaling_valid(w) {
                    ""
                } else {
                    "  [oversubscribed: no scaling claim]"
                },
            );
            let _ = writeln!(csv, "{res},{w},{pooled:.6}");
            measurements.push(Measurement {
                resolution_km: res,
                nx,
                ny,
                workers: w,
                pooled_secs: pooled,
            });
        }
    }
    write_artifact("profiling_runs.csv", &csv);

    // Re-fit the scaling law from the honest rows only.
    let fit_samples: Vec<Sample> = measurements
        .iter()
        .filter(|m| scaling_valid(m.workers))
        .map(|m| Sample {
            procs: m.workers as f64,
            work: (m.nx * m.ny) as f64,
            time: m.pooled_secs,
        })
        .collect();
    let fit = if fit_samples.len() < ScalingFit::MIN_SAMPLES {
        Err(format!(
            "only {} scaling_valid rows, need {} — refusing to fit",
            fit_samples.len(),
            ScalingFit::MIN_SAMPLES
        ))
    } else {
        ScalingFit::fit(&fit_samples).map_err(|e| format!("fit failed: {e}"))
    };

    let finest = *resolutions.last().expect("non-empty");
    let work = Workload::new(finest).work_points();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema_version\": 3,");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"steps_timed\": {steps},");
    let _ = writeln!(json, "  \"unit\": \"ms_per_step\",");
    let _ = writeln!(json, "  \"measurements\": [");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 == measurements.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"resolution_km\": {}, \"grid\": [{}, {}], \"workers\": {}, \
             \"pooled_ms\": {:.4}, \"scaling_valid\": {}}}{comma}",
            m.resolution_km,
            m.nx,
            m.ny,
            m.workers,
            m.pooled_secs * 1e3,
            scaling_valid(m.workers),
        );
    }
    let _ = writeln!(json, "  ],");

    match &fit {
        Ok(fit) => {
            let c = fit.coeffs();
            out!(
                report,
                "\nfitted law ({} honest rows): t = {:.2e} + {:.2e}(W/p) + \
                 {:.2e}sqrt(W/p) + {:.2e}log2(p)   (R2 = {:.3}, fingerprint {:016x})",
                fit_samples.len(),
                c[0],
                c[1],
                c[2],
                c[3],
                fit.r_squared(),
                fit.fingerprint(),
            );

            // Held-out check on a workload the fit never saw: one worker,
            // 20 km — always an honest configuration.
            let held = Workload::new(20.0);
            let measured = held.time_pooled(1, steps, repeats);
            let predicted = fit.predict(1.0, held.work_points());
            let held_out_rel = (predicted - measured).abs() / measured;
            out!(
                report,
                "held-out (1 worker @ 20 km, W = {:.0}): measured {:.2} ms, \
                 fit predicts {:.2} ms ({:.1}% off)",
                held.work_points(),
                measured * 1e3,
                predicted * 1e3,
                held_out_rel * 100.0
            );

            // The paper's adaptation premise on the re-fit law: is ∂t/∂p
            // negative (more processors → faster) over the measured range?
            // Meaningless without at least two worker counts on real
            // cores, and the verdict says so.
            let mut dt_dp = Vec::new();
            let mut all_negative = true;
            let mut deriv_line = format!("d(t)/d(p) at fixed W = {work:.0}:");
            for &w in worker_counts {
                let p = w as f64;
                let d = fit.d_dt_d_procs(p, work);
                if scaling_valid(w) {
                    all_negative &= d < 0.0;
                }
                dt_dp.push((p, d));
                let _ = write!(deriv_line, "  p={p:.0}: {d:+.2e}");
            }
            out!(report, "{deriv_line}");
            let valid_counts = worker_counts.iter().filter(|&&w| scaling_valid(w)).count();
            let premise = if valid_counts < 2 {
                "refused"
            } else if all_negative {
                "holds"
            } else {
                "violated"
            };
            match premise {
                "refused" => out!(
                    report,
                    "adaptation premise (negative d(t)/d(p)): REFUSED — host has {host_cores} \
                     core(s) but scaling needs >=2 worker counts on real cores; rows with \
                     workers > cores measure oversubscription, not scaling"
                ),
                "holds" => out!(
                    report,
                    "adaptation premise (negative d(t)/d(p) over the {valid_counts} on-core \
                     worker counts): holds"
                ),
                _ => out!(
                    report,
                    "adaptation premise (negative d(t)/d(p) over the {valid_counts} on-core \
                     worker counts): does NOT hold on this host"
                ),
            }

            // The table the decision algorithms would consume from this fit.
            let table = ProcTable::from_fit(fit, work, worker_counts);
            out!(report, "\nderived processor table @ {finest} km:");
            for &(p, t) in table.entries() {
                out!(report, "  {p:>2} workers -> {:.2} ms/step", t * 1e3);
            }

            let _ = writeln!(
                json,
                "  \"fit\": {{\"coeffs\": [{:e}, {:e}, {:e}, {:e}], \
                 \"r_squared\": {:.4}, \"fingerprint\": \"{:016x}\", \"used_samples\": {}, \
                 \"held_out\": {{\"workers\": 1, \
                 \"resolution_km\": 20, \"measured_ms\": {:.4}, \"predicted_ms\": {:.4}, \
                 \"rel_error\": {:.4}}}}},",
                c[0],
                c[1],
                c[2],
                c[3],
                fit.r_squared(),
                fit.fingerprint(),
                fit_samples.len(),
                measured * 1e3,
                predicted * 1e3,
                held_out_rel,
            );
            let _ = writeln!(
                json,
                "  \"dt_dp\": [{}],",
                dt_dp
                    .iter()
                    .map(|(p, d)| format!("{{\"procs\": {p}, \"value\": {d:e}}}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let _ = writeln!(
                json,
                "  \"scaling_claim\": {{\"premise\": \"{premise}\", \
                 \"on_core_worker_counts\": {valid_counts}, \
                 \"note\": \"rows with scaling_valid=false ran more workers than host cores and \
                 measure oversubscription, not scaling; the fit reads only scaling_valid \
                 rows\"}}"
            );
        }
        Err(reason) => {
            out!(report, "\nNO FIT EMITTED: {reason}");
            let _ = writeln!(json, "  \"fit\": null,");
            let _ = writeln!(json, "  \"fit_refusal\": \"{reason}\",");
            let _ = writeln!(json, "  \"dt_dp\": [],");
            let _ = writeln!(
                json,
                "  \"scaling_claim\": {{\"premise\": \"refused\", \
                 \"on_core_worker_counts\": 0, \
                 \"note\": \"no fit: {reason}\"}}"
            );
        }
    }
    json.push_str("}\n");
    write_artifact("profiling_output.txt", &report);
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_physics.json");
    std::fs::write(&path, json).expect("repo root is writable");
    println!("  [wrote {}]", path.display());
}
