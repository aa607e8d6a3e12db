//! The repository's benchmark runner. See `README.md` beside `Cargo.toml`
//! for every metric and workload name; `BENCHMARK.json` at the root of
//! the repository names this package.
//!
//! ```text
//! frame-life-bench                     all five workloads, untraced
//! frame-life-bench --trace             ... plus a traced run of each (layer ledger)
//! frame-life-bench --selfcheck         the untraced set twice; fail if they disagree
//! frame-life-bench --workload <name> [--seed n] [--seconds s] [--trace 0|1]
//!                                      one workload in this process; the last
//!                                      line of stdout is the result object
//! ```

mod host;
mod ledger;
mod trace;
mod workloads;

use host::{Host, TempRoot};
use ledger::{Ledger, Metric};
use serde::Value;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workloads::{median, Rig, Sizes, Window, WORKLOADS};

/// Set-up is run this many times in a process; `setup_s` is the median.
const SETUP_PASSES: usize = 3;
/// Refuse to report a set-up shorter than this: it would measure process
/// start and scheduler jitter, not the program.
const MIN_SETUP_S: f64 = 0.5;
/// Refuse a timed window shorter than this share of `--seconds`.
const MIN_WINDOW_SHARE: f64 = 0.5;

/// Everything the runner writes, relative to this package's directory,
/// which `main` makes the working directory.
const OUT_DIR: &str = "out";

/// The command line without the program's own path, read through a stack
/// buffer.
///
/// Peak RSS must not depend on where the checkout lives. `des_storm`
/// grows a 31 MB client table by doubling beside the event queue, and
/// whether its last doubling copies (16 + 32 MB live at once) depends on
/// the heap layout the process started the storm with: built under a path
/// 13 characters longer, the same code read 59.0 MB instead of 43.5 MB.
/// So the runner keeps the checkout path off its heap: `std::env::args`
/// would allocate `argv[0]`, and every path below is relative.
fn command_line() -> Result<Vec<String>, String> {
    use std::io::Read;
    let mut buf = [0u8; 4096];
    let mut file = std::fs::File::open("/proc/self/cmdline").map_err(|e| e.to_string())?;
    let mut len = 0;
    loop {
        match file.read(&mut buf[len..]).map_err(|e| e.to_string())? {
            0 => break,
            n => len += n,
        }
        if len == buf.len() {
            return Err("command line longer than 4096 bytes".into());
        }
    }
    Ok(buf[..len]
        .split(|&b| b == 0)
        .skip(1)
        .filter(|arg| !arg.is_empty())
        .map(|arg| String::from_utf8_lossy(arg).into_owned())
        .collect())
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        selfcheck: false,
    };
    let mut it = command_line()?.into_iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` from the driver, bare `--trace` by hand.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    if let Err(e) = std::env::set_current_dir(env!("CARGO_MANIFEST_DIR")) {
        eprintln!(
            "frame-life-bench: enter {}: {e}",
            env!("CARGO_MANIFEST_DIR")
        );
        return ExitCode::FAILURE;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("frame-life-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => run_one(name, &args, started),
        None if args.selfcheck => selfcheck(&args),
        None => run_set(&args).map(|_| ()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("frame-life-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// One workload, in this process
// ---------------------------------------------------------------------

/// `{"<name>": {"value": <number>, "unit": "<unit>"}, ...}`
fn metric_object(metrics: &[Metric]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Map(vec![
                        ("value".into(), Value::Num(m.value)),
                        ("unit".into(), Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

fn describe_window(label: &str, w: &Window) {
    println!(
        "# {label}: window_s={:.3} frames={} frames_per_s={:.2} cpu_s={:.2} attempted={} failed={}",
        w.wall_s, w.frames, w.frames_per_s, w.cpu_s, w.attempted, w.failed
    );
    if !w.rep_rates.is_empty() {
        println!("#   repetition rates (1/s): {:.1?}", w.rep_rates);
    }
    for (name, count) in &w.counts {
        println!("#   count {name}={count}");
    }
    for e in &w.errors {
        println!("#   FAILED CHECK: {e}");
    }
}

fn run_one(name: &str, args: &Args, started: Instant) -> Result<(), String> {
    let mut tmp = TempRoot::create(Path::new(OUT_DIR), args.seed)
        .map_err(|e| format!("create a temp root under {OUT_DIR}/: {e}"))?;
    let host = Host::probe(tmp.path());
    let sizes = Sizes::for_seconds(args.seconds);
    println!(
        "# workload={name} seed={} seconds={} trace={} host_cores={} pool_team_of_two={} state_fs={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.cores,
        host.team_of_two,
        host.state_fs
    );
    println!("# sizes: {sizes:?}");

    let mut tracer = Tracer::new(args.trace, name, started);
    let (windows, metrics) = if args.trace {
        traced_run(name, args, &host, &mut tmp, &mut tracer)?
    } else {
        untraced_run(name, args, &host, &mut tmp, &mut tracer, started)?
    };
    drop(tmp);

    let attempted: u64 = windows.iter().map(|w| w.attempted).sum();
    let failed: u64 = windows.iter().map(|w| w.failed).sum();
    let correct = failed == 0 && windows.iter().all(|w| w.errors.is_empty());
    let min_window = MIN_WINDOW_SHARE * args.seconds;
    if let Some(w) = windows.iter().find(|w| w.wall_s < min_window) {
        return Err(format!(
            "refused: timed window {:.2} s < {min_window:.1} s measures start-up and scheduler \
             jitter, not the program; raise the sizes in workloads.rs for this host",
            w.wall_s
        ));
    }
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(attempted.max(1) as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        ("metrics".into(), metric_object(&metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("a Value tree always serializes")
    );
    if correct {
        Ok(())
    } else {
        Err(format!(
            "{name}: {failed} of {attempted} operations failed their output check"
        ))
    }
}

fn untraced_run(
    name: &str,
    args: &Args,
    host: &Host,
    tmp: &mut TempRoot,
    tracer: &mut Tracer,
    started: Instant,
) -> Result<(Vec<Window>, Vec<Metric>), String> {
    // Set up several times and report the median, so that one slow
    // start does not decide the number. The first pass is timed from
    // process start.
    let mut setups = Vec::with_capacity(SETUP_PASSES);
    let mut rig = None;
    for pass in 0..SETUP_PASSES {
        drop(rig.take());
        let t0 = if pass == 0 { started } else { Instant::now() };
        rig = Some(Rig::prepare(
            name,
            args.seed,
            args.seconds,
            host,
            tmp,
            tracer,
        )?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up pass");
    let setup_s = median(&setups);
    println!("# setup passes (s): {setups:?}");
    if setup_s < MIN_SETUP_S {
        return Err(format!(
            "refused: setup_s {setup_s:.3} s < {MIN_SETUP_S} s measures process start, not the \
             program; raise the warm-up sizes in workloads.rs for this host"
        ));
    }
    let w = rig.window(tmp, tracer);
    let rss = host::peak_rss_mb();
    drop(rig);
    describe_window("untraced", &w);
    let mut l = Ledger::default();
    l.put("frames_per_s", w.frames_per_s, "1/s");
    l.put("peak_rss_mb", rss, "MB");
    l.put("setup_s", setup_s, "s");
    Ok((vec![w], l.metrics))
}

fn traced_run(
    name: &str,
    args: &Args,
    host: &Host,
    tmp: &mut TempRoot,
    tracer: &mut Tracer,
) -> Result<(Vec<Window>, Vec<Metric>), String> {
    let mut rig = Rig::prepare(name, args.seed, args.seconds, host, tmp, tracer)?;
    // The same window twice on one rig: untraced for the reference wall,
    // then traced. Their difference is the tracing overhead.
    tracer.set_enabled(false);
    let reference = rig.window(tmp, tracer);
    tracer.set_enabled(true);
    let traced = rig.window(tmp, tracer);
    describe_window("reference (untraced)", &reference);
    describe_window("traced", &traced);
    let (team, bodies) = (rig.team(), rig.serve_bodies());
    drop(rig);

    let mut l = ledger::measure(args.seed, host, tmp, tracer, bodies)?;
    l.put(
        "run.cpu_ms_per_frame",
        traced.cpu_s * 1e3 / traced.frames.max(1) as f64,
        "ms",
    );
    l.put(
        "run.trace_overhead_share",
        (traced.wall_s - reference.wall_s) / reference.wall_s,
        "ratio",
    );
    l.put("run.window_s", traced.wall_s, "s");
    l.put(
        "ledger.coverage",
        ledger::coverage(&l, &traced, team),
        "ratio",
    );
    println!(
        "# scaling_valid={} (team-2 layer metrics)",
        host.scaling_valid()
    );
    for m in &l.metrics {
        println!("#   {:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let path = Path::new(OUT_DIR).join(format!("trace.{name}.json"));
    tracer
        .write_chrome_json(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "# {} spans written to {}",
        tracer.span_count(),
        path.display()
    );
    Ok((vec![reference, traced], l.metrics))
}

// ---------------------------------------------------------------------
// The whole set: one fresh process per workload
// ---------------------------------------------------------------------

/// What a child printed as its last line.
struct Reported {
    workload: &'static str,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Reported {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn run_child(workload: &'static str, args: &Args, trace: bool) -> Result<Reported, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let doc: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let num = |key: &str| match doc.get(key) {
        Some(Value::Num(n)) => Ok(*n as u64),
        _ => Err(format!("{workload}: result lacks {key}")),
    };
    let Some(Value::Map(entries)) = doc.get("metrics") else {
        return Err(format!("{workload}: result lacks metrics"));
    };
    let metrics = entries
        .iter()
        .filter_map(|(name, m)| match (m.get("value"), m.get("unit")) {
            (Some(Value::Num(value)), Some(Value::Str(unit))) => Some(Metric {
                name: name.clone(),
                value: *value,
                unit: unit.clone(),
            }),
            _ => None,
        })
        .collect();
    Ok(Reported {
        workload,
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
    })
}

fn run_set(args: &Args) -> Result<Vec<Reported>, String> {
    let mut reports = Vec::new();
    for workload in WORKLOADS {
        reports.push(run_child(workload, args, false)?);
    }
    let mut traced = Vec::new();
    if args.trace {
        for workload in WORKLOADS {
            traced.push(run_child(workload, args, true)?);
        }
    }
    println!();
    println!(
        "{:<14} {:>16} {:>12} {:>9} {:>10} {:>7}",
        "workload", "frames_per_s 1/s", "peak_rss_mb", "setup_s", "attempted", "failed"
    );
    for r in &reports {
        let get = |name: &str| r.metric(name).unwrap_or(f64::NAN);
        println!(
            "{:<14} {:>16.2} {:>12.2} {:>9.3} {:>10} {:>7}",
            r.workload,
            get("frames_per_s"),
            get("peak_rss_mb"),
            get("setup_s"),
            r.attempted,
            r.failed
        );
    }
    let as_value = |set: &[Reported]| {
        Value::Map(
            set.iter()
                .map(|r| {
                    (
                        r.workload.to_string(),
                        Value::Map(vec![
                            ("attempted".into(), Value::Num(r.attempted as f64)),
                            ("failed".into(), Value::Num(r.failed as f64)),
                            ("metrics".into(), metric_object(&r.metrics)),
                        ]),
                    )
                })
                .collect(),
        )
    };
    let doc = Value::Map(vec![
        ("seed".into(), Value::Num(args.seed as f64)),
        ("seconds".into(), Value::Num(args.seconds)),
        ("end_to_end".into(), as_value(&reports)),
        ("per_layer".into(), as_value(&traced)),
    ]);
    let path = Path::new(OUT_DIR).join("results.json");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| {
            std::fs::write(
                &path,
                serde_json::to_string_pretty(&doc).expect("a Value tree always serializes"),
            )
        })
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(reports)
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn declared_bounds() -> Result<Vec<(String, f64)>, String> {
    let path = Path::new("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Seq(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json lacks end_to_end".into());
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("bound")) {
            (Some(Value::Str(name)), Some(Value::Num(bound))) => Ok((name.clone(), *bound)),
            _ => Err("BENCHMARK.json: malformed end_to_end entry".to_string()),
        })
        .collect()
}

/// Run the untraced set twice, back to back, on the same code: every
/// end-to-end metric must agree within its declared bound and every
/// count exactly.
fn selfcheck(args: &Args) -> Result<(), String> {
    let bounds = declared_bounds()?;
    let first = run_set(args)?;
    let second = run_set(args)?;
    let mut broken = Vec::new();
    println!();
    println!("selfcheck: second set against the first");
    for (a, b) in first.iter().zip(&second) {
        if (a.attempted, a.failed) != (b.attempted, b.failed) {
            broken.push(format!(
                "{}: counts differ ({}/{} vs {}/{})",
                a.workload, a.attempted, a.failed, b.attempted, b.failed
            ));
        }
        for (name, bound) in &bounds {
            let (Some(x), Some(y)) = (a.metric(name), b.metric(name)) else {
                broken.push(format!("{}: {name} missing", a.workload));
                continue;
            };
            let rel = (y - x) / x;
            println!(
                "  {:<14} {:<13} {:>14.3} -> {:>14.3}  {:+.2} % (bound {:.0} %)",
                a.workload,
                name,
                x,
                y,
                rel * 100.0,
                bound * 100.0
            );
            // Identical code: a difference beyond the bound in either
            // direction is noise the bound cannot tell from a regression.
            if rel.abs() > *bound {
                broken.push(format!(
                    "{}: {name} differs by {:+.1} % on identical code (bound {:.0} %)",
                    a.workload,
                    rel * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    if broken.is_empty() {
        println!("selfcheck passed");
        Ok(())
    } else {
        Err(format!("selfcheck failed:\n  {}", broken.join("\n  ")))
    }
}
