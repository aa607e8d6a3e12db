//! CI gate over `BENCH_physics.json` — the bench trajectory's honesty
//! checks, run after the profiling binary in the `bench-smoke` CI step.
//!
//! Validates the schema the profiling binary emits (schema_version 3,
//! one pooled measurement per grid × worker count) and the invariants the
//! repo's performance story rests on:
//!
//! 1. every measurement row carries a grid, a worker count and a positive
//!    time;
//! 2. `workers > host_cores` rows are marked `scaling_valid: false`
//!    (oversubscription must never masquerade as scaling);
//! 3. the `fit` section is either `null` with a stated `fit_refusal`, or
//!    a law fitted from >= MIN_SAMPLES honest rows with `r_squared` and
//!    a held-out error attached.
//!
//! Exits non-zero with a list of violations, so the CI step fails loudly.
//!
//! ```text
//! cargo run --release -p repro-bench --bin bench_check [-- path/to/BENCH_physics.json]
//! ```

use perfmodel::ScalingFit;
use serde::Value;

fn num(v: &Value, key: &str) -> Option<f64> {
    match v.get(key) {
        Some(Value::Num(n)) => Some(*n),
        _ => None,
    }
}

fn text<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn boolean(v: &Value, key: &str) -> Option<bool> {
    match v.get(key) {
        Some(Value::Bool(b)) => Some(*b),
        _ => None,
    }
}

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| {
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../BENCH_physics.json")
            .to_string_lossy()
            .into_owned()
    });
    let raw = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_check: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let root: Value = match serde_json::from_str(&raw) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_check: {path} is not valid JSON: {e}");
            std::process::exit(1);
        }
    };

    let mut errors: Vec<String> = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if !ok {
            errors.push(msg);
        }
    };

    // --- header ---------------------------------------------------------
    let schema = num(&root, "schema_version").unwrap_or(0.0);
    check(
        schema == 3.0,
        format!("schema_version must be 3, got {schema}"),
    );
    let host_cores = num(&root, "host_cores").unwrap_or(0.0);
    check(
        host_cores >= 1.0,
        format!("host_cores must be >= 1, got {host_cores}"),
    );
    check(
        text(&root, "unit") == Some("ms_per_step"),
        "unit must be \"ms_per_step\"".into(),
    );

    // --- measurement rows ------------------------------------------------
    let rows = match root.get("measurements") {
        Some(Value::Seq(rows)) if !rows.is_empty() => rows.clone(),
        _ => {
            eprintln!("bench_check: measurements must be a non-empty array");
            std::process::exit(1);
        }
    };
    let mut honest_rows = 0usize;
    for (i, row) in rows.iter().enumerate() {
        let res = num(row, "resolution_km").unwrap_or(-1.0);
        check(res > 0.0, format!("row {i}: bad resolution_km"));
        let workers = num(row, "workers").unwrap_or(-1.0);
        check(workers >= 1.0, format!("row {i}: bad workers"));
        let pooled = num(row, "pooled_ms").unwrap_or(-1.0);
        check(pooled > 0.0, format!("row {i}: bad pooled_ms"));
        match row.get("grid") {
            Some(Value::Seq(g)) if g.len() == 2 => {}
            _ => check(false, format!("row {i}: grid must be [nx, ny]")),
        }
        let valid = match boolean(row, "scaling_valid") {
            Some(v) => v,
            None => {
                check(false, format!("row {i}: missing scaling_valid"));
                false
            }
        };
        // The honesty rule: oversubscribed rows must say so.
        check(
            workers <= host_cores || !valid,
            format!(
                "row {i}: workers {workers} > host_cores {host_cores} but scaling_valid=true \
                 (oversubscription sold as scaling)"
            ),
        );
        if valid {
            honest_rows += 1;
        }
    }

    // --- fit section ------------------------------------------------------
    match root.get("fit") {
        Some(Value::Null) => {
            check(
                text(&root, "fit_refusal").is_some(),
                "fit is null but no fit_refusal reason is given".into(),
            );
        }
        Some(fit @ Value::Map(_)) => {
            let used = num(fit, "used_samples").unwrap_or(0.0);
            check(
                used >= ScalingFit::MIN_SAMPLES as f64,
                format!(
                    "fit claims only {used} samples; emitting a fit needs >= {}",
                    ScalingFit::MIN_SAMPLES
                ),
            );
            check(
                honest_rows >= ScalingFit::MIN_SAMPLES,
                format!("fit emitted but only {honest_rows} scaling_valid rows exist"),
            );
            let r2 = num(fit, "r_squared");
            check(
                r2.is_some_and(|r| (0.0..=1.0).contains(&r)),
                format!("fit r_squared must be in [0, 1], got {r2:?}"),
            );
            match fit.get("coeffs") {
                Some(Value::Seq(c)) if c.len() == 4 => {}
                other => check(
                    false,
                    format!("fit coeffs must be 4 numbers, got {other:?}"),
                ),
            }
            match fit.get("held_out") {
                Some(h @ Value::Map(_)) => {
                    check(
                        num(h, "rel_error").is_some_and(|e| e >= 0.0),
                        "held_out must report a non-negative rel_error".into(),
                    );
                }
                _ => check(false, "fit must carry a held_out section".into()),
            }
        }
        other => check(false, format!("fit must be a map or null, got {other:?}")),
    }

    if errors.is_empty() {
        println!(
            "bench_check: {path} OK ({} rows, {honest_rows} honest rows)",
            rows.len()
        );
    } else {
        eprintln!("bench_check: {path} FAILED:");
        for e in &errors {
            eprintln!("  - {e}");
        }
        std::process::exit(1);
    }
}
