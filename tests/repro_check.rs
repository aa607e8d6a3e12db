//! The committed artefacts under `results/` are what the code writes.
//!
//! The `repro` binary's experiment table is included by path: the root
//! package already depends on every crate it uses. Each pinned entry runs
//! into the in-memory sink, and every file it writes must equal
//! `results/<file>` byte for byte. PPM charts are not committed; each is
//! checked for a whole raster instead. After an intended change,
//! regenerate with `cargo run --release -p repro-bench --bin repro [name…]`.

#[path = "../crates/bench/src/repro.rs"]
mod repro;

use repro::{run, Experiment, EXPERIMENTS};
use std::path::Path;

/// Table I's DES replay and Table IV's site presets: fast in any build.
#[test]
fn repro_tables_match_results() {
    check(&["table1", "table4"]);
}

/// Every pinned entry. The six canonical runs alone take minutes in a
/// debug build, so this runs in release:
/// `cargo test --release --test repro_check -- --ignored`.
#[test]
#[ignore = "release only"]
fn repro_every_pinned_entry_matches_results() {
    let pinned: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|e| e.pinned)
        .map(|e| e.name)
        .collect();
    check(&pinned);
}

fn check(names: &[&str]) {
    let chosen: Vec<&Experiment> = names
        .iter()
        .map(|&name| {
            let e = EXPERIMENTS
                .iter()
                .find(|e| e.name == name)
                .expect("a known experiment");
            assert!(e.pinned, "{name} is not pinned");
            e
        })
        .collect();
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut mismatches = Vec::new();
    for (name, written) in run(&chosen).files {
        if name.ends_with(".ppm") {
            assert_whole_raster(&name, &written);
            continue;
        }
        let committed = std::fs::read(results.join(&name))
            .unwrap_or_else(|e| panic!("results/{name} is not readable: {e}"));
        if committed != written {
            mismatches.push(format!(
                "results/{name}: {}",
                first_difference(&committed, &written)
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "pinned artefacts differ from what the code writes:\n{}",
        mismatches.join("\n")
    );
}

/// Where two different files first disagree, by line.
fn first_difference(committed: &[u8], written: &[u8]) -> String {
    let (committed, written) = (
        String::from_utf8_lossy(committed),
        String::from_utf8_lossy(written),
    );
    let (mut old, mut new) = (committed.lines(), written.lines());
    for line in 1.. {
        match (old.next(), new.next()) {
            (Some(a), Some(b)) if a == b => {}
            (None, None) => return "same lines, different line endings".into(),
            (a, b) => {
                let [a, b] = [a, b].map(|l| l.unwrap_or("<end of file>"));
                return format!(
                    "first difference at line {line}\n  committed: {a}\n  written:   {b}"
                );
            }
        }
    }
    unreachable!("the line counter is unbounded")
}

/// A binary P6 raster whose body holds exactly `width · height · 3` bytes.
fn assert_whole_raster(name: &str, ppm: &[u8]) {
    let parts: Vec<&[u8]> = ppm.splitn(4, |&b| b == b'\n').collect();
    let [b"P6", dims, b"255", body] = parts[..] else {
        panic!("{name}: not a binary P6 raster")
    };
    let dims = String::from_utf8_lossy(dims);
    let (width, height) = dims.split_once(' ').expect("width and height");
    let pixels =
        width.parse::<usize>().expect("a width") * height.parse::<usize>().expect("a height");
    assert_eq!(
        body.len(),
        3 * pixels,
        "{name}: a {dims} raster needs 3 bytes per pixel"
    );
}
