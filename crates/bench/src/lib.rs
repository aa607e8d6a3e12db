//! Harness for the paper's experiments and the criterion benches.
//!
//! [`repro`] holds the table of experiments that regenerates every table
//! and figure of the paper (run by the `repro` binary; DESIGN.md §4 is the
//! index). The two helpers below are for `profiling`, which writes its
//! measured artefacts directly.

pub mod repro;

use std::path::PathBuf;

/// Where result files land (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&dir).expect("results directory is creatable");
    dir
}

/// Write a CSV artifact and report where it went.
pub fn write_artifact(name: &str, contents: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).expect("results file is writable");
    println!("  [wrote {}]", path.display());
}
