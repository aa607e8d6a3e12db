//! `repro [name…]` — regenerate the paper's tables and figures.
//!
//! Runs the named entries of [`repro_bench::repro::EXPERIMENTS`] (all of
//! them when no name is given), writes every file they produce under
//! `results/`, and prints their transcripts.

use repro_bench::repro::{run, EXPERIMENTS};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let mut chosen: Vec<_> = EXPERIMENTS.iter().collect();
    if !names.is_empty() {
        chosen = names
            .iter()
            .map(|name| {
                let e = EXPERIMENTS.iter().find(|e| e.name == name);
                e.unwrap_or_else(|| {
                    panic!("unknown experiment `{name}`; known: {}", known.join(" "))
                })
            })
            .collect();
    }
    let dir = repro_bench::results_dir();
    for (name, bytes) in run(&chosen).files {
        std::fs::write(dir.join(&name), &bytes).expect("results file is writable");
        if name.ends_with("_output.txt") {
            print!("{}", String::from_utf8_lossy(&bytes));
        }
    }
}
