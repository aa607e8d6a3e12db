//! Criterion benches for the dynamical core: one full integration step,
//! serial vs the persistent rank team, at each mission resolution. This
//! is the hot loop of the whole framework — the adaptation layer can only
//! trade simulation speed against visualization if a step actually gets
//! cheaper with more workers, so this bench is the ground truth behind
//! the perfmodel scaling law.
//!
//! The pooled entries are only faster than serial on a multi-core host;
//! the bench prints both regardless so a single-core CI run still catches
//! regressions in the per-step cost itself.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wrf::{Fields, ModelConfig, WorkerPool, WrfModel};

fn bench_step(c: &mut Criterion) {
    for resolution_km in [24.0, 16.0, 10.0] {
        let cfg = ModelConfig::aila_default().with_resolution(resolution_km);
        let model = WrfModel::new(cfg).expect("valid configuration");
        let fields = model.fields().clone();
        let vortex = model.vortex();
        let dt = model.dt_secs();
        let mut group = c.benchmark_group(format!("physics_step_{resolution_km}km"));
        for workers in [1usize, 2, 4] {
            // Exact team so the label is the team that actually runs,
            // even when it oversubscribes the host.
            let mut pool = WorkerPool::with_exact_team(workers);
            let mut out = Fields::zeros(1, 1, 1.0);
            group.bench_function(format!("{workers}w"), |b| {
                b.iter(|| {
                    let probe = pool.step(
                        black_box(&fields),
                        vortex,
                        &cfg.phys,
                        &cfg.vortex,
                        &cfg.geom,
                        dt,
                        &mut out,
                    );
                    black_box(probe)
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_step);
criterion_main!(benches);
