//! Criterion benches for the substrate crates: the dynamical core's step
//! (serial and on the rank team), the wire format, the renderer, and the
//! performance-model fit.

use criterion::{criterion_group, criterion_main, Criterion};
use perfmodel::{Sample, ScalingFit};
use std::hint::black_box;
use viz::FrameRenderer;
use wrf::{ModelConfig, WrfModel};

fn bench_wrf_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("wrf_step");
    group.sample_size(20);
    // The 24 km grid (~270×232 points). Worker counts beyond the host's
    // core count cannot speed this up (the reference runner is a 1-core
    // container, where these rows measure pure threading overhead); on a
    // multi-core host the shared rows show the row-band scaling.
    let cfg = ModelConfig::aila_default();
    let base = WrfModel::new(cfg).expect("valid");
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("shared/{threads}t"), |b| {
            let mut model = base.clone();
            b.iter(|| {
                model.advance_steps(1, threads).expect("finite");
                black_box(model.steps_taken())
            })
        });
    }
    group.finish();
}

fn bench_ncdf(c: &mut Criterion) {
    let mut model = WrfModel::new(ModelConfig::aila_default().with_decimation(2)).expect("valid");
    model.advance_steps(1, 4).expect("finite");
    let frame = model.frame();
    let bytes = frame.to_bytes();
    let mut group = c.benchmark_group("ncdf");
    group.bench_function(format!("encode_{}kb", bytes.len() / 1024), |b| {
        // One buffer for every iteration, as the live transports hold it.
        let mut out = Vec::new();
        b.iter(|| {
            frame.encode_into(&mut out);
            black_box(out.len())
        })
    });
    group.bench_function(format!("decode_{}kb", bytes.len() / 1024), |b| {
        b.iter(|| black_box(ncdf::Dataset::from_bytes(&bytes).expect("valid")))
    });
    group.finish();
}

fn bench_render(c: &mut Criterion) {
    let mut model = WrfModel::new(ModelConfig::aila_default().with_decimation(4)).expect("valid");
    model.advance_steps(2, 4).expect("finite");
    model.spawn_nest();
    let frame = model.frame();
    c.bench_function("render_frame", |b| {
        let renderer = FrameRenderer::default();
        b.iter(|| black_box(renderer.render(&frame).expect("renders")))
    });
}

fn bench_perfmodel(c: &mut Criterion) {
    let truth = ScalingFit::from_coeffs([0.3, 2.2e-3, 2e-3, 0.02]);
    let samples: Vec<Sample> = [1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 90.0]
        .iter()
        .map(|&p| Sample {
            procs: p,
            work: 1e5,
            time: truth.predict(p, 1e5),
        })
        .collect();
    c.bench_function("perfmodel_fit", |b| {
        b.iter(|| black_box(ScalingFit::fit(&samples).expect("fits")))
    });
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut model = WrfModel::new(ModelConfig::aila_default().with_decimation(4)).expect("valid");
    model.advance_steps(2, 4).expect("finite");
    model.spawn_nest();
    let blob = model.checkpoint();
    let mut group = c.benchmark_group("checkpoint");
    group.bench_function(format!("save_{}kb", blob.len() / 1024), |b| {
        b.iter(|| black_box(model.checkpoint().len()))
    });
    group.bench_function("restore", |b| {
        b.iter(|| black_box(WrfModel::restore(&blob).expect("valid")))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_wrf_step,
    bench_ncdf,
    bench_render,
    bench_perfmodel,
    bench_checkpoint
);
criterion_main!(benches);
