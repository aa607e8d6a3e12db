//! Criterion bench for the AQZ1 delta + quantize codec.
//!
//! Encodes and decodes a smooth two-field frame shaped like the model's
//! visualization output (pressure + tracer on a 16 km-class grid slab),
//! plus the exact `Dataset::to_bytes` wire format as the baseline the
//! AQZ1 rung is traded against. The uncompressed payload size is printed
//! once so per-iteration times convert directly to throughput.
//!
//! A second group times the exact format on the largest frame the live
//! pipeline ships — the 10 km parent grid plus its nest, ≈ 9 MB — the way
//! the pipeline uses it: encode into a recycled buffer (from a `Dataset`,
//! and streamed from f64 grids with no `Dataset` in between), full owned
//! decode, and the viewer's borrowed parse that converts `pressure` only.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ncdf::codec::{decode_quantized, encode_quantized, ExactWriter};
use ncdf::{AttrValue, Data, Dataset, DatasetView};

/// A smooth synthetic frame: 2 f64 fields on a `ny`×`nx` grid plus a
/// byte mask, mirroring what the serving tier actually ships.
fn frame(ny: usize, nx: usize) -> Dataset {
    let mut ds = Dataset::new();
    ds.set_attr("title", AttrValue::Text("bench frame".into()));
    ds.set_attr("res_km", AttrValue::F64(16.0));
    let y = ds.add_dim("y", ny).unwrap();
    let x = ds.add_dim("x", nx).unwrap();
    let field = |fy: f64, fx: f64, amp: f64| -> Vec<f64> {
        (0..ny * nx)
            .map(|i| {
                let (j, k) = ((i / nx) as f64, (i % nx) as f64);
                1000.0 + amp * ((j * fy).sin() * (k * fx).cos())
            })
            .collect()
    };
    ds.add_var("pressure", &[y, x], Data::F64(field(0.031, 0.017, 12.0)))
        .unwrap();
    ds.add_var("tracer", &[y, x], Data::F64(field(0.013, 0.041, 0.8)))
        .unwrap();
    ds.add_var("mask", &[y, x], Data::U8(vec![1; ny * nx]))
        .unwrap();
    ds
}

/// The shape of `WrfModel::frame()` at 10 km with the nest up: five f32
/// fields and a byte mask on 557×645, five f32 fields on the 306×241 nest.
fn frame_10km_with_nest() -> Dataset {
    let mut ds = Dataset::new();
    ds.set_attr("title", AttrValue::Text("wrf-lite history frame".into()));
    ds.set_attr("sim_minutes", AttrValue::F64(1440.0));
    ds.set_attr(
        "domain_lonlat",
        AttrValue::F64List(vec![60.0, -10.0, 120.0, 40.0]),
    );
    let smooth = |n: usize, base: f32, amp: f32| -> Data {
        Data::F32(
            (0..n)
                .map(|i| base + amp * ((i % 977) as f32 * 0.013).sin())
                .collect(),
        )
    };
    let (ny, nx) = (557, 645);
    let y = ds.add_dim("south_north", ny).unwrap();
    let x = ds.add_dim("west_east", nx).unwrap();
    for (name, base, amp) in [
        ("eta", 0.0, 3.0),
        ("u", 0.0, 25.0),
        ("v", 0.0, 25.0),
        ("qvapor", 0.012, 0.004),
        ("pressure", 1000.0, 30.0),
    ] {
        ds.add_var(name, &[y, x], smooth(ny * nx, base, amp))
            .unwrap();
    }
    ds.add_var("landmask", &[y, x], Data::U8(vec![1; ny * nx]))
        .unwrap();
    let (nny, nnx) = (306, 241);
    let nyd = ds.add_dim("nest_south_north", nny).unwrap();
    let nxd = ds.add_dim("nest_west_east", nnx).unwrap();
    for (name, base, amp) in [
        ("nest_eta", 0.0, 3.0),
        ("nest_u", 0.0, 25.0),
        ("nest_v", 0.0, 25.0),
        ("nest_qvapor", 0.012, 0.004),
        ("nest_pressure", 990.0, 30.0),
    ] {
        ds.add_var(name, &[nyd, nxd], smooth(nny * nnx, base, amp))
            .unwrap();
    }
    ds
}

#[allow(clippy::neg_cmp_op_on_partial_ord)] // mirrors the viewer's NaN-catching compare
fn bench_frame_10km(c: &mut Criterion) {
    let ds = frame_10km_with_nest();
    let exact = ds.to_bytes();
    println!("frame10km: exact {} B", exact.len());

    let mut g = c.benchmark_group("frame10km");
    g.bench_function("exact_encode_into", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            ds.encode_into(&mut out);
            black_box(out.len())
        })
    });
    // The other sink of the same writer: no `Dataset` at all, each f32
    // record narrowed from an f64 grid as the solver holds it, the mask
    // made row by row — what `WrfModel::frame_into` does.
    g.bench_function("exact_stream_into", |b| {
        let mut head = Dataset::new();
        for (name, value) in ds.attrs() {
            head.set_attr(name, value.clone());
        }
        let ids: Vec<_> = ds
            .dims()
            .map(|d| head.add_dim(d.name.clone(), d.len).unwrap())
            .collect();
        // (name, dims, the f64 grid behind an f32 variable — none: the mask)
        let grids: Vec<_> = ds
            .vars()
            .map(|v| {
                let dims: Vec<_> = v.dims.iter().map(|d| ids[d.index()]).collect();
                let grid = v.data.as_f32().map(|_| v.data.to_f64_vec());
                (v.name.as_str(), dims, grid)
            })
            .collect();
        let none = std::collections::BTreeMap::new();
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            let mut w = ExactWriter::new(&mut out, &head, grids.len()).expect("Vec sink");
            for (name, dims, grid) in &grids {
                match grid {
                    Some(xs) => w.var_f32_from(name, dims, &none, xs, |x| x as f32),
                    None => w.var_u8_rows(name, dims, &none, (557, 645), |_, row| row.fill(1)),
                }
                .expect("Vec sink");
            }
            w.finish().expect("every record written");
            black_box(out.len())
        })
    });
    g.bench_function("exact_decode", |b| {
        b.iter(|| Dataset::from_bytes(&exact).expect("self-produced blob decodes"))
    });
    g.bench_function("exact_view_scan_pressure", |b| {
        b.iter(|| {
            let view = DatasetView::parse(&exact).expect("self-produced blob parses");
            let pressure = view.var("pressure").expect("present");
            // The viewer's scan (`viz::track`): one predictable branch per
            // element; the NaN exit keeps it a branch rather than a select,
            // whose dependency chain is several times slower.
            let mut min = f32::INFINITY;
            for v in pressure.f32s().expect("f32 payload") {
                if !(v >= min) {
                    if v.is_nan() {
                        return f32::NAN;
                    }
                    min = v;
                }
            }
            min
        })
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    // 180×208 ≈ the 16 km parent grid decimated 2× for the wire.
    let ds = frame(180, 208);
    let payload = ds.payload_bytes();
    let encoded = encode_quantized(&ds);
    let exact = ds.to_bytes();

    println!(
        "aqz1: payload {payload} B, encoded {} B ({:.1}% of exact {} B)",
        encoded.len(),
        100.0 * encoded.len() as f64 / exact.len() as f64,
        exact.len()
    );

    let mut g = c.benchmark_group("aqz1");
    g.bench_function("encode", |b| b.iter(|| encode_quantized(&ds)));
    g.bench_function("decode", |b| {
        b.iter(|| decode_quantized(&encoded).expect("self-produced blob decodes"))
    });
    // The exact format bounds what AQZ1 must beat to earn its rung.
    g.bench_function("exact_encode", |b| b.iter(|| ds.to_bytes()));
    g.bench_function("exact_decode", |b| {
        b.iter(|| Dataset::from_bytes(&exact).expect("self-produced blob decodes"))
    });
    g.finish();
}

criterion_group!(benches, bench_codec, bench_frame_10km);
criterion_main!(benches);
