//! Wire and disk bytes are a contract: the bulk encoder, the recycled
//! transport buffers and the leaner `WrfModel::frame()` must write exactly
//! what the per-element encoder and the grid-at-a-time frame wrote before.
//!
//! Three angles, so tier-1 holds the contract without the per-crate suites:
//! a per-element writer built from the documented layout (shared with the
//! `ncdf` property suite), the pipeline's own entry points against each
//! other over random model states and dirty buffers, and checksums of frames
//! and checkpoints recorded from the commit before the encoder changed.

#[path = "../crates/ncdf/tests/wire/mod.rs"]
mod wire;

use adaptive_core::qos::{self, QosRung};
use proptest::prelude::*;
use resources::crc32;
use wrf::{ModelConfig, WrfModel};

/// A model a few steps into a mission, on a grid small enough for debug
/// builds.
fn model(resolution_km: f64, decimation: usize, steps: usize, nest: bool) -> WrfModel {
    let cfg = ModelConfig::aila_default()
        .with_resolution(resolution_km)
        .with_decimation(decimation);
    let mut m = WrfModel::new(cfg).expect("valid config");
    m.advance_steps(steps, 1).expect("finite");
    if nest {
        m.spawn_nest();
        m.advance_steps(2, 2).expect("finite");
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encode_into_equals_the_per_element_layout(
        ds in wire::arb_dataset(),
        dirt in prop::collection::vec(any::<u8>(), 0..96),
        spare in 0usize..4096,
    ) {
        let (want, _) = wire::encode_per_element(&ds);
        prop_assert_eq!(ds.to_bytes().to_vec(), want.clone());
        // Recycled: stale bytes in it, capacity above or below the need.
        let mut out = Vec::with_capacity(spare);
        out.extend_from_slice(&dirt);
        ds.encode_into(&mut out);
        prop_assert_eq!(&out, &want);
        // The borrowed decode reads back what the owned one does.
        let view = ncdf::DatasetView::parse(&out).expect("valid");
        prop_assert_eq!(view.into_dataset(), ds);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn encode_frame_equals_frame_to_bytes(
        resolution_km in prop::sample::select(vec![24.0, 18.0, 15.0, 12.0, 10.0]),
        decimation in 8usize..=16,
        steps in 0usize..4,
        nest in any::<bool>(),
        dirt in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let m = model(resolution_km, decimation, steps, nest);
        let want = m.frame().to_bytes().to_vec();
        prop_assert_eq!(qos::encode_frame(&m, QosRung::FullRes), want.clone());
        prop_assert_eq!(qos::encode_body(&m, QosRung::FullRes), want.clone());

        // One buffer through the sizes a transport sees: dirty and small,
        // then holding a larger frame (finer grid), then a 33-byte fix.
        let mut buf = dirt;
        qos::encode_frame_into(&m, QosRung::FullRes, &mut buf);
        prop_assert_eq!(&buf, &want);
        let finer = model(resolution_km, decimation - 2, 1, true);
        qos::encode_frame_into(&finer, QosRung::FullRes, &mut buf);
        prop_assert_eq!(&buf, &finer.frame().to_bytes().to_vec());
        prop_assert!(buf.len() > want.len());
        qos::encode_frame_into(&m, QosRung::FullRes, &mut buf);
        prop_assert_eq!(&buf, &want);
        qos::encode_frame_into(&m, QosRung::TrackOnly, &mut buf);
        prop_assert_eq!(buf.len(), qos::FIX_BYTES + 1);
        qos::encode_frame_into(&m, QosRung::FullRes, &mut buf);
        prop_assert_eq!(&buf, &want);
    }
}

/// `(resolution_km, decimation, nest, frame bytes, frame crc32, checkpoint
/// bytes, checkpoint crc32)` as written by the per-element encoder and the
/// `pressure_field` / per-cell `is_land_km` frame of the parent commit
/// (5 steps on one rank, optional nest spawn, 3 steps on two ranks).
const PARENT_WRITES: [(f64, usize, bool, usize, u32, usize, u32); 4] = [
    (24.0, 8, false, 22505, 0xc8c298be, 34370, 0xc78531f0),
    (24.0, 8, true, 27570, 0x2887286f, 42208, 0x12d3f0de),
    (18.0, 6, true, 80712, 0xdf8a24e0, 123840, 0x4dea2cd9),
    (10.0, 12, true, 65965, 0x989f6353, 101184, 0x27707371),
];

#[test]
fn frames_and_checkpoints_match_what_the_parent_commit_wrote() {
    for (res, dec, nest, frame_len, frame_crc, ckpt_len, ckpt_crc) in PARENT_WRITES {
        let cfg = ModelConfig::aila_default()
            .with_resolution(res)
            .with_decimation(dec);
        let mut m = WrfModel::new(cfg).expect("valid config");
        m.advance_steps(5, 1).expect("finite");
        if nest {
            m.spawn_nest();
        }
        m.advance_steps(3, 2).expect("finite");
        let frame = qos::encode_frame(&m, QosRung::FullRes);
        assert_eq!(
            (frame.len(), crc32(&frame)),
            (frame_len, frame_crc),
            "frame at {res} km / {dec}"
        );
        let ckpt = m.checkpoint();
        assert_eq!(
            (ckpt.len(), crc32(&ckpt)),
            (ckpt_len, ckpt_crc),
            "checkpoint at {res} km / {dec}"
        );
        assert_eq!(WrfModel::restore(&ckpt).expect("restores"), m);
    }
}
