//! Frames and checkpoints are born as bytes: the producer side streams
//! them from the solver's grids, and the ACPS container and checkpoint
//! bundle they land in are parsed as untrusted input. Both claims are held
//! here as *structure* under a recording allocator, not as a timing:
//!
//! - a warmed `frame_into` and a streamed `write_checkpoint` make no
//!   allocation anywhere near the size of what they serialize;
//! - every structure-aware mutation of a valid snapshot file, and of the
//!   checkpoint bundle inside a correctly checksummed one, is a typed
//!   `InvalidData` / a skipped file — never a panic, never an allocation
//!   beyond a small multiple of the file — and `load_newest_checkpoint`
//!   falls back past each one to the good checkpoint beside it.

#[path = "../crates/ncdf/tests/wire/alloc.rs"]
mod alloc;
#[path = "../crates/ncdf/tests/wire/mod.rs"]
mod wire;

use adaptive_core::config::ApplicationConfig;
use adaptive_core::manager::ManagerState;
use adaptive_core::recovery::{load_newest_checkpoint, write_checkpoint, CheckpointMeta};
use alloc::largest_alloc_during;
use std::io;
use std::path::{Path, PathBuf};
use wire::FieldKind;
use wrf::checkpoint::{read_snapshot_file, write_snapshot_file};
use wrf::{ModelConfig, WrfModel};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snapshot-stream-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn meta() -> CheckpointMeta {
    CheckpointMeta {
        sim_minutes: 60.0,
        next_output_min: 75.0,
        config: ApplicationConfig::initial(48, 15.0, 24.0),
        manager: ManagerState {
            epochs: 2,
            peak_bandwidth_bps: 1e6,
            degraded_epochs: 0,
        },
        stalls: 1,
        crashes: 0,
        applied_watermark: 3,
    }
}

fn checkpoint_file(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq:06}.acp"))
}

/// The `live_durable` model at its heaviest: decimation 2 at the finest
/// resolution of the schedule, with the nest up.
#[test]
fn snapshot_streaming_allocates_nothing_model_sized() {
    let cfg = ModelConfig::aila_default()
        .with_resolution(10.0)
        .with_decimation(2);
    let mut m = WrfModel::new(cfg).unwrap();
    m.advance_steps(2, 1).unwrap();
    m.spawn_nest();
    m.advance_steps(1, 1).unwrap();

    let mut buf = Vec::new();
    m.frame_into(&mut buf);
    let frame_len = buf.len();
    assert!(frame_len > 1 << 20, "a {frame_len} B frame proves little");
    let ((), largest) = largest_alloc_during(|| m.frame_into(&mut buf));
    assert_eq!(buf.len(), frame_len);
    assert!(
        largest < 64 << 10,
        "frame_into into a warmed buffer allocated a block of {largest} B"
    );

    let dir = tmpdir("alloc");
    let (written, largest) = largest_alloc_during(|| write_checkpoint(&dir, 0, &meta(), &m));
    written.unwrap();
    let file_len = std::fs::metadata(checkpoint_file(&dir, 0)).unwrap().len();
    assert!(
        file_len > 2 << 20,
        "a {file_len} B checkpoint proves little"
    );
    // The buffered writer (64 KiB) is the only large block.
    assert!(
        largest < 128 << 10,
        "write_checkpoint allocated a block of {largest} B for a {file_len} B file"
    );
    let (_, restored, seq, skipped) = load_newest_checkpoint(&dir).unwrap();
    assert_eq!((seq, skipped), (0, 0));
    assert_eq!(restored, m);
}

/// Reading may hold the file once, plus what decoding a *valid* model of
/// that size holds (its grids, then the model built from them): a small
/// multiple of the file, with a floor for tiny files. What it rules out is
/// an allocation sized by a field the file's bytes cannot back.
fn alloc_bound(file_len: usize) -> usize {
    3 * file_len + (64 << 10)
}

/// Plant `bytes` as checkpoint 1 beside the good checkpoint 0 and require
/// that the container (or the bundle inside it) is refused without a
/// panic or an outsized allocation, and that recovery lands on checkpoint 0.
fn assert_refused(dir: &Path, what: &str, bytes: &[u8], container_is_valid: bool) {
    let path = checkpoint_file(dir, 1);
    std::fs::write(&path, bytes).unwrap();
    let (read, read_peak) = largest_alloc_during(|| read_snapshot_file(&path));
    match read {
        Ok(_) => assert!(container_is_valid, "{what}: a damaged container verified"),
        Err(e) => {
            assert!(!container_is_valid, "{what}: {e}");
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}");
        }
    }
    let (loaded, load_peak) = largest_alloc_during(|| load_newest_checkpoint(dir));
    let (_, _, seq, skipped) = loaded.unwrap_or_else(|| panic!("{what}: no fallback"));
    assert_eq!((seq, skipped), (0, 1), "{what}: recovery did not fall back");
    // `load_peak` also covers decoding the good checkpoint it fell back to.
    let good_len = std::fs::metadata(checkpoint_file(dir, 0)).unwrap().len() as usize;
    let bound = alloc_bound(bytes.len().max(good_len));
    assert!(
        read_peak <= alloc_bound(bytes.len()) && load_peak <= bound,
        "{what}: allocated {read_peak} / {load_peak} B for a {} B file",
        bytes.len()
    );
}

#[test]
fn snapshot_container_mutations_fall_back_without_panic_or_big_allocation() {
    let dir = tmpdir("container");
    let mut m = WrfModel::new(ModelConfig::aila_default().with_decimation(16)).unwrap();
    m.advance_steps(2, 1).unwrap();
    write_checkpoint(&dir, 0, &meta(), &m).unwrap();
    let good = std::fs::read(checkpoint_file(&dir, 0)).unwrap();
    let payload_len = (good.len() - 20) as u64;
    let field = |at: usize, bytes: &[u8]| {
        let mut b = good.clone();
        b[at..at + bytes.len()].copy_from_slice(bytes);
        b
    };
    let crc = u32::from_le_bytes(good[8..12].try_into().unwrap());

    assert_refused(&dir, "magic", &field(0, b"ACPX"), false);
    assert_refused(&dir, "placeholder header", &field(0, &[0; 20]), false);
    assert_refused(&dir, "version 0", &field(4, &0u32.to_le_bytes()), false);
    assert_refused(&dir, "version 2", &field(4, &2u32.to_le_bytes()), false);
    assert_refused(&dir, "crc", &field(8, &(crc ^ 1).to_le_bytes()), false);
    for len in [0, payload_len - 1, payload_len + 1, u64::MAX - 19, u64::MAX] {
        let what = format!("length {len}");
        assert_refused(&dir, &what, &field(12, &len.to_le_bytes()), false);
    }
    for cut in [0, 3, 4, 8, 12, 19, 20, 21, good.len() / 2, good.len() - 1] {
        assert_refused(&dir, &format!("cut at {cut}"), &good[..cut], false);
    }
    let trailing = [&good[..], b"trailing garbage"].concat();
    assert_refused(&dir, "trailing garbage", &trailing, false);
    let mut flipped = good.clone();
    flipped[20 + payload_len as usize / 2] ^= 0x10;
    assert_refused(&dir, "payload bit flip", &flipped, false);
}

#[test]
fn snapshot_bundle_mutations_fall_back_without_panic_or_big_allocation() {
    let dir = tmpdir("bundle");
    let scratch = dir.join("scratch.acp");
    let mut m = WrfModel::new(ModelConfig::aila_default().with_decimation(16)).unwrap();
    m.advance_steps(2, 1).unwrap();
    m.spawn_nest();
    write_checkpoint(&dir, 0, &meta(), &m).unwrap();
    let bundle = read_snapshot_file(&checkpoint_file(&dir, 0)).unwrap();
    let meta_len = u32::from_le_bytes(bundle[..4].try_into().unwrap()) as usize;
    let (meta_json, model) = (&bundle[4..4 + meta_len], &bundle[4 + meta_len..]);
    assert_eq!(
        model,
        m.checkpoint(),
        "the bundle carries the streamed model"
    );

    // Each mutant goes into a correctly checksummed container, so the
    // bundle parser — not the CRC — is what has to refuse it.
    let refused = |what: &str, bundle: &[u8]| {
        write_snapshot_file(&scratch, bundle).unwrap();
        assert_refused(&dir, what, &std::fs::read(&scratch).unwrap(), true);
    };
    let with_meta =
        |len_field: u32, meta: &[u8]| [&len_field.to_le_bytes()[..], meta, model].concat();
    let remainder = (bundle.len() - 4) as u32;

    for cut in [0, 3, 4, 4 + meta_len / 2, 4 + meta_len, bundle.len() - 1] {
        refused(&format!("bundle cut at {cut}"), &bundle[..cut]);
    }
    for len in [
        0,
        meta_len as u32 - 1,
        meta_len as u32 + 1,
        remainder,
        remainder + 1,
        u32::MAX,
    ] {
        refused(&format!("meta_len {len}"), &with_meta(len, meta_json));
    }
    let mut not_utf8 = meta_json.to_vec();
    not_utf8[1] = 0xff;
    refused("non-UTF-8 meta", &with_meta(meta_len as u32, &not_utf8));
    let not_json = vec![b'['; meta_len];
    refused("non-JSON meta", &with_meta(meta_len as u32, &not_json));
    refused("meta of another shape", &with_meta(2, b"{}"));

    // The model blob, aimed at through the layout table: every dimension
    // length set to values that starve, overflow or transpose the grids.
    let ds = ncdf::Dataset::from_bytes(model).unwrap();
    let (blob, fields) = wire::encode_per_element(&ds);
    assert_eq!(blob, model, "the layout table describes this very blob");
    let dim_lens: Vec<_> = fields
        .iter()
        .filter(|f| f.kind == FieldKind::DimLen)
        .collect();
    assert_eq!(
        dim_lens.len(),
        4,
        "parent and nest, south-north and west-east"
    );
    let len_at = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
    let with_blob = |blob: &[u8]| [&bundle[..4 + meta_len], blob].concat();
    for f in &dim_lens {
        let current = len_at(f.at);
        for hostile in [
            0,
            1,
            current - 1,
            current + 1,
            current * 2,
            1 << 40,
            u64::MAX,
        ] {
            let mut b = blob.clone();
            b[f.at..f.at + 8].copy_from_slice(&hostile.to_le_bytes());
            refused(&format!("dim at {} = {hostile}", f.at), &with_blob(&b));
        }
    }
    // Transposed: the element counts still match, only the shape is wrong.
    for pair in dim_lens.chunks(2) {
        let (a, b) = (pair[0].at, pair[1].at);
        let mut t = blob.clone();
        t[a..a + 8].copy_from_slice(&len_at(b).to_le_bytes());
        t[b..b + 8].copy_from_slice(&len_at(a).to_le_bytes());
        refused(&format!("dims at {a} and {b} transposed"), &with_blob(&t));
    }

    // Not refused, and recorded as such: the exact decoder does not demand
    // end-of-input, so bytes after the last variable of a correctly
    // checksummed bundle are ignored and the same model comes back.
    let padded = [&bundle[..], b"trailing garbage"].concat();
    write_snapshot_file(&checkpoint_file(&dir, 1), &padded).unwrap();
    let (_, restored, seq, skipped) = load_newest_checkpoint(&dir).unwrap();
    assert_eq!((seq, skipped), (1, 0));
    assert_eq!(restored, m);
}
