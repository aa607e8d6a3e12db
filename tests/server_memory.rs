//! The serving tier's heap as a budget. One test in this binary: the
//! recording allocator's byte counters see every thread of the process.
//!
//! A `FrameServer` with 256-frame retention is handed 300 distinct
//! 128 KiB bodies, a 32 MiB replay window. Only the hot tail may stay on
//! the heap (DESIGN §16, "Where a retained body lives"), so the peak live
//! heap while publishing and then draining the whole window from its tail
//! is at most `HOT_TAIL_BYTES + (LIVE_LAG_FRAMES + 1) × body + 1 MiB`.
//! Once the server is gone, no spill segment of this process is left in
//! the temp directory.

#[path = "../crates/ncdf/tests/wire/alloc.rs"]
mod alloc;

use climate_adaptive::adaptive::broker::LIVE_LAG_FRAMES;
use climate_adaptive::adaptive::qos::QosRung;
use climate_adaptive::adaptive::server::{FrameServer, ServerConfig, ServingMode};

/// The server's resident budget for written-through bodies
/// (`server::HOT_TAIL_BYTES`, private to the crate).
const HOT_TAIL_BYTES: usize = 8 << 20;
/// The spill segments' file-name prefix in the temp directory, before the
/// pid (`server::SPILL_PREFIX`).
const SPILL_PREFIX: &str = "afs-spill-";
const BODY_BYTES: usize = 128 << 10;
const RETENTION: u64 = 256;
const PUBLISHES: u64 = 300;

/// `BODY_BYTES` of noise unique to `seq`.
fn body(seq: u64) -> Vec<u8> {
    let mut z = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(seq + 1) | 1;
    let mut out = vec![0u8; BODY_BYTES];
    for chunk in out.chunks_mut(8) {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
    }
    out
}

fn spill_files_left() -> Vec<String> {
    let prefix = format!("{SPILL_PREFIX}{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir readable")
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

#[test]
fn server_heap_holds_the_hot_tail_not_the_replay_window() {
    let server = FrameServer::start(ServerConfig {
        mode: ServingMode::Local,
        retention_frames: RETENTION,
        ..ServerConfig::default()
    })
    .expect("local mode binds nothing");
    alloc::reset_peak();
    let start = alloc::live_bytes();
    for seq in 0..PUBLISHES {
        assert_eq!(server.publish(QosRung::FullRes, body(seq)), seq);
    }
    let mut viewer = server.local_viewer().expect("local mode");
    assert_eq!(viewer.drain_available(), RETENTION, "the whole window");
    let peak = alloc::peak_bytes() - start;
    let budget = HOT_TAIL_BYTES + (LIVE_LAG_FRAMES as usize + 1) * BODY_BYTES + (1 << 20);
    println!(
        "peak live heap {peak} B for a {} B window (budget {budget} B)",
        RETENTION as usize * BODY_BYTES
    );
    assert!(
        peak <= budget,
        "peak live heap {peak} B over the {budget} B budget: the replay window is on the heap"
    );
    drop(viewer);
    drop(server);
    assert_eq!(
        spill_files_left(),
        Vec::<String>::new(),
        "segments unlinked"
    );
}
