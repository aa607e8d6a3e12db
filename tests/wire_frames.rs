//! AFR3 on the wire, seen from outside the crate: raw `TcpStream` peers
//! against `FrameServer`, `RemoteViewer` and `FrameReceiver`, public API
//! only.
//!
//! The 21-byte headers here are laid out by hand from DESIGN §16
//! (`AFR3 | u64 LE seq | u32 LE len | u32 LE crc32(body) | u8 rung`), so
//! this file is also the independent oracle for the crate's private
//! header codec. Two contracts:
//!
//! - **What the server writes is pinned.** A raw AHL2 client captures
//!   header + body for live frames, for a replay after reconnecting with
//!   an older cursor, and across `drain()` → `start_resuming`. Every
//!   header equals the hand layout, a replayed frame is byte-identical to
//!   its live delivery, and each stream's length + CRC-32 matches what
//!   the commit *before* checksums moved into the ring entry wrote.
//! - **What a hostile peer sends costs the receiver nothing up front.**
//!   Bad magic, unknown rung, oversized length, a 1 GiB length backed by
//!   ten bytes (then FIN, or then silence), CRC mismatch, truncated body:
//!   the viewer drops the connection, resumes from its watermark and
//!   still applies `1..=N` exactly once; the receiver daemon nacks or
//!   closes as before. Under a recording allocator no single allocation
//!   in this whole test binary exceeds one growth step (1 MiB) plus slack.

use climate_adaptive::adaptive::net_transport::FrameReceiver;
use climate_adaptive::adaptive::qos::{encode_fix, QosRung};
use climate_adaptive::adaptive::resilience::crc32;
use climate_adaptive::adaptive::server::{
    FrameServer, RemoteViewer, ServerConfig, ViewerConfig, ViewerEnd,
};
use climate_adaptive::viz::EyeFix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Recording allocator (the idea of `crates/ncdf/tests/proptest_roundtrip.rs`,
// process-wide because the receivers under test run on their own threads)
// ---------------------------------------------------------------------------

/// Largest single allocation any thread of this test binary has made.
static LARGEST_ALLOC: AtomicUsize = AtomicUsize::new(0);

struct Recording;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an atomic high-water mark,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: same block, same layout, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Recording = Recording;

/// One receive-buffer growth step plus slack for everything else a test
/// process allocates. Nothing in this file builds a body anywhere near it,
/// so the high-water mark of the whole binary is the receivers'.
const ALLOC_BOUND: usize = (1 << 20) + (64 << 10);

/// The receivers' frame-length cap (`net_transport::MAX_FRAME_BYTES`, which
/// is crate-private): the largest length a header may advertise.
const MAX_FRAME_BYTES: u32 = 1 << 30;

fn assert_no_allocation_ahead_of_the_bytes(who: &str) {
    // The recorder is live: it saw this probe, which is under the bound.
    let probe = std::hint::black_box(vec![1u8; 300 << 10]);
    assert!(LARGEST_ALLOC.load(Ordering::Relaxed) >= probe.len());
    let largest = LARGEST_ALLOC.load(Ordering::Relaxed);
    assert!(
        largest <= ALLOC_BOUND,
        "{who}: a single allocation of {largest} B was made while at most a \
         few bytes of any advertised body had arrived (bound {ALLOC_BOUND} B)"
    );
}

// ---------------------------------------------------------------------------
// The wire, by hand
// ---------------------------------------------------------------------------

const HEADER_BYTES: usize = 21;
const TRACK_ONLY: u8 = 3;

/// DESIGN §16: `AFR3 | u64 LE seq | u32 LE len | u32 LE crc | u8 rung`.
fn afr3(seq: u64, len: u32, crc: u32, rung: u8) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[0..4].copy_from_slice(b"AFR3");
    h[4..12].copy_from_slice(&seq.to_le_bytes());
    h[12..16].copy_from_slice(&len.to_le_bytes());
    h[16..20].copy_from_slice(&crc.to_le_bytes());
    h[20] = rung;
    h
}

/// An honest frame: header for `body`, then `body`.
fn afr3_frame(seq: u64, rung: u8, body: &[u8]) -> Vec<u8> {
    let mut out = afr3(seq, body.len() as u32, crc32(body), rung).to_vec();
    out.extend_from_slice(body);
    out
}

/// The serving tier's drain control, in the AFR3 slot:
/// `ACT1 | u64 LE resume cursor | 8 zero bytes | kind 1`.
fn act1_drain(cursor: u64) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[0..4].copy_from_slice(b"ACT1");
    h[4..12].copy_from_slice(&cursor.to_le_bytes());
    h[20] = 1;
    h
}

/// 9-byte status record (acks and admission verdicts share the shape).
fn status(byte: u8, value: u64) -> [u8; 9] {
    let mut s = [0u8; 9];
    s[0] = byte;
    s[1..9].copy_from_slice(&value.to_le_bytes());
    s
}

fn read_status(stream: &mut TcpStream) -> (u8, u64) {
    let mut s = [0u8; 9];
    stream.read_exact(&mut s).expect("9-byte status record");
    (
        s[0],
        u64::from_le_bytes(s[1..9].try_into().expect("8 bytes")),
    )
}

fn canonical_fix(i: u64) -> EyeFix {
    EyeFix {
        sim_minutes: i as f64,
        lon: 80.0 + i as f64 * 0.01,
        lat: 15.0 + i as f64 * 0.005,
        pressure_hpa: 990.0 - (i % 50) as f64,
    }
}

/// The body that travels under wire sequence `seq` in the hostile-peer
/// tests: a track-only fix.
fn fix_body(seq: u64) -> [u8; 32] {
    encode_fix(&canonical_fix(seq))
}

/// Loopback socket settings every raw peer here uses.
fn tuned(stream: TcpStream) -> TcpStream {
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
}

/// Block until the peer hangs up, having sent nothing more (no ack, no
/// nack); how long that took. Panics if it is still there after `limit`.
fn wait_for_hangup(stream: &mut TcpStream, limit: Duration) -> Duration {
    let t0 = Instant::now();
    stream.set_read_timeout(Some(limit)).expect("read timeout");
    match stream.read(&mut [0u8; 64]) {
        Ok(0) => {}
        Ok(n) => panic!("peer answered with {n} bytes instead of hanging up"),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            panic!("peer still connected after {limit:?}")
        }
        // A reset is a hang-up too.
        Err(_) => {}
    }
    t0.elapsed()
}

/// What a hostile peer puts where frame `seq` should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attack {
    BadMagic,
    UnknownRung,
    OversizedLength,
    HugeLengthTenBytesThenFin,
    HugeLengthTenBytesThenSilence,
    CrcMismatch,
    TruncatedBody,
}

const ATTACKS: [Attack; 7] = [
    Attack::BadMagic,
    Attack::UnknownRung,
    Attack::OversizedLength,
    Attack::HugeLengthTenBytesThenFin,
    Attack::HugeLengthTenBytesThenSilence,
    Attack::CrcMismatch,
    Attack::TruncatedBody,
];

impl Attack {
    /// The bytes sent in place of frame `seq`, and whether the write side
    /// is then closed.
    fn bytes(self, seq: u64) -> (Vec<u8>, bool) {
        let body = fix_body(seq);
        let crc = crc32(&body);
        let then = |header: [u8; HEADER_BYTES], sent: &[u8]| [&header[..], sent].concat();
        match self {
            // Header-only where the header alone is the violation, so the
            // peer closes on an empty socket (a FIN, not a reset).
            Attack::BadMagic => {
                let mut header = afr3(seq, 32, crc, TRACK_ONLY);
                header[0..4].copy_from_slice(b"AFR2");
                (header.to_vec(), false)
            }
            Attack::UnknownRung => (afr3(seq, 32, crc, 9).to_vec(), false),
            Attack::OversizedLength => {
                let header = afr3(seq, MAX_FRAME_BYTES + 1, crc, TRACK_ONLY);
                (header.to_vec(), false)
            }
            Attack::HugeLengthTenBytesThenFin | Attack::HugeLengthTenBytesThenSilence => {
                let header = afr3(seq, MAX_FRAME_BYTES, crc, TRACK_ONLY);
                let fin = self == Attack::HugeLengthTenBytesThenFin;
                (then(header, &body[..10]), fin)
            }
            Attack::CrcMismatch => {
                let mut torn = body;
                torn[17] ^= 0x40;
                (then(afr3(seq, 32, crc, TRACK_ONLY), &torn), false)
            }
            Attack::TruncatedBody => (then(afr3(seq, 32, crc, TRACK_ONLY), &body[..16]), true),
        }
    }
}

// ---------------------------------------------------------------------------
// Hostile server against `RemoteViewer`
// ---------------------------------------------------------------------------

/// Accept one viewer connection: read its AHL2 hello, admit it at the
/// cursor it claims, and return the stream with that cursor.
fn admit_viewer(listener: &TcpListener) -> (TcpStream, u64) {
    let mut stream = tuned(listener.accept().expect("viewer connects").0);
    let mut hello = [0u8; 20];
    stream.read_exact(&mut hello).expect("20-byte hello");
    assert_eq!(&hello[0..4], b"AHL2");
    let cursor = u64::from_le_bytes(hello[12..20].try_into().expect("8 bytes"));
    stream.write_all(&status(b'+', cursor)).expect("admission");
    (stream, cursor)
}

/// Send honest frame `seq` and require the viewer's ack for exactly it.
fn serve_honest(stream: &mut TcpStream, seq: u64) {
    stream
        .write_all(&afr3_frame(seq, TRACK_ONLY, &fix_body(seq)))
        .expect("frame written");
    assert_eq!(read_status(stream), (b'+', seq), "ack for frame {seq}");
}

#[test]
fn viewer_survives_hostile_frames_and_applies_every_sequence_once() {
    const TOTAL: u64 = 12;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let io_timeout = ViewerConfig::loopback(1, 7).io_timeout;

    let viewer = std::thread::spawn(move || {
        let mut viewer = RemoteViewer::new(addr, ViewerConfig::loopback(1, 7));
        let end = viewer.run(&AtomicBool::new(false));
        (viewer, end)
    });

    // One connection per attack: an honest frame first (so every resume
    // starts one further on), then the attack where the next frame belongs.
    for (k, attack) in ATTACKS.into_iter().enumerate() {
        let (mut stream, cursor) = admit_viewer(&listener);
        assert_eq!(
            cursor, k as u64,
            "connection {k} resumes from the watermark, before {attack:?}"
        );
        serve_honest(&mut stream, cursor + 1);
        let (bytes, fin) = attack.bytes(cursor + 2);
        stream.write_all(&bytes).expect("attack written");
        if fin {
            stream.shutdown(Shutdown::Write).expect("FIN");
        }
        // The viewer ends the connection within its one I/O deadline (only
        // the silent peer makes it wait that long) and never acks.
        let took = wait_for_hangup(&mut stream, io_timeout + Duration::from_secs(3));
        assert!(
            took < io_timeout + Duration::from_secs(2),
            "{attack:?}: hang-up took {took:?}"
        );
    }

    // The honest successor: everything after the watermark, then a drain.
    let (mut stream, cursor) = admit_viewer(&listener);
    assert_eq!(cursor, ATTACKS.len() as u64);
    for seq in cursor + 1..=TOTAL {
        serve_honest(&mut stream, seq);
    }
    stream.write_all(&act1_drain(TOTAL)).expect("drain control");

    let (viewer, end) = viewer.join().expect("viewer thread");
    assert_eq!(end, ViewerEnd::Drained);
    let want: Vec<u64> = (1..=TOTAL).collect();
    assert_eq!(viewer.applied_seqs(), want.as_slice(), "1..=N, once each");
    let s = viewer.stats();
    assert_eq!(
        (s.delivered, s.deduped, s.shed, s.decode_failures),
        (TOTAL, 0, 0, 0)
    );
    assert_eq!(s.reconnects, ATTACKS.len() as u64);
    let fixes = viewer.track().fixes();
    assert_eq!(fixes.len() as u64, TOTAL);
    for (fix, seq) in fixes.iter().zip(1..) {
        assert_eq!(encode_fix(fix), fix_body(seq), "fix {seq} bit-exact");
    }
    assert_no_allocation_ahead_of_the_bytes("RemoteViewer");
}

// ---------------------------------------------------------------------------
// Hostile sender against `FrameReceiver`
// ---------------------------------------------------------------------------

/// Connect to the receiver daemon and read its 12-byte hello.
fn dial_receiver(addr: SocketAddr) -> (TcpStream, u64) {
    let mut stream = tuned(TcpStream::connect(addr).expect("connect"));
    let mut hello = [0u8; 12];
    stream.read_exact(&mut hello).expect("12-byte hello");
    assert_eq!(&hello[0..4], b"AHL2");
    (
        stream,
        u64::from_le_bytes(hello[4..12].try_into().expect("8 bytes")),
    )
}

#[test]
fn receiver_daemon_nacks_or_closes_on_hostile_frames_and_keeps_its_track() {
    let receiver = FrameReceiver::start().expect("bind");
    let addr = receiver.addr();
    let mut applied = 0u64;

    // The silent peer is kept for last: the daemon serves one connection at
    // a time and has no body deadline, only its stop flag.
    for attack in ATTACKS
        .into_iter()
        .filter(|a| *a != Attack::HugeLengthTenBytesThenSilence)
    {
        let (mut stream, hello) = dial_receiver(addr);
        assert_eq!(
            hello, applied,
            "hello reports the watermark, before {attack:?}"
        );
        applied += 1;
        stream
            .write_all(&afr3_frame(applied, TRACK_ONLY, &fix_body(applied)))
            .expect("honest frame");
        assert_eq!(read_status(&mut stream), (b'+', applied));

        let (bytes, fin) = attack.bytes(applied + 1);
        stream.write_all(&bytes).expect("attack written");
        if fin {
            stream.shutdown(Shutdown::Write).expect("FIN");
        }
        match attack {
            Attack::BadMagic | Attack::UnknownRung | Attack::OversizedLength => {
                assert_eq!(read_status(&mut stream), (b'!', applied), "{attack:?}");
            }
            Attack::CrcMismatch => {
                // Rejected, not fatal: the same connection still works.
                assert_eq!(read_status(&mut stream), (b'-', applied));
                applied += 1;
                stream
                    .write_all(&afr3_frame(applied, TRACK_ONLY, &fix_body(applied)))
                    .expect("honest frame after the nack");
                assert_eq!(read_status(&mut stream), (b'+', applied));
                drop(stream);
                continue;
            }
            _ => {}
        }
        // Violations and cut-off bodies end the connection, ack-less.
        wait_for_hangup(&mut stream, Duration::from_secs(3));
    }

    let (mut stream, hello) = dial_receiver(addr);
    assert_eq!(hello, applied);
    let (bytes, _) = Attack::HugeLengthTenBytesThenSilence.bytes(applied + 1);
    stream.write_all(&bytes).expect("attack written");
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        receiver.last_applied(),
        applied,
        "nothing applied on a promise"
    );
    let t0 = Instant::now();
    let track = receiver.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "a body that never arrives does not hold up shutdown ({:?})",
        t0.elapsed()
    );

    assert_eq!(
        track.fixes().len() as u64,
        applied,
        "honest frames, once each"
    );
    for (fix, seq) in track.fixes().iter().zip(1..) {
        assert_eq!(encode_fix(fix), fix_body(seq), "fix {seq} bit-exact");
    }
    assert_no_allocation_ahead_of_the_bytes("FrameReceiver");
}

// ---------------------------------------------------------------------------
// What `FrameServer` writes
// ---------------------------------------------------------------------------

/// Bodies of the pinned stream: the server never decodes, so three shapes
/// (a fix, a few KB of noise, one byte) at three rungs.
fn golden_body(i: u64) -> (QosRung, Vec<u8>) {
    match i % 3 {
        0 => (QosRung::TrackOnly, fix_body(i).to_vec()),
        1 => {
            let mut z = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1);
            let noise = (0..5000)
                .map(|_| {
                    z ^= z << 13;
                    z ^= z >> 7;
                    z ^= z << 17;
                    z as u8
                })
                .collect();
            (QosRung::FullRes, noise)
        }
        _ => (QosRung::Thumbnail, vec![0xA5]),
    }
}

/// A raw AHL2 serving-tier client.
struct RawClient {
    stream: TcpStream,
    /// Everything the server sent after the admission, in order.
    captured: Vec<u8>,
}

impl RawClient {
    /// Hello as `client_id` at `last_applied`; returns the client and the
    /// cursor the server admitted it at.
    fn connect(addr: SocketAddr, client_id: u64, last_applied: u64) -> (Self, u64) {
        let mut stream = tuned(TcpStream::connect(addr).expect("connect"));
        let mut hello = [0u8; 20];
        hello[0..4].copy_from_slice(b"AHL2");
        hello[4..12].copy_from_slice(&client_id.to_le_bytes());
        hello[12..20].copy_from_slice(&last_applied.to_le_bytes());
        stream.write_all(&hello).expect("hello");
        let (verdict, cursor) = read_status(&mut stream);
        assert_eq!(verdict, b'+', "admitted");
        (
            RawClient {
                stream,
                captured: Vec::new(),
            },
            cursor,
        )
    }

    fn read_header(&mut self) -> [u8; HEADER_BYTES] {
        let mut header = [0u8; HEADER_BYTES];
        self.stream.read_exact(&mut header).expect("21-byte header");
        self.captured.extend_from_slice(&header);
        header
    }

    /// Read one frame, check its header against the hand layout for ring
    /// entry `wire_seq - 1`, and (optionally) ack it.
    fn expect_frame(&mut self, wire_seq: u64, ack: bool) {
        let (rung, body) = golden_body(wire_seq - 1);
        let header = self.read_header();
        assert_eq!(
            header,
            afr3(wire_seq, body.len() as u32, crc32(&body), rung.as_byte()),
            "header of wire sequence {wire_seq}"
        );
        let mut got = vec![0u8; body.len()];
        self.stream.read_exact(&mut got).expect("body");
        assert_eq!(got, body, "body of wire sequence {wire_seq}");
        self.captured.extend_from_slice(&got);
        if ack {
            self.stream.write_all(&status(b'+', wire_seq)).expect("ack");
        }
    }
}

fn publish_golden(server: &FrameServer, ring_seq: u64) {
    let (rung, body) = golden_body(ring_seq);
    assert_eq!(server.publish(rung, body), ring_seq);
}

fn wait_connected(server: &FrameServer, n: u64) {
    let t0 = Instant::now();
    while server.connected() != n {
        assert!(t0.elapsed() < Duration::from_secs(5), "want {n} connected");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// `(bytes, crc32)` of each captured stream as the parent commit — which
/// checksummed in `write_frame`, per client and per replay — wrote it.
const PARENT_LIVE: (usize, u32) = (5096, 0x0b90e802);
const PARENT_REPLAY: (usize, u32) = (5043, 0x61944c63);
const PARENT_HANDOFF: (usize, u32) = (5074, 0x184ad323);

#[test]
fn server_writes_the_same_bytes_live_replayed_and_across_a_drain_handoff() {
    let cfg = || ServerConfig {
        handshake_deadline: Duration::from_secs(2),
        write_deadline: Duration::from_secs(2),
        ack_deadline: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let server = FrameServer::start(cfg()).expect("bind");
    let addr = server.addr().expect("remote mode");

    // Two clients join at head 0: `steady` acks everything, `laggard`
    // reads frame 2 and goes away without acking it.
    let (mut steady, at) = RawClient::connect(addr, 7, 0);
    assert_eq!(at, 0);
    let (mut laggard, at) = RawClient::connect(addr, 9, 0);
    assert_eq!(at, 0);
    wait_connected(&server, 2);
    for ring_seq in 0..3 {
        publish_golden(&server, ring_seq);
    }
    for wire_seq in 1..=3 {
        steady.expect_frame(wire_seq, true);
    }
    laggard.expect_frame(1, true);
    laggard.expect_frame(2, false);
    drop(laggard);

    // --- replay: the laggard is back with the older cursor ---------------
    let (mut laggard, at) = RawClient::connect(addr, 9, 1);
    assert_eq!(at, 1, "resumes where its acks stopped");
    laggard.expect_frame(2, true);
    laggard.expect_frame(3, true);
    let first = HEADER_BYTES + golden_body(0).1.len();
    assert_eq!(
        laggard.captured,
        steady.captured[first..],
        "a replayed frame is the live frame, byte for byte"
    );

    // --- drain: each client is handed its resume cursor -------------------
    let live = std::mem::take(&mut steady.captured);
    let replay = std::mem::take(&mut laggard.captured);
    let report = server.drain();
    for client in [&mut steady, &mut laggard] {
        assert_eq!(client.read_header(), act1_drain(3));
    }
    assert_eq!(report.head, 3);
    assert_eq!(report.resume_cursors.get(&7), Some(&3));
    assert_eq!(report.resume_cursors.get(&9), Some(&3));
    let c = report.counters;
    assert_eq!(c.frames_delivered + c.frames_shed, c.cursor_advance);
    assert_eq!((c.frames_delivered, c.frames_shed), (6, 0));

    // --- handoff: the successor continues the sequence space --------------
    let successor = FrameServer::start_resuming(cfg(), report.head).expect("bind");
    let addr = successor.addr().expect("remote mode");
    let (mut resumed, at) = RawClient::connect(addr, 7, 3);
    assert_eq!(at, 3);
    wait_connected(&successor, 1);
    publish_golden(&successor, 3);
    publish_golden(&successor, 4);
    resumed.expect_frame(4, true);
    resumed.expect_frame(5, true);

    for (name, stream, parent) in [
        ("live", &live, PARENT_LIVE),
        ("replay", &replay, PARENT_REPLAY),
        ("handoff", &resumed.captured, PARENT_HANDOFF),
    ] {
        assert_eq!(
            (stream.len(), crc32(stream)),
            parent,
            "{name} stream differs from what the parent commit wrote: ({}, {:#010x})",
            stream.len(),
            crc32(stream)
        );
    }
}
