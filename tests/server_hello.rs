//! Adversarial AHL2 hellos against a live `FrameServer` whose replay
//! window is mostly on disk, so the cursor in a hello selects a segment
//! read. One test in this binary: the per-connection allocation check
//! reads the recording allocator's process-wide byte counters.
//!
//! Hellos cut short at every byte, with the wrong magic, or trickled past
//! `handshake_deadline`; cursors `0`, `tail − 1`, `tail`, one in the cold
//! region, `head`, `head + 1` and `u64::MAX`, each from a client id the
//! server has never seen and from one it knows. Every case must end in a
//! counted outcome — a handshake failure, an admission at the clamped
//! cursor (then served byte-exactly from there), or a resume expiry —
//! never a panic, with `delivered + shed == cursor_advance` after each
//! and no connection allocating more than one body.

#[path = "../crates/ncdf/tests/wire/alloc.rs"]
mod alloc;

use climate_adaptive::adaptive::broker::BreakerConfig;
use climate_adaptive::adaptive::qos::QosRung;
use climate_adaptive::adaptive::resilience::crc32;
use climate_adaptive::adaptive::server::{FrameServer, ServerConfig, ServerCounters};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// 64 frames of 256 KiB are twice the server's 8 MiB hot tail: after 100
/// publishes the window is `[36, 100)` and `[36, 68)` lies on disk.
const RETENTION: u64 = 64;
const BODY_BYTES: usize = 256 << 10;
const PUBLISHES: u64 = 100;
const COLD: u64 = 40;
/// What a connection may allocate besides one body: its thread's
/// bookkeeping and the session table.
const SLACK: usize = 64 << 10;

/// `BODY_BYTES` of noise unique to ring sequence `seq`, into `out`.
fn fill_body(seq: u64, out: &mut [u8]) {
    let mut z = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(seq + 1) | 1;
    for chunk in out.chunks_mut(8) {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
    }
}

fn hello(client_id: u64, last_applied: u64) -> [u8; 20] {
    let mut h = [0u8; 20];
    h[0..4].copy_from_slice(b"AHL2");
    h[4..12].copy_from_slice(&client_id.to_le_bytes());
    h[12..20].copy_from_slice(&last_applied.to_le_bytes());
    h
}

fn dial(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !done() {
        assert!(t0.elapsed() < Duration::from_secs(10), "waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn assert_conserved(c: &ServerCounters, case: &str) {
    assert_eq!(
        c.frames_delivered + c.frames_shed,
        c.cursor_advance,
        "{case}: conservation {c:?}"
    );
}

/// Run one connection to its end and check what it cost the heap. A
/// client admitted at the head that hangs up is noticed only when the
/// next frame or the drain control is written to it, so `idle` such
/// connections may still count as connected.
fn case(server: &FrameServer, name: &str, idle: u64, run: impl FnOnce()) -> ServerCounters {
    alloc::reset_peak();
    let start = alloc::live_bytes();
    run();
    wait_for("the connection to end", || server.connected() == idle);
    // A serving thread that ends counts down `connected` after its buffer
    // is dropped; a failed handshake has none.
    std::thread::sleep(Duration::from_millis(20));
    let grew = alloc::peak_bytes().saturating_sub(start);
    assert!(
        grew <= BODY_BYTES + SLACK,
        "{name}: the connection allocated {grew} B, more than one body"
    );
    let c = server.counters();
    assert_conserved(&c, name);
    c
}

/// Read frames `admitted + 1 ..` (wire sequences) up to `n` of them,
/// check each against the published bytes, ack it, then hang up.
fn read_frames(stream: &mut TcpStream, admitted: u64, n: u64, got: &mut [u8], want: &mut [u8]) {
    for wire_seq in admitted + 1..=(admitted + n).min(PUBLISHES) {
        let mut header = [0u8; 21];
        stream.read_exact(&mut header).expect("frame header");
        fill_body(wire_seq - 1, want);
        assert_eq!(&header[0..4], b"AFR3");
        assert_eq!(header[4..12], wire_seq.to_le_bytes(), "sequence");
        assert_eq!(header[12..16], (BODY_BYTES as u32).to_le_bytes(), "length");
        assert_eq!(header[16..20], crc32(want).to_le_bytes(), "checksum");
        stream.read_exact(got).expect("body");
        assert!(got == want, "wire sequence {wire_seq} byte-identical");
        let mut ack = [b'+'; 9];
        ack[1..9].copy_from_slice(&wire_seq.to_le_bytes());
        stream.write_all(&ack).expect("ack");
    }
}

#[test]
fn server_hello_cases_all_end_in_a_counted_outcome() {
    let server = FrameServer::start(ServerConfig {
        retention_frames: RETENTION,
        max_backlog_frames: RETENTION,
        handshake_deadline: Duration::from_millis(300),
        // Every case's hang-up books a stall; none may quarantine an id.
        breaker: BreakerConfig {
            trip_after: u32::MAX,
            ..BreakerConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr().expect("remote mode");
    for seq in 0..PUBLISHES {
        let mut body = vec![0u8; BODY_BYTES];
        fill_body(seq, &mut body);
        server.publish(QosRung::FullRes, body);
    }
    let (tail, head) = (PUBLISHES - RETENTION, PUBLISHES);
    let (mut got, mut want) = (vec![0u8; BODY_BYTES], vec![0u8; BODY_BYTES]);

    // --- hellos that never complete ---------------------------------------
    let mut failures = 0;
    let good = hello(1, 0);
    for cut in 0..good.len() {
        failures += 1;
        let c = case(&server, &format!("hello cut at byte {cut}"), 0, || {
            let mut stream = dial(addr);
            stream.write_all(&good[..cut]).expect("partial hello");
            stream.shutdown(Shutdown::Write).expect("FIN");
            wait_for("the handshake failure", || {
                server.counters().handshake_failures == failures
            });
        });
        assert_eq!(c.admitted_sessions, 0);
    }
    failures += 1;
    case(&server, "wrong magic", 0, || {
        let mut bad = good;
        bad[0..4].copy_from_slice(b"AHL1");
        dial(addr).write_all(&bad).expect("hello");
        wait_for("the handshake failure", || {
            server.counters().handshake_failures == failures
        });
    });
    failures += 1;
    case(&server, "trickled hello", 0, || {
        let mut stream = dial(addr);
        let t0 = Instant::now();
        for byte in good.chunks(1) {
            // The server hangs up at its deadline; a write after that may
            // fail, which ends the trickle.
            if stream.write_all(byte).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(40));
        }
        assert!(t0.elapsed() > Duration::from_millis(300));
        wait_for("the handshake failure", || {
            server.counters().handshake_failures == failures
        });
    });
    assert_eq!(server.counters().admitted_sessions, 0);

    // --- every cursor, from a new and from a known client id --------------
    let cursors = [0, tail - 1, tail, COLD, head, head + 1, u64::MAX];
    let mut id = 100;
    let mut idle = 0;
    for known in [false, true] {
        for cursor in cursors {
            id += 1;
            let name = format!("hello cursor {cursor}, known id {known}");
            if known {
                // The id's session sits at the tail: admitted there, gone
                // before the first frame is acked.
                case(
                    &server,
                    &format!("{name} (placing the session)"),
                    idle,
                    || {
                        let mut stream = dial(addr);
                        stream.write_all(&hello(id, tail)).expect("hello");
                        let mut verdict = [0u8; 9];
                        stream.read_exact(&mut verdict).expect("admission");
                        assert_eq!(verdict[0], b'+');
                    },
                );
            }
            let before = server.counters();
            // Where the server must place the client: a first contact joins
            // live on a zero hello and otherwise keeps its place, expired
            // cursors move up to the tail; a known session never moves
            // back, and moves up to an applied cursor it has not booked.
            let admitted = match (known, cursor) {
                (false, 0) => head,
                (false, c) => c.clamp(tail, head),
                (true, c) => c.clamp(tail, head),
            };
            let expired = !known && cursor != 0 && cursor < tail;
            idle += u64::from(admitted == head);
            let after = case(&server, &name, idle, || {
                let mut stream = dial(addr);
                stream.write_all(&hello(id, cursor)).expect("hello");
                let mut verdict = [0u8; 9];
                stream.read_exact(&mut verdict).expect("admission");
                assert_eq!(verdict[0], b'+', "{name}: admitted");
                assert_eq!(verdict[1..9], admitted.to_le_bytes(), "{name}: cursor");
                read_frames(&mut stream, admitted, 3, &mut got, &mut want);
            });
            assert_eq!(
                after.resume_failures - before.resume_failures,
                u64::from(expired),
                "{name}: resume expiry"
            );
            assert_eq!(after.admitted_sessions - before.admitted_sessions, 1);
            assert_eq!(after.handshake_failures, failures);
        }
    }

    let report = server.drain();
    assert_conserved(&report.counters, "drain");
    assert_eq!(report.counters.quarantined_clients, 0);
}
