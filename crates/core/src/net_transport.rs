//! TCP frame transport — the frame sender/receiver daemons as real
//! network programs.
//!
//! The DES and in-process online modes model the link; this module is the
//! deployable path: a receiver daemon listens on a socket at the
//! visualization site, the sender connects from the simulation site, and
//! frames travel as length-prefixed [`ncdf`] blobs. Wire protocol v3
//! makes the link restartable and rung-aware:
//!
//! ```text
//! handshake (receiver → sender, once per connection):
//!     magic "AHL2" | u64 LE last-applied sequence
//! frame (sender → receiver):
//!     magic "AFR3" | u64 LE sequence | u32 LE payload length
//!                  | u32 LE CRC-32 of payload | u8 degradation rung
//!                  | payload
//! ack (receiver → sender, after every frame):
//!     status byte | u64 LE last-applied sequence
//! ```
//!
//! The rung byte (v3's addition over v2) tells the receiver how to
//! decode the payload — full-resolution dataset, quantized dataset,
//! thumbnail, or a bare eye fix (see [`crate::qos::QosRung`]) — so a
//! sender walking the degradation ladder mid-stream stays decodable
//! frame by frame. An unknown rung is a protocol violation.
//!
//! Sequences start at 1 (`0` = nothing applied yet). The receiver applies
//! a frame at most once: a sequence at or below its last-applied value is
//! acknowledged without being re-applied, which is what lets a sender
//! replay everything unacknowledged after a reconnect without double
//! visualization. Status bytes: `+` applied (or deduplicated), `-` the
//! payload was rejected (undecodable or CRC mismatch — resending the same
//! bytes will not help), `!` protocol violation (bad magic or oversized
//! length) — a terminal nack sent just before the receiver drops the
//! connection, so the sender sees an explicit refusal instead of a bare
//! reset.
//!
//! All sender sockets carry connect/read/write timeouts so a dead or
//! frozen receiver surfaces as [`TransportError::Timeout`] instead of a
//! hang. The recovery loop (reconnect, backoff, resume-from-last-ack)
//! lives in [`crate::resilience::ResilientSender`].

use crate::qos::{self, QosRung};
use crate::resilience::crc32;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use viz::TrackLog;

const FRAME_MAGIC: &[u8; 4] = b"AFR3";
/// Magic bytes opening the resume handshake ("AHL2"): the receiver's
/// hello carries its last-applied sequence so a sender — or the broker's
/// per-client cursors ([`crate::broker`]) — resumes exactly where the
/// peer left off instead of replaying the stream from frame one.
pub const HANDSHAKE_MAGIC: &[u8; 4] = b"AHL2";
/// Upper bound on a frame payload (defends the receiver against a corrupt
/// length prefix).
const MAX_FRAME_BYTES: u32 = 1 << 30;
/// Default socket connect/read/write timeout for senders.
const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(5);

pub(crate) const ACK_APPLIED: u8 = b'+';
pub(crate) const ACK_REJECTED: u8 = b'-';
pub(crate) const ACK_PROTOCOL: u8 = b'!';

/// Size of an `AFR3` frame header (and of the serving tier's `ACT1`
/// control record, which rides in the same slot).
pub(crate) const HEADER_BYTES: usize = 21;
/// Most a receive buffer grows past the body bytes that have actually
/// arrived (see [`read_body`]).
const BODY_GROWTH_STEP: usize = 1 << 20;

/// The `AFR3` frame header: the one place its byte layout is written
/// down. Both senders build it, both receivers parse it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameHeader {
    /// 1-based wire sequence.
    pub(crate) seq: u64,
    /// Body length in bytes.
    pub(crate) len: u32,
    /// CRC-32 of the body.
    pub(crate) crc: u32,
    /// Degradation rung the body was encoded at.
    pub(crate) rung: QosRung,
}

/// Why 21 bytes are not a frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeaderError {
    /// The first four bytes are not `AFR3`.
    BadMagic,
    /// The rung byte names no [`QosRung`].
    UnknownRung,
    /// The advertised length exceeds [`MAX_FRAME_BYTES`].
    Oversized,
}

impl FrameHeader {
    /// `AFR3 | u64 LE seq | u32 LE len | u32 LE crc | u8 rung`.
    pub(crate) fn to_bytes(self) -> [u8; HEADER_BYTES] {
        let mut header = [0u8; HEADER_BYTES];
        header[..4].copy_from_slice(FRAME_MAGIC);
        header[4..12].copy_from_slice(&self.seq.to_le_bytes());
        header[12..16].copy_from_slice(&self.len.to_le_bytes());
        header[16..20].copy_from_slice(&self.crc.to_le_bytes());
        header[20] = self.rung.as_byte();
        header
    }

    /// Decode and validate a header; nothing is allocated or read on its
    /// word until this returns `Ok`.
    pub(crate) fn parse(header: &[u8; HEADER_BYTES]) -> Result<Self, HeaderError> {
        if &header[..4] != FRAME_MAGIC {
            return Err(HeaderError::BadMagic);
        }
        let rung = QosRung::from_byte(header[20]).ok_or(HeaderError::UnknownRung)?;
        let len = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
        if len > MAX_FRAME_BYTES {
            return Err(HeaderError::Oversized);
        }
        Ok(Self {
            seq: u64::from_le_bytes(header[4..12].try_into().expect("8 bytes")),
            len,
            crc: u32::from_le_bytes(header[16..20].try_into().expect("4 bytes")),
            rung,
        })
    }
}

/// Receive a `len`-byte body into the front of `buf` — a per-connection
/// buffer reused across frames — and return it. `fill` reads exactly the
/// slice it is handed (under whatever deadline or stop flag the caller
/// keeps) and its first error ends the read.
///
/// `buf.len()` is the buffer's initialised extent, not a body length: it
/// only grows, so a stream of same-sized frames is read in place with no
/// allocation and no zeroing after the first. It grows in steps of at
/// most [`BODY_GROWTH_STEP`] past the bytes already received
/// (`reserve_exact`, so no amortised doubling either): the header's
/// length is the peer's claim, up to [`MAX_FRAME_BYTES`], and memory is
/// committed only as the bytes arrive to back it.
pub(crate) fn read_body<E>(
    buf: &mut Vec<u8>,
    len: usize,
    mut fill: impl FnMut(&mut [u8]) -> Result<(), E>,
) -> Result<&[u8], E> {
    let mut filled = 0usize;
    while filled < len {
        let end = filled + (len - filled).min(BODY_GROWTH_STEP);
        if buf.len() < end {
            buf.reserve_exact(end - buf.len());
            buf.resize(end, 0);
        }
        fill(&mut buf[filled..end])?;
        filled = end;
    }
    Ok(&buf[..len])
}

/// Transport failures.
#[derive(Debug)]
pub enum TransportError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer sent something that is not a frame. Terminal for the
    /// payload: resending the same bytes cannot succeed.
    BadFrame(&'static str),
    /// The resume handshake went wrong: the hello was cut short, stalled
    /// past the handshake deadline, or carried the wrong magic. Unlike
    /// [`BadFrame`](Self::BadFrame) this is *retryable* — a fresh
    /// connection may find a healthy peer — and a resilient sender counts
    /// the successful retry as a reconnect.
    Handshake(&'static str),
    /// The peer stopped responding within the socket timeout.
    Timeout,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::BadFrame(m) => write!(f, "bad frame: {m}"),
            TransportError::Handshake(m) => write!(f, "handshake failed: {m}"),
            TransportError::Timeout => write!(f, "transport timeout"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            TransportError::Timeout
        } else {
            TransportError::Io(e)
        }
    }
}

/// Frame sender: the simulation site's end of the link.
#[derive(Debug)]
pub struct FrameSender {
    stream: TcpStream,
    next_seq: u64,
    peer_last_applied: u64,
}

impl FrameSender {
    /// Connect to a receiver daemon with the default I/O timeout.
    pub fn connect(addr: SocketAddr) -> Result<Self, TransportError> {
        Self::connect_with_timeout(addr, DEFAULT_IO_TIMEOUT)
    }

    /// Connect with an explicit connect/read/write timeout and perform
    /// the resume handshake.
    pub fn connect_with_timeout(
        addr: SocketAddr,
        timeout: Duration,
    ) -> Result<Self, TransportError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let mut sender = FrameSender {
            stream,
            next_seq: 1,
            peer_last_applied: 0,
        };
        let mut hello = [0u8; 12];
        read_exact_deadline(&mut sender.stream, &mut hello, timeout)?;
        // Restore the steady-state socket timeout the deadline loop
        // tightened per-read.
        sender.stream.set_read_timeout(Some(timeout))?;
        if &hello[..4] != HANDSHAKE_MAGIC {
            return Err(TransportError::Handshake("bad handshake magic"));
        }
        sender.peer_last_applied = u64::from_le_bytes(hello[4..12].try_into().expect("8 bytes"));
        sender.next_seq = sender.peer_last_applied + 1;
        Ok(sender)
    }

    /// Last sequence the receiver reported as applied (from the handshake
    /// and subsequent acks). A reconnecting sender resumes from here.
    pub fn peer_last_applied(&self) -> u64 {
        self.peer_last_applied
    }

    /// Ship one full-resolution frame under the next sequence number and
    /// wait for the ack. The sequence advances only on success.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.send_rung(QosRung::FullRes, payload)
    }

    /// Ship one frame at an explicit degradation rung under the next
    /// sequence number. The rung rides in the header so the receiver
    /// picks the matching decoder.
    pub fn send_rung(&mut self, rung: QosRung, payload: &[u8]) -> Result<(), TransportError> {
        let seq = self.next_seq;
        self.send_seq_rung(seq, rung, payload)?;
        self.next_seq = seq + 1;
        Ok(())
    }

    /// Ship one full-resolution frame under an explicit sequence number
    /// and wait for the ack. Used by the resilient sender when replaying
    /// after a reconnect.
    pub fn send_seq(&mut self, seq: u64, payload: &[u8]) -> Result<(), TransportError> {
        self.send_seq_rung(seq, QosRung::FullRes, payload)
    }

    /// Ship one frame under an explicit sequence number and degradation
    /// rung and wait for the ack.
    pub fn send_seq_rung(
        &mut self,
        seq: u64,
        rung: QosRung,
        payload: &[u8],
    ) -> Result<(), TransportError> {
        if payload.len() as u64 > MAX_FRAME_BYTES as u64 {
            return Err(TransportError::BadFrame("payload exceeds frame limit"));
        }
        let header = FrameHeader {
            seq,
            len: payload.len() as u32,
            crc: crc32(payload),
            rung,
        };
        self.stream.write_all(&header.to_bytes())?;
        self.stream.write_all(payload)?;
        let mut ack = [0u8; 9];
        self.read_exact_to(&mut ack)?;
        self.peer_last_applied = u64::from_le_bytes(ack[1..9].try_into().expect("8 bytes"));
        match ack[0] {
            ACK_APPLIED => Ok(()),
            ACK_REJECTED => Err(TransportError::BadFrame("receiver rejected the frame")),
            ACK_PROTOCOL => Err(TransportError::BadFrame(
                "receiver reported a protocol violation",
            )),
            _ => Err(TransportError::BadFrame("unknown ack status")),
        }
    }

    /// `read_exact` that surfaces socket timeouts as
    /// [`TransportError::Timeout`] (the satellite fix for the old
    /// ack-path hang: every read is bounded by the socket timeout).
    fn read_exact_to(&mut self, buf: &mut [u8]) -> Result<(), TransportError> {
        self.stream.read_exact(buf).map_err(TransportError::from)
    }
}

/// Behavior knobs for a receiver daemon.
#[derive(Debug, Clone, Default)]
pub struct ReceiverOptions {
    /// Track accumulated by a previous incarnation (restart-from-
    /// persisted-state); frames land on top of it.
    pub resume_track: TrackLog,
    /// Last sequence the previous incarnation applied (0 = fresh). The
    /// handshake reports it so senders resume from there, and any replay
    /// at or below it is deduplicated.
    pub resume_seq: u64,
    /// Fault-injection hook: the daemon dies after fully *receiving* this
    /// many frames — before applying or acknowledging the last one — as a
    /// crash mid-frame would. `None` = healthy.
    pub kill_after_frames: Option<u64>,
}

/// Handle to a running receiver daemon.
pub struct FrameReceiver {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    frames: Arc<AtomicU64>,
    last_applied: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<TrackLog>>,
}

impl FrameReceiver {
    /// Start a healthy, fresh receiver daemon on `127.0.0.1` (ephemeral
    /// port). It accepts one sender connection at a time, decodes frames,
    /// and accumulates the cyclone track until stopped.
    pub fn start() -> Result<Self, TransportError> {
        Self::start_with(ReceiverOptions::default())
    }

    /// Start a receiver daemon with explicit options (resume state and/or
    /// the fault-injection kill hook).
    pub fn start_with(options: ReceiverOptions) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let frames = Arc::new(AtomicU64::new(0));
        let last_applied = Arc::new(AtomicU64::new(options.resume_seq));
        let t_stop = Arc::clone(&stop);
        let t_frames = Arc::clone(&frames);
        let t_applied = Arc::clone(&last_applied);
        let handle = std::thread::spawn(move || {
            let mut track = options.resume_track;
            let mut frames_left_to_kill = options.kill_after_frames;
            while !t_stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nodelay(true).ok();
                        // Blocking per-connection I/O with a short timeout
                        // so the stop flag is honored.
                        stream
                            .set_read_timeout(Some(Duration::from_millis(50)))
                            .ok();
                        serve_connection(
                            stream,
                            &t_stop,
                            &t_frames,
                            &t_applied,
                            &mut frames_left_to_kill,
                            &mut track,
                        );
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            track
        });
        Ok(FrameReceiver {
            addr,
            stop,
            frames,
            last_applied,
            handle: Some(handle),
        })
    }

    /// Address the sender should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Frames applied by *this* incarnation (resumed frames not counted).
    pub fn frames_received(&self) -> u64 {
        self.frames.load(Ordering::SeqCst)
    }

    /// Highest sequence applied so far (includes the resumed state).
    pub fn last_applied(&self) -> u64 {
        self.last_applied.load(Ordering::SeqCst)
    }

    /// True once the daemon thread has exited (normally via `shutdown`,
    /// or on its own when the kill hook fired).
    pub fn is_finished(&self) -> bool {
        self.handle
            .as_ref()
            .map(|h| h.is_finished())
            .unwrap_or(true)
    }

    /// Stop the daemon and return the accumulated track.
    pub fn shutdown(mut self) -> TrackLog {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .take()
            .expect("handle present until shutdown")
            .join()
            .expect("receiver thread panicked")
    }
}

impl Drop for FrameReceiver {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn serve_connection(
    mut stream: TcpStream,
    stop: &AtomicBool,
    frames: &AtomicU64,
    last_applied: &AtomicU64,
    frames_left_to_kill: &mut Option<u64>,
    track: &mut TrackLog,
) {
    // Resume handshake: tell the sender where to pick up.
    let mut hello = [0u8; 12];
    hello[..4].copy_from_slice(HANDSHAKE_MAGIC);
    hello[4..12].copy_from_slice(&last_applied.load(Ordering::SeqCst).to_le_bytes());
    if stream.write_all(&hello).is_err() {
        return;
    }
    // One receive buffer per connection, reused frame after frame.
    let mut body = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let mut header = [0u8; HEADER_BYTES];
        match read_exact_interruptible(&mut stream, &mut header, stop) {
            Ok(true) => {}
            _ => return, // peer gone or stop requested
        }
        let applied_now = last_applied.load(Ordering::SeqCst);
        let Ok(FrameHeader {
            seq,
            len,
            crc,
            rung,
        }) = FrameHeader::parse(&header)
        else {
            // Protocol violation (bad magic, a rung that is undecodable by
            // construction, an oversized length): explicit terminal nack,
            // then close.
            send_ack(&mut stream, ACK_PROTOCOL, applied_now);
            return;
        };
        let Ok(payload) = read_body(&mut body, len as usize, |chunk| {
            match read_exact_interruptible(&mut stream, chunk, stop) {
                Ok(true) => Ok(()),
                _ => Err(()), // peer gone or stop requested
            }
        }) else {
            return;
        };
        // Fault-injection hook: die mid-frame, after receiving but before
        // applying or acking — the worst-timed crash for the sender.
        if let Some(left) = frames_left_to_kill {
            *left = left.saturating_sub(1);
            if *left == 0 {
                stop.store(true, Ordering::SeqCst);
                return;
            }
        }
        if seq <= applied_now {
            // Replay of something already applied (the ack must have been
            // lost): acknowledge without re-applying — exactly-once from
            // the track's point of view.
            if !send_ack(&mut stream, ACK_APPLIED, applied_now) {
                return;
            }
            continue;
        }
        let ok = crc == crc32(payload)
            && match rung {
                // Full resolution keeps the legacy contract: a decodable
                // dataset counts as applied even when no eye is found.
                QosRung::FullRes => match ncdf::DatasetView::parse(payload) {
                    Ok(view) => {
                        track.ingest(&view);
                        true
                    }
                    Err(_) => false,
                },
                // Degraded rungs decode per the header's rung byte.
                _ => qos::apply_body(track, rung, payload),
            };
        if ok {
            frames.fetch_add(1, Ordering::SeqCst);
            last_applied.store(seq, Ordering::SeqCst);
        }
        let status = if ok { ACK_APPLIED } else { ACK_REJECTED };
        if !send_ack(&mut stream, status, last_applied.load(Ordering::SeqCst)) {
            return;
        }
    }
}

/// `read_exact` under one *overall* deadline: the per-read socket timeout
/// shrinks to the time remaining, so a peer trickling one byte per
/// almost-timeout cannot stretch a 12-byte hello into `12 × timeout` —
/// the whole read is bounded by `deadline`. Short reads (EOF mid-buffer)
/// and deadline expiry both surface as the typed
/// [`TransportError::Handshake`], never a hang.
pub(crate) fn read_exact_deadline(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Duration,
) -> Result<(), TransportError> {
    let t0 = Instant::now();
    let mut filled = 0usize;
    while filled < buf.len() {
        let remaining = deadline.saturating_sub(t0.elapsed());
        if remaining.is_zero() {
            return Err(TransportError::Handshake("handshake deadline exceeded"));
        }
        stream.set_read_timeout(Some(remaining))?;
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(TransportError::Handshake("hello cut short")),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(TransportError::Handshake("handshake deadline exceeded"));
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Write a status byte plus the last-applied sequence; false on failure.
fn send_ack(stream: &mut TcpStream, status: u8, last_applied: u64) -> bool {
    let mut ack = [0u8; 9];
    ack[0] = status;
    ack[1..9].copy_from_slice(&last_applied.to_le_bytes());
    stream.write_all(&ack).is_ok()
}

/// `read_exact` that keeps retrying across read timeouts so the stop flag
/// stays responsive. Returns `Ok(false)` on orderly EOF before any byte.
fn read_exact_interruptible(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
) -> Result<bool, std::io::Error> {
    let mut filled = 0usize;
    while filled < buf.len() {
        if stop.load(Ordering::SeqCst) {
            return Ok(false);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Ok(false),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wrf::{ModelConfig, WrfModel};

    proptest! {
        #[test]
        fn header_round_trips_and_a_mutated_field_parses_exactly_or_fails_by_name(
            seq in any::<u64>(),
            len in 0..=MAX_FRAME_BYTES,
            crc in any::<u32>(),
            rung in prop::sample::select(QosRung::ALL.to_vec()),
            field in 0usize..5,
            noise in any::<u64>(),
        ) {
            let header = FrameHeader { seq, len, crc, rung };
            let bytes = header.to_bytes();
            prop_assert_eq!(FrameHeader::parse(&bytes), Ok(header));

            // Overwrite one field's bytes on the wire; the parse is the
            // header with exactly that field changed, or that field's error.
            let mut mutated = bytes;
            let want = match field {
                0 => {
                    mutated[..4].copy_from_slice(&(noise as u32).to_le_bytes());
                    if &mutated[..4] == FRAME_MAGIC {
                        Ok(header)
                    } else {
                        Err(HeaderError::BadMagic)
                    }
                }
                1 => {
                    mutated[4..12].copy_from_slice(&noise.to_le_bytes());
                    Ok(FrameHeader { seq: noise, ..header })
                }
                2 => {
                    let len = noise as u32;
                    mutated[12..16].copy_from_slice(&len.to_le_bytes());
                    if len > MAX_FRAME_BYTES {
                        Err(HeaderError::Oversized)
                    } else {
                        Ok(FrameHeader { len, ..header })
                    }
                }
                3 => {
                    mutated[16..20].copy_from_slice(&(noise as u32).to_le_bytes());
                    Ok(FrameHeader { crc: noise as u32, ..header })
                }
                _ => {
                    mutated[20] = noise as u8;
                    match QosRung::from_byte(noise as u8) {
                        Some(rung) => Ok(FrameHeader { rung, ..header }),
                        None => Err(HeaderError::UnknownRung),
                    }
                }
            };
            prop_assert_eq!(FrameHeader::parse(&mutated), want);
        }
    }

    #[test]
    fn body_buffer_grows_behind_the_bytes_and_is_reused_in_place() {
        // A 2.5-step body is asked for one step at a time, and the buffer
        // ends exactly as large as what arrived.
        let len = 2 * BODY_GROWTH_STEP + BODY_GROWTH_STEP / 2;
        let mut buf = Vec::new();
        let mut fills = Vec::new();
        let body = read_body(&mut buf, len, |chunk| {
            fills.push(chunk.len());
            chunk.fill(0xAB);
            Ok::<(), ()>(())
        })
        .expect("every fill succeeds");
        assert_eq!(body.len(), len);
        assert!(body.iter().all(|&b| b == 0xAB));
        assert_eq!(
            fills,
            [BODY_GROWTH_STEP, BODY_GROWTH_STEP, BODY_GROWTH_STEP / 2]
        );
        assert_eq!(buf.capacity(), len, "exact growth, no doubling");

        // A peer that advertises the cap and delivers nothing costs one step.
        let mut hostile = Vec::new();
        let cut = read_body(&mut hostile, MAX_FRAME_BYTES as usize, |_| Err("gone"));
        assert_eq!(cut, Err("gone"));
        assert_eq!(hostile.capacity(), BODY_GROWTH_STEP);

        // A shorter frame reuses the storage: same allocation, no growth.
        let before = (buf.as_ptr(), buf.capacity());
        let short = read_body(&mut buf, 33, |chunk| {
            chunk.fill(0xCD);
            Ok::<(), ()>(())
        })
        .expect("fills");
        assert_eq!(short, [0xCD; 33]);
        assert_eq!((buf.as_ptr(), buf.capacity()), before);
    }

    #[test]
    fn frames_cross_a_real_socket_and_get_tracked() {
        let receiver = FrameReceiver::start().expect("bind localhost");
        let mut sender = FrameSender::connect(receiver.addr()).expect("connect");
        assert_eq!(sender.peer_last_applied(), 0, "fresh receiver");

        let mut model =
            WrfModel::new(ModelConfig::aila_default().with_decimation(16)).expect("valid");
        for _ in 0..3 {
            model
                .advance_to_minutes(model.sim_minutes() + 120.0, 1)
                .expect("finite");
            let bytes = model.frame().to_bytes();
            sender.send(&bytes).expect("frame accepted");
        }
        assert_eq!(receiver.frames_received(), 3);
        assert_eq!(receiver.last_applied(), 3);
        assert_eq!(sender.peer_last_applied(), 3, "acks carry the sequence");
        let track = receiver.shutdown();
        assert_eq!(track.fixes().len(), 3);
        // The remote track matches the model's truth.
        let (lon, lat) = model.eye_lonlat();
        let last = track.fixes().last().expect("fixes recorded");
        assert!((last.lon - lon).abs() < 2.0);
        assert!((last.lat - lat).abs() < 2.0);
    }

    #[test]
    fn garbage_payload_is_nacked_not_fatal() {
        let receiver = FrameReceiver::start().expect("bind");
        let mut sender = FrameSender::connect(receiver.addr()).expect("connect");
        let err = sender.send(b"definitely not a dataset").unwrap_err();
        assert!(matches!(err, TransportError::BadFrame(_)));
        // The connection survives: a valid frame still goes through.
        let model = WrfModel::new(ModelConfig::aila_default().with_decimation(16)).expect("valid");
        sender
            .send(&model.frame().to_bytes())
            .expect("valid frame after a nack");
        assert_eq!(receiver.frames_received(), 1);
    }

    #[test]
    fn empty_payload_is_nacked() {
        let receiver = FrameReceiver::start().expect("bind");
        let mut sender = FrameSender::connect(receiver.addr()).expect("connect");
        // Zero bytes is not a decodable dataset; the receiver nacks it and
        // the connection stays usable.
        let err = sender.send(&[]).unwrap_err();
        assert!(matches!(err, TransportError::BadFrame(_)));
        assert_eq!(receiver.frames_received(), 0);
    }

    #[test]
    fn replayed_sequences_are_deduplicated() {
        let receiver = FrameReceiver::start().expect("bind");
        let mut sender = FrameSender::connect(receiver.addr()).expect("connect");
        let model = WrfModel::new(ModelConfig::aila_default().with_decimation(16)).expect("valid");
        let bytes = model.frame().to_bytes();
        sender.send(&bytes).expect("first transmission applies");
        assert_eq!(receiver.frames_received(), 1);
        // A replay of sequence 1 (as after a lost ack) is acked but not
        // re-applied.
        sender.send_seq(1, &bytes).expect("replay is acknowledged");
        assert_eq!(receiver.frames_received(), 1, "no double application");
        assert_eq!(receiver.last_applied(), 1);
        let track = receiver.shutdown();
        assert_eq!(track.fixes().len(), 1, "exactly once");
    }

    #[test]
    fn resumed_receiver_reports_its_state_in_the_handshake() {
        let receiver = FrameReceiver::start().expect("bind");
        let mut sender = FrameSender::connect(receiver.addr()).expect("connect");
        let model = WrfModel::new(ModelConfig::aila_default().with_decimation(16)).expect("valid");
        sender.send(&model.frame().to_bytes()).expect("applied");
        let applied = receiver.last_applied();
        let track = receiver.shutdown();

        // Restart "after a crash" from persisted state.
        let receiver2 = FrameReceiver::start_with(ReceiverOptions {
            resume_track: track,
            resume_seq: applied,
            kill_after_frames: None,
        })
        .expect("bind");
        let sender2 = FrameSender::connect(receiver2.addr()).expect("connect");
        assert_eq!(sender2.peer_last_applied(), applied, "resume point");
        let track2 = receiver2.shutdown();
        assert_eq!(track2.fixes().len(), 1, "resumed track carried over");
    }

    #[test]
    fn corrupted_payload_is_rejected_by_crc() {
        let receiver = FrameReceiver::start().expect("bind");
        let mut sender = FrameSender::connect(receiver.addr()).expect("connect");
        let model = WrfModel::new(ModelConfig::aila_default().with_decimation(16)).expect("valid");
        let mut bytes = model.frame().to_bytes().to_vec();
        // Simulate on-path corruption: flip a byte after the CRC was
        // computed by hand-rolling the frame write.
        let crc = crc32(&bytes);
        let idx = bytes.len() / 2;
        bytes[idx] ^= 0xff;
        let header = FrameHeader {
            seq: 1,
            len: bytes.len() as u32,
            crc,
            rung: QosRung::FullRes,
        };
        sender.stream.write_all(&header.to_bytes()).unwrap();
        sender.stream.write_all(&bytes).unwrap();
        let mut ack = [0u8; 9];
        sender.stream.read_exact(&mut ack).unwrap();
        assert_eq!(ack[0], b'-', "CRC mismatch is rejected");
        assert_eq!(receiver.frames_received(), 0);
    }

    #[test]
    fn bad_magic_gets_a_terminal_nack_before_close() {
        let receiver = FrameReceiver::start().expect("bind");
        let mut stream = TcpStream::connect(receiver.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut hello = [0u8; 12];
        stream.read_exact(&mut hello).expect("handshake");
        assert_eq!(&hello[..4], b"AHL2");
        // 21 bytes of garbage where a frame header should be.
        stream.write_all(&[0xaau8; 21]).unwrap();
        let mut ack = [0u8; 9];
        stream.read_exact(&mut ack).expect("terminal nack arrives");
        assert_eq!(ack[0], b'!', "explicit protocol nack");
        // ...and then the connection is closed.
        let mut rest = [0u8; 1];
        assert_eq!(stream.read(&mut rest).unwrap_or(0), 0, "closed after nack");
    }

    #[test]
    fn oversized_length_gets_a_terminal_nack() {
        let receiver = FrameReceiver::start().expect("bind");
        let mut stream = TcpStream::connect(receiver.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut hello = [0u8; 12];
        stream.read_exact(&mut hello).expect("handshake");
        let header = FrameHeader {
            seq: 1,
            len: u32::MAX,
            crc: 0,
            rung: QosRung::FullRes,
        };
        stream.write_all(&header.to_bytes()).unwrap();
        let mut ack = [0u8; 9];
        stream.read_exact(&mut ack).expect("terminal nack arrives");
        assert_eq!(ack[0], b'!');
    }

    #[test]
    fn unknown_rung_byte_gets_a_terminal_nack() {
        let receiver = FrameReceiver::start().expect("bind");
        let mut stream = TcpStream::connect(receiver.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut hello = [0u8; 12];
        stream.read_exact(&mut hello).expect("handshake");
        let mut header = FrameHeader {
            seq: 1,
            len: 0,
            crc: crc32(&[]),
            rung: QosRung::FullRes,
        }
        .to_bytes();
        header[20] = 9; // no such rung
        stream.write_all(&header).unwrap();
        let mut ack = [0u8; 9];
        stream.read_exact(&mut ack).expect("terminal nack arrives");
        assert_eq!(ack[0], b'!', "unknown rung is a protocol violation");
        assert_eq!(receiver.frames_received(), 0);
    }

    #[test]
    fn degraded_rungs_cross_the_socket_and_land_as_fixes() {
        let receiver = FrameReceiver::start().expect("bind");
        let mut sender = FrameSender::connect(receiver.addr()).expect("connect");
        let mut model =
            WrfModel::new(ModelConfig::aila_default().with_decimation(16)).expect("valid");

        // Walk the ladder across one connection: the header's rung byte
        // lets the receiver pick the right decoder frame by frame.
        for rung in [
            QosRung::FullRes,
            QosRung::DeltaQuantized,
            QosRung::Thumbnail,
            QosRung::TrackOnly,
        ] {
            model
                .advance_to_minutes(model.sim_minutes() + 60.0, 1)
                .expect("finite");
            let body = qos::encode_body(&model, rung);
            sender.send_rung(rung, &body).expect("frame accepted");
        }
        assert_eq!(receiver.frames_received(), 4);
        assert_eq!(receiver.last_applied(), 4);
        let (lon, lat) = model.eye_lonlat();

        // A quantized body mislabeled as full-res is rejected, not
        // misdecoded: the rung byte is load-bearing.
        model
            .advance_to_minutes(model.sim_minutes() + 60.0, 1)
            .expect("finite");
        let body = qos::encode_body(&model, QosRung::DeltaQuantized);
        let err = sender.send_rung(QosRung::FullRes, &body).unwrap_err();
        assert!(matches!(err, TransportError::BadFrame(_)));

        let track = receiver.shutdown();
        assert_eq!(track.fixes().len(), 4, "every rung produced a fix");
        // The track-only fix is the model's ground truth, bit-exact
        // through the 32-byte fix codec.
        let last = track.fixes().last().expect("fixes recorded");
        assert_eq!(last.lon, lon);
        assert_eq!(last.lat, lat);
    }

    #[test]
    fn short_read_hello_is_a_typed_handshake_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let imposter = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            // Four of the twelve hello bytes, then a clean close: the
            // old `read_exact` surfaced this as a bare I/O error (or, on
            // a half-open peer, a hang).
            let _ = conn.write_all(b"AHL2");
        });
        let err = FrameSender::connect_with_timeout(addr, Duration::from_millis(500)).unwrap_err();
        assert!(
            matches!(err, TransportError::Handshake("hello cut short")),
            "got {err:?}"
        );
        imposter.join().expect("imposter thread");
    }

    #[test]
    fn stalled_handshake_fails_at_the_deadline_not_per_byte() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let imposter = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            // Slow-loris hello: one byte per tick, each tick inside a
            // naive per-read timeout. Only an overall deadline bounds
            // this; per-read timeouts alone would tolerate it for
            // 12 x timeout.
            let mut hello = [0u8; 12];
            hello[..4].copy_from_slice(b"AHL2");
            for b in hello {
                if conn.write_all(&[b]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(60));
            }
        });
        let started = Instant::now();
        let err = FrameSender::connect_with_timeout(addr, Duration::from_millis(200)).unwrap_err();
        assert!(
            matches!(
                err,
                TransportError::Handshake("handshake deadline exceeded")
            ),
            "got {err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_millis(900),
            "the whole handshake is bounded by one deadline, \
             took {:?}",
            started.elapsed()
        );
        imposter.join().expect("imposter thread");
    }

    #[test]
    fn garbage_hello_magic_is_retryable_and_counts_a_reconnect() {
        use crate::resilience::{BackoffPolicy, ResilientSender};

        let fake = TcpListener::bind("127.0.0.1:0").expect("bind");
        let fake_addr = fake.local_addr().expect("addr");
        let imposter = std::thread::spawn(move || {
            let (mut conn, _) = fake.accept().expect("accept");
            // Right length, wrong magic. This must classify as the
            // retryable Handshake error — a terminal BadFrame here would
            // stop the sender from ever trying a healthy replacement.
            let _ = conn.write_all(b"XXXX\x00\x00\x00\x00\x00\x00\x00\x00");
        });
        let err = FrameSender::connect_with_timeout(fake_addr, Duration::from_millis(500))
            .expect_err("wrong magic is refused");
        assert!(
            matches!(err, TransportError::Handshake("bad handshake magic")),
            "got {err:?}"
        );
        imposter.join().expect("imposter thread");

        // The resilient sender retries past the imposter onto a healthy
        // receiver and books the recovery as a reconnect.
        let fake2 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let fake2_addr = fake2.local_addr().expect("addr");
        let imposter2 = std::thread::spawn(move || {
            let (mut conn, _) = fake2.accept().expect("accept");
            let _ = conn.write_all(b"XXXX\x00\x00\x00\x00\x00\x00\x00\x00");
        });
        let receiver = FrameReceiver::start().expect("bind");
        let real_addr = receiver.addr();
        let mut calls = 0u32;
        let mut sender = ResilientSender::new(
            move || {
                calls += 1;
                if calls == 1 {
                    fake2_addr
                } else {
                    real_addr
                }
            },
            BackoffPolicy::new(7).with_base(Duration::from_millis(5)),
        )
        .with_io_timeout(Duration::from_millis(500));
        let model = WrfModel::new(ModelConfig::aila_default().with_decimation(16)).expect("valid");
        sender
            .send(&model.frame().to_bytes())
            .expect("retried onto the healthy receiver");
        assert_eq!(
            sender.stats().reconnects,
            1,
            "the failed handshake counted as a reconnect"
        );
        assert_eq!(receiver.frames_received(), 1);
        imposter2.join().expect("imposter thread");
    }

    #[test]
    fn dead_receiver_times_out_instead_of_hanging() {
        let receiver = FrameReceiver::start_with(ReceiverOptions {
            kill_after_frames: Some(1),
            ..Default::default()
        })
        .expect("bind");
        let mut sender =
            FrameSender::connect_with_timeout(receiver.addr(), Duration::from_millis(300))
                .expect("connect");
        let model = WrfModel::new(ModelConfig::aila_default().with_decimation(16)).expect("valid");
        // The receiver dies before acking this frame; the old v1 sender
        // would block forever on the ack read. Now the socket timeout
        // fires.
        let started = std::time::Instant::now();
        let err = sender.send(&model.frame().to_bytes()).unwrap_err();
        assert!(
            matches!(err, TransportError::Timeout | TransportError::Io(_)),
            "got {err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "bounded by the socket timeout"
        );
        // The sender sees the socket close a moment before the daemon
        // thread has finished returning.
        while !receiver.is_finished() && started.elapsed() < Duration::from_secs(4) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(receiver.is_finished(), "kill hook stopped the daemon");
    }
}
