//! The `AFR3` frame codec and the bounded socket reads shared by both
//! ends of the serving tier ([`crate::server`]).
//!
//! Every frame that crosses a socket — from a [`crate::server::FrameServer`]
//! to a [`crate::server::RemoteViewer`] — starts with one 21-byte header,
//! and every frame is answered with one 9-byte ack:
//!
//! ```text
//! frame (server → viewer):
//!     magic "AFR3" | u64 LE sequence | u32 LE payload length
//!                  | u32 LE CRC-32 of payload | u8 degradation rung
//!                  | payload
//! ack (viewer → server, after every frame):
//!     '+' | u64 LE last-applied sequence
//! ```
//!
//! The rung byte tells the viewer how to decode the payload —
//! full-resolution dataset, quantized dataset, thumbnail, or a bare eye
//! fix (see [`crate::qos::QosRung`]) — so a server walking the
//! degradation ladder mid-stream stays decodable frame by frame. An
//! unknown rung, a bad magic or a length over the cap is a protocol
//! violation, and the reader drops the connection.
//!
//! Sequences start at 1 (`0` = nothing applied yet). The connection opens
//! with the serving tier's `AHL2` hello and its admission verdict, both
//! laid out in [`crate::server`]; this module owns only the magic.

use crate::qos::QosRung;
use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const FRAME_MAGIC: &[u8; 4] = b"AFR3";
/// Magic bytes opening the viewer's resume hello ("AHL2"): the hello
/// carries the viewer's last-applied sequence so the server — or the
/// broker's per-client cursors ([`crate::broker`]) — resumes exactly
/// where the viewer left off instead of replaying the stream from frame
/// one.
pub const HANDSHAKE_MAGIC: &[u8; 4] = b"AHL2";
/// Upper bound on a frame payload (defends the viewer against a corrupt
/// length prefix).
const MAX_FRAME_BYTES: u32 = 1 << 30;

/// Status byte of a frame ack.
pub(crate) const ACK_APPLIED: u8 = b'+';

/// Size of an `AFR3` frame header (and of the serving tier's `ACT1`
/// control record, which rides in the same slot).
pub(crate) const HEADER_BYTES: usize = 21;
/// Most a receive buffer grows past the body bytes that have actually
/// arrived (see [`read_body`]).
const BODY_GROWTH_STEP: usize = 1 << 20;

/// The `AFR3` frame header: the one place its byte layout is written
/// down. The server builds it, the viewer parses it.
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
    /// The handshake went wrong: the hello or the admission verdict was
    /// cut short, stalled past its deadline, or carried an unknown magic
    /// or status. Retryable — a fresh connection may find a healthy peer.
    Handshake(&'static str),
    /// The peer stopped responding within the socket timeout.
    Timeout,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
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

/// `read_exact` under one *overall* deadline: the per-read socket timeout
/// shrinks to the time remaining, so a peer trickling one byte per
/// almost-timeout cannot stretch a 20-byte hello into `20 × timeout` —
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
}
