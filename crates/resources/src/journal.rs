//! Append-only write-ahead journal for [`FrameStore`](crate::FrameStore)
//! mutations.
//!
//! The live pipeline must survive `kill -9`: every mutation of the frame
//! ledger (store / begin / complete / abort / seize / release) is recorded
//! here *after* it succeeds in memory, so a replay of the journal always
//! applies cleanly and rebuilds the exact pending / in-flight / shipped
//! state of the dead incarnation.
//!
//! On-disk format — a directory of fixed-prefix segment files:
//!
//! ```text
//! journal.000000.wal   journal.000001.wal   ...
//! ┌──────┬──────────────────────────────────────────────┐
//! │ AJL1 │ record │ record │ record │ ...                │
//! └──────┴──────────────────────────────────────────────┘
//! record := u32 LE payload_len | u32 LE crc32(payload) | payload
//! payload := u8 op_tag | op fields (LE)
//! ```
//!
//! Each append is `fsync`ed before it is considered committed. Segments
//! rotate at [`DEFAULT_SEGMENT_BYTES`]; replay walks segments in index
//! order. A record that is truncated or fails its CRC is a *torn tail*
//! (the process died mid-append): replay truncates the file right there,
//! deletes any later segments, and keeps everything before it — committed
//! frames are never lost, uncommitted tails are never half-applied.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// IEEE 802.3 CRC-32 (the zlib/PNG polynomial), table-driven, table built
/// at compile time. This is the canonical copy for the workspace; the
/// transport layer re-exports it.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Running form of [`crc32`]: extend the checksum `crc` of everything seen
/// so far by `data`, so a writer can fold pieces in as they pass instead
/// of holding them all. `crc32_update(crc32(a), b) == crc32(a ++ b)`; the
/// checksum of nothing is 0.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !crc;
    for &b in data {
        let idx = (crc ^ b as u32) & 0xff;
        crc = (crc >> 8) ^ TABLE[idx as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Magic prefix of every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"AJL1";

/// Rotation threshold: a segment that has grown past this many bytes is
/// closed and a new one started.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

const SEGMENT_PREFIX: &str = "journal.";
const SEGMENT_SUFFIX: &str = ".wal";

/// One journaled mutation of the frame ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JournalOp {
    /// A frame was written to the output directory.
    Store {
        id: u64,
        sim_minutes: f64,
        bytes: u64,
    },
    /// The oldest pending frame moved to the in-flight set.
    Begin { id: u64 },
    /// An in-flight frame's transfer completed; its bytes were freed.
    Complete { id: u64 },
    /// An in-flight frame's transfer was aborted; it returned to pending.
    Abort { id: u64 },
    /// An external writer seized `bytes` of free space (the amount it
    /// actually got, already capped).
    Seize { bytes: u64 },
    /// An external writer released `bytes` (already capped).
    Release { bytes: u64 },
}

const TAG_STORE: u8 = 1;
const TAG_BEGIN: u8 = 2;
const TAG_COMPLETE: u8 = 3;
const TAG_ABORT: u8 = 4;
const TAG_SEIZE: u8 = 5;
const TAG_RELEASE: u8 = 6;

impl JournalOp {
    /// Binary payload (tag byte + little-endian fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(25);
        match *self {
            JournalOp::Store {
                id,
                sim_minutes,
                bytes,
            } => {
                out.push(TAG_STORE);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&sim_minutes.to_le_bytes());
                out.extend_from_slice(&bytes.to_le_bytes());
            }
            JournalOp::Begin { id } => {
                out.push(TAG_BEGIN);
                out.extend_from_slice(&id.to_le_bytes());
            }
            JournalOp::Complete { id } => {
                out.push(TAG_COMPLETE);
                out.extend_from_slice(&id.to_le_bytes());
            }
            JournalOp::Abort { id } => {
                out.push(TAG_ABORT);
                out.extend_from_slice(&id.to_le_bytes());
            }
            JournalOp::Seize { bytes } => {
                out.push(TAG_SEIZE);
                out.extend_from_slice(&bytes.to_le_bytes());
            }
            JournalOp::Release { bytes } => {
                out.push(TAG_RELEASE);
                out.extend_from_slice(&bytes.to_le_bytes());
            }
        }
        out
    }

    /// Inverse of [`encode`](Self::encode); `None` on any malformed payload.
    pub fn decode(payload: &[u8]) -> Option<JournalOp> {
        let (&tag, rest) = payload.split_first()?;
        let u64_at = |off: usize| -> Option<u64> {
            rest.get(off..off + 8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        };
        let op = match tag {
            TAG_STORE => {
                if rest.len() != 24 {
                    return None;
                }
                JournalOp::Store {
                    id: u64_at(0)?,
                    sim_minutes: f64::from_le_bytes(rest[8..16].try_into().unwrap()),
                    bytes: u64_at(16)?,
                }
            }
            TAG_BEGIN => JournalOp::Begin {
                id: exact_u64(rest)?,
            },
            TAG_COMPLETE => JournalOp::Complete {
                id: exact_u64(rest)?,
            },
            TAG_ABORT => JournalOp::Abort {
                id: exact_u64(rest)?,
            },
            TAG_SEIZE => JournalOp::Seize {
                bytes: exact_u64(rest)?,
            },
            TAG_RELEASE => JournalOp::Release {
                bytes: exact_u64(rest)?,
            },
            _ => return None,
        };
        Some(op)
    }
}

fn exact_u64(rest: &[u8]) -> Option<u64> {
    if rest.len() != 8 {
        return None;
    }
    Some(u64::from_le_bytes(rest.try_into().unwrap()))
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{index:06}{SEGMENT_SUFFIX}"))
}

/// Segment indices present in `dir`, sorted ascending.
fn segment_indices(dir: &Path) -> io::Result<Vec<u64>> {
    let mut indices = Vec::new();
    if !dir.exists() {
        return Ok(indices);
    }
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(mid) = name
            .strip_prefix(SEGMENT_PREFIX)
            .and_then(|s| s.strip_suffix(SEGMENT_SUFFIX))
        {
            if let Ok(idx) = mid.parse::<u64>() {
                indices.push(idx);
            }
        }
    }
    indices.sort_unstable();
    Ok(indices)
}

/// Append-side handle: writes framed records with fsync-on-commit and
/// rotates segments past the size threshold.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    file: File,
    seg_index: u64,
    seg_bytes: u64,
    max_segment_bytes: u64,
}

impl Journal {
    /// Open `dir` for appending (creating it, and segment 0, if absent).
    /// Appends continue at the end of the highest-numbered segment — call
    /// [`replay`] first so a torn tail has already been truncated away.
    pub fn open(dir: &Path) -> io::Result<Journal> {
        Self::open_with_segment_bytes(dir, DEFAULT_SEGMENT_BYTES)
    }

    /// [`open`](Self::open) with a custom rotation threshold (tests).
    pub fn open_with_segment_bytes(dir: &Path, max_segment_bytes: u64) -> io::Result<Journal> {
        fs::create_dir_all(dir)?;
        let indices = segment_indices(dir)?;
        let seg_index = indices.last().copied().unwrap_or(0);
        let path = segment_path(dir, seg_index);
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut seg_bytes = file.metadata()?.len();
        if seg_bytes == 0 {
            file.write_all(&SEGMENT_MAGIC)?;
            file.sync_all()?;
            seg_bytes = SEGMENT_MAGIC.len() as u64;
        }
        Ok(Journal {
            dir: dir.to_path_buf(),
            file,
            seg_index,
            seg_bytes,
            max_segment_bytes: max_segment_bytes.max(SEGMENT_MAGIC.len() as u64 + 1),
        })
    }

    /// Directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Index of the segment currently accepting appends.
    pub fn segment_index(&self) -> u64 {
        self.seg_index
    }

    /// Append one op as a framed record and fsync it. The op is committed
    /// when this returns `Ok`.
    pub fn append(&mut self, op: &JournalOp) -> io::Result<()> {
        let payload = op.encode();
        let mut record = Vec::with_capacity(8 + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        self.file.write_all(&record)?;
        self.file.sync_all()?;
        self.seg_bytes += record.len() as u64;
        if self.seg_bytes >= self.max_segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.seg_index += 1;
        let path = segment_path(&self.dir, self.seg_index);
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        file.write_all(&SEGMENT_MAGIC)?;
        file.sync_all()?;
        self.file = file;
        self.seg_bytes = SEGMENT_MAGIC.len() as u64;
        Ok(())
    }
}

/// What a [`replay`] found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayReport {
    /// Committed ops recovered.
    pub ops: u64,
    /// Segment files visited.
    pub segments: u64,
    /// Bytes of torn tail truncated away (partial or corrupt final record
    /// plus anything after it).
    pub truncated_bytes: u64,
    /// Simulated time of the newest committed `Store` op, if any — the
    /// recovery supervisor resumes output past this point.
    pub last_stored_sim_minutes: Option<f64>,
}

/// Replay the journal in `dir`: return every committed op in append order
/// and truncate any torn tail in place so a subsequent
/// [`Journal::open`] appends from a clean end-of-log.
///
/// A record that is short, oversized, or fails its CRC marks the torn
/// point: the segment is truncated there and all later segments (which can
/// only hold uncommitted garbage) are deleted.
pub fn replay(dir: &Path) -> io::Result<(Vec<JournalOp>, ReplayReport)> {
    let mut ops = Vec::new();
    let mut report = ReplayReport::default();
    let indices = segment_indices(dir)?;
    let mut torn_at: Option<usize> = None; // position in `indices` where the tear was found
    for (pos, &idx) in indices.iter().enumerate() {
        let path = segment_path(dir, idx);
        let mut data = Vec::new();
        File::open(&path)?.read_to_end(&mut data)?;
        report.segments += 1;
        let mut off = SEGMENT_MAGIC.len().min(data.len());
        if data.len() < SEGMENT_MAGIC.len() || data[..4] != SEGMENT_MAGIC {
            // Torn before the header finished (or foreign file): drop it all.
            truncate_file(&path, 0)?;
            report.truncated_bytes += data.len() as u64;
            torn_at = Some(pos);
            break;
        }
        let mut torn_here = false;
        while off < data.len() {
            let parsed = parse_record(&data[off..]);
            match parsed {
                Some((consumed, op)) => {
                    if let JournalOp::Store { sim_minutes, .. } = op {
                        report.last_stored_sim_minutes = Some(sim_minutes);
                    }
                    ops.push(op);
                    report.ops += 1;
                    off += consumed;
                }
                None => {
                    // Torn tail: truncate here, drop the rest.
                    report.truncated_bytes += (data.len() - off) as u64;
                    truncate_file(&path, off as u64)?;
                    torn_here = true;
                    break;
                }
            }
        }
        if torn_here {
            torn_at = Some(pos);
            break;
        }
    }
    if let Some(pos) = torn_at {
        for &idx in &indices[pos + 1..] {
            let path = segment_path(dir, idx);
            report.truncated_bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            fs::remove_file(&path)?;
        }
    }
    Ok((ops, report))
}

/// Parse one framed record at the head of `data`. Returns the bytes
/// consumed and the op, or `None` for a short / corrupt / undecodable
/// record (all treated as a torn tail by [`replay`]).
fn parse_record(data: &[u8]) -> Option<(usize, JournalOp)> {
    if data.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(data[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(data[4..8].try_into().unwrap());
    // An op payload is at most a few dozen bytes; a huge length is garbage.
    if len == 0 || len > 4096 || data.len() < 8 + len {
        return None;
    }
    let payload = &data[8..8 + len];
    if crc32(payload) != crc {
        return None;
    }
    let op = JournalOp::decode(payload)?;
    Some((8 + len, op))
}

fn truncate_file(path: &Path, len: u64) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_all()?;
    Ok(())
}

/// Chop up to `drop` bytes off the end of the newest segment — a test /
/// fault-injection hook that simulates a write torn by power loss. Never
/// cuts into the 4-byte magic. Returns the bytes actually dropped.
pub fn simulate_torn_tail(dir: &Path, drop: u64) -> io::Result<u64> {
    let indices = segment_indices(dir)?;
    let Some(&last) = indices.last() else {
        return Ok(0);
    };
    let path = segment_path(dir, last);
    let len = fs::metadata(&path)?.len();
    let keep = len
        .saturating_sub(drop)
        .max(SEGMENT_MAGIC.len() as u64)
        .min(len);
    truncate_file(&path, keep)?;
    Ok(len - keep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("adaptive-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_ops() -> Vec<JournalOp> {
        vec![
            JournalOp::Store {
                id: 0,
                sim_minutes: 15.0,
                bytes: 300,
            },
            JournalOp::Store {
                id: 1,
                sim_minutes: 30.0,
                bytes: 310,
            },
            JournalOp::Begin { id: 0 },
            JournalOp::Complete { id: 0 },
            JournalOp::Begin { id: 1 },
            JournalOp::Abort { id: 1 },
            JournalOp::Seize { bytes: 123 },
            JournalOp::Release { bytes: 100 },
        ]
    }

    #[test]
    fn encode_decode_roundtrip_every_op() {
        for op in sample_ops() {
            assert_eq!(JournalOp::decode(&op.encode()), Some(op));
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        // Folded in pieces — empty ones included — it is the same value.
        let piecewise = [&b"1234"[..], b"", b"5", b"6789"]
            .iter()
            .fold(0, |crc, piece| crc32_update(crc, piece));
        assert_eq!(piecewise, 0xcbf4_3926);
    }

    #[test]
    fn empty_journal_replays_to_nothing() {
        let dir = tmpdir("empty");
        let (ops, report) = replay(&dir).unwrap();
        assert!(ops.is_empty());
        assert_eq!(report.ops, 0);
        assert_eq!(report.truncated_bytes, 0);
        // Even after the writer creates segment 0 with just its magic.
        let _j = Journal::open(&dir).unwrap();
        let (ops, report) = replay(&dir).unwrap();
        assert!(ops.is_empty());
        assert_eq!(report.segments, 1);
    }

    #[test]
    fn append_then_replay_returns_ops_in_order() {
        let dir = tmpdir("roundtrip");
        let mut j = Journal::open(&dir).unwrap();
        for op in sample_ops() {
            j.append(&op).unwrap();
        }
        drop(j);
        let (ops, report) = replay(&dir).unwrap();
        assert_eq!(ops, sample_ops());
        assert_eq!(report.ops, 8);
        assert_eq!(report.last_stored_sim_minutes, Some(30.0));
        assert_eq!(report.truncated_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_and_committed_ops_survive() {
        let dir = tmpdir("torn");
        let mut j = Journal::open(&dir).unwrap();
        for op in sample_ops() {
            j.append(&op).unwrap();
        }
        drop(j);
        // Tear 5 bytes off the final record.
        let dropped = simulate_torn_tail(&dir, 5).unwrap();
        assert_eq!(dropped, 5);
        let (ops, report) = replay(&dir).unwrap();
        assert_eq!(
            ops,
            sample_ops()[..7].to_vec(),
            "only the torn record is lost"
        );
        assert!(report.truncated_bytes > 0);
        // Replay repaired the file: a second replay is clean and identical.
        let (ops2, report2) = replay(&dir).unwrap();
        assert_eq!(ops2, ops);
        assert_eq!(report2.truncated_bytes, 0);
    }

    #[test]
    fn bad_crc_record_ends_the_replay_there() {
        let dir = tmpdir("badcrc");
        let mut j = Journal::open(&dir).unwrap();
        let ops = sample_ops();
        for op in &ops {
            j.append(op).unwrap();
        }
        drop(j);
        // Flip one byte inside the *last* record's payload.
        let path = segment_path(&dir, 0);
        let mut data = fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xff;
        fs::write(&path, &data).unwrap();
        let (recovered, report) = replay(&dir).unwrap();
        assert_eq!(recovered, ops[..7].to_vec());
        assert!(report.truncated_bytes > 0);
    }

    #[test]
    fn replay_is_idempotent() {
        let dir = tmpdir("idem");
        let mut j = Journal::open(&dir).unwrap();
        for op in sample_ops() {
            j.append(&op).unwrap();
        }
        drop(j);
        let first = replay(&dir).unwrap();
        let second = replay(&dir).unwrap();
        assert_eq!(first.0, second.0);
        assert_eq!(second.1.truncated_bytes, 0);
    }

    #[test]
    fn segments_rotate_and_replay_in_order() {
        let dir = tmpdir("rotate");
        // Tiny threshold: every record rotates.
        let mut j = Journal::open_with_segment_bytes(&dir, 16).unwrap();
        let ops: Vec<JournalOp> = (0..10)
            .map(|i| JournalOp::Store {
                id: i,
                sim_minutes: i as f64,
                bytes: 10,
            })
            .collect();
        for op in &ops {
            j.append(op).unwrap();
        }
        assert!(j.segment_index() >= 9, "rotation must have happened");
        drop(j);
        let (recovered, report) = replay(&dir).unwrap();
        assert_eq!(recovered, ops);
        assert!(report.segments >= 10);
        // Reopen appends to the newest segment without disturbing history.
        let mut j = Journal::open_with_segment_bytes(&dir, 16).unwrap();
        j.append(&JournalOp::Begin { id: 0 }).unwrap();
        drop(j);
        let (recovered, _) = replay(&dir).unwrap();
        assert_eq!(recovered.len(), 11);
        assert_eq!(recovered[10], JournalOp::Begin { id: 0 });
    }

    #[test]
    fn tear_spanning_into_earlier_segment_drops_later_segments() {
        let dir = tmpdir("multiseg-torn");
        let mut j = Journal::open_with_segment_bytes(&dir, 40).unwrap();
        let ops: Vec<JournalOp> = (0..6)
            .map(|i| JournalOp::Store {
                id: i,
                sim_minutes: i as f64,
                bytes: 10,
            })
            .collect();
        for op in &ops {
            j.append(op).unwrap();
        }
        let segs = segment_indices(&dir).unwrap();
        assert!(segs.len() >= 3);
        // Corrupt a record in a middle segment: everything after is dropped.
        let mid = segs[segs.len() / 2];
        let path = segment_path(&dir, mid);
        let mut data = fs::read(&path).unwrap();
        let off = SEGMENT_MAGIC.len() + 9; // inside the first record's payload
        data[off] ^= 0xff;
        fs::write(&path, &data).unwrap();
        drop(j);
        let (recovered, _) = replay(&dir).unwrap();
        assert!(recovered.len() < ops.len());
        assert_eq!(recovered[..], ops[..recovered.len()]);
        let remaining = segment_indices(&dir).unwrap();
        assert_eq!(
            remaining.last().copied(),
            Some(mid),
            "later segments deleted"
        );
    }

    #[test]
    fn torn_tail_never_cuts_the_magic() {
        let dir = tmpdir("magic");
        let mut j = Journal::open(&dir).unwrap();
        j.append(&JournalOp::Seize { bytes: 1 }).unwrap();
        drop(j);
        simulate_torn_tail(&dir, 1 << 20).unwrap();
        let (ops, _) = replay(&dir).unwrap();
        assert!(ops.is_empty());
        // Journal reopens cleanly on the surviving header.
        let mut j = Journal::open(&dir).unwrap();
        j.append(&JournalOp::Release { bytes: 1 }).unwrap();
        drop(j);
        let (ops, _) = replay(&dir).unwrap();
        assert_eq!(ops, vec![JournalOp::Release { bytes: 1 }]);
    }
}
