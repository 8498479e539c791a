//! The update log beside a snapshot.
//!
//! The sketch is a linear function of its update stream (DESIGN.md
//! §12), so the updates since a snapshot are an exact delta: a snapshot
//! at stream position `p` plus the updates `p..n`, applied in order, is
//! bit-identical to the state after `n`. Its counters are wrapping sums,
//! so the same holds for the updates' net changes per pair (DESIGN.md
//! §18), and that is what the log holds: one CRC-framed record per
//! checkpoint boundary, of the net changes of the updates since the
//! last one (all integers little-endian):
//!
//! ```text
//! header  := magic[8]="DCSULOG\0"  version:u32
//! record  := crc32:u32  payload_len:u64  payload[payload_len]
//! payload := start:u64  covered:u64  entry*
//! entry   := packed_key:u64  delta:varint
//! log     := header record*
//! ```
//!
//! `start` is the stream position of the first update the record
//! covers, and `covered` the number of updates it stands for; its
//! entries are the net changes of those updates, a pair at most once per
//! entry. `delta` is a signed net change, zigzag-mapped to unsigned and
//! written in LEB128 (7 bits per byte, low bits first), so a handshake's
//! or a flood's `±1` takes one byte. A record whose updates all
//! cancelled has no entries and still advances the position by
//! `covered`. The CRC covers `payload_len` and the payload, so a damaged
//! length is caught like a damaged entry. A record with more entries
//! than it covers, or whose `start + covered` overflows, is corrupt.
//!
//! Version 1 logs, whose payload is `start:u64 (packed_key:u64
//! delta:u8)*` with one `±1` update per entry (`delta` 0 for `+1`, 1 for
//! `−1`), still replay: each record covers its update count. A replay
//! applies the records that extend a state at a given position and
//! reports, never hides, the ones it drops ([`LogReplay`]).

use dcs_core::{FlowKey, NetBatch, NetUpdate};
use dcs_hash::cast::{u64_from_usize, wrapping_i64_from_u64, wrapping_u64_from_i64};

use crate::error::PersistError;
use crate::wire::{crc32, ByteReader};

/// The first eight bytes of every update log.
pub const LOG_MAGIC: [u8; 8] = *b"DCSULOG\0";

/// The update-log layout version this build writes. It reads this one
/// and version 1. It is independent of the snapshot's
/// [`FORMAT_VERSION`](crate::FORMAT_VERSION).
pub const LOG_FORMAT_VERSION: u32 = 2;

/// The version-1 layout: one `±1` update per entry.
const LOG_FORMAT_V1: u32 = 1;

/// Bytes of the log header: magic and version.
pub const LOG_HEADER_LEN: u64 = u64_from_usize(HEADER_LEN);
/// [`LOG_HEADER_LEN`] as an in-memory length.
const HEADER_LEN: usize = 12;

/// Bytes of a record's frame: CRC and payload length.
const FRAME_LEN: usize = 12;
/// Bytes of a payload's `start` and `covered` fields.
const POSITION_LEN: usize = 16;
/// Bytes of an entry whose delta lies in `-64..=63`: the packed key and
/// one varint byte.
const SHORT_ENTRY_LEN: usize = 9;
/// Bytes of one version-1 update: the packed key and a delta byte.
const V1_UPDATE_LEN: usize = 9;

/// Bytes one record of `entries` entries takes in the log when every
/// delta lies in `-64..=63` (one varint byte each), as the `±1` of a
/// handshake or a flood does.
pub fn record_len(entries: usize) -> u64 {
    u64_from_usize(FRAME_LEN + POSITION_LEN)
        + u64_from_usize(entries) * u64_from_usize(SHORT_ENTRY_LEN)
}

/// The log header.
pub(crate) fn header() -> [u8; HEADER_LEN] {
    let mut out = [0; HEADER_LEN];
    out[..8].copy_from_slice(&LOG_MAGIC);
    out[8..].copy_from_slice(&LOG_FORMAT_VERSION.to_le_bytes());
    out
}

/// Appends `delta` to `out`, zigzag-mapped and in LEB128.
fn put_delta(delta: i64, out: &mut Vec<u8>) {
    let mut zigzag = wrapping_u64_from_i64(delta.wrapping_shl(1) ^ (delta >> 63));
    while zigzag >= 0x80 {
        out.push(zigzag.to_le_bytes()[0] | 0x80);
        zigzag >>= 7;
    }
    out.push(zigzag.to_le_bytes()[0]);
}

/// Appends to `out` one record of `entries`, standing for the `covered`
/// updates from stream position `start` on.
pub(crate) fn encode_record(start: u64, covered: u64, entries: &[NetUpdate], out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_LEN]);
    out.extend_from_slice(&start.to_le_bytes());
    out.extend_from_slice(&covered.to_le_bytes());
    for entry in entries {
        out.extend_from_slice(&entry.key.packed().to_le_bytes());
        put_delta(entry.delta, out);
    }
    let payload_len = u64_from_usize(out.len() - at - FRAME_LEN);
    out[at + 4..at + FRAME_LEN].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&out[at + 4..]);
    out[at..at + 4].copy_from_slice(&crc.to_le_bytes());
}

/// What a short or damaged record reads as.
const RECORD: &str = "update log record";

/// Reads a record's payload length, bounded by what `usize` holds.
fn payload_len(reader: &mut ByteReader<'_>) -> Result<usize, PersistError> {
    let raw = reader.u64(RECORD)?;
    usize::try_from(raw).map_err(|_| PersistError::Truncated {
        context: RECORD.into(),
    })
}

/// Reads one varint delta and undoes its zigzag mapping.
fn delta(body: &mut ByteReader<'_>) -> Result<i64, PersistError> {
    let mut zigzag = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = body.u8(RECORD)?;
        let bits = u64::from(byte & 0x7f);
        if shift == 63 && bits > 1 {
            break;
        }
        zigzag |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(wrapping_i64_from_u64(zigzag >> 1) ^ -wrapping_i64_from_u64(zigzag & 1));
        }
    }
    Err(PersistError::Corrupt {
        context: "update log delta longer than 64 bits".into(),
    })
}

/// Reads a version-2 payload's entries into `batch`.
fn decode_entries(body: &mut ByteReader<'_>, batch: &mut NetBatch) -> Result<(), PersistError> {
    batch.covered = body.u64(RECORD)?;
    while !body.is_empty() {
        if u64_from_usize(batch.entries.len()) == batch.covered {
            return Err(PersistError::Corrupt {
                context: format!(
                    "{RECORD} has more entries than the {} updates it covers",
                    batch.covered
                ),
            });
        }
        let key = FlowKey::from_packed(body.u64(RECORD)?);
        let delta = delta(body)?;
        batch.entries.push(NetUpdate { key, delta });
    }
    Ok(())
}

/// Reads a version-1 payload's updates into `batch`, one `±1` entry
/// each.
fn decode_v1_updates(body: &mut ByteReader<'_>, batch: &mut NetBatch) -> Result<(), PersistError> {
    if !body.remaining().is_multiple_of(V1_UPDATE_LEN) {
        return Err(PersistError::Corrupt {
            context: format!("{RECORD} of {} update bytes", body.remaining()),
        });
    }
    while !body.is_empty() {
        let key = FlowKey::from_packed(body.u64(RECORD)?);
        let delta = match body.u8(RECORD)? {
            0 => 1,
            1 => -1,
            other => {
                return Err(PersistError::Corrupt {
                    context: format!("update log delta byte {other}"),
                })
            }
        };
        batch.entries.push(NetUpdate { key, delta });
    }
    batch.covered = u64_from_usize(batch.entries.len());
    Ok(())
}

/// Reads the record at the front of `bytes`, written in layout
/// `version`, into `batch`, returning its `start` and its length in
/// bytes.
fn decode_record(
    bytes: &[u8],
    version: u32,
    batch: &mut NetBatch,
) -> Result<(u64, usize), PersistError> {
    let mut frame = ByteReader::new(bytes);
    let expected = frame.u32(RECORD)?;
    let len = payload_len(&mut frame)?;
    let payload = frame.take(len, RECORD)?;
    let framed = bytes.len() - frame.remaining();
    let actual = crc32(&bytes[4..framed]);
    if actual != expected {
        return Err(PersistError::ChecksumMismatch {
            section: RECORD.into(),
            expected,
            actual,
        });
    }
    let mut body = ByteReader::new(payload);
    let start = body.u64(RECORD)?;
    batch.clear();
    if version == LOG_FORMAT_V1 {
        decode_v1_updates(&mut body, batch)?;
    } else {
        decode_entries(&mut body, batch)?;
    }
    Ok((start, framed))
}

/// Counts the records in `bytes` by their length fields alone; a tail
/// too short for the record it starts counts as one.
fn count_records(bytes: &[u8]) -> u64 {
    let mut reader = ByteReader::new(bytes);
    let mut count = 0;
    while !reader.is_empty() {
        count += 1;
        let skipped = reader.u32(RECORD).and_then(|_| {
            let len = payload_len(&mut reader)?;
            reader.take(len, RECORD)
        });
        if skipped.is_err() {
            break;
        }
    }
    count
}

/// Checks the log header at the front of `log`, returning its version.
fn check_header(log: &[u8]) -> Result<u32, PersistError> {
    let what = "update log header";
    let mut reader = ByteReader::new(log);
    let magic = reader.take(LOG_MAGIC.len(), what)?;
    if magic != LOG_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(magic);
        return Err(PersistError::BadMagic { found });
    }
    let found = reader.u32(what)?;
    if found != LOG_FORMAT_VERSION && found != LOG_FORMAT_V1 {
        return Err(PersistError::UnsupportedVersion {
            found,
            supported: LOG_FORMAT_VERSION,
        });
    }
    Ok(found)
}

/// What replaying a log did: see
/// [`CheckpointManager::replay_log`](crate::CheckpointManager::replay_log).
#[derive(Debug)]
pub struct LogReplay {
    /// Records applied.
    pub replayed: u64,
    /// Records the state already covered, skipped without applying.
    /// They are left by a crash between a snapshot's rename and the
    /// log's truncation.
    pub skipped: u64,
    /// Records not applied: the first torn, corrupt or non-contiguous
    /// record and every record after it (a torn tail counts as one).
    pub dropped: u64,
    /// Entries the applied records held: what the replay cost, in
    /// sketch work.
    pub entries: u64,
    /// The stream position the state reaches after the replay.
    pub end: u64,
    /// Bytes of the log up to the first dropped record: what a writer
    /// keeps before appending.
    pub(crate) kept_bytes: u64,
    /// Whether the log is in an older layout than this build writes, so
    /// a writer must not append to it.
    pub(crate) legacy: bool,
    /// Why records were dropped, when any were.
    pub problem: Option<PersistError>,
}

/// Replays `log` onto a state at stream position `from` (see
/// [`CheckpointManager::replay_log`](crate::CheckpointManager::replay_log)).
pub(crate) fn replay(log: &[u8], from: u64, mut apply: impl FnMut(&NetBatch)) -> LogReplay {
    let mut out = LogReplay {
        replayed: 0,
        skipped: 0,
        dropped: 0,
        entries: 0,
        end: from,
        kept_bytes: 0,
        legacy: false,
        problem: None,
    };
    if log.is_empty() {
        return out;
    }
    let version = match check_header(log) {
        Ok(version) => version,
        Err(problem) => {
            out.dropped = 1;
            out.problem = Some(problem);
            return out;
        }
    };
    out.legacy = version != LOG_FORMAT_VERSION;
    let mut at = HEADER_LEN;
    let mut batch = NetBatch::default();
    while at < log.len() {
        let (start, len) = match decode_record(&log[at..], version, &mut batch) {
            Ok(record) => record,
            Err(problem) => {
                out.problem = Some(problem);
                break;
            }
        };
        let Some(end) = start.checked_add(batch.covered) else {
            out.problem = Some(PersistError::Corrupt {
                context: format!("update log record at stream position {start} overflows"),
            });
            break;
        };
        if start == out.end {
            apply(&batch);
            out.replayed += 1;
            out.entries += u64_from_usize(batch.entries.len());
            out.end = end;
        } else if out.replayed == 0 && end <= from {
            out.skipped += 1;
        } else {
            out.problem = Some(PersistError::Incompatible {
                reason: format!(
                    "update log record at stream position {start} does not extend position {}",
                    out.end
                ),
            });
            break;
        }
        at += len;
    }
    out.kept_bytes = u64_from_usize(at);
    out.dropped = count_records(&log[at..]);
    out
}

/// A version-1 log of `records`, each a start position and its updates,
/// as builds before 0.32.0 wrote them.
#[cfg(test)]
pub(crate) fn v1_log(records: &[(u64, &[dcs_core::FlowUpdate])]) -> Vec<u8> {
    let mut log = header().to_vec();
    log[8..12].copy_from_slice(&LOG_FORMAT_V1.to_le_bytes());
    for &(start, updates) in records {
        let at = log.len();
        let payload = 8 + updates.len() * V1_UPDATE_LEN;
        log.extend_from_slice(&[0; 4]);
        log.extend_from_slice(&u64_from_usize(payload).to_le_bytes());
        log.extend_from_slice(&start.to_le_bytes());
        for update in updates {
            log.extend_from_slice(&update.key.packed().to_le_bytes());
            log.push(u8::from(update.delta == dcs_core::Delta::Delete));
        }
        let crc = crc32(&log[at + 4..]);
        log[at..at + 4].copy_from_slice(&crc.to_le_bytes());
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{Delta, DestAddr, FlowUpdate, SourceAddr};

    fn updates(from: u32, n: u32) -> Vec<FlowUpdate> {
        (from..from + n)
            .map(|s| {
                let delta = if s % 3 == 0 {
                    Delta::Delete
                } else {
                    Delta::Insert
                };
                FlowUpdate::new(SourceAddr(s), DestAddr(s % 5), delta)
            })
            .collect()
    }

    /// Appends a record of `batch` from position `start`.
    fn push_record(start: u64, batch: &NetBatch, log: &mut Vec<u8>) {
        encode_record(start, batch.covered, &batch.entries, log);
    }

    /// A log of records of 4, 3 and 5 updates from stream position 10,
    /// unfolded, and the batches they hold.
    fn sample_log() -> (Vec<u8>, Vec<NetBatch>) {
        let mut log = header().to_vec();
        let all = updates(0, 12);
        let batches: Vec<NetBatch> = [&all[..4], &all[4..7], &all[7..]]
            .into_iter()
            .map(NetBatch::from_updates)
            .collect();
        let mut start = 10;
        for batch in &batches {
            push_record(start, batch, &mut log);
            start += batch.covered;
        }
        (log, batches)
    }

    fn replayed(log: &[u8], from: u64) -> (LogReplay, Vec<NetBatch>) {
        let mut seen = Vec::new();
        let replay = replay(log, from, |batch| seen.push(batch.clone()));
        (replay, seen)
    }

    /// Recomputes the CRC of the one record at `at`, so a test can plant
    /// a bad field behind a valid frame.
    fn reframe(log: &mut [u8], at: usize) {
        let crc = crc32(&log[at + 4..]);
        log[at..at + 4].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn records_round_trip_in_order() {
        let (log, batches) = sample_log();
        assert_eq!(
            log.len() as u64,
            LOG_HEADER_LEN + record_len(4) + record_len(3) + record_len(5)
        );
        let (replay, seen) = replayed(&log, 10);
        assert_eq!(seen, batches);
        assert_eq!((replay.replayed, replay.skipped, replay.dropped), (3, 0, 0));
        assert_eq!((replay.end, replay.entries), (22, 12));
        assert_eq!(replay.kept_bytes, log.len() as u64);
        assert!(replay.problem.is_none() && !replay.legacy);
    }

    #[test]
    fn net_entries_and_empty_records_round_trip() {
        let key = |s| FlowUpdate::insert(SourceAddr(s), DestAddr(9)).key;
        let deltas = [1, -1, 63, -64, 64, -65, 300, i64::MAX, i64::MIN, -2];
        let folded = NetBatch {
            entries: deltas
                .iter()
                .zip(0..)
                .map(|(&delta, s)| NetUpdate { key: key(s), delta })
                .collect(),
            covered: u64::MAX / 2,
        };
        // A stretch whose updates all cancelled: no entries, but it
        // still moves the position.
        let cancelled = NetBatch {
            entries: Vec::new(),
            covered: 40,
        };
        let mut log = header().to_vec();
        push_record(0, &cancelled, &mut log);
        assert_eq!(log.len() as u64, LOG_HEADER_LEN + record_len(0));
        push_record(40, &folded, &mut log);
        let (replay, seen) = replayed(&log, 0);
        assert_eq!(seen, [cancelled, folded]);
        assert_eq!(replay.end, 40 + u64::MAX / 2);
        assert!(replay.problem.is_none());
    }

    #[test]
    fn covered_records_are_skipped_and_a_gap_is_refused() {
        let (log, batches) = sample_log();
        let (replay, seen) = replayed(&log, 17);
        assert_eq!(seen, &batches[2..]);
        assert_eq!((replay.replayed, replay.skipped, replay.dropped), (1, 2, 0));

        let gap = super::replay(&log, 9, |_| panic!("a gap must not apply"));
        assert_eq!((gap.replayed, gap.dropped, gap.end), (0, 3, 9));
        assert_eq!(gap.kept_bytes, LOG_HEADER_LEN);
        assert!(matches!(
            gap.problem,
            Some(PersistError::Incompatible { .. })
        ));
    }

    #[test]
    fn empty_and_foreign_logs() {
        let empty = replay(&[], 5, |_| panic!("nothing to apply"));
        assert_eq!((empty.replayed, empty.dropped, empty.end), (0, 0, 5));
        assert!(empty.problem.is_none());

        let header_only = replay(&header(), 5, |_| panic!("nothing to apply"));
        assert_eq!(
            (header_only.dropped, header_only.kept_bytes),
            (0, LOG_HEADER_LEN)
        );

        let (mut log, _) = sample_log();
        log[0] ^= 1;
        let foreign = replay(&log, 10, |_| panic!("a foreign log must not apply"));
        assert_eq!(foreign.dropped, 1);
        assert!(matches!(
            foreign.problem,
            Some(PersistError::BadMagic { .. })
        ));

        let (mut log, _) = sample_log();
        log[8..12].copy_from_slice(&3u32.to_le_bytes());
        let future = replay(&log, 10, |_| panic!("a newer layout must not apply"));
        assert_eq!(future.dropped, 1);
        assert!(matches!(
            future.problem,
            Some(PersistError::UnsupportedVersion { found: 3, .. })
        ));

        let torn_header = replay(&header()[..7], 10, |_| panic!("nothing to apply"));
        assert!(matches!(
            torn_header.problem,
            Some(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn a_record_with_more_entries_than_it_covers_is_corrupt_and_dropped() {
        let (mut log, batches) = sample_log();
        let batch = NetBatch {
            entries: NetBatch::from_updates(&updates(50, 3)).entries,
            covered: 2,
        };
        push_record(22, &batch, &mut log);
        let (replay, seen) = replayed(&log, 10);
        assert_eq!(seen, batches, "the records before it still apply");
        assert_eq!((replay.replayed, replay.dropped, replay.end), (3, 1, 22));
        assert!(matches!(replay.problem, Some(PersistError::Corrupt { .. })));
        assert_eq!(replay.kept_bytes, log.len() as u64 - record_len(3));
    }

    #[test]
    fn a_record_whose_end_overflows_is_corrupt_and_dropped() {
        let start = u64::MAX - 2;
        let mut log = header().to_vec();
        push_record(start, &NetBatch::from_updates(&updates(0, 2)), &mut log);
        push_record(start + 2, &NetBatch::from_updates(&updates(2, 2)), &mut log);
        let (replay, seen) = replayed(&log, start);
        assert_eq!(seen.len(), 1);
        assert_eq!(
            (replay.replayed, replay.dropped, replay.end),
            (1, 1, u64::MAX)
        );
        assert!(matches!(replay.problem, Some(PersistError::Corrupt { .. })));
    }

    #[test]
    fn an_overlong_delta_behind_a_valid_crc_is_corrupt() {
        let mut log = header().to_vec();
        push_record(0, &NetBatch::from_updates(&updates(0, 1)), &mut log);
        let at = HEADER_LEN;
        // Eleven continuation bytes where the one delta byte was.
        log.pop();
        log.extend_from_slice(&[0xff; 11]);
        let payload = u64_from_usize(log.len() - at - FRAME_LEN);
        log[at + 4..at + FRAME_LEN].copy_from_slice(&payload.to_le_bytes());
        reframe(&mut log, at);
        let replay = replay(&log, 0, |_| panic!("a corrupt record must not apply"));
        assert_eq!(replay.dropped, 1);
        assert!(matches!(replay.problem, Some(PersistError::Corrupt { .. })));
    }

    #[test]
    fn a_version_1_log_still_replays() {
        let all = updates(0, 9);
        let log = v1_log(&[(30, &all[..5]), (35, &all[5..])]);
        let (replay, seen) = replayed(&log, 30);
        assert_eq!(
            seen,
            [
                NetBatch::from_updates(&all[..5]),
                NetBatch::from_updates(&all[5..])
            ]
        );
        assert_eq!((replay.replayed, replay.dropped, replay.end), (2, 0, 39));
        assert!(replay.legacy, "a writer must not extend it");
    }

    #[test]
    fn bad_delta_byte_behind_a_valid_crc_is_corrupt() {
        let all = updates(0, 2);
        let mut bad = v1_log(&[(0, &all)]);
        let last = bad.len() - 1;
        bad[last] = 7;
        reframe(&mut bad, HEADER_LEN);
        let refused = super::replay(&bad, 0, |_| panic!("a corrupt record must not apply"));
        assert_eq!(refused.dropped, 1);
        assert!(matches!(
            refused.problem,
            Some(PersistError::Corrupt { .. })
        ));
    }
}
