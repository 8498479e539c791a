//! The update log beside a snapshot.
//!
//! The sketch is a linear function of its update stream (DESIGN.md
//! §12), so the updates since a snapshot are an exact delta: a snapshot
//! at stream position `p` plus the updates `p..n`, applied in order, is
//! bit-identical to the state after `n`. The log holds those updates as
//! one CRC-framed record per checkpoint boundary (all integers
//! little-endian):
//!
//! ```text
//! header := magic[8]="DCSULOG\0"  version:u32
//! record := crc32:u32  payload_len:u64  payload[payload_len]
//! payload := start:u64  (packed_key:u64  delta:u8)*
//! log    := header record*
//! ```
//!
//! `start` is the stream position of the record's first update, and the
//! CRC covers `payload_len` and the payload, so a damaged length is
//! caught like a damaged update. A replay applies the records that
//! extend a state at a given position and reports, never hides, the
//! ones it drops ([`LogReplay`]).

use dcs_core::{Delta, FlowKey, FlowUpdate};
use dcs_hash::cast::u64_from_usize;

use crate::error::PersistError;
use crate::wire::{crc32, ByteReader};

/// The first eight bytes of every update log.
pub const LOG_MAGIC: [u8; 8] = *b"DCSULOG\0";

/// The update-log layout version this build writes and reads. It is
/// independent of the snapshot's [`FORMAT_VERSION`](crate::FORMAT_VERSION).
pub const LOG_FORMAT_VERSION: u32 = 1;

/// Bytes of the log header: magic and version.
pub const LOG_HEADER_LEN: u64 = u64_from_usize(HEADER_LEN);
/// [`LOG_HEADER_LEN`] as an in-memory length.
const HEADER_LEN: usize = 12;

/// Bytes of a record's frame: CRC and payload length.
const FRAME_LEN: usize = 12;
/// Bytes of a payload's `start` field.
const START_LEN: usize = 8;
/// Bytes of one update on disk: the packed key and a delta byte.
const UPDATE_LEN: usize = 9;

/// Bytes one record of `updates` updates takes in the log.
pub fn record_len(updates: usize) -> u64 {
    u64_from_usize(FRAME_LEN + START_LEN) + u64_from_usize(updates) * u64_from_usize(UPDATE_LEN)
}

/// The log header.
pub(crate) fn header() -> [u8; HEADER_LEN] {
    let mut out = [0; HEADER_LEN];
    out[..8].copy_from_slice(&LOG_MAGIC);
    out[8..].copy_from_slice(&LOG_FORMAT_VERSION.to_le_bytes());
    out
}

/// Appends to `out` one record of `updates`, the first of which is
/// update number `start` of the stream.
pub(crate) fn encode_record(start: u64, updates: &[FlowUpdate], out: &mut Vec<u8>) {
    let at = out.len();
    let payload_len = START_LEN + updates.len() * UPDATE_LEN;
    out.reserve(FRAME_LEN + payload_len);
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&u64_from_usize(payload_len).to_le_bytes());
    out.extend_from_slice(&start.to_le_bytes());
    for update in updates {
        out.extend_from_slice(&update.key.packed().to_le_bytes());
        out.push(match update.delta {
            Delta::Insert => 0,
            Delta::Delete => 1,
        });
    }
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

/// Reads the record at the front of `bytes` into `updates`, returning
/// its `start` and its length in bytes.
fn decode_record(
    bytes: &[u8],
    updates: &mut Vec<FlowUpdate>,
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
    if !body.remaining().is_multiple_of(UPDATE_LEN) {
        return Err(PersistError::Corrupt {
            context: format!("{RECORD} of {len} payload bytes"),
        });
    }
    updates.clear();
    while !body.is_empty() {
        let key = FlowKey::from_packed(body.u64(RECORD)?);
        let delta = match body.u8(RECORD)? {
            0 => Delta::Insert,
            1 => Delta::Delete,
            other => {
                return Err(PersistError::Corrupt {
                    context: format!("update log delta byte {other}"),
                })
            }
        };
        updates.push(FlowUpdate { key, delta });
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

/// Checks the log header at the front of `log`.
fn check_header(log: &[u8]) -> Result<(), PersistError> {
    let what = "update log header";
    let mut reader = ByteReader::new(log);
    let magic = reader.take(LOG_MAGIC.len(), what)?;
    if magic != LOG_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(magic);
        return Err(PersistError::BadMagic { found });
    }
    let found = reader.u32(what)?;
    if found != LOG_FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found,
            supported: LOG_FORMAT_VERSION,
        });
    }
    Ok(())
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
    /// The stream position the state reaches after the replay.
    pub end: u64,
    /// Bytes of the log up to the first dropped record: what a writer
    /// keeps before appending.
    pub(crate) kept_bytes: u64,
    /// Why records were dropped, when any were.
    pub problem: Option<PersistError>,
}

/// Replays `log` onto a state at stream position `from` (see
/// [`CheckpointManager::replay_log`](crate::CheckpointManager::replay_log)).
pub(crate) fn replay(log: &[u8], from: u64, mut apply: impl FnMut(&[FlowUpdate])) -> LogReplay {
    let mut out = LogReplay {
        replayed: 0,
        skipped: 0,
        dropped: 0,
        end: from,
        kept_bytes: 0,
        problem: None,
    };
    if log.is_empty() {
        return out;
    }
    if let Err(problem) = check_header(log) {
        out.dropped = 1;
        out.problem = Some(problem);
        return out;
    }
    let mut at = HEADER_LEN;
    let mut updates = Vec::new();
    while at < log.len() {
        let (start, len) = match decode_record(&log[at..], &mut updates) {
            Ok(record) => record,
            Err(problem) => {
                out.problem = Some(problem);
                break;
            }
        };
        let Some(end) = start.checked_add(u64_from_usize(updates.len())) else {
            out.problem = Some(PersistError::Corrupt {
                context: format!("update log record at stream position {start} overflows"),
            });
            break;
        };
        if start == out.end {
            apply(&updates);
            out.replayed += 1;
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

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{DestAddr, SourceAddr};

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

    /// A log of records of 4, 3 and 5 updates from stream position 10.
    fn sample_log() -> (Vec<u8>, Vec<FlowUpdate>) {
        let mut log = header().to_vec();
        let all = updates(0, 12);
        encode_record(10, &all[..4], &mut log);
        encode_record(14, &all[4..7], &mut log);
        encode_record(17, &all[7..], &mut log);
        (log, all)
    }

    #[test]
    fn records_round_trip_in_order() {
        let (log, all) = sample_log();
        assert_eq!(
            log.len() as u64,
            LOG_HEADER_LEN + record_len(4) + record_len(3) + record_len(5)
        );
        let mut seen = Vec::new();
        let replay = replay(&log, 10, |u| seen.extend_from_slice(u));
        assert_eq!(seen, all);
        assert_eq!((replay.replayed, replay.skipped, replay.dropped), (3, 0, 0));
        assert_eq!(replay.end, 22);
        assert_eq!(replay.kept_bytes, log.len() as u64);
        assert!(replay.problem.is_none());
    }

    #[test]
    fn covered_records_are_skipped_and_a_gap_is_refused() {
        let (log, all) = sample_log();
        let mut seen = Vec::new();
        let replay = replay(&log, 17, |u| seen.extend_from_slice(u));
        assert_eq!(seen, &all[7..]);
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

        let torn_header = replay(&header()[..7], 10, |_| panic!("nothing to apply"));
        assert!(matches!(
            torn_header.problem,
            Some(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_delta_byte_behind_a_valid_crc_is_corrupt() {
        let mut log = header().to_vec();
        encode_record(0, &updates(0, 2), &mut log);
        let last = log.len() - 1;
        log[last] = 7;
        let crc = crc32(&log[LOG_HEADER_LEN as usize + 4..]);
        log[LOG_HEADER_LEN as usize..LOG_HEADER_LEN as usize + 4]
            .copy_from_slice(&crc.to_le_bytes());
        let replay = replay(&log, 0, |_| panic!("a corrupt record must not apply"));
        assert_eq!(replay.dropped, 1);
        assert!(matches!(replay.problem, Some(PersistError::Corrupt { .. })));
    }
}
