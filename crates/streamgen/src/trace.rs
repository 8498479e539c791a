//! Compact binary trace encoding for flow-update streams.
//!
//! NetFlow-scale streams are large (the paper quotes 500 GB/day for one
//! backbone); a 9-byte fixed record (8-byte packed pair + 1-byte delta)
//! keeps recorded workloads replayable without JSON overhead.

use dcs_core::{Delta, FlowKey, FlowUpdate};

/// Magic bytes identifying a trace file ("DCS1").
const MAGIC: &[u8; 4] = b"DCS1";

/// Errors from trace decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// The buffer does not start with the trace magic.
    BadMagic,
    /// The buffer length is not consistent with whole records.
    Truncated,
    /// A delta byte was neither 0 (delete) nor 1 (insert).
    BadDelta(u8),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "missing trace magic"),
            TraceError::Truncated => write!(f, "trace is truncated mid-record"),
            TraceError::BadDelta(b) => write!(f, "invalid delta byte {b}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Encodes a stream of updates into the binary trace format.
///
/// # Examples
///
/// ```
/// use dcs_core::{DestAddr, FlowUpdate, SourceAddr};
/// use dcs_streamgen::{decode_trace, encode_trace};
///
/// let updates = vec![FlowUpdate::insert(SourceAddr(1), DestAddr(2))];
/// let bytes = encode_trace(&updates);
/// assert_eq!(decode_trace(&bytes)?, updates);
/// # Ok::<(), dcs_streamgen::TraceError>(())
/// ```
pub fn encode_trace(updates: &[FlowUpdate]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + updates.len() * 9);
    buf.extend_from_slice(MAGIC);
    for u in updates {
        buf.extend_from_slice(&u.key.packed().to_be_bytes());
        buf.push(delta_byte(u.delta));
    }
    buf
}

/// Decodes a binary trace back into updates.
///
/// # Errors
///
/// Returns [`TraceError`] if the magic is missing, the buffer length is
/// not a whole number of records, or a delta byte is invalid.
pub fn decode_trace(bytes: &[u8]) -> Result<Vec<FlowUpdate>, TraceError> {
    records(bytes, MAGIC, 9)?
        .map(|record| {
            Ok(FlowUpdate {
                key: FlowKey::from_packed(be_u64(&record[..8])),
                delta: delta_from(record[8])?,
            })
        })
        .collect()
}

/// Magic bytes identifying a *timed* trace ("DCT1").
const TIMED_MAGIC: &[u8; 4] = b"DCT1";

/// Encodes a time-annotated stream: 17-byte records
/// (8-byte tick + 8-byte packed pair + 1-byte delta).
///
/// # Examples
///
/// ```
/// use dcs_core::{DestAddr, FlowUpdate, SourceAddr};
/// use dcs_streamgen::timeline::TimedUpdate;
/// use dcs_streamgen::trace::{decode_timed_trace, encode_timed_trace};
///
/// let timed = vec![TimedUpdate {
///     at: 42,
///     update: FlowUpdate::insert(SourceAddr(1), DestAddr(2)),
/// }];
/// let bytes = encode_timed_trace(&timed);
/// assert_eq!(decode_timed_trace(&bytes)?, timed);
/// # Ok::<(), dcs_streamgen::TraceError>(())
/// ```
pub fn encode_timed_trace(updates: &[crate::timeline::TimedUpdate]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + updates.len() * 17);
    buf.extend_from_slice(TIMED_MAGIC);
    for t in updates {
        buf.extend_from_slice(&t.at.to_be_bytes());
        buf.extend_from_slice(&t.update.key.packed().to_be_bytes());
        buf.push(delta_byte(t.update.delta));
    }
    buf
}

/// Decodes a timed trace.
///
/// # Errors
///
/// Returns [`TraceError`] on a missing magic, partial record, or
/// invalid delta byte.
pub fn decode_timed_trace(bytes: &[u8]) -> Result<Vec<crate::timeline::TimedUpdate>, TraceError> {
    records(bytes, TIMED_MAGIC, 17)?
        .map(|record| {
            Ok(crate::timeline::TimedUpdate {
                at: be_u64(&record[..8]),
                update: FlowUpdate {
                    key: FlowKey::from_packed(be_u64(&record[8..16])),
                    delta: delta_from(record[16])?,
                },
            })
        })
        .collect()
}

/// Checks `magic` and whole `size`-byte records, then yields them.
fn records<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    size: usize,
) -> Result<std::slice::ChunksExact<'a, u8>, TraceError> {
    let body = bytes.strip_prefix(magic).ok_or(TraceError::BadMagic)?;
    if !body.len().is_multiple_of(size) {
        return Err(TraceError::Truncated);
    }
    Ok(body.chunks_exact(size))
}

/// The big-endian `u64` in an 8-byte field.
fn be_u64(field: &[u8]) -> u64 {
    let mut be = [0u8; 8];
    be.copy_from_slice(field);
    u64::from_be_bytes(be)
}

/// The on-disk delta byte: 1 for an insert, 0 for a delete.
fn delta_byte(delta: Delta) -> u8 {
    match delta {
        Delta::Insert => 1,
        Delta::Delete => 0,
    }
}

/// Reads a delta byte back.
fn delta_from(byte: u8) -> Result<Delta, TraceError> {
    match byte {
        1 => Ok(Delta::Insert),
        0 => Ok(Delta::Delete),
        other => Err(TraceError::BadDelta(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{DestAddr, SourceAddr};
    use proptest::prelude::*;

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = encode_trace(&[]);
        assert_eq!(bytes.len(), 4);
        assert_eq!(decode_trace(&bytes).unwrap(), vec![]);
    }

    #[test]
    fn record_size_is_nine_bytes() {
        let updates = vec![
            FlowUpdate::insert(SourceAddr(1), DestAddr(2)),
            FlowUpdate::delete(SourceAddr(3), DestAddr(4)),
        ];
        assert_eq!(encode_trace(&updates).len(), 4 + 18);
    }

    #[test]
    fn encodings_match_golden_bytes() {
        use crate::timeline::TimedUpdate;
        // The packed key holds the source in its high half; every
        // multi-byte field is big-endian, and the delta byte is 1 for an
        // insert, 0 for a delete.
        let insert = FlowUpdate::insert(SourceAddr(0x0102_0304), DestAddr(0x0506_0708));
        let delete = FlowUpdate::delete(SourceAddr(0xA0B0_C0D0), DestAddr(0x0000_00FF));
        let plain = [
            &b"DCS1"[..],
            &[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 1],
            &[0xA0, 0xB0, 0xC0, 0xD0, 0x00, 0x00, 0x00, 0xFF, 0],
        ]
        .concat();
        assert_eq!(&encode_trace(&[insert, delete])[..], &plain[..]);
        assert_eq!(decode_trace(&plain).unwrap(), vec![insert, delete]);

        let timed = [
            TimedUpdate {
                at: 0x1122_3344_5566_7788,
                update: insert,
            },
            TimedUpdate {
                at: 9,
                update: delete,
            },
        ];
        let timed_bytes = [
            &b"DCT1"[..],
            &[0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88],
            &[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 1],
            &[0, 0, 0, 0, 0, 0, 0, 9],
            &[0xA0, 0xB0, 0xC0, 0xD0, 0x00, 0x00, 0x00, 0xFF, 0],
        ]
        .concat();
        assert_eq!(&encode_timed_trace(&timed)[..], &timed_bytes[..]);
        assert_eq!(decode_timed_trace(&timed_bytes).unwrap(), timed);
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(decode_trace(b"NOPE"), Err(TraceError::BadMagic));
        assert_eq!(decode_trace(b"DC"), Err(TraceError::BadMagic));
    }

    #[test]
    fn truncation_is_rejected() {
        let updates = vec![FlowUpdate::insert(SourceAddr(1), DestAddr(2))];
        let bytes = encode_trace(&updates);
        assert_eq!(
            decode_trace(&bytes[..bytes.len() - 1]),
            Err(TraceError::Truncated)
        );
    }

    #[test]
    fn bad_delta_is_rejected() {
        let mut bytes = encode_trace(&[FlowUpdate::insert(SourceAddr(1), DestAddr(2))]).to_vec();
        *bytes.last_mut().unwrap() = 7;
        assert_eq!(decode_trace(&bytes), Err(TraceError::BadDelta(7)));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(TraceError::BadDelta(9).to_string().contains('9'));
        assert!(!TraceError::BadMagic.to_string().is_empty());
        assert!(!TraceError::Truncated.to_string().is_empty());
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_streams(
            records in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..200)
        ) {
            let updates: Vec<FlowUpdate> = records
                .into_iter()
                .map(|(packed, ins)| FlowUpdate {
                    key: FlowKey::from_packed(packed),
                    delta: if ins { Delta::Insert } else { Delta::Delete },
                })
                .collect();
            let bytes = encode_trace(&updates);
            prop_assert_eq!(decode_trace(&bytes).unwrap(), updates);
        }
    }

    #[test]
    fn timed_trace_roundtrips() {
        use crate::timeline::TimedUpdate;
        let timed: Vec<TimedUpdate> = (0..50u32)
            .map(|i| TimedUpdate {
                at: u64::from(i) * 3,
                update: if i % 2 == 0 {
                    FlowUpdate::insert(SourceAddr(i), DestAddr(1))
                } else {
                    FlowUpdate::delete(SourceAddr(i), DestAddr(1))
                },
            })
            .collect();
        let bytes = encode_timed_trace(&timed);
        assert_eq!(bytes.len(), 4 + 50 * 17);
        assert_eq!(decode_timed_trace(&bytes).unwrap(), timed);
    }

    #[test]
    fn timed_trace_rejects_plain_trace_magic() {
        let plain = encode_trace(&[FlowUpdate::insert(SourceAddr(1), DestAddr(2))]);
        assert_eq!(decode_timed_trace(&plain), Err(TraceError::BadMagic));
        let timed = encode_timed_trace(&[]);
        assert_eq!(decode_trace(&timed), Err(TraceError::BadMagic));
    }

    #[test]
    fn timed_trace_truncation_rejected() {
        use crate::timeline::TimedUpdate;
        let timed = vec![TimedUpdate {
            at: 1,
            update: FlowUpdate::insert(SourceAddr(1), DestAddr(2)),
        }];
        let bytes = encode_timed_trace(&timed);
        assert_eq!(
            decode_timed_trace(&bytes[..bytes.len() - 2]),
            Err(TraceError::Truncated)
        );
    }
}
