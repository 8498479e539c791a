//! Compact binary trace encoding for flow-update streams.
//!
//! NetFlow-scale streams are large (the paper quotes 500 GB/day for one
//! backbone); a 9-byte fixed record (8-byte packed pair + 1-byte delta)
//! keeps recorded workloads replayable without JSON overhead.

use bytes::{Buf, BufMut, Bytes, BytesMut};

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
pub fn encode_trace(updates: &[FlowUpdate]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + updates.len() * 9);
    buf.put_slice(MAGIC);
    for u in updates {
        buf.put_u64(u.key.packed());
        buf.put_u8(match u.delta {
            Delta::Insert => 1,
            Delta::Delete => 0,
        });
    }
    buf.freeze()
}

/// Decodes a binary trace back into updates.
///
/// # Errors
///
/// Returns [`TraceError`] if the magic is missing, the buffer length is
/// not a whole number of records, or a delta byte is invalid.
pub fn decode_trace(mut bytes: &[u8]) -> Result<Vec<FlowUpdate>, TraceError> {
    if bytes.len() < 4 || &bytes[..4] != MAGIC {
        return Err(TraceError::BadMagic);
    }
    bytes = &bytes[4..];
    if !bytes.len().is_multiple_of(9) {
        return Err(TraceError::Truncated);
    }
    let mut out = Vec::with_capacity(bytes.len() / 9);
    while bytes.has_remaining() {
        let packed = bytes.get_u64();
        let delta = match bytes.get_u8() {
            1 => Delta::Insert,
            0 => Delta::Delete,
            other => return Err(TraceError::BadDelta(other)),
        };
        let key = FlowKey::from_packed(packed);
        out.push(FlowUpdate { key, delta });
    }
    Ok(out)
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
pub fn encode_timed_trace(updates: &[crate::timeline::TimedUpdate]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + updates.len() * 17);
    buf.put_slice(TIMED_MAGIC);
    for t in updates {
        buf.put_u64(t.at);
        buf.put_u64(t.update.key.packed());
        buf.put_u8(match t.update.delta {
            Delta::Insert => 1,
            Delta::Delete => 0,
        });
    }
    buf.freeze()
}

/// Decodes a timed trace.
///
/// # Errors
///
/// Returns [`TraceError`] on a missing magic, partial record, or
/// invalid delta byte.
pub fn decode_timed_trace(
    mut bytes: &[u8],
) -> Result<Vec<crate::timeline::TimedUpdate>, TraceError> {
    if bytes.len() < 4 || &bytes[..4] != TIMED_MAGIC {
        return Err(TraceError::BadMagic);
    }
    bytes = &bytes[4..];
    if !bytes.len().is_multiple_of(17) {
        return Err(TraceError::Truncated);
    }
    let mut out = Vec::with_capacity(bytes.len() / 17);
    while bytes.has_remaining() {
        let at = bytes.get_u64();
        let packed = bytes.get_u64();
        let delta = match bytes.get_u8() {
            1 => Delta::Insert,
            0 => Delta::Delete,
            other => return Err(TraceError::BadDelta(other)),
        };
        out.push(crate::timeline::TimedUpdate {
            at,
            update: FlowUpdate {
                key: FlowKey::from_packed(packed),
                delta,
            },
        });
    }
    Ok(out)
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
