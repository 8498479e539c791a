//! Typed errors for checkpoint encoding, decoding, and file handling.
//!
//! Every failure mode a checkpoint file can exhibit — missing, cut
//! short, bit-flipped, produced by a future format version, or
//! structurally valid but semantically inconsistent — maps to a
//! distinct [`PersistError`] variant. Decoding never panics: a monitor
//! restoring after a crash must degrade to a fresh start, not crash
//! again on its own recovery file.

use std::error::Error;
use std::fmt;
use std::io;

use dcs_core::SketchError;

/// Errors produced by checkpoint encode/decode and the
/// [`CheckpointManager`](crate::CheckpointManager).
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the manager was doing (e.g. `"write temp checkpoint"`).
        context: String,
        /// The originating I/O error.
        source: io::Error,
    },
    /// The file does not start with the checkpoint magic — it is not a
    /// checkpoint at all (or its first bytes were destroyed).
    BadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The file's format version is not one this build can read.
    UnsupportedVersion {
        /// The version recorded in the file.
        found: u32,
        /// The newest version this build supports.
        supported: u32,
    },
    /// The input ended before a complete structure could be read.
    Truncated {
        /// What was being read when the bytes ran out.
        context: String,
    },
    /// A section's payload does not match its recorded CRC-32 — the
    /// bytes were corrupted after the checkpoint was written.
    ChecksumMismatch {
        /// The four-character tag of the damaged section, or
        /// `"update log record"`.
        section: String,
        /// The CRC recorded in the section header.
        expected: u32,
        /// The CRC computed over the payload as read.
        actual: u32,
    },
    /// The bytes parsed but describe an impossible structure (unknown
    /// tags or enum values, inconsistent counts, out-of-range fields).
    Corrupt {
        /// Description of the first inconsistency found.
        context: String,
    },
    /// A counter word lies outside the sketch's 4-byte counter range.
    /// The format carries counters as 8-byte words; one no running
    /// sketch could hold is refused here, never wrapped into range.
    CounterOutOfRange {
        /// The slab being read.
        context: String,
        /// The offending word.
        value: i64,
    },
    /// The decoded state failed the sketch's own structural validation
    /// (see [`dcs_core::SketchError::InvalidState`]) or the restored
    /// configuration was rejected.
    State(SketchError),
    /// A structurally complete document was followed by extra bytes —
    /// evidence of a mangled write, rejected rather than ignored.
    TrailingBytes {
        /// Number of unconsumed bytes after the final section.
        remaining: usize,
    },
    /// The checkpoint is internally consistent but incompatible with
    /// the state it is being restored into (configuration mismatch,
    /// wrong document kind, wrong shard count).
    Incompatible {
        /// Description of the first mismatching attribute.
        reason: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { context, source } => {
                write!(
                    f,
                    "checkpoint I/O failed while trying to {context}: {source}"
                )
            }
            PersistError::BadMagic { found } => {
                write!(f, "not a checkpoint file: bad magic {found:02x?}")
            }
            PersistError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "checkpoint format version {found} is not supported \
                     (this build reads up to version {supported})"
                )
            }
            PersistError::Truncated { context } => {
                write!(f, "checkpoint truncated while reading {context}")
            }
            PersistError::ChecksumMismatch {
                section,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "checkpoint section {section:?} is corrupted: \
                     CRC-32 {actual:#010x} does not match recorded {expected:#010x}"
                )
            }
            PersistError::Corrupt { context } => {
                write!(f, "checkpoint is corrupt: {context}")
            }
            PersistError::CounterOutOfRange { context, value } => {
                write!(
                    f,
                    "checkpoint {context} holds counter {value}, \
                     outside the 4-byte counter range"
                )
            }
            PersistError::State(err) => {
                write!(f, "restored state rejected: {err}")
            }
            PersistError::TrailingBytes { remaining } => {
                write!(
                    f,
                    "checkpoint has {remaining} trailing byte(s) after the final section"
                )
            }
            PersistError::Incompatible { reason } => {
                write!(f, "checkpoint is incompatible with this monitor: {reason}")
            }
        }
    }
}

impl Error for PersistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::State(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SketchError> for PersistError {
    fn from(err: SketchError) -> Self {
        PersistError::State(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let truncated = PersistError::Truncated {
            context: "section header".into(),
        };
        assert!(truncated.to_string().contains("section header"));

        let crc = PersistError::ChecksumMismatch {
            section: "LVL".into(),
            expected: 1,
            actual: 2,
        };
        let text = crc.to_string();
        assert!(text.contains("LVL"), "text = {text}");
        assert!(text.contains("corrupted"));

        let version = PersistError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(version.to_string().contains('9'));
    }

    #[test]
    fn error_is_send_sync_and_chains_sources() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<PersistError>();

        let io = PersistError::Io {
            context: "rename".into(),
            source: io::Error::new(io::ErrorKind::PermissionDenied, "denied"),
        };
        assert!(io.source().is_some());
        let magic = PersistError::BadMagic { found: [0; 8] };
        assert!(magic.source().is_none());
    }
}
