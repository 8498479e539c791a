//! # dcs-persist — crash-safe checkpoint/restore for the sketches
//!
//! A dependency-free persistence layer for `dcs-core` state: a
//! versioned binary codec (magic + format-version header,
//! length-prefixed section framing, CRC-32 per section — see
//! DESIGN.md §12 for the byte-level specification), an atomic
//! [`CheckpointManager`] (write-temp + fsync + rename), and the update
//! [`log`] beside each snapshot: one CRC-framed record of updates per
//! checkpoint boundary, appended instead of rewriting the snapshot.
//!
//! Correctness rides on the sketches' *linearity*: every counter,
//! key-sum, and fingerprint-sum is a sum over the updates seen so far,
//! so a sketch restored from a checkpoint taken at stream position `p`
//! and then fed updates `p..n` is **bit-identical** to a sketch that
//! processed all `n` updates uninterrupted. Recovery is therefore
//! "restore + replay the suffix", with no reconciliation step, and the
//! suffix can be the update log's records, the net changes of the
//! updates they cover — the
//! kill-and-resume tests in `tests/checkpoint_resume.rs` pin this down
//! slab by slab.
//!
//! ```
//! use dcs_core::{DestAddr, DistinctCountSketch, SketchConfig, SourceAddr};
//! use dcs_persist::{decode, encode, Checkpoint};
//!
//! let config = SketchConfig::builder().seed(7).build()?;
//! let mut sketch = DistinctCountSketch::new(config);
//! sketch.insert(SourceAddr(1), DestAddr(80));
//!
//! let bytes = encode(&Checkpoint::Sketch(sketch.to_state()));
//! let restored = match decode(&bytes)? {
//!     Checkpoint::Sketch(state) => DistinctCountSketch::from_state(state)?,
//!     _ => unreachable!(),
//! };
//! assert_eq!(restored.to_state(), sketch.to_state());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod log;
pub mod manager;
pub mod wire;

pub use codec::{
    decode, encode, section_offsets, Checkpoint, ShardedCheckpoint, WindowCheckpoint,
    FORMAT_VERSION, MAGIC,
};
pub use error::PersistError;
pub use log::LogReplay;
pub use manager::{CheckpointManager, LOG_ENTRY_BUDGET};
pub use wire::crc32;
