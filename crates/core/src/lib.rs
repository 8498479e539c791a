//! # dcs-core — Distinct-Count Sketches for DDoS detection
//!
//! A from-scratch implementation of the stream synopses of Ganguly,
//! Garofalakis, Rastogi and Sabnani, *"Streaming Algorithms for Robust,
//! Real-Time Detection of DDoS Attacks"* (ICDCS 2007): small-space,
//! small-time structures that track the **top-k destinations by number
//! of distinct sources** over a stream of flow updates containing both
//! insertions and deletions.
//!
//! Why distinct counts with deletions? A SYN flood creates many
//! *half-open* connections from spoofed (hence distinct) sources; when a
//! client completes the handshake, its ACK arrives as a deletion and the
//! flow stops counting. A destination with a huge *net* distinct-source
//! count is therefore under attack — while a flash crowd (many
//! legitimate clients) cancels itself out. Volume-based heavy-hitter
//! detection can make neither distinction.
//!
//! ## The two synopses
//!
//! * [`DistinctCountSketch`] — the Basic sketch (§3–4): `O(r log m)` per
//!   update, queries rescan the structure (`BaseTopk`). Use when
//!   queries are rare.
//! * [`TrackingDcs`] — the Tracking sketch (§5): `O(r log² m)` per
//!   update, queries in `O(k log m)` (`TrackTopk`). Use for continuous
//!   monitoring.
//!
//! Both handle deletions natively, are linearly mergeable across
//! routers, and expose a threshold variant and a source-keyed
//! (superspreader / port-scan) orientation.
//!
//! ## Quickstart
//!
//! ```
//! use dcs_core::{DestAddr, SketchConfig, SourceAddr, TrackingDcs};
//!
//! let config = SketchConfig::builder().seed(7).build()?;
//! let mut monitor = TrackingDcs::new(config);
//!
//! // 300 spoofed sources SYN-flood destination 80, nobody completes.
//! for s in 0..300u32 {
//!     monitor.insert(SourceAddr(s), DestAddr(80));
//! }
//! // A flash crowd of 500 hits destination 443 but completes handshakes:
//! for s in 1000..1500u32 {
//!     monitor.insert(SourceAddr(s), DestAddr(443));
//!     monitor.delete(SourceAddr(s), DestAddr(443)); // ACK observed
//! }
//!
//! let top = monitor.track_top_k(1, 0.25);
//! assert_eq!(top.entries[0].group, 80); // the flood, not the crowd
//! # Ok::<(), dcs_core::SketchError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod estimator;
pub mod fold;
pub mod heap;
pub(crate) mod level;
pub mod signature;
pub mod sketch;
pub mod space;
pub mod state;
pub(crate) mod telem;
pub mod theory;
pub mod tracking;
pub mod types;

pub use config::{SketchConfig, SketchConfigBuilder, KEY_BITS};
pub use dcs_hash::cast;
pub use dcs_hash::det::{DetHashMap, DetHashSet};
/// Snapshot/gauge/export types for [`DistinctCountSketch::telemetry_snapshot`]
/// and [`TrackingDcs::telemetry_snapshot`], re-exported so downstream
/// crates need not name `dcs-telemetry` directly.
pub use dcs_telemetry as telemetry;
pub use error::SketchError;
pub use estimator::{TopKEntry, TopKEstimate};
pub use fold::UpdateFold;
pub use sketch::{DistinctCountSketch, DistinctSample, EpochSlide, BATCH_CHUNK, BATCH_MIN_ROUTED};
pub use space::{
    brute_force_bytes, paper_sketch_bytes, predicted_sketch_bytes, SpaceReport,
    PAPER_SIGNATURE_BYTES,
};
pub use state::{LevelSlabs, SketchState, TrackingLevelState, TrackingState};
pub use tracking::TrackingDcs;
pub use types::{Delta, DestAddr, FlowKey, FlowUpdate, GroupBy, NetBatch, NetUpdate, SourceAddr};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<DistinctCountSketch>();
        assert_bounds::<TrackingDcs>();
        assert_bounds::<SketchConfig>();
        assert_bounds::<TopKEstimate>();
        assert_bounds::<FlowUpdate>();
    }
}
