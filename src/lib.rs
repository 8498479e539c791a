//! # ddos-streams
//!
//! A from-scratch Rust implementation of **"Streaming Algorithms for
//! Robust, Real-Time Detection of DDoS Attacks"** (Ganguly, Garofalakis,
//! Rastogi, Sabnani — ICDCS 2007): hash-based stream synopses that track
//! the top-k destinations by **number of distinct sources with half-open
//! connections**, over streams of flow updates with both insertions and
//! deletions.
//!
//! The workspace is organized as focused crates, all re-exported here:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `dcs-core` | Distinct-Count Sketch, Tracking DCS, estimators |
//! | [`hash`] | `dcs-hash` | seeded hash families (mixers, multiply-shift, geometric) |
//! | [`baselines`] | `dcs-baselines` | exact tracking, FM/HLL, distinct sampling, Count-Min, Space-Saving, superspreaders |
//! | [`streamgen`] | `dcs-streamgen` | Zipf workloads, attack scenarios, trace format |
//! | [`netsim`] | `dcs-netsim` | TCP segments, handshake tracking, routers, DDoS monitor, pipeline |
//! | [`metrics`] | `dcs-metrics` | recall, relative error, timing, result tables |
//! | [`telemetry`] | `dcs-telemetry` | hot-path counters, latency histograms, JSONL snapshot export |
//! | [`persist`] | `dcs-persist` | crash-safe checkpoint/restore: versioned binary codec, atomic file manager |
//!
//! The most common entry points are re-exported at the top level.
//!
//! ## Example: attack vs flash crowd
//!
//! ```
//! use ddos_streams::{DestAddr, SketchConfig, SourceAddr, TrackingDcs};
//!
//! let mut monitor = TrackingDcs::new(SketchConfig::paper_default());
//!
//! // SYN flood: 1000 spoofed sources, none completes the handshake.
//! for s in 0..1000u32 {
//!     monitor.insert(SourceAddr(s), DestAddr(80));
//! }
//! // Flash crowd: 1500 legitimate clients, all complete (ACK ⇒ delete).
//! for s in 10_000..11_500u32 {
//!     monitor.insert(SourceAddr(s), DestAddr(443));
//!     monitor.delete(SourceAddr(s), DestAddr(443));
//! }
//!
//! let top = monitor.track_top_k(1, 0.25);
//! assert_eq!(top.entries[0].group, 80); // the flood, not the crowd
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dcs_baselines as baselines;
pub use dcs_core as core;
pub use dcs_hash as hash;
pub use dcs_metrics as metrics;
pub use dcs_netsim as netsim;
pub use dcs_persist as persist;
pub use dcs_streamgen as streamgen;
pub use dcs_telemetry as telemetry;

pub use dcs_core::{
    Delta, DestAddr, DistinctCountSketch, FlowKey, FlowUpdate, GroupBy, SketchConfig, SketchError,
    SourceAddr, TopKEntry, TopKEstimate, TrackingDcs,
};
pub use dcs_netsim::{AlarmPolicy, DdosMonitor, EdgeRouter, HandshakeTracker, TcpSegment};
pub use dcs_persist::{Checkpoint, CheckpointManager, PersistError};
pub use dcs_streamgen::{PaperWorkload, ScenarioBuilder, WorkloadConfig};
