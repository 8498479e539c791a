//! # dcs-telemetry — continuous self-measurement for the sketches
//!
//! The paper pitches the Tracking DCS as a *real-time* monitor (§5:
//! continuous top-k under inserts and deletions), but a deployed sketch
//! is opaque: silent clamps, level-occupancy drift, and screen
//! effectiveness are invisible until accuracy has already degraded.
//! This crate is the measurement substrate production heavy-hitter
//! deployments rely on (cf. Memento's continuous window/level
//! self-measurement):
//!
//! * [`counter`] — the closed set of hot-path event [`Counter`]s and
//!   the lock-free [`CounterSet`] that accumulates them.
//! * [`hist`] — [`LogHistogram`], a log₂-bucketed latency histogram
//!   summarized (`p50/p95/p99/max`) as a [`LatencyStats`].
//! * [`snapshot`] — [`TelemetrySnapshot`]: one observation of a running
//!   sketch (counters + per-level gauges + latency summaries),
//!   serialized as a single JSONL line.
//! * [`exporter`] — [`JsonlExporter`]: appends snapshots to a `.jsonl`
//!   sidecar next to an experiment's `results/*.json`.
//! * [`schema`] — [`schema::validate_line`]: the documented-schema
//!   check CI runs over every emitted sidecar.
//!
//! The recording types all take `&self` (atomics, `Relaxed`): sketches
//! can record from query paths without threading `&mut` through, and
//! sharded ingestion merges counter state linearly like the sketch
//! counters themselves. The sketch crates record in every build
//! (`dcs-core`'s `telem` module is the one recorder).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod exporter;
pub mod hist;
pub mod schema;
pub mod snapshot;
pub mod stats;

pub use counter::{Counter, CounterSet};
pub use exporter::{sidecar_path, JsonlExporter};
pub use hist::LogHistogram;
pub use schema::validate_line;
pub use snapshot::{json_string, LevelGauges, TelemetrySnapshot};
pub use stats::{LatencyStats, SizeStats};
