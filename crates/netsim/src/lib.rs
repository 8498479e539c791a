//! # dcs-netsim — the network substrate under the DDoS monitor
//!
//! The paper assumes flow-update streams arrive from network
//! instrumentation ("e.g., by deploying Cisco's NetFlow tool or AT&T's
//! GigaScope probe to monitor egress-flow traffic (and corresponding TCP
//! flags) for routers at the edge of the ISP network", §2). This crate
//! builds that instrumentation:
//!
//! * [`packet`] — TCP segments with SYN/ACK/FIN/RST flags and timestamps.
//! * [`conn`] — the handshake state machine that turns raw segments into
//!   the paper's `(source, dest, ±1)` updates: a new SYN emits `+1`
//!   (potentially-malicious half-open connection), the completing ACK
//!   emits `-1` (flow established as legitimate), and RST/FIN/timeout
//!   discount flows that stop being half-open.
//! * `flow_table` — the seeded per-flow table with O(expired) idle
//!   expiry that the handshake and NetFlow trackers share.
//! * [`traffic`] — packet-level drivers: legitimate handshakes, SYN
//!   floods (SYN only, spoofed sources), flash crowds (complete
//!   handshakes), port scans.
//! * [`router`] — edge routers batching exported flow updates.
//! * [`monitor`] — the DDoS MONITOR of Fig. 1: a Distinct-Count Sketch
//!   (optionally windowed) plus EWMA baseline profiles and alarm logic.
//! * [`window`] / [`decay`] — windowed detection built on sketch
//!   linearity: a ring of per-epoch delta sketches with O(1) slide
//!   (merge the incoming delta, subtract the expiring one), tumbling
//!   and sliding policies, and an exponentially-decayed scoring
//!   variant.
//! * [`pipeline`] — the packets-to-alarms driver: router threads ship
//!   exports, and under a tick cadence in-band time markers, over a
//!   bounded `std::sync::mpsc` channel to a monitor that judges on
//!   update counts or on the markers.
//! * [`ingest`] / [`sharded`] — persistent per-core ingest workers fed
//!   over bounded `std::sync::mpsc` channels, each feeding one locked
//!   shard sketch that reads use in place, with deterministic
//!   absolute-position routing and resumable checkpoints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod decay;
#[cfg(test)]
mod flow_oracle;
mod flow_table;
pub mod hierarchy;
pub mod impair;
pub mod ingest;
pub mod monitor;
pub mod netflow;
pub mod packet;
pub mod pipeline;
pub mod router;
pub mod sharded;
pub mod traffic;
pub mod window;

pub use conn::{ConnectionState, HandshakeTracker};
pub use decay::decayed_top_k;
pub use hierarchy::{Granularity, HierarchicalTracker};
pub use impair::Impairment;
pub use monitor::{Alarm, AlarmEvent, AlarmPolicy, DdosMonitor, Monitor};
pub use netflow::{FlowAggregator, FlowRecord, RecordConverter};
pub use packet::{TcpFlags, TcpSegment};
pub use pipeline::{
    run_pipeline, CheckpointSidecar, DetectionReport, PipelineConfig, TelemetrySidecar,
};
pub use router::EdgeRouter;
pub use sharded::{ingest_sharded, ShardedIngest};
pub use traffic::TrafficDriver;
pub use window::{EpochWindow, SlidingWindow, WindowPolicy};
