//! NetFlow-style flow records and their conversion to flow updates.
//!
//! The paper's deployment story runs through flow records: "such input
//! flow-update streams to our DDoS MONITOR can be generated … by
//! deploying Cisco's NetFlow tool … to monitor egress-flow traffic
//! (and corresponding TCP flags) for routers at the edge" (§2). This
//! module supplies that representation: per-flow aggregated records
//! carrying the OR of observed TCP flags (as NetFlow v5 does), an
//! aggregator that builds them from segments, and the flag-pattern
//! classifier that turns an expired record into `+1` / `-1` / nothing.
//!
//! Classification of an expired record:
//!
//! | flags seen (client→server) | meaning | update |
//! |---|---|---|
//! | SYN only | half-open connection attempt | `+1` |
//! | SYN and (client ACK, FIN, or RST) | completed or torn down | none |
//! | no SYN (mid-stream export) | unknown establishment | none |
//!
//! A long-lived flow that exports a SYN-only record and *later* exports
//! a continuation record with an ACK must be discounted: the converter
//! remembers which flows it has emitted `+1` for and emits the matching
//! `-1` when evidence of establishment arrives.

use std::collections::HashSet;

use dcs_core::{Delta, DestAddr, FlowKey, FlowUpdate, SourceAddr};

use crate::flow_table::FlowTable;
use crate::packet::{TcpFlags, TcpSegment};

/// An aggregated flow record (NetFlow v5-like, reduced to the fields
/// the monitor consumes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowRecord {
    /// Client (initiator) address.
    pub src: SourceAddr,
    /// Server address.
    pub dst: DestAddr,
    /// OR of all client→server TCP flags observed.
    pub flags: TcpFlags,
    /// Packets counted (both directions).
    pub packets: u64,
    /// Payload bytes counted (both directions).
    pub bytes: u64,
    /// First-seen tick.
    pub first: u64,
    /// Last-seen tick.
    pub last: u64,
}

/// Aggregates segments into flow records, expiring them on inactivity
/// (like a router's flow cache).
#[derive(Debug)]
pub struct FlowAggregator {
    /// Active flows keyed by the client→server pair, exported once idle
    /// for longer than the inactivity timeout.
    active: FlowTable<FlowRecord>,
    exported: Vec<FlowRecord>,
}

impl FlowAggregator {
    /// Creates an aggregator exporting flows idle for `idle_timeout`
    /// ticks.
    ///
    /// # Panics
    ///
    /// Panics if `idle_timeout` is zero.
    pub fn new(idle_timeout: u64) -> Self {
        assert!(idle_timeout > 0, "idle_timeout must be positive");
        Self {
            active: FlowTable::new(Some(idle_timeout)),
            exported: Vec::new(),
        }
    }

    /// Observes one segment, canonicalized to the client→server flow
    /// (reverse-direction segments update the same record but do not
    /// contribute client flags).
    pub fn observe(&mut self, segment: &TcpSegment) {
        let forward = FlowKey::new(segment.src, segment.dst).packed();
        let reverse = FlowKey::new(SourceAddr(segment.dst.0), DestAddr(segment.src.0)).packed();
        let (key, is_forward) = if segment.flags.is_syn_ack() {
            (reverse, false)
        } else if self.active.get(forward).is_some() || self.active.get(reverse).is_none() {
            (forward, true)
        } else {
            (reverse, false)
        };
        let (record, _) = self
            .active
            .touch_or_insert_with(key, segment.timestamp, || FlowRecord {
                src: FlowKey::from_packed(key).source(),
                dst: FlowKey::from_packed(key).dest(),
                flags: TcpFlags::empty(),
                packets: 0,
                bytes: 0,
                first: segment.timestamp,
                last: segment.timestamp,
            });
        record.packets += 1;
        record.bytes += u64::from(segment.payload_len);
        record.last = segment.timestamp;
        if is_forward {
            record.flags |= segment.flags;
        }
        self.expire(segment.timestamp);
    }

    /// Expires idle flows as of `now`, moving them to the export queue.
    pub fn expire(&mut self, now: u64) {
        let start = self.exported.len();
        let exported = &mut self.exported;
        self.active.expire(now, |_, record| exported.push(record));
        sort_batch(&mut self.exported[start..]);
    }

    /// Forces every remaining flow out (end of the observation window).
    pub fn flush(&mut self) {
        let start = self.exported.len();
        self.exported
            .extend(self.active.drain().map(|(_, record)| record));
        sort_batch(&mut self.exported[start..]);
    }

    /// Takes the exported records.
    pub fn drain_records(&mut self) -> Vec<FlowRecord> {
        std::mem::take(&mut self.exported)
    }

    /// Number of flows currently in the cache.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }
}

/// Puts one export batch in its deterministic order.
fn sort_batch(batch: &mut [FlowRecord]) {
    batch.sort_by_key(|r| (r.first, r.src.0, r.dst.0));
}

/// Converts expired flow records to flow updates, remembering which
/// flows it has reported half-open so later establishment evidence
/// produces the matching deletion.
#[derive(Debug, Default)]
pub struct RecordConverter {
    reported_half_open: HashSet<u64>,
}

impl RecordConverter {
    /// Creates an empty converter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies one record (see the module docs), returning the
    /// update to forward, if any.
    pub fn convert(&mut self, record: &FlowRecord) -> Option<FlowUpdate> {
        let key = FlowKey::new(record.src, record.dst);
        let saw_syn = record.flags.contains(TcpFlags::SYN);
        let established = record.flags.contains(TcpFlags::ACK)
            || record.flags.contains(TcpFlags::FIN)
            || record.flags.contains(TcpFlags::RST);
        if saw_syn && !established {
            // Half-open attempt. Report once per flow.
            if self.reported_half_open.insert(key.packed()) {
                return Some(FlowUpdate {
                    key,
                    delta: Delta::Insert,
                });
            }
            return None;
        }
        if established && self.reported_half_open.remove(&key.packed()) {
            // Previously-reported half-open flow turned out legitimate.
            return Some(FlowUpdate {
                key,
                delta: Delta::Delete,
            });
        }
        None
    }

    /// Converts a batch of records.
    pub fn convert_all(&mut self, records: &[FlowRecord]) -> Vec<FlowUpdate> {
        records.iter().filter_map(|r| self.convert(r)).collect()
    }

    /// Number of flows currently reported half-open.
    pub fn outstanding_half_open(&self) -> usize {
        self.reported_half_open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficDriver;

    fn aggregate(segments: &[TcpSegment], timeout: u64) -> Vec<FlowRecord> {
        let mut agg = FlowAggregator::new(timeout);
        for s in segments {
            agg.observe(s);
        }
        agg.flush();
        agg.drain_records()
    }

    #[test]
    fn complete_session_yields_one_established_record() {
        let mut driver = TrafficDriver::new(1);
        driver.legitimate_sessions(DestAddr(1), 1);
        let records = aggregate(&driver.into_segments(), 1_000);
        assert_eq!(records.len(), 1);
        let r = records[0];
        assert!(r.flags.contains(TcpFlags::SYN));
        assert!(r.flags.contains(TcpFlags::ACK));
        assert!(r.packets >= 4);
        assert!(r.bytes > 0);
        assert!(r.last >= r.first);
    }

    #[test]
    fn syn_flood_yields_syn_only_records() {
        let mut driver = TrafficDriver::new(2);
        driver.syn_flood(DestAddr(9), 50);
        let records = aggregate(&driver.into_segments(), 1_000);
        assert_eq!(records.len(), 50);
        for r in &records {
            assert!(r.flags.is_syn_only(), "flags = {}", r.flags);
        }
    }

    #[test]
    fn converter_counts_floods_and_skips_legitimate() {
        let mut driver = TrafficDriver::new(3);
        driver
            .legitimate_sessions(DestAddr(1), 40)
            .syn_flood(DestAddr(2), 60);
        let records = aggregate(&driver.into_segments(), 1_000);
        let mut conv = RecordConverter::new();
        let updates = conv.convert_all(&records);
        let net: i64 = updates.iter().map(|u| u.delta.signum()).sum();
        assert_eq!(net, 60);
        assert!(updates.iter().all(|u| u.key.dest().0 == 2));
        assert_eq!(conv.outstanding_half_open(), 60);
    }

    #[test]
    fn late_establishment_is_discounted() {
        // First export window sees only the SYN; a later record for the
        // same flow carries the ACK. The converter must emit +1 then -1.
        let (c, s) = (SourceAddr(5), DestAddr(6));
        let mut agg = FlowAggregator::new(10);
        let mut conv = RecordConverter::new();

        agg.observe(&TcpSegment::syn(c, s, 0));
        // Idle long enough to expire the SYN-only record.
        agg.observe(&TcpSegment::syn(SourceAddr(99), DestAddr(98), 50));
        let first_batch = conv.convert_all(&agg.drain_records());
        assert_eq!(first_batch.len(), 1);
        assert_eq!(first_batch[0].delta, Delta::Insert);
        assert_eq!(conv.outstanding_half_open(), 1);

        // The client finally ACKs; a fresh record for the same flow.
        agg.observe(&TcpSegment::ack(c, s, 60));
        agg.flush();
        let second_batch = conv.convert_all(&agg.drain_records());
        let ours: Vec<_> = second_batch
            .iter()
            .filter(|u| u.key == FlowKey::new(c, s))
            .collect();
        assert_eq!(ours.len(), 1);
        assert_eq!(ours[0].delta, Delta::Delete);
        // Only the clock-advancing helper flow (99 → 98, SYN-only)
        // remains outstanding.
        assert_eq!(conv.outstanding_half_open(), 1);
    }

    #[test]
    fn repeated_syn_only_records_count_once() {
        let (c, s) = (SourceAddr(7), DestAddr(8));
        let mut conv = RecordConverter::new();
        let record = FlowRecord {
            src: c,
            dst: s,
            flags: TcpFlags::SYN,
            packets: 1,
            bytes: 0,
            first: 0,
            last: 0,
        };
        assert!(conv.convert(&record).is_some());
        assert!(conv.convert(&record).is_none(), "no double counting");
    }

    #[test]
    fn mid_stream_records_are_ignored() {
        // A record with data but no SYN (export boundary split the
        // flow): no establishment state can be inferred, no update.
        let mut conv = RecordConverter::new();
        let record = FlowRecord {
            src: SourceAddr(1),
            dst: DestAddr(2),
            flags: TcpFlags::ACK,
            packets: 10,
            bytes: 5_000,
            first: 0,
            last: 9,
        };
        assert!(conv.convert(&record).is_none());
    }

    #[test]
    fn aggregator_cache_is_bounded_by_timeout() {
        let mut agg = FlowAggregator::new(10);
        for i in 0..1_000u32 {
            agg.observe(&TcpSegment::syn(SourceAddr(i), DestAddr(1), u64::from(i)));
        }
        // Only flows from the last ~10 ticks remain active.
        assert!(agg.active_flows() <= 12, "{} active", agg.active_flows());
        assert!(agg.drain_records().len() >= 988);
    }

    #[test]
    fn end_to_end_netflow_path_matches_packet_path() {
        // Sketch fed via flow records ≈ sketch fed via the handshake
        // tracker, for a flood + legitimate mix.
        use dcs_core::{SketchConfig, TrackingDcs};
        let mut driver = TrafficDriver::new(4);
        driver
            .legitimate_sessions(DestAddr(0x0b00_0001), 300)
            .syn_flood(DestAddr(0x0a00_0001), 800);
        let segments = driver.into_segments();

        let config = SketchConfig::builder()
            .buckets_per_table(512)
            .seed(4)
            .build()
            .unwrap();
        // Path A: packets → handshake tracker.
        let mut tracker = crate::conn::HandshakeTracker::new(None);
        let mut via_packets = TrackingDcs::new(config.clone());
        for seg in &segments {
            if let Some(u) = tracker.observe(seg) {
                via_packets.update(u);
            }
        }
        // Path B: packets → flow records → converter.
        let mut agg = FlowAggregator::new(1_000);
        for seg in &segments {
            agg.observe(seg);
        }
        agg.flush();
        let mut conv = RecordConverter::new();
        let mut via_records = TrackingDcs::new(config);
        for u in conv.convert_all(&agg.drain_records()) {
            via_records.update(u);
        }
        let a = via_packets.track_top_k(1, 0.25);
        let b = via_records.track_top_k(1, 0.25);
        assert_eq!(a.entries[0].group, 0x0a00_0001);
        assert_eq!(b.entries[0].group, 0x0a00_0001);
        // Same victim, comparable magnitude (packet path discounts
        // in-flight, record path waits for expiry — both see ~800).
        let (ea, eb) = (
            a.entries[0].estimated_frequency as f64,
            b.entries[0].estimated_frequency as f64,
        );
        assert!((ea - eb).abs() / ea.max(eb) < 0.5, "{ea} vs {eb}");
    }
}
