//! Edge routers: NetFlow-style exporters of flow updates.
//!
//! An edge router owns a [`HandshakeTracker`] for the traffic it sees
//! and batches the resulting `(source, dest, ±1)` updates for export to
//! the central DDoS monitor — the "collection of continuous streams of
//! flow updates from various elements in the underlying ISP network" of
//! Fig. 1.

use dcs_core::FlowUpdate;

use crate::conn::HandshakeTracker;
use crate::packet::TcpSegment;

/// An edge router converting observed segments into exported updates.
///
/// # Examples
///
/// ```
/// use dcs_core::{DestAddr, SourceAddr};
/// use dcs_netsim::{EdgeRouter, TcpSegment};
///
/// let mut router = EdgeRouter::new(1, Some(300));
/// router.observe(&TcpSegment::syn(SourceAddr(1), DestAddr(2), 0));
/// let exported = router.drain_exports();
/// assert_eq!(exported.len(), 1);
/// ```
#[derive(Debug)]
pub struct EdgeRouter {
    id: u32,
    tracker: HandshakeTracker,
    export_buffer: Vec<FlowUpdate>,
    segments_observed: u64,
    last_tick: u64,
}

impl EdgeRouter {
    /// Creates a router with the given `id` and half-open timeout (in
    /// ticks; `None` disables timeout-based discounting).
    pub fn new(id: u32, half_open_timeout: Option<u64>) -> Self {
        Self {
            id,
            tracker: HandshakeTracker::new(half_open_timeout),
            export_buffer: Vec::new(),
            segments_observed: 0,
            last_tick: 0,
        }
    }

    /// The router's identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Observes one segment, buffering any produced flow update and
    /// running timeout expiry as the clock advances.
    #[inline]
    pub fn observe(&mut self, segment: &TcpSegment) {
        self.segments_observed += 1;
        if let Some(update) = self.tracker.observe(segment) {
            self.export_buffer.push(update);
        }
        // Run expiry once per tick boundary crossing.
        if segment.timestamp > self.last_tick {
            self.last_tick = segment.timestamp;
            self.export_buffer
                .extend(self.tracker.tick(segment.timestamp));
        }
    }

    /// Observes a batch of segments.
    pub fn observe_all<'a, I: IntoIterator<Item = &'a TcpSegment>>(&mut self, segments: I) {
        for s in segments {
            self.observe(s);
        }
    }

    /// Forces timeout expiry at time `now` (e.g., end of a quiet
    /// period).
    pub fn flush_expired(&mut self, now: u64) {
        self.last_tick = self.last_tick.max(now);
        let expired = self.tracker.tick(now);
        self.export_buffer.extend(expired);
    }

    /// Takes the buffered exports, leaving an empty buffer of the same
    /// capacity, so the next batch fills without regrowing.
    pub fn drain_exports(&mut self) -> Vec<FlowUpdate> {
        let empty = Vec::with_capacity(self.export_buffer.capacity());
        std::mem::replace(&mut self.export_buffer, empty)
    }

    /// Number of updates currently buffered for export.
    pub fn pending_exports(&self) -> usize {
        self.export_buffer.len()
    }

    /// The router's clock: the newest timestamp it has observed, or the
    /// `now` of a later [`Self::flush_expired`].
    pub(crate) fn clock(&self) -> u64 {
        self.last_tick
    }

    /// Total segments observed.
    pub fn segments_observed(&self) -> u64 {
        self.segments_observed
    }

    /// The router's handshake tracker (read-only).
    pub fn tracker(&self) -> &HandshakeTracker {
        &self.tracker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{Delta, DestAddr, SourceAddr};

    #[test]
    fn exports_plus_and_minus_for_handshake() {
        let mut r = EdgeRouter::new(7, None);
        let (c, s) = (SourceAddr(1), DestAddr(2));
        r.observe(&TcpSegment::syn(c, s, 0));
        r.observe(&TcpSegment::syn_ack(s, c, 1));
        r.observe(&TcpSegment::ack(c, s, 2));
        let exports = r.drain_exports();
        assert_eq!(exports.len(), 2);
        assert_eq!(exports[0].delta, Delta::Insert);
        assert_eq!(exports[1].delta, Delta::Delete);
        assert_eq!(r.pending_exports(), 0);
        assert_eq!(r.segments_observed(), 3);
        assert_eq!(r.id(), 7);
    }

    #[test]
    fn timeout_expiry_is_exported() {
        let mut r = EdgeRouter::new(1, Some(10));
        r.observe(&TcpSegment::syn(SourceAddr(1), DestAddr(2), 0));
        // A much later unrelated segment advances the clock.
        r.observe(&TcpSegment::syn(SourceAddr(3), DestAddr(4), 100));
        let exports = r.drain_exports();
        // +1 (flow 1), +1 (flow 3), -1 (flow 1 expired).
        assert_eq!(exports.len(), 3);
        assert_eq!(exports.iter().map(|u| u.delta.signum()).sum::<i64>(), 1);
    }

    #[test]
    fn flush_expired_discounts_stragglers() {
        let mut r = EdgeRouter::new(1, Some(10));
        r.observe(&TcpSegment::syn(SourceAddr(1), DestAddr(2), 0));
        r.flush_expired(1_000);
        let exports = r.drain_exports();
        assert_eq!(exports.iter().map(|u| u.delta.signum()).sum::<i64>(), 0);
        assert_eq!(r.tracker().live_flows(), 0);
    }

    #[test]
    fn drain_exports_keeps_the_buffer_capacity() {
        let mut r = EdgeRouter::new(1, None);
        for source in 0..100 {
            r.observe(&TcpSegment::syn(SourceAddr(source), DestAddr(2), 0));
        }
        let capacity = r.export_buffer.capacity();
        let exports = r.drain_exports();
        let sources: Vec<u32> = exports.iter().map(|u| u.key.source().0).collect();
        assert_eq!(sources, (0..100).collect::<Vec<_>>());
        assert!(exports.iter().all(|u| u.delta == Delta::Insert));
        assert_eq!(r.pending_exports(), 0);
        assert_eq!(r.export_buffer.capacity(), capacity);
    }

    #[test]
    fn exports_do_not_depend_on_the_table_seed() {
        use crate::{Impairment, TrafficDriver};
        let mut driver = TrafficDriver::new(17);
        driver
            .legitimate_sessions(DestAddr(1), 400)
            .syn_flood(DestAddr(2), 600)
            .advance_clock(150)
            .flash_crowd(DestAddr(3), 300)
            .syn_flood(DestAddr(1), 200);
        let feed = Impairment::new(3)
            .loss(0.05)
            .duplication(0.1)
            .reordering(24)
            .apply(&driver.into_segments());
        let last = feed.iter().map(|s| s.timestamp).max().unwrap_or(0);
        let exports = |seed: u64| {
            let mut r = EdgeRouter {
                tracker: HandshakeTracker::with_seed(Some(20), seed),
                ..EdgeRouter::new(0, None)
            };
            let mut stream = Vec::new();
            for segment in &feed {
                r.observe(segment);
                stream.append(&mut r.drain_exports());
            }
            let live = r.tracker().live_flows();
            r.flush_expired(last + 100);
            stream.append(&mut r.drain_exports());
            (stream, live)
        };
        let (stream, live) = exports(1);
        assert!(stream.iter().filter(|u| u.delta == Delta::Delete).count() > 500);
        for seed in [2, 0x9e37_79b9_7f4a_7c15, u64::MAX] {
            assert_eq!(exports(seed), (stream.clone(), live), "seed {seed:#x}");
        }
    }

    #[test]
    fn observe_all_processes_batch() {
        let mut r = EdgeRouter::new(1, None);
        let segs = vec![
            TcpSegment::syn(SourceAddr(1), DestAddr(2), 0),
            TcpSegment::syn(SourceAddr(2), DestAddr(2), 1),
        ];
        r.observe_all(&segs);
        assert_eq!(r.drain_exports().len(), 2);
    }
}
