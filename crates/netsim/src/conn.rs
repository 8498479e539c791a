//! The handshake state machine: TCP segments in, flow updates out.
//!
//! This is the instrumentation piece that produces the paper's stream
//! semantics: "the original SYN packet from *source* to *dest* appears
//! with a '+1' in the flow-update stream (i.e., insertion), whereas the
//! corresponding ACK packet establishing the legitimacy of the TCP
//! connection would appear as a '-1' flow-update triple" (§2).
//!
//! Per client→server flow the machine is:
//!
//! ```text
//!            SYN (emit +1)              client ACK (emit −1)
//!   Closed ───────────────► HalfOpen ───────────────────────► Established
//!      ▲                       │  RST / FIN / timeout (emit −1)
//!      └───────────────────────┴──────────────── (flow forgotten)
//! ```
//!
//! The tracker holds per-*live-flow* state, which is fine at an edge
//! router watching its own stub networks; the point of the sketches is
//! that the *central* monitor aggregating many such streams holds no
//! per-flow state at all.

use dcs_core::{DestAddr, FlowUpdate, SourceAddr};

use crate::flow_table::FlowTable;
use crate::packet::{TcpFlags, TcpSegment};

/// The tracked state of one client→server flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnectionState {
    /// SYN seen, no completing ACK yet — counted in the monitor.
    HalfOpen,
    /// Handshake completed — discounted from the monitor.
    Established,
}

/// Converts observed TCP segments into `(source, dest, ±1)` flow
/// updates.
///
/// # Examples
///
/// ```
/// use dcs_core::{Delta, DestAddr, SourceAddr};
/// use dcs_netsim::{HandshakeTracker, TcpSegment};
///
/// let mut tracker = HandshakeTracker::new(None);
/// let (c, s) = (SourceAddr(1), DestAddr(2));
/// let plus = tracker.observe(&TcpSegment::syn(c, s, 0)).unwrap();
/// assert_eq!(plus.delta, Delta::Insert);
/// let minus = tracker.observe(&TcpSegment::ack(c, s, 1)).unwrap();
/// assert_eq!(minus.delta, Delta::Delete);
/// ```
#[derive(Debug, Clone)]
pub struct HandshakeTracker {
    /// Client→server flows. Flows idle longer than the half-open
    /// timeout are expired (the server reclaiming its backlog entry),
    /// emitting a `-1` if still half-open.
    flows: FlowTable<ConnectionState>,
}

impl HandshakeTracker {
    /// Creates a tracker. `half_open_timeout = None` disables expiry.
    pub fn new(half_open_timeout: Option<u64>) -> Self {
        Self {
            flows: FlowTable::new(half_open_timeout),
        }
    }

    /// A tracker whose flow table hashes under `seed`.
    #[cfg(test)]
    pub(crate) fn with_seed(half_open_timeout: Option<u64>, seed: u64) -> Self {
        Self {
            flows: FlowTable::with_seed(half_open_timeout, seed),
        }
    }

    /// Records in the flow table's expiry queue, surplus ones included.
    #[cfg(test)]
    pub(crate) fn queued_expiries(&self) -> usize {
        self.flows.queued()
    }

    /// Number of flows currently tracked (half-open + established).
    pub fn live_flows(&self) -> usize {
        self.flows.len()
    }

    /// Number of currently half-open flows.
    pub fn half_open_flows(&self) -> usize {
        self.flows
            .values()
            .filter(|&&state| state == ConnectionState::HalfOpen)
            .count()
    }

    /// The state of the client→server flow, if tracked.
    pub fn state_of(&self, client: SourceAddr, server: DestAddr) -> Option<ConnectionState> {
        let key = dcs_core::FlowKey::new(client, server).packed();
        self.flows.get(key).copied()
    }

    /// Observes one segment, returning the flow update to export, if
    /// any.
    ///
    /// Segment direction is canonicalized: a SYN-ACK (or any segment
    /// whose *reversed* flow is tracked) updates the client→server
    /// entry.
    #[inline]
    pub fn observe(&mut self, segment: &TcpSegment) -> Option<FlowUpdate> {
        let forward = dcs_core::FlowKey::new(segment.src, segment.dst);
        let reverse = dcs_core::FlowKey::new(SourceAddr(segment.dst.0), DestAddr(segment.src.0));
        if segment.flags.is_syn_ack() {
            // Server reply: refresh the reverse (client→server) flow.
            self.flows.refresh(reverse.packed(), segment.timestamp);
            return None;
        }
        if segment.flags.is_syn_only() {
            return self.on_syn(forward.packed(), segment.timestamp, forward);
        }
        if segment.flags.contains(TcpFlags::RST) {
            // Reset kills the flow in whichever direction it is tracked.
            return self
                .teardown(forward.packed(), forward)
                .or_else(|| self.teardown(reverse.packed(), reverse));
        }
        if segment.flags.contains(TcpFlags::FIN) {
            return self
                .teardown(forward.packed(), forward)
                .or_else(|| self.teardown(reverse.packed(), reverse));
        }
        if segment.flags.contains(TcpFlags::ACK) {
            // Client ACK (or data): completes a half-open flow.
            if let Some(state) = self.flows.touch(forward.packed(), segment.timestamp) {
                if *state == ConnectionState::HalfOpen {
                    *state = ConnectionState::Established;
                    return Some(FlowUpdate {
                        key: forward,
                        delta: dcs_core::Delta::Delete,
                    });
                }
            } else {
                // Server-side data; refresh only.
                self.flows.refresh(reverse.packed(), segment.timestamp);
            }
            return None;
        }
        None
    }

    #[inline]
    fn on_syn(
        &mut self,
        packed: u64,
        timestamp: u64,
        key: dcs_core::FlowKey,
    ) -> Option<FlowUpdate> {
        // A retransmitted SYN only refreshes: no double count.
        let (_, inserted) = self
            .flows
            .touch_or_insert_with(packed, timestamp, || ConnectionState::HalfOpen);
        inserted.then_some(FlowUpdate {
            key,
            delta: dcs_core::Delta::Insert,
        })
    }

    /// Removes a flow; emits `-1` only if it was still half-open (an
    /// established flow was already discounted by its completing ACK).
    #[inline]
    fn teardown(&mut self, packed: u64, key: dcs_core::FlowKey) -> Option<FlowUpdate> {
        let state = self.flows.remove(packed)?;
        (state == ConnectionState::HalfOpen).then_some(FlowUpdate {
            key,
            delta: dcs_core::Delta::Delete,
        })
    }

    /// Expires half-open flows older than the timeout (relative to
    /// `now`), returning their `-1` updates. Established flows are also
    /// evicted when idle (silently — they were already discounted).
    pub fn tick(&mut self, now: u64) -> Vec<FlowUpdate> {
        let mut expired = Vec::new();
        self.flows.expire(now, |packed, state| {
            if state == ConnectionState::HalfOpen {
                expired.push(FlowUpdate {
                    key: dcs_core::FlowKey::from_packed(packed),
                    delta: dcs_core::Delta::Delete,
                });
            }
        });
        // Deterministic export order.
        expired.sort_by_key(|u| u.key.packed());
        expired
    }
}

impl Default for HandshakeTracker {
    fn default() -> Self {
        Self::new(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::Delta;

    fn pair() -> (SourceAddr, DestAddr) {
        (SourceAddr(0x0101), DestAddr(0x0202))
    }

    #[test]
    fn full_handshake_emits_plus_then_minus() {
        let mut t = HandshakeTracker::new(None);
        let (c, s) = pair();
        let up = t.observe(&TcpSegment::syn(c, s, 0)).unwrap();
        assert_eq!(up.delta, Delta::Insert);
        assert_eq!(t.state_of(c, s), Some(ConnectionState::HalfOpen));
        assert!(t.observe(&TcpSegment::syn_ack(s, c, 1)).is_none());
        let down = t.observe(&TcpSegment::ack(c, s, 2)).unwrap();
        assert_eq!(down.delta, Delta::Delete);
        assert_eq!(down.key, up.key);
        assert_eq!(t.state_of(c, s), Some(ConnectionState::Established));
        assert_eq!(t.half_open_flows(), 0);
    }

    #[test]
    fn syn_flood_accumulates_half_open() {
        let mut t = HandshakeTracker::new(None);
        let server = DestAddr(9);
        for i in 0..100u32 {
            let up = t
                .observe(&TcpSegment::syn(SourceAddr(i), server, 0))
                .unwrap();
            assert_eq!(up.delta, Delta::Insert);
        }
        assert_eq!(t.half_open_flows(), 100);
        assert_eq!(t.live_flows(), 100);
    }

    #[test]
    fn retransmitted_syn_does_not_double_count() {
        let mut t = HandshakeTracker::new(None);
        let (c, s) = pair();
        assert!(t.observe(&TcpSegment::syn(c, s, 0)).is_some());
        assert!(t.observe(&TcpSegment::syn(c, s, 1)).is_none());
        assert_eq!(t.half_open_flows(), 1);
    }

    #[test]
    fn rst_on_half_open_discounts() {
        let mut t = HandshakeTracker::new(None);
        let (c, s) = pair();
        t.observe(&TcpSegment::syn(c, s, 0));
        let down = t.observe(&TcpSegment::rst(c, s, 1)).unwrap();
        assert_eq!(down.delta, Delta::Delete);
        assert_eq!(t.live_flows(), 0);
    }

    #[test]
    fn rst_from_server_side_also_discounts() {
        let mut t = HandshakeTracker::new(None);
        let (c, s) = pair();
        t.observe(&TcpSegment::syn(c, s, 0));
        // RST travelling server→client (reverse direction).
        let down = t
            .observe(&TcpSegment::rst(SourceAddr(s.0), DestAddr(c.0), 1))
            .unwrap();
        assert_eq!(down.delta, Delta::Delete);
        assert_eq!(down.key.source(), c);
        assert_eq!(down.key.dest(), s);
    }

    #[test]
    fn rst_on_established_emits_nothing() {
        let mut t = HandshakeTracker::new(None);
        let (c, s) = pair();
        t.observe(&TcpSegment::syn(c, s, 0));
        t.observe(&TcpSegment::ack(c, s, 1));
        assert!(t.observe(&TcpSegment::rst(c, s, 2)).is_none());
        assert_eq!(t.live_flows(), 0);
    }

    #[test]
    fn fin_closes_established_silently() {
        let mut t = HandshakeTracker::new(None);
        let (c, s) = pair();
        t.observe(&TcpSegment::syn(c, s, 0));
        t.observe(&TcpSegment::ack(c, s, 1));
        assert!(t.observe(&TcpSegment::fin(c, s, 2)).is_none());
        assert_eq!(t.live_flows(), 0);
    }

    #[test]
    fn ack_for_unknown_flow_is_ignored() {
        let mut t = HandshakeTracker::new(None);
        let (c, s) = pair();
        assert!(t.observe(&TcpSegment::ack(c, s, 0)).is_none());
        assert_eq!(t.live_flows(), 0);
    }

    #[test]
    fn timeout_expires_half_open_with_deletes() {
        let mut t = HandshakeTracker::new(Some(10));
        let server = DestAddr(9);
        for i in 0..5u32 {
            t.observe(&TcpSegment::syn(SourceAddr(i), server, 0));
        }
        // Flow 100 arrives later and must survive.
        t.observe(&TcpSegment::syn(SourceAddr(100), server, 8));
        let expired = t.tick(15);
        assert_eq!(expired.len(), 5);
        assert!(expired.iter().all(|u| u.delta == Delta::Delete));
        assert_eq!(t.live_flows(), 1);
        assert_eq!(
            t.state_of(SourceAddr(100), server),
            Some(ConnectionState::HalfOpen)
        );
    }

    #[test]
    fn timeout_evicts_idle_established_silently() {
        let mut t = HandshakeTracker::new(Some(10));
        let (c, s) = pair();
        t.observe(&TcpSegment::syn(c, s, 0));
        t.observe(&TcpSegment::ack(c, s, 1));
        let expired = t.tick(100);
        assert!(expired.is_empty());
        assert_eq!(t.live_flows(), 0);
    }

    #[test]
    fn no_timeout_means_tick_is_noop() {
        let mut t = HandshakeTracker::new(None);
        let (c, s) = pair();
        t.observe(&TcpSegment::syn(c, s, 0));
        assert!(t.tick(u64::MAX).is_empty());
        assert_eq!(t.live_flows(), 1);
    }

    #[test]
    fn refreshes_keep_the_expiry_queue_bounded() {
        use crate::flow_table::QUEUE_SLACK;
        let mut t = HandshakeTracker::new(Some(1_000));
        let server = DestAddr(9);
        for now in 0..2_000_000u64 {
            let client = SourceAddr((now / 2 % 4) as u32);
            let segment = if now % 2 == 0 {
                TcpSegment::syn(client, server, now)
            } else {
                TcpSegment::syn_ack(server, client, now)
            };
            t.observe(&segment);
            assert!(t.queued_expiries() <= 2 * t.live_flows() + QUEUE_SLACK);
        }
        assert_eq!(t.live_flows(), 4);
        assert_eq!(t.half_open_flows(), 4);
    }

    #[test]
    fn net_updates_equal_half_open_count() {
        // Invariant: (+1s) − (−1s) == currently half-open flows.
        let mut t = HandshakeTracker::new(Some(50));
        let mut net = 0i64;
        let server = DestAddr(1);
        for i in 0..200u32 {
            let seg = TcpSegment::syn(SourceAddr(i), server, u64::from(i));
            if let Some(u) = t.observe(&seg) {
                net += u.delta.signum();
            }
            if i % 3 == 0 {
                let ack = TcpSegment::ack(SourceAddr(i), server, u64::from(i) + 1);
                if let Some(u) = t.observe(&ack) {
                    net += u.delta.signum();
                }
            }
        }
        for u in t.tick(1000) {
            net += u.delta.signum();
        }
        assert_eq!(net as usize, t.half_open_flows());
    }
}
