//! UDP / ICMP flood instrumentation.
//!
//! The paper's packet floods are not only TCP: "a packet flood can
//! comprise either seemingly legitimate TCP, UDP, or ICMP packets in
//! volumes large enough to overwhelm network devices" (§1), and
//! Paxson-style *reflection* attacks \[29\] bounce traffic off
//! innocent third parties so the victim sees thousands of distinct
//! (reflector) sources.
//!
//! Connectionless traffic has no handshake, but the same
//! distinct-source logic applies with a different legitimacy signal:
//! a datagram from `u` to `v` opens a *pending* pair (`+1`); traffic
//! in the *reverse* direction (`v` answering `u` — a DNS reply, an
//! ICMP echo response) marks the exchange bidirectional and emits the
//! discounting `-1`. One-way blast — floods and reflections alike —
//! accumulates; request/response protocols cancel out.

use dcs_core::{Delta, DestAddr, FlowKey, FlowUpdate, SourceAddr};

use crate::flow_table::FlowTable;

/// A connectionless datagram (UDP or ICMP — the tracker does not care).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Datagram {
    /// Sender address.
    pub src: SourceAddr,
    /// Receiver address.
    pub dst: DestAddr,
    /// Observation time, in abstract ticks.
    pub timestamp: u64,
    /// Payload bytes.
    pub payload_len: u32,
}

impl Datagram {
    /// Creates a datagram.
    pub fn new(src: SourceAddr, dst: DestAddr, timestamp: u64, payload_len: u32) -> Self {
        Self {
            src,
            dst,
            timestamp,
            payload_len,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairState {
    /// One-way traffic seen; counted.
    Pending,
    /// Reverse traffic seen; discounted.
    Bidirectional,
}

/// Tracks directionality of connectionless flows, emitting `+1` for new
/// one-way pairs and `-1` once the exchange proves bidirectional.
///
/// # Examples
///
/// ```
/// use dcs_core::{Delta, DestAddr, SourceAddr};
/// use dcs_netsim::udp::{Datagram, UdpTracker};
///
/// let mut t = UdpTracker::new(None);
/// let (client, server) = (SourceAddr(1), DestAddr(2));
/// // DNS query: counted as a potential one-way flood member…
/// let plus = t.observe(&Datagram::new(client, server, 0, 60)).unwrap();
/// assert_eq!(plus.delta, Delta::Insert);
/// // …until the reply arrives.
/// let reply = Datagram::new(SourceAddr(server.0), DestAddr(client.0), 1, 500);
/// let minus = t.observe(&reply).unwrap();
/// assert_eq!(minus.delta, Delta::Delete);
/// ```
#[derive(Debug, Clone)]
pub struct UdpTracker {
    /// Pairs by forward key. Pending pairs idle longer than the timeout
    /// are evicted with a `-1` (server-side rate limiting / NAT-entry
    /// expiry).
    pairs: FlowTable<PairState>,
}

impl UdpTracker {
    /// Creates a tracker; `pending_timeout` bounds per-flow state
    /// (`None` disables expiry).
    pub fn new(pending_timeout: Option<u64>) -> Self {
        Self {
            pairs: FlowTable::new(pending_timeout),
        }
    }

    /// Observes one datagram, returning the update to export, if any.
    pub fn observe(&mut self, datagram: &Datagram) -> Option<FlowUpdate> {
        let forward = FlowKey::new(datagram.src, datagram.dst);
        let reverse = FlowKey::new(SourceAddr(datagram.dst.0), DestAddr(datagram.src.0));
        // Traffic whose reverse pair is tracked belongs to that
        // exchange: it proves bidirectionality (discounting a pending
        // pair) and never opens a pair of its own.
        if let Some(state) = self.pairs.touch(reverse.packed(), datagram.timestamp) {
            if *state == PairState::Pending {
                *state = PairState::Bidirectional;
                return Some(FlowUpdate {
                    key: reverse,
                    delta: Delta::Delete,
                });
            }
            return None;
        }
        let (_, inserted) =
            self.pairs
                .touch_or_insert_with(forward.packed(), datagram.timestamp, || PairState::Pending);
        inserted.then_some(FlowUpdate {
            key: forward,
            delta: Delta::Insert,
        })
    }

    /// Expires idle state as of `now`: pending pairs emit their `-1`;
    /// bidirectional pairs are dropped silently.
    pub fn tick(&mut self, now: u64) -> Vec<FlowUpdate> {
        let mut expired = Vec::new();
        self.pairs.expire(now, |packed, state| {
            if state == PairState::Pending {
                expired.push(FlowUpdate {
                    key: FlowKey::from_packed(packed),
                    delta: Delta::Delete,
                });
            }
        });
        expired.sort_by_key(|u| u.key.packed());
        expired
    }

    /// Number of pairs currently tracked.
    pub fn live_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Number of currently one-way (counted) pairs.
    pub fn pending_pairs(&self) -> usize {
        self.pairs
            .values()
            .filter(|&&state| state == PairState::Pending)
            .count()
    }
}

impl Default for UdpTracker {
    fn default() -> Self {
        Self::new(None)
    }
}

/// Generates a Paxson-style reflection attack: the attacker spoofs the
/// victim's address in requests to `reflectors` innocent servers, whose
/// replies all land on the victim. The monitor sees `reflectors`
/// distinct one-way sources at the victim.
pub fn reflection_attack(
    victim: DestAddr,
    first_reflector: u32,
    reflectors: u32,
    start: u64,
) -> Vec<Datagram> {
    (0..reflectors)
        .map(|i| {
            Datagram::new(
                SourceAddr(first_reflector + i),
                victim,
                start + u64::from(i) / 64,
                512,
            )
        })
        .collect()
}

/// Generates legitimate request/response exchanges (e.g., DNS): each
/// client sends one request to `server` and receives one reply.
pub fn request_response_traffic(
    server: DestAddr,
    first_client: u32,
    clients: u32,
    start: u64,
) -> Vec<Datagram> {
    let mut out = Vec::with_capacity(clients as usize * 2);
    for i in 0..clients {
        let client = SourceAddr(first_client + i);
        let at = start + u64::from(i) / 64;
        out.push(Datagram::new(client, server, at, 60));
        out.push(Datagram::new(
            SourceAddr(server.0),
            DestAddr(client.0),
            at + 1,
            512,
        ));
    }
    out.sort_by_key(|d| d.timestamp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{SketchConfig, TrackingDcs};

    #[test]
    fn request_response_cancels_out() {
        let mut t = UdpTracker::new(None);
        let mut net = 0i64;
        for d in request_response_traffic(DestAddr(9), 100, 500, 0) {
            if let Some(u) = t.observe(&d) {
                net += u.delta.signum();
            }
        }
        assert_eq!(net, 0);
        assert_eq!(t.pending_pairs(), 0);
        assert_eq!(t.live_pairs(), 500);
    }

    #[test]
    fn reflection_attack_accumulates() {
        let mut t = UdpTracker::new(None);
        let mut net = 0i64;
        for d in reflection_attack(DestAddr(7), 0x1000, 800, 0) {
            if let Some(u) = t.observe(&d) {
                net += u.delta.signum();
            }
        }
        assert_eq!(net, 800);
        assert_eq!(t.pending_pairs(), 800);
    }

    #[test]
    fn repeated_datagrams_count_once() {
        let mut t = UdpTracker::new(None);
        let d = Datagram::new(SourceAddr(1), DestAddr(2), 0, 100);
        assert!(t.observe(&d).is_some());
        assert!(t.observe(&d).is_none());
        assert!(t.observe(&d).is_none());
        assert_eq!(t.live_pairs(), 1);
    }

    #[test]
    fn repeated_replies_discount_once() {
        let mut t = UdpTracker::new(None);
        let req = Datagram::new(SourceAddr(1), DestAddr(2), 0, 60);
        let rep = Datagram::new(SourceAddr(2), DestAddr(1), 1, 500);
        assert!(t.observe(&req).is_some());
        // First reply both discounts the pending pair *and* opens the
        // reverse pair (the server's own sending behaviour is tracked
        // too — symmetric semantics).
        let first = t.observe(&rep).expect("discount");
        assert_eq!(first.delta, Delta::Delete);
        assert!(t.observe(&rep).is_none(), "second reply is silent");
    }

    #[test]
    fn timeout_expires_pending_with_deletes() {
        let mut t = UdpTracker::new(Some(100));
        for d in reflection_attack(DestAddr(3), 0, 50, 0) {
            t.observe(&d);
        }
        let expired = t.tick(1_000);
        assert_eq!(expired.len(), 50);
        assert!(expired.iter().all(|u| u.delta == Delta::Delete));
        assert_eq!(t.live_pairs(), 0);
    }

    #[test]
    fn sketch_flags_reflection_victim_not_dns_server() {
        let victim = DestAddr(0x0a00_0001);
        let dns = DestAddr(0x0a00_0002);
        let mut t = UdpTracker::new(None);
        let mut sketch = TrackingDcs::new(
            SketchConfig::builder()
                .buckets_per_table(512)
                .seed(9)
                .build()
                .unwrap(),
        );
        let mut datagrams = reflection_attack(victim, 0x2000_0000, 1_500, 0);
        datagrams.extend(request_response_traffic(dns, 0x3000_0000, 2_000, 0));
        datagrams.sort_by_key(|d| d.timestamp);
        for d in &datagrams {
            if let Some(u) = t.observe(d) {
                sketch.update(u);
            }
        }
        let top = sketch.track_top_k(2, 0.25);
        assert_eq!(top.entries[0].group, victim.0);
        let victim_est = top.entries[0].estimated_frequency;
        let dns_est = top.frequency_of(dns.0).unwrap_or(0);
        assert!(
            victim_est > dns_est * 5,
            "victim {victim_est} vs dns {dns_est}"
        );
    }

    #[test]
    fn bidirectional_pairs_expire_silently() {
        let mut t = UdpTracker::new(Some(10));
        for d in request_response_traffic(DestAddr(4), 0, 20, 0) {
            t.observe(&d);
        }
        let expired = t.tick(1_000);
        assert!(expired.is_empty());
        assert_eq!(t.live_pairs(), 0);
    }
}
