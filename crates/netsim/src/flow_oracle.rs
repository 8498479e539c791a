//! Differential oracles for the trackers on the shared flow table.
//!
//! Each module below is a verbatim copy of a tracker as it stood on a
//! SipHash `HashMap` swept by `retain` at every tick:
//! [`HandshakeTracker`](crate::HandshakeTracker),
//! [`UdpTracker`](crate::UdpTracker) and
//! [`FlowAggregator`](crate::FlowAggregator). The properties at the
//! bottom drive each tracker and its oracle with the same random feed —
//! retransmits, refreshes, both directions, backward timestamps, ticks
//! at arbitrary times — and require identical output, update for
//! update. The `_long` variants run many more cases; they are ignored
//! by default and run in release mode in CI.

mod handshake {
    use std::collections::HashMap;

    use dcs_core::{DestAddr, FlowUpdate, SourceAddr};

    use crate::conn::ConnectionState;
    use crate::packet::{TcpFlags, TcpSegment};

    #[derive(Debug, Clone)]
    struct FlowEntry {
        state: ConnectionState,
        last_seen: u64,
    }

    /// Converts observed TCP segments into `(source, dest, ±1)` flow
    /// updates.
    #[derive(Debug, Clone)]
    pub struct HandshakeTracker {
        flows: HashMap<u64, FlowEntry>,
        /// Half-open flows older than this many ticks are expired (the
        /// server reclaiming its backlog entry), emitting a `-1`.
        half_open_timeout: Option<u64>,
    }

    impl HandshakeTracker {
        /// Creates a tracker. `half_open_timeout = None` disables expiry.
        pub fn new(half_open_timeout: Option<u64>) -> Self {
            Self {
                flows: HashMap::new(),
                half_open_timeout,
            }
        }

        /// Number of flows currently tracked (half-open + established).
        pub fn live_flows(&self) -> usize {
            self.flows.len()
        }

        /// Number of currently half-open flows.
        pub fn half_open_flows(&self) -> usize {
            self.flows
                .values()
                .filter(|e| e.state == ConnectionState::HalfOpen)
                .count()
        }

        /// The state of the client→server flow, if tracked.
        pub fn state_of(&self, client: SourceAddr, server: DestAddr) -> Option<ConnectionState> {
            let key = dcs_core::FlowKey::new(client, server).packed();
            self.flows.get(&key).map(|e| e.state)
        }

        /// Observes one segment, returning the flow update to export, if
        /// any.
        ///
        /// Segment direction is canonicalized: a SYN-ACK (or any segment
        /// whose *reversed* flow is tracked) updates the client→server
        /// entry.
        pub fn observe(&mut self, segment: &TcpSegment) -> Option<FlowUpdate> {
            let forward = dcs_core::FlowKey::new(segment.src, segment.dst);
            let reverse =
                dcs_core::FlowKey::new(SourceAddr(segment.dst.0), DestAddr(segment.src.0));
            if segment.flags.is_syn_ack() {
                // Server reply: refresh the reverse (client→server) flow.
                if let Some(entry) = self.flows.get_mut(&reverse.packed()) {
                    entry.last_seen = segment.timestamp;
                }
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
                if let Some(entry) = self.flows.get_mut(&forward.packed()) {
                    entry.last_seen = segment.timestamp;
                    if entry.state == ConnectionState::HalfOpen {
                        entry.state = ConnectionState::Established;
                        return Some(FlowUpdate {
                            key: forward,
                            delta: dcs_core::Delta::Delete,
                        });
                    }
                } else if let Some(entry) = self.flows.get_mut(&reverse.packed()) {
                    // Server-side data; refresh only.
                    entry.last_seen = segment.timestamp;
                }
                return None;
            }
            None
        }

        fn on_syn(
            &mut self,
            packed: u64,
            timestamp: u64,
            key: dcs_core::FlowKey,
        ) -> Option<FlowUpdate> {
            match self.flows.get_mut(&packed) {
                Some(entry) => {
                    // Retransmitted SYN: refresh, do not double-count.
                    entry.last_seen = timestamp;
                    None
                }
                None => {
                    self.flows.insert(
                        packed,
                        FlowEntry {
                            state: ConnectionState::HalfOpen,
                            last_seen: timestamp,
                        },
                    );
                    Some(FlowUpdate {
                        key,
                        delta: dcs_core::Delta::Insert,
                    })
                }
            }
        }

        /// Removes a flow; emits `-1` only if it was still half-open (an
        /// established flow was already discounted by its completing ACK).
        fn teardown(&mut self, packed: u64, key: dcs_core::FlowKey) -> Option<FlowUpdate> {
            let entry = self.flows.remove(&packed)?;
            (entry.state == ConnectionState::HalfOpen).then_some(FlowUpdate {
                key,
                delta: dcs_core::Delta::Delete,
            })
        }

        /// Expires half-open flows older than the timeout (relative to
        /// `now`), returning their `-1` updates. Established flows are also
        /// evicted when idle (silently — they were already discounted).
        pub fn tick(&mut self, now: u64) -> Vec<FlowUpdate> {
            let Some(timeout) = self.half_open_timeout else {
                return Vec::new();
            };
            let mut expired = Vec::new();
            self.flows.retain(|&packed, entry| {
                let idle = now.saturating_sub(entry.last_seen);
                if idle <= timeout {
                    return true;
                }
                if entry.state == ConnectionState::HalfOpen {
                    expired.push(FlowUpdate {
                        key: dcs_core::FlowKey::from_packed(packed),
                        delta: dcs_core::Delta::Delete,
                    });
                }
                false
            });
            // Deterministic export order.
            expired.sort_by_key(|u| u.key.packed());
            expired
        }
    }
}

mod udp {
    use std::collections::HashMap;

    use dcs_core::{Delta, DestAddr, FlowKey, FlowUpdate, SourceAddr};

    use crate::udp::Datagram;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum PairState {
        /// One-way traffic seen; counted.
        Pending,
        /// Reverse traffic seen; discounted.
        Bidirectional,
    }

    /// Tracks directionality of connectionless flows, emitting `+1` for new
    /// one-way pairs and `-1` once the exchange proves bidirectional.
    #[derive(Debug, Clone)]
    pub struct UdpTracker {
        pairs: HashMap<u64, (PairState, u64)>,
        /// Pending pairs idle longer than this are evicted with a `-1`
        /// (server-side rate limiting / NAT-entry expiry); `None` disables.
        pending_timeout: Option<u64>,
    }

    impl UdpTracker {
        /// Creates a tracker; `pending_timeout` bounds per-flow state.
        pub fn new(pending_timeout: Option<u64>) -> Self {
            Self {
                pairs: HashMap::new(),
                pending_timeout,
            }
        }

        /// Observes one datagram, returning the update to export, if any.
        pub fn observe(&mut self, datagram: &Datagram) -> Option<FlowUpdate> {
            let forward = FlowKey::new(datagram.src, datagram.dst);
            let reverse = FlowKey::new(SourceAddr(datagram.dst.0), DestAddr(datagram.src.0));
            // Traffic whose reverse pair is tracked belongs to that
            // exchange: it proves bidirectionality (discounting a pending
            // pair) and never opens a pair of its own.
            if let Some(entry) = self.pairs.get_mut(&reverse.packed()) {
                entry.1 = datagram.timestamp;
                if entry.0 == PairState::Pending {
                    entry.0 = PairState::Bidirectional;
                    return Some(FlowUpdate {
                        key: reverse,
                        delta: Delta::Delete,
                    });
                }
                return None;
            }
            match self.pairs.get_mut(&forward.packed()) {
                Some(entry) => {
                    entry.1 = datagram.timestamp;
                    None
                }
                None => {
                    self.pairs
                        .insert(forward.packed(), (PairState::Pending, datagram.timestamp));
                    Some(FlowUpdate {
                        key: forward,
                        delta: Delta::Insert,
                    })
                }
            }
        }

        /// Expires idle state as of `now`: pending pairs emit their `-1`;
        /// bidirectional pairs are dropped silently.
        pub fn tick(&mut self, now: u64) -> Vec<FlowUpdate> {
            let Some(timeout) = self.pending_timeout else {
                return Vec::new();
            };
            let mut expired = Vec::new();
            self.pairs.retain(|&packed, &mut (state, last_seen)| {
                if now.saturating_sub(last_seen) <= timeout {
                    return true;
                }
                if state == PairState::Pending {
                    expired.push(FlowUpdate {
                        key: FlowKey::from_packed(packed),
                        delta: Delta::Delete,
                    });
                }
                false
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
                .filter(|&&(state, _)| state == PairState::Pending)
                .count()
        }
    }
}

mod netflow {
    use std::collections::HashMap;

    use dcs_core::{DestAddr, FlowKey, SourceAddr};

    use crate::netflow::FlowRecord;
    use crate::packet::{TcpFlags, TcpSegment};

    /// Aggregates segments into flow records, expiring them on inactivity
    /// (like a router's flow cache).
    #[derive(Debug)]
    pub struct FlowAggregator {
        /// Active flows keyed by the client→server pair.
        active: HashMap<u64, FlowRecord>,
        /// Inactivity timeout (ticks) after which a record is exported.
        idle_timeout: u64,
        exported: Vec<FlowRecord>,
        clock: u64,
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
                active: HashMap::new(),
                idle_timeout,
                exported: Vec::new(),
                clock: 0,
            }
        }

        /// Observes one segment, canonicalized to the client→server flow
        /// (reverse-direction segments update the same record but do not
        /// contribute client flags).
        pub fn observe(&mut self, segment: &TcpSegment) {
            self.clock = self.clock.max(segment.timestamp);
            let forward = FlowKey::new(segment.src, segment.dst).packed();
            let reverse = FlowKey::new(SourceAddr(segment.dst.0), DestAddr(segment.src.0)).packed();
            let (key, is_forward) = if segment.flags.is_syn_ack() {
                (reverse, false)
            } else if self.active.contains_key(&forward) || !self.active.contains_key(&reverse) {
                (forward, true)
            } else {
                (reverse, false)
            };
            let record = self.active.entry(key).or_insert_with(|| FlowRecord {
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
            let timeout = self.idle_timeout;
            let mut expired: Vec<FlowRecord> = Vec::new();
            self.active.retain(|_, record| {
                if now.saturating_sub(record.last) > timeout {
                    expired.push(*record);
                    false
                } else {
                    true
                }
            });
            expired.sort_by_key(|r| (r.first, r.src.0, r.dst.0));
            self.exported.extend(expired);
        }

        /// Forces every remaining flow out (end of the observation window).
        pub fn flush(&mut self) {
            let mut rest: Vec<FlowRecord> = self.active.drain().map(|(_, r)| r).collect();
            rest.sort_by_key(|r| (r.first, r.src.0, r.dst.0));
            self.exported.extend(rest);
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
}

#[cfg(test)]
mod tests {
    use dcs_core::{DestAddr, SourceAddr};
    use proptest::collection::vec;
    use proptest::prelude::*;

    use crate::packet::{TcpFlags, TcpSegment};
    use crate::udp::Datagram;
    use crate::{FlowAggregator, HandshakeTracker, UdpTracker};

    /// Addresses `0..ADDRS` serve as clients and servers alike, so
    /// flows collide, reverse each other and refresh often.
    const ADDRS: u32 = 5;

    /// One step of a feed: observe a packet or expire at a time.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Segment(TcpSegment),
        Tick(u64),
    }

    /// `(op, a, b, dt)` rows: `op < 16` is a segment with those flag
    /// bits, `16..19` a bare SYN (retransmits), `19..21` a bare ACK and
    /// `21..24` a tick. The clock moves by `dt`, backward too, as
    /// reordered delivery produces.
    fn steps() -> impl Strategy<Value = Vec<Step>> {
        vec((0u8..24, 0..ADDRS, 0..ADDRS, -4i64..6), 0..300).prop_map(|rows| {
            let mut clock = 10u64;
            rows.into_iter()
                .map(|(op, a, b, dt)| {
                    clock = clock.saturating_add_signed(dt);
                    let flags = match op {
                        0..=15 => [TcpFlags::SYN, TcpFlags::ACK, TcpFlags::FIN, TcpFlags::RST]
                            .into_iter()
                            .enumerate()
                            .filter(|&(bit, _)| op & (1 << bit) != 0)
                            .fold(TcpFlags::empty(), |all, (_, flag)| all | flag),
                        16..=18 => TcpFlags::SYN,
                        19..=20 => TcpFlags::ACK,
                        _ => return Step::Tick(clock + u64::from(a)),
                    };
                    Step::Segment(TcpSegment {
                        src: SourceAddr(a),
                        dst: DestAddr(b),
                        flags,
                        timestamp: clock,
                        payload_len: u32::from(op) * 10,
                    })
                })
                .collect()
        })
    }

    fn timeouts() -> impl Strategy<Value = Option<u64>> {
        prop_oneof![Just(None), Just(Some(0)), (1u64..8).prop_map(Some)]
    }

    fn datagram(segment: &TcpSegment) -> Datagram {
        Datagram::new(
            segment.src,
            segment.dst,
            segment.timestamp,
            segment.payload_len,
        )
    }

    fn handshake_matches(timeout: Option<u64>, steps: &[Step]) -> Result<(), TestCaseError> {
        let mut tracker = HandshakeTracker::new(timeout);
        let mut oracle = super::handshake::HandshakeTracker::new(timeout);
        for (i, step) in steps.iter().enumerate() {
            match step {
                Step::Segment(s) => {
                    prop_assert_eq!(tracker.observe(s), oracle.observe(s), "step {}", i)
                }
                Step::Tick(now) => {
                    prop_assert_eq!(tracker.tick(*now), oracle.tick(*now), "step {}", i)
                }
            }
            prop_assert_eq!(tracker.live_flows(), oracle.live_flows(), "step {}", i);
            prop_assert_eq!(
                tracker.half_open_flows(),
                oracle.half_open_flows(),
                "step {}",
                i
            );
        }
        for (c, s) in (0..ADDRS).flat_map(|c| (0..ADDRS).map(move |s| (c, s))) {
            let (c, s) = (SourceAddr(c), DestAddr(s));
            prop_assert_eq!(tracker.state_of(c, s), oracle.state_of(c, s));
        }
        Ok(())
    }

    fn udp_matches(timeout: Option<u64>, steps: &[Step]) -> Result<(), TestCaseError> {
        let mut tracker = UdpTracker::new(timeout);
        let mut oracle = super::udp::UdpTracker::new(timeout);
        for (i, step) in steps.iter().enumerate() {
            match step {
                Step::Segment(s) => {
                    let d = datagram(s);
                    prop_assert_eq!(tracker.observe(&d), oracle.observe(&d), "step {}", i)
                }
                Step::Tick(now) => {
                    prop_assert_eq!(tracker.tick(*now), oracle.tick(*now), "step {}", i)
                }
            }
            prop_assert_eq!(tracker.live_pairs(), oracle.live_pairs(), "step {}", i);
            prop_assert_eq!(
                tracker.pending_pairs(),
                oracle.pending_pairs(),
                "step {}",
                i
            );
        }
        Ok(())
    }

    fn aggregator_matches(timeout: u64, steps: &[Step]) -> Result<(), TestCaseError> {
        let mut aggregator = FlowAggregator::new(timeout);
        let mut oracle = super::netflow::FlowAggregator::new(timeout);
        for (i, step) in steps.iter().enumerate() {
            match step {
                Step::Segment(s) => {
                    aggregator.observe(s);
                    oracle.observe(s);
                }
                Step::Tick(now) => {
                    aggregator.expire(*now);
                    oracle.expire(*now);
                }
            }
            prop_assert_eq!(
                aggregator.drain_records(),
                oracle.drain_records(),
                "step {}",
                i
            );
            prop_assert_eq!(
                aggregator.active_flows(),
                oracle.active_flows(),
                "step {}",
                i
            );
        }
        aggregator.flush();
        oracle.flush();
        prop_assert_eq!(aggregator.drain_records(), oracle.drain_records());
        Ok(())
    }

    /// A workload-scale feed through `EdgeRouter` with a 300-tick
    /// timeout against the oracle, driven the way the router drives its
    /// tracker: observe, then expire whenever the clock advances.
    /// Sessions, flash crowds, a scanner that revisits its targets and
    /// periodic SYN bursts, reordered and duplicated, so expiry meets
    /// refreshed, re-armed, torn-down and reordered flows.
    #[test]
    fn edge_router_matches_the_oracle_on_an_impaired_burst_feed() {
        use crate::{EdgeRouter, Impairment, TrafficDriver};
        const TIMEOUT: u64 = 300;
        let mut driver = TrafficDriver::new(29);
        for round in 0..24u32 {
            for server in 0..20 {
                driver.legitimate_sessions(DestAddr(0x0b00_0000 + server), 20);
            }
            driver.flash_crowd(DestAddr(0x0c00_0001), 200);
            if round % 2 == 0 {
                driver.port_scan(SourceAddr(0x0bad_0001), DestAddr(0x0d00_0000), 64);
            }
            if round % 4 == 1 {
                driver.syn_flood(DestAddr(0x0a00_0001), 4_000);
            }
            driver.advance_clock(128);
        }
        let feed = Impairment::new(31)
            .duplication(0.05)
            .reordering(64)
            .apply(&driver.into_segments());
        let mut router = EdgeRouter::new(0, Some(TIMEOUT));
        let mut oracle = super::handshake::HandshakeTracker::new(Some(TIMEOUT));
        let mut last_tick = 0;
        let mut deletes = 0;
        for (i, segment) in feed.iter().enumerate() {
            router.observe(segment);
            let mut expected: Vec<_> = oracle.observe(segment).into_iter().collect();
            if segment.timestamp > last_tick {
                last_tick = segment.timestamp;
                expected.extend(oracle.tick(last_tick));
            }
            let exported = router.drain_exports();
            assert_eq!(exported, expected, "segment {i}");
            deletes += exported.iter().filter(|u| u.delta.signum() < 0).count();
        }
        assert_eq!(router.tracker().live_flows(), oracle.live_flows());
        assert_eq!(router.tracker().half_open_flows(), oracle.half_open_flows());
        assert!(feed.len() > 100_000, "{} segments", feed.len());
        assert!(deletes > 20_000, "{deletes} deletes");
        router.flush_expired(last_tick + TIMEOUT + 1);
        assert_eq!(router.drain_exports(), oracle.tick(last_tick + TIMEOUT + 1));
        assert_eq!((router.tracker().live_flows(), oracle.live_flows()), (0, 0));
    }

    proptest! {
        #[test]
        fn handshake_tracker_matches_its_oracle(timeout in timeouts(), steps in steps()) {
            handshake_matches(timeout, &steps)?;
        }

        #[test]
        fn udp_tracker_matches_its_oracle(timeout in timeouts(), steps in steps()) {
            udp_matches(timeout, &steps)?;
        }

        #[test]
        fn flow_aggregator_matches_its_oracle(timeout in 1u64..8, steps in steps()) {
            aggregator_matches(timeout, &steps)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]
        #[test]
        #[ignore = "long run; CI runs it in release mode"]
        fn handshake_tracker_matches_its_oracle_long(timeout in timeouts(), steps in steps()) {
            handshake_matches(timeout, &steps)?;
        }

        #[test]
        #[ignore = "long run; CI runs it in release mode"]
        fn udp_tracker_matches_its_oracle_long(timeout in timeouts(), steps in steps()) {
            udp_matches(timeout, &steps)?;
        }

        #[test]
        #[ignore = "long run; CI runs it in release mode"]
        fn flow_aggregator_matches_its_oracle_long(timeout in 1u64..8, steps in steps()) {
            aggregator_matches(timeout, &steps)?;
        }
    }
}
