//! The edge router's flow table: a seeded hash map with O(expired)
//! expiry.
//!
//! Both per-flow trackers at the edge — [`HandshakeTracker`] and
//! [`FlowAggregator`] — key their state by a packed `(source, dest)`
//! pair and evict entries idle longer than a timeout. This is the one
//! table they share (DESIGN.md §19):
//!
//! * **Seeded hashing.** Attackers choose the addresses the table is
//!   keyed on. A hash they can predict lets them precompute colliding
//!   keys and slow the router down, a blind spot a burst attacker can
//!   time. Each table draws two secret words from `std`'s
//!   `RandomState` once, at construction, and hashes each key in one
//!   keyed pass in place of SipHash: a 64×64→128-bit multiply, folded
//!   to 64 bits, whose two factors each mix the key with one word.
//!   No hash order reaches any output: callers sort each expiry batch.
//! * **Expiry queue with lazy re-arm.** When a timeout is set, every
//!   live entry has a queued `(time, key)` record whose time is no
//!   later than the entry's current `last_seen`. An insert queues
//!   `(now, key)`. A forward refresh (`now ≥ last_seen`) only stores
//!   `last_seen`: the entry's record is still early enough. A backward
//!   refresh (a reordered segment) queues `(now, key)`. A record no
//!   older than the FIFO's back is appended to the FIFO; an older one
//!   goes to the `late` min-heap. [`FlowTable::expire`] pops the older
//!   of the two fronts while it is idle past the timeout: a record
//!   whose entry is gone is dropped, an entry whose `last_seen` is idle
//!   past the timeout expires, and any other entry is re-armed with
//!   `(last_seen, key)`. An entry therefore expires exactly when its
//!   current `last_seen` is idle past the timeout, whatever order
//!   timestamps arrived in, so a tick removes exactly what a full
//!   `retain` sweep would. Without a timeout nothing is queued.
//! * **Compaction.** Removed entries and backward refreshes leave
//!   surplus records behind. Before a write, a queue holding at least
//!   `2 × live entries + QUEUE_SLACK` records is rebuilt from the live
//!   entries into the late heap and the FIFO is cleared, so its size
//!   stays within that bound and the rebuilds cost O(1) amortized per
//!   write.
//!
//! [`HandshakeTracker`]: crate::HandshakeTracker
//! [`FlowAggregator`]: crate::FlowAggregator

use std::cmp::Reverse;
use std::collections::hash_map::{self, HashMap};
use std::collections::{BinaryHeap, VecDeque};
use std::hash::{BuildHasher, Hasher, RandomState};

/// Surplus records the expiry queue may hold beyond twice the live
/// entries before it is rebuilt; keeps rebuilds rare on tiny tables.
pub(crate) const QUEUE_SLACK: usize = 64;

/// The table's two secret hash words. A `u64` key hashes in one keyed
/// pass: `lo ^ hi` of the 128-bit product `(key ⊕ s0) · (rotl(key, 32)
/// ⊕ s1)`. Both factors carry the key: with `s1` alone as the
/// multiplier, keys that differ only in their source half spread
/// poorly over the low hash bits (DESIGN.md §19).
#[derive(Debug, Clone, Copy)]
struct KeyedState {
    s0: u64,
    s1: u64,
}

impl BuildHasher for KeyedState {
    type Hasher = KeyedHasher;

    #[inline]
    fn build_hasher(&self) -> KeyedHasher {
        KeyedHasher {
            keys: *self,
            hash: 0,
        }
    }
}

/// Folds each written word into the hash with one keyed multiply; the
/// table's keys are `u64`s, so a probe costs exactly one.
#[derive(Debug, Clone)]
struct KeyedHasher {
    keys: KeyedState,
    hash: u64,
}

impl Hasher for KeyedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        let x = self.hash ^ word;
        let product = u128::from(x ^ self.keys.s0) * u128::from(x.rotate_left(32) ^ self.keys.s1);
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }
}

#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    last_seen: u64,
}

/// `(time, key)` expiry records, popped oldest first.
#[derive(Debug, Clone, Default)]
struct ExpiryQueue {
    /// Records in queueing order, each no older than the one before.
    fifo: VecDeque<(u64, u64)>,
    /// Records older than the FIFO's back when they were queued.
    late: BinaryHeap<Reverse<(u64, u64)>>,
}

impl ExpiryQueue {
    #[inline]
    fn len(&self) -> usize {
        self.fifo.len() + self.late.len()
    }

    #[inline]
    fn push(&mut self, record: (u64, u64)) {
        match self.fifo.back() {
            Some(&(back, _)) if record.0 < back => self.late.push(Reverse(record)),
            _ => self.fifo.push_back(record),
        }
    }

    /// Pops the oldest record if its time is before `cutoff`.
    fn pop_before(&mut self, cutoff: u64) -> Option<(u64, u64)> {
        let late = self.late.peek().map(|&Reverse(record)| record);
        match self.fifo.front() {
            Some(&(time, _)) if time < cutoff && late.is_none_or(|(l, _)| time <= l) => {
                self.fifo.pop_front()
            }
            _ if late.is_some_and(|(l, _)| l < cutoff) => self.late.pop().map(|Reverse(r)| r),
            _ => None,
        }
    }

    /// Replaces every record with `records`, all in the late heap.
    fn rebuild(&mut self, records: impl Iterator<Item = (u64, u64)>) {
        self.fifo.clear();
        let mut heap = std::mem::take(&mut self.late).into_vec();
        heap.clear();
        heap.extend(records.map(Reverse));
        self.late = BinaryHeap::from(heap);
    }
}

/// Per-flow state keyed by a packed flow key, with idle expiry.
#[derive(Debug, Clone)]
pub(crate) struct FlowTable<V> {
    entries: HashMap<u64, Entry<V>, KeyedState>,
    /// Expiry records; empty without a timeout.
    queue: ExpiryQueue,
    /// Entries idle longer than this many ticks expire; `None`
    /// disables expiry.
    timeout: Option<u64>,
}

impl<V> FlowTable<V> {
    /// An empty table hashed under two fresh secret words.
    pub(crate) fn new(timeout: Option<u64>) -> Self {
        let random = RandomState::new();
        Self::with_keys(timeout, random.hash_one(0u64), random.hash_one(1u64))
    }

    /// An empty table hashed under words derived from `seed`.
    #[cfg(test)]
    pub(crate) fn with_seed(timeout: Option<u64>, seed: u64) -> Self {
        let word = |index| dcs_hash::mix::derive_seed(seed, index);
        Self::with_keys(timeout, word(0), word(1))
    }

    fn with_keys(timeout: Option<u64>, s0: u64, s1: u64) -> Self {
        Self {
            entries: HashMap::with_hasher(KeyedState { s0, s1 }),
            queue: ExpiryQueue::default(),
            timeout,
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The value stored under `key`.
    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        self.entries.get(&key).map(|e| &e.value)
    }

    /// Every live value, in hash order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.values().map(|e| &e.value)
    }

    /// Marks the entry under `key` as seen at `now` and returns its
    /// value, or `None` (and no change) when `key` is absent.
    #[inline]
    pub(crate) fn touch(&mut self, key: u64, now: u64) -> Option<&mut V> {
        self.make_room();
        let entry = self.entries.get_mut(&key)?;
        if now < entry.last_seen && self.timeout.is_some() {
            self.queue.push((now, key));
        }
        entry.last_seen = now;
        Some(&mut entry.value)
    }

    /// Marks the entry under `key`, if any, as seen at `now`. Without a
    /// timeout nothing reads `last_seen`, so this skips the probe.
    #[inline]
    pub(crate) fn refresh(&mut self, key: u64, now: u64) {
        if self.timeout.is_some() {
            self.touch(key, now);
        }
    }

    /// Like [`FlowTable::touch`], but inserts `make()` first when `key`
    /// is absent, in one probe. The flag is `true` on insertion.
    #[inline]
    pub(crate) fn touch_or_insert_with(
        &mut self,
        key: u64,
        now: u64,
        make: impl FnOnce() -> V,
    ) -> (&mut V, bool) {
        self.make_room();
        match self.entries.entry(key) {
            hash_map::Entry::Occupied(slot) => {
                let entry = slot.into_mut();
                if now < entry.last_seen && self.timeout.is_some() {
                    self.queue.push((now, key));
                }
                entry.last_seen = now;
                (&mut entry.value, false)
            }
            hash_map::Entry::Vacant(slot) => {
                if self.timeout.is_some() {
                    self.queue.push((now, key));
                }
                let entry = slot.insert(Entry {
                    value: make(),
                    last_seen: now,
                });
                (&mut entry.value, true)
            }
        }
    }

    /// Removes the entry under `key`. Its queued records are dropped
    /// when popped.
    #[inline]
    pub(crate) fn remove(&mut self, key: u64) -> Option<V> {
        self.entries.remove(&key).map(|e| e.value)
    }

    /// Removes every entry idle longer than the timeout as of `now`
    /// (`now − last_seen > timeout`), handing each to `on_expired` in
    /// queue order. A no-op without a timeout.
    pub(crate) fn expire(&mut self, now: u64, mut on_expired: impl FnMut(u64, V)) {
        // Idle means `now − time > timeout`, i.e. `time < cutoff`.
        let Some(cutoff) = self.timeout.and_then(|timeout| now.checked_sub(timeout)) else {
            return;
        };
        while let Some((_, key)) = self.queue.pop_before(cutoff) {
            if let hash_map::Entry::Occupied(slot) = self.entries.entry(key) {
                let last_seen = slot.get().last_seen;
                if last_seen < cutoff {
                    on_expired(key, slot.remove().value);
                } else {
                    // Refreshed since queued: re-arm at its last sighting.
                    self.queue.push((last_seen, key));
                }
            }
        }
    }

    /// Removes every entry, in hash order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.queue = ExpiryQueue::default();
        self.entries.drain().map(|(key, e)| (key, e.value))
    }

    /// Rebuilds the expiry queue from the live entries once it holds
    /// `2 × live + QUEUE_SLACK` records; the caller then queues at most
    /// one record, so the queue never exceeds that bound after a write.
    #[inline]
    fn make_room(&mut self) {
        if self.queue.len() < 2 * self.entries.len() + QUEUE_SLACK {
            return;
        }
        self.queue
            .rebuild(self.entries.iter().map(|(&key, e)| (e.last_seen, key)));
    }

    /// Records in the expiry queue, surplus ones included.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Records in the late heap.
    #[cfg(test)]
    fn queued_late(&self) -> usize {
        self.queue.late.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{DestAddr, FlowKey, SourceAddr};

    fn expired(table: &mut FlowTable<u8>, now: u64) -> Vec<u64> {
        let mut keys = Vec::new();
        table.expire(now, |key, _| keys.push(key));
        keys.sort_unstable();
        keys
    }

    /// 2¹⁶ flow keys from `source(i)` to one destination.
    fn keys(source: impl Fn(u32) -> u32) -> Vec<u64> {
        (0..1u32 << 16)
            .map(|i| FlowKey::new(SourceAddr(source(i)), DestAddr(0x0a00_0001)).packed())
            .collect()
    }

    fn hashes(seed: u64, keys: &[u64]) -> Vec<u64> {
        let table = FlowTable::<u8>::with_seed(None, seed);
        keys.iter()
            .map(|&key| table.entries.hasher().hash_one(key))
            .collect()
    }

    /// Distinct values of the hashes' low 16 bits, as a share of 2¹⁶.
    fn low_bits_spread(hashes: &[u64]) -> f64 {
        let mut seen = vec![false; 1 << 16];
        for &h in hashes {
            seen[(h & 0xffff) as usize] = true;
        }
        seen.iter().filter(|&&s| s).count() as f64 / f64::from(1u32 << 16)
    }

    #[test]
    fn attacker_shaped_keys_spread_over_the_low_hash_bits() {
        // Sequential spoofed sources, as `TrafficDriver::syn_flood`
        // makes them; and sources differing only in their high 16 bits.
        let sequential = keys(|i| 0x2000_0000 + i);
        let high_bits = keys(|i| i << 16 | 0x0101);
        for seed in [1, 2, 0x9e37_79b9_7f4a_7c15, u64::MAX] {
            for set in [&sequential, &high_bits] {
                // Uniform random hashes reach 1 − 1/e ≈ 63%.
                let spread = low_bits_spread(&hashes(seed, set));
                assert!(spread >= 0.60, "seed {seed:#x}: {spread:.3}");
            }
        }
    }

    #[test]
    fn two_seeds_order_the_same_keys_differently() {
        let keys = keys(|i| 0x2000_0000 + i);
        let order = |seed| {
            let mut by_hash: Vec<(u64, u64)> = hashes(seed, &keys)
                .into_iter()
                .zip(keys.iter().copied())
                .collect();
            by_hash.sort_unstable();
            by_hash.into_iter().map(|(_, key)| key).collect::<Vec<_>>()
        };
        assert_ne!(order(1), order(2));
    }

    #[test]
    fn expiry_follows_the_current_last_seen() {
        let mut t = FlowTable::with_seed(Some(10), 1);
        t.touch_or_insert_with(1, 0, || 0);
        t.touch_or_insert_with(2, 0, || 0);
        t.touch(2, 8);
        // A backward refresh makes the entry older, not younger.
        t.touch_or_insert_with(3, 20, || 0);
        t.touch(3, 1);
        assert_eq!(expired(&mut t, 15), vec![1, 3]);
        assert_eq!(expired(&mut t, 18), Vec::<u64>::new());
        assert_eq!(expired(&mut t, 19), vec![2]);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn removed_and_reinserted_keys_expire_once() {
        let mut t = FlowTable::with_seed(Some(0), 2);
        t.touch_or_insert_with(7, 5, || 1);
        assert_eq!(t.remove(7), Some(1));
        let (_, inserted) = t.touch_or_insert_with(7, 5, || 2);
        assert!(inserted);
        let mut seen = Vec::new();
        t.expire(6, |key, value| seen.push((key, value)));
        assert_eq!(seen, vec![(7, 2)]);
        assert_eq!(t.queued(), 0);
    }

    #[test]
    fn no_timeout_queues_nothing() {
        let mut t = FlowTable::with_seed(None, 3);
        for now in 0..1_000 {
            t.touch_or_insert_with(now % 5, now, || 0u8);
        }
        assert_eq!(t.queued(), 0);
        assert!(expired(&mut t, u64::MAX).is_empty());
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn a_forward_refresh_queues_nothing() {
        let mut t = FlowTable::with_seed(Some(10), 4);
        t.touch_or_insert_with(1, 0, || 0u8);
        for now in 0..50 {
            t.touch(1, now);
            t.touch_or_insert_with(1, now, || 0);
            t.refresh(1, now);
        }
        assert_eq!(t.queued(), 1);
        assert_eq!(t.queued_late(), 0);
    }

    #[test]
    fn a_backward_refresh_lands_in_the_late_heap_and_expires_on_time() {
        let mut t = FlowTable::with_seed(Some(10), 5);
        t.touch_or_insert_with(1, 20, || 0);
        t.touch_or_insert_with(2, 25, || 0);
        // Older than the FIFO's back (25): queued in the late heap.
        t.touch(1, 12);
        assert_eq!((t.queued(), t.queued_late()), (3, 1));
        assert!(expired(&mut t, 22).is_empty());
        assert_eq!(expired(&mut t, 23), vec![1]);
        // Entry 1's FIFO record (20) is dropped once popped.
        assert!(expired(&mut t, 35).is_empty());
        assert_eq!(t.queued(), 1);
        assert_eq!(expired(&mut t, 36), vec![2]);
        assert_eq!((t.len(), t.queued()), (0, 0));
    }

    #[test]
    fn a_rearmed_entry_survives_its_first_pop_and_expires_on_its_last_seen() {
        let mut t = FlowTable::with_seed(Some(10), 6);
        t.touch_or_insert_with(1, 0, || 0);
        t.touch(1, 7);
        // The insert record (0) is idle at 11, the entry (7) is not:
        // it is re-armed at 7, not expired.
        assert!(expired(&mut t, 11).is_empty());
        assert_eq!((t.len(), t.queued()), (1, 1));
        t.refresh(1, 9);
        assert!(expired(&mut t, 18).is_empty());
        assert_eq!((t.len(), t.queued()), (1, 1));
        assert!(expired(&mut t, 19).is_empty());
        assert_eq!(expired(&mut t, 20), vec![1]);
        assert_eq!(t.queued(), 0);
    }

    #[test]
    fn teardowns_and_backward_refreshes_keep_the_queue_bounded() {
        let mut t = FlowTable::with_seed(Some(1_000), 8);
        t.touch_or_insert_with(0, 10, || 0u8);
        for now in 1..100_000 {
            // A flow opened and torn down leaves its record behind.
            t.touch_or_insert_with(now, now, || 0);
            assert!(t.queued() <= 2 * t.len() + QUEUE_SLACK);
            t.remove(now);
            // Each backward refresh queues one more record.
            t.touch(0, 10);
            t.touch(0, 9);
            assert!(t.queued() <= 2 * t.len() + QUEUE_SLACK);
        }
        assert_eq!(expired(&mut t, 1_010), vec![0]);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn records_split_across_the_fifo_and_the_heap_pop_in_time_order() {
        let mut t = FlowTable::with_seed(Some(0), 7);
        for (key, now) in [(1, 10), (2, 30), (3, 20), (4, 40), (5, 5), (6, 35)] {
            t.touch_or_insert_with(key, now, || 0u8);
        }
        // FIFO 10, 30, 40; late heap 20, 5, 35.
        assert_eq!((t.queued(), t.queued_late()), (6, 3));
        let mut order = Vec::new();
        t.expire(25, |key, _| order.push(key));
        assert_eq!(order, vec![5, 1, 3]);
        t.expire(u64::MAX, |key, _| order.push(key));
        assert_eq!(order, vec![5, 1, 3, 2, 6, 4]);
    }
}
