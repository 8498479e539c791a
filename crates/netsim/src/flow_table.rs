//! The edge router's flow table: a seeded hash map with O(expired)
//! expiry.
//!
//! Every per-flow tracker at the edge — [`HandshakeTracker`],
//! [`UdpTracker`] and [`FlowAggregator`] — keys its state by a packed
//! `(source, dest)` pair and evicts entries idle longer than a timeout.
//! This is the one table they share (DESIGN.md §19):
//!
//! * **Seeded hashing.** Attackers choose the addresses the table is
//!   keyed on. A hash they can predict lets them precompute colliding
//!   keys and slow the router down, a blind spot a burst attacker can
//!   time. Each table draws a secret seed from `std`'s `RandomState`
//!   once, at construction, and hashes with [`Mix13State::with_seed`]
//!   (two rounds of the Stafford mix13 finalizer) in place of SipHash.
//!   No hash order reaches any output: callers sort each expiry batch.
//! * **Lazy expiry heap.** When a timeout is set, every write of an
//!   entry's `last_seen` pushes a `(last_seen, key)` record on a
//!   min-heap. [`FlowTable::expire`] pops records while they are idle
//!   past the timeout and skips a record that no longer matches its
//!   entry's current `last_seen` (the entry was refreshed or removed
//!   since). An entry is expired exactly when its current `last_seen`
//!   is idle past the timeout, whatever order timestamps arrived in, so
//!   a tick removes exactly what a full `retain` sweep would. Without a
//!   timeout nothing is pushed.
//! * **Compaction.** Refreshes leave stale records behind. Before a
//!   push, a heap holding at least `2 × live entries + QUEUE_SLACK`
//!   records is rebuilt from the live entries, so its size stays within
//!   that bound and the rebuilds cost O(1) amortized per write.
//!
//! [`HandshakeTracker`]: crate::HandshakeTracker
//! [`UdpTracker`]: crate::UdpTracker
//! [`FlowAggregator`]: crate::FlowAggregator

use std::cmp::Reverse;
use std::collections::hash_map::{self, HashMap};
use std::collections::BinaryHeap;
use std::hash::{BuildHasher, Hasher, RandomState};

use dcs_hash::det::Mix13State;

/// Stale records the expiry heap may hold beyond twice the live
/// entries before it is rebuilt; keeps rebuilds rare on tiny tables.
pub(crate) const QUEUE_SLACK: usize = 64;

#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    last_seen: u64,
}

/// Per-flow state keyed by a packed flow key, with idle expiry.
#[derive(Debug, Clone)]
pub(crate) struct FlowTable<V> {
    entries: HashMap<u64, Entry<V>, Mix13State>,
    /// `(last_seen, key)` records, oldest first; empty without a
    /// timeout.
    expiry: BinaryHeap<Reverse<(u64, u64)>>,
    /// Entries idle longer than this many ticks expire; `None`
    /// disables expiry.
    timeout: Option<u64>,
}

impl<V> FlowTable<V> {
    /// An empty table hashed under a fresh secret seed.
    pub(crate) fn new(timeout: Option<u64>) -> Self {
        Self::with_seed(timeout, RandomState::new().build_hasher().finish())
    }

    /// An empty table hashed under `seed`.
    pub(crate) fn with_seed(timeout: Option<u64>, seed: u64) -> Self {
        Self {
            entries: HashMap::with_hasher(Mix13State::with_seed(seed)),
            expiry: BinaryHeap::new(),
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
    pub(crate) fn touch(&mut self, key: u64, now: u64) -> Option<&mut V> {
        self.make_room();
        let entry = self.entries.get_mut(&key)?;
        if entry.last_seen != now {
            entry.last_seen = now;
            if self.timeout.is_some() {
                self.expiry.push(Reverse((now, key)));
            }
        }
        Some(&mut entry.value)
    }

    /// Like [`FlowTable::touch`], but inserts `make()` first when `key`
    /// is absent, in one probe. The flag is `true` on insertion.
    pub(crate) fn touch_or_insert_with(
        &mut self,
        key: u64,
        now: u64,
        make: impl FnOnce() -> V,
    ) -> (&mut V, bool) {
        self.make_room();
        let (entry, inserted) = match self.entries.entry(key) {
            hash_map::Entry::Occupied(slot) => {
                let entry = slot.into_mut();
                if entry.last_seen == now {
                    return (&mut entry.value, false);
                }
                entry.last_seen = now;
                (entry, false)
            }
            hash_map::Entry::Vacant(slot) => (
                slot.insert(Entry {
                    value: make(),
                    last_seen: now,
                }),
                true,
            ),
        };
        if self.timeout.is_some() {
            self.expiry.push(Reverse((now, key)));
        }
        (&mut entry.value, inserted)
    }

    /// Removes the entry under `key`. Its heap records go stale and are
    /// skipped when popped.
    pub(crate) fn remove(&mut self, key: u64) -> Option<V> {
        self.entries.remove(&key).map(|e| e.value)
    }

    /// Removes every entry idle longer than the timeout as of `now`
    /// (`now − last_seen > timeout`), handing each to `on_expired` in
    /// heap order. A no-op without a timeout.
    pub(crate) fn expire(&mut self, now: u64, mut on_expired: impl FnMut(u64, V)) {
        let Some(timeout) = self.timeout else {
            return;
        };
        while let Some(&Reverse((last_seen, key))) = self.expiry.peek() {
            if now.saturating_sub(last_seen) <= timeout {
                break;
            }
            self.expiry.pop();
            if let hash_map::Entry::Occupied(slot) = self.entries.entry(key) {
                // A refreshed entry has a newer record still queued.
                if slot.get().last_seen == last_seen {
                    on_expired(key, slot.remove().value);
                }
            }
        }
    }

    /// Removes every entry, in hash order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.expiry.clear();
        self.entries.drain().map(|(key, e)| (key, e.value))
    }

    /// Rebuilds the expiry heap from the live entries once stale records
    /// reach `2 × live + QUEUE_SLACK`; the caller then pushes at most one
    /// record, so the heap never exceeds that bound after a write.
    fn make_room(&mut self) {
        if self.expiry.len() < 2 * self.entries.len() + QUEUE_SLACK {
            return;
        }
        let mut records = std::mem::take(&mut self.expiry).into_vec();
        records.clear();
        records.extend(
            self.entries
                .iter()
                .map(|(&key, e)| Reverse((e.last_seen, key))),
        );
        self.expiry = BinaryHeap::from(records);
    }

    /// Records in the expiry heap, stale ones included.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        self.expiry.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expired(table: &mut FlowTable<u8>, now: u64) -> Vec<u64> {
        let mut keys = Vec::new();
        table.expire(now, |key, _| keys.push(key));
        keys.sort_unstable();
        keys
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
}
