//! Hot-path event counters.
//!
//! [`Counter`] is the closed set of events the sketch hot paths can
//! record; [`CounterSet`] is a fixed array of relaxed atomics indexed
//! by it. A closed enum (rather than string-keyed metrics) keeps the
//! record path to one `fetch_add` with a compile-time index — no
//! hashing, no allocation — and makes the exported schema enumerable
//! for validation.

use std::sync::atomic::{AtomicU64, Ordering};

/// One countable hot-path event.
///
/// Each variant documents the paper structure it observes; the JSONL
/// key is [`name`](Counter::name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// The O(1) singleton screen skipped both decodes because the
    /// update was a repeat of the bucket's own singleton key
    /// (`screened_apply`'s dominant fast path).
    ScreenFastSkip,
    /// The `O(1)` decodes before and after the update recovered the
    /// same singleton (or none): no transition to handle.
    ScreenNoTransition,
    /// The decoded singleton changed; the bucket paid for the
    /// tracking layer's transition handling.
    ScreenMiss,
    /// A count-signature decode recovered a singleton pair
    /// (`ReturnSingleton` of Fig. 4 returned a key).
    DecodeSingleton,
    /// A count-signature decode on the transition path found an empty
    /// or colliding bucket (no pair recoverable).
    DecodeNonSingleton,
    /// A decode met a state only an ill-formed stream can produce: a
    /// negative total, or a zero total with residue in a sum. It
    /// decodes to a collision, so no negative-count pair is sampled.
    DecodeIllFormed,
    /// `difference()` rejected a snapshot with more processed updates
    /// than the sketch itself — the condition that previously clamped
    /// `updates_processed` silently to zero.
    SnapshotAheadRejected,
    /// A `topDestHeap` priority adjustment was applied (Fig. 6 steps
    /// 11/21).
    HeapAdjust,
    /// A heap adjustment tried to push a priority below zero and was
    /// clamped (never happens on well-formed streams).
    HeapUnderflowClamp,
    /// A heap adjustment overflowed `u64::MAX` and was pinned there
    /// (never happens on well-formed streams).
    HeapOverflowClamp,
    /// The tracking layer saw a decrement for a pair it never tracked
    /// (ill-formed stream evidence).
    UntrackedDecrement,
}

/// Every counter, in stable export order.
pub const ALL_COUNTERS: [Counter; 11] = [
    Counter::ScreenFastSkip,
    Counter::ScreenNoTransition,
    Counter::ScreenMiss,
    Counter::DecodeSingleton,
    Counter::DecodeNonSingleton,
    Counter::DecodeIllFormed,
    Counter::SnapshotAheadRejected,
    Counter::HeapAdjust,
    Counter::HeapUnderflowClamp,
    Counter::HeapOverflowClamp,
    Counter::UntrackedDecrement,
];

impl Counter {
    /// The snake_case key this counter exports under.
    pub fn name(self) -> &'static str {
        match self {
            Counter::ScreenFastSkip => "screen_fast_skip",
            Counter::ScreenNoTransition => "screen_no_transition",
            Counter::ScreenMiss => "screen_miss",
            Counter::DecodeSingleton => "decode_singleton",
            Counter::DecodeNonSingleton => "decode_non_singleton",
            Counter::DecodeIllFormed => "decode_ill_formed",
            Counter::SnapshotAheadRejected => "snapshot_ahead_rejected",
            Counter::HeapAdjust => "heap_adjust",
            Counter::HeapUnderflowClamp => "heap_underflow_clamp",
            Counter::HeapOverflowClamp => "heap_overflow_clamp",
            Counter::UntrackedDecrement => "untracked_decrement",
        }
    }

    fn index(self) -> usize {
        match self {
            Counter::ScreenFastSkip => 0,
            Counter::ScreenNoTransition => 1,
            Counter::ScreenMiss => 2,
            Counter::DecodeSingleton => 3,
            Counter::DecodeNonSingleton => 4,
            Counter::SnapshotAheadRejected => 5,
            Counter::HeapAdjust => 6,
            Counter::HeapUnderflowClamp => 7,
            Counter::HeapOverflowClamp => 8,
            Counter::UntrackedDecrement => 9,
            Counter::DecodeIllFormed => 10,
        }
    }
}

/// A fixed set of relaxed atomic counters, one per [`Counter`].
///
/// All operations take `&self`; ordering is `Relaxed` throughout —
/// counters are independent monotone statistics, not synchronization.
#[derive(Debug, Default)]
pub struct CounterSet {
    slots: [AtomicU64; ALL_COUNTERS.len()],
}

impl CounterSet {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments `counter` by one.
    #[inline]
    pub fn incr(&self, counter: Counter) {
        self.slots[counter.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to `counter`.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.slots[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Reads the current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.slots[counter.index()].load(Ordering::Relaxed)
    }

    /// Adds every counter of `other` into this set (counters are
    /// additive across shards, exactly like the sketch counters).
    pub fn merge_from(&self, other: &CounterSet) {
        for counter in ALL_COUNTERS {
            let theirs = other.get(counter);
            if theirs > 0 {
                self.add(counter, theirs);
            }
        }
    }

    /// The nonzero counters in stable order, ready for export.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        ALL_COUNTERS
            .into_iter()
            .filter_map(|c| {
                let v = self.get(c);
                (v > 0).then_some((c.name(), v))
            })
            .collect()
    }
}

impl Clone for CounterSet {
    /// Clones by snapshotting current values — a cloned sketch carries
    /// its history's counts forward, matching counter-storage clone
    /// semantics.
    fn clone(&self) -> Self {
        let fresh = CounterSet::new();
        fresh.merge_from(self);
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_zero_and_accumulate() {
        let set = CounterSet::new();
        for c in ALL_COUNTERS {
            assert_eq!(set.get(c), 0);
        }
        set.incr(Counter::ScreenFastSkip);
        set.add(Counter::ScreenFastSkip, 4);
        assert_eq!(set.get(Counter::ScreenFastSkip), 5);
        assert_eq!(set.get(Counter::ScreenMiss), 0);
    }

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<&str> = ALL_COUNTERS.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_COUNTERS.len());
    }

    #[test]
    fn index_is_a_bijection_onto_the_array() {
        let mut seen = [false; ALL_COUNTERS.len()];
        for c in ALL_COUNTERS {
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
        }
    }

    #[test]
    fn merge_adds_and_clone_snapshots() {
        let a = CounterSet::new();
        let b = CounterSet::new();
        a.incr(Counter::HeapAdjust);
        b.add(Counter::HeapAdjust, 2);
        b.incr(Counter::HeapOverflowClamp);
        a.merge_from(&b);
        assert_eq!(a.get(Counter::HeapAdjust), 3);
        assert_eq!(a.get(Counter::HeapOverflowClamp), 1);
        let c = a.clone();
        a.incr(Counter::HeapAdjust);
        assert_eq!(c.get(Counter::HeapAdjust), 3, "clone is a snapshot");
    }

    #[test]
    fn nonzero_lists_only_touched_counters_in_order() {
        let set = CounterSet::new();
        assert!(set.nonzero().is_empty());
        set.incr(Counter::HeapUnderflowClamp);
        set.incr(Counter::ScreenMiss);
        assert_eq!(
            set.nonzero(),
            vec![("screen_miss", 1), ("heap_underflow_clamp", 1)]
        );
    }
}
