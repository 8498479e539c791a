//! Folding a stretch of updates to one net change per pair.
//!
//! In the SYN-flood stream a SYN is `+1` and the ACK that completes its
//! handshake is `−1` (§2), so most pairs that open between two
//! judgments also close before the next one. The sketch is linear and
//! its counters are wrapping sums: applying a pair's net change leaves
//! every bucket as its updates would, and a pair that cancels needs no
//! work at all. [`UpdateFold`] finds those net changes in one cheap
//! pass, before the sketch hashes anything (DESIGN.md §18, "Folding an
//! interval").
//!
//! The fold is a direct-mapped table: each pair hashes to one slot.
//! When a second pair lands on an occupied slot, the slot's entry is
//! emitted as it stands and the newcomer takes the slot. Because the
//! counters are sums, an entry emitted early and a later entry of the
//! same pair apply to the same counters as their sum would, so no
//! eviction pattern changes the result. Adversarial keys that collide
//! on purpose get the raw stream back, never a wrong count.

use dcs_hash::cast::{u64_from_usize, usize_from_u64};

use crate::types::{FlowUpdate, NetBatch, NetUpdate};

/// log₂ of the table's slot count: 2¹⁴ slots of 16 bytes, 256 KiB,
/// which sits in a 2 MiB L2 cache beside the sketch's hot levels.
const SLOT_BITS: u32 = 14;

/// Slots in the table.
const SLOTS: usize = 1 << SLOT_BITS;

/// The slot a packed key maps to: a multiplicative (Fibonacci) hash,
/// whose top bits depend on every bit of the key.
#[inline]
fn slot_of(packed: u64) -> usize {
    usize_from_u64(packed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOT_BITS))
}

/// A direct-mapped table that folds a stretch of updates into one net
/// change per pair (see the module docs).
///
/// [`absorb`](Self::absorb) folds updates in, writing evicted entries to a
/// caller's [`NetBatch`] and counting every update as covered;
/// [`flush`](Self::flush) writes out what the table still holds and
/// leaves it empty. The table is allocated on the first update, so a
/// fold that never sees one costs nothing.
///
/// # Examples
///
/// ```
/// use dcs_core::{DestAddr, FlowUpdate, NetBatch, SourceAddr, UpdateFold};
///
/// let mut fold = UpdateFold::new();
/// let mut batch = NetBatch::default();
/// fold.absorb(
///     &[
///         FlowUpdate::insert(SourceAddr(1), DestAddr(80)),
///         FlowUpdate::insert(SourceAddr(2), DestAddr(80)),
///         FlowUpdate::delete(SourceAddr(1), DestAddr(80)),
///     ],
///     &mut batch,
/// );
/// fold.flush(&mut batch);
/// assert_eq!(batch.covered, 3);
/// assert_eq!(batch.entries.len(), 1); // only 2 → 80 is left open
/// ```
#[derive(Debug, Default)]
pub struct UpdateFold {
    /// Each slot's pair and its net change since the last flush. A slot
    /// whose change is zero is free, whatever its key.
    slots: Vec<NetUpdate>,
    /// Whether each slot is in `live`.
    listed: Vec<bool>,
    /// The slots written since the last flush, each once.
    live: Vec<usize>,
}

impl UpdateFold {
    /// An empty fold; allocates nothing.
    pub const fn new() -> Self {
        Self {
            slots: Vec::new(),
            listed: Vec::new(),
            live: Vec::new(),
        }
    }

    /// Folds `updates` in. An entry evicted by a colliding pair goes to
    /// `out.entries`, and `out.covered` counts every update.
    pub fn absorb(&mut self, updates: &[FlowUpdate], out: &mut NetBatch) {
        if updates.is_empty() {
            return;
        }
        if self.slots.is_empty() {
            self.slots = vec![NetUpdate::default(); SLOTS];
            self.listed = vec![false; SLOTS];
        }
        for update in updates {
            let index = slot_of(update.key.packed());
            let slot = &mut self.slots[index];
            let delta = update.delta.signum();
            if slot.delta == 0 {
                if !self.listed[index] {
                    self.listed[index] = true;
                    self.live.push(index);
                }
                *slot = NetUpdate {
                    key: update.key,
                    delta,
                };
            } else if slot.key == update.key {
                slot.delta = slot.delta.wrapping_add(delta);
            } else {
                out.entries.push(*slot);
                *slot = NetUpdate {
                    key: update.key,
                    delta,
                };
            }
        }
        out.covered += u64_from_usize(updates.len());
    }

    /// Writes every non-zero net change the table holds to
    /// `out.entries` and empties the table.
    pub fn flush(&mut self, out: &mut NetBatch) {
        for &index in &self.live {
            let slot = &mut self.slots[index];
            if slot.delta != 0 {
                out.entries.push(*slot);
                slot.delta = 0;
            }
            self.listed[index] = false;
        }
        self.live.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Delta, DestAddr, FlowKey, SourceAddr};
    use crate::{DistinctCountSketch, SketchConfig};
    use proptest::prelude::*;

    fn folded(updates: &[FlowUpdate]) -> NetBatch {
        let mut fold = UpdateFold::new();
        let mut batch = NetBatch::default();
        fold.absorb(updates, &mut batch);
        fold.flush(&mut batch);
        batch
    }

    /// Two distinct keys that share a slot.
    fn colliding_pair() -> (FlowKey, FlowKey) {
        let first = FlowKey::from_packed(1);
        let second = (2..)
            .map(FlowKey::from_packed)
            .find(|k| slot_of(k.packed()) == slot_of(first.packed()))
            .unwrap();
        (first, second)
    }

    #[test]
    fn an_unused_fold_allocates_nothing() {
        let mut fold = UpdateFold::new();
        let mut batch = NetBatch::default();
        fold.absorb(&[], &mut batch);
        fold.flush(&mut batch);
        assert_eq!(fold.slots.capacity(), 0);
        assert_eq!(batch, NetBatch::default());
    }

    #[test]
    fn a_handshake_cancels_and_a_repeat_adds_up() {
        let open = FlowUpdate::insert(SourceAddr(1), DestAddr(2));
        let batch = folded(&[open, open.inverted(), open, open, open]);
        assert_eq!(batch.covered, 5);
        assert_eq!(
            batch.entries,
            [NetUpdate {
                key: open.key,
                delta: 3
            }]
        );
    }

    #[test]
    fn a_collision_emits_the_evicted_slot_as_it_stands() {
        let (a, b) = colliding_pair();
        let up = |key, delta| FlowUpdate { key, delta };
        let batch = folded(&[
            up(a, crate::Delta::Insert),
            up(a, crate::Delta::Insert),
            up(b, crate::Delta::Delete),
            up(a, crate::Delta::Insert),
        ]);
        assert_eq!(
            batch.entries,
            [
                NetUpdate { key: a, delta: 2 },
                NetUpdate { key: b, delta: -1 },
                NetUpdate { key: a, delta: 1 },
            ]
        );
    }

    #[test]
    fn a_cancelled_slot_is_reused_and_flushed_once() {
        let (a, b) = colliding_pair();
        let up = |key, delta| FlowUpdate { key, delta };
        let mut fold = UpdateFold::new();
        let mut batch = NetBatch::default();
        fold.absorb(
            &[up(a, crate::Delta::Insert), up(a, crate::Delta::Delete)],
            &mut batch,
        );
        fold.absorb(&[up(b, crate::Delta::Insert)], &mut batch);
        assert_eq!(fold.live.len(), 1);
        fold.flush(&mut batch);
        assert_eq!(batch.entries, [NetUpdate { key: b, delta: 1 }]);
        // A flushed table starts over: the same pair is listed afresh.
        batch.clear();
        fold.absorb(&[up(b, crate::Delta::Insert)], &mut batch);
        fold.flush(&mut batch);
        assert_eq!(batch.entries, [NetUpdate { key: b, delta: 1 }]);
        assert_eq!(batch.covered, 1);
    }

    /// `n` distinct keys that all share one slot.
    fn colliding(n: usize) -> Vec<FlowKey> {
        let slot = slot_of(7);
        (7..)
            .filter(|&packed| slot_of(packed) == slot)
            .take(n)
            .map(FlowKey::from_packed)
            .collect()
    }

    /// Sketches `stream` twice: raw, in one `update_batch`, and folded,
    /// cut into intervals after every step whose `cut` is 0 (and pushed
    /// into the fold in chunks of up to `chunk` updates), each interval
    /// applied as one net batch. Then a last interval of three repeats
    /// of one pair (`net = +3`), and one that cancels completely, which
    /// must fold to no entry and still advance the position. The two
    /// sketches' states, `updates_processed` and `net_updates` included,
    /// must be equal.
    fn fold_matches_raw(
        seed: u64,
        chunk: usize,
        steps: &[(usize, bool, u8)],
    ) -> Result<(), TestCaseError> {
        let config = SketchConfig::builder()
            .num_tables(3)
            .buckets_per_table(16)
            .seed(seed)
            .build()
            .unwrap();
        let mut pool = colliding(8);
        pool.extend((0..8u32).map(|s| FlowKey::new(SourceAddr(s), DestAddr(s % 3))));
        let mut intervals: Vec<Vec<FlowUpdate>> = vec![Vec::new()];
        for &(key, insert, cut) in steps {
            let delta = if insert { Delta::Insert } else { Delta::Delete };
            let interval = intervals.last_mut().unwrap();
            interval.push(FlowUpdate {
                key: pool[key % pool.len()],
                delta,
            });
            if cut == 0 {
                intervals.push(Vec::new());
            }
        }
        let repeated = FlowUpdate {
            key: pool[0],
            delta: Delta::Insert,
        };
        intervals.push(vec![repeated; 3]);
        let cancelling = [pool[1], pool[9], pool[1]]
            .map(|key| FlowUpdate {
                key,
                delta: Delta::Insert,
            })
            .to_vec();
        let inverted: Vec<FlowUpdate> = cancelling.iter().map(|u| u.inverted()).collect();
        intervals.push([cancelling, inverted].concat());

        let mut raw = DistinctCountSketch::new(config.clone());
        let mut folded = DistinctCountSketch::new(config);
        let mut fold = UpdateFold::new();
        let mut batch = NetBatch::default();
        for interval in &intervals {
            raw.update_batch(interval);
            batch.clear();
            for piece in interval.chunks(chunk) {
                fold.absorb(piece, &mut batch);
            }
            fold.flush(&mut batch);
            prop_assert!(batch.entries.len() <= interval.len());
            prop_assert!(batch.entries.iter().all(|e| e.delta != 0));
            folded.apply_net(&batch);
            prop_assert_eq!(folded.to_state(), raw.to_state());
        }
        prop_assert_eq!(
            &batch,
            &NetBatch {
                entries: Vec::new(),
                covered: 6
            }
        );
        prop_assert_eq!(folded.updates_processed(), raw.updates_processed());
        prop_assert_eq!(folded.net_updates(), raw.net_updates());
        Ok(())
    }

    fn steps() -> impl Strategy<Value = Vec<(usize, bool, u8)>> {
        proptest::collection::vec((0usize..16, any::<bool>(), 0u8..8), 0..400)
    }

    proptest! {
        #[test]
        fn fold_then_ingest_equals_raw_ingest(
            seed in 0u64..1_000,
            chunk in 1usize..80,
            steps in steps(),
        ) {
            fold_matches_raw(seed, chunk, &steps)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]
        #[test]
        #[ignore = "long run; CI runs it in release mode"]
        fn fold_then_ingest_equals_raw_ingest_long(
            seed in 0u64..1_000_000,
            chunk in 1usize..300,
            steps in steps(),
        ) {
            fold_matches_raw(seed, chunk, &steps)?;
        }
    }
}
