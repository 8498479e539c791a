//! Edge cases of the epoch window's delta ring, with and without a
//! checkpoint round trip in the middle.
//!
//! The ring is the subtlest state the checkpoint format carries: it
//! wraps (oldest deltas evicted), it can be partially filled or empty,
//! and its capacity is declared in the document. Each scenario here is
//! run against a windowed monitor that has been serialized to bytes
//! (the kind-5 `Window` document) and restored, asserting the restored
//! monitor answers exactly like the original.

use ddos_streams::netsim::window::{SlidingWindow, WindowPolicy};
use ddos_streams::netsim::Monitor;
use ddos_streams::persist::{decode, encode, Checkpoint, PersistError, WindowCheckpoint};
use ddos_streams::{AlarmPolicy, Delta, DestAddr, FlowUpdate, SketchConfig, SourceAddr};

fn config() -> SketchConfig {
    SketchConfig::builder()
        .buckets_per_table(128)
        .seed(21)
        .build()
        .unwrap()
}

fn windowed(policy: WindowPolicy) -> Monitor {
    Monitor::new(config(), AlarmPolicy::default(), Some(policy)).unwrap()
}

fn sliding(epochs: usize) -> Monitor {
    windowed(WindowPolicy::Sliding { epochs })
}

fn flood(wm: &mut Monitor, dest: u32, from: u32, count: u32) {
    let updates: Vec<FlowUpdate> = (from..from + count)
        .map(|s| FlowUpdate::new(SourceAddr(s), DestAddr(dest), Delta::Insert))
        .collect();
    wm.ingest(&updates);
}

/// The monitor's sliding window.
fn ring(wm: &Monitor) -> &SlidingWindow {
    wm.window().expect("a windowed monitor").window()
}

/// The monitor's kind-5 checkpoint document.
fn window_doc(wm: &mut Monitor) -> WindowCheckpoint {
    let Ok(Checkpoint::Window(doc)) = wm.checkpoint() else {
        panic!("wrong document kind");
    };
    doc
}

fn restore(checkpoint: WindowCheckpoint, policy: WindowPolicy) -> Result<Monitor, PersistError> {
    Monitor::from_checkpoint(
        Checkpoint::Window(checkpoint),
        &config(),
        AlarmPolicy::default(),
        Some(policy),
    )
}

/// Serializes a windowed monitor through the full codec and restores
/// it under `policy`.
fn roundtrip(wm: &mut Monitor, policy: WindowPolicy) -> Monitor {
    let bytes = encode(&Checkpoint::Window(window_doc(wm)));
    let Checkpoint::Window(checkpoint) = decode(&bytes).unwrap() else {
        panic!("wrong document kind");
    };
    restore(checkpoint, policy).unwrap()
}

#[test]
fn wrapped_ring_restores_with_correct_eviction_order() {
    // Capacity 3, 7 rotations: the deltas of epochs 4, 5, 6 remain,
    // oldest first.
    let mut wm = sliding(3);
    for e in 0..7u32 {
        flood(&mut wm, e, e * 1_000, 20);
        wm.evaluate().unwrap();
    }
    let mut restored = roundtrip(&mut wm, WindowPolicy::Sliding { epochs: 3 });
    for window in [ring(&wm), ring(&restored)] {
        assert_eq!(window.len(), 3);
        assert_eq!(window.epochs_rotated(), 7);
        let order: Vec<u32> = window
            .deltas()
            .map(|delta| delta.estimate_top_k(1, 0.25).entries[0].group)
            .collect();
        assert_eq!(order, vec![4, 5, 6]);
    }
    assert_eq!(window_doc(&mut restored), window_doc(&mut wm));
}

#[test]
fn windowed_query_spanning_the_wrap_survives_restore() {
    // After the ring wraps, the window must see exactly the
    // post-eviction epochs — identically before and after a checkpoint
    // round trip taken mid-epoch.
    let mut wm = sliding(2);
    for e in 0..5u32 {
        flood(&mut wm, e, e * 1_000, 30);
        wm.evaluate().unwrap();
    }
    flood(&mut wm, 99, 50_000, 40); // open epoch
    let mut restored = roundtrip(&mut wm, WindowPolicy::Sliding { epochs: 2 });
    assert_eq!(wm.evaluate().unwrap(), restored.evaluate().unwrap());
    assert_eq!(restored.top_k(4).unwrap(), wm.top_k(4).unwrap());
    // The window holds epoch 4 and the epoch that just closed:
    // epochs 0..=3 are invisible, destinations 4 and 99 are.
    let top = restored.top_k(6).unwrap();
    let mut groups = top.groups();
    groups.sort_unstable();
    assert_eq!(groups, vec![4, 99]);
    assert!(
        top.frequency_of(0).is_none(),
        "evicted epoch leaked through"
    );
}

#[test]
fn difference_against_oldest_snapshot_is_exact_after_restore() {
    // A full window equals the cumulative sketch minus its snapshot
    // from `N` rotations ago; the restored monitor's window must be
    // that same difference sketch (same state, not just same ranking).
    let mut wm = sliding(4);
    let mut snapshots = Vec::new();
    for e in 0..4u32 {
        flood(&mut wm, 7, e * 1_000, 25); // same dest every epoch
        wm.evaluate().unwrap();
        snapshots.push(wm.cumulative().unwrap().into_owned());
    }
    flood(&mut wm, 7, 100_000, 60);
    let mut restored = roundtrip(&mut wm, WindowPolicy::Sliding { epochs: 4 });
    wm.evaluate().unwrap();
    restored.evaluate().unwrap();
    let expected = wm.cumulative().unwrap().difference(&snapshots[0]).unwrap();
    assert_eq!(ring(&restored).sketch().to_state(), expected.to_state());
    assert_eq!(
        ring(&restored).sketch().to_state(),
        ring(&wm).sketch().to_state()
    );
    assert_eq!(restored.top_k(3).unwrap(), wm.top_k(3).unwrap());
}

#[test]
fn partially_filled_ring_restores() {
    // Fewer rotations than capacity: the checkpoint carries a short
    // delta list that must restore as-is (not padded, not rejected).
    let mut wm = sliding(8);
    flood(&mut wm, 1, 0, 40);
    wm.evaluate().unwrap();
    flood(&mut wm, 2, 1_000, 40);
    assert_eq!(ring(&wm).len(), 1);
    let mut restored = roundtrip(&mut wm, WindowPolicy::Sliding { epochs: 8 });
    assert_eq!(ring(&restored).len(), 1);
    assert_eq!(ring(&restored).epochs_rotated(), 1);
    assert_eq!(restored.top_k(2).unwrap(), wm.top_k(2).unwrap());
    assert_eq!(window_doc(&mut restored), window_doc(&mut wm));
}

#[test]
fn empty_ring_restores() {
    // No rotations at all: the delta list is empty, and only the
    // cumulative sketch and its (empty) epoch base travel.
    let mut wm = sliding(4);
    flood(&mut wm, 3, 0, 50);
    let mut restored = roundtrip(&mut wm, WindowPolicy::Sliding { epochs: 4 });
    assert!(ring(&restored).is_empty());
    assert!(restored.top_k(4).unwrap().entries.is_empty());
    assert_eq!(window_doc(&mut restored), window_doc(&mut wm));
}

#[test]
fn restored_window_keeps_rotating_correctly() {
    // The restored ring must continue evicting in the right order:
    // rotate it past capacity after restore and compare against an
    // uninterrupted monitor fed the same schedule.
    let mut full = sliding(3);
    let mut prefix = sliding(3);
    for e in 0..2u32 {
        flood(&mut full, e, e * 1_000, 20);
        flood(&mut prefix, e, e * 1_000, 20);
        full.evaluate().unwrap();
        prefix.evaluate().unwrap();
    }
    let mut restored = roundtrip(&mut prefix, WindowPolicy::Sliding { epochs: 3 });
    for e in 2..6u32 {
        flood(&mut full, e, e * 1_000, 20);
        flood(&mut restored, e, e * 1_000, 20);
        assert_eq!(full.evaluate().unwrap(), restored.evaluate().unwrap());
    }
    assert_eq!(window_doc(&mut restored), window_doc(&mut full));
}

#[test]
fn oversized_snapshot_list_is_rejected() {
    let mut wm = sliding(2);
    for e in 0..2u32 {
        flood(&mut wm, e, e * 1_000, 10);
        wm.evaluate().unwrap();
    }
    let restore = |checkpoint, epochs| restore(checkpoint, WindowPolicy::Sliding { epochs });
    // Claim a smaller ring than the deltas present, under a policy
    // that agrees with the claim.
    let mut oversized = window_doc(&mut wm);
    oversized.epochs = 1;
    assert!(matches!(
        restore(oversized, 1),
        Err(PersistError::Incompatible { .. })
    ));

    let mut zero = window_doc(&mut wm);
    zero.epochs = 0;
    assert!(matches!(
        restore(zero, 2),
        Err(PersistError::Incompatible { .. })
    ));
}

#[test]
fn window_slide_before_ring_full_keeps_partial_coverage_across_restore() {
    // Two rotations into a four-epoch window: the ring is half full,
    // the window covers exactly the two closed epochs, and a checkpoint
    // taken in that state must restore the short ring as-is.
    let window_policy = WindowPolicy::Sliding { epochs: 4 };
    let mut wm = windowed(window_policy.clone());
    for epoch in 0..2u32 {
        flood(&mut wm, epoch, epoch * 1_000, 30);
        wm.evaluate().unwrap();
    }
    // Open-epoch traffic that must stay out of the window.
    flood(&mut wm, 9, 70_000, 40);
    assert_eq!(ring(&wm).len(), 2, "partial ring holds the closed epochs");
    assert_eq!(ring(&wm).sketch().updates_processed(), 60);
    let top = wm.top_k(4).unwrap();
    assert!(top.frequency_of(9).is_none(), "open epoch leaked: {top}");
    let mut restored = roundtrip(&mut wm, window_policy);
    assert_eq!(ring(&restored).len(), 2);
    assert_eq!(
        ring(&restored).sketch().to_state(),
        ring(&wm).sketch().to_state()
    );
    assert_eq!(restored.top_k(4).unwrap(), wm.top_k(4).unwrap());
}

#[test]
fn rotation_landing_exactly_on_checkpoint_save_resumes_identically() {
    // A checkpoint taken at the instant an epoch closes (rotate, then
    // save, no updates in between) is the boundary case for the epoch
    // base: the restored base must equal the cumulative state, so the
    // next epoch's delta starts empty instead of replaying the closed
    // epoch. The restored run must track an uninterrupted one
    // state-for-state.
    let window_policy = WindowPolicy::Sliding { epochs: 3 };
    let mut live = windowed(window_policy.clone());
    for epoch in 0..4u32 {
        flood(&mut live, epoch % 2, epoch * 2_000, 25);
        live.evaluate().unwrap();
    }
    // Save lands exactly on the rotation boundary.
    let mut restored = roundtrip(&mut live, window_policy);
    assert_eq!(ring(&restored).epochs_rotated(), 4);
    for epoch in 4..7u32 {
        flood(&mut live, epoch % 2, epoch * 2_000, 25);
        flood(&mut restored, epoch % 2, epoch * 2_000, 25);
        assert_eq!(live.evaluate().unwrap(), restored.evaluate().unwrap());
        assert_eq!(
            ring(&live).sketch().to_state(),
            ring(&restored).sketch().to_state(),
            "diverged at epoch {epoch}"
        );
    }
}
