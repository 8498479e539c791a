//! Edge cases of the epoch window's delta ring, with and without a
//! checkpoint round trip in the middle.
//!
//! The ring is the subtlest state the checkpoint format carries: it
//! wraps (oldest deltas evicted), it can be partially filled or empty,
//! and its capacity is declared in the document. Each scenario here is
//! run against a windowed monitor that has been serialized to bytes
//! (the kind-5 `Window` document) and restored, asserting the restored
//! monitor answers exactly like the original.

use ddos_streams::netsim::window::{WindowPolicy, WindowedMonitor};
use ddos_streams::persist::{decode, encode, Checkpoint, PersistError};
use ddos_streams::{AlarmPolicy, Delta, DestAddr, FlowUpdate, SketchConfig, SourceAddr};

fn config() -> SketchConfig {
    SketchConfig::builder()
        .buckets_per_table(128)
        .seed(21)
        .build()
        .unwrap()
}

fn sliding(epochs: usize) -> WindowedMonitor {
    WindowedMonitor::new(
        config(),
        AlarmPolicy::default(),
        WindowPolicy::Sliding { epochs },
    )
    .unwrap()
}

fn flood(wm: &mut WindowedMonitor, dest: u32, from: u32, count: u32) {
    for s in from..from + count {
        wm.ingest_one(FlowUpdate::new(
            SourceAddr(s),
            DestAddr(dest),
            Delta::Insert,
        ));
    }
}

/// Serializes a windowed monitor through the full codec and restores
/// it under `policy`.
fn roundtrip(wm: &WindowedMonitor, policy: WindowPolicy) -> WindowedMonitor {
    let bytes = encode(&Checkpoint::Window(wm.to_checkpoint()));
    let Checkpoint::Window(checkpoint) = decode(&bytes).unwrap() else {
        panic!("wrong document kind");
    };
    WindowedMonitor::from_checkpoint(checkpoint, wm.monitor().policy().clone(), policy).unwrap()
}

#[test]
fn wrapped_ring_restores_with_correct_eviction_order() {
    // Capacity 3, 7 rotations: the deltas of epochs 4, 5, 6 remain,
    // oldest first.
    let mut wm = sliding(3);
    for e in 0..7u32 {
        flood(&mut wm, e, e * 1_000, 20);
        wm.rotate().unwrap();
    }
    let restored = roundtrip(&wm, WindowPolicy::Sliding { epochs: 3 });
    for window in [wm.window(), restored.window()] {
        assert_eq!(window.len(), 3);
        assert_eq!(window.epochs_rotated(), 7);
        let order: Vec<u32> = window
            .deltas()
            .map(|delta| delta.estimate_top_k(1, 0.25).entries[0].group)
            .collect();
        assert_eq!(order, vec![4, 5, 6]);
    }
    assert_eq!(restored.to_checkpoint(), wm.to_checkpoint());
}

#[test]
fn windowed_query_spanning_the_wrap_survives_restore() {
    // After the ring wraps, the window must see exactly the
    // post-eviction epochs — identically before and after a checkpoint
    // round trip taken mid-epoch.
    let mut wm = sliding(2);
    for e in 0..5u32 {
        flood(&mut wm, e, e * 1_000, 30);
        wm.rotate().unwrap();
    }
    flood(&mut wm, 99, 50_000, 40); // open epoch
    let mut restored = roundtrip(&wm, WindowPolicy::Sliding { epochs: 2 });
    assert_eq!(wm.rotate().unwrap(), restored.rotate().unwrap());
    assert_eq!(restored.windowed_top_k(4), wm.windowed_top_k(4));
    // The window holds epoch 4 and the epoch that just closed:
    // epochs 0..=3 are invisible, destinations 4 and 99 are.
    let top = restored.windowed_top_k(6);
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
        wm.rotate().unwrap();
        snapshots.push(wm.monitor().sketch().sketch().clone());
    }
    flood(&mut wm, 7, 100_000, 60);
    let mut restored = roundtrip(&wm, WindowPolicy::Sliding { epochs: 4 });
    wm.rotate().unwrap();
    restored.rotate().unwrap();
    let expected = wm
        .monitor()
        .sketch()
        .sketch()
        .difference(&snapshots[0])
        .unwrap();
    assert_eq!(restored.window().sketch().to_state(), expected.to_state());
    assert_eq!(
        restored.window().sketch().to_state(),
        wm.window().sketch().to_state()
    );
    assert_eq!(restored.windowed_top_k(3), wm.windowed_top_k(3));
}

#[test]
fn partially_filled_ring_restores() {
    // Fewer rotations than capacity: the checkpoint carries a short
    // delta list that must restore as-is (not padded, not rejected).
    let mut wm = sliding(8);
    flood(&mut wm, 1, 0, 40);
    wm.rotate().unwrap();
    flood(&mut wm, 2, 1_000, 40);
    assert_eq!(wm.window().len(), 1);
    let restored = roundtrip(&wm, WindowPolicy::Sliding { epochs: 8 });
    assert_eq!(restored.window().len(), 1);
    assert_eq!(restored.window().epochs_rotated(), 1);
    assert_eq!(restored.windowed_top_k(2), wm.windowed_top_k(2));
    assert_eq!(restored.to_checkpoint(), wm.to_checkpoint());
}

#[test]
fn empty_ring_restores() {
    // No rotations at all: the delta list is empty, and only the
    // cumulative sketch and its (empty) epoch base travel.
    let mut wm = sliding(4);
    flood(&mut wm, 3, 0, 50);
    let restored = roundtrip(&wm, WindowPolicy::Sliding { epochs: 4 });
    assert!(restored.window().is_empty());
    assert!(restored.windowed_top_k(4).entries.is_empty());
    assert_eq!(restored.to_checkpoint(), wm.to_checkpoint());
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
        full.rotate().unwrap();
        prefix.rotate().unwrap();
    }
    let mut restored = roundtrip(&prefix, WindowPolicy::Sliding { epochs: 3 });
    for e in 2..6u32 {
        flood(&mut full, e, e * 1_000, 20);
        flood(&mut restored, e, e * 1_000, 20);
        assert_eq!(full.rotate().unwrap(), restored.rotate().unwrap());
    }
    assert_eq!(restored.to_checkpoint(), full.to_checkpoint());
}

#[test]
fn oversized_snapshot_list_is_rejected() {
    let mut wm = sliding(2);
    for e in 0..2u32 {
        flood(&mut wm, e, e * 1_000, 10);
        wm.rotate().unwrap();
    }
    let restore = |checkpoint, epochs| {
        WindowedMonitor::from_checkpoint(
            checkpoint,
            AlarmPolicy::default(),
            WindowPolicy::Sliding { epochs },
        )
    };
    // Claim a smaller ring than the deltas present, under a policy
    // that agrees with the claim.
    let mut oversized = wm.to_checkpoint();
    oversized.epochs = 1;
    assert!(matches!(
        restore(oversized, 1),
        Err(PersistError::Incompatible { .. })
    ));

    let mut zero = wm.to_checkpoint();
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
    let mut wm =
        WindowedMonitor::new(config(), AlarmPolicy::default(), window_policy.clone()).unwrap();
    for epoch in 0..2u32 {
        for s in 0..30u32 {
            wm.ingest_one(FlowUpdate::insert(
                SourceAddr(epoch * 1_000 + s),
                DestAddr(epoch),
            ));
        }
        wm.rotate().unwrap();
    }
    // Open-epoch traffic that must stay out of the window.
    for s in 0..40u32 {
        wm.ingest_one(FlowUpdate::insert(SourceAddr(70_000 + s), DestAddr(9)));
    }
    assert_eq!(wm.window().len(), 2, "partial ring holds the closed epochs");
    assert_eq!(wm.window().sketch().updates_processed(), 60);
    let top = wm.windowed_top_k(4);
    assert!(top.frequency_of(9).is_none(), "open epoch leaked: {top}");
    let restored = roundtrip(&wm, window_policy);
    assert_eq!(restored.window().len(), 2);
    assert_eq!(
        restored.window().sketch().to_state(),
        wm.window().sketch().to_state()
    );
    assert_eq!(restored.windowed_top_k(4), wm.windowed_top_k(4));
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
    let mut live =
        WindowedMonitor::new(config(), AlarmPolicy::default(), window_policy.clone()).unwrap();
    for epoch in 0..4u32 {
        for s in 0..25u32 {
            live.ingest_one(FlowUpdate::insert(
                SourceAddr(epoch * 2_000 + s),
                DestAddr(epoch % 2),
            ));
        }
        live.rotate().unwrap();
    }
    // Save lands exactly on the rotation boundary.
    let mut restored = roundtrip(&live, window_policy);
    assert_eq!(restored.window().epochs_rotated(), 4);
    for epoch in 4..7u32 {
        for s in 0..25u32 {
            let u = FlowUpdate::insert(SourceAddr(epoch * 2_000 + s), DestAddr(epoch % 2));
            live.ingest_one(u);
            restored.ingest_one(u);
        }
        assert_eq!(live.rotate().unwrap(), restored.rotate().unwrap());
        assert_eq!(
            live.window().sketch().to_state(),
            restored.window().sketch().to_state(),
            "diverged at epoch {epoch}"
        );
    }
}
