//! Robustness integration tests: impaired packet feeds, timeout-based
//! discounting, epoch windows over phased timelines, deletes with no
//! matching insert, and prefix-partitioned routers end to end.

use ddos_streams::netsim::impair::Impairment;
use ddos_streams::netsim::window::{EpochWindow, WindowPolicy};
use ddos_streams::netsim::{
    run_pipeline, HandshakeTracker, PipelineConfig, TcpFlags, TcpSegment, TrafficDriver,
};
use ddos_streams::streamgen::timeline::TimelineBuilder;
use ddos_streams::{
    AlarmPolicy, Delta, DestAddr, DistinctCountSketch, FlowKey, FlowUpdate, SketchConfig,
    TrackingDcs,
};

fn config(seed: u64) -> SketchConfig {
    SketchConfig::builder()
        .buckets_per_table(512)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn detection_survives_packet_loss() {
    // 10% loss: some attack SYNs are missed (undercount) and some
    // legitimate ACKs are missed (overcount of the crowd). The flood
    // must still rank first by a wide margin.
    let victim = DestAddr(0x0a00_0001);
    let crowd = DestAddr(0x0a00_0002);
    let mut driver = TrafficDriver::new(1);
    driver.syn_flood(victim, 3_000).flash_crowd(crowd, 3_000);
    let impaired = Impairment::new(1).loss(0.1).apply(&driver.into_segments());

    let mut tracker = HandshakeTracker::new(None);
    let mut sketch = TrackingDcs::new(config(1));
    for seg in &impaired {
        if let Some(u) = tracker.observe(seg) {
            sketch.update(u);
        }
    }
    let top = sketch.track_top_k(2, 0.25);
    assert_eq!(top.entries[0].group, victim.0);
    let flood_est = top.entries[0].estimated_frequency;
    let crowd_est = top.frequency_of(crowd.0).unwrap_or(0);
    // The flood lost ~10% of its SYNs; the crowd kept ~10% of its
    // flows half-open (lost ACKs). Still ≥ 4x separation.
    assert!(
        flood_est > crowd_est * 4,
        "flood {flood_est} vs crowd {crowd_est}"
    );
}

#[test]
fn detection_survives_duplication_and_reordering() {
    let victim = DestAddr(0x0a00_0003);
    let mut driver = TrafficDriver::new(2);
    driver
        .legitimate_sessions(DestAddr(0x0a00_0004), 800)
        .syn_flood(victim, 1_500);
    let impaired = Impairment::new(2)
        .duplication(0.3)
        .reordering(3)
        .apply(&driver.into_segments());

    let mut tracker = HandshakeTracker::new(None);
    let mut sketch = TrackingDcs::new(config(2));
    let mut net = 0i64;
    for seg in &impaired {
        if let Some(u) = tracker.observe(seg) {
            net += u.delta.signum();
            assert!(net >= 0, "stream became ill-formed");
            sketch.update(u);
        }
    }
    let top = sketch.track_top_k(1, 0.25);
    assert_eq!(top.entries[0].group, victim.0);
    // Duplicates must not inflate: estimate within 40% of 1500.
    let est = top.entries[0].estimated_frequency as f64;
    assert!(
        (est - 1_500.0).abs() / 1_500.0 < 0.4,
        "estimate {est} inflated by duplicates"
    );
}

#[test]
fn lost_acks_decay_via_half_open_timeout() {
    // With loss, completed flows whose ACK was dropped linger as
    // half-open; the router's timeout reclaims them, so the long-run
    // view converges back to the true attack set.
    let victim = DestAddr(0x0a00_0005);
    let mut driver = TrafficDriver::new(3);
    driver.flash_crowd(DestAddr(0x0a00_0006), 2_000);
    driver.advance_clock(1_000);
    driver.syn_flood(victim, 500);
    let impaired = Impairment::new(3).loss(0.15).apply(&driver.into_segments());

    let mut router = ddos_streams::EdgeRouter::new(0, Some(200));
    let mut sketch = TrackingDcs::new(config(3));
    for seg in &impaired {
        router.observe(seg);
        for u in router.drain_exports() {
            sketch.update(u);
        }
    }
    // At the end of the attack phase, the crowd's lost-ACK stragglers
    // (≈15% of 2000 = ~300) have been expired by the timeout (their
    // SYNs are ~1000 ticks old), so the attack dominates cleanly.
    let top = sketch.track_top_k(2, 0.25);
    assert_eq!(top.entries[0].group, victim.0);
    let crowd_residue = top.frequency_of(0x0a00_0006).unwrap_or(0);
    assert!(
        crowd_residue < top.entries[0].estimated_frequency / 2,
        "crowd residue {crowd_residue} not decayed"
    );
    // A final flush far in the future expires everything, and the
    // exported deletes drain the sketch back to empty.
    router.flush_expired(1_000_000);
    for u in router.drain_exports() {
        sketch.update(u);
    }
    assert_eq!(router.tracker().half_open_flows(), 0);
    assert!(sketch.track_top_k(1, 0.25).entries.is_empty());
}

#[test]
fn epoch_windows_catch_ramp_attacks_early() {
    // A slow ramp: absolute counts stay small for a while, but the
    // per-epoch delta is visible almost immediately.
    let victim = 0x0a00_0007u32;
    let timeline = TimelineBuilder::new(4)
        .steady_background(200, 30, 10, 0.95)
        .ramp_flood(victim, 300, 20)
        .build();
    let mut cumulative = DistinctCountSketch::new(config(4));
    let mut window = EpochWindow::new(config(4), WindowPolicy::Tumbling).unwrap();
    let epoch_ticks = 50u64;
    let mut next_rotation = epoch_ticks;
    let mut first_window_hit = None;
    for t in timeline.updates() {
        while t.at >= next_rotation {
            // Close the epoch; the tumbling window is exactly its delta.
            window.advance(&cumulative).unwrap();
            let recent = window.top_k(1, 0.25);
            if first_window_hit.is_none() && recent.frequency_of(victim).is_some_and(|f| f >= 100) {
                first_window_hit = Some(next_rotation);
            }
            next_rotation += epoch_ticks;
        }
        cumulative.update(t.update);
    }
    let hit = first_window_hit.expect("ramp never crossed 100/epoch");
    // The ramp reaches 100 fresh sources/epoch well before its peak
    // (20/tick × 50 ticks = 1000/epoch at full rate).
    assert!(hit < 200 + 300, "window hit too late: tick {hit}");
}

#[test]
fn topology_plus_impairment_end_to_end() {
    // Four prefix-owned edge routers on impaired feeds, one central
    // monitor: the distributed victim still raises the only alarm.
    let victim = DestAddr(0xc000_0042);
    let mut feeds: Vec<Vec<TcpSegment>> = vec![Vec::new(); 4];
    for round in 0..4u32 {
        let mut driver = TrafficDriver::new(u64::from(round) + 10)
            .with_source_base(0x3000_0000 + round * 0x0100_0000);
        driver
            .legitimate_sessions(DestAddr((round % 4) << 30 | 0x123), 300)
            .syn_flood(victim, 400);
        let impaired = Impairment::new(u64::from(round))
            .loss(0.05)
            .duplication(0.05)
            .apply(&driver.into_segments());
        for segment in impaired {
            // The router owning the server's top two bits sees both
            // directions of a flow; a SYN-ACK's server is its source.
            let server = if segment.flags.is_syn_ack() {
                segment.src.0
            } else {
                segment.dst.0
            };
            feeds[(server >> 30) as usize].push(segment);
        }
    }
    let fed: u64 = feeds.iter().map(|f| f.len() as u64).sum();
    let config = PipelineConfig {
        sketch: config(5),
        policy: AlarmPolicy {
            absolute_threshold: 500,
            ..AlarmPolicy::default()
        },
        batch_size: 128,
        evaluate_every: 256,
        half_open_timeout: Some(500),
        ..PipelineConfig::default()
    };
    let report = run_pipeline(feeds, config);
    assert_eq!(report.segments_observed, fed);
    assert_eq!(report.alarmed_destinations(), vec![victim.0]);
    // ~1600 attack sources minus ~5% loss: every estimate stays in a
    // sane band, and the peak reaches it from below.
    let estimates: Vec<f64> = report
        .alarms
        .iter()
        .map(|a| a.estimated_frequency as f64)
        .collect();
    assert!(
        estimates.iter().all(|&est| est < 2_300.0),
        "estimates {estimates:?} out of band"
    );
    let peak = estimates.iter().copied().fold(0.0, f64::max);
    assert!((900.0..2_300.0).contains(&peak), "peak estimate {peak}");
}

#[test]
fn pulse_attack_invisible_to_coarse_syn_fin_counts() {
    // A low-rate pulse attack balances its SYNs with teardowns within
    // each period: per-period SYN−FIN counts look calm, while the
    // sketch's within-epoch view sees every burst (surge_detection
    // example shows the positive side; this pins the negative).
    let victim = 0x0a00_0008u32;
    let timeline = TimelineBuilder::new(6)
        .pulse_attack(victim, 8, 100, 5, 250)
        .build();
    let series = timeline.syn_fin_series(100);
    for (syns, fins) in &series {
        let diff = *syns as i64 - *fins as i64;
        assert!(
            diff.abs() <= 5,
            "period-aligned counts should balance, got {syns} vs {fins}"
        );
    }
    // Fine-grained truth: the burst is real.
    let peak = timeline
        .half_open_series(victim, 10)
        .into_iter()
        .max()
        .unwrap();
    assert!(peak >= 200, "peak = {peak}");
}

/// A naive exporter with no handshake tracker — every client SYN an
/// insert, every bare ACK a delete — over a lossy, duplicating,
/// reordering feed: lost SYNs and duplicated ACKs leave deletes with no
/// matching insert. No pair with a negative net count may reach the
/// distinct sample or the top-k, and one full scan must count every
/// bucket such deletes leave ill-formed.
#[test]
fn unmatched_deletes_are_counted_and_never_sampled() {
    let mut driver = TrafficDriver::new(5);
    driver
        .syn_flood(DestAddr(0x0a00_0005), 400)
        .flash_crowd(DestAddr(0x0a00_0006), 2_000);
    let impaired = Impairment::new(5)
        .loss(0.3)
        .duplication(0.2)
        .reordering(8)
        .apply(&driver.into_segments());
    let mut net: std::collections::BTreeMap<FlowKey, i64> = Default::default();
    let mut sketch = DistinctCountSketch::new(config(5));
    for seg in &impaired {
        let delta = if seg.flags.is_syn_only() {
            Delta::Insert
        } else if seg.flags == TcpFlags::ACK && seg.payload_len == 0 {
            Delta::Delete
        } else {
            continue;
        };
        let update = FlowUpdate::new(seg.src, seg.dst, delta);
        *net.entry(update.key).or_insert(0) += delta.signum();
        sketch.update(update);
    }
    assert!(
        net.values().any(|&n| n < 0),
        "the feed has unmatched deletes"
    );

    let sample = sketch.distinct_sample(0.25);
    assert!(!sample.keys.is_empty());
    for key in &sample.keys {
        assert!(
            net[key] > 0,
            "sampled pair {key:?} has net count {}",
            net[key]
        );
    }
    let group_by = sketch.config().group_by();
    for entry in sketch.estimate_top_k(5, 0.25).entries {
        let positive = sample
            .keys
            .iter()
            .filter(|k| group_by.group_of(**k) == entry.group && net[*k] > 0)
            .count();
        assert_eq!(entry.sample_frequency, positive as u64);
    }

    let ill_formed = sketch
        .to_state()
        .levels
        .iter()
        .flat_map(|l| (0..l.totals.len()).filter_map(move |slot| l.signature(slot)))
        .filter(|sig| sig.is_ill_formed())
        .count() as u64;
    assert!(ill_formed > 0, "some bucket holds a negative count");
    let counted = |sketch: &DistinctCountSketch| {
        let snap = sketch.telemetry_snapshot("unmatched");
        snap.counters.get("decode_ill_formed").copied().unwrap_or(0)
    };
    let before = counted(&sketch);
    let _ = sketch.singletons();
    assert_eq!(counted(&sketch) - before, ill_formed);
}
