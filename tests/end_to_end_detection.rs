//! End-to-end detection tests: packets → handshake tracking → sketch →
//! monitor alarms, across crates.

use ddos_streams::netsim::{
    run_pipeline, Alarm, DetectionReport, EpochWindow, Monitor, PipelineConfig, TrafficDriver,
    WindowPolicy,
};
use ddos_streams::{
    AlarmPolicy, DdosMonitor, DestAddr, EdgeRouter, FlowUpdate, ScenarioBuilder, SketchConfig,
    SourceAddr, TcpSegment, TrackingDcs,
};

fn sketch_config(seed: u64) -> SketchConfig {
    SketchConfig::builder()
        .buckets_per_table(512)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn scenario_flood_dominates_tracked_top_k() {
    let victim = 0x0a00_0001u32;
    let scenario = ScenarioBuilder::new(1)
        .background(3_000, 100, 0.9)
        .syn_flood(victim, 2_000)
        .flash_crowd(0x0a00_0002, 2_500, 0.97)
        .build();
    let mut sketch = TrackingDcs::new(sketch_config(1));
    for u in scenario.updates() {
        sketch.update(*u);
    }
    let top = sketch.track_top_k(1, 0.25);
    assert_eq!(top.entries[0].group, victim);
    // Estimate within 40% of exact half-open truth.
    let truth = scenario.half_open(victim) as f64;
    let got = top.entries[0].estimated_frequency as f64;
    assert!(
        (got - truth).abs() / truth < 0.4,
        "estimate {got} vs truth {truth}"
    );
}

#[test]
fn monitor_alarms_on_flood_but_not_crowd() {
    let victim = 0x0a00_0003u32;
    let crowd = 0x0a00_0004u32;
    let scenario = ScenarioBuilder::new(2)
        .syn_flood(victim, 1_500)
        .flash_crowd(crowd, 3_000, 0.98)
        .build();
    let policy = AlarmPolicy {
        absolute_threshold: 600,
        ..AlarmPolicy::default()
    };
    let mut monitor = Monitor::new(sketch_config(2), policy, None).unwrap();
    monitor.ingest(scenario.updates());
    let alarms = monitor.evaluate().unwrap();
    assert!(alarms.iter().any(|a| a.dest == victim), "flood missed");
    assert!(
        !alarms.iter().any(|a| a.dest == crowd),
        "flash crowd falsely flagged"
    );
}

#[test]
fn pipeline_detects_distributed_attack_single_routers_do_not() {
    let victim = DestAddr(0x0a00_0007);
    let per_router = 400u32;
    let threshold = 900u64; // above any single router's slice
    let feeds: Vec<_> = (0..4u32)
        .map(|i| {
            let mut d =
                TrafficDriver::new(u64::from(i)).with_source_base(0x2000_0000 + i * 0x0200_0000);
            d.legitimate_sessions(DestAddr(0x0a00_0008), 200)
                .syn_flood(victim, per_router);
            d.into_segments()
        })
        .collect();
    let config = PipelineConfig {
        sketch: SketchConfig::builder()
            .buckets_per_table(1024)
            .seed(3)
            .build()
            .unwrap(),
        policy: AlarmPolicy {
            absolute_threshold: threshold,
            ..AlarmPolicy::default()
        },
        batch_size: 128,
        evaluate_every: 1_000,
        evaluate_every_ticks: None,
        half_open_timeout: None,
        telemetry: None,
        checkpoint: None,
        ingest_shards: None,
        window: None,
    };
    let report = run_pipeline(feeds, config);
    assert!(report.alarmed_destinations().contains(&victim.0));
    // Sanity: one router's slice alone is under the threshold.
    assert!(u64::from(per_router) < threshold);
}

#[test]
fn attack_that_subsides_stops_dominating() {
    // Flood, then completion of all attack handshakes (e.g., a SYN
    // proxy validating clients): the victim drops out of the top-k.
    let victim = 0x0a00_000au32;
    let steady = 0x0a00_000bu32;
    let mut sketch = TrackingDcs::new(sketch_config(4));
    // Steady background: 300 half-open at another destination.
    for s in 0..300u32 {
        sketch.insert(ddos_streams::SourceAddr(0x7000_0000 + s), DestAddr(steady));
    }
    // Flood arrives…
    for s in 0..2_000u32 {
        sketch.insert(ddos_streams::SourceAddr(s), DestAddr(victim));
    }
    assert_eq!(sketch.track_top_k(1, 0.25).entries[0].group, victim);
    // …and is fully discounted.
    for s in 0..2_000u32 {
        sketch.delete(ddos_streams::SourceAddr(s), DestAddr(victim));
    }
    let top = sketch.track_top_k(1, 0.25);
    assert_eq!(top.entries[0].group, steady);
}

#[test]
fn timeout_based_discounting_keeps_long_streams_bounded() {
    // With a half-open timeout at the router, stale attack state decays:
    // the tracker's live-flow table stays bounded by attack rate ×
    // timeout, not by total attack volume.
    let victim = DestAddr(0x0a00_000c);
    let mut router = ddos_streams::EdgeRouter::new(1, Some(50));
    for wave in 0..20u32 {
        for s in 0..100u32 {
            let src = ddos_streams::SourceAddr(wave * 1_000 + s);
            router.observe(&ddos_streams::TcpSegment::syn(
                src,
                victim,
                u64::from(wave) * 100,
            ));
        }
    }
    // Live flows bounded well below the 2000 total observed.
    assert!(router.tracker().live_flows() <= 300);
    let updates = router.drain_exports();
    let net: i64 = updates.iter().map(|u| u.delta.signum()).sum();
    assert_eq!(net as usize, router.tracker().half_open_flows());
}

/// Everything one `run_pipeline` router thread exports for `feed`, in
/// order: observed segments, then the shutdown timeout flush.
fn router_exports(feed: &[TcpSegment], half_open_timeout: Option<u64>) -> Vec<FlowUpdate> {
    let mut router = EdgeRouter::new(0, half_open_timeout);
    router.observe_all(feed);
    let last_ts = feed.last().map_or(0, |s| s.timestamp);
    router.flush_expired(last_ts.saturating_add(1_000_000));
    router.drain_exports()
}

/// The reference monitor: a single-threaded [`DdosMonitor`] over an
/// incrementally maintained [`TrackingDcs`], judged at every
/// `evaluate_every` boundary and once more at the end, as the pipeline
/// does. Windowed configurations slide an [`EpochWindow`] over the
/// tracking sketch's counters and judge the windowed top-k.
fn tracking_replay(updates: &[FlowUpdate], config: &PipelineConfig) -> Vec<Alarm> {
    let mut monitor = DdosMonitor::new(config.sketch.clone(), config.policy.clone());
    let mut window = config
        .window
        .clone()
        .map(|policy| EpochWindow::new(config.sketch.clone(), policy).unwrap());
    let (k, epsilon) = (config.policy.watch_top_k, config.policy.epsilon);
    let mut judge = |monitor: &mut DdosMonitor| match &mut window {
        Some(w) => {
            w.advance(monitor.sketch().sketch()).unwrap();
            monitor.evaluate_top(&w.top_k(k, epsilon))
        }
        None => monitor.evaluate(),
    };
    let every = usize::try_from(config.evaluate_every).unwrap();
    let mut alarms = Vec::new();
    for chunk in updates.chunks(every) {
        monitor.ingest_batch(chunk);
        if chunk.len() == every {
            alarms.extend(judge(&mut monitor));
        }
    }
    alarms.extend(judge(&mut monitor));
    alarms
}

#[test]
fn pipeline_alarms_equal_a_tracking_replay_in_every_mode() {
    let victim = DestAddr(0x0a00_0010);
    let crowd = DestAddr(0x0a00_0011);
    let mut driver = TrafficDriver::new(77);
    driver
        .legitimate_sessions(DestAddr(0x0a00_0012), 300)
        .syn_flood(victim, 1_200)
        .flash_crowd(crowd, 1_500)
        .port_scan(SourceAddr(0x0b00_0001), DestAddr(0x0c00_0000), 400);
    // A quiet gap longer than the half-open timeout: the first flood's
    // SYNs expire (exported as -1) before the second wave arrives.
    driver.advance_clock(1_000);
    driver
        .syn_flood(victim, 900)
        .legitimate_sessions(crowd, 400);
    let feed = driver.into_segments();
    let base = PipelineConfig {
        sketch: SketchConfig::builder()
            .buckets_per_table(512)
            .seed(17)
            .build()
            .unwrap(),
        policy: AlarmPolicy {
            absolute_threshold: 500,
            ..AlarmPolicy::default()
        },
        batch_size: 96,
        evaluate_every: 400,
        half_open_timeout: Some(300),
        ..PipelineConfig::default()
    };
    let updates = router_exports(&feed, base.half_open_timeout);
    assert!(
        updates.iter().any(|u| u.delta.signum() < 0),
        "the feed exercises deletes"
    );
    // Each mode's absolute threshold. A tumbling epoch holds only
    // `evaluate_every` = 400 updates, and the decayed window weighs the
    // older two epochs down, so neither ever sees 500 of the flood's
    // sources; they judge against 200 so that their alarm lists are not
    // empty.
    let modes = [
        ("direct", None, None, 500),
        (
            "sliding",
            None,
            Some(WindowPolicy::Sliding { epochs: 3 }),
            500,
        ),
        ("sharded", Some(2), None, 500),
        (
            "sharded-sliding",
            Some(2),
            Some(WindowPolicy::Sliding { epochs: 3 }),
            500,
        ),
        ("tumbling", None, Some(WindowPolicy::Tumbling), 200),
        (
            "decayed",
            None,
            Some(WindowPolicy::Decayed {
                epochs: 3,
                lambda: 0.5,
            }),
            200,
        ),
    ];
    for (name, ingest_shards, window, absolute_threshold) in modes {
        let config = PipelineConfig {
            ingest_shards,
            window,
            policy: AlarmPolicy {
                absolute_threshold,
                ..base.policy.clone()
            },
            ..base.clone()
        };
        let report = run_pipeline(vec![feed.clone()], config.clone());
        assert_eq!(report.updates_ingested, updates.len() as u64, "{name}");
        let expected = tracking_replay(&updates, &config);
        assert!(
            expected.iter().any(|a| a.dest == victim.0),
            "{name}: the reference catches the flood"
        );
        assert_eq!(report.alarms, expected, "{name}: alarm lists differ");
        assert_one_tick_per_judgment(&report);
    }
}

/// A tick-cadence configuration: judged every `every_ticks` ticks of
/// traffic time, absolute threshold `threshold`.
fn tick_config(threshold: u64, every_ticks: u64) -> PipelineConfig {
    PipelineConfig {
        sketch: sketch_config(5),
        policy: AlarmPolicy {
            absolute_threshold: threshold,
            ..AlarmPolicy::default()
        },
        evaluate_every_ticks: Some(every_ticks),
        ..PipelineConfig::default()
    }
}

/// Asserts that `judged_at` holds one tick per judgment, non-decreasing.
fn assert_one_tick_per_judgment(report: &DetectionReport) {
    assert_eq!(report.judged_at.len() as u64, report.monitor.evaluations());
    assert!(
        report.judged_at.windows(2).all(|w| w[0] <= w[1]),
        "{:?}",
        report.judged_at
    );
}

#[test]
fn detection_happens_during_the_attack_not_after() {
    // Calm traffic for 1000 ticks, then a flood spread over ~100
    // ticks; detection latency must be within the attack window
    // (plus one evaluation period).
    let victim = DestAddr(0x0a00_0001);
    let mut driver = TrafficDriver::new(1);
    for _ in 0..10 {
        driver.legitimate_sessions(DestAddr(0x0b00_0001), 50);
        driver.advance_clock(100);
    }
    let attack_start = 1_000u64;
    driver.syn_flood(victim, 2_000);
    let report = run_pipeline(vec![driver.into_segments()], tick_config(400, 20));
    let first = report.first_alarm_at(victim.0).expect("attack detected");
    // No alarm precedes the attack.
    assert!(first >= attack_start, "alarm at {first}");
    let latency = first - attack_start;
    assert!(latency <= 120, "latency {latency} ticks");
    assert_one_tick_per_judgment(&report);
}

#[test]
fn calm_run_raises_no_alarms() {
    let mut driver = TrafficDriver::new(2);
    driver.legitimate_sessions(DestAddr(1), 500);
    let report = run_pipeline(vec![driver.into_segments()], tick_config(100, 10));
    assert!(report.alarms.is_empty());
    assert!(report.alarmed_destinations().is_empty());
    // The final judgment stands at the feed's last tick.
    assert!(report.judged_at.last().is_some_and(|&end| end > 0));
}

#[test]
fn faster_attacks_are_detected_sooner() {
    let victim = DestAddr(0x0a00_0002);
    let latency_for = |sources: u32, seed: u64| -> u64 {
        // Attack spread over ~100 ticks at `sources` total.
        let mut driver = TrafficDriver::new(seed);
        driver.legitimate_sessions(DestAddr(0x0b00_0001), 100);
        driver.advance_clock(200);
        driver.syn_flood(victim, sources);
        let report = run_pipeline(vec![driver.into_segments()], tick_config(300, 5));
        let first = report.first_alarm_at(victim.0).expect("detected");
        first.saturating_sub(200)
    };
    let slow = latency_for(400, 3); // barely over threshold
    let fast = latency_for(4_000, 3); // 10x the rate
    assert!(
        fast < slow,
        "fast attack latency {fast} should beat slow {slow}"
    );
}

/// One SYN from a fresh source to `dest` per timestamp.
fn syns(dest: DestAddr, timestamps: &[u64]) -> Vec<TcpSegment> {
    timestamps
        .iter()
        .zip(1u32..)
        .map(|(&ts, source)| TcpSegment::syn(SourceAddr(source), dest, ts))
        .collect()
}

#[test]
fn a_jump_in_time_judges_every_boundary_it_crosses() {
    let mut timestamps = vec![5; 50];
    timestamps.push(105);
    let report = run_pipeline(vec![syns(DestAddr(7), &timestamps)], tick_config(20, 10));
    let boundaries: Vec<u64> = (1..=10).map(|b| b * 10).collect();
    assert_eq!(report.judged_at[..10], boundaries[..]);
    // Then the final judgment, at the feed's last tick.
    assert_eq!(report.judged_at[10..], [105]);
    assert_one_tick_per_judgment(&report);
    // The first boundary already judges the 50 SYNs before it.
    assert_eq!(report.first_alarm_at(7), Some(10));
    assert_eq!(report.updates_ingested, 51);
}

#[test]
fn a_late_segment_judges_no_boundary_twice() {
    let feed = syns(DestAddr(7), &[0, 25, 12, 31]);
    let report = run_pipeline(vec![feed], tick_config(100, 10));
    assert_eq!(report.judged_at, [10, 20, 30, 31]);
    assert_one_tick_per_judgment(&report);
    assert_eq!(report.updates_ingested, 4, "the late SYN is still counted");
}

#[test]
#[should_panic(expected = "tick cadence takes a single router feed")]
fn tick_cadence_over_two_feeds_panics() {
    let feed = syns(DestAddr(7), &[0, 15]);
    run_pipeline(vec![feed.clone(), feed], tick_config(100, 10));
}
