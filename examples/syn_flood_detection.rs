//! End-to-end SYN-flood detection: packets → edge routers → flow
//! updates → central monitor → alarms.
//!
//! Three edge routers each observe a mix of legitimate sessions and a
//! slice of a distributed SYN flood aimed at one victim. Each router
//! converts its packet feed into `(source, dest, ±1)` updates with a
//! handshake state machine; the central monitor aggregates all three
//! streams into one Tracking Distinct-Count Sketch and raises alarms.
//!
//! Run: `cargo run --release --example syn_flood_detection`

use ddos_streams::netsim::{run_pipeline, PipelineConfig, TrafficDriver};
use ddos_streams::{AlarmPolicy, DestAddr, SketchConfig};

fn main() {
    let victim = DestAddr(0x0a00_0009); // 10.0.0.9
    let web_server = DestAddr(0x0a00_0050); // 10.0.0.80, busy but honest

    // Each router sees 1/3 of the distributed flood plus local traffic.
    let feeds: Vec<_> = (0..3u32)
        .map(|router| {
            let mut driver = TrafficDriver::new(1000 + u64::from(router))
                .with_source_base(0x2000_0000 + router * 0x0400_0000);
            driver
                .legitimate_sessions(web_server, 800)
                .syn_flood(victim, 1_500)
                .advance_clock(500)
                .legitimate_sessions(web_server, 800);
            driver.into_segments()
        })
        .collect();

    let config = PipelineConfig {
        sketch: SketchConfig::builder()
            .buckets_per_table(512)
            .seed(7)
            .build()
            .expect("valid config"),
        policy: AlarmPolicy {
            absolute_threshold: 1_000,
            ..AlarmPolicy::default()
        },
        batch_size: 512,
        evaluate_every: 2_000,
        evaluate_every_ticks: None,
        half_open_timeout: None,
        telemetry: None,
        checkpoint: None,
        ingest_shards: None,
        window: None,
    };

    let report = run_pipeline(feeds, config);

    println!(
        "processed {} segments across 3 routers → {} flow updates",
        report.segments_observed, report.updates_ingested
    );
    println!("alarms raised: {}", report.alarms.len());
    for alarm in report.alarms.iter().take(5) {
        println!(
            "  eval #{}: {} ≈ {} distinct half-open sources ({:?})",
            alarm.evaluation,
            DestAddr(alarm.dest),
            alarm.estimated_frequency,
            alarm.reason,
        );
    }

    let alarmed = report.alarmed_destinations();
    assert!(
        alarmed.contains(&victim.0),
        "distributed flood (4500 sources total) must be detected"
    );
    assert!(
        !alarmed.contains(&web_server.0),
        "the busy-but-honest web server must not be flagged"
    );

    let top = report.monitor.top_k(3);
    println!("\nfinal top destinations by half-open distinct sources:");
    for e in &top.entries {
        println!("  {} ≈ {}", DestAddr(e.group), e.estimated_frequency);
    }
    println!("\nOK: victim detected, legitimate server untouched.");
}
