//! Distribution plumbing: sketch merging across sites and trace
//! serialization round-trips.

use ddos_streams::streamgen::{decode_trace, encode_trace};
use ddos_streams::{DistinctCountSketch, ScenarioBuilder, SketchConfig, SketchError, TrackingDcs};

fn config(seed: u64) -> SketchConfig {
    SketchConfig::builder()
        .buckets_per_table(256)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn merged_sketches_equal_union_stream() {
    let parts: Vec<_> = (0..4u64)
        .map(|i| {
            ScenarioBuilder::new(i)
                .source_base(0x6000_0000 + i as u32 * 0x0100_0000)
                .background(2_000, 50, 0.85)
                .syn_flood(0x0a00_0001, 500)
                .build()
        })
        .collect();

    let mut union = TrackingDcs::new(config(9));
    let mut merged = TrackingDcs::new(config(9));
    let mut first = true;
    for part in &parts {
        let mut local = TrackingDcs::new(config(9));
        for u in part.updates() {
            local.update(*u);
            union.update(*u);
        }
        if first {
            merged = local;
            first = false;
        } else {
            merged.merge_from(&local).unwrap();
        }
    }
    assert_eq!(merged.track_top_k(10, 0.25), union.track_top_k(10, 0.25));
    assert_eq!(
        merged.estimate_distinct_pairs(0.25),
        union.estimate_distinct_pairs(0.25)
    );
    merged.check_tracking_invariants().unwrap();
}

#[test]
fn merge_is_order_independent() {
    let a_stream = ScenarioBuilder::new(1).syn_flood(1, 300).build();
    let b_stream = ScenarioBuilder::new(2)
        .source_base(0x7000_0000)
        .syn_flood(2, 300)
        .build();
    let build = |updates: &[ddos_streams::FlowUpdate]| {
        let mut s = DistinctCountSketch::new(config(4));
        for u in updates {
            s.update(*u);
        }
        s
    };
    let mut ab = build(a_stream.updates());
    ab.merge_from(&build(b_stream.updates())).unwrap();
    let mut ba = build(b_stream.updates());
    ba.merge_from(&build(a_stream.updates())).unwrap();
    assert_eq!(ab.estimate_top_k(5, 0.25), ba.estimate_top_k(5, 0.25));
}

#[test]
fn merge_refuses_mismatched_configs() {
    let mut a = DistinctCountSketch::new(config(1));
    let b = DistinctCountSketch::new(config(2));
    assert!(matches!(
        a.merge_from(&b),
        Err(SketchError::IncompatibleMerge { .. })
    ));
    let c = DistinctCountSketch::new(
        SketchConfig::builder()
            .buckets_per_table(512)
            .seed(1)
            .build()
            .unwrap(),
    );
    assert!(a.merge_from(&c).is_err());
}

#[test]
fn trace_roundtrip_preserves_sketch_state() {
    let scenario = ScenarioBuilder::new(5)
        .background(3_000, 40, 0.9)
        .syn_flood(0x0a00_0005, 700)
        .build();

    let encoded = encode_trace(scenario.updates());
    let decoded = decode_trace(&encoded).unwrap();
    assert_eq!(decoded, scenario.updates());

    let mut original = TrackingDcs::new(config(5));
    let mut replayed = TrackingDcs::new(config(5));
    for u in scenario.updates() {
        original.update(*u);
    }
    for u in &decoded {
        replayed.update(*u);
    }
    assert_eq!(
        original.track_top_k(10, 0.25),
        replayed.track_top_k(10, 0.25)
    );
}

#[test]
fn trace_file_roundtrip() {
    let scenario = ScenarioBuilder::new(6).syn_flood(9, 100).build();
    let encoded = encode_trace(scenario.updates());
    let dir = std::env::temp_dir().join("dcs-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.dcs");
    std::fs::write(&path, &encoded).unwrap();
    let read_back = std::fs::read(&path).unwrap();
    assert_eq!(decode_trace(&read_back).unwrap(), scenario.updates());
    std::fs::remove_file(&path).ok();
}
