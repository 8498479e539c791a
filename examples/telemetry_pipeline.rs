//! CI telemetry scenario: run one small netsim pipeline with a JSONL
//! telemetry sidecar and validate every emitted line against the
//! documented schema (DESIGN.md §10).
//!
//! Exits nonzero if the pipeline misses the attack, the sidecar is
//! missing/empty, any line fails [`ddos_streams::telemetry::validate_line`],
//! or the final snapshot lacks the ingest sketch's update-latency and
//! batch-size summaries.
//!
//! Run: `cargo run --example telemetry_pipeline`

use ddos_streams::netsim::{run_pipeline, PipelineConfig, TelemetrySidecar, TrafficDriver};
use ddos_streams::{DestAddr, SketchConfig};

fn main() {
    let victim = DestAddr(0x0a00_0042);
    let mut driver = TrafficDriver::new(42);
    driver.legitimate_sessions(DestAddr(0x0a00_0001), 200);
    driver.syn_flood(victim, 2_000);

    let sidecar_path =
        std::env::temp_dir().join(format!("dcs_ci_telemetry_{}.jsonl", std::process::id()));
    let mut config = PipelineConfig {
        sketch: SketchConfig::builder()
            .buckets_per_table(512)
            .seed(42)
            .build()
            .expect("valid config"),
        ..PipelineConfig::default()
    };
    config.evaluate_every = 1_000;
    config.telemetry = Some(TelemetrySidecar {
        path: sidecar_path.clone(),
        every: 1_000,
    });

    let report = run_pipeline(vec![driver.into_segments()], config);
    if !report.alarmed_destinations().contains(&victim.0) {
        eprintln!("FAIL: pipeline did not alarm on the flooded destination");
        std::process::exit(1);
    }

    let contents = match std::fs::read_to_string(&sidecar_path) {
        Ok(contents) => contents,
        Err(e) => {
            eprintln!("FAIL: sidecar {} unreadable: {e}", sidecar_path.display());
            std::process::exit(1);
        }
    };
    let _ = std::fs::remove_file(&sidecar_path);

    let lines: Vec<&str> = contents.lines().collect();
    if lines.len() < 2 {
        eprintln!(
            "FAIL: expected periodic + final snapshots, got {} line(s)",
            lines.len()
        );
        std::process::exit(1);
    }
    for (i, line) in lines.iter().enumerate() {
        if let Err(violation) = ddos_streams::telemetry::validate_line(line) {
            eprintln!("FAIL: sidecar line {i} violates the schema: {violation}");
            eprintln!("  {line}");
            std::process::exit(1);
        }
    }

    let last = lines[lines.len() - 1];
    if !last.contains("\"label\":\"pipeline_final\"") {
        eprintln!("FAIL: final snapshot missing (last line: {last})");
        std::process::exit(1);
    }

    // The final snapshot must carry the ingest sketch's update-latency
    // and batch-size summaries.
    if last.contains("\"update_latency\":null") || last.contains("\"batch_size\":null") {
        eprintln!("FAIL: hot-path data missing from the final snapshot: {last}");
        std::process::exit(1);
    }

    println!(
        "ok: {} snapshots validated, {} alarms, {} updates",
        lines.len(),
        report.alarms.len(),
        report.updates_ingested
    );
}
