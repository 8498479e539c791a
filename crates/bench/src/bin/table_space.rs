//! The §6.1 space analysis: sketch storage vs the brute-force scheme.
//!
//! The paper's in-text numbers: at `U = 8M`, the Basic sketch is ≈2.3 MB
//! (65 four-byte counters per bucket), Tracking ≈2× Basic, and brute
//! force ≈96 MB. At `U = 10⁹` the sketch grows ≈1.3×
//! while brute force grows 125× (≥3 orders of magnitude advantage).
//!
//! This binary *measures* allocated bytes for sizes that fit in memory
//! and prints them beside the paper's §6.1 formula (65 four-byte
//! counters per bucket) and the same formula at this sketch's 28 bytes
//! per bucket, which also gives the 10⁹ extrapolation.
//!
//! Run: `cargo run -p dcs-bench --release --bin table_space [--scale full]`

use dcs_baselines::ExactDistinctTracker;
use dcs_bench::{emit_record, emit_telemetry, Scale};
use dcs_core::{
    brute_force_bytes, paper_sketch_bytes, predicted_sketch_bytes, DistinctCountSketch, GroupBy,
    SketchConfig, TrackingDcs,
};
use dcs_metrics::{ExperimentRecord, Table};
use dcs_streamgen::{PaperWorkload, WorkloadConfig};

fn mb(bytes: u64) -> String {
    format!("{:.2} MB", bytes as f64 / 1e6)
}

/// How many times smaller than brute force the basic sketch is (the
/// measured sketch where there is one, else the predicted one).
fn gain(brute: u64, basic: u64) -> String {
    format!("{:.0}x", brute as f64 / basic as f64)
}

fn main() {
    let scale = Scale::from_args();
    // Measured sizes, ascending; full scale adds the paper's 8M point.
    let measured_sizes: &[u64] = match scale {
        Scale::Quick => &[100_000, 400_000, 1_000_000],
        Scale::Full => &[100_000, 1_000_000, 8_000_000],
    };
    println!(
        "§6.1 space analysis — scale {} (r = 3, s = 128)",
        scale.label()
    );

    let config = SketchConfig::builder().seed(3).build().expect("valid");
    let mut table = Table::new(vec![
        "U".into(),
        "basic (measured)".into(),
        "tracking (measured)".into(),
        "brute force".into(),
        "paper §6.1".into(),
        "predicted sketch".into(),
        "brute vs basic".into(),
    ]);
    let mut series_u = Vec::new();
    let mut series_basic = Vec::new();
    let mut series_tracking = Vec::new();
    let mut series_brute = Vec::new();
    let mut telemetry = Vec::new();

    for &u in measured_sizes {
        let workload = PaperWorkload::generate(WorkloadConfig {
            distinct_pairs: u,
            num_destinations: (u / 160).max(10) as u32,
            skew: 1.0,
            seed: 3,
        });
        let mut basic = DistinctCountSketch::new(config.clone());
        let mut tracking = TrackingDcs::new(config.clone());
        let mut exact = ExactDistinctTracker::new(GroupBy::Destination);
        for update in workload.updates() {
            basic.update(*update);
            tracking.update(*update);
            exact.update(*update);
        }
        let basic_bytes = basic.heap_bytes() as u64;
        let tracking_bytes = tracking.heap_bytes() as u64;
        let brute = brute_force_bytes(u);
        let predicted = predicted_sketch_bytes(&config, u);
        table.row(vec![
            u.to_string(),
            mb(basic_bytes),
            mb(tracking_bytes),
            mb(brute),
            mb(paper_sketch_bytes(&config, u)),
            mb(predicted),
            gain(brute, basic_bytes),
        ]);
        series_u.push(u as f64);
        series_basic.push(basic_bytes as f64);
        series_tracking.push(tracking_bytes as f64);
        series_brute.push(brute as f64);
        telemetry.push(tracking.telemetry_snapshot(&format!("table_space_u{u}")));
        // Sanity note comparing the exact tracker's real allocation.
        println!(
            "U = {:>9}: exact tracker actually allocates {} (12-byte accounting: {})",
            u,
            mb(exact.heap_bytes() as u64),
            mb(brute)
        );
    }

    // The paper's 10⁹ extrapolation (predicted only).
    let u_big = 1_000_000_000u64;
    let predicted_big = predicted_sketch_bytes(&config, u_big);
    table.row(vec![
        u_big.to_string(),
        "-".into(),
        "-".into(),
        mb(brute_force_bytes(u_big)),
        mb(paper_sketch_bytes(&config, u_big)),
        mb(predicted_big),
        gain(brute_force_bytes(u_big), predicted_big),
    ]);

    println!("\n§6.1 space comparison:");
    print!("{}", table.render());

    let record = ExperimentRecord::new("table_space")
        .parameter("scale", scale.label())
        .parameter("r", 3)
        .parameter("s", 128)
        .with_series("u", series_u)
        .with_series("basic_bytes", series_basic)
        .with_series("tracking_bytes", series_tracking)
        .with_series("brute_force_bytes", series_brute);
    if let Some(path) = emit_record(&record) {
        println!("wrote {}", path.display());
        if let Some(sidecar) = emit_telemetry(&path, &telemetry) {
            println!("wrote {}", sidecar.display());
        }
    }
}
