//! Extension experiment: end-to-end detection quality vs attack size,
//! for three detector families fed the *same packet streams*:
//!
//! * the paper's sketch-backed monitor (distinct half-open sources per
//!   destination, absolute threshold) — detects *and names the victim*;
//! * Wang et al.'s aggregate SYN−FIN CUSUM — detects that *something*
//!   is happening, names nobody;
//! * Estan–Varghese sample-and-hold over bytes — ranks by volume, and
//!   SYN floods carry almost no bytes.
//!
//! This operationalizes the paper's §1 robustness argument as a
//! measured detection-rate table.
//!
//! Run: `cargo run -p dcs-bench --release --bin detection_quality`

use dcs_baselines::synfin::{IntervalCounts, SynFinCusum};
use dcs_baselines::SampleAndHold;
use dcs_bench::{emit_record, emit_telemetry, SEEDS};
use dcs_core::{DestAddr, SketchConfig};
use dcs_metrics::{ExperimentRecord, Table};
use dcs_netsim::{AlarmPolicy, HandshakeTracker, Monitor, TrafficDriver, WindowPolicy};
use dcs_streamgen::TimelineBuilder;
use dcs_telemetry::TelemetrySnapshot;

const ATTACK_SIZES: [u32; 7] = [0, 50, 100, 200, 400, 800, 1600];
const ALARM_THRESHOLD: u64 = 150;
const CUSUM_INTERVAL: u64 = 100;

struct Outcome {
    dcs_names_victim: bool,
    dcs_false_alarm: bool,
    cusum_fires: bool,
    volume_names_victim: bool,
    telemetry: TelemetrySnapshot,
}

fn run_once(attack_sources: u32, seed: u64) -> Outcome {
    let victim = DestAddr(0x0a00_0001);

    // One packet feed: ten 100-tick rounds of continuous background
    // over 30 busy servers (complete handshakes + bulk data), then the
    // attack concurrent with one more background round.
    let mut driver = TrafficDriver::new(seed);
    for _round in 0..10 {
        for server in 0..30u32 {
            driver.legitimate_sessions(DestAddr(0x0b00_0000 + server), 3);
        }
        driver.advance_clock(100);
    }
    if attack_sources > 0 {
        driver.syn_flood(victim, attack_sources);
    }
    for server in 0..30u32 {
        driver.legitimate_sessions(DestAddr(0x0b00_0000 + server), 3);
    }
    let segments = driver.into_segments();

    // Detector 1: sketch monitor over handshake-derived updates.
    let mut tracker = HandshakeTracker::new(None);
    let mut monitor = Monitor::new(
        SketchConfig::builder()
            .buckets_per_table(1024)
            .seed(seed)
            .build()
            .expect("valid"),
        AlarmPolicy {
            absolute_threshold: ALARM_THRESHOLD,
            ..AlarmPolicy::default()
        },
        None,
    )
    .expect("all-time monitor");
    let mut updates = Vec::new();
    // Detector 2: aggregate SYN−FIN CUSUM over fixed intervals, with a
    // training period covering the calm phase.
    let mut cusum = SynFinCusum::new(1.0, 6.0, 0.2).with_warmup(8);
    let mut cusum_fires = false;
    let mut interval_end = CUSUM_INTERVAL;
    let mut counts = IntervalCounts::default();
    // Detector 3: byte-sampled flow table (40 header bytes per control
    // packet so the flood is at least *countable*).
    let mut volume = SampleAndHold::new(0.0005, 4096, seed);

    for segment in &segments {
        updates.extend(tracker.observe(segment));
        while segment.timestamp >= interval_end {
            cusum_fires |= cusum.observe(counts);
            counts = IntervalCounts::default();
            interval_end += CUSUM_INTERVAL;
        }
        if segment.flags.is_syn_only() {
            counts.syns += 1;
        }
        if segment.flags.contains(dcs_netsim::TcpFlags::FIN)
            || segment.flags.contains(dcs_netsim::TcpFlags::RST)
        {
            counts.fins += 1;
        }
        volume.observe(u64::from(segment.dst.0), segment.payload_len + 40);
    }
    cusum_fires |= cusum.observe(counts);

    monitor.ingest(&updates);
    let alarms = monitor.evaluate().expect("one direct sketch");
    let dcs_names_victim = alarms.iter().any(|a| a.dest == victim.0);
    let dcs_false_alarm = alarms.iter().any(|a| a.dest != victim.0);
    let volume_names_victim = volume
        .top_k(3)
        .iter()
        .any(|&(d, _)| d == u64::from(victim.0));

    Outcome {
        dcs_names_victim,
        dcs_false_alarm,
        cusum_fires,
        volume_names_victim,
        telemetry: monitor.telemetry_snapshot(&format!("detection_quality_a{attack_sources}")),
    }
}

/// Pulse-wave case (window-shape sensitivity): bursts of
/// `PULSE_SOURCES` distinct sources, phased to straddle every coarse
/// interval boundary and torn down before the next one. A tumbling
/// window averages each burst across two windows and stays below the
/// threshold; a sliding window of the same total span contains whole
/// bursts and fires.
const PULSE_SOURCES: u32 = 400;
const PULSE_THRESHOLD: u64 = 300;
const PULSE_EPOCH_TICKS: u64 = 10;
const PULSE_WINDOW_EPOCHS: usize = 3;

struct PulseOutcome {
    tumbling_fires: bool,
    sliding_names_victim: bool,
    sliding_false_alarm: bool,
}

fn run_pulse_wave(seed: u64) -> PulseOutcome {
    let victim = 0x0a00_0063u32;
    let timeline = TimelineBuilder::new(seed)
        .steady_background(60, 15, 8, 0.9)
        .quiet(25)
        .pulse_attack(victim, 3, 60, PULSE_EPOCH_TICKS, PULSE_SOURCES)
        .build();
    let intervals = timeline.intervals(PULSE_EPOCH_TICKS);

    let run = |policy: WindowPolicy, rotate_every: usize| -> Vec<u32> {
        let mut monitor = Monitor::new(
            SketchConfig::builder()
                .buckets_per_table(4096)
                .seed(seed)
                .build()
                .expect("valid"),
            AlarmPolicy {
                absolute_threshold: PULSE_THRESHOLD,
                min_frequency_for_ratio: u64::MAX,
                ..AlarmPolicy::default()
            },
            Some(policy),
        )
        .expect("valid window policy");
        let mut alarmed = Vec::new();
        for (i, chunk) in intervals.iter().enumerate() {
            monitor.ingest(chunk);
            if (i + 1) % rotate_every == 0 {
                let alarms = monitor.evaluate().expect("one direct sketch");
                alarmed.extend(alarms.iter().map(|a| a.dest));
            }
        }
        alarmed
    };

    let tumbling = run(WindowPolicy::Tumbling, PULSE_WINDOW_EPOCHS);
    let sliding = run(
        WindowPolicy::Sliding {
            epochs: PULSE_WINDOW_EPOCHS,
        },
        1,
    );
    PulseOutcome {
        tumbling_fires: !tumbling.is_empty(),
        sliding_names_victim: sliding.contains(&victim),
        sliding_false_alarm: sliding.iter().any(|&d| d != victim),
    }
}

fn main() {
    println!(
        "Detection quality vs attack size — alarm threshold {ALARM_THRESHOLD} distinct sources, {} seeds",
        SEEDS.len()
    );
    let mut table = Table::new(vec![
        "attack sources".into(),
        "DCS names victim".into(),
        "DCS false alarm".into(),
        "CUSUM fires".into(),
        "volume names victim".into(),
    ]);
    let mut rec = ExperimentRecord::new("detection_quality")
        .parameter("threshold", ALARM_THRESHOLD)
        .parameter("seeds", SEEDS.len());
    let (mut s_dcs, mut s_fp, mut s_cusum, mut s_vol) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut telemetry = Vec::new();

    for &size in &ATTACK_SIZES {
        let mut dcs = 0u32;
        let mut fp = 0u32;
        let mut cusum = 0u32;
        let mut vol = 0u32;
        for &seed in &SEEDS {
            let o = run_once(size, seed);
            dcs += u32::from(o.dcs_names_victim);
            fp += u32::from(o.dcs_false_alarm);
            cusum += u32::from(o.cusum_fires);
            vol += u32::from(o.volume_names_victim);
            // One monitor snapshot per attack size (first seed).
            if seed == SEEDS[0] {
                telemetry.push(o.telemetry);
            }
        }
        let n = SEEDS.len() as f64;
        let rates = [
            f64::from(dcs) / n,
            f64::from(fp) / n,
            f64::from(cusum) / n,
            f64::from(vol) / n,
        ];
        println!(
            "attack {size:>5}: DCS {:.2}, FP {:.2}, CUSUM {:.2}, volume {:.2}",
            rates[0], rates[1], rates[2], rates[3]
        );
        table.row(vec![
            size.to_string(),
            format!("{:.2}", rates[0]),
            format!("{:.2}", rates[1]),
            format!("{:.2}", rates[2]),
            format!("{:.2}", rates[3]),
        ]);
        s_dcs.push(rates[0]);
        s_fp.push(rates[1]);
        s_cusum.push(rates[2]);
        s_vol.push(rates[3]);
    }

    println!("\nDetection rates (fraction of seeds):");
    print!("{}", table.render());
    println!(
        "\nexpected shape: DCS 0 → 1 as the attack crosses the threshold, with ~0 false \
         alarms; CUSUM eventually fires but names no victim; volume never names the victim."
    );

    // Window-shape sensitivity: the pulse-wave case.
    let (mut p_tumbling, mut p_sliding, mut p_fp) = (0u32, 0u32, 0u32);
    for &seed in &SEEDS {
        let o = run_pulse_wave(seed);
        p_tumbling += u32::from(o.tumbling_fires);
        p_sliding += u32::from(o.sliding_names_victim);
        p_fp += u32::from(o.sliding_false_alarm);
    }
    let n = SEEDS.len() as f64;
    let pulse_rates = [
        f64::from(p_tumbling) / n,
        f64::from(p_sliding) / n,
        f64::from(p_fp) / n,
    ];
    println!(
        "\nPulse wave ({PULSE_SOURCES} sources/burst, threshold {PULSE_THRESHOLD}, \
         {PULSE_WINDOW_EPOCHS}-epoch window): tumbling fires {:.2}, sliding names victim {:.2}, \
         sliding false alarm {:.2}",
        pulse_rates[0], pulse_rates[1], pulse_rates[2]
    );
    println!(
        "expected shape: tumbling ~0 (bursts straddle its boundaries), sliding ~1 with ~0 \
         false alarms."
    );
    rec = rec
        .parameter("attack_sizes", format!("{ATTACK_SIZES:?}"))
        .with_series("dcs_detection", s_dcs)
        .with_series("dcs_false_alarm", s_fp)
        .with_series("cusum_fires", s_cusum)
        .with_series("volume_detection", s_vol)
        .with_series("pulse_tumbling_fires", vec![pulse_rates[0]])
        .with_series("pulse_sliding_detection", vec![pulse_rates[1]])
        .with_series("pulse_sliding_false_alarm", vec![pulse_rates[2]]);
    if let Some(path) = emit_record(&rec) {
        println!("wrote {}", path.display());
        if let Some(sidecar) = emit_telemetry(&path, &telemetry) {
            println!("wrote {}", sidecar.display());
        }
    }
    // The pulse-wave shape holds exactly on the fixed seeds, so it is
    // checked (after the record is written): a run of this binary gates
    // windowed judgment end to end.
    assert_eq!(p_tumbling, 0, "tumbling window fired on the pulse wave");
    assert_eq!(
        p_sliding as usize,
        SEEDS.len(),
        "sliding window missed the pulse-wave victim"
    );
    assert_eq!(p_fp, 0, "sliding window raised a false alarm");
}
