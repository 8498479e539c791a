//! Windowed surge detection: a tumbling epoch window over a phased
//! timeline, including a low-rate pulse attack.
//!
//! Two things the plain all-time sketch cannot do on its own:
//!
//! 1. Spot a *surge* at a destination whose all-time total is
//!    unremarkable — solved by judging the last closed epoch alone,
//!    whose delta sketch is the cumulative sketch minus its state at
//!    the epoch's start (sketches are linear).
//! 2. Catch a Kuzmanovic–Knightly-style low-rate *pulse* attack whose
//!    long-run average is tiny — epochs shorter than the pulse period
//!    show the spike that coarse averages hide.
//!
//! Run: `cargo run --release --example surge_detection`

use ddos_streams::netsim::window::WindowPolicy;
use ddos_streams::netsim::Monitor;
use ddos_streams::streamgen::timeline::TimelineBuilder;
use ddos_streams::{AlarmPolicy, DestAddr, SketchConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let steady_heavy = 0x0a00_0001u32; // always-busy destination
    let surge_victim = 0x0a00_0002u32; // quiet, then attacked
    let pulse_victim = 0x0a00_0003u32; // low-rate pulsed

    // 10 pulse periods of 100 ticks each. The surge hits in the final
    // period; the pulse attack fires one 5-tick burst per period and
    // tears it down at the period's end.
    let timeline = TimelineBuilder::new(11)
        .steady_background(900, 20, 8, 0.92)
        .plateau_flood(surge_victim, 100, 12) // 1200 sources, final period
        .build();
    // The pulse attack runs concurrently; build it separately and merge
    // by tick so its periods align with the surge's.
    let pulses = TimelineBuilder::new(12)
        .pulse_attack(pulse_victim, 10, 100, 5, 300)
        .build();
    // The steady-heavy destination accumulates 200 half-open flows per
    // period throughout (unanswered probes at a popular server).
    let chatter = TimelineBuilder::new(13)
        .plateau_flood(steady_heavy, 1_000, 2)
        .build();

    let mut all: Vec<_> = timeline
        .updates()
        .iter()
        .chain(pulses.updates())
        .chain(chatter.updates())
        .copied()
        .collect();
    all.sort_by_key(|t| t.at);

    let config = SketchConfig::builder()
        .buckets_per_table(1024)
        .seed(99)
        .build()?;
    let mut monitor = Monitor::new(config, AlarmPolicy::default(), Some(WindowPolicy::Tumbling))?;

    // Epochs of half a pulse period: a pulse burst is alive in the
    // first half of its period and torn down by its end, so a window
    // that closed only at period boundaries would always miss it.
    let epoch_ticks = 50u64;
    let mut next_rotation = epoch_ticks;
    let mut pulse_caught_in_window = false;
    let mut open_epoch = Vec::new();

    for timed in &all {
        while timed.at >= next_rotation {
            monitor.ingest(&open_epoch);
            open_epoch.clear();
            monitor.evaluate()?;
            let recent = monitor.top_k(3)?;
            if recent.frequency_of(pulse_victim).unwrap_or(0) >= 150 {
                pulse_caught_in_window = true;
            }
            next_rotation += epoch_ticks;
        }
        open_epoch.push(timed.update);
    }
    // Close the last epoch, which the surge fills.
    monitor.ingest(&open_epoch);
    monitor.evaluate()?;

    let epsilon = monitor.policy().epsilon;
    let all_time = monitor.cumulative()?.estimate_top_k(3, epsilon);
    let last_window = monitor.top_k(3)?;

    println!("all-time top destinations:");
    for e in &all_time.entries {
        println!("  {} ≈ {}", DestAddr(e.group), e.estimated_frequency);
    }
    println!("\nlast-epoch window top destinations:");
    for e in &last_window.entries {
        println!("  {} ≈ {}", DestAddr(e.group), e.estimated_frequency);
    }

    // The windowed view ranks the fresh surge first…
    assert_eq!(last_window.entries[0].group, surge_victim);
    // …and the steady-heavy destination tops the all-time view.
    assert_eq!(all_time.entries[0].group, steady_heavy);
    // The pulse attack was visible inside at least one epoch window.
    assert!(pulse_caught_in_window, "pulse attack went unnoticed");
    // Yet its long-run residue is ~zero (bursts tear down):
    let residue = monitor
        .cumulative()?
        .estimate_top_k(10, epsilon)
        .frequency_of(pulse_victim)
        .unwrap_or(0);
    println!("\npulse victim: caught in-window, all-time residue ≈ {residue} (true residue 0)");

    println!("\nOK: surge and pulse both surfaced by windows the all-time view hides.");
    Ok(())
}
