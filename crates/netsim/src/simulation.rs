//! Tick-driven monitoring simulation: packets in, time-stamped alarms
//! out.
//!
//! The paper's title promises *real-time* detection; the measurable
//! form of that promise is **detection latency** — how many ticks pass
//! between an attack's first packet and the monitor's first alarm for
//! the victim. This module wires router, monitor, and clock together
//! so experiments (and the `detection_latency` bench binary) can
//! measure it.

use std::collections::HashMap;

use dcs_core::{SketchConfig, SketchError};

use crate::monitor::{Alarm, AlarmPolicy, Monitor};
use crate::packet::TcpSegment;
use crate::router::EdgeRouter;

/// A time-stamped alarm.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedAlarm {
    /// Simulation tick at which the evaluation raised the alarm.
    pub at: u64,
    /// The alarm itself.
    pub alarm: Alarm,
}

/// Configuration for a monitoring simulation.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Sketch configuration for the monitor.
    pub sketch: SketchConfig,
    /// Alarm policy.
    pub policy: AlarmPolicy,
    /// Evaluate alarms every this many ticks.
    pub evaluate_every_ticks: u64,
    /// Router half-open timeout (`None` disables).
    pub half_open_timeout: Option<u64>,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            sketch: SketchConfig::paper_default(),
            policy: AlarmPolicy::default(),
            evaluate_every_ticks: 50,
            half_open_timeout: None,
        }
    }
}

/// The outcome of a simulation run.
#[derive(Debug)]
pub struct SimulationOutcome {
    /// Every alarm raised, in time order.
    pub alarms: Vec<TimedAlarm>,
    /// Final monitor state.
    pub monitor: Monitor,
    /// Ticks simulated (last segment's timestamp).
    pub end_tick: u64,
}

impl SimulationOutcome {
    /// The tick of the first alarm naming `dest`, if any.
    pub fn first_alarm_for(&self, dest: u32) -> Option<u64> {
        self.alarms
            .iter()
            .find(|t| t.alarm.dest == dest)
            .map(|t| t.at)
    }

    /// Detection latency for `dest` relative to `attack_start`:
    /// `first alarm tick − attack_start`, if detected.
    pub fn detection_latency(&self, dest: u32, attack_start: u64) -> Option<u64> {
        self.first_alarm_for(dest)
            .map(|at| at.saturating_sub(attack_start))
    }

    /// All destinations alarmed at least once, with first-alarm ticks.
    pub fn alarmed(&self) -> HashMap<u32, u64> {
        let mut first: HashMap<u32, u64> = HashMap::new();
        for t in &self.alarms {
            first.entry(t.alarm.dest).or_insert(t.at);
        }
        first
    }
}

/// Runs a monitoring simulation over a time-ordered packet feed.
///
/// Alarm evaluation fires at every `evaluate_every_ticks` boundary the
/// feed crosses, plus once at the end. Each evaluation first ingests
/// the router exports of the interval before it in one batch.
///
/// # Errors
///
/// Propagates [`Monitor::evaluate`]'s error, unreachable all-time.
///
/// # Panics
///
/// Panics if `evaluate_every_ticks` is zero or the feed is not
/// time-ordered.
///
/// # Examples
///
/// ```
/// use dcs_core::DestAddr;
/// use dcs_netsim::simulation::{run_simulation, SimulationConfig};
/// use dcs_netsim::TrafficDriver;
///
/// let mut driver = TrafficDriver::new(1);
/// driver.syn_flood(DestAddr(9), 3_000);
/// let mut config = SimulationConfig::default();
/// config.policy.absolute_threshold = 500;
/// let outcome = run_simulation(&driver.into_segments(), config)?;
/// assert!(outcome.first_alarm_for(9).is_some());
/// # Ok::<(), dcs_core::SketchError>(())
/// ```
pub fn run_simulation(
    segments: &[TcpSegment],
    config: SimulationConfig,
) -> Result<SimulationOutcome, SketchError> {
    assert!(
        config.evaluate_every_ticks > 0,
        "tick interval must be positive"
    );
    let mut router = EdgeRouter::new(0, config.half_open_timeout);
    let mut monitor = Monitor::new(config.sketch, config.policy, None)?;
    let mut alarms = Vec::new();
    let mut next_eval = config.evaluate_every_ticks;
    let mut last_tick = 0u64;
    for segment in segments {
        assert!(segment.timestamp >= last_tick, "feed must be time-ordered");
        last_tick = segment.timestamp;
        while segment.timestamp >= next_eval {
            monitor.ingest(&router.drain_exports());
            alarms.extend(monitor.evaluate()?.into_iter().map(|alarm| TimedAlarm {
                at: next_eval,
                alarm,
            }));
            next_eval += config.evaluate_every_ticks;
        }
        router.observe(segment);
    }
    monitor.ingest(&router.drain_exports());
    alarms.extend(monitor.evaluate()?.into_iter().map(|alarm| TimedAlarm {
        at: last_tick,
        alarm,
    }));
    Ok(SimulationOutcome {
        alarms,
        monitor,
        end_tick: last_tick,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficDriver;
    use dcs_core::DestAddr;

    fn config(threshold: u64, every: u64) -> SimulationConfig {
        SimulationConfig {
            sketch: SketchConfig::builder()
                .buckets_per_table(512)
                .seed(5)
                .build()
                .unwrap(),
            policy: AlarmPolicy {
                absolute_threshold: threshold,
                ..AlarmPolicy::default()
            },
            evaluate_every_ticks: every,
            half_open_timeout: None,
        }
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
        let outcome = run_simulation(&driver.into_segments(), config(400, 20)).unwrap();
        let latency = outcome
            .detection_latency(victim.0, attack_start)
            .expect("attack detected");
        assert!(latency <= 120, "latency {latency} ticks");
        // No alarm precedes the attack.
        assert!(outcome.first_alarm_for(victim.0).unwrap() >= attack_start);
    }

    #[test]
    fn calm_run_raises_no_alarms() {
        let mut driver = TrafficDriver::new(2);
        driver.legitimate_sessions(DestAddr(1), 500);
        let outcome = run_simulation(&driver.into_segments(), config(100, 10)).unwrap();
        assert!(outcome.alarms.is_empty());
        assert!(outcome.alarmed().is_empty());
        assert!(outcome.end_tick > 0);
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
            let outcome = run_simulation(&driver.into_segments(), config(300, 5)).unwrap();
            outcome.detection_latency(victim.0, 200).expect("detected")
        };
        let slow = latency_for(400, 3); // barely over threshold
        let fast = latency_for(4_000, 3); // 10x the rate
        assert!(
            fast < slow,
            "fast attack latency {fast} should beat slow {slow}"
        );
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unordered_feed_panics() {
        let segs = vec![
            TcpSegment::syn(dcs_core::SourceAddr(1), DestAddr(2), 10),
            TcpSegment::syn(dcs_core::SourceAddr(2), DestAddr(2), 5),
        ];
        let _ = run_simulation(&segs, config(10, 10));
    }

    #[test]
    #[should_panic(expected = "tick interval")]
    fn zero_interval_panics() {
        let _ = run_simulation(&[], config(10, 0));
    }
}
