//! The four workloads: their traffic, their pipeline configuration, and
//! the seed → feed generator.
//!
//! Every workload is built from the same round structure. A round is
//! 128 ticks of traffic that ends before the next round starts, so the
//! rounds of one feed concatenate in time order. Each round gets its
//! own `TrafficDriver`, seeded from the workload seed and the round
//! number, with a disjoint block of fresh source addresses; the feed is
//! therefore a pure function of the seed, and generation never holds
//! more than one round's staging buffer.

use std::path::Path;

use dcs_core::{DestAddr, SourceAddr};
use dcs_netsim::{
    AlarmPolicy, CheckpointSidecar, PipelineConfig, TcpSegment, TelemetrySidecar, TrafficDriver,
    WindowPolicy,
};

/// Ticks between round starts; a round's traffic spans at most 110.
const ROUND_TICKS: u64 = 128;
/// Fresh source addresses reserved per round.
const SOURCES_PER_ROUND: u32 = 16_384;
const SOURCE_BASE: u32 = 0x2000_0000;
const SERVER_BASE: u32 = 0x0b00_0000;
const CROWD_SERVER: u32 = 0x0c00_0001;
const SCAN_BASE: u32 = 0x0d00_0000;
const SCANNER: u32 = 0x0bad_0001;
/// The destination every attack in every workload targets.
pub const VICTIM: u32 = 0x0a00_0001;

/// The workloads, in the order a full run visits them.
pub const WORKLOADS: [Workload; 4] = [
    Workload::FloodDirect,
    Workload::FloodSharded,
    Workload::PulseSliding,
    Workload::RestartCkpt,
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's scenario in the default pipeline configuration.
    FloodDirect,
    /// The same feed through one sharded-ingest worker.
    FloodSharded,
    /// Periodic SYN bursts judged over a sliding window at 5x cadence.
    PulseSliding,
    /// The flood traffic split into two runs sharing one checkpoint.
    RestartCkpt,
}

impl Workload {
    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FloodDirect => "flood_direct",
            Workload::FloodSharded => "flood_sharded",
            Workload::PulseSliding => "pulse_sliding",
            Workload::RestartCkpt => "restart_ckpt",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The traffic, configuration and size of this workload; `quick`
    /// gives a miniature with the same shape for tests.
    pub fn spec(self, quick: bool) -> Spec {
        let (rounds, sessions, servers, attack) = if quick {
            (12, 200, 20, 200)
        } else {
            (110, 4_000, 200, 1_000)
        };
        let flood = Mix {
            rounds,
            sessions_per_server: sessions / servers,
            servers,
            attack_from: rounds / 2,
            flood_sources: attack,
            crowd_clients: attack,
            burst_every: None,
            burst_sources: 0,
            scan_every: 4,
        };
        // Alarms use the absolute rule alone, with a threshold per
        // workload. A destination with one sampled pair at sketch level
        // b reads as 2^b, so the largest estimate of a destination that
        // is not under attack grows with the live half-open population:
        // over seeds 1-12 it reached 8 192 on flood_direct (whose victim
        // grows past 55 000 half-open sources), 512 on pulse_sliding and
        // 256 on restart_ckpt. Each threshold sits well above that and
        // well below the victim's peak. The ratio rule stays off: on 200
        // background servers with baselines near 0 it fires on sampling
        // noise (estimates of 64 against baselines of 3).
        let scaled = |full: u64, miniature: u64| if quick { miniature } else { full };
        let absolute_only = |threshold: u64| PipelineConfig {
            policy: AlarmPolicy {
                absolute_threshold: scaled(threshold, 300),
                min_frequency_for_ratio: u64::MAX,
                ..AlarmPolicy::default()
            },
            evaluate_every: scaled(PipelineConfig::default().evaluate_every, 1_000),
            ..PipelineConfig::default()
        };
        match self {
            Workload::FloodDirect => Spec {
                mix: flood,
                phases: 1,
                config: absolute_only(20_000),
                sidecar_every: None,
            },
            Workload::FloodSharded => Spec {
                mix: flood,
                phases: 1,
                config: PipelineConfig {
                    ingest_shards: Some(1),
                    ..absolute_only(20_000)
                },
                sidecar_every: None,
            },
            Workload::PulseSliding => Spec {
                mix: Mix {
                    rounds: if quick { 16 } else { 72 },
                    attack_from: u32::MAX,
                    burst_every: Some(8),
                    burst_sources: 4 * attack,
                    ..flood
                },
                phases: 1,
                config: PipelineConfig {
                    evaluate_every: scaled(2_000, 500),
                    half_open_timeout: Some(300),
                    window: Some(WindowPolicy::Sliding { epochs: 16 }),
                    ..absolute_only(2_000)
                },
                sidecar_every: None,
            },
            Workload::RestartCkpt => Spec {
                mix: Mix {
                    rounds: if quick { 12 } else { 60 },
                    ..flood
                },
                phases: 2,
                config: PipelineConfig {
                    half_open_timeout: Some(500),
                    ..absolute_only(1_000)
                },
                sidecar_every: Some(scaled(12_000, 1_000)),
            },
        }
    }
}

/// The per-round traffic recipe of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Rounds in the whole feed.
    pub rounds: u32,
    /// Complete client sessions per server per round.
    pub sessions_per_server: u32,
    /// Servers the background sessions are spread over.
    pub servers: u32,
    /// From this round on, each round adds a SYN flood on the victim
    /// and a flash crowd on one server.
    pub attack_from: u32,
    /// Spoofed sources per flood round.
    pub flood_sources: u32,
    /// Clients per flash-crowd round.
    pub crowd_clients: u32,
    /// `Some(n)`: every `n`th round adds a SYN burst on the victim.
    pub burst_every: Option<u32>,
    /// Spoofed sources per burst.
    pub burst_sources: u32,
    /// Every this many rounds a scanner probes 64 destinations.
    pub scan_every: u32,
}

/// A workload's traffic and monitor configuration.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The traffic recipe.
    pub mix: Mix,
    /// 1, or 2 when the feed is split at the middle round into two
    /// `run_pipeline` calls that share one checkpoint file.
    pub phases: u32,
    /// The pipeline configuration without sidecars.
    pub config: PipelineConfig,
    /// `Some(n)`: checkpoint and telemetry sidecars every `n` updates.
    pub sidecar_every: Option<u64>,
}

impl Spec {
    /// The pipeline configuration with its sidecar files, if any,
    /// placed in `dir`.
    pub fn config_in(&self, dir: &Path) -> PipelineConfig {
        let mut config = self.config.clone();
        if let Some(every) = self.sidecar_every {
            config.checkpoint = Some(CheckpointSidecar {
                path: dir.join("monitor.ckpt"),
                every,
            });
            config.telemetry = Some(TelemetrySidecar {
                path: dir.join("monitor.telemetry.jsonl"),
                every,
            });
        }
        config
    }

    /// The feed of each phase, generated from `seed`.
    pub fn feeds(&self, seed: u64) -> Vec<Vec<TcpSegment>> {
        let rounds = self.mix.rounds;
        let split = rounds / self.phases.max(1);
        (0..self.phases)
            .map(|phase| {
                let end = if phase + 1 == self.phases {
                    rounds
                } else {
                    (phase + 1) * split
                };
                generate(&self.mix, seed, phase * split..end)
            })
            .collect()
    }
}

/// Generates `rounds` of `mix`, in time order.
fn generate(mix: &Mix, seed: u64, rounds: std::ops::Range<u32>) -> Vec<TcpSegment> {
    let mut feed = Vec::new();
    for round in rounds {
        let round_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(round);
        let mut driver = TrafficDriver::new(round_seed)
            .with_source_base(SOURCE_BASE.wrapping_add(round.wrapping_mul(SOURCES_PER_ROUND)));
        driver.advance_clock(u64::from(round) * ROUND_TICKS);
        for server in 0..mix.servers {
            driver.legitimate_sessions(DestAddr(SERVER_BASE + server), mix.sessions_per_server);
        }
        if round >= mix.attack_from {
            driver.syn_flood(DestAddr(VICTIM), mix.flood_sources);
            driver.flash_crowd(DestAddr(CROWD_SERVER), mix.crowd_clients);
        }
        if mix.burst_every.is_some_and(|n| round % n == n - 1) {
            driver.syn_flood(DestAddr(VICTIM), mix.burst_sources);
        }
        if round % mix.scan_every == 0 {
            driver.port_scan(SourceAddr(SCANNER), DestAddr(SCAN_BASE), 64);
        }
        feed.extend(driver.into_segments());
    }
    feed
}
