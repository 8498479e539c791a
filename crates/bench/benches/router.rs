//! Cost of the edge router alone: `EdgeRouter` over a committed packet
//! feed, no channel and no monitor, so the router's share of the
//! packets-to-alarms pipeline (`pipeline_bench`'s `router.*` metrics)
//! can be measured and split.
//!
//! Two feeds, built the way `pipeline_bench` builds its workloads (one
//! `TrafficDriver` per 128-tick round, fresh sources per round):
//!
//! * `flood`: background sessions, then a SYN flood on the victim and a
//!   flash crowd from the middle round on; no half-open timeout, as on
//!   `flood_direct`.
//! * `pulse`: background sessions and a SYN burst every 8th round, with
//!   a 300-tick half-open timeout, as on `pulse_sliding`.
//!
//! For each feed, `observe_*` times `HandshakeTracker::observe` over
//! the whole feed (table probes, state changes and, with a timeout, the
//! expiry records they queue) and `full_*` times `EdgeRouter::observe`
//! (the same, plus a tick with expiry at every clock advance and the
//! export buffer, drained in 1 024-update batches). The difference
//! between the two is the share of ticks and expiry. Each iteration
//! starts from a fresh router, built outside the timed region, and its
//! drop is untimed too.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use dcs_core::{DestAddr, SourceAddr};
use dcs_netsim::{EdgeRouter, HandshakeTracker, TcpSegment, TrafficDriver};

const ROUNDS: u32 = 24;
const ROUND_TICKS: u64 = 128;
const SOURCES_PER_ROUND: u32 = 16_384;
const VICTIM: DestAddr = DestAddr(0x0a00_0001);
/// Exports drained per batch, as `PipelineConfig::default()` does.
const EXPORT_BATCH: usize = 1024;

/// The traffic of one feed.
struct Feed {
    name: &'static str,
    /// From this round on each round adds a flood and a flash crowd.
    attack_from: u32,
    /// Every this many rounds a SYN burst hits the victim.
    burst_every: Option<u32>,
    timeout: Option<u64>,
}

const FEEDS: [Feed; 2] = [
    Feed {
        name: "flood",
        attack_from: ROUNDS / 2,
        burst_every: None,
        timeout: None,
    },
    Feed {
        name: "pulse",
        attack_from: u32::MAX,
        burst_every: Some(8),
        timeout: Some(300),
    },
];

impl Feed {
    fn segments(&self) -> Vec<TcpSegment> {
        let mut feed = Vec::new();
        for round in 0..ROUNDS {
            let mut driver = TrafficDriver::new(7 ^ u64::from(round))
                .with_source_base(0x2000_0000 + round * SOURCES_PER_ROUND);
            driver.advance_clock(u64::from(round) * ROUND_TICKS);
            for server in 0..200 {
                driver.legitimate_sessions(DestAddr(0x0b00_0000 + server), 20);
            }
            if round >= self.attack_from {
                driver.syn_flood(VICTIM, 1_000);
                driver.flash_crowd(DestAddr(0x0c00_0001), 1_000);
            }
            if self.burst_every.is_some_and(|n| round % n == n - 1) {
                driver.syn_flood(VICTIM, 4_000);
            }
            if round % 4 == 0 {
                driver.port_scan(SourceAddr(0x0bad_0001), DestAddr(0x0d00_0000), 64);
            }
            feed.extend(driver.into_segments());
        }
        feed
    }
}

fn bench_router(c: &mut Criterion) {
    let mut group = c.benchmark_group("router");
    for spec in &FEEDS {
        let feed = spec.segments();
        group.throughput(Throughput::Elements(feed.len() as u64));
        group.bench_function(format!("observe_{}", spec.name), |bencher| {
            bencher.iter_batched(
                || HandshakeTracker::new(spec.timeout),
                |mut tracker| {
                    for segment in &feed {
                        black_box(tracker.observe(segment));
                    }
                    tracker
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_function(format!("full_{}", spec.name), |bencher| {
            bencher.iter_batched(
                || EdgeRouter::new(0, spec.timeout),
                |mut router| {
                    for segment in &feed {
                        router.observe(segment);
                        if router.pending_exports() >= EXPORT_BATCH {
                            black_box(router.drain_exports());
                        }
                    }
                    router.flush_expired(u64::MAX);
                    black_box(router.drain_exports());
                    router
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_router);
criterion_main!(benches);
