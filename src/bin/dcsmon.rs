//! `dcsmon` — command-line front end for the Distinct-Count Sketch
//! toolkit.
//!
//! ```console
//! $ dcsmon generate --output flows.dcs --pairs 100000 --dests 500 --skew 1.5
//! $ dcsmon attack   --output attack.dcs --victim 10.0.0.9 --sources 2000 --background 5000
//! $ dcsmon topk     --input attack.dcs --k 5
//! $ dcsmon monitor  --input attack.dcs --threshold 500
//! $ dcsmon stats    --input attack.dcs
//! ```
//!
//! Traces use the 9-byte binary format of `dcs-streamgen::trace`.

use std::net::Ipv4Addr;
use std::process::ExitCode;

use ddos_streams::baselines::ExactDistinctTracker;
use ddos_streams::netsim::{AlarmEvent, Monitor};
use ddos_streams::streamgen::{decode_trace, encode_trace};
use ddos_streams::{
    AlarmPolicy, DestAddr, GroupBy, PaperWorkload, ScenarioBuilder, SketchConfig, TrackingDcs,
    WorkloadConfig,
};

/// One subcommand: the `--flag value` options and bare `--switch`es it
/// takes, and its body.
struct Cmd {
    name: &'static str,
    values: &'static [&'static str],
    switches: &'static [&'static str],
    run: fn(&Args) -> Result<(), String>,
}

const COMMANDS: &[Cmd] = &[
    Cmd {
        name: "generate",
        values: &["--output", "--pairs", "--dests", "--skew", "--seed"],
        switches: &[],
        run: cmd_generate,
    },
    Cmd {
        name: "attack",
        values: &[
            "--output",
            "--victim",
            "--sources",
            "--background",
            "--flash",
            "--clients",
            "--seed",
        ],
        switches: &[],
        run: cmd_attack,
    },
    Cmd {
        name: "topk",
        values: &[
            "--input",
            "--k",
            "--shards",
            "--query",
            "--window",
            "--epoch",
            "--lambda",
            "--buckets",
            "--seed",
        ],
        switches: &["--by-source"],
        run: cmd_topk,
    },
    Cmd {
        name: "monitor",
        values: &["--input", "--threshold", "--every", "--buckets", "--seed"],
        switches: &[],
        run: cmd_monitor,
    },
    Cmd {
        name: "stats",
        values: &["--input", "--buckets", "--seed"],
        switches: &[],
        run: cmd_stats,
    },
    Cmd {
        name: "hierarchy",
        values: &["--input", "--k", "--threshold", "--buckets", "--seed"],
        switches: &[],
        run: cmd_hierarchy,
    },
    Cmd {
        name: "compare",
        values: &["--input", "--k", "--buckets", "--seed"],
        switches: &[],
        run: cmd_compare,
    },
    Cmd {
        name: "timeline",
        values: &["--output", "--victim", "--peak", "--seed"],
        switches: &[],
        run: cmd_timeline,
    },
    Cmd {
        name: "replay",
        values: &["--input", "--threshold", "--every", "--buckets", "--seed"],
        switches: &[],
        run: cmd_replay,
    },
];

/// One command's arguments, checked against what the command takes.
struct Args {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

impl Args {
    /// Parses `raw` for `cmd`. A flag `cmd` does not take, a value flag
    /// with no value after it, a repeated flag or a stray word is an
    /// error naming it: a misspelled option must never fall back to
    /// its default.
    fn parse(cmd: &Cmd, raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut words = raw.iter().peekable();
        while let Some(word) = words.next() {
            if args.values.iter().any(|(f, _)| f == word) || args.has(word) {
                return Err(format!("{word} given twice"));
            }
            if let Some(&flag) = cmd.values.iter().find(|f| *f == word) {
                let value = words
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{flag} needs a value"))?;
                args.values.push((flag, value.clone()));
            } else if let Some(&switch) = cmd.switches.iter().find(|f| *f == word) {
                args.switches.push(switch);
            } else if word.starts_with("--") {
                return Err(format!(
                    "{} does not take {word} (see `dcsmon help`)",
                    cmd.name
                ));
            } else {
                return Err(format!("unexpected argument {word:?}"));
            }
        }
        Ok(args)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{flag}: cannot parse {text:?}")),
        }
    }

    fn ipv4(&self, flag: &str, default: Ipv4Addr) -> Result<Ipv4Addr, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{flag}: {text:?} is not an IPv4 address")),
        }
    }

    fn required(&self, flag: &str) -> Result<&str, String> {
        self.value(flag).ok_or_else(|| format!("missing {flag}"))
    }
}

const USAGE: &str = "\
dcsmon — distinct-count sketch DDoS monitoring toolkit

USAGE:
  dcsmon generate --output <file> [--pairs N] [--dests N] [--skew Z] [--seed S]
      Write a Zipfian flow-update trace (the paper's synthetic workload).

  dcsmon attack --output <file> [--victim IP] [--sources N] [--background N]
                [--flash IP] [--clients N] [--seed S]
      Write an attack scenario: background + SYN flood (+ optional flash crowd).

  dcsmon topk --input <file> [--k N] [--buckets S] [--seed S] [--by-source]
              [--shards N] [--query IP[,IP...]]
              [--window N] [--epoch M] [--lambda L]
      Replay a trace into a Tracking Distinct-Count Sketch; print the top-k
      groups with Poisson error bars. With --shards > 1 the replay runs
      through the sharded per-core ingest engine (bit-identical result).
      --query adds point-query estimates for the listed groups, answered
      from one shared distinct sample (one sketch scan for all of them).
      --window N answers over a sliding window of the last N epochs of
      --epoch M updates each (default 10000) instead of the whole trace;
      the window slides in O(1) per epoch. --lambda L (in (0,1]) weights
      each epoch's contribution by L^age — recent-weighted scoring; 1
      (the default) weights every epoch equally.

  dcsmon monitor --input <file> [--threshold N] [--every N] [--buckets S]
                 [--seed S]
      Replay with periodic alarm evaluation; print raised alarms.

  dcsmon stats --input <file> [--buckets S] [--seed S]
      Trace statistics: updates, net count, exact vs sketch-estimated
      distinct pairs and top destination.

  dcsmon hierarchy --input <file> [--k N] [--threshold N] [--buckets S]
                   [--seed S]
      Top-k at host, /24, and /16 destination granularity, plus the
      finest granularity crossing --threshold (default 500).

  dcsmon compare --input <file> [--k N] [--buckets S] [--seed S]
      Run the Distinct-Count Sketch, an insert-only per-destination FM
      baseline, and the exact tracker over the trace; print their
      top-k side by side.

  dcsmon timeline --output <file> [--victim IP] [--peak N] [--seed S]
      Write a *timed* trace: calm background, then a flood ramping to
      --peak sources/tick, plus a low-rate pulse attack.

  dcsmon replay --input <timed-file> [--threshold N] [--every TICKS]
                [--buckets S] [--seed S]
      Replay a timed trace against the monitor, evaluating every
      --every ticks; print the time-stamped alarm timeline.
";

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let command = if raw.first().is_some_and(|a| !a.starts_with("--")) {
        Some(raw.remove(0))
    } else {
        None
    };
    let result = match command.as_deref() {
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(name) => match COMMANDS.iter().find(|c| c.name == name) {
            Some(cmd) => Args::parse(cmd, &raw).and_then(|args| (cmd.run)(&args)),
            None => Err(format!("unknown command {name:?}\n\n{USAGE}")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn read_trace(args: &Args) -> Result<Vec<ddos_streams::FlowUpdate>, String> {
    let path = args.required("--input")?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    decode_trace(&bytes).map_err(|e| format!("decoding {path}: {e}"))
}

fn sketch_config(args: &Args, group_by: GroupBy) -> Result<SketchConfig, String> {
    SketchConfig::builder()
        .buckets_per_table(args.number("--buckets", 1024usize)?)
        .seed(args.number("--seed", 0u64)?)
        .group_by(group_by)
        .build()
        .map_err(|e| e.to_string())
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let output = args.required("--output")?;
    let config = WorkloadConfig {
        distinct_pairs: args.number("--pairs", 100_000u64)?,
        num_destinations: args.number("--dests", 1_000u32)?,
        skew: args.number("--skew", 1.0f64)?,
        seed: args.number("--seed", 0u64)?,
    };
    let workload = PaperWorkload::generate(config.clone());
    let bytes = encode_trace(workload.updates());
    std::fs::write(output, &bytes).map_err(|e| format!("writing {output}: {e}"))?;
    println!(
        "wrote {output}: {} updates ({} distinct pairs, {} destinations, z = {}), {:.2} MB",
        workload.updates().len(),
        config.distinct_pairs,
        config.num_destinations,
        config.skew,
        bytes.len() as f64 / 1e6
    );
    Ok(())
}

fn cmd_attack(args: &Args) -> Result<(), String> {
    let output = args.required("--output")?;
    let victim = args.ipv4("--victim", Ipv4Addr::new(10, 0, 0, 9))?;
    let sources = args.number("--sources", 2_000u32)?;
    let background = args.number("--background", 5_000u32)?;
    let seed = args.number("--seed", 0u64)?;
    let mut builder = ScenarioBuilder::new(seed)
        .background(background, 100, 0.9)
        .syn_flood(u32::from(victim), sources);
    if let Some(flash) = args.value("--flash") {
        let flash: Ipv4Addr = flash
            .parse()
            .map_err(|_| format!("--flash: {flash:?} is not an IPv4 address"))?;
        let clients = args.number("--clients", 3_000u32)?;
        builder = builder.flash_crowd(u32::from(flash), clients, 0.97);
    }
    let scenario = builder.build();
    let bytes = encode_trace(scenario.updates());
    std::fs::write(output, &bytes).map_err(|e| format!("writing {output}: {e}"))?;
    println!(
        "wrote {output}: {} updates; victim {victim} has {} half-open sources at end of trace",
        scenario.updates().len(),
        scenario.half_open(u32::from(victim))
    );
    Ok(())
}

fn cmd_topk(args: &Args) -> Result<(), String> {
    let updates = read_trace(args)?;
    let k = args.number("--k", 10usize)?;
    let group_by = if args.has("--by-source") {
        GroupBy::Source
    } else {
        GroupBy::Destination
    };
    let shards = args.number("--shards", 1usize)?;
    let window_epochs = args.number("--window", 0usize)?;
    if window_epochs > 0 {
        if shards > 1 {
            return Err("--window replays single-threaded; drop --shards".into());
        }
        return cmd_topk_windowed(args, &updates, k, group_by, window_epochs);
    }
    let sketch = if shards > 1 {
        ddos_streams::netsim::ingest_sharded(&updates, sketch_config(args, group_by)?, shards)
            .map_err(|e| format!("merging shard partials: {e}"))?
    } else {
        let mut sketch = TrackingDcs::new(sketch_config(args, group_by)?);
        for u in &updates {
            sketch.update(*u);
        }
        sketch
    };
    let top = sketch.track_top_k(k, 0.25);
    println!(
        "top-{k} {}s by distinct half-open {} (sample {} at level {}):",
        group_by,
        match group_by {
            GroupBy::Destination => "sources",
            _ => "peers",
        },
        top.sample_size,
        top.sample_level
    );
    for (group, estimate, sigma) in top.with_error_bars() {
        println!("  {:<15}  ≈ {estimate} ± {sigma:.0}", Ipv4Addr::from(group));
    }
    if let Some(list) = args.value("--query") {
        let groups: Vec<u32> = list
            .split(',')
            .map(|text| {
                text.trim()
                    .parse::<Ipv4Addr>()
                    .map(u32::from)
                    .map_err(|_| format!("--query: {text:?} is not an IPv4 address"))
            })
            .collect::<Result<_, _>>()?;
        // One batched call: a single distinct-sample scan answers
        // every listed group, instead of one full sketch scan each.
        let estimates = sketch.sketch().estimate_group_frequencies(&groups, 0.25);
        println!(
            "point queries ({} groups, one shared sample):",
            groups.len()
        );
        for (group, estimate) in groups.iter().zip(&estimates) {
            println!("  {:<15}  ≈ {estimate}", Ipv4Addr::from(*group));
        }
    }
    Ok(())
}

/// `topk --window N`: replay in epochs of `--epoch` updates through a
/// sliding window of the last N epochs and answer from the window
/// accumulator (O(1) slide per epoch, no snapshot clone on the query).
fn cmd_topk_windowed(
    args: &Args,
    updates: &[ddos_streams::FlowUpdate],
    k: usize,
    group_by: GroupBy,
    window_epochs: usize,
) -> Result<(), String> {
    use ddos_streams::netsim::{EpochWindow, WindowPolicy};
    use ddos_streams::DistinctCountSketch;
    let epoch_len = args.number("--epoch", 10_000usize)?.max(1);
    let lambda = args.number("--lambda", 1.0f64)?;
    if !(lambda > 0.0 && lambda <= 1.0) {
        return Err(format!("--lambda: {lambda} is outside (0, 1]"));
    }
    let policy = if lambda < 1.0 {
        WindowPolicy::Decayed {
            epochs: window_epochs,
            lambda,
        }
    } else {
        WindowPolicy::Sliding {
            epochs: window_epochs,
        }
    };
    let config = sketch_config(args, group_by)?;
    let mut window = EpochWindow::new(config.clone(), policy).map_err(|e| e.to_string())?;
    // The window reads only the basic sketch, so no tracking state is
    // kept. The trailing partial epoch closes too, so the window always
    // covers the end of the trace.
    let mut sketch = DistinctCountSketch::new(config);
    for chunk in updates.chunks(epoch_len) {
        sketch.update_batch(chunk);
        window.advance(&sketch).map_err(|e| e.to_string())?;
    }
    let held = window.window().len();
    let covered: usize = window
        .window()
        .deltas()
        .map(|d| usize::try_from(d.updates_processed()).unwrap_or(usize::MAX))
        .sum();
    let top = window.top_k(k, 0.25);
    match window.policy().lambda() {
        Some(l) => println!(
            "windowed top-{k} {group_by}s, last {held} epoch(s) of {epoch_len} updates \
             ({covered} updates covered), decayed λ = {l}:"
        ),
        None => println!(
            "windowed top-{k} {group_by}s, last {held} epoch(s) of {epoch_len} updates \
             ({covered} updates covered):"
        ),
    }
    for entry in &top.entries {
        println!(
            "  {:<15}  ≈ {}",
            Ipv4Addr::from(entry.group),
            entry.estimated_frequency
        );
    }
    Ok(())
}

fn cmd_monitor(args: &Args) -> Result<(), String> {
    let updates = read_trace(args)?;
    let threshold = args.number("--threshold", 1_000u64)?;
    let every = args.number("--every", 10_000usize)?.max(1);
    let mut monitor = Monitor::new(
        sketch_config(args, GroupBy::Destination)?,
        AlarmPolicy {
            absolute_threshold: threshold,
            ..AlarmPolicy::default()
        },
        None,
    )
    .map_err(|e| e.to_string())?;
    let mut alarms_total = 0usize;
    let mut ingested = 0usize;
    // Each chunk is judged once: a full one after its last update, a
    // short last one (or an empty trace) at the end of the trace.
    let empty = updates.is_empty().then_some(&[][..]);
    for chunk in updates.chunks(every).chain(empty) {
        monitor.ingest(chunk);
        ingested += chunk.len();
        let at = if chunk.len() < every {
            "at end of trace".to_string()
        } else {
            format!("after {ingested} updates")
        };
        for alarm in monitor.evaluate().map_err(|e| e.to_string())? {
            alarms_total += 1;
            println!(
                "ALARM {at}: {} ≈ {} distinct half-open sources ({:?})",
                DestAddr(alarm.dest),
                alarm.estimated_frequency,
                alarm.reason
            );
        }
    }
    println!(
        "processed {} updates, {} alarms (threshold {threshold})",
        updates.len(),
        alarms_total
    );
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let updates = read_trace(args)?;
    let inserts = updates
        .iter()
        .filter(|u| u.delta == ddos_streams::Delta::Insert)
        .count();
    let mut exact = ExactDistinctTracker::new(GroupBy::Destination);
    let mut sketch = TrackingDcs::new(sketch_config(args, GroupBy::Destination)?);
    for u in &updates {
        exact.update(*u);
        sketch.update(*u);
    }
    println!("updates:            {}", updates.len());
    println!(
        "inserts / deletes:  {} / {}",
        inserts,
        updates.len() - inserts
    );
    println!("distinct pairs:     {} (exact)", exact.distinct_pairs());
    println!(
        "                    {} (sketch estimate)",
        sketch.estimate_distinct_pairs(0.25)
    );
    println!("active groups:      {}", exact.num_groups());
    if let Some(&(dest, freq)) = exact.top_k(1).first() {
        let est = sketch
            .track_top_k(1, 0.25)
            .frequency_of(dest)
            .unwrap_or_else(|| sketch.track_top_k(1, 0.25).entries[0].estimated_frequency);
        println!(
            "top destination:    {} — {} distinct sources exact, ≈{} sketch",
            DestAddr(dest),
            freq,
            est
        );
    }
    println!(
        "sketch memory:      {:.2} MB (exact tracker: {:.2} MB)",
        sketch.heap_bytes() as f64 / 1e6,
        exact.heap_bytes() as f64 / 1e6
    );
    Ok(())
}

fn cmd_hierarchy(args: &Args) -> Result<(), String> {
    use ddos_streams::netsim::hierarchy::HierarchicalTracker;
    let updates = read_trace(args)?;
    let k = args.number("--k", 5usize)?;
    let threshold = args.number("--threshold", 500u64)?;
    let mut tracker = HierarchicalTracker::new(sketch_config(args, GroupBy::Destination)?)
        .map_err(|e| e.to_string())?;
    for u in &updates {
        tracker.update(*u);
    }
    println!("host view:\n{}", tracker.host_top_k(k, 0.25));
    println!("/24 view:\n{}", tracker.prefix24_top_k(k, 0.25));
    println!("/16 view:\n{}", tracker.prefix16_top_k(k, 0.25));
    match tracker.locate(threshold, 0.25) {
        Some((granularity, group, estimate)) => println!(
            "finest granularity over {threshold}: {granularity:?} {} ≈ {estimate}",
            Ipv4Addr::from(group)
        ),
        None => println!("no granularity crosses {threshold}"),
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    use ddos_streams::baselines::PerGroupFm;
    let updates = read_trace(args)?;
    let k = args.number("--k", 5usize)?;
    let mut sketch = TrackingDcs::new(sketch_config(args, GroupBy::Destination)?);
    let mut fm = PerGroupFm::new(32, args.number("--seed", 0u64)?);
    let mut exact = ExactDistinctTracker::new(GroupBy::Destination);
    for u in &updates {
        sketch.update(*u);
        fm.add(u.key.dest().0, u.key.packed());
        exact.update(*u);
    }
    println!("exact (net half-open):");
    for (dest, freq) in exact.top_k(k) {
        println!("  {:<15} {freq}", Ipv4Addr::from(dest));
    }
    println!("\ndistinct-count sketch (handles deletions):");
    print!("{}", sketch.track_top_k(k, 0.25));
    println!("\ninsert-only per-destination FM (cannot discount):");
    for (dest, est) in fm.top_k(k) {
        println!("  {:<15} ≈ {est:.0}", Ipv4Addr::from(dest));
    }
    println!(
        "\nmemory: sketch {:.2} MB, FM {:.2} MB, exact {:.2} MB",
        sketch.heap_bytes() as f64 / 1e6,
        fm.heap_bytes() as f64 / 1e6,
        exact.heap_bytes() as f64 / 1e6
    );
    Ok(())
}

fn cmd_timeline(args: &Args) -> Result<(), String> {
    use ddos_streams::streamgen::encode_timed_trace;
    use ddos_streams::streamgen::timeline::TimelineBuilder;
    let output = args.required("--output")?;
    let victim = args.ipv4("--victim", Ipv4Addr::new(10, 0, 0, 9))?;
    let peak = args.number("--peak", 30u32)?;
    let seed = args.number("--seed", 0u64)?;
    let timeline = TimelineBuilder::new(seed)
        .steady_background(500, 15, 8, 0.92)
        .ramp_flood(u32::from(victim), 200, peak)
        .pulse_attack(u32::from(victim).wrapping_add(1), 3, 100, 5, 150)
        .build();
    let bytes = encode_timed_trace(timeline.updates());
    std::fs::write(output, &bytes).map_err(|e| format!("writing {output}: {e}"))?;
    println!(
        "wrote {output}: {} timed updates over {} ticks (flood ramps to {peak}/tick at {victim})",
        timeline.updates().len(),
        timeline.end()
    );
    Ok(())
}

/// One `replay` event line, after its time stamp.
fn event_line(event: &AlarmEvent) -> String {
    match event {
        AlarmEvent::Raised(alarm) => format!(
            "RAISED  {} ≈ {} ({:?})",
            DestAddr(alarm.dest),
            alarm.estimated_frequency,
            alarm.reason
        ),
        AlarmEvent::Cleared {
            dest,
            estimated_frequency,
            ..
        } => format!("CLEARED {} ≈ {estimated_frequency}", DestAddr(*dest)),
    }
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    use ddos_streams::streamgen::decode_timed_trace;
    let path = args.required("--input")?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let timed = decode_timed_trace(&bytes).map_err(|e| format!("decoding {path}: {e}"))?;
    let threshold = args.number("--threshold", 500u64)?;
    let every = args.number("--every", 50u64)?.max(1);
    let mut monitor = Monitor::new(
        sketch_config(args, GroupBy::Destination)?,
        AlarmPolicy {
            absolute_threshold: threshold,
            ..AlarmPolicy::default()
        },
        None,
    )
    .map_err(|e| e.to_string())?;
    // Each tick interval's updates, ingested in one batch before the
    // evaluation that closes the interval.
    let mut pending = Vec::new();
    let mut next_eval = every;
    let mut events_total = 0usize;
    for t in &timed {
        while t.at >= next_eval {
            monitor.ingest(&pending);
            pending.clear();
            for event in monitor.evaluate_events().map_err(|e| e.to_string())? {
                events_total += 1;
                println!("[t={next_eval}] {}", event_line(&event));
            }
            next_eval += every;
        }
        pending.push(t.update);
    }
    monitor.ingest(&pending);
    for event in monitor.evaluate_events().map_err(|e| e.to_string())? {
        events_total += 1;
        println!("[end] {}", event_line(&event));
    }
    println!(
        "replayed {} updates; {} alarm events; currently alarmed: {:?}",
        timed.len(),
        events_total,
        monitor
            .active_alarms()
            .into_iter()
            .map(|d| DestAddr(d).to_string())
            .collect::<Vec<_>>()
    );
    Ok(())
}
