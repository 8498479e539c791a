//! End-to-end tests of the `dcsmon` command-line tool.

use std::process::Command;

fn dcsmon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dcsmon"))
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dcsmon-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn help_prints_usage() {
    let out = dcsmon().arg("help").output().expect("run dcsmon");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("generate"));
    assert!(text.contains("monitor"));
}

#[test]
fn no_arguments_prints_usage() {
    let out = dcsmon().output().expect("run dcsmon");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = dcsmon().arg("frobnicate").output().expect("run dcsmon");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_input_fails_cleanly() {
    let out = dcsmon().args(["topk"]).output().expect("run dcsmon");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));
}

#[test]
fn generate_topk_stats_pipeline() {
    let trace = temp_path("pipeline.dcs");
    let out = dcsmon()
        .args([
            "generate",
            "--output",
            trace.to_str().unwrap(),
            "--pairs",
            "20000",
            "--dests",
            "200",
            "--skew",
            "1.5",
            "--seed",
            "3",
        ])
        .output()
        .expect("generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("20000 updates"));

    let out = dcsmon()
        .args(["topk", "--input", trace.to_str().unwrap(), "--k", "3"])
        .output()
        .expect("topk");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("top-3"), "{text}");
    assert!(text.contains('±'), "error bars shown: {text}");

    let out = dcsmon()
        .args(["stats", "--input", trace.to_str().unwrap()])
        .output()
        .expect("stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("distinct pairs:     20000 (exact)"), "{text}");

    std::fs::remove_file(&trace).ok();
}

#[test]
fn attack_and_monitor_raise_alarm() {
    let trace = temp_path("attack.dcs");
    let out = dcsmon()
        .args([
            "attack",
            "--output",
            trace.to_str().unwrap(),
            "--victim",
            "10.0.0.9",
            "--sources",
            "1500",
            "--background",
            "2000",
            "--seed",
            "5",
        ])
        .output()
        .expect("attack");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("1500 half-open"));

    let out = dcsmon()
        .args([
            "monitor",
            "--input",
            trace.to_str().unwrap(),
            "--threshold",
            "700",
        ])
        .output()
        .expect("monitor");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ALARM"), "{text}");
    assert!(text.contains("10.0.0.9"), "{text}");

    std::fs::remove_file(&trace).ok();
}

#[test]
fn corrupt_trace_fails_cleanly() {
    let trace = temp_path("corrupt.dcs");
    std::fs::write(&trace, b"not a trace at all").unwrap();
    let out = dcsmon()
        .args(["topk", "--input", trace.to_str().unwrap()])
        .output()
        .expect("topk");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("magic"));
    std::fs::remove_file(&trace).ok();
}

#[test]
fn hierarchy_and_compare_commands() {
    let trace = temp_path("hier.dcs");
    let out = dcsmon()
        .args([
            "attack",
            "--output",
            trace.to_str().unwrap(),
            "--victim",
            "10.0.0.9",
            "--sources",
            "1000",
            "--background",
            "1000",
        ])
        .output()
        .expect("attack");
    assert!(out.status.success());

    let out = dcsmon()
        .args([
            "hierarchy",
            "--input",
            trace.to_str().unwrap(),
            "--threshold",
            "500",
        ])
        .output()
        .expect("hierarchy");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("host view:"), "{text}");
    assert!(text.contains("/24 view:"), "{text}");
    assert!(
        text.contains("finest granularity over 500: Host 10.0.0.9"),
        "{text}"
    );

    let out = dcsmon()
        .args(["compare", "--input", trace.to_str().unwrap(), "--k", "2"])
        .output()
        .expect("compare");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("exact (net half-open):"), "{text}");
    assert!(text.contains("insert-only"), "{text}");

    std::fs::remove_file(&trace).ok();
}

#[test]
fn timeline_and_replay_commands() {
    let trace = temp_path("timeline.dct");
    let out = dcsmon()
        .args([
            "timeline",
            "--output",
            trace.to_str().unwrap(),
            "--victim",
            "10.0.0.9",
            "--peak",
            "40",
        ])
        .output()
        .expect("timeline");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("timed updates"));

    // The exact event stream: the flood raises once and stays alarmed;
    // at the lower threshold the pulse target also raises, clears
    // between bursts, raises again and clears at the final evaluation.
    // Every counted event is printed.
    let replay = |threshold: &str, every: &str| {
        let out = dcsmon()
            .args([
                "replay",
                "--input",
                trace.to_str().unwrap(),
                "--threshold",
                threshold,
                "--every",
                every,
            ])
            .output()
            .expect("replay");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_eq!(
        replay("400", "50"),
        "[t=600] RAISED  10.0.0.9 ≈ 992 (AbsoluteThreshold)\n\
         replayed 19188 updates; 1 alarm events; currently alarmed: [\"10.0.0.9\"]\n"
    );
    assert_eq!(
        replay("150", "25"),
        "[t=550] RAISED  10.0.0.9 ≈ 232 (AbsoluteThreshold)\n\
         [t=725] RAISED  10.0.0.10 ≈ 224 (AbsoluteThreshold)\n\
         [t=800] CLEARED 10.0.0.10 ≈ 0\n\
         [t=925] RAISED  10.0.0.10 ≈ 160 (AbsoluteThreshold)\n\
         [end] CLEARED 10.0.0.10 ≈ 0\n\
         replayed 19188 updates; 5 alarm events; currently alarmed: [\"10.0.0.9\"]\n"
    );

    // A plain trace is rejected by replay (wrong magic).
    let plain = temp_path("plain.dcs");
    let out = dcsmon()
        .args([
            "attack",
            "--output",
            plain.to_str().unwrap(),
            "--sources",
            "10",
            "--background",
            "10",
        ])
        .output()
        .expect("attack");
    assert!(out.status.success());
    let out = dcsmon()
        .args(["replay", "--input", plain.to_str().unwrap()])
        .output()
        .expect("replay plain");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("magic"));

    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&plain).ok();
}

/// Writes the attack trace the windowed `topk` tests replay: 5279
/// updates, the 10.0.0.9 flood among them.
fn window_trace(name: &str) -> std::path::PathBuf {
    let trace = temp_path(name);
    let out = dcsmon()
        .args([
            "attack",
            "--output",
            trace.to_str().unwrap(),
            "--victim",
            "10.0.0.9",
            "--sources",
            "1500",
            "--background",
            "2000",
            "--seed",
            "5",
        ])
        .output()
        .expect("attack");
    assert!(out.status.success());
    trace
}

fn topk_window(trace: &std::path::Path, extra: &[&str]) -> std::process::Output {
    dcsmon()
        .args(["topk", "--input", trace.to_str().unwrap(), "--k", "3"])
        .args(["--window", "2", "--epoch", "1000"])
        .args(extra)
        .output()
        .expect("topk --window")
}

#[test]
fn topk_window_answers_from_the_last_epochs() {
    let trace = window_trace("window.dcs");
    let out = topk_window(&trace, &[]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    // Six epochs of 1000 updates (the last one partial): the window
    // holds the last two.
    assert!(
        text.starts_with(
            "windowed top-3 destinations, last 2 epoch(s) of 1000 updates \
             (1279 updates covered):\n  10.0.0.9 "
        ),
        "{text}"
    );
    // λ = 1 weights every epoch equally: the undecayed table, byte for
    // byte.
    let out = topk_window(&trace, &["--lambda", "1"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), text);

    let out = topk_window(&trace, &["--lambda", "0.5"]);
    assert!(out.status.success());
    let decayed = String::from_utf8_lossy(&out.stdout);
    assert!(
        decayed.contains("(1279 updates covered), decayed λ = 0.5:\n  10.0.0.9 "),
        "{decayed}"
    );
    std::fs::remove_file(&trace).ok();
}

#[test]
fn topk_window_rejects_lambda_outside_the_unit_interval() {
    let trace = window_trace("window-lambda.dcs");
    for lambda in ["1.5", "nan", "inf", "0"] {
        let out = topk_window(&trace, &["--lambda", lambda]);
        assert!(!out.status.success(), "--lambda {lambda} was accepted");
        assert!(out.stdout.is_empty(), "--lambda {lambda} printed a table");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--lambda"), "--lambda {lambda}: {err}");
    }
    std::fs::remove_file(&trace).ok();
}

/// Runs `dcsmon` and asserts it fails before printing anything, with an
/// error that names `flag`.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = dcsmon().args(args).output().expect("run dcsmon");
    assert!(!out.status.success(), "{args:?} was accepted");
    assert!(out.stdout.is_empty(), "{args:?} printed output");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(flag), "{args:?}: {err}");
}

#[test]
fn misspelled_window_flag_is_rejected_not_ignored() {
    let trace = window_trace("window-misspelled.dcs");
    let input = trace.to_str().unwrap();
    assert_rejected(&["topk", "--input", input, "--windw", "2"], "--windw");
    std::fs::remove_file(&trace).ok();
}

/// A trace whose length is a multiple of `--every` ends on an
/// evaluation boundary: its last chunk's judgment is the end-of-trace
/// judgment, so no alarm may be printed twice.
#[test]
fn monitor_judges_a_trace_ending_on_a_boundary_once() {
    let trace = temp_path("boundary.dcs");
    let out = dcsmon()
        .args([
            "generate",
            "--output",
            trace.to_str().unwrap(),
            "--pairs",
            "20000",
            "--dests",
            "50",
            "--seed",
            "3",
        ])
        .output()
        .expect("generate");
    assert!(out.status.success());
    let out = dcsmon()
        .args([
            "monitor",
            "--input",
            trace.to_str().unwrap(),
            "--threshold",
            "300",
            "--every",
            "10000",
        ])
        .output()
        .expect("monitor");
    std::fs::remove_file(&trace).ok();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // "processed {updates} updates, {alarms} alarms (threshold …)"
    let summary = text.lines().last().expect("summary line");
    let (updates, alarms) = summary
        .strip_prefix("processed ")
        .and_then(|rest| rest.split_once(" updates, "))
        .and_then(|(updates, rest)| Some((updates, rest.split_once(' ')?.0)))
        .unwrap_or_else(|| panic!("summary: {summary}"));
    let alarms: usize = alarms.parse().expect("alarm count");
    // (update count, destination) of every printed alarm.
    let mut judged: Vec<(&str, &str)> = text
        .lines()
        .filter_map(|line| line.strip_prefix("ALARM "))
        .map(|line| {
            let (at, rest) = line.split_once(": ").expect("ALARM line");
            let at = at
                .strip_prefix("after ")
                .map_or(updates, |n| n.trim_end_matches(" updates"));
            (at, rest.split(' ').next().expect("destination"))
        })
        .collect();
    assert!(!judged.is_empty(), "{text}");
    assert_eq!(judged.len(), alarms, "{text}");
    judged.sort_unstable();
    judged.dedup();
    assert_eq!(judged.len(), alarms, "a destination repeats: {text}");
}

#[test]
fn misspelled_monitor_flag_is_rejected_not_ignored() {
    let trace = window_trace("monitor-misspelled.dcs");
    let input = trace.to_str().unwrap();
    assert_rejected(
        &["monitor", "--input", input, "--treshold", "5"],
        "--treshold",
    );
    // `--by-source` is a topk switch; monitor does not take it.
    assert_rejected(&["monitor", "--input", input, "--by-source"], "--by-source");
    std::fs::remove_file(&trace).ok();
}

#[test]
fn value_flag_without_a_value_is_rejected() {
    let trace = window_trace("valueless.dcs");
    let input = trace.to_str().unwrap();
    assert_rejected(&["topk", "--input", input, "--k"], "--k");
    assert_rejected(&["topk", "--input", input, "--k", "--by-source"], "--k");
    assert_rejected(&["topk", "--input", input, "--k", "3", "--k", "4"], "--k");
    // The switch still parses when it is spelled right.
    let out = dcsmon()
        .args(["topk", "--input", input, "--k", "2", "--by-source"])
        .output()
        .expect("run dcsmon");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("top-2 sources"));
    std::fs::remove_file(&trace).ok();
}
