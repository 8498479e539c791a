//! Fixture tests: every lint fires at the exact `file:line` it should,
//! suppression round-trips through the allow.toml format, and the
//! directory walker reproduces the same diagnostics end-to-end.

use dcs_analysis::{
    apply_allow, lint_root, lint_source, lint_workspace, parse_allow, AllowEntry, Lint, SourceFile,
    Violation,
};

/// Lines (1-based) at which `lint` fires for `source` presented as
/// living at `path`.
fn fire_lines(path: &str, source: &str, lint: Lint) -> Vec<usize> {
    lint_source(path, source)
        .into_iter()
        .filter(|v| v.lint == lint)
        .map(|v| v.line)
        .collect()
}

#[test]
fn l1_counter_arithmetic_fires_on_exact_lines() {
    let source = include_str!("fixtures/l1_counter_arithmetic.rs");
    let path = "crates/core/src/signature.rs";
    assert_eq!(fire_lines(path, source, Lint::L1), vec![4, 5]);
    // The wrapping mutation on line 6 and the #[cfg(test)] body stay
    // clean, so L1 is the only lint that fires at all.
    assert_eq!(lint_source(path, source).len(), 2);
}

#[test]
fn l1_is_scoped_to_the_signature_module() {
    let source = include_str!("fixtures/l1_counter_arithmetic.rs");
    assert_eq!(
        fire_lines("crates/core/src/heap.rs", source, Lint::L1),
        Vec::<usize>::new()
    );
}

#[test]
fn l2_lossy_casts_fire_but_doc_examples_do_not() {
    let source = include_str!("fixtures/l2_lossy_casts.rs");
    let path = "crates/core/src/sketch.rs";
    assert_eq!(fire_lines(path, source, Lint::L2), vec![4, 5]);
    let diags = lint_source(path, source);
    assert!(diags.iter().all(|v| v.lint == Lint::L2));
    assert!(diags[0].message.contains("as u32"), "{}", diags[0].message);
    assert!(diags[1].message.contains("as u64"), "{}", diags[1].message);
}

#[test]
fn l2_is_scoped_to_core_and_hash() {
    let source = include_str!("fixtures/l2_lossy_casts.rs");
    assert_eq!(
        fire_lines("crates/netsim/src/router.rs", source, Lint::L2),
        Vec::<usize>::new()
    );
    // The audited conversion layer itself is exempt by design.
    assert_eq!(
        fire_lines("crates/hash/src/cast.rs", source, Lint::L2),
        Vec::<usize>::new()
    );
}

#[test]
fn l2_fires_on_persist_paths() {
    // The checkpoint codec narrows 8-byte counter words to 4-byte
    // counters, so it is in L2's scope like core and hash.
    let source = include_str!("fixtures/l2_lossy_casts.rs");
    for path in ["crates/persist/src/wire.rs", "crates/persist/src/codec.rs"] {
        assert_eq!(fire_lines(path, source, Lint::L2), vec![4, 5], "{path}");
    }
    // Its integration tests stay exempt, as every test tree is.
    assert_eq!(
        fire_lines("crates/persist/tests/roundtrip.rs", source, Lint::L2),
        Vec::<usize>::new()
    );
}

#[test]
fn l3_unwrap_and_expect_fire_outside_tests() {
    let source = include_str!("fixtures/l3_unwrap.rs");
    let path = "crates/netsim/src/pipeline.rs";
    assert_eq!(fire_lines(path, source, Lint::L3), vec![4, 8]);
}

#[test]
fn l3_exempts_binaries() {
    let source = include_str!("fixtures/l3_unwrap.rs");
    for path in ["src/bin/dcsmon.rs", "crates/bench/src/bin/fig8_accuracy.rs"] {
        assert_eq!(fire_lines(path, source, Lint::L3), Vec::<usize>::new());
    }
}

#[test]
fn l4_nondeterminism_sources_fire() {
    let source = include_str!("fixtures/l4_nondeterminism.rs");
    let path = "crates/core/src/tracking.rs";
    assert_eq!(fire_lines(path, source, Lint::L4), vec![3, 4, 6, 7, 10, 11]);
    // The deterministic wrapper module is exempt by design.
    assert_eq!(
        fire_lines("crates/hash/src/det.rs", source, Lint::L4),
        Vec::<usize>::new()
    );
}

#[test]
fn l5_missing_header_fires_at_the_first_line() {
    let source = include_str!("fixtures/l5_missing_header.rs");
    let path = "crates/metrics/src/stats.rs";
    assert_eq!(fire_lines(path, source, Lint::L5), vec![1]);
}

#[test]
fn clean_fixture_passes_every_lint() {
    let source = include_str!("fixtures/clean.rs");
    for path in [
        "crates/core/src/signature.rs",
        "crates/hash/src/mix.rs",
        "crates/netsim/src/monitor.rs",
    ] {
        assert_eq!(lint_source(path, source), Vec::<Violation>::new(), "{path}");
    }
}

#[test]
fn diagnostics_render_as_file_line_code() {
    let source = include_str!("fixtures/l2_lossy_casts.rs");
    let diags = lint_source("crates/core/src/sketch.rs", source);
    let first = diags[0].to_string();
    assert!(
        first.starts_with("crates/core/src/sketch.rs:4: L2: "),
        "{first}"
    );
}

#[test]
fn allow_round_trip_suppresses_exactly_the_anchored_lines() {
    let source = include_str!("fixtures/l2_lossy_casts.rs");
    let path = "crates/core/src/sketch.rs";
    let allow_text = r#"
[[allow]]
lint = "L2"
path = "crates/core/src/sketch.rs"
line = 4
reason = "fixture: cast is range-checked one line above"

[[allow]]
lint = "L2"
path = "crates/core/src/sketch.rs"
line = 5
reason = "fixture: widening cast kept for layout parity"
"#;
    let allows = parse_allow(allow_text).expect("fixture allow list parses");
    let outcome = apply_allow(lint_source(path, source), &allows);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    assert_eq!(outcome.suppressed.len(), 2);
    assert!(outcome.unused_allows.is_empty());
    assert!(outcome.is_clean());
}

#[test]
fn stale_allow_entries_fail_the_run() {
    let source = include_str!("fixtures/clean.rs");
    let allows = vec![AllowEntry {
        lint: Lint::L3,
        path: "crates/core/src/signature.rs".to_string(),
        line: 7,
        reason: "fixture: anchored to code that no longer panics".to_string(),
    }];
    let outcome = apply_allow(lint_source("crates/core/src/signature.rs", source), &allows);
    assert!(outcome.violations.is_empty());
    assert_eq!(outcome.unused_allows.len(), 1);
    assert!(!outcome.is_clean(), "stale suppressions must fail the lint");
}

/// Wraps `source` as a workspace file at `path` for [`lint_workspace`].
fn workspace_file(path: &str, source: &str) -> SourceFile {
    SourceFile {
        path: path.to_string(),
        source: source.to_string(),
    }
}

#[test]
fn l6_transitive_hot_path_effects_fire_at_the_effect_line() {
    let files = vec![workspace_file(
        "crates/core/src/sketch.rs",
        include_str!("fixtures/l6_hot_path.rs"),
    )];
    let diags = lint_workspace(&files);
    assert!(diags.iter().all(|v| v.lint == Lint::L6), "{diags:?}");
    // Line 21: `apply` allocates and is reachable from `update`.
    // Line 25: `snapshot` locks and is reachable from `estimate_top_k`.
    // NOT firing: `Vec::with_capacity` on line 26 (query roots may
    // allocate their answer), `Vec::new` inside `ScratchBuffer::new`
    // (constructors are cut points), and `cold_rebuild` (unreachable).
    let lines: Vec<usize> = diags.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![21, 25]);
    assert_eq!(
        diags[0].message,
        "`DistinctCountSketch::apply` is reachable from hot-path root \
         `DistinctCountSketch::update` but allocates (`push`)"
    );
    assert!(
        diags[1]
            .message
            .contains("`DistinctCountSketch::estimate_top_k`")
            && diags[1].message.contains("takes a lock"),
        "{}",
        diags[1].message
    );
}

#[test]
fn l6_test_tree_files_do_not_join_the_call_graph() {
    let files = vec![workspace_file(
        "crates/core/tests/hot.rs",
        include_str!("fixtures/l6_hot_path.rs"),
    )];
    assert_eq!(lint_workspace(&files), Vec::<Violation>::new());
}

#[test]
fn l7_missing_ordering_and_relaxed_fire_at_exact_lines() {
    let source = include_str!("fixtures/l7_atomic_ordering.rs");
    // Line 11: `fetch_add` names no ordering. Line 15: Relaxed outside
    // crates/telemetry. Lines 19-22: ordering wrapped onto a later line
    // is still found (three-line window), so `reset` stays clean.
    assert_eq!(
        fire_lines("crates/core/src/telem.rs", source, Lint::L7),
        vec![11, 15]
    );
}

#[test]
fn l7_relaxed_is_permitted_inside_telemetry() {
    let source = include_str!("fixtures/l7_atomic_ordering.rs");
    // The missing-ordering violation is location-independent; only the
    // Relaxed complaint is waived inside the telemetry crate.
    assert_eq!(
        fire_lines("crates/telemetry/src/counters.rs", source, Lint::L7),
        vec![11]
    );
}

#[test]
fn l7_skips_files_that_use_no_atomics() {
    // `.load(` on a non-atomic receiver (PersistManager-style restore
    // APIs) must not trip the audit: the file-level `Atomic` gate keeps
    // the lint scoped to code that actually touches atomics.
    let source = "//! Inline fixture.\n\npub fn restore(manager: &Manager) -> State {\n    \
                  manager.load(\"checkpoint.dcs\")\n}\n";
    assert_eq!(
        fire_lines("crates/persist/src/manager.rs", source, Lint::L7),
        Vec::<usize>::new()
    );
}

#[test]
fn l10_static_mut_sleep_and_lock_ctors_fire_in_library_code() {
    let source = include_str!("fixtures/l10_concurrency.rs");
    // static mut (3), thread::sleep (6), Mutex::new (10), mpsc::channel (14).
    assert_eq!(
        fire_lines("crates/core/src/tracking.rs", source, Lint::L10),
        vec![3, 6, 10, 14]
    );
}

#[test]
fn l10_allowlisted_modules_and_binaries_keep_their_exemptions() {
    let source = include_str!("fixtures/l10_concurrency.rs");
    // The netsim fan-out layer may construct locks and channels, but
    // static mut and sleep stay banned even there.
    assert_eq!(
        fire_lines("crates/netsim/src/sharded.rs", source, Lint::L10),
        vec![3, 6]
    );
    // The ingest engine is allowlisted for its `mpsc` job queues and
    // `Mutex` shards, under the same residual bans.
    assert_eq!(
        fire_lines("crates/netsim/src/ingest.rs", source, Lint::L10),
        vec![3, 6]
    );
    // Binaries are drivers: they may block and hold locks, but static
    // mut is unsynchronized shared state everywhere.
    assert_eq!(fire_lines("src/bin/dcsmon.rs", source, Lint::L10), vec![3]);
}

#[test]
fn l9_unmatched_error_variants_fire_at_the_construction_site() {
    let lib = workspace_file(
        "crates/core/src/error.rs",
        include_str!("fixtures/l9_error_variants.rs"),
    );
    let tests = workspace_file(
        "tests/errors.rs",
        "//! Coverage for the fixture error enums.\n\n#[test]\nfn invalid_config_is_surfaced() \
         {\n    assert!(matches!(validate(false), Err(SketchError::InvalidConfig { .. })));\n}\n",
    );
    let diags = lint_workspace(&[lib, tests]);
    assert!(diags.iter().all(|v| v.lint == Lint::L9), "{diags:?}");
    // Line 15: SnapshotAhead is never named by a test. Line 23:
    // PersistError::Truncated likewise. NOT firing: InvalidConfig
    // (line 17), which the integration test matches by name.
    let lines: Vec<usize> = diags.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![15, 23]);
    assert!(
        diags[0].message.contains("`SketchError::SnapshotAhead`"),
        "{}",
        diags[0].message
    );
    assert!(
        diags[1].message.contains("`PersistError::Truncated`"),
        "{}",
        diags[1].message
    );
}

#[test]
fn l9_cfg_test_modules_count_as_coverage() {
    let source = "//! Inline fixture.\n\npub enum SketchError {\n    SnapshotAhead,\n}\n\n\
                  pub fn go() -> SketchError {\n    SketchError::SnapshotAhead\n}\n\n\
                  #[cfg(test)]\nmod tests {\n    #[test]\n    fn names_the_variant() {\n        \
                  let _ = super::SketchError::SnapshotAhead;\n    }\n}\n";
    let files = vec![workspace_file("crates/core/src/error.rs", source)];
    assert_eq!(lint_workspace(&files), Vec::<Violation>::new());
}

#[test]
fn lint_root_walks_a_tree_and_anchors_relative_paths() {
    // Build a miniature workspace under target/ (inside the repo, and
    // ignored by the real walker) and run the full pipeline on it.
    let root = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("lint-fixture-{}", std::process::id()));
    let src = root.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("create fixture tree");
    std::fs::write(src.join("lib.rs"), include_str!("fixtures/l3_unwrap.rs"))
        .expect("write fixture lib.rs");
    std::fs::write(src.join("clean.rs"), include_str!("fixtures/clean.rs"))
        .expect("write fixture clean.rs");

    let outcome = lint_root(&root, &[]).expect("lint the fixture tree");
    assert_eq!(outcome.files_checked, 2);
    let rendered: Vec<String> = outcome.violations.iter().map(|v| v.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            "crates/demo/src/lib.rs:4: L3: unwrap/expect in library code; propagate an error \
             or restructure so the invariant is visible (binaries and tests are exempt)",
            "crates/demo/src/lib.rs:8: L3: unwrap/expect in library code; propagate an error \
             or restructure so the invariant is visible (binaries and tests are exempt)",
        ]
    );
    assert!(!outcome.is_clean());

    std::fs::remove_dir_all(&root).expect("clean up fixture tree");
}
