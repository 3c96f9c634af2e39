//! UI tests for `cargo xtask check`: one known-bad fixture per rule, a
//! known-good fixture, allowlist suppression, and the binary's exit
//! code contract.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::missing_panics_doc,
    missing_docs
)]

use std::fs;
use std::path::{Path, PathBuf};

use xtask::{check_source, AllowList, CheckOutcome, Violation, CHECKED_CRATES};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn check_fixture(name: &str, allow: &AllowList) -> Vec<Violation> {
    let source = fs::read_to_string(fixture_dir().join(name)).expect("fixture exists");
    check_source(name, &source, allow)
}

fn active_rules(violations: &[Violation]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = violations
        .iter()
        .filter(|v| !v.allowed)
        .map(|v| v.rule)
        .collect();
    rules.dedup();
    rules
}

#[test]
fn bad_no_panic_trips_only_that_rule() {
    let violations = check_fixture("bad_no_panic.rs", &AllowList::empty());
    assert_eq!(active_rules(&violations), vec!["no-panic"]);
    // Both the `expect` and the `panic!` are caught; the test-module
    // unwrap is not.
    assert_eq!(violations.len(), 2, "{violations:?}");
    assert!(violations.iter().all(|v| v.line < 12));
}

#[test]
fn bad_float_eq_trips_only_that_rule() {
    let violations = check_fixture("bad_float_eq.rs", &AllowList::empty());
    assert_eq!(active_rules(&violations), vec!["float-eq"]);
    assert_eq!(violations.len(), 2, "{violations:?}");
}

#[test]
fn bad_wall_clock_trips_only_that_rule() {
    let violations = check_fixture("bad_wall_clock.rs", &AllowList::empty());
    assert_eq!(active_rules(&violations), vec!["wall-clock"]);
    // Two Instant::now calls and one SystemTime; the test-module
    // Instant::now is not counted.
    assert_eq!(violations.len(), 3, "{violations:?}");
}

#[test]
fn wall_clock_respects_sanctioned_paths() {
    let source = fs::read_to_string(fixture_dir().join("bad_wall_clock.rs")).unwrap();
    // The same code under the recorder's path is the module contract.
    let violations = check_source("crates/obs/src/recorder.rs", &source, &AllowList::empty());
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn bad_unseeded_rng_trips_only_that_rule() {
    let violations = check_fixture("bad_unseeded_rng.rs", &AllowList::empty());
    assert_eq!(active_rules(&violations), vec!["unseeded-rng"]);
    // thread_rng, rand::random and RandomState.
    assert_eq!(violations.len(), 3, "{violations:?}");
}

#[test]
fn bad_float_reduction_trips_only_that_rule() {
    let violations = check_fixture("bad_float_reduction.rs", &AllowList::empty());
    assert_eq!(active_rules(&violations), vec!["float-reduction"]);
    // Turbofish sum, let-typed sum, float fold.
    assert_eq!(violations.len(), 3, "{violations:?}");
}

#[test]
fn float_reduction_exempts_the_kernel_module() {
    let source = fs::read_to_string(fixture_dir().join("bad_float_reduction.rs")).unwrap();
    let violations = check_source("crates/geo/src/kernel.rs", &source, &AllowList::empty());
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn bad_unordered_iter_trips_only_that_rule() {
    let violations = check_fixture("bad_unordered_iter.rs", &AllowList::empty());
    assert_eq!(active_rules(&violations), vec!["unordered-iter"]);
    // The bare collect and the order-sensitive loop body.
    assert_eq!(violations.len(), 2, "{violations:?}");
    assert!(violations[0].snippet.contains("collect"));
}

#[test]
fn good_analysis_fixtures_are_clean() {
    for name in [
        "good_wall_clock.rs",
        "good_unseeded_rng.rs",
        "good_float_reduction.rs",
        "good_unordered_iter.rs",
    ] {
        let violations = check_fixture(name, &AllowList::empty());
        assert!(violations.is_empty(), "{name}: {violations:?}");
    }
}

#[test]
fn bad_errors_doc_trips_only_that_rule() {
    let violations = check_fixture("bad_errors_doc.rs", &AllowList::empty());
    assert_eq!(active_rules(&violations), vec!["errors-doc"]);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].snippet.contains("parse_share"));
}

#[test]
fn good_fixture_is_clean() {
    let violations = check_fixture("good.rs", &AllowList::empty());
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn allowlist_suppresses_matched_findings_only() {
    let allow = AllowList::parse(
        r#"
[[allow]]
rule = "no-panic"
path = "bad_no_panic.rs"
contains = "expect"
reason = "fixture: demonstrates suppression"
"#,
    )
    .expect("allowlist parses");
    let violations = check_fixture("bad_no_panic.rs", &allow);
    let allowed: Vec<&Violation> = violations.iter().filter(|v| v.allowed).collect();
    assert_eq!(allowed.len(), 1);
    assert!(allowed[0].snippet.contains("expect"));
    // The panic! finding is NOT suppressed.
    assert_eq!(active_rules(&violations), vec!["no-panic"]);
    assert_eq!(violations.len(), 2);
}

/// End-to-end exit-code contract: the binary exits 1 on a violation,
/// 0 on a clean tree, and the JSON report lands where asked.
#[test]
fn binary_exit_codes_and_report() {
    let scratch = std::env::temp_dir().join(format!("xtask-ui-{}", std::process::id()));
    let _ = fs::remove_dir_all(&scratch);

    // A fake workspace: every checked crate present, one carrying a
    // bad fixture, the rest carrying the good one.
    let good = fs::read_to_string(fixture_dir().join("good.rs")).unwrap();
    let bad = fs::read_to_string(fixture_dir().join("bad_no_panic.rs")).unwrap();
    for krate in CHECKED_CRATES {
        let src = scratch.join("crates").join(krate).join("src");
        fs::create_dir_all(&src).unwrap();
        fs::write(src.join("lib.rs"), &good).unwrap();
    }
    fs::write(scratch.join("crates/geo/src/panicky.rs"), &bad).unwrap();

    let json = scratch.join("check.json");
    let sarif = scratch.join("check.sarif");
    let run = |root: &Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args([
                "check",
                "--quiet",
                "--root",
                &root.display().to_string(),
                "--json",
                &json.display().to_string(),
                "--sarif",
                &sarif.display().to_string(),
            ])
            .output()
            .expect("binary runs")
    };

    let out = run(&scratch);
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let report = fs::read_to_string(&json).unwrap();
    assert!(report.contains("\"rule\": \"no-panic\""));
    assert!(report.contains("panicky.rs"));
    let sarif_doc = fs::read_to_string(&sarif).unwrap();
    assert!(sarif_doc.contains("\"version\":\"2.1.0\""));
    assert!(sarif_doc.contains("\"ruleId\":\"no-panic\""));
    assert!(sarif_doc.contains("panicky.rs"));

    // An allowlist covering both findings turns the tree clean; in
    // SARIF they downgrade to suppressed notes.
    fs::write(
        scratch.join("xtask-allow.toml"),
        "[[allow]]\nrule = \"no-panic\"\npath = \"panicky.rs\"\nreason = \"fixture\"\n",
    )
    .unwrap();
    let out = run(&scratch);
    assert_eq!(out.status.code(), Some(0), "allowlisted tree must exit 0");
    let report = fs::read_to_string(&json).unwrap();
    assert!(report.contains("\"allowed\": true"));
    let sarif_doc = fs::read_to_string(&sarif).unwrap();
    assert!(sarif_doc.contains("\"suppressions\""));

    // An allowlist entry matching nothing is itself a violation.
    fs::write(
        scratch.join("xtask-allow.toml"),
        "[[allow]]\nrule = \"no-panic\"\npath = \"panicky.rs\"\nreason = \"fixture\"\n\n\
         [[allow]]\nrule = \"wall-clock\"\npath = \"nonexistent.rs\"\nreason = \"stale\"\n",
    )
    .unwrap();
    let out = run(&scratch);
    assert_eq!(out.status.code(), Some(1), "stale allow entry must exit 1");
    let report = fs::read_to_string(&json).unwrap();
    assert!(report.contains("\"rule\": \"allow-stale\""));
    assert!(report.contains("nonexistent.rs"));

    let _ = fs::remove_dir_all(&scratch);
}

/// The real repository is clean: guards against regressions landing
/// violations without updating the allowlist.
#[test]
fn repository_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let allow = xtask::load_allowlist(root).expect("allowlist loads");
    let outcome: CheckOutcome = xtask::check_workspace(root, &allow).expect("tree scans");
    assert!(
        outcome.is_clean(),
        "xtask check found violations: {:?}",
        outcome.active().collect::<Vec<_>>()
    );
    assert!(outcome.files_checked > 50);
}
