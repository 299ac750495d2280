//! Fixture-driven tests: each rule must fire on its failing fixture and
//! stay silent on its passing one, and the workspace itself must be
//! clean under the full catalog (the same check `tests/lint_gate.rs`
//! enforces in tier-1).

use dlog_lint::rules;
use dlog_lint::SourceFile;

fn fixture(name: &str) -> SourceFile {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    SourceFile::parse(&format!("fixtures/{name}"), &text)
}

#[test]
fn lock_order_fixture_fails() {
    let f = fixture("lock_order_fail.rs");
    let vs = rules::lock_order::check(&[&f]);
    assert!(!vs.is_empty(), "ABBA cycle not detected");
    assert!(vs.iter().all(|v| v.rule == rules::lock_order::RULE));
    assert!(vs[0].message.contains("alpha") && vs[0].message.contains("beta"));
}

#[test]
fn lock_order_fixture_passes() {
    let f = fixture("lock_order_pass.rs");
    let vs = rules::lock_order::check(&[&f]);
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn ack_after_force_fixture_fails() {
    let vs = rules::ack_after_force::check(&fixture("ack_after_force_fail.rs"));
    assert_eq!(vs.len(), 2, "{vs:?}");
    assert!(vs.iter().all(|v| v.rule == rules::ack_after_force::RULE));
    let scopes: Vec<&str> = vs.iter().map(|v| v.scope.as_str()).collect();
    assert_eq!(scopes, ["handle_force", "flush_forces"]);
}

#[test]
fn ack_after_force_fixture_passes() {
    let vs = rules::ack_after_force::check(&fixture("ack_after_force_pass.rs"));
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn blocking_under_lock_fixtures() {
    let vs = rules::blocking_under_lock::check(&fixture("blocking_under_lock_fail.rs"));
    assert_eq!(vs.len(), 2, "{vs:?}");
    assert!(vs.iter().any(|v| v.scope == "hold_across_force"));
    assert!(vs.iter().any(|v| v.scope == "temporary_guard_chain"));
    let vs = rules::blocking_under_lock::check(&fixture("blocking_under_lock_pass.rs"));
    assert!(vs.is_empty(), "{vs:?}");
}

/// The pinned fixture expectations (shared with the tier-1 gate) must
/// hold — a rule edit that changes what the catalog catches is drift.
#[test]
fn fixtures_are_pinned() {
    let dir = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    let checked = dlog_lint::fixtures::verify_fixtures(std::path::Path::new(&dir))
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(checked >= 6, "only {checked} fixture runs checked");
}

/// The workspace itself must be clean: zero violations. This is the
/// same invariant the tier-1 gate (`tests/lint_gate.rs`) enforces from
/// the bench crate.
#[test]
fn workspace_self_check_is_clean() {
    let root = dlog_lint::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let report = dlog_lint::lint_workspace(&root).expect("lint run");
    assert!(
        report.ok(),
        "workspace lint violations:\n{}",
        report.to_text()
    );
}
