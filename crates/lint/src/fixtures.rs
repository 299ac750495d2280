//! Fixture-drift verification: every rule must fire on its failing
//! fixture (with the pinned violation count) and stay silent on its
//! passing one. `crates/lint/tests/rules.rs` runs this in the crate's
//! own suite, and the tier-1 gate (`tests/lint_gate.rs`) runs it again
//! from outside — so a rule edit that silently changes what the catalog
//! catches fails the gate even if the workspace sweep still looks clean.

use std::fs;
use std::path::Path;

use crate::report::Violation;
use crate::rules;
use crate::source::SourceFile;

/// How many findings a fixture run must produce.
enum Expect {
    /// Zero findings (a passing fixture).
    Clean,
    /// Exactly this many findings (a failing fixture).
    Exactly(usize),
}

/// One fixture check outcome accumulator.
struct Drift {
    checked: usize,
    problems: Vec<String>,
}

impl Drift {
    fn record(&mut self, label: &str, rule: &str, vs: &[Violation], want: &Expect) {
        self.checked += 1;
        if let Some(bad) = vs.iter().find(|v| v.rule != rule) {
            self.problems.push(format!(
                "{label}: finding tagged `{}` from a `{rule}` run",
                bad.rule
            ));
        }
        match want {
            Expect::Clean if !vs.is_empty() => self.problems.push(format!(
                "{label}: passing fixture produced {} finding(s): {}",
                vs.len(),
                vs.iter()
                    .map(|v| v.message.as_str())
                    .collect::<Vec<_>>()
                    .join("; ")
            )),
            Expect::Exactly(n) if vs.len() != *n => self.problems.push(format!(
                "{label}: expected {n} finding(s), got {}: {:?}",
                vs.len(),
                vs.iter().map(|v| &v.message).collect::<Vec<_>>()
            )),
            _ => {}
        }
    }
}

/// Parse a fixture under a synthetic hot-path label so path-gated rules
/// treat it as in-scope.
fn parse(dir: &Path, name: &str) -> Result<SourceFile, String> {
    let text = fs::read_to_string(dir.join(name))
        .map_err(|e| format!("cannot read fixture {name}: {e}"))?;
    Ok(SourceFile::parse(
        &format!("crates/storage/src/{name}"),
        &text,
    ))
}

/// Verify every rule's fixtures under `dir`
/// (`crates/lint/tests/fixtures`). Returns the number of fixture runs
/// checked.
///
/// # Errors
/// Returns a message listing every drifted fixture, or an I/O error
/// when a fixture file is missing — a deleted fixture is drift too.
pub fn verify_fixtures(dir: &Path) -> Result<usize, String> {
    let mut drift = Drift {
        checked: 0,
        problems: Vec::new(),
    };

    drift.record(
        "lock_order_fail.rs",
        rules::lock_order::RULE,
        &rules::lock_order::check(&[&parse(dir, "lock_order_fail.rs")?]),
        &Expect::Exactly(1),
    );
    drift.record(
        "lock_order_pass.rs",
        rules::lock_order::RULE,
        &rules::lock_order::check(&[&parse(dir, "lock_order_pass.rs")?]),
        &Expect::Clean,
    );
    drift.record(
        "ack_after_force_fail.rs",
        rules::ack_after_force::RULE,
        &rules::ack_after_force::check(&parse(dir, "ack_after_force_fail.rs")?),
        &Expect::Exactly(2),
    );
    drift.record(
        "ack_after_force_pass.rs",
        rules::ack_after_force::RULE,
        &rules::ack_after_force::check(&parse(dir, "ack_after_force_pass.rs")?),
        &Expect::Clean,
    );

    drift.record(
        "blocking_under_lock_fail.rs",
        rules::blocking_under_lock::RULE,
        &rules::blocking_under_lock::check(&parse(dir, "blocking_under_lock_fail.rs")?),
        &Expect::Exactly(2),
    );
    drift.record(
        "blocking_under_lock_pass.rs",
        rules::blocking_under_lock::RULE,
        &rules::blocking_under_lock::check(&parse(dir, "blocking_under_lock_pass.rs")?),
        &Expect::Clean,
    );

    if drift.problems.is_empty() {
        Ok(drift.checked)
    } else {
        Err(format!(
            "fixture drift ({} problem(s)):\n  {}",
            drift.problems.len(),
            drift.problems.join("\n  ")
        ))
    }
}
