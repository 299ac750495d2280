//! Tier-1 gate: the workspace must be clean under `dlog-lint`.
//!
//! One pass runs the full eleven-rule catalog — the three lexical rules
//! (lock-order, ack-after-force, status-parity),
//! the four flow-sensitive rules on the dataflow engine
//! (blocking-under-lock, lsn-checked-arith, seal-typestate,
//! view-escape), the interprocedural rules (hot-path-alloc,
//! unbounded-recursion), and the thread-safety pass
//! (shared-field-lockset, atomics-ordering) — against the repository
//! and fails `cargo test` on any violation not covered by a justified
//! `lint.allow` entry, on stale allowlist entries, on fixture drift
//! (a rule whose pinned pass/fail fixtures no longer behave), and on a
//! blown latency budget. The same report is available interactively via
//! `cargo run -p dlog-lint` (add `--timing` for the per-rule table).
//!
//! Forbid-unsafe, must-use discards and panic-freedom are the
//! compiler's and clippy's (`[workspace.lints]`, the hot-path crate
//! roots' `deny(clippy::…)`); this file keeps only the guarantee that
//! no member can leave the workspace lint table.

use std::fs;
use std::path::Path;
use std::time::Instant;

fn root() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR is crates/bench; walk up to the workspace root.
    dlog_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/bench")
}

#[test]
fn workspace_passes_dlog_lint() {
    let t0 = Instant::now();
    let report = dlog_lint::lint_workspace(&root()).expect("lint run failed");
    let elapsed = t0.elapsed();
    assert!(
        report.ok(),
        "dlog-lint found unallowlisted violations — fix them or add a \
         justified entry to lint.allow:\n{}",
        report.to_text()
    );
    assert!(
        report.unused_allows.is_empty(),
        "stale lint.allow entries (the code they excused is gone — remove \
         them):\n{}",
        report.unused_allows.join("\n")
    );
    // Sanity: the run actually scanned the workspace and every rule ran.
    assert!(report.files_scanned > 20, "suspiciously few files scanned");
    for rule in dlog_lint::rules::ALL_RULES {
        assert!(
            report.timings.iter().any(|t| t.rule == *rule),
            "rule {rule} has no timing entry — did its pass run?"
        );
    }
    // Latency budget: the gate runs on every `cargo test`; the full
    // catalog (CFG construction, dataflow fixpoints, the
    // interprocedural call-graph + summary passes, and the
    // thread-safety lockset fixpoint) must stay interactive. Measured
    // ~200ms debug with the thread-safety pass; 4s leaves ~20x headroom
    // for slow CI machines.
    assert!(
        elapsed.as_secs_f64() < 4.0,
        "full-workspace lint took {elapsed:?} (budget 4s) — see \
         `cargo run -p dlog-lint -- --timing` for the per-rule split"
    );
}

/// The race report must demonstrably cover the PR 8 concurrency
/// surface: the in-memory network's endpoint inbox (`Inbox.q`,
/// `Inbox.sleepers` under `EndpointQueue.inbox`), the receive buffer
/// pool's free list (`BufPool.slots`), and the server supervisor's stop
/// flag (`ShardSupervisor.stop`, read by the one event loop and set from
/// the function that spawns it). If a refactor renames or drops one of
/// these out of the access map, the detector has lost its primary
/// subject and this gate fails before the lint sweep can go quietly
/// blind.
#[test]
fn race_report_covers_the_shared_server_surface() {
    let json = dlog_lint::workspace::build_race_report(&root(), false).expect("race report");
    for needle in [
        "\"name\":\"Inbox\"",
        "\"name\":\"sleepers\"",
        "\"name\":\"q\"",
        "\"name\":\"BufPool\"",
        "\"name\":\"slots\"",
        "\"name\":\"ShardSupervisor\"",
        "ShardSupervisor.stop",
        "crates/server/src/shard.rs::spawn_loops",
    ] {
        assert!(
            json.contains(needle),
            "race report lost `{needle}` — the thread-safety pass no \
             longer sees the sharded-server surface"
        );
    }
}

/// Every rule's pass/fail fixtures must behave exactly as pinned: the
/// fail fixture fires the recorded number of findings, the pass fixture
/// stays silent. This catches a rule edit that silently weakens (or
/// over-tightens) the catalog even when the workspace sweep still
/// passes.
#[test]
fn rule_fixtures_have_not_drifted() {
    let dir = root().join("crates/lint/tests/fixtures");
    let checked = dlog_lint::fixtures::verify_fixtures(&dir).unwrap_or_else(|e| panic!("{e}"));
    assert!(checked >= 23, "only {checked} fixture runs checked");
}

/// The lines of one TOML table (`header` excluded), trimmed.
fn table<'a>(toml: &'a str, header: &str) -> Vec<&'a str> {
    toml.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .collect()
}

/// `unsafe_code = "forbid"` and `unused_must_use = "deny"` bind only the
/// members that opt in to `[workspace.lints]`, so a new crate that
/// forgets `[lints] workspace = true` would compile `unsafe` blocks and
/// silently dropped `Result`s. `crates/alloc` is the one exception: it
/// implements the unsafe `GlobalAlloc` trait under its own `deny` table.
#[test]
fn every_member_inherits_the_workspace_lints() {
    let root = root();
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    let lints = table(&manifest, "[workspace.lints.rust]");
    for want in ["unsafe_code = \"forbid\"", "unused_must_use = \"deny\""] {
        assert!(
            lints.contains(&want),
            "[workspace.lints.rust] lost `{want}`"
        );
    }
    let mut checked = 0;
    for dir in ["crates", "vendor"] {
        for entry in fs::read_dir(root.join(dir)).expect("list members") {
            let path = entry.expect("member entry").path().join("Cargo.toml");
            let Ok(text) = fs::read_to_string(&path) else {
                continue; // vendor/README.md
            };
            checked += 1;
            if path.ends_with("crates/alloc/Cargo.toml") {
                let own = table(&text, "[lints.rust]");
                for want in ["unsafe_code = \"deny\"", "unused_must_use = \"deny\""] {
                    assert!(own.contains(&want), "crates/alloc lost `{want}`");
                }
            } else {
                assert!(
                    table(&text, "[lints]").contains(&"workspace = true"),
                    "{} does not inherit the workspace lints — add `[lints]` \
                     with `workspace = true`",
                    path.display()
                );
            }
        }
    }
    assert!(checked > 10, "only {checked} member manifests found");
}
