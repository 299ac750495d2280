//! Tier-1 gate: the workspace must be clean under `dlog-lint`.
//!
//! One pass runs the full three-rule catalog, each rule a token walk —
//! lock-order, ack-after-force and blocking-under-lock — against the
//! repository and fails `cargo test` on any violation, on fixture drift
//! (a rule whose pinned pass/fail fixtures no longer behave), and on a
//! blown latency budget. The same report is available interactively via
//! `cargo run -p dlog-lint` (add `--timing` for the per-rule table).
//!
//! Forbid-unsafe, must-use discards, unconditional recursion,
//! panic-freedom, thread safety and integer wraparound are the
//! compiler's and clippy's (`[workspace.lints]`, the hot-path crate
//! roots' `deny(clippy::…)`, `Send`/`Sync` and `Mutex<T>`, and
//! `overflow-checks` in every profile); this file keeps only the
//! guarantees that no member can leave the workspace lint table, that
//! release builds keep their overflow checks, and that no source can opt
//! out of the compiler's thread-safety proof. Hot-path
//! allocation is counted, not linted: `dlog-server`'s and `dlog-core`'s
//! tests pin allocations per packet, per read request and per commit.
//! `docs/PROTOCOL.md`'s tag, Status and Stats tables are kept in step
//! with the codec table by a unit test in `crates/net/src/wire.rs`, and
//! `SegmentedStream::write_at` refuses a write below the archived
//! watermark.

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
        "dlog-lint found violations — fix them in code (docs/LINT.md, \
         \"Resolving a finding\"):\n{}",
        report.to_text()
    );
    // Sanity: the run actually scanned the workspace (19 target files)
    // and every rule ran.
    assert!(report.files_scanned >= 19, "suspiciously few files scanned");
    for rule in dlog_lint::rules::ALL_RULES {
        assert!(
            report.timings.iter().any(|t| t.rule == *rule),
            "rule {rule} has no timing entry — did its pass run?"
        );
    }
    // Latency budget: the gate runs on every `cargo test`; the full
    // catalog (three token walks over 19 files) must stay interactive.
    // Measured ~50ms debug; 4s leaves ~80x headroom for slow CI machines.
    assert!(
        elapsed.as_secs_f64() < 4.0,
        "full-workspace lint took {elapsed:?} (budget 4s) — see \
         `cargo run -p dlog-lint -- --timing` for the per-rule split"
    );
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
    assert!(checked >= 6, "only {checked} fixture runs checked");
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

/// §3.1.2's highest-epoch-wins merge and §4.2's δ rewrite hold only while
/// LSNs and epochs never wrap. Debug builds already trap integer
/// overflow; `overflow-checks = true` makes every release binary of the
/// workspace fail stop instead of wrapping too, for every integer, not
/// only the LSN-shaped ones a lint could name.
#[test]
fn release_builds_keep_overflow_checks() {
    let manifest = fs::read_to_string(root().join("Cargo.toml")).expect("root Cargo.toml");
    assert!(
        table(&manifest, "[profile.release]").contains(&"overflow-checks = true"),
        "[profile.release] lost `overflow-checks = true`"
    );
}

/// `unsafe_code = "forbid"`, `unused_must_use = "deny"` and
/// `unconditional_recursion = "deny"` bind only the members that opt in
/// to `[workspace.lints]`, so a new crate that forgets
/// `[lints] workspace = true` would compile `unsafe` blocks, silently
/// dropped `Result`s and functions that can only recurse. `crates/alloc`
/// is the one exception: it implements the unsafe `GlobalAlloc` trait
/// under its own `deny` table.
#[test]
fn every_member_inherits_the_workspace_lints() {
    let root = root();
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    let lints = table(&manifest, "[workspace.lints.rust]");
    for want in [
        "unsafe_code = \"forbid\"",
        "unused_must_use = \"deny\"",
        "unconditional_recursion = \"deny\"",
    ] {
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
                for want in [
                    "unsafe_code = \"deny\"",
                    "unused_must_use = \"deny\"",
                    "unconditional_recursion = \"deny\"",
                ] {
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

/// Safe Rust proves what a race detector would: `Send`/`Sync` decide
/// what may cross threads and `Mutex<T>` makes the lock the only way to
/// reach `T`. The proof has one precondition — no member may hand-write
/// `unsafe impl Send`/`Sync`. `unsafe_code = "forbid"` rules that out
/// everywhere but `crates/alloc`, whose own table only denies it, so
/// the workspace's one `allow(unsafe_code)` must stay on its
/// `GlobalAlloc` impl and no source may claim `Send` or `Sync` by hand.
/// Scanned on the lexer's token stream, so comments and strings that
/// mention either pattern do not count.
#[test]
fn unsafe_code_stays_on_the_global_allocator() {
    let root = root();
    let mut files = Vec::new();
    for dir in ["crates", "vendor"] {
        for entry in fs::read_dir(root.join(dir)).expect("list members") {
            let src = entry.expect("member entry").path().join("src");
            if src.is_dir() {
                dlog_lint::workspace::walk_rs(&src, &mut files).expect("walk sources");
            }
        }
    }
    let mut allows = Vec::new();
    let mut manual_impls = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).expect("read source");
        let rel = path.strip_prefix(&root).expect("under root").display();
        let toks = dlog_lint::lexer::lex(&text);
        for (i, t) in toks.iter().enumerate() {
            let next = |k: usize| toks.get(i + k).map_or("", |t| t.text.as_str());
            // `allow(…unsafe_code…)` / `expect(…unsafe_code…)`, any position
            // in the list; record the item after the attribute's `)]`.
            if (t.is("allow") || t.is("expect")) && next(1) == "(" {
                let close = toks[i..].iter().position(|t| t.is(")")).unwrap_or(0);
                if toks[i..i + close].iter().any(|t| t.is("unsafe_code")) {
                    let item: Vec<&str> = (close + 2..close + 5).map(next).collect();
                    allows.push(format!("{rel}:{} {}", t.line, item.join(" ")));
                }
            }
            // `unsafe impl … Send for` / `… Sync for`, paths and generics
            // included: scan the impl header up to its body.
            if t.is("unsafe") && next(1) == "impl" {
                let header = toks[i..].iter().take_while(|t| !t.is("{"));
                let header: Vec<&str> = header.map(|t| t.text.as_str()).collect();
                if header
                    .windows(2)
                    .any(|w| matches!(w[0], "Send" | "Sync") && w[1] == "for")
                {
                    manual_impls.push(format!("{rel}:{}", t.line));
                }
            }
        }
    }
    assert!(
        files.len() > 100,
        "only {} source files scanned",
        files.len()
    );
    assert!(
        allows.len() == 1
            && allows[0].starts_with("crates/alloc/src/lib.rs:")
            && allows[0].ends_with(" unsafe impl GlobalAlloc"),
        "the only allow(unsafe_code) must be the one on crates/alloc's \
         GlobalAlloc impl; found: {allows:?}"
    );
    assert!(
        manual_impls.is_empty(),
        "hand-written `unsafe impl Send`/`Sync` voids the compiler's \
         data-race proof: {manual_impls:?}"
    );
}
