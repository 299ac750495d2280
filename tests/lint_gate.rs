//! Tier-1 guards on the workspace's compiler-checked invariants.
//!
//! Most invariants are the compiler's: `[workspace.lints]` forbids
//! `unsafe`, denies dropped `Result`s and functions that can only
//! recurse; clippy denies panics on the hot-path crates; a forced
//! `NewHighLSN` needs the `Durable` token only `LogStore::force_batch`
//! makes; and debug builds check the `Rank` order of every ranked lock
//! on each acquire, and that no ranked lock is held across a blocking
//! call (`dlog_types::lock`). This file keeps what those checks rest
//! on: no member can leave the workspace lint table, release builds
//! keep their overflow checks, and no source opts out of the
//! compiler's thread-safety proof.

use std::fs;
use std::path::PathBuf;

/// The workspace root: this test builds as part of `crates/bench`.
fn root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
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
/// reach `T`. The proof has one precondition: no member may hand-write
/// `unsafe impl Send`/`Sync`. In every member that inherits
/// `unsafe_code = "forbid"`, an `unsafe impl` and any
/// `allow(unsafe_code)` that would admit one are build errors (E0453),
/// so only `crates/alloc`, whose own table only denies it, needs a
/// look: its one `allow(unsafe_code)` must stay on its `GlobalAlloc`
/// impl, and it may claim `Send` or `Sync` for nothing. Comment lines
/// do not count.
#[test]
fn unsafe_code_stays_on_the_global_allocator() {
    let src = root().join("crates/alloc/src");
    let mut code = String::new();
    for entry in fs::read_dir(&src).expect("list crates/alloc/src") {
        let path = entry.expect("source entry").path();
        let text = fs::read_to_string(&path).expect("read source");
        for line in text.lines().filter(|l| !l.trim_start().starts_with("//")) {
            code.push_str(line);
            code.push('\n');
        }
    }
    let mut allows = Vec::new();
    for attr in ["allow(", "expect("] {
        for (at, _) in code.match_indices(attr) {
            let Some(close) = code[at..].find(")]") else {
                continue;
            };
            if code[at..at + close].contains("unsafe_code") {
                let item = code[at + close + 2..].split_whitespace().take(3);
                allows.push(item.collect::<Vec<_>>().join(" "));
            }
        }
    }
    assert_eq!(
        allows,
        ["unsafe impl GlobalAlloc"],
        "crates/alloc's only allow(unsafe_code) must be the one on its GlobalAlloc impl"
    );
    for (at, _) in code.match_indices("unsafe impl") {
        let header = code[at..].split('{').next().unwrap_or_default();
        let words: Vec<&str> = header.split_whitespace().collect();
        assert!(
            !words
                .windows(2)
                .any(|w| (w[0].ends_with("Send") || w[0].ends_with("Sync")) && w[1] == "for"),
            "hand-written `{header}` voids the compiler's data-race proof"
        );
    }
}
