//! Integration tests for the `dlog-lint` binary: exit codes are pinned
//! (0 clean / 1 violations / 2 usage-or-IO error), the `--json` schema
//! is snapshotted byte-for-byte against a deterministic mini workspace,
//! and `--timing` renders the per-rule table without corrupting JSON
//! output.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A blocking-under-lock violation at a pinned line for the snapshot test.
const BAD_RS: &str =
    "fn sloppy(&mut self) {\n    let g = self.state.lock();\n    self.dev.force(g.high);\n}\n";

fn write(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, text).unwrap();
}

/// Build, under a fresh temp directory, a minimal workspace containing
/// every file `lint_workspace` requires, crafted so the whole catalog
/// passes.
fn mini_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dlog-lint-bin-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    write(&root, "Cargo.toml", "[workspace]\nmembers = []\n");
    write(&root, "crates/net/src/mem.rs", "// no locks here\n");
    write(&root, "crates/storage/src/nvram.rs", "// no locks here\n");
    write(
        &root,
        "crates/archive/src/object_store.rs",
        "// no locks here\n",
    );
    fs::create_dir_all(root.join("crates/server/src")).unwrap();
    root
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dlog-lint"))
        .args(args)
        .output()
        .expect("spawn dlog-lint")
}

fn run_at(root: &Path, extra: &[&str]) -> Output {
    let mut args = vec!["--root", root.to_str().unwrap()];
    args.extend_from_slice(extra);
    run(&args)
}

#[test]
fn exit_zero_on_clean_workspace() {
    let root = mini_workspace("clean");
    let out = run_at(&root, &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn exit_one_on_violations() {
    let root = mini_workspace("dirty");
    write(&root, "crates/storage/src/bad.rs", BAD_RS);
    let out = run_at(&root, &[]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("blocking-under-lock"), "stdout: {text}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn exit_two_on_usage_error() {
    assert_eq!(run(&["--bogus"]).status.code(), Some(2));
    assert_eq!(run(&["--root"]).status.code(), Some(2));
}

#[test]
fn retired_callgraph_flags_are_unknown() {
    for flag in ["--callgraph", "--dot"] {
        let out = run(&[flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"));
    }
}

#[test]
fn exit_two_on_io_error() {
    let out = run(&["--root", "/nonexistent/dlog-lint-missing"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stderr).is_empty());
}

#[test]
fn json_schema_snapshot_clean() {
    let root = mini_workspace("json-clean");
    let out = run_at(&root, &["--json"]);
    assert_eq!(out.status.code(), Some(0));
    let expected = "{\n  \"ok\": true,\n  \"files_scanned\": 3,\n  \"violations\": []\n}\n";
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn json_schema_snapshot_violation() {
    let root = mini_workspace("json-dirty");
    write(&root, "crates/storage/src/bad.rs", BAD_RS);
    let out = run_at(&root, &["--json"]);
    assert_eq!(out.status.code(), Some(1));
    let expected = concat!(
        "{\n",
        "  \"ok\": false,\n",
        "  \"files_scanned\": 4,\n",
        "  \"violations\": [\n",
        "    {\"rule\": \"blocking-under-lock\", \"file\": \"crates/storage/src/bad.rs\", ",
        "\"line\": 3, \"scope\": \"sloppy\", \"message\": \"blocking call `.force()` while \
         mutex guard `g` (acquired line 2) is held; finish the critical section or drop the \
         guard first (\u{a7}4.1)\"}\n",
        "  ]\n",
        "}\n",
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn timing_flag_prints_all_rules() {
    let root = mini_workspace("timing");
    let out = run_at(&root, &["--timing"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("per-rule wall time"), "stdout: {text}");
    for rule in dlog_lint::rules::ALL_RULES {
        assert!(text.contains(rule), "missing timing row for {rule}: {text}");
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn json_with_timing_keeps_stdout_parseable() {
    let root = mini_workspace("json-timing");
    let out = run_at(&root, &["--json", "--timing"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with('{') && stdout.trim_end().ends_with('}'));
    assert!(!stdout.contains("per-rule wall time"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("per-rule wall time"));
    let _ = fs::remove_dir_all(&root);
}
