//! Workspace driver: locates the repo root, loads the target files for
//! each rule, and runs the catalog in one pass. Every rule is timed
//! individually (`dlog-lint --timing`) so the tier-1 gate's latency
//! budget is observable per rule.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::report::{Report, RuleTiming, Violation};
use crate::rules;
use crate::source::SourceFile;

/// Files scanned for `.lock()` acquisition ordering (rule `lock-order`).
/// Directories contribute every `.rs` file beneath them.
pub const LOCK_ORDER_TARGETS: &[&str] = &[
    "crates/net/src/mem.rs",
    "crates/storage/src/nvram.rs",
    "crates/archive/src/object_store.rs",
    "crates/server/src",
];

/// Directories scanned for the §4.2 write-before-ack heuristic.
pub const ACK_AFTER_FORCE_TARGETS: &[&str] = &["crates/server/src", "crates/storage/src"];

/// Directories scanned for blocking calls under a live mutex guard.
pub const BLOCKING_UNDER_LOCK_TARGETS: &[&str] =
    &["crates/server/src", "crates/storage/src", "crates/net/src"];

/// Walk up from `start` to the workspace root (the directory whose
/// `Cargo.toml` declares `[workspace]`).
///
/// # Errors
/// Returns a message when no ancestor is a workspace root.
pub fn find_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(format!(
                "no workspace root (Cargo.toml with [workspace]) above {}",
                start.display()
            ));
        }
    }
}

/// Loaded and parsed source files, keyed by workspace-relative path.
struct Loader<'a> {
    root: &'a Path,
    files: BTreeMap<String, SourceFile>,
}

impl<'a> Loader<'a> {
    fn new(root: &'a Path) -> Loader<'a> {
        Loader {
            root,
            files: BTreeMap::new(),
        }
    }

    fn load(&mut self, rel: &str) -> Result<&SourceFile, String> {
        if !self.files.contains_key(rel) {
            let text = fs::read_to_string(self.root.join(rel))
                .map_err(|e| format!("cannot read {rel}: {e}"))?;
            self.files
                .insert(rel.to_string(), SourceFile::parse(rel, &text));
        }
        Ok(&self.files[rel])
    }

    /// Every `.rs` file under `rel` (or `rel` itself), sorted.
    fn expand(&self, rel: &str) -> Result<Vec<String>, String> {
        let abs = self.root.join(rel);
        if abs.is_file() {
            return Ok(vec![rel.to_string()]);
        }
        let mut out = Vec::new();
        walk_rs(&abs, &mut out).map_err(|e| format!("cannot walk {rel}: {e}"))?;
        let prefix = self.root.to_path_buf();
        let mut rels: Vec<String> = out
            .into_iter()
            .filter_map(|p| {
                p.strip_prefix(&prefix)
                    .ok()
                    .map(|r| r.to_string_lossy().replace('\\', "/"))
            })
            .collect();
        rels.sort();
        Ok(rels)
    }

    /// Expand, dedup, and load a list of target prefixes.
    fn load_targets(&mut self, targets: &[&str]) -> Result<Vec<String>, String> {
        let mut files = Vec::new();
        for target in targets {
            files.extend(self.expand(target)?);
        }
        files.sort();
        files.dedup();
        for rel in &files {
            self.load(rel)?;
        }
        Ok(files)
    }
}

/// Collect every `.rs` file under `dir` into `out`, skipping `target`
/// and `fixtures` directories.
///
/// # Errors
/// Propagates directory-listing failures.
pub fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            walk_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Run the full rule catalog on the workspace at `root`, in one pass.
///
/// # Errors
/// Returns a message when a target file cannot be read; rule findings
/// are *not* errors — they land in the returned [`Report`].
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let mut loader = Loader::new(root);
    let mut raw: Vec<Violation> = Vec::new();
    let mut timings: Vec<RuleTiming> = Vec::new();

    // Rule 1: lock ordering (cross-file acquisition graph).
    let t0 = Instant::now();
    let lock_files = loader.load_targets(LOCK_ORDER_TARGETS)?;
    let lock_sources: Vec<&SourceFile> = lock_files.iter().map(|r| &loader.files[r]).collect();
    raw.extend(rules::lock_order::check(&lock_sources));
    timings.push(RuleTiming::since(rules::lock_order::RULE, t0));

    // Rule 2: §4.2 force-before-ack, per file.
    let t0 = Instant::now();
    for rel in loader.load_targets(ACK_AFTER_FORCE_TARGETS)? {
        raw.extend(rules::ack_after_force::check(&loader.files[rel.as_str()]));
    }
    timings.push(RuleTiming::since(rules::ack_after_force::RULE, t0));

    // Rule 3: §4.1 no blocking while a guard is live, per file.
    let t0 = Instant::now();
    for rel in loader.load_targets(BLOCKING_UNDER_LOCK_TARGETS)? {
        raw.extend(rules::blocking_under_lock::check(
            &loader.files[rel.as_str()],
        ));
    }
    timings.push(RuleTiming::since(rules::blocking_under_lock::RULE, t0));

    let mut report = Report::build(raw, loader.files.len());
    report.timings = timings;
    Ok(report)
}
