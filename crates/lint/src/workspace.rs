//! Workspace driver: locates the repo root, loads the target files for
//! each rule, runs the catalog — lexical and dataflow rules in one pass
//! — and applies `lint.allow`. Every rule is timed individually
//! (`dlog-lint --timing`) so the tier-1 gate's latency budget is
//! observable per rule.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::allow::Allowlist;
use crate::callgraph::CallGraph;
use crate::dataflow::{self, DataflowRule};
use crate::report::{Report, RuleTiming, Violation};
use crate::rules;
use crate::source::SourceFile;
use crate::summary::{self, Summaries};

/// Crates whose `src/` trees no input may crash: no confident call cycle
/// may touch them (rule `unbounded-recursion`). `archive` runs in the
/// server idle loop (`archive_tick`), so it is a hot-path crate too.
/// Panic-freedom on the same crates is clippy's job: each crate root
/// denies `clippy::{unwrap_used, expect_used, panic, indexing_slicing}`
/// outside tests, and CI runs clippy with `-D warnings`.
pub const HOT_PATH_CRATES: &[&str] = &[
    "crates/server/src",
    "crates/net/src",
    "crates/storage/src",
    "crates/append-forest/src",
    "crates/obs/src",
    "crates/mc/src",
    "crates/archive/src",
];

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

/// The flow-sensitive rules, run on the CFG/dataflow engine.
fn dataflow_rules() -> [&'static dyn DataflowRule; 3] {
    [
        &rules::blocking_under_lock::BlockingUnderLock,
        &rules::lsn_checked_arith::LsnCheckedArith,
        &rules::seal_typestate::SealTypestate,
    ]
}

/// Load every `crates/*/src` tree, compute the crate dependency
/// closure from the workspace manifests, and build the call graph plus
/// bottom-up summaries over it.
fn interprocedural_pass(
    root: &Path,
    loader: &mut Loader<'_>,
) -> Result<(CallGraph, Summaries), String> {
    let mut targets: Vec<String> = Vec::new();
    for entry in
        fs::read_dir(root.join("crates")).map_err(|e| format!("cannot list crates/: {e}"))?
    {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.path().join("src").is_dir() {
            targets.push(format!(
                "crates/{}/src",
                entry.file_name().to_string_lossy()
            ));
        }
    }
    targets.sort();
    let target_refs: Vec<&str> = targets.iter().map(String::as_str).collect();
    let rels = loader.load_targets(&target_refs)?;
    let files: Vec<&SourceFile> = rels.iter().map(|r| &loader.files[r.as_str()]).collect();
    let deps = dep_closure(root)?;
    let graph = CallGraph::build(&files, &deps);
    let summaries = summary::compute(&graph, &files);
    Ok((graph, summaries))
}

/// Build the interprocedural structures alone — the `--callgraph`
/// subcommand's entry point.
///
/// # Errors
/// Returns a message when sources or manifests cannot be read.
pub fn build_callgraph(root: &Path) -> Result<(CallGraph, Summaries), String> {
    let mut loader = Loader::new(root);
    interprocedural_pass(root, &mut loader)
}

/// Per-crate dependency closure (crate *directory* names, including the
/// crate itself), parsed from each `crates/*/Cargo.toml` — package
/// names under `[package]`, direct deps under `[dependencies]`, then a
/// transitive closure. Crates without a manifest (fixture workspaces)
/// are simply absent, which the call graph treats as "may call any".
fn dep_closure(root: &Path) -> Result<BTreeMap<String, BTreeSet<String>>, String> {
    let mut manifests: BTreeMap<String, String> = BTreeMap::new();
    let mut pkg_to_dir: BTreeMap<String, String> = BTreeMap::new();
    for entry in
        fs::read_dir(root.join("crates")).map_err(|e| format!("cannot list crates/: {e}"))?
    {
        let entry = entry.map_err(|e| e.to_string())?;
        let dir = entry.file_name().to_string_lossy().to_string();
        let Ok(text) = fs::read_to_string(entry.path().join("Cargo.toml")) else {
            continue;
        };
        let mut section = "";
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                section = line;
            } else if section == "[package]" && line.starts_with("name") {
                if let Some(name) = line.split('"').nth(1) {
                    pkg_to_dir.insert(name.to_string(), dir.clone());
                }
            }
        }
        manifests.insert(dir, text);
    }
    let mut closure: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (dir, text) in &manifests {
        let mut deps: BTreeSet<String> = BTreeSet::new();
        deps.insert(dir.clone());
        let mut in_deps = false;
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_deps = line == "[dependencies]";
            } else if in_deps && !line.is_empty() && !line.starts_with('#') {
                if let Some(name) = line.split(['=', ' ', '\t', '.']).next() {
                    if let Some(d) = pkg_to_dir.get(name.trim()) {
                        deps.insert(d.clone());
                    }
                }
            }
        }
        closure.insert(dir.clone(), deps);
    }
    // Transitive closure to a fixpoint (the graph is tiny).
    loop {
        let mut changed = false;
        let dirs: Vec<String> = closure.keys().cloned().collect();
        for dir in &dirs {
            let cur = closure[dir].clone();
            let mut next = cur.clone();
            for d in &cur {
                if let Some(dd) = closure.get(d) {
                    next.extend(dd.iter().cloned());
                }
            }
            if next.len() != cur.len() {
                closure.insert(dir.clone(), next);
                changed = true;
            }
        }
        if !changed {
            return Ok(closure);
        }
    }
}

/// Run the full rule catalog — lexical and dataflow — on the workspace
/// at `root`, in one pass.
///
/// # Errors
/// Returns a message when a target file cannot be read or `lint.allow`
/// is malformed (including entries naming unknown rules); rule findings
/// are *not* errors — they land in the returned [`Report`].
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let allow_text = fs::read_to_string(root.join("lint.allow")).unwrap_or_default();
    let allows = Allowlist::parse(&allow_text)?;
    for e in allows.entries() {
        if !rules::ALL_RULES.contains(&e.rule.as_str()) {
            return Err(format!(
                "lint.allow:{}: unknown rule `{}` (known: {})",
                e.line,
                e.rule,
                rules::ALL_RULES.join(", ")
            ));
        }
    }
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

    // Rule 3: Status / PROTOCOL.md parity.
    let t0 = Instant::now();
    let doc_rel = "docs/PROTOCOL.md";
    let doc_text = fs::read_to_string(root.join(doc_rel))
        .map_err(|e| format!("cannot read {doc_rel}: {e}"))?;
    raw.extend(rules::status_parity::check(
        loader.load("crates/net/src/wire.rs")?,
        doc_rel,
        &doc_text,
    ));
    timings.push(RuleTiming::since(rules::status_parity::RULE, t0));

    // Flow-sensitive rules on the dataflow engine, one timed pass each.
    for rule in dataflow_rules() {
        let t0 = Instant::now();
        for rel in loader.load_targets(rule.targets())? {
            raw.extend(dataflow::run_rule(rule, &loader.files[rel.as_str()]));
        }
        timings.push(RuleTiming::since(rule.rule(), t0));
    }

    // Interprocedural layer: workspace call graph + bottom-up summaries
    // (see `callgraph`/`summary`), then the promoted rule and the two
    // summary-based rules.
    let t0 = Instant::now();
    let (graph, summaries) = interprocedural_pass(root, &mut loader)?;
    timings.push(RuleTiming::since("callgraph", t0));

    let t0 = Instant::now();
    let ipa = rules::blocking_under_lock::BlockingUnderLockIpa::new(&graph, &summaries);
    for rel in loader.load_targets(ipa.targets())? {
        raw.extend(dataflow::run_rule(&ipa, &loader.files[rel.as_str()]));
    }
    timings.push(RuleTiming::since(
        "blocking-under-lock (interprocedural)",
        t0,
    ));

    let t0 = Instant::now();
    raw.extend(rules::hot_path_alloc::check(
        &graph,
        &summaries,
        rules::hot_path_alloc::HOT_ALLOC_ROOTS,
    ));
    timings.push(RuleTiming::since(rules::hot_path_alloc::RULE, t0));

    let t0 = Instant::now();
    raw.extend(rules::unbounded_recursion::check(&graph, HOT_PATH_CRATES));
    timings.push(RuleTiming::since(rules::unbounded_recursion::RULE, t0));

    let files_scanned = loader.files.len() + 1; // + PROTOCOL.md
    let mut report = Report::build(raw, &allows, files_scanned);
    report.timings = timings;
    Ok(report)
}
