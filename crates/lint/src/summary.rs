//! Bottom-up function summaries over the call-graph condensation.
//!
//! For every workspace function the analysis computes a small effect
//! summary — *may block*, *forces*, *acquired locks*, *direct
//! allocation sites* — seeded from the same token heuristics the
//! intraprocedural rules already use, then propagated caller-ward to a
//! fixpoint over the SCC condensation ([`CallGraph::sccs`] is in
//! callees-first order, so one inner fixpoint per SCC suffices).
//!
//! Each propagated property carries a [`Cause`] chain, so a violation
//! can print the full call-chain witness:
//! `ingest → append_frame → `.sync_data()` (crates/…/stream.rs:41)`.

use std::collections::BTreeSet;

use crate::callgraph::{CallGraph, FnId};
use crate::rules::blocking_under_lock;
use crate::source::SourceFile;

/// Why a propagated property holds for a function.
#[derive(Clone, Debug)]
pub enum Cause {
    /// The function itself contains the effect.
    Direct {
        /// Short description of the site (`` `.force()` ``, `` `File::open` ``).
        what: String,
        /// 1-based line of the site in the function's file.
        line: u32,
    },
    /// The effect flows in from a callee.
    Call {
        /// The callee the effect was inherited from.
        callee: FnId,
        /// 1-based line of the call site.
        line: u32,
    },
}

/// One direct allocation site inside a function body.
#[derive(Clone, Debug)]
pub struct AllocSite {
    /// Allocation kind (`Vec::new`, `clone`, `format!`, …).
    pub kind: &'static str,
    /// 1-based line.
    pub line: u32,
}

/// The effect summary of one function.
#[derive(Clone, Debug, Default)]
pub struct FnSummary {
    /// The function may block on a device or peer, and why.
    pub may_block: Option<Cause>,
    /// The function (transitively) calls `.force(…)`/`.force_batch(…)`.
    pub forces: bool,
    /// Lock receiver paths (transitively) acquired via `.lock()`.
    pub locks: BTreeSet<String>,
    /// Direct allocation sites (not propagated — reachability over the
    /// call graph recovers the transitive picture without
    /// double-counting shared helpers).
    pub allocs: Vec<AllocSite>,
}

/// Summaries for every function in a [`CallGraph`], plus the fixpoint
/// pass count (property-tested against its bound).
pub struct Summaries {
    /// `fns[f]` is the summary of `graph.defs[f]`.
    pub fns: Vec<FnSummary>,
    /// Total inner fixpoint passes across all SCCs.
    pub passes: usize,
}

/// Allocation-kind token patterns: `Type::method(` pairs.
const ALLOC_QUALIFIED: &[(&str, &str, &str)] = &[
    ("Vec", "new", "Vec::new"),
    ("Vec", "with_capacity", "Vec::with_capacity"),
    ("Box", "new", "Box::new"),
    ("String", "from", "String::from"),
    ("String", "with_capacity", "String::with_capacity"),
];

/// Allocation-kind method names: `.name(` sites.
const ALLOC_METHODS: &[(&str, &str)] = &[
    ("to_vec", "to_vec"),
    ("clone", "clone"),
    ("to_string", "to_string"),
    ("to_owned", "to_owned"),
];

/// Allocation-kind macros: `name!` sites.
const ALLOC_MACROS: &[(&str, &str)] = &[("format", "format!"), ("vec", "vec!")];

impl Summaries {
    /// Render the call-chain witness for a property of `f`, e.g.
    /// `handle → append_frame → `.sync_data()` (crates/storage/src/stream.rs:41)`.
    /// `pick` selects which property's cause chain to follow.
    #[must_use]
    pub fn chain(
        &self,
        graph: &CallGraph,
        f: FnId,
        pick: impl Fn(&FnSummary) -> Option<&Cause>,
    ) -> String {
        let mut parts = vec![graph.defs[f].name.clone()];
        let mut cur = f;
        let mut seen = BTreeSet::new();
        seen.insert(f);
        loop {
            match pick(&self.fns[cur]) {
                Some(Cause::Direct { what, line }) => {
                    parts.push(format!("{what} ({}:{line})", graph.defs[cur].path));
                    break;
                }
                Some(Cause::Call { callee, line: _ }) => {
                    if !seen.insert(*callee) {
                        parts.push("…".to_string()); // recursion in the chain
                        break;
                    }
                    parts.push(graph.defs[*callee].name.clone());
                    cur = *callee;
                }
                None => break,
            }
        }
        parts.join(" → ")
    }

    /// Witness chain for `may_block`.
    #[must_use]
    pub fn block_chain(&self, graph: &CallGraph, f: FnId) -> String {
        self.chain(graph, f, |s| s.may_block.as_ref())
    }
}

/// Render the call graph and summaries as human-readable text (the
/// `--callgraph` subcommand): one block per function with its effect
/// flags, then each call site with its resolution.
#[must_use]
pub fn render_callgraph_text(graph: &CallGraph, s: &Summaries) -> String {
    let mut out = String::new();
    for (f, def) in graph.defs.iter().enumerate() {
        let sum = &s.fns[f];
        let mut flags = Vec::new();
        if sum.may_block.is_some() {
            flags.push("blocks".to_string());
        }
        if sum.forces {
            flags.push("forces".to_string());
        }
        if !sum.locks.is_empty() {
            flags.push(format!("locks={}", sum.locks.len()));
        }
        if !sum.allocs.is_empty() {
            flags.push(format!("allocs={}", sum.allocs.len()));
        }
        let flags = if flags.is_empty() {
            String::new()
        } else {
            format!(" [{}]", flags.join(" "))
        };
        out.push_str(&format!(
            "{}::{} (line {}, scc {}){flags}\n",
            def.path, def.name, def.line, graph.scc_of[f]
        ));
        for site in &graph.calls[f] {
            let res = if site.callees.is_empty() {
                "extern".to_string()
            } else {
                format!(
                    "{} candidate(s){}",
                    site.callees.len(),
                    if site.confident { "" } else { ", any-match" }
                )
            };
            out.push_str(&format!("  -> {} (line {}, {res})\n", site.name, site.line));
        }
    }
    out.push_str(&format!(
        "{} fn(s), {} scc(s), {} summary pass(es)\n",
        graph.defs.len(),
        graph.sccs.len(),
        s.passes
    ));
    out
}

/// Render the resolved call graph as Graphviz dot (`--callgraph --dot`).
#[must_use]
pub fn render_callgraph_dot(graph: &CallGraph) -> String {
    let label = |f: FnId| {
        format!(
            "{}::{}",
            graph.defs[f].path.trim_start_matches("crates/"),
            graph.defs[f].name
        )
    };
    let mut out = String::from("digraph dlog_callgraph {\n  rankdir=LR;\n");
    for f in 0..graph.defs.len() {
        out.push_str(&format!("  \"{}\";\n", label(f)));
    }
    for (f, sites) in graph.calls.iter().enumerate() {
        let mut seen = BTreeSet::new();
        for site in sites {
            for &c in &site.callees {
                if seen.insert(c) {
                    out.push_str(&format!(
                        "  \"{}\" -> \"{}\"{};\n",
                        label(f),
                        label(c),
                        if site.confident {
                            ""
                        } else {
                            " [style=dashed]"
                        }
                    ));
                }
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Render the call graph plus per-fn summaries as JSON
/// (`--callgraph --json`). Schema is stable for CI artifacts: a `fns`
/// array in definition order.
#[must_use]
pub fn render_callgraph_json(graph: &CallGraph, s: &Summaries) -> String {
    use crate::report::json_str;
    let mut out = String::from("{\n  \"fns\": [");
    for (f, def) in graph.defs.iter().enumerate() {
        let sum = &s.fns[f];
        if f > 0 {
            out.push(',');
        }
        let locks = sum
            .locks
            .iter()
            .map(|l| json_str(l))
            .collect::<Vec<_>>()
            .join(", ");
        let calls = graph.calls[f]
            .iter()
            .map(|site| {
                format!(
                    "{{\"name\": {}, \"line\": {}, \"resolved\": {}, \"confident\": {}}}",
                    json_str(&site.name),
                    site.line,
                    site.callees.len(),
                    site.confident
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "\n    {{\"path\": {}, \"name\": {}, \"line\": {}, \"scc\": {}, \
             \"may_block\": {}, \"forces\": {}, \
             \"locks\": [{locks}], \"alloc_sites\": {}, \"calls\": [{calls}]}}",
            json_str(&def.path),
            json_str(&def.name),
            def.line,
            graph.scc_of[f],
            sum.may_block.is_some(),
            sum.forces,
            sum.allocs.len()
        ));
    }
    if !graph.defs.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"sccs\": {},\n  \"summary_passes\": {}\n}}\n",
        graph.sccs.len(),
        s.passes
    ));
    out
}

/// Compute summaries for every function of `graph` (built over `files`).
#[must_use]
pub fn compute(graph: &CallGraph, files: &[&SourceFile]) -> Summaries {
    let mut fns: Vec<FnSummary> = vec![FnSummary::default(); graph.defs.len()];

    // --- Seeds: direct effects per function body. ---
    for (fi, file) in files.iter().enumerate() {
        // Innermost-def attribution for this file.
        let defs_here: Vec<FnId> = (0..graph.defs.len())
            .filter(|&d| graph.defs[d].file == fi)
            .collect();
        let innermost = |tok: usize| -> Option<FnId> {
            defs_here
                .iter()
                .copied()
                .filter(|&d| graph.defs[d].open <= tok && tok <= graph.defs[d].close)
                .min_by_key(|&d| graph.defs[d].close - graph.defs[d].open)
        };
        // Blocking, lock, force, and allocation seeds from the tokens.
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if file.test[i] {
                continue;
            }
            let Some(d) = innermost(i) else { continue };
            let line = toks[i].line;
            let is_method =
                i > 0 && toks[i - 1].is(".") && toks.get(i + 1).is_some_and(|t| t.is("("));
            if is_method {
                let name = toks[i].text.as_str();
                if blocking_under_lock::BLOCKING_CALLS.contains(&name) && fns[d].may_block.is_none()
                {
                    fns[d].may_block = Some(Cause::Direct {
                        what: format!("`.{name}()`"),
                        line,
                    });
                }
                if name == "force" || name == "force_batch" {
                    fns[d].forces = true;
                }
                if name == "lock" {
                    let recv = (i >= 2)
                        .then(|| crate::dataflow::receiver_path(file, i - 2))
                        .flatten()
                        .unwrap_or_else(|| "<expr>".to_string());
                    fns[d].locks.insert(recv);
                }
                if let Some(&(_, kind)) = ALLOC_METHODS.iter().find(|(m, _)| *m == name) {
                    fns[d].allocs.push(AllocSite { kind, line });
                }
            }
            // `File::open(` / `File::create(` block on the device.
            if toks[i].is("File")
                && toks.get(i + 1).is_some_and(|t| t.is(":"))
                && toks.get(i + 2).is_some_and(|t| t.is(":"))
                && toks
                    .get(i + 3)
                    .is_some_and(|t| t.is("open") || t.is("create"))
                && fns[d].may_block.is_none()
            {
                fns[d].may_block = Some(Cause::Direct {
                    what: format!("`File::{}`", toks[i + 3].text),
                    line,
                });
            }
            // `Type::alloc_fn(` allocation sites.
            for &(ty, m, kind) in ALLOC_QUALIFIED {
                if toks[i].is(ty)
                    && toks.get(i + 1).is_some_and(|t| t.is(":"))
                    && toks.get(i + 2).is_some_and(|t| t.is(":"))
                    && toks.get(i + 3).is_some_and(|t| t.is(m))
                    && toks.get(i + 4).is_some_and(|t| t.is("("))
                {
                    fns[d].allocs.push(AllocSite { kind, line });
                }
            }
            // `format!` / `vec!` allocation macros.
            for &(mac, kind) in ALLOC_MACROS {
                if toks[i].is(mac) && toks.get(i + 1).is_some_and(|t| t.is("!")) {
                    fns[d].allocs.push(AllocSite { kind, line });
                }
            }
        }
    }

    // --- Propagation: bottom-up over the condensation. ---
    let mut passes = 0usize;
    let backstop = 4 * graph.defs.len() + graph.sccs.len() + 8;
    for scc in &graph.sccs {
        loop {
            let mut changed = false;
            for &f in scc {
                for site in &graph.calls[f] {
                    for &c in &site.callees {
                        if c == f {
                            continue;
                        }
                        let callee_blocks = fns[c].may_block.is_some();
                        let callee_forces = fns[c].forces;
                        let lock_gap = !fns[c].locks.is_subset(&fns[f].locks);
                        let s_blocks = fns[f].may_block.is_some();
                        if callee_blocks && !s_blocks {
                            fns[f].may_block = Some(Cause::Call {
                                callee: c,
                                line: site.line,
                            });
                            changed = true;
                        }
                        if callee_forces && !fns[f].forces {
                            fns[f].forces = true;
                            changed = true;
                        }
                        if lock_gap {
                            let extra: Vec<String> = fns[c].locks.iter().cloned().collect();
                            fns[f].locks.extend(extra);
                            changed = true;
                        }
                    }
                }
            }
            passes += 1;
            if !changed || passes > backstop {
                break;
            }
        }
    }

    Summaries { fns, passes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn setup(sources: &[(&str, &str)]) -> (Vec<SourceFile>, CallGraph) {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(p, s)| SourceFile::parse(p, s))
            .collect();
        let refs: Vec<&SourceFile> = files.iter().collect();
        let g = CallGraph::build(&refs, &BTreeMap::new());
        (files, g)
    }

    fn summarize(files: &[SourceFile], g: &CallGraph) -> Summaries {
        let refs: Vec<&SourceFile> = files.iter().collect();
        compute(g, &refs)
    }

    #[test]
    fn blocking_propagates_with_chain() {
        let (files, g) = setup(&[(
            "crates/storage/src/lib.rs",
            "fn leaf(&mut self) { self.file.sync_data(); }\n\
             fn mid(&mut self) { leaf(self) }\n\
             fn top(&mut self) { mid(self) }\n\
             fn safe(&mut self) { self.len = 0; }",
        )]);
        let s = summarize(&files, &g);
        let top = g.defs_named("crates/storage/src/lib.rs", "top")[0];
        let safe = g.defs_named("crates/storage/src/lib.rs", "safe")[0];
        assert!(s.fns[top].may_block.is_some());
        assert!(s.fns[safe].may_block.is_none());
        let chain = s.block_chain(&g, top);
        assert!(
            chain.starts_with("top → mid → leaf → `.sync_data()`"),
            "{chain}"
        );
    }

    #[test]
    fn blocking_locks_forces_and_allocs_seed() {
        let (files, g) = setup(&[(
            "crates/storage/src/x.rs",
            "fn io(&mut self) { self.dev.force(c); }\n\
             fn guard(&self) { let g = self.state.lock(); drop(g); }\n\
             fn alloc(&self) -> Vec<u8> { let mut v = Vec::new(); v.extend(self.b.to_vec()); \
             let s = format!(\"x\"); drop(s); v }",
        )]);
        let s = summarize(&files, &g);
        let io = g.defs_named("crates/storage/src/x.rs", "io")[0];
        let guard = g.defs_named("crates/storage/src/x.rs", "guard")[0];
        let alloc = g.defs_named("crates/storage/src/x.rs", "alloc")[0];
        assert!(s.fns[io].may_block.is_some());
        assert!(s.fns[io].forces);
        assert!(s.fns[guard].locks.contains("self.state"));
        let kinds: Vec<&str> = s.fns[alloc].allocs.iter().map(|a| a.kind).collect();
        assert_eq!(kinds, vec!["Vec::new", "to_vec", "format!"]);
    }

    #[test]
    fn recursive_scc_reaches_fixpoint() {
        let (files, g) = setup(&[(
            "crates/server/src/lib.rs",
            "fn a(d: u32) { if d > 0 { b(d); } }\n\
             fn b(d: u32) { a(d - 1); sink.flush(); }",
        )]);
        let s = summarize(&files, &g);
        let a = g.defs_named("crates/server/src/lib.rs", "a")[0];
        assert!(
            s.fns[a].may_block.is_some(),
            "blocking flows around the cycle"
        );
        assert!(s.passes <= 4 * g.defs.len() + g.sccs.len() + 8);
    }
}
