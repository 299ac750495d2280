//! `hot-path-alloc`: allocation inventory for the ingest/encode path.
//!
//! ROADMAP item 3 (zero-copy wire path, ≥500k writes/s) needs to know
//! *where* the per-record allocations are before the refactor starts.
//! This rule walks the call graph from the hot roots —
//! `LogServer::handle` and `Frame::encode_into` — and reports every
//! reachable function that directly allocates (`Vec::new`, `to_vec`,
//! `clone`, `Box::new`, `format!`, `String::from`, …), one finding per
//! function, ranked by allocation-site count and carrying the
//! root-to-function call-chain witness. Unlike the safety rules this is
//! an *inventory*: entries are expected to be burned down (or
//! allowlisted with a justification) as the zero-copy push lands.

use crate::callgraph::{CallGraph, FnId};
use crate::report::Violation;
use crate::summary::Summaries;

/// Rule identifier.
pub const RULE: &str = "hot-path-alloc";

/// Hot roots: `(file path, fn name)`. If the file exists in the graph
/// but the function does not, the rule reports the drift — a renamed
/// root would otherwise silently disable the whole inventory.
pub const HOT_ALLOC_ROOTS: &[(&str, &str)] = &[
    ("crates/server/src/lib.rs", "handle"),
    ("crates/storage/src/frame.rs", "encode_into"),
];

/// Walk the graph from `roots` and report every reachable function with
/// direct allocation sites.
#[must_use]
pub fn check(graph: &CallGraph, summaries: &Summaries, roots: &[(&str, &str)]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut root_ids: Vec<FnId> = Vec::new();
    for &(path, name) in roots {
        let ids = graph.defs_named(path, name);
        if ids.is_empty() {
            // Only report a missing root when its file is in the graph:
            // fixture mini-workspaces legitimately lack the real tree.
            if graph.defs.iter().any(|d| d.path == path) {
                out.push(Violation {
                    rule: RULE,
                    file: path.to_string(),
                    line: 1,
                    scope: "*".to_string(),
                    message: format!(
                        "hot-path root `{name}` not found in `{path}`; update \
                         HOT_ALLOC_ROOTS so the allocation inventory stays anchored"
                    ),
                });
            }
            continue;
        }
        root_ids.extend(ids);
    }
    let parent = graph.reach_from(&root_ids);
    for (f, def) in graph.defs.iter().enumerate() {
        if parent[f].is_none() || summaries.fns[f].allocs.is_empty() {
            continue;
        }
        let allocs = &summaries.fns[f].allocs;
        // Rank by kind frequency: `clone×3, Vec::new×1`.
        let mut counts: Vec<(&str, usize)> = Vec::new();
        for a in allocs {
            match counts.iter_mut().find(|(k, _)| *k == a.kind) {
                Some((_, n)) => *n += 1,
                None => counts.push((a.kind, 1)),
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let kinds = counts
            .iter()
            .map(|(k, n)| format!("{k}\u{d7}{n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let chain = graph.path_to(&parent, f).join(" → ");
        out.push(Violation {
            rule: RULE,
            file: def.path.clone(),
            line: allocs[0].line,
            scope: def.name.clone(),
            message: format!(
                "{} allocation site(s) on the hot path ({kinds}); reachable via {chain} — \
                 zero-copy worklist (ROADMAP item 3), burn down or allowlist",
                allocs.len()
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use std::collections::BTreeMap;

    fn run(sources: &[(&str, &str)], roots: &[(&str, &str)]) -> Vec<Violation> {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(p, s)| SourceFile::parse(p, s))
            .collect();
        let refs: Vec<&SourceFile> = files.iter().collect();
        let g = CallGraph::build(&refs, &BTreeMap::new());
        let s = crate::summary::compute(&g, &refs);
        check(&g, &s, roots)
    }

    #[test]
    fn reachable_allocs_are_inventoried_with_chain() {
        let vs = run(
            &[(
                "crates/server/src/lib.rs",
                "fn handle(&mut self) { self.encode(); }\n\
                 fn encode(&self) -> Vec<u8> { let v = self.buf.to_vec(); v.clone() }\n\
                 fn cold(&self) -> Vec<u8> { Vec::new() }",
            )],
            &[("crates/server/src/lib.rs", "handle")],
        );
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].scope, "encode");
        assert!(
            vs[0].message.contains("handle → encode"),
            "{}",
            vs[0].message
        );
        assert!(vs[0].message.contains("clone\u{d7}1, to_vec\u{d7}1"));
    }

    #[test]
    fn missing_root_in_present_file_is_reported() {
        let vs = run(
            &[("crates/server/src/lib.rs", "fn other() {}")],
            &[("crates/server/src/lib.rs", "handle")],
        );
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("not found"));
    }

    #[test]
    fn absent_file_is_vacuous() {
        let vs = run(
            &[("crates/types/src/lib.rs", "fn other() {}")],
            &[("crates/server/src/lib.rs", "handle")],
        );
        assert!(vs.is_empty(), "{vs:?}");
    }
}
