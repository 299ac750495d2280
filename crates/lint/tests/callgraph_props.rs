//! Property tests for the interprocedural layer: call-graph resolution,
//! the SCC condensation, and the summary fixpoint.
//!
//! The generator produces random multi-function files from a small
//! grammar — each function body is a sequence of calls to other
//! generated functions (by index, possibly forming cycles), extern
//! calls, and effect seeds (`sync_data`, `force`, allocation). Under any
//! such file:
//!
//! 1. every call site either resolves to at least one workspace
//!    definition or is extern (empty callee set) — resolution never
//!    invents dangling [`FnId`]s and never loses a site,
//! 2. the condensation is acyclic (Tarjan emitted a real DAG order),
//! 3. the summary fixpoint converges within the documented pass bound
//!    (`4 * defs + sccs + 8`), not by luck of the backstop.

use std::collections::BTreeMap;

use proptest::prelude::*;

use dlog_lint::callgraph::CallGraph;
use dlog_lint::summary;
use dlog_lint::SourceFile;

const FNS: usize = 6;

/// One statement inside generated function bodies: a call to another
/// generated function, an extern call, or a direct effect seed.
fn stmt() -> BoxedStrategy<String> {
    prop_oneof![
        3 => (0..FNS).prop_map(|i| format!("gen_fn_{i}(a);")),
        1 => Just("extern_helper(a);".to_string()),
        1 => Just("self.file.sync_data();".to_string()),
        1 => Just("let r = self.dev.force(c);".to_string()),
        1 => Just("let buf = Vec::new();".to_string()),
        1 => Just("let s = x.to_vec();".to_string()),
    ]
    .boxed()
}

/// A whole file: `FNS` functions, each with 0–4 statements.
fn file() -> BoxedStrategy<String> {
    proptest::collection::vec(proptest::collection::vec(stmt(), 0..5), FNS)
        .prop_map(|bodies| {
            bodies
                .iter()
                .enumerate()
                .map(|(i, stmts)| format!("fn gen_fn_{i}(&mut self) {{ {} }}\n", stmts.join(" ")))
                .collect::<String>()
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn resolution_condensation_and_fixpoint_hold(src in file()) {
        let f = SourceFile::parse("crates/storage/src/generated.rs", &src);
        prop_assert_eq!(f.fns.len(), FNS, "generator produced unparseable file: {}", src);
        let files = [&f];
        let graph = CallGraph::build(&files, &BTreeMap::new());
        prop_assert_eq!(graph.defs.len(), FNS);

        // 1. Every call site resolves in-bounds or is extern.
        for sites in &graph.calls {
            for site in sites {
                for &c in &site.callees {
                    prop_assert!(c < graph.defs.len(), "dangling FnId {c}");
                }
                if site.name.starts_with("gen_fn_") {
                    prop_assert!(
                        !site.callees.is_empty(),
                        "call to generated fn `{}` did not resolve", site.name
                    );
                }
            }
        }

        // 2. Tarjan's condensation is a DAG.
        prop_assert!(graph.condensation_is_acyclic());

        // 3. The fixpoint converges within the documented bound.
        let summaries = summary::compute(&graph, &files);
        let bound = 4 * graph.defs.len() + graph.sccs.len() + 8;
        prop_assert!(
            summaries.passes <= bound,
            "fixpoint took {} passes, bound is {bound}", summaries.passes
        );

        // Sanity: a blocking seed must surface in its own summary.
        for (fi, def) in graph.defs.iter().enumerate() {
            let blocks = src
                .lines()
                .skip_while(|l| !l.contains(&format!("fn {}", def.name)))
                .take(1)
                .any(|l| l.contains("sync_data") || l.contains("force"));
            if blocks {
                prop_assert!(
                    summaries.fns[fi].may_block.is_some(),
                    "fn {} has a direct blocking call but no may_block", def.name
                );
            }
        }
    }
}
