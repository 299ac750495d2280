//! Property tests for the CFG builder and the dataflow engine.
//!
//! The generator produces random well-formed function bodies from a
//! small statement grammar — plain calls, `if`/`if-else`, `match`,
//! `while`, and `loop { … break; }` — with **no diverging statements**
//! (`return`/`?`), so every generated statement is live code. Under
//! that restriction:
//!
//! 1. every block that carries a statement must be reachable from the
//!    CFG entry (a builder that drops an edge fails this immediately),
//! 2. the exit block must be reachable (no generated body can hang the
//!    abstract machine),
//! 3. running every flow-sensitive rule must terminate — the fixpoint
//!    loop's monotone gen/kill over a finite fact universe converging,
//!    not the `MAX_PASSES` backstop being quietly saved by luck.

use proptest::prelude::*;

use dlog_lint::cfg::Cfg;
use dlog_lint::dataflow::run_rule;
use dlog_lint::rules;
use dlog_lint::SourceFile;

/// Straight-line statements; a few mention lock/LSN names so the
/// dataflow rules have facts to push around.
fn simple_stmt() -> BoxedStrategy<String> {
    prop_oneof![
        Just("work(a, b);".to_string()),
        Just("let x = mix(a);".to_string()),
        Just("let guard = self.state.lock();".to_string()),
        Just("drop(guard);".to_string()),
        Just("let lsn2 = cursor_lsn;".to_string()),
        Just("let r = self.dev.force(c);".to_string()),
        Just("check(r);".to_string()),
    ]
    .boxed()
}

/// One statement at the given nesting depth.
fn stmt(depth: u32) -> BoxedStrategy<String> {
    if depth == 0 {
        return simple_stmt();
    }
    let inner = || body(depth - 1);
    prop_oneof![
        4 => simple_stmt(),
        1 => inner().prop_map(|b| format!("if cond {{ {b} }}")),
        1 => (inner(), inner())
            .prop_map(|(t, e)| format!("if cond {{ {t} }} else {{ {e} }}")),
        1 => (inner(), inner()).prop_map(|(a, b)| {
            format!("match v {{ Case::A => {{ {a} }} Case::B(x) => {{ {b} }} }}")
        }),
        1 => inner().prop_map(|b| format!("while cond {{ {b} }}")),
        1 => inner().prop_map(|b| format!("loop {{ {b} break; }}")),
    ]
    .boxed()
}

/// A sequence of 1–3 statements.
fn body(depth: u32) -> BoxedStrategy<String> {
    proptest::collection::vec(stmt(depth), 1..4)
        .prop_map(|v| v.join(" "))
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_statement_reachable_and_rules_terminate(b in body(3)) {
        let src = format!("fn generated(&mut self) {{ {b} }}");
        let file = SourceFile::parse("crates/storage/src/generated.rs", &src);
        prop_assert_eq!(file.fns.len(), 1, "generator produced unparseable body: {}", src);
        let cfg = Cfg::build(&file, &file.fns[0]);
        let reach = cfg.reachable();

        // 1. No generated statement may land in an unreachable block.
        for (i, blk) in cfg.blocks.iter().enumerate() {
            if !blk.stmts.is_empty() {
                prop_assert!(
                    reach[i],
                    "block {} with {} stmt(s) unreachable in: {}",
                    i, blk.stmts.len(), src
                );
            }
        }

        // 2. The function can finish.
        prop_assert!(reach[cfg.exit], "exit unreachable in: {}", src);

        // 3. The fixpoint terminates for every flow-sensitive rule
        //    (a diverging analysis would hang here, failing the suite's
        //    timeout rather than this assertion).
        let _ = run_rule(&rules::blocking_under_lock::BlockingUnderLock, &file);
        let _ = run_rule(&rules::lsn_checked_arith::LsnCheckedArith, &file);
    }
}
