//! `blocking-under-lock`: no disk or network blocking while a mutex
//! guard is live.
//!
//! §4.1's latency story assumes the per-server critical sections are
//! memory-only: a force to disk or a send/recv while a `.lock()` guard
//! is held serializes every other client behind one device operation
//! (and, combined with the lock-order graph, is the classic recipe for
//! an I/O-shaped deadlock). The lexical `lock-order` rule sees *which*
//! locks are taken, not *what happens while they are held* — that is a
//! path question, so this rule rides the dataflow engine: a `let`-bound
//! guard gens a fact killed by `drop(guard)`, shadowing, or the end of
//! its scope; any statement that performs a blocking call while a guard
//! fact is live is flagged on that path.

use crate::dataflow::{
    kill_key_prefix, let_bindings, method_calls, DataflowRule, Fact, FactSet, StmtCx,
};
use crate::report::Violation;

/// Rule identifier.
pub const RULE: &str = "blocking-under-lock";

/// Method names that block on a device or peer.
const BLOCKING_CALLS: &[&str] = &[
    "force",
    "sync_all",
    "sync_data",
    "write_all",
    "read_exact",
    "flush",
    "send",
    "recv",
    "send_to",
    "recv_from",
    "upload",
];

/// The rule as a [`DataflowRule`] instance.
pub struct BlockingUnderLock;

impl DataflowRule for BlockingUnderLock {
    fn rule(&self) -> &'static str {
        RULE
    }

    fn targets(&self) -> &'static [&'static str] {
        &["crates/server/src", "crates/storage/src", "crates/net/src"]
    }

    /// Guard liveness: `let g = _.lock()` gens a `guard:g` fact, killed
    /// by `drop(g)`, shadowing, or scope exit (the engine handles the
    /// latter via `decl`).
    fn transfer(&self, cx: &StmtCx<'_>, facts: &mut FactSet) {
        let toks = cx.tokens();
        let binds = let_bindings(cx);
        // Shadowing: a fresh `let g = …` ends the old guard's life.
        for (_, name) in &binds {
            kill_key_prefix(facts, &format!("guard:{name}"));
        }
        // `drop(g)` / `mem::drop(g)` kills the guard explicitly.
        for i in 0..toks.len() {
            if toks[i].is("drop")
                && toks.get(i + 1).is_some_and(|t| t.is("("))
                && toks.get(i + 3).is_some_and(|t| t.is(")"))
            {
                if let Some(g) = toks.get(i + 2) {
                    kill_key_prefix(facts, &format!("guard:{}", g.text));
                }
            }
        }
        // `let g = expr.lock();` gens a live-guard fact. A `.lock()` in
        // a non-`let` statement is a temporary: dropped at the `;`.
        let locks: Vec<usize> = method_calls(cx)
            .into_iter()
            .filter(|&i| toks[i].is("lock"))
            .collect();
        if locks.is_empty() || binds.is_empty() {
            return;
        }
        let origin = cx.stmt.lo + locks[0];
        for (decl, name) in binds {
            facts.insert(Fact {
                key: format!("guard:{name}"),
                decl: Some(decl),
                origin,
            });
        }
    }

    fn check(&self, cx: &StmtCx<'_>, facts: &FactSet, out: &mut Vec<Violation>) {
        let toks = cx.tokens();
        // Intra-statement: a temporary guard chained straight into a
        // blocking call (`m.lock().file.sync_all()`) never produces a
        // fact, but the lock is held across the device op all the same.
        let calls = method_calls(cx);
        if let Some(&lock_at) = calls.iter().find(|&&i| toks[i].is("lock")) {
            for &i in calls.iter().filter(|&&i| i > lock_at) {
                if BLOCKING_CALLS.contains(&toks[i].text.as_str()) {
                    out.push(cx.violation(
                        RULE,
                        i,
                        format!(
                            "blocking call `.{}()` chained while the temporary `.lock()` guard \
                             in this statement is held (§4.1)",
                            toks[i].text
                        ),
                    ));
                }
            }
        }
        if facts.is_empty() {
            return;
        }
        for i in method_calls(cx) {
            if !BLOCKING_CALLS.contains(&toks[i].text.as_str()) {
                continue;
            }
            for f in facts.iter().filter(|f| f.key.starts_with("guard:")) {
                let guard = f.key.trim_start_matches("guard:");
                out.push(cx.violation(
                    RULE,
                    i,
                    format!(
                        "blocking call `.{}()` while mutex guard `{guard}` (acquired line {}) \
                         is held; finish the critical section or drop the guard first (§4.1)",
                        toks[i].text, cx.file.tokens[f.origin].line
                    ),
                ));
            }
        }
        // `File::open` / `File::create` also hit the device.
        for i in 0..toks.len().saturating_sub(3) {
            if toks[i].is("File")
                && toks[i + 1].is(":")
                && toks[i + 2].is(":")
                && (toks[i + 3].is("open") || toks[i + 3].is("create"))
            {
                for f in facts.iter().filter(|f| f.key.starts_with("guard:")) {
                    let guard = f.key.trim_start_matches("guard:");
                    out.push(cx.violation(
                        RULE,
                        i,
                        format!(
                            "`File::{}` while mutex guard `{guard}` (acquired line {}) is held",
                            toks[i + 3].text,
                            cx.file.tokens[f.origin].line
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::run_rule;
    use crate::source::SourceFile;

    fn run(body: &str) -> Vec<Violation> {
        let src = format!("fn f(&mut self) {{ {body} }}");
        let file = SourceFile::parse("crates/server/src/x.rs", &src);
        run_rule(&BlockingUnderLock, &file)
    }

    #[test]
    fn guard_across_force_fires() {
        let vs = run("let st = self.state.lock(); self.dev.force(c);");
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("`st`"));
    }

    #[test]
    fn temporary_guard_is_fine() {
        assert!(run("self.state.lock().len(); self.dev.force(c);").is_empty());
    }

    #[test]
    fn drop_ends_liveness() {
        assert!(run("let st = self.state.lock(); drop(st); self.dev.force(c);").is_empty());
    }

    #[test]
    fn scoped_guard_is_fine() {
        assert!(run("{ let st = self.state.lock(); st.push(1); } self.dev.force(c);").is_empty());
    }

    #[test]
    fn one_branch_is_enough() {
        let vs = run("let st = self.state.lock(); if c { self.net.send(to, m); } done();");
        assert_eq!(vs.len(), 1, "{vs:?}");
    }

    #[test]
    fn unpoisoned_guards_are_still_guards() {
        // The workspace spells every acquisition `unpoisoned(x.lock())`.
        let vs = run("let st = unpoisoned(self.state.lock()); self.dev.force(c);");
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("`st`"));
        assert!(
            run("let st = unpoisoned(self.state.lock()); drop(st); self.dev.force(c);").is_empty()
        );
        let vs = run("unpoisoned(self.state.lock()).file.sync_all();");
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("temporary"));
    }
}
