//! `blocking-under-lock`: no disk or network blocking while a mutex
//! guard is live.
//!
//! §4.1's latency story assumes the per-server critical sections are
//! memory-only: a force to disk or a send/recv while a `.lock()` guard
//! is held serializes every other client behind one device operation
//! (and, combined with the lock-order graph, is the classic recipe for
//! an I/O-shaped deadlock). The lexical `lock-order` rule sees *which*
//! locks are taken, not *what happens while they are held*.
//!
//! Guard liveness needs no control-flow graph. A `MutexGuard` implements
//! `Drop`, so it lives until its block closes or it is moved into
//! `drop`; the borrow checker's shorter lifetimes never end such a value
//! early. So the rule walks each function body's tokens once, tracking
//! brace depth:
//!
//! - `let g = …lock()…;` makes `g` a guard of the enclosing block;
//! - `drop(g)` or a shadowing `let g` ends it until the block holding
//!   the `drop` closes, so a guard dropped on every arm of an `if`/`else`
//!   counts as live after the arms;
//! - a blocking method call, `File::open` or `File::create` while a guard
//!   is live is a finding;
//! - so is a blocking call chained after a `.lock()` in one statement:
//!   the temporary guard lives to the statement's end.

use crate::lexer::{Token, TokenKind};
use crate::report::Violation;
use crate::source::{FnSpan, SourceFile};

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

/// A `let`-bound guard met by the walk.
struct Guard {
    name: String,
    /// Brace depth of the block that owns the binding.
    depth: usize,
    /// Line of the `.lock()` that produced it.
    line: u32,
    /// Depth of the block in which `drop` or a shadowing `let` ended the
    /// guard; it is live again once that block closes.
    ended_at: Option<usize>,
}

/// A `let` statement whose bindings take effect at its end.
struct PendingLet {
    /// Token index of the statement's `;` (or of the `}` closing its
    /// block, when it has none).
    end: usize,
    names: Vec<String>,
    /// Line of the first `.lock()` call in the statement, if any.
    lock_line: Option<u32>,
}

/// Check every non-test function in `file`.
#[must_use]
pub fn check(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in file.fns.iter().filter(|f| !file.test[f.open]) {
        walk(file, f, &mut out);
    }
    out
}

/// One pass over the body of `f`; nested `fn`s are skipped, since
/// [`check`] walks each of them on its own.
fn walk(file: &SourceFile, f: &FnSpan, out: &mut Vec<Violation>) {
    let toks = &file.tokens;
    let finding = |i: usize, message: String| Violation {
        rule: RULE,
        file: file.path.clone(),
        line: toks[i].line,
        scope: f.name.clone(),
        message,
    };
    let mut guards: Vec<Guard> = Vec::new();
    let mut pending: Vec<PendingLet> = Vec::new();
    let mut depth = 0usize;
    // A `.lock()` call earlier in the current statement.
    let mut temporary = false;
    let mut i = f.open + 1;
    while i < f.close {
        while let Some(done) = pending.pop_if(|p| p.end <= i) {
            for name in done.names {
                end_guard(&mut guards, &name, depth);
                if let Some(line) = done.lock_line {
                    guards.push(Guard {
                        name,
                        depth,
                        line,
                        ended_at: None,
                    });
                }
            }
        }
        let t = &toks[i];
        if t.is("{") {
            if let Some(inner) = file.fns.iter().find(|g| g.open == i) {
                i = inner.close + 1;
                continue;
            }
            depth += 1;
            temporary = false;
        } else if t.is("}") {
            guards.retain(|g| g.depth < depth);
            for g in &mut guards {
                if g.ended_at.is_some_and(|d| d >= depth) {
                    g.ended_at = None;
                }
            }
            depth = depth.saturating_sub(1);
            temporary = false;
        } else if t.is(";") || (t.is("=") && toks.get(i + 1).is_some_and(|n| n.is(">"))) {
            temporary = false;
        } else if t.is("let") && !(toks[i - 1].is("if") || toks[i - 1].is("while")) {
            pending.push(let_statement(toks, i, f.close));
        } else if t.is("drop")
            && toks.get(i + 1).is_some_and(|n| n.is("("))
            && toks.get(i + 3).is_some_and(|n| n.is(")"))
        {
            if let Some(name) = toks.get(i + 2) {
                end_guard(&mut guards, &name.text, depth);
            }
        } else if is_method_call(toks, i) {
            if t.is("lock") {
                temporary = true;
            } else if BLOCKING_CALLS.contains(&t.text.as_str()) {
                if temporary {
                    out.push(finding(
                        i,
                        format!(
                            "blocking call `.{}()` chained while the temporary `.lock()` guard \
                             in this statement is held (§4.1)",
                            t.text
                        ),
                    ));
                }
                for g in guards.iter().filter(|g| g.ended_at.is_none()) {
                    out.push(finding(
                        i,
                        format!(
                            "blocking call `.{}()` while mutex guard `{}` (acquired line {}) \
                             is held; finish the critical section or drop the guard first (§4.1)",
                            t.text, g.name, g.line
                        ),
                    ));
                }
            }
        } else if t.is("File")
            && toks.get(i + 1).is_some_and(|n| n.is(":"))
            && toks.get(i + 2).is_some_and(|n| n.is(":"))
        {
            // `File::open` / `File::create` also hit the device.
            if let Some(call) = toks.get(i + 3).filter(|n| n.is("open") || n.is("create")) {
                for g in guards.iter().filter(|g| g.ended_at.is_none()) {
                    out.push(finding(
                        i,
                        format!(
                            "`File::{}` while mutex guard `{}` (acquired line {}) is held",
                            call.text, g.name, g.line
                        ),
                    ));
                }
            }
        }
        i += 1;
    }
}

/// End every live guard called `name` until the block at `depth` closes.
fn end_guard(guards: &mut [Guard], name: &str, depth: usize) {
    for g in guards
        .iter_mut()
        .filter(|g| g.name == name && g.ended_at.is_none())
    {
        g.ended_at = Some(depth);
    }
}

/// True when token `i` names a method call: `. name (`.
fn is_method_call(toks: &[Token], i: usize) -> bool {
    i > 0
        && toks[i - 1].is(".")
        && toks[i].kind == TokenKind::Ident
        && toks.get(i + 1).is_some_and(|t| t.is("("))
}

/// The `let` statement starting at token `at`: where it ends, the names
/// it binds and whether it calls `.lock()`.
fn let_statement(toks: &[Token], at: usize, limit: usize) -> PendingLet {
    let mut depth = 0i32;
    let mut end = limit;
    for (j, t) in toks.iter().enumerate().take(limit).skip(at + 1) {
        if t.is("(") || t.is("[") || t.is("{") {
            depth += 1;
        } else if t.is(")") || t.is("]") {
            depth -= 1;
        } else if t.is("}") {
            if depth == 0 {
                end = j; // no `;`: the statement ends with its block
                break;
            }
            depth -= 1;
        } else if t.is(";") && depth == 0 {
            end = j;
            break;
        }
    }
    PendingLet {
        end,
        names: let_bindings(&toks[at + 1..end]),
        lock_line: (at + 1..end)
            .find(|&j| toks[j].is("lock") && is_method_call(toks, j))
            .map(|j| toks[j].line),
    }
}

/// Names bound by the pattern of a `let` (the tokens after `let`):
/// `x`, `mut x`, tuple and struct patterns; collection stops at a
/// top-level `:` (type ascription) or `=`.
fn let_bindings(toks: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    for t in toks {
        if t.is("(") || t.is("[") || t.is("{") || t.is("<") {
            depth += 1;
        } else if t.is(")") || t.is("]") || t.is("}") || t.is(">") {
            depth -= 1;
        } else if depth == 0 && (t.is(":") || t.is("=")) {
            break;
        } else if t.kind == TokenKind::Ident
            && !matches!(t.text.as_str(), "mut" | "ref" | "_" | "box")
            && t.text
                .chars()
                .next()
                .is_some_and(|c| c.is_lowercase() || c == '_')
        {
            out.push(t.text.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(body: &str) -> Vec<Violation> {
        let src = format!("fn f(&mut self) {{ {body} }}");
        check(&SourceFile::parse("crates/server/src/x.rs", &src))
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

    /// The one case where the walk is more conservative than a path
    /// analysis: a `drop` inside a block ends the guard only until that
    /// block closes, even when every arm drops it.
    #[test]
    fn a_guard_dropped_on_every_arm_is_live_after_the_arms() {
        let vs = run(
            "let st = self.state.lock(); if c { drop(st); } else { drop(st); } \
             self.dev.force(c);",
        );
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("`st`"));
        // Inside the arm, after its `drop`, the guard is gone.
        assert!(
            run("let st = self.state.lock(); if c { drop(st); self.dev.force(c); }").is_empty()
        );
    }

    #[test]
    fn a_return_in_a_branch_leaves_the_guard_live_after_it() {
        assert!(run("if c { return; } self.dev.force(c);").is_empty());
        let vs = run("let st = self.state.lock(); if c { return; } self.dev.force(c);");
        assert_eq!(vs.len(), 1, "{vs:?}");
    }

    #[test]
    fn an_early_return_does_not_end_a_guard() {
        let vs = run("let st = self.state.lock(); if c { drop(st); return; } self.dev.force(c);");
        assert_eq!(vs.len(), 1, "{vs:?}");
    }

    #[test]
    fn a_guard_taken_in_a_loop_body_dies_with_it() {
        assert!(
            run("loop { self.dev.force(c); let g = self.state.lock(); if c { break; } }")
                .is_empty()
        );
        let vs = run("loop { let g = self.state.lock(); self.dev.force(c); if c { break; } }");
        assert_eq!(vs.len(), 1, "{vs:?}");
    }

    #[test]
    fn every_name_a_let_pattern_binds_is_a_guard() {
        let vs = run("let (a, b) = (self.x.lock(), self.y.lock()); drop(a); self.dev.flush();");
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("`b`"));
        // A shadowing `let` ends the old guard; `let … else` binds too.
        assert!(run("let g = self.x.lock(); let g = 0; self.dev.flush();").is_empty());
        let vs = run("let Some(g) = self.x.lock().first() else { return; }; self.dev.flush();");
        assert_eq!(vs.len(), 1, "{vs:?}");
    }

    #[test]
    fn match_arms_are_their_own_scopes() {
        assert!(
            run("match x { A => self.state.lock().push(1), B => self.dev.force(c) }").is_empty()
        );
    }

    #[test]
    fn nested_fns_are_walked_on_their_own() {
        // The nested fn is walked on its own, with no guard live.
        let vs =
            run("let st = self.state.lock(); fn inner(d: &D) { d.force(c); } self.dev.flush();");
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].scope, "f");
        assert!(vs[0].message.contains("flush"));
    }
}
