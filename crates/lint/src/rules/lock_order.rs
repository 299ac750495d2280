//! `lock-order`: static deadlock detection over `.lock()` acquisitions.
//!
//! For every non-test function in the target files, the rule extracts
//! the ordered `.lock()` call sites, names each lock by its receiver
//! path qualified with the file stem (`mem::hub`, `object_store::inner`,
//! …), and assumes a guard bound with `let` is held until the end of its
//! enclosing block while an unbound (temporary) guard lives only to the
//! end of its statement. Every (held → acquired) pair becomes a directed
//! edge; a cycle in the resulting acquisition graph — including a
//! self-edge: a `std` `Mutex` re-locked on its holder's thread deadlocks
//! or panics — is reported at one witnessing site per edge.

use std::collections::{BTreeMap, BTreeSet};

use crate::report::Violation;
use crate::source::SourceFile;

/// Rule identifier.
pub const RULE: &str = "lock-order";

/// One `.lock()` acquisition site.
#[derive(Clone, Debug)]
struct LockSite {
    /// Qualified lock name, e.g. `mem::hub`.
    name: String,
    /// Token index of the receiver's `.` before `lock`.
    tok: usize,
    /// Token index past which the guard is assumed released: end of the
    /// enclosing block for `let`-bound guards, end of statement for
    /// temporaries.
    held_until: usize,
}

/// Build the acquisition graph across `files` and flag cycles.
#[must_use]
pub fn check(files: &[&SourceFile]) -> Vec<Violation> {
    // edge (from, to) -> witness (file idx, token idx)
    let mut edges: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for f in &file.fns {
            if file.test[f.open] {
                continue;
            }
            let sites = lock_sites(file, f.open, f.close);
            for (a_idx, a) in sites.iter().enumerate() {
                for b in sites.iter().skip(a_idx + 1) {
                    if b.tok < a.held_until {
                        edges
                            .entry((a.name.clone(), b.name.clone()))
                            .or_insert((fi, b.tok));
                    }
                }
            }
        }
    }

    let mut out = Vec::new();
    for cycle in find_cycles(&edges) {
        // Witness: the edge closing the cycle (last -> first).
        let close = (cycle[cycle.len() - 1].clone(), cycle[0].clone());
        let (fi, tok) = edges[&close];
        let file = files[fi];
        let path = cycle.join(" -> ");
        out.push(Violation {
            rule: RULE,
            file: file.path.clone(),
            line: file.tokens[tok].line,
            scope: file.scope_at(tok),
            message: if cycle.len() == 1 {
                format!(
                    "lock `{}` re-acquired while already held (self-deadlock)",
                    cycle[0]
                )
            } else {
                format!(
                    "lock acquisition cycle: {path} -> {} (potential deadlock)",
                    cycle[0]
                )
            },
        });
    }
    out
}

/// Ordered `.lock()` sites within token range `(open, close)`.
fn lock_sites(file: &SourceFile, open: usize, close: usize) -> Vec<LockSite> {
    let toks = &file.tokens;
    let mut sites = Vec::new();
    let mut i = open;
    while i + 2 < close {
        let hit = toks[i].is(".")
            && toks[i + 1].is("lock")
            && toks[i + 2].is("(")
            && toks.get(i + 3).is_some_and(|t| t.is(")"));
        if !hit {
            i += 1;
            continue;
        }
        // Receiver path: walk back over `ident` / `.` / `self`.
        let mut j = i;
        let mut parts: Vec<String> = Vec::new();
        while j > open {
            let prev = &toks[j - 1];
            if prev.kind == crate::lexer::TokenKind::Ident {
                parts.push(prev.text.clone());
                j -= 1;
            } else if prev.is(".") && j >= 2 && toks[j - 2].kind == crate::lexer::TokenKind::Ident {
                j -= 1;
            } else {
                break;
            }
        }
        parts.reverse();
        let receiver = parts
            .last()
            .cloned()
            .unwrap_or_else(|| "<expr>".to_string());
        let stem = file
            .path
            .rsplit('/')
            .next()
            .unwrap_or(&file.path)
            .trim_end_matches(".rs");
        let name = format!("{stem}::{receiver}");

        // Bound with `let`? Walk back from the receiver start to the
        // statement start (previous `;` or `{`).
        let mut k = j;
        let mut bound = false;
        while k > open {
            let prev = &toks[k - 1];
            if prev.is(";") || prev.is("{") || prev.is("}") {
                break;
            }
            if prev.is("let") {
                bound = true;
                break;
            }
            k -= 1;
        }

        let held_until = if bound {
            enclosing_block_end(file, i, open, close)
        } else {
            statement_end(file, i, close)
        };
        sites.push(LockSite {
            name,
            tok: i,
            held_until,
        });
        i += 3;
    }
    sites
}

/// End of the innermost `{ … }` block containing token `i`.
fn enclosing_block_end(file: &SourceFile, i: usize, open: usize, close: usize) -> usize {
    let mut best = close;
    let mut span = close - open;
    for j in open..=i {
        if file.tokens[j].is("{") {
            if let Some(end) = file.matching_brace(j) {
                if end >= i && end - j < span {
                    span = end - j;
                    best = end;
                }
            }
        }
    }
    best
}

/// First `;` after token `i` outside groups opened after it (statement
/// end; a temporary in `unpoisoned(m.lock())` outlives the `)`).
fn statement_end(file: &SourceFile, i: usize, close: usize) -> usize {
    let mut depth = 0i32;
    for j in i..close {
        let t = &file.tokens[j];
        if t.is("{") || t.is("(") || t.is("[") {
            depth += 1;
        } else if t.is(")") || t.is("]") {
            depth = (depth - 1).max(0);
        } else if t.is("}") {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        } else if t.is(";") && depth <= 0 {
            return j;
        }
    }
    close
}

/// All elementary cycles we care to report: for each strongly-connected
/// pair (or self-loop) return one canonical cycle. A simple DFS over the
/// edge set is enough at this scale.
fn find_cycles(edges: &BTreeMap<(String, String), (usize, usize)>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().insert(to);
    }
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in adj.keys().copied().collect::<Vec<_>>() {
        // DFS from `start`, reporting the first path returning to it.
        let mut stack = vec![(start, vec![start.to_string()])];
        while let Some((node, path)) = stack.pop() {
            let Some(nexts) = adj.get(node) else { continue };
            for next in nexts {
                if *next == start {
                    // Canonicalize: rotate so the smallest name is first.
                    let mut c = path.clone();
                    let min_idx = c
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.cmp(b.1))
                        .map_or(0, |(i, _)| i);
                    c.rotate_left(min_idx);
                    if seen.insert(c.clone()) {
                        cycles.push(c);
                    }
                } else if !path.iter().any(|p| p == next) && path.len() < 8 {
                    let mut p = path.clone();
                    p.push((*next).to_string());
                    stack.push((next, p));
                }
            }
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ab_ba_cycle_is_flagged() {
        let a = SourceFile::parse(
            "crates/x/src/one.rs",
            "fn f(&self) { let g1 = self.alpha.lock(); let g2 = self.beta.lock(); drop((g1, g2)); }",
        );
        let b = SourceFile::parse(
            "crates/x/src/one.rs",
            "fn g(&self) { let g2 = self.beta.lock(); let g1 = self.alpha.lock(); drop((g1, g2)); }",
        );
        let vs = check(&[&a, &b]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("cycle"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let a = SourceFile::parse(
            "crates/x/src/one.rs",
            "fn f(&self) { let g1 = self.alpha.lock(); let g2 = self.beta.lock(); drop((g1, g2)); } \
             fn g(&self) { let g1 = self.alpha.lock(); let g2 = self.beta.lock(); drop((g1, g2)); }",
        );
        assert!(check(&[&a]).is_empty());
    }

    #[test]
    fn sequential_temporaries_do_not_self_deadlock() {
        let a = SourceFile::parse(
            "crates/x/src/one.rs",
            "fn f(&self) { self.alpha.lock().push(1); self.alpha.lock().push(2); }",
        );
        assert!(check(&[&a]).is_empty(), "{:?}", check(&[&a]));
    }

    #[test]
    fn bound_guard_then_relock_is_self_deadlock() {
        let a = SourceFile::parse(
            "crates/x/src/one.rs",
            "fn f(&self) { let g = self.alpha.lock(); self.alpha.lock().push(1); drop(g); }",
        );
        let vs = check(&[&a]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("self-deadlock"));
    }

    #[test]
    fn unpoisoned_acquisitions_are_still_acquisitions() {
        let one = |body: &str| {
            let src = format!("fn f(&self) {{ {body} }}");
            check(&[&SourceFile::parse("crates/x/src/one.rs", &src)])
        };
        // Sequential temporaries each end with their statement.
        assert!(one(
            "unpoisoned(self.alpha.lock()).push(1); unpoisoned(self.alpha.lock()).push(2);"
        )
        .is_empty());
        // A `let`-bound guard is live to the end of its block.
        let vs = one("let g = unpoisoned(self.alpha.lock()); unpoisoned(self.alpha.lock()).push(1); drop(g);");
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("self-deadlock"));
        // A temporary lives past the wrapper's `)` to the statement's end.
        let vs = one("unpoisoned(self.alpha.lock()).push(unpoisoned(self.beta.lock()).len()); \
                      let b = unpoisoned(self.beta.lock()); unpoisoned(self.alpha.lock()).clear(); drop(b);");
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("cycle"));
    }
}
