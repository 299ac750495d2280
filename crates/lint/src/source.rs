//! Token-stream model of one `.rs` file: brace matching, `#[cfg(test)]`
//! / `#[test]` region masking, and function-span extraction. Rules work
//! on this model instead of raw text.

use crate::lexer::{lex, Token, TokenKind};

/// Span of a `fn` body in token indices (`open`/`close` are the braces).
#[derive(Clone, Debug)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// Token index of the body's opening `{`.
    pub open: usize,
    /// Token index of the matching `}`.
    pub close: usize,
}

/// A lexed source file plus the structural facts rules need.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// The token stream (comments and string contents already stripped).
    pub tokens: Vec<Token>,
    /// `test[i]` is true when token `i` is inside a `#[cfg(test)]` item
    /// or a `#[test]` function — rules skip those tokens.
    pub test: Vec<bool>,
    /// All function bodies, outermost first in source order.
    pub fns: Vec<FnSpan>,
    /// `close_brace[i]` maps an opening `{` at token `i` to its `}`.
    close_brace: Vec<Option<usize>>,
}

impl SourceFile {
    /// Lex and analyze `text` as the file at `path`.
    #[must_use]
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let tokens = lex(text);
        let close_brace = match_braces(&tokens);
        let test = test_mask(&tokens, &close_brace);
        let fns = fn_spans(&tokens, &close_brace);
        SourceFile {
            path: path.to_string(),
            tokens,
            test,
            fns,
            close_brace,
        }
    }

    /// The matching `}` for an opening `{` at token index `i`.
    #[must_use]
    pub fn matching_brace(&self, i: usize) -> Option<usize> {
        self.close_brace.get(i).copied().flatten()
    }

    /// Innermost function body containing token `i`, if any.
    #[must_use]
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.open <= i && i <= f.close)
            .min_by_key(|f| f.close - f.open)
    }

    /// Scope label for reporting: the enclosing function
    /// name, or `<file>` for file-level findings.
    #[must_use]
    pub fn scope_at(&self, i: usize) -> String {
        self.enclosing_fn(i)
            .map_or_else(|| "<file>".to_string(), |f| f.name.clone())
    }

    /// The body span of the function named `name`, if present.
    #[must_use]
    pub fn fn_named(&self, name: &str) -> Option<&FnSpan> {
        self.fns.iter().find(|f| f.name == name)
    }

    /// First token index at or after `from` where the token texts
    /// `pat` appear consecutively.
    #[must_use]
    pub fn find_seq(&self, from: usize, to: usize, pat: &[&str]) -> Option<usize> {
        let to = to.min(self.tokens.len());
        if pat.is_empty() || from >= to {
            return None;
        }
        (from..to.saturating_sub(pat.len() - 1)).find(|&i| {
            pat.iter()
                .enumerate()
                .all(|(k, p)| self.tokens[i + k].is(p))
        })
    }
}

fn match_braces(tokens: &[Token]) -> Vec<Option<usize>> {
    let mut close = vec![None; tokens.len()];
    let mut stack = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokenKind::Punct {
            if t.is("{") {
                stack.push(i);
            } else if t.is("}") {
                if let Some(open) = stack.pop() {
                    close[open] = Some(i);
                }
            }
        }
    }
    close
}

/// True when the attribute token slice (the tokens strictly between `[`
/// and `]`) marks test-only code: `test`, `cfg(test)`, `cfg(all(test,…))`.
fn is_test_attr(attr: &[Token]) -> bool {
    match attr.first() {
        Some(t) if t.is("test") && attr.len() == 1 => true,
        // `cfg(test)` / `cfg(all(test, …))` are test-only; `cfg(not(test))`
        // is live code.
        Some(t) if t.is("cfg") => {
            attr.iter().any(|t| t.is("test")) && !attr.iter().any(|t| t.is("not"))
        }
        _ => false,
    }
}

/// End of the attribute starting at `#` token `i`: index just past `]`.
fn attr_end(tokens: &[Token], i: usize) -> Option<(usize, usize)> {
    // Accepts both `#[...]` and `#![...]`.
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is("!")) {
        j += 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is("[")) {
        return None;
    }
    let open = j;
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is("[") {
            depth += 1;
        } else if t.is("]") {
            depth -= 1;
            if depth == 0 {
                return Some((open + 1, k)); // attr content range, exclusive
            }
        }
    }
    None
}

/// End (inclusive) of the item starting at token `i`: the matching `}`
/// of its first top-level `{`, or the first top-level `;`.
fn item_end(tokens: &[Token], close_brace: &[Option<usize>], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is("(") || t.is("[") {
            depth += 1;
        } else if t.is(")") || t.is("]") {
            depth -= 1;
        } else if depth == 0 && t.is("{") {
            return close_brace[j].unwrap_or(tokens.len() - 1);
        } else if depth == 0 && t.is(";") {
            return j;
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

fn test_mask(tokens: &[Token], close_brace: &[Option<usize>]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is("#") {
            if let Some((lo, hi)) = attr_end(tokens, i) {
                if is_test_attr(&tokens[lo..hi]) {
                    // Skip any further attributes between this one and
                    // the item itself.
                    let mut j = hi + 1;
                    while j < tokens.len() && tokens[j].is("#") {
                        match attr_end(tokens, j) {
                            Some((_, h)) => j = h + 1,
                            None => break,
                        }
                    }
                    let end = item_end(tokens, close_brace, j);
                    for m in &mut mask[i..=end.min(tokens.len() - 1)] {
                        *m = true;
                    }
                    i = end + 1;
                    continue;
                }
                i = hi + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

fn fn_spans(tokens: &[Token], close_brace: &[Option<usize>]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !(tokens[i].kind == TokenKind::Ident && tokens[i].is("fn")) {
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokenKind::Ident {
            continue; // `fn(` in a function-pointer type
        }
        // Find the body `{` (or `;` for a bodyless trait method) at
        // paren/bracket depth 0.
        let mut depth = 0i32;
        let mut j = i + 2;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is("(") || t.is("[") {
                depth += 1;
            } else if t.is(")") || t.is("]") {
                depth -= 1;
            } else if depth == 0 && t.is(";") {
                break; // declaration without a body
            } else if depth == 0 && t.is("{") {
                if let Some(close) = close_brace[j] {
                    out.push(FnSpan {
                        name: name_tok.text.clone(),
                        open: j,
                        close,
                    });
                }
                break;
            }
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        fn hot(x: &[u8]) -> u8 { x[0] }

        #[cfg(test)]
        mod tests {
            #[test]
            fn cold() { panic!("fine in tests"); }
        }

        #[test]
        fn also_cold() { None::<u8>.unwrap(); }
    "#;

    #[test]
    fn test_regions_are_masked() {
        let f = SourceFile::parse("x.rs", SRC);
        let panic_idx = f.tokens.iter().position(|t| t.is("panic")).unwrap();
        let unwrap_idx = f.tokens.iter().position(|t| t.is("unwrap")).unwrap();
        let hot_idx = f.tokens.iter().position(|t| t.is("hot")).unwrap();
        assert!(f.test[panic_idx]);
        assert!(f.test[unwrap_idx]);
        assert!(!f.test[hot_idx]);
    }

    #[test]
    fn fn_spans_and_scopes() {
        let f = SourceFile::parse("x.rs", SRC);
        assert!(f.fn_named("hot").is_some());
        assert!(f.fn_named("cold").is_some());
        let x_idx = f
            .tokens
            .iter()
            .enumerate()
            .position(|(i, t)| t.is("x") && f.tokens.get(i + 1).is_some_and(|n| n.is("[")))
            .unwrap();
        assert_eq!(f.scope_at(x_idx), "hot");
    }

    #[test]
    fn cfg_test_on_use_item_ends_at_semicolon() {
        let f = SourceFile::parse("x.rs", "#[cfg(test)]\nuse foo::bar;\nfn live() { bar(); }");
        let live = f.tokens.iter().position(|t| t.is("live")).unwrap();
        assert!(!f.test[live]);
        assert!(f.test[0]);
    }
}
