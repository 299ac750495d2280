//! `status-parity`: observability `Response` variants and their field
//! tables in `docs/PROTOCOL.md` must list the same fields.
//!
//! The Status RPC is the operational surface (`dlog status`); PR 1 grew
//! it from 7 to 13 gauges and the protocol doc silently lagged. PR 3
//! added a second surface, the `Stats` RPC (`dlog stats`), so the rule
//! is parameterized over [`TABLES`]: for each `(variant, heading)` pair
//! it extracts the variant's field names from `wire.rs` and the first
//! column of the markdown table under the heading, then requires the
//! two sets to be identical (names and count).

use crate::lexer::TokenKind;
use crate::report::Violation;
use crate::source::SourceFile;

/// Rule identifier.
pub const RULE: &str = "status-parity";

/// The observability `Response` variants and the markdown headings that
/// introduce their field tables in the protocol doc.
pub const TABLES: &[(&str, &str)] = &[("Status", "Status gauges"), ("Stats", "Stats fields")];

/// Compare each observability variant's fields in `wire` with its table
/// in the protocol document text (`doc_path` names it for reporting).
#[must_use]
pub fn check(wire: &SourceFile, doc_path: &str, doc_text: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for &(variant, heading) in TABLES {
        out.extend(check_variant(wire, doc_path, doc_text, variant, heading));
    }
    out
}

fn check_variant(
    wire: &SourceFile,
    doc_path: &str,
    doc_text: &str,
    variant: &str,
    heading: &str,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let code_fields = match variant_fields(wire, variant) {
        Some(f) => f,
        None => {
            return vec![Violation {
                rule: RULE,
                file: wire.path.clone(),
                line: 1,
                scope: "<file>".to_string(),
                message: format!("`Response::{variant}` variant not found in wire.rs"),
            }]
        }
    };
    let (doc_fields, table_line) = match doc_table_fields(doc_text, heading) {
        Some(f) => f,
        None => {
            return vec![Violation {
                rule: RULE,
                file: doc_path.to_string(),
                line: 1,
                scope: "<file>".to_string(),
                message: format!(
                    "no `{heading}` table found in {doc_path}; the {variant} wire struct \
                     has {} fields that must be documented",
                    code_fields.len()
                ),
            }]
        }
    };
    for (name, line) in &code_fields {
        if !doc_fields.iter().any(|(d, _)| d == name) {
            out.push(Violation {
                rule: RULE,
                file: doc_path.to_string(),
                line: table_line,
                scope: "<file>".to_string(),
                message: format!(
                    "{variant} field `{name}` (wire.rs:{line}) is missing from the \
                     `{heading}` table"
                ),
            });
        }
    }
    for (name, line) in &doc_fields {
        if !code_fields.iter().any(|(c, _)| c == name) {
            out.push(Violation {
                rule: RULE,
                file: doc_path.to_string(),
                line: *line,
                scope: "<file>".to_string(),
                message: format!(
                    "documented {variant} field `{name}` does not exist in `Response::{variant}`"
                ),
            });
        }
    }
    if out.is_empty() && code_fields.len() != doc_fields.len() {
        out.push(Violation {
            rule: RULE,
            file: doc_path.to_string(),
            line: table_line,
            scope: "<file>".to_string(),
            message: format!(
                "{variant} field count mismatch: wire.rs has {}, {doc_path} documents {}",
                code_fields.len(),
                doc_fields.len()
            ),
        });
    }
    out
}

/// Variant names (with a representative token index) of `enum name`.
/// Returns `None` when the enum is missing.
fn enum_variants(file: &SourceFile, name: &str) -> Option<Vec<(String, usize)>> {
    let toks = &file.tokens;
    let start = (0..toks.len()).find(|&i| {
        toks[i].is("enum") && toks.get(i + 1).is_some_and(|t| t.is(name)) && !file.test[i]
    })?;
    // Body opens at the first `{` after the name (no generics on these).
    let open = (start + 2..toks.len()).find(|&i| toks[i].is("{"))?;
    let close = file.matching_brace(open)?;
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.is("{") || t.is("(") || t.is("[") {
            depth += 1;
        } else if t.is("}") || t.is(")") || t.is("]") {
            depth -= 1;
        } else if depth == 0 && t.kind == TokenKind::Ident {
            let next = toks.get(i + 1);
            let is_variant =
                next.is_some_and(|n| n.is("{") || n.is("(") || n.is(",") || n.is("=") || n.is("}"));
            if is_variant {
                variants.push((t.text.clone(), i));
                // Skip to the end of this variant (next `,` at depth 0).
                while i < close {
                    let t = &toks[i];
                    if t.is("{") || t.is("(") || t.is("[") {
                        depth += 1;
                    } else if t.is("}") || t.is(")") || t.is("]") {
                        depth -= 1;
                    } else if depth == 0 && t.is(",") {
                        break;
                    }
                    i += 1;
                }
            }
        }
        i += 1;
    }
    Some(variants)
}

/// Field names (with lines) of the named variant of `enum Response`.
fn variant_fields(wire: &SourceFile, variant: &str) -> Option<Vec<(String, u32)>> {
    let variants = enum_variants(wire, "Response")?;
    let (_, vtok) = variants.into_iter().find(|(n, _)| n == variant)?;
    let toks = &wire.tokens;
    let open = (vtok + 1..toks.len()).find(|&i| toks[i].is("{"))?;
    let close = wire.matching_brace(open)?;
    let mut fields = Vec::new();
    let mut depth = 0i32;
    for i in open + 1..close {
        let t = &toks[i];
        if t.is("{") || t.is("(") || t.is("[") || t.is("<") {
            depth += 1;
        } else if t.is("}") || t.is(")") || t.is("]") || t.is(">") {
            depth -= 1;
        } else if depth == 0
            && t.kind == TokenKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is(":"))
            && !t.is("pub")
        {
            fields.push((t.text.clone(), t.line));
        }
    }
    Some(fields)
}

/// First-column names of the table under `heading`, with their 1-based
/// lines, plus the table's first line.
fn doc_table_fields(text: &str, heading: &str) -> Option<(Vec<(String, u32)>, u32)> {
    let mut in_section = false;
    let mut past_separator = false;
    let mut fields = Vec::new();
    let mut table_line = 0u32;
    for (i, line) in text.lines().enumerate() {
        let lineno = i as u32 + 1;
        let trimmed = line.trim();
        if trimmed.starts_with('#') {
            if in_section && !fields.is_empty() {
                break;
            }
            in_section = trimmed.contains(heading);
            past_separator = false;
            continue;
        }
        if !in_section || !trimmed.starts_with('|') {
            continue;
        }
        let first_cell = trimmed
            .trim_matches('|')
            .split('|')
            .next()
            .unwrap_or("")
            .trim()
            .trim_matches('`')
            .to_string();
        if first_cell.starts_with('-') || first_cell.starts_with(':') {
            // The |---|---| separator: body rows follow.
            past_separator = true;
            continue;
        }
        if !past_separator || first_cell.is_empty() {
            continue; // header row (or malformed)
        }
        if table_line == 0 {
            table_line = lineno;
        }
        fields.push((first_cell, lineno));
    }
    if fields.is_empty() {
        None
    } else {
        Some((fields, table_line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WIRE: &str = "
        pub enum Response {
            Ok,
            Status {
                records_stored: u64,
                naks_sent: u64,
            },
            Stats {
                stages: u64,
                trace_events: u64,
                trace_dropped: u64,
            },
        }
    ";

    const STATS_TABLE: &str = "### Stats fields\n\n\
                               | field | meaning |\n|---|---|\n\
                               | `stages` | per-stage histograms |\n\
                               | `trace_events` | events recorded |\n\
                               | `trace_dropped` | events evicted |\n";

    #[test]
    fn matching_tables_are_clean() {
        let wire = SourceFile::parse("wire.rs", WIRE);
        let doc = format!(
            "### Status gauges\n\n\
             | gauge | meaning |\n|---|---|\n\
             | `records_stored` | total |\n| `naks_sent` | naks |\n\n{STATS_TABLE}"
        );
        assert!(check(&wire, "docs/PROTOCOL.md", &doc).is_empty());
    }

    #[test]
    fn missing_and_phantom_gauges_fire() {
        let wire = SourceFile::parse("wire.rs", WIRE);
        let doc = format!(
            "### Status gauges\n\n\
             | gauge | meaning |\n|---|---|\n\
             | `records_stored` | total |\n| `ghost_gauge` | nope |\n\n{STATS_TABLE}"
        );
        let vs = check(&wire, "docs/PROTOCOL.md", &doc);
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert!(vs.iter().any(|v| v.message.contains("naks_sent")));
        assert!(vs.iter().any(|v| v.message.contains("ghost_gauge")));
    }

    #[test]
    fn stats_table_checked_independently() {
        let wire = SourceFile::parse("wire.rs", WIRE);
        let doc = "### Status gauges\n\n\
                   | gauge | meaning |\n|---|---|\n\
                   | `records_stored` | total |\n| `naks_sent` | naks |\n\n\
                   ### Stats fields\n\n\
                   | field | meaning |\n|---|---|\n\
                   | `stages` | per-stage histograms |\n\
                   | `phantom_field` | nope |\n";
        let vs = check(&wire, "docs/PROTOCOL.md", doc);
        assert_eq!(vs.len(), 3, "{vs:?}");
        assert!(vs.iter().any(|v| v.message.contains("trace_events")));
        assert!(vs.iter().any(|v| v.message.contains("trace_dropped")));
        assert!(vs.iter().any(|v| v.message.contains("phantom_field")));
    }

    #[test]
    fn variant_extraction_handles_struct_and_tuple_fields() {
        let wire = SourceFile::parse(
            "wire.rs",
            "pub enum Message { Syn { isn: u64 }, Data(Vec<u8>), Fin, }",
        );
        let vars = enum_variants(&wire, "Message").unwrap();
        let names: Vec<&str> = vars.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Syn", "Data", "Fin"]);
    }

    #[test]
    fn absent_table_fires() {
        let wire = SourceFile::parse("wire.rs", WIRE);
        let vs = check(&wire, "docs/PROTOCOL.md", "# Protocol\nno table here\n");
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert!(vs
            .iter()
            .any(|v| v.message.contains("no `Status gauges` table")));
        assert!(vs
            .iter()
            .any(|v| v.message.contains("no `Stats fields` table")));
    }
}
