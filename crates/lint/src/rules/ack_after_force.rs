//! `ack-after-force`: the §4.2 write-before-ack heuristic.
//!
//! "When a ForceLog message is received, … the log server forces all
//! buffered log records … before returning a NewHighLSN message." A
//! server that constructs its durable-high-LSN ack before the force call
//! can ack records that die with the NVRAM. For every non-test function
//! that both calls `.force(…)` or `.force_batch(…)` (a group commit) and
//! constructs a `NewHighLsn` message, the first force call must
//! lexically precede the first ack construction. Lexical order is a
//! heuristic — it cannot see through helper functions — but it catches
//! the regression that matters: an ack path reordered above the force
//! inside one handler.

use crate::report::Violation;
use crate::source::SourceFile;

/// Rule identifier.
pub const RULE: &str = "ack-after-force";

/// The store calls that make records durable.
const FORCES: [&str; 2] = ["force", "force_batch"];

/// Check every function in `file` that both forces and acks.
#[must_use]
pub fn check(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &file.fns {
        if file.test[f.open] {
            continue;
        }
        let force = FORCES
            .iter()
            .filter_map(|name| file.find_seq(f.open, f.close, &[".", name, "("]))
            .min();
        let ack = (f.open..f.close).find(|&i| file.tokens[i].is("NewHighLsn"));
        if let (Some(force_idx), Some(ack_idx)) = (force, ack) {
            if ack_idx < force_idx {
                out.push(Violation {
                    rule: RULE,
                    file: file.path.clone(),
                    line: file.tokens[ack_idx].line,
                    scope: f.name.clone(),
                    message: format!(
                        "`NewHighLsn` ack constructed (line {}) before the durable `.{}()` call \
                         (line {}); §4.2 requires force-before-ack",
                        file.tokens[ack_idx].line,
                        file.tokens[force_idx + 1].text,
                        file.tokens[force_idx].line
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_then_ack_is_clean() {
        let f = SourceFile::parse(
            "s.rs",
            "fn ingest(&mut self) { self.store.force(c).ok(); \
             self.out.push(Message::NewHighLsn { client, lsn }); }",
        );
        assert!(check(&f).is_empty());
    }

    #[test]
    fn ack_before_force_fires() {
        let f = SourceFile::parse(
            "s.rs",
            "fn ingest(&mut self) { let ack = Message::NewHighLsn { client, lsn }; \
             self.store.force(c).ok(); self.out.push(ack); }",
        );
        let vs = check(&f);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("before the durable"));
        assert_eq!(vs[0].scope, "ingest");
    }

    #[test]
    fn a_group_commit_is_a_force() {
        let ok = SourceFile::parse(
            "s.rs",
            "fn flush(&mut self) { if self.store.force_batch(&cs).is_err() { return; } \
             self.out.push(Message::NewHighLsn { client, lsn }); }",
        );
        assert!(check(&ok).is_empty());
        let bad = SourceFile::parse(
            "s.rs",
            "fn flush(&mut self) { self.out.push(Message::NewHighLsn { client, lsn }); \
             self.store.force_batch(&cs).ok(); }",
        );
        let vs = check(&bad);
        assert_eq!(vs.len(), 1);
        assert!(
            vs[0].message.contains("`.force_batch()`"),
            "{}",
            vs[0].message
        );
    }

    #[test]
    fn functions_with_only_one_side_are_skipped() {
        let f = SourceFile::parse(
            "s.rs",
            "fn only_ack(&mut self) { self.out.push(Message::NewHighLsn { client, lsn }); } \
             fn only_force(&mut self) { self.store.force(c).ok(); }",
        );
        assert!(check(&f).is_empty());
    }
}
