//! `lint.allow` — the audited-exception list.
//!
//! One entry per line: `rule path scope # justification`. The scope is
//! the enclosing function name (or `<file>` for file-level findings);
//! `*` matches any scope in the file. The justification comment is
//! mandatory: an exception nobody can explain is not an exception.
//!
//! Entries that match no finding are reported as warnings so the list
//! cannot silently rot as violations get fixed.

/// One parsed allowlist entry.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// Rule identifier the entry silences.
    pub rule: String,
    /// Workspace-relative file path.
    pub path: String,
    /// Function scope, or `*` for the whole file.
    pub scope: String,
    /// 1-based line in `lint.allow`.
    pub line: u32,
}

impl AllowEntry {
    /// Human-readable rendering for warnings.
    #[must_use]
    pub fn display(&self) -> String {
        format!(
            "lint.allow:{}: {} {} {}",
            self.line, self.rule, self.path, self.scope
        )
    }
}

/// The parsed allowlist.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse allowlist text.
    ///
    /// # Errors
    /// Returns a message naming the first malformed line: every
    /// non-comment line needs exactly `rule path scope` before the `#`,
    /// and a non-empty justification after it.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i as u32 + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let (spec, justification) = match trimmed.split_once('#') {
                Some((s, j)) => (s.trim(), j.trim()),
                None => (trimmed, ""),
            };
            if justification.is_empty() {
                return Err(format!(
                    "lint.allow:{line}: entry lacks a `# justification` comment"
                ));
            }
            let fields: Vec<&str> = spec.split_whitespace().collect();
            let [rule, path, scope] = fields[..] else {
                return Err(format!(
                    "lint.allow:{line}: expected `rule path scope # justification`, got `{spec}`"
                ));
            };
            entries.push(AllowEntry {
                rule: rule.to_string(),
                path: path.to_string(),
                scope: scope.to_string(),
                line,
            });
        }
        Ok(Allowlist { entries })
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the list has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, in file order.
    #[must_use]
    pub fn entries(&self) -> &[AllowEntry] {
        &self.entries
    }

    /// Index of the first entry covering `(rule, path, scope)`.
    #[must_use]
    pub fn matches(&self, rule: &str, path: &str, scope: &str) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.rule == rule && e.path == path && (e.scope == "*" || e.scope == scope))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_matches() {
        let a = Allowlist::parse(
            "# header comment\n\n\
             hot-path-alloc crates/x.rs ingest # audited allocation\n\
             lock-order crates/y.rs * # single mutex\n",
        )
        .unwrap();
        assert_eq!(a.len(), 2);
        assert!(a
            .matches("hot-path-alloc", "crates/x.rs", "ingest")
            .is_some());
        assert!(a
            .matches("hot-path-alloc", "crates/x.rs", "other")
            .is_none());
        assert!(a.matches("lock-order", "crates/y.rs", "anything").is_some());
    }

    #[test]
    fn rejects_missing_justification() {
        assert!(Allowlist::parse("hot-path-alloc crates/x.rs f\n").is_err());
        assert!(Allowlist::parse("hot-path-alloc crates/x.rs f #   \n").is_err());
    }

    #[test]
    fn rejects_wrong_field_count() {
        assert!(Allowlist::parse("hot-path-alloc crates/x.rs # why\n").is_err());
        assert!(Allowlist::parse("a b c d # why\n").is_err());
    }
}
