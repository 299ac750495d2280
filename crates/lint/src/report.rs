//! Findings and their human/JSON renderings.

/// One rule finding at a source location.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Rule identifier (e.g. `lock-order`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Enclosing function name, or `<file>` for file-level findings.
    pub scope: String,
    /// Human-readable description.
    pub message: String,
}

/// Wall time of one rule pass (for `dlog-lint --timing`).
#[derive(Clone, Debug)]
pub struct RuleTiming {
    /// Rule identifier.
    pub rule: &'static str,
    /// Wall time of the pass in microseconds (includes file loading
    /// done on the rule's behalf — first loader touch pays parse cost).
    pub micros: u128,
}

impl RuleTiming {
    /// Timing entry for `rule`, measured from `t0` to now.
    #[must_use]
    pub fn since(rule: &'static str, t0: std::time::Instant) -> RuleTiming {
        RuleTiming {
            rule,
            micros: t0.elapsed().as_micros(),
        }
    }
}

/// Outcome of a workspace lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, sorted by file, line and rule — each fails the gate.
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Per-rule wall time, in catalog order. Not part of the JSON
    /// output: the `--json` schema stays deterministic for snapshots.
    pub timings: Vec<RuleTiming>,
}

impl Report {
    /// Sort raw findings into a report.
    #[must_use]
    pub fn build(mut violations: Vec<Violation>, files_scanned: usize) -> Report {
        violations.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
        Report {
            violations,
            files_scanned,
            timings: Vec::new(),
        }
    }

    /// True when the workspace has no findings.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render as stable machine-readable JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"ok\": {},\n", self.ok()));
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"scope\": {}, \"message\": {}}}",
                json_str(v.rule),
                json_str(&v.file),
                v.line,
                json_str(&v.scope),
                json_str(&v.message)
            ));
        }
        if !self.violations.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Render as human-readable lines (one per finding).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for v in &self.violations {
            s.push_str(&format!(
                "{}:{}: [{}] ({}) {}\n",
                v.file, v.line, v.rule, v.scope, v.message
            ));
        }
        s.push_str(&format!(
            "{} file(s) scanned, {} violation(s)\n",
            self.files_scanned,
            self.violations.len()
        ));
        s
    }

    /// Render the per-rule timing table (for `--timing`).
    #[must_use]
    pub fn timing_table(&self) -> String {
        let width = self.timings.iter().map(|t| t.rule.len()).max().unwrap_or(0);
        let mut s = String::from("per-rule wall time:\n");
        let mut total: u128 = 0;
        for t in &self.timings {
            total += t.micros;
            s.push_str(&format!(
                "  {:width$}  {:>9.3} ms\n",
                t.rule,
                t.micros as f64 / 1000.0,
            ));
        }
        s.push_str(&format!(
            "  {:width$}  {:>9.3} ms\n",
            "total",
            total as f64 / 1000.0,
        ));
        s
    }
}

/// Escape a string for JSON output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_escaped() {
        let raw = vec![Violation {
            rule: "x",
            file: "a\"b.rs".into(),
            line: 3,
            scope: "s".into(),
            message: "line1\nline2".into(),
        }];
        let r = Report::build(raw, 1);
        let j = r.to_json();
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("line1\\nline2"));
        assert!(j.contains("\"ok\": false"));
    }
}
