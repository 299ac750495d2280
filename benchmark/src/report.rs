//! What a pass over one workload produced, and how it is printed: a
//! table for people, one JSON object per pass for machines.

use std::fmt::Write as _;

use crate::recorder::{summarize, summarize_calm, Summary};

#[derive(Clone, Debug)]
pub struct Value {
    pub name: String,
    pub unit: &'static str,
    pub s: Summary,
}

impl Value {
    /// A metric with one sample per window (or per repetition).
    pub fn of(name: &str, unit: &'static str, samples: &[f64]) -> Value {
        Value {
            name: name.to_string(),
            unit,
            s: summarize(samples),
        }
    }

    /// A timing with one sample per window, reported at the level its
    /// best windows reach ([`crate::recorder::calm`]).
    pub fn calm(name: &str, unit: &'static str, samples: &[f64], higher_is_better: bool) -> Value {
        Value {
            name: name.to_string(),
            unit,
            s: summarize_calm(samples, higher_is_better),
        }
    }

    /// A metric that is one number by construction (a count, a ratio).
    pub fn one(name: &str, unit: &'static str, v: f64) -> Value {
        Value::of(name, unit, &[v])
    }
}

/// One pass (untraced or traced) over one workload.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    /// Operations attempted: commits, records read, records verified.
    pub attempted: u64,
    /// Operations that returned `Err`, plus verification mismatches.
    pub failed: u64,
    /// The metrics `BENCHMARK.json` names for this kind of pass.
    pub values: Vec<Value>,
    /// `diag.*`: printed, never gated.
    pub diag: Vec<Value>,
    /// Free-form lines: configuration, verification, the commit budget.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|v| v.name == name)
            .map(|v| v.s.value)
    }

    /// The result line of the driver's contract.
    pub fn contract_json(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|v| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    v.name,
                    number(v.s.value),
                    v.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn table(&self) -> String {
        let mut out = String::new();
        let pass = if self.traced {
            "traced, per layer"
        } else {
            "untraced, end to end"
        };
        let _ = writeln!(out, "== {} ({pass})", self.workload);
        for n in &self.notes {
            let _ = writeln!(out, "   {n}");
        }
        let _ = writeln!(
            out,
            "   {:<38} {:>14} {:>14} {:>14} {:>14} {:>4}  unit",
            "metric", "reported", "median", "min", "max", "n"
        );
        for v in self.values.iter().chain(&self.diag) {
            let _ = writeln!(
                out,
                "   {:<38} {:>14} {:>14} {:>14} {:>14} {:>4}  {}",
                v.name,
                short(v.s.value),
                short(v.s.median),
                short(v.s.min),
                short(v.s.max),
                v.s.n,
                v.unit
            );
        }
        let _ = writeln!(
            out,
            "   failed_ratio {} ({} failed of {} attempted)",
            short(self.failed as f64 / self.attempted.max(1) as f64),
            self.failed,
            self.attempted
        );
        out
    }
}

/// A JSON number with all its digits (never `NaN` or `inf`).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Four significant figures for tables.
pub fn short(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return "0".to_string();
    }
    let digits = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let o = Outcome {
            workload: "w",
            attempted: 10,
            failed: 0,
            values: vec![
                Value::one("setup_s", "s", 0.8127),
                Value::of("x", "ms", &[1.0, 3.0, 2.0]),
            ],
            ..Outcome::default()
        };
        assert_eq!(
            o.contract_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"x\": {\"value\": 2, \"unit\": \"ms\"}}}"
        );
        assert!(!o.contract_json().contains('\n'));
        let failed = Outcome { failed: 1, ..o };
        assert!(failed.contract_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn short_keeps_four_significant_figures() {
        assert_eq!(short(12345.678), "12346");
        assert_eq!(short(12.345678), "12.35");
        assert_eq!(short(0.0123456), "0.01235");
        assert_eq!(short(0.0), "0");
    }
}
