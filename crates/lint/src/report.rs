//! Structured lint diagnostics: findings and the report, mirroring the
//! sanitizer's `Hazard`/`SanitizerReport` shape (rule id/slug,
//! file:line span, offending expression, suggested fix), with a
//! machine-readable JSON rendering for CI.

use std::fmt;

use crate::rules::LintRule;

/// One static finding, with enough provenance to locate and fix it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Violated rule.
    pub rule: LintRule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the offending expression.
    pub line: usize,
    /// Enclosing function, when known.
    pub function: Option<String>,
    /// The offending expression / token, trimmed.
    pub excerpt: String,
    /// What happened (rule-specific details).
    pub message: String,
    /// Suggested fix (from [`LintRule::suggestion`]).
    pub suggestion: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}:{}", self.rule, self.file, self.line)?;
        if let Some(func) = &self.function {
            write!(f, " (fn {func})")?;
        }
        write!(f, " — {}", self.message)?;
        if !self.excerpt.is_empty() {
            write!(f, "\n    offending: {}", self.excerpt)?;
        }
        write!(f, "\n    fix: {}", self.suggestion)
    }
}

/// The analyzer's verdict over one workspace scan.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Findings, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Source files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Whether no finding was detected.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings of one rule.
    pub fn count(&self, rule: LintRule) -> usize {
        self.findings.iter().filter(|f| f.rule == rule).count()
    }

    /// Machine-readable JSON rendering (hand-rolled: the workspace
    /// builds offline with no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"tool\":\"dgnn-lint\",\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rule\":{},\"slug\":{},\"file\":{},\"line\":{},\"function\":{},\
                 \"excerpt\":{},\"message\":{},\"suggestion\":{}}}",
                json_str(f.rule.id()),
                json_str(f.rule.slug()),
                json_str(&f.file),
                f.line,
                f.function
                    .as_deref()
                    .map_or_else(|| "null".to_string(), json_str),
                json_str(&f.excerpt),
                json_str(&f.message),
                json_str(f.suggestion),
            ));
        }
        s.push_str(&format!(
            "],\"files_scanned\":{},\"clean\":{}}}",
            self.files_scanned,
            self.is_clean()
        ));
        s
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "dgnn-lint: {} finding(s) over {} file(s)",
            self.findings.len(),
            self.files_scanned,
        )?;
        for rule in LintRule::ALL {
            let n = self.count(rule);
            if n > 0 {
                writeln!(f, "  {rule}: {n}")?;
            }
        }
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// Escapes a string as a JSON string literal.
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

    fn finding() -> Finding {
        Finding {
            rule: LintRule::HashIteration,
            file: "crates/serve/src/sim.rs".into(),
            line: 42,
            function: Some("step".into()),
            excerpt: "pending.values()".into(),
            message: "iteration over HashMap `pending`".into(),
            suggestion: LintRule::HashIteration.suggestion(),
        }
    }

    #[test]
    fn report_renders_findings_and_counts() {
        let mut r = LintReport {
            files_scanned: 3,
            ..LintReport::default()
        };
        assert!(r.is_clean());
        r.findings.push(finding());
        assert!(!r.is_clean());
        assert_eq!(r.count(LintRule::HashIteration), 1);
        assert_eq!(r.count(LintRule::PricingDiscipline), 0);
        let text = r.to_string();
        assert!(text.contains("LINT1 hash-iteration"));
        assert!(text.contains("crates/serve/src/sim.rs:42"));
        assert!(text.contains("fn step"));
        assert!(text.contains("fix:"));
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut f = finding();
        f.message = "a \"quoted\"\nthing".into();
        let r = LintReport {
            findings: vec![f],
            files_scanned: 7,
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"rule\":\"LINT1\""));
        assert!(j.contains("\\\"quoted\\\"\\n"));
        assert!(j.contains("\"files_scanned\":7"));
        assert!(j.contains("\"clean\":false"));
        // Balanced braces outside strings is a cheap sanity proxy.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
