//! `dgnn-lint` — workspace-wide static determinism & pricing-discipline
//! analyzer.
//!
//! Every headline number in this repository rests on two invariants:
//! **bit-determinism per seed** and **priced = computed**. The dynamic
//! sanitizer (`dgnn-analysis`) checks them by replaying traces — but
//! only of the paths that happened to execute. This crate closes the
//! gap *statically*: it parses every workspace source file (a
//! self-contained surface lexer — the workspace builds offline with no
//! external crates, so no `syn`), builds a file/module/function map,
//! and enforces the LINT1–5 rule set on all code paths at CI time,
//! before a trace ever runs. See [`rules`] for the catalogue and
//! `DESIGN.md` §3j for the static-vs-dynamic split.
//!
//! Findings mirror the sanitizer's structured-diagnostic style: rule
//! id/slug, `file:line` span, offending expression, suggested fix, and
//! both a human table and a machine-readable JSON report. Intentional
//! exceptions use an inline escape hatch that *requires a rationale*:
//!
//! ```text
//! // lint: allow(hash-iteration) — drained into a sort two lines down
//! ```

pub mod lex;
pub mod model;
pub mod report;
pub mod rules;
pub mod scan;
pub mod structural;

use std::io;
use std::path::Path;

pub use crate::lex::{lex, Allow, Lexed};
pub use crate::model::{SourceFile, Workspace};
pub use crate::report::{Finding, LintReport};
pub use crate::rules::{LintRule, DECISION_PATH_CRATES, WALLCLOCK_ALLOWLIST};

/// Analyzes a loaded workspace with every rule: per-file scans plus
/// the cross-file structural checks, findings sorted by (file, line).
pub fn analyze(ws: &Workspace) -> LintReport {
    let mut findings: Vec<Finding> = Vec::new();
    for file in &ws.files {
        findings.extend(scan::scan_file(file));
    }
    findings.extend(structural::scan_workspace(ws));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule.id()).cmp(&(&b.file, b.line, b.rule.id())));
    LintReport {
        findings,
        files_scanned: ws.files.len(),
    }
}

/// Loads the workspace at `root` and analyzes it with every rule.
pub fn analyze_root(root: &Path) -> io::Result<LintReport> {
    let ws = Workspace::load(root)?;
    Ok(analyze(&ws))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_sorts_findings_by_file() {
        let ws = Workspace {
            root: std::path::PathBuf::from("/synthetic"),
            files: vec![
                SourceFile::from_source(
                    "crates/serve/src/b.rs",
                    "fn f() { let m: std::collections::HashMap<u8, u8> = Default::default();\n\
                     let _ = m.keys().count(); }\n"
                        .into(),
                ),
                SourceFile::from_source(
                    "crates/serve/src/a.rs",
                    "fn f() { let m: std::collections::HashMap<u8, u8> = Default::default();\n\
                     let _ = m.values().count(); }\n"
                        .into(),
                ),
            ],
        };
        let report = analyze(&ws);
        assert_eq!(report.findings.len(), 2);
        assert_eq!(report.files_scanned, 2);
        assert!(report.findings[0].file < report.findings[1].file);
    }
}
