//! End-to-end analyzer tests: every LINT1–5 rule is proven by a
//! flagged adversarial fixture plus a passing clean twin (mini
//! workspace trees under `tests/fixtures/`), and the live workspace
//! lints clean.

use std::path::{Path, PathBuf};

use dgnn_lint::{analyze_root, LintRule};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Analyzes a fixture tree with every rule.
fn run(name: &str) -> dgnn_lint::LintReport {
    analyze_root(&fixture_root(name)).unwrap_or_else(|e| panic!("cannot scan fixture {name}: {e}"))
}

/// Asserts the adversarial fixture is flagged under every rule, with
/// every finding carrying the expected rule, and the clean twin passes.
fn prove(rule: LintRule, bad: &str, clean: &str, min_findings: usize) {
    let report = run(bad);
    assert!(
        report.findings.len() >= min_findings,
        "{bad}: expected ≥{min_findings} {} finding(s), got {:#?}",
        rule.id(),
        report.findings
    );
    for f in &report.findings {
        assert_eq!(f.rule, rule, "{bad}: stray rule in {f:#?}");
        assert!(f.line > 0, "{bad}: finding without a line: {f:#?}");
        assert!(!f.excerpt.is_empty(), "{bad}: empty excerpt: {f:#?}");
    }
    let report = run(clean);
    assert!(
        report.is_clean(),
        "{clean}: clean twin must pass every rule, got {:#?}",
        report.findings
    );
}

#[test]
fn lint1_hash_iteration_fixture_pair() {
    prove(LintRule::HashIteration, "lint1_bad", "lint1_clean", 2);
}

#[test]
fn lint2_nondeterminism_fixture_pair() {
    prove(
        LintRule::NondeterminismSource,
        "lint2_bad",
        "lint2_clean",
        3,
    );
}

#[test]
fn lint3_pricing_discipline_fixture_pair() {
    prove(LintRule::PricingDiscipline, "lint3_bad", "lint3_clean", 3);
}

#[test]
fn lint4_structural_coverage_fixture_pair() {
    let report = run("lint4_bad");
    let messages: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        messages
            .iter()
            .any(|m| m.contains("RULE2") && m.contains("clean-twin")),
        "missing RULE2 clean-twin finding: {messages:#?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("dead_knob")),
        "missing dead_knob finding: {messages:#?}"
    );
    assert_eq!(report.findings.len(), 2, "{:#?}", report.findings);
    prove(LintRule::StructuralCoverage, "lint4_bad", "lint4_clean", 2);
}

#[test]
fn lint5_float_reduction_fixture_pair() {
    prove(LintRule::FloatReductionOrder, "lint5_bad", "lint5_clean", 1);
}

#[test]
fn json_report_is_well_formed() {
    let report = run("lint2_bad");
    let json = report.to_json();
    assert!(json.contains("\"LINT2\""), "{json}");
    assert!(json.contains("\"nondeterminism-source\""), "{json}");
    assert!(json.contains("crates/dyngraph/src/gen.rs"), "{json}");
}

/// The acceptance bar for the whole workspace: `dgnn-lint` reports
/// zero findings on the checked-in tree.
#[test]
fn live_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze_root(&root).unwrap();
    assert!(report.files_scanned > 100, "suspiciously small scan");
    assert!(
        report.is_clean(),
        "live workspace must lint clean:\n{report}"
    );
}
