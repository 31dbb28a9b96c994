//! Per-file scanners: LINT1 (hash iteration), LINT2 (nondeterminism
//! sources), LINT3 (pricing discipline) and LINT5 (float reduction
//! order). LINT4 is cross-file and lives in [`crate::structural`].
//!
//! All scans run over the lexer's *cleaned* text (comments and string
//! literals blanked), so pattern names appearing in docs or messages
//! never trigger findings — including in this crate's own sources.

use std::collections::BTreeSet;

use crate::model::SourceFile;
use crate::report::Finding;
use crate::rules::{LintRule, DECISION_PATH_CRATES, WALLCLOCK_ALLOWLIST};

/// Hash-container methods whose results depend on iteration order.
const ITERATION_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Scans one file against every per-file rule.
pub fn scan_file(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    scan_hash_iteration(file, &mut out);
    scan_nondeterminism(file, &mut out);
    scan_pricing(file, &mut out);
    scan_float_reduction(file, &mut out);
    out
}

/// Records a finding unless a valid `lint: allow` escape hatch covers
/// the line; an allow *without a rationale* is itself a finding.
fn push_finding(
    file: &SourceFile,
    out: &mut Vec<Finding>,
    rule: LintRule,
    line: usize,
    excerpt: String,
    message: String,
) {
    if let Some(allow) = file.lex.allow_for(rule.slug(), line) {
        if !allow.rationale.is_empty() {
            return;
        }
        out.push(Finding {
            rule,
            file: file.rel_path.clone(),
            line,
            function: file.lex.enclosing_fn(line).map(str::to_string),
            excerpt: excerpt.clone(),
            message: format!(
                "escape hatch on line {} has no rationale — `lint: allow({})` \
                 requires a non-empty justification; original finding: {message}",
                allow.line,
                rule.slug()
            ),
            suggestion: rule.suggestion(),
        });
        return;
    }
    out.push(Finding {
        rule,
        file: file.rel_path.clone(),
        line,
        function: file.lex.enclosing_fn(line).map(str::to_string),
        excerpt,
        message,
        suggestion: rule.suggestion(),
    });
}

// ---------------------------------------------------------------- LINT1

/// LINT1: iteration over `HashMap`/`HashSet` in decision-path crates.
fn scan_hash_iteration(file: &SourceFile, out: &mut Vec<Finding>) {
    if !DECISION_PATH_CRATES.contains(&file.crate_name.as_str()) || file.in_tests_dir {
        return;
    }
    let idents = hash_idents(&file.lex.cleaned);
    if idents.is_empty() {
        return;
    }
    let cleaned = &file.lex.cleaned;

    // Method-call iteration: `m.values()`, `self.m.drain(..)`, ….
    for method in ITERATION_METHODS {
        for at in occurrences(cleaned, &format!(".{method}")) {
            let after = at + 1 + method.len();
            if !next_nonspace_is(cleaned, after, &['(', ':']) {
                continue;
            }
            let Some(base) = receiver_ident(cleaned, at) else {
                continue;
            };
            if !idents.contains(&base) {
                continue;
            }
            let line = line_of(cleaned, at);
            if file.is_test_context(line) {
                continue;
            }
            push_finding(
                file,
                out,
                LintRule::HashIteration,
                line,
                format!("{base}.{method}()"),
                format!(
                    "iteration over hash container `{base}` via `.{method}()` — \
                     visit order depends on hasher state"
                ),
            );
        }
    }

    // `for pat in m { … }` / `for pat in &m { … }`.
    for at in occurrences(cleaned, "for ") {
        let Some(in_rel) = cleaned[at..].find(" in ") else {
            continue;
        };
        let expr_start = at + in_rel + 4;
        let Some(brace_rel) = cleaned[expr_start..].find('{') else {
            continue;
        };
        let expr = cleaned[expr_start..expr_start + brace_rel].trim();
        let expr = expr
            .trim_start_matches('&')
            .trim_start_matches("mut ")
            .trim();
        let base = expr.strip_prefix("self.").unwrap_or(expr);
        if !base.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') || base.is_empty() {
            continue;
        }
        if !idents.contains(base) {
            continue;
        }
        let line = line_of(cleaned, at);
        if file.is_test_context(line) {
            continue;
        }
        push_finding(
            file,
            out,
            LintRule::HashIteration,
            line,
            format!("for … in {expr}"),
            format!(
                "for-loop over hash container `{base}` — visit order depends \
                 on hasher state"
            ),
        );
    }
}

/// Identifiers declared as `HashMap`/`HashSet` in this file: type
/// annotations (`x: HashMap<…>`, struct fields, `&HashMap` params) and
/// constructor bindings (`let mut x = HashMap::new()`).
fn hash_idents(cleaned: &str) -> BTreeSet<String> {
    let mut idents = BTreeSet::new();
    for container in ["HashMap", "HashSet"] {
        for at in occurrences(cleaned, container) {
            // Effective start: absorb a `std::collections::` path prefix.
            let mut start = at;
            for prefix in ["collections::", "std::"] {
                if cleaned[..start].ends_with(prefix) {
                    start -= prefix.len();
                }
            }
            let mut before = cleaned[..start].trim_end();
            // Absorb `&` / `&mut` so reference-typed positions
            // (`m: &HashMap<…>`) still resolve to their identifier.
            if let Some(b) = before.strip_suffix("mut") {
                before = b.trim_end();
            }
            before = before.trim_end_matches('&').trim_end();
            if let Some(rest) = before.strip_suffix(':') {
                // Type position: `ident: [&][mut ]HashMap<…>`. A `::`
                // path (use statements, `foo::HashMap`) is not one.
                if rest.ends_with(':') {
                    continue;
                }
                let rest = rest.trim_end();
                if let Some(id) = trailing_ident(rest) {
                    idents.insert(id);
                }
            } else if let Some(rest) = before.strip_suffix('=') {
                // Constructor binding: `let [mut] ident = HashMap::new()`.
                if !cleaned[at..].starts_with(&format!("{container}::")) {
                    continue;
                }
                if let Some(id) = trailing_ident(rest.trim_end()) {
                    idents.insert(id);
                }
            }
        }
    }
    idents
}

// ---------------------------------------------------------------- LINT2

/// LINT2 banned sources: `(pattern, class, what)`.
const NONDET_SOURCES: [(&str, SourceClass, &str); 7] = [
    ("Instant::now", SourceClass::WallClock, "wall-clock read"),
    ("SystemTime", SourceClass::WallClock, "wall-clock read"),
    ("thread_rng", SourceClass::Entropy, "OS-seeded RNG"),
    ("from_entropy", SourceClass::Entropy, "OS-seeded RNG"),
    ("RandomState", SourceClass::Entropy, "hasher entropy"),
    ("getrandom", SourceClass::Entropy, "OS randomness"),
    ("env::var", SourceClass::Environment, "environment read"),
];

/// Which allowlist a banned pattern falls under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SourceClass {
    /// `Instant::now` / `SystemTime` — legal only in the bench harness.
    WallClock,
    /// OS randomness — never legal without an escape hatch.
    Entropy,
    /// Environment reads — configuration must be explicit.
    Environment,
}

/// LINT2: nondeterminism sources outside the bench-harness allowlist.
fn scan_nondeterminism(file: &SourceFile, out: &mut Vec<Finding>) {
    let cleaned = &file.lex.cleaned;
    for (pattern, class, what) in NONDET_SOURCES {
        if class == SourceClass::WallClock && WALLCLOCK_ALLOWLIST.contains(&file.rel_path.as_str())
        {
            continue;
        }
        for at in occurrences(cleaned, pattern) {
            let line = line_of(cleaned, at);
            push_finding(
                file,
                out,
                LintRule::NondeterminismSource,
                line,
                pattern.to_string(),
                format!(
                    "{what} (`{pattern}`) — simulated pricing and sampling must \
                     not observe host time, entropy or environment"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- LINT3

/// LINT3: timeline pushes / lane-clock mutation outside `dgnn-device`.
fn scan_pricing(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.crate_name == "device" || file.in_tests_dir {
        return;
    }
    let cleaned = &file.lex.cleaned;

    // Raw `TimelineEvent { … }` construction (return-type braces and
    // destructuring in test modules are exempted elsewhere).
    for at in occurrences(cleaned, "TimelineEvent") {
        let after = at + "TimelineEvent".len();
        if !next_nonspace_is(cleaned, after, &['{']) {
            continue;
        }
        // `-> …TimelineEvent {` is a function's return type, not a
        // struct literal: scan back over path segments for an arrow.
        let mut back = cleaned[..at].trim_end();
        while let Some(stripped) = back.strip_suffix("::") {
            let no_ident =
                stripped.trim_end_matches(|c: char| c.is_ascii_alphanumeric() || c == '_');
            back = no_ident.trim_end();
        }
        if back.ends_with("->") {
            continue;
        }
        let line = line_of(cleaned, at);
        if file.is_test_context(line) {
            continue;
        }
        push_finding(
            file,
            out,
            LintRule::PricingDiscipline,
            line,
            "TimelineEvent { … }".to_string(),
            "raw TimelineEvent construction outside dgnn-device — events \
             must be emitted by the Dispatcher/Executor so priced = computed"
                .to_string(),
        );
    }

    // Direct pushes and lane-clock mutation.
    for (pattern, what) in [
        ("Timeline::push", "direct timeline push"),
        (".clock_mut(", "lane-clock mutation"),
        ("lane_clock", "lane-clock mutation"),
        ("timeline.push(", "direct timeline push"),
        ("tl.push(", "direct timeline push"),
    ] {
        for at in occurrences(cleaned, pattern) {
            let line = line_of(cleaned, at);
            if file.is_test_context(line) {
                continue;
            }
            push_finding(
                file,
                out,
                LintRule::PricingDiscipline,
                line,
                pattern.trim_end_matches('(').to_string(),
                format!(
                    "{what} outside dgnn-device — all priced work must flow \
                     through Dispatcher/Executor"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- LINT5

/// LINT5: unordered float reductions in parallel modules.
fn scan_float_reduction(file: &SourceFile, out: &mut Vec<Finding>) {
    let cleaned = &file.lex.cleaned;
    let parallel = cleaned.contains("thread::spawn") || cleaned.contains("thread::scope");
    if !parallel || file.in_tests_dir {
        return;
    }
    let idents = hash_idents(cleaned);
    for pattern in [".sum::<f32>", ".sum::<f64>", ".fold("] {
        for at in occurrences(cleaned, pattern) {
            let line = line_of(cleaned, at);
            if file.is_test_context(line) {
                continue;
            }
            // The reduction's source chain: back to the statement edge.
            let stmt_start = cleaned[..at].rfind([';', '{', '}']).map_or(0, |p| p + 1);
            let chain = &cleaned[stmt_start..at];
            let over_hash = ITERATION_METHODS.iter().any(|m| {
                occurrences(chain, &format!(".{m}"))
                    .iter()
                    .any(|&p| receiver_ident(chain, p).is_some_and(|base| idents.contains(&base)))
            });
            let unordered = chain.contains(".values()")
                || chain.contains(".keys()")
                || chain.contains(".try_iter()")
                || over_hash;
            if !unordered {
                continue;
            }
            // `.fold` only matters for float accumulators.
            if pattern == ".fold(" {
                let args = &cleaned[at..cleaned.len().min(at + 48)];
                if !(args.contains("0.0") || args.contains("f32") || args.contains("f64")) {
                    continue;
                }
            }
            push_finding(
                file,
                out,
                LintRule::FloatReductionOrder,
                line,
                format!("…{}", pattern.trim_start_matches('.')),
                "float reduction over an unordered source in a parallel \
                 module — float addition is not associative, so the result \
                 depends on visit order"
                    .to_string(),
            );
        }
    }
}

// ------------------------------------------------------------- helpers

/// Byte offsets of every word-boundary occurrence of `pattern`.
fn occurrences(haystack: &str, pattern: &str) -> Vec<usize> {
    let mut offs = Vec::new();
    let bytes = haystack.as_bytes();
    let mut from = 0usize;
    let starts_ident = pattern.starts_with(|c: char| is_ident_byte(c as u8));
    while let Some(p) = haystack[from..].find(pattern) {
        let at = from + p;
        let before_ok = !starts_ident || at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + pattern.len();
        let after_ok = end >= bytes.len()
            || !pattern.ends_with(|c: char| is_ident_byte(c as u8))
            || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            offs.push(at);
        }
        from = at + pattern.len().max(1);
    }
    offs
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether the next non-space byte at/after `from` is one of `want`.
fn next_nonspace_is(s: &str, from: usize, want: &[char]) -> bool {
    s[from.min(s.len())..]
        .chars()
        .find(|c| !c.is_whitespace())
        .is_some_and(|c| want.contains(&c))
}

/// The receiver identifier of a `.method(` occurrence at `dot`:
/// `ident.method` or `self.ident.method` → `ident`. Chained receivers
/// (`x.clone().method()`) are unresolvable and yield `None`.
fn receiver_ident(s: &str, dot: usize) -> Option<String> {
    let before = &s[..dot];
    let trimmed = before.trim_end();
    let id = trailing_ident(trimmed)?;
    // `self.ident` is fine; `other.ident` is a foreign field — still
    // report the field name, the declaration scan is file-scoped anyway.
    Some(id)
}

/// The identifier ending at the end of `s`, if any.
fn trailing_ident(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut start = bytes.len();
    while start > 0 && is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    if start == bytes.len() {
        return None;
    }
    let id = &s[start..];
    if id.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(id.to_string())
}

/// 1-based line number of byte offset `at`.
fn line_of(s: &str, at: usize) -> usize {
    1 + s.as_bytes()[..at.min(s.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_file(src: &str) -> SourceFile {
        SourceFile::from_source("crates/serve/src/sim.rs", src.to_string())
    }

    #[test]
    fn hash_iteration_is_flagged_and_point_lookups_pass() {
        let src = "use std::collections::HashMap;\n\
                   fn step() {\n\
                   let mut pending: HashMap<u64, u64> = HashMap::new();\n\
                   pending.insert(1, 2);\n\
                   let _ = pending.get(&1);\n\
                   for (k, v) in &pending { let _ = (k, v); }\n\
                   let total: u64 = pending.values().sum();\n\
                   }\n";
        let f = serve_file(src);
        let findings = scan_file(&f);
        assert_eq!(findings.len(), 2, "{findings:#?}");
        assert!(findings.iter().any(|x| x.excerpt.contains("for …")));
        assert!(findings.iter().any(|x| x.excerpt.contains("values")));
        assert_eq!(findings[0].function.as_deref(), Some("step"));
    }

    #[test]
    fn btree_iteration_and_non_decision_crates_pass() {
        let src = "use std::collections::BTreeMap;\n\
                   fn ok() { let m: BTreeMap<u64, u64> = BTreeMap::new();\n\
                   for (k, v) in &m { let _ = (k, v); } }\n";
        let f = serve_file(src);
        assert!(scan_file(&f).is_empty());
        // The same hash iteration in a non-decision-path crate passes.
        let bad = "fn f() { let m = std::collections::HashMap::<u8, u8>::new();\n\
                   for x in &m { let _ = x; } }\n";
        let f = SourceFile::from_source("crates/datasets/src/events.rs", bad.to_string());
        assert!(scan_file(&f).is_empty());
    }

    #[test]
    fn allow_with_rationale_suppresses_and_empty_rationale_reports() {
        let with = "fn f() { let m: std::collections::HashMap<u8, u8> = Default::default();\n\
                    // lint: allow(hash-iteration) — drained into a sort below\n\
                    let mut v: Vec<_> = m.iter().collect();\n\
                    v.sort(); }\n";
        let f = serve_file(with);
        assert!(scan_file(&f).is_empty());
        let without = "fn f() { let m: std::collections::HashMap<u8, u8> = Default::default();\n\
                       // lint: allow(hash-iteration)\n\
                       let _ = m.keys().count(); }\n";
        let f = serve_file(without);
        let findings = scan_file(&f);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("no rationale"));
    }

    #[test]
    fn cfg_test_hash_iteration_is_exempt() {
        let src = "fn prod() {}\n\
                   #[cfg(test)]\nmod tests {\n\
                   fn t() { let m: std::collections::HashMap<u8, u8> = Default::default();\n\
                   for x in &m { let _ = x; } }\n}\n";
        let f = serve_file(src);
        assert!(scan_file(&f).is_empty());
    }

    #[test]
    fn nondeterminism_sources_are_flagged_except_allowlist() {
        let src = "fn t() { let t0 = std::time::Instant::now();\n\
                   let s = std::env::var(\"X\"); let _ = (t0, s); }\n";
        let f = SourceFile::from_source("crates/models/src/tgn.rs", src.to_string());
        let findings = scan_file(&f);
        assert_eq!(findings.len(), 2, "{findings:#?}");
        // The harness may read the wall clock (but not the environment).
        let f = SourceFile::from_source("crates/bench/src/harness.rs", src.to_string());
        let findings = scan_file(&f);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].excerpt.contains("env::var"));
    }

    #[test]
    fn pricing_discipline_flags_raw_events_outside_device() {
        let src = "fn f(tl: &mut Timeline) {\n\
                   tl.push(TimelineEvent { start: 0, end: 1 });\n\
                   }\n";
        let f = serve_file(src);
        let findings = scan_file(&f);
        assert_eq!(findings.len(), 2, "{findings:#?}");
        // The same code inside dgnn-device internals is the implementation.
        let f = SourceFile::from_source("crates/device/src/executor.rs", src.to_string());
        assert!(scan_file(&f).is_empty());
        // A return type `-> TimelineEvent {` is not a literal.
        let ret = "fn mk() -> dgnn_device::TimelineEvent { unreachable() }\n";
        let f = serve_file(ret);
        let findings = scan_file(&f);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn float_reduction_over_unordered_source_in_parallel_module() {
        let src = "fn f() { let m: std::collections::HashMap<u64, f32> = Default::default();\n\
                   std::thread::scope(|_s| {});\n\
                   let x: f32 = m.values().copied().sum::<f32>(); let _ = x; }\n";
        let f = SourceFile::from_source("crates/tensor/src/par.rs", src.to_string());
        let findings = scan_file(&f);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        // Ordered slice reductions pass, even in a parallel module.
        let ok = "fn f(v: &[f32]) { std::thread::scope(|_s| {});\n\
                  let x: f32 = v.iter().sum::<f32>(); let _ = x; }\n";
        let f = SourceFile::from_source("crates/tensor/src/par.rs", ok.to_string());
        assert!(scan_file(&f).is_empty());
    }

    #[test]
    fn occurrences_respect_word_boundaries() {
        assert_eq!(occurrences("HashMap HashMapX xHashMap", "HashMap"), vec![0]);
        assert_eq!(occurrences("a.iter() b.iter_mut()", ".iter").len(), 1);
    }
}
