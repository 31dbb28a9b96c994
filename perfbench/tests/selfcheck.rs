//! `Scale::Tiny` self-check of the benchmark: every workload runs
//! untraced and traced, all output checks hold (among them that the
//! traced spans nest and cover the calls they wrap), every metric that
//! `BENCHMARK.json` names is printed with its unit, and model runs were
//! recorded.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use dgnn_datasets::Scale;
use dgnn_perfbench::workloads::Workload;
use dgnn_perfbench::{render, result_json, run, Options, Report, DEFAULT_SEED};

/// `(name, unit)` of every metric object in one top-level array of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("metric has the key") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Report {
    run(&Options {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
    })
}

fn assert_printed(report: &Report, metrics: &[(String, String)]) {
    let text = render(report);
    let json = result_json(report);
    assert_eq!(text.lines().last(), Some(json.as_str()), "result line last");
    for (name, unit) in metrics {
        let line = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name.as_str()))
            .unwrap_or_else(|| panic!("`{name}` not printed"));
        assert_eq!(
            line.split_whitespace().nth(2),
            Some(unit.as_str()),
            "{line}"
        );
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "`{name}` missing from {json}"
        );
        assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
    }
    assert_eq!(
        json.matches("\"value\"").count(),
        metrics.len(),
        "the result holds exactly the declared metrics"
    );
}

#[test]
fn every_workload_prints_every_declared_metric_and_checks_pass() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in Workload::ALL {
        let untraced = tiny(workload, false);
        for c in &untraced.checks {
            assert!(c.ok, "{}: {} ({})", workload.name(), c.name, c.detail);
        }
        assert_printed(&untraced, &end_to_end);

        let traced = tiny(workload, true);
        for c in &traced.checks {
            assert!(
                c.ok,
                "{} traced: {} ({})",
                workload.name(),
                c.name,
                c.detail
            );
        }
        assert_printed(&traced, &per_layer);
        assert!(
            traced
                .spans
                .iter()
                .any(|s| s.name == dgnn_perfbench::spans::INFER),
            "{} recorded model runs",
            workload.name()
        );
    }
}
