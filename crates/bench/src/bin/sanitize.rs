//! `sanitize` — run the timeline sanitizer over the model zoo.
//!
//! Replays every model (or `--model NAME`) with provenance tracing on
//! and audits the recorded schedule against the eight hazard rules.
//! Exits non-zero if any hazard is found, so CI can gate on it.
//!
//! ```text
//! cargo run --release -p dgnn-bench --bin sanitize -- --scale tiny
//! cargo run --release -p dgnn-bench --bin sanitize -- --model tgn --mode overlap
//! ```
//!
//! Modes: `serial`, `overlap`, `overlap-coalesced`, `sharded`, or `all`
//! (default). `sharded` runs four shards on a four-GPU NVLink clique
//! and on a four-GPU PCIe box, each under the default knobs and under
//! overlap with coalesced transfers; the other modes run one GPU.

use dgnn_bench::{
    build_model, default_config, flag_value, measure_sanitized, parse_opts, MODEL_NAMES,
};
use dgnn_device::{ExecMode, PlatformSpec};
use dgnn_models::{InferenceConfig, TransferGranularity};

fn overlap_coalesced(base: InferenceConfig) -> InferenceConfig {
    base.with_pipeline_overlap(true)
        .with_transfer_granularity(TransferGranularity::Coalesced)
}

/// The labelled runs of one mode: platform and configuration each.
fn mode_runs(base: InferenceConfig, mode: &str) -> Vec<(String, PlatformSpec, InferenceConfig)> {
    let one_gpu = |cfg| vec![(mode.to_string(), PlatformSpec::default(), cfg)];
    match mode {
        "serial" => one_gpu(base),
        "overlap" => one_gpu(base.with_pipeline_overlap(true)),
        "overlap-coalesced" => one_gpu(overlap_coalesced(base)),
        "sharded" => {
            let sharded = base.with_shards(4);
            let mut runs = Vec::new();
            for (topology, spec) in [
                ("nvlink", PlatformSpec::multi_gpu_nvlink(4)),
                ("pcie", PlatformSpec::multi_gpu_pcie(4)),
            ] {
                runs.push((format!("sharded/{topology}"), spec.clone(), sharded.clone()));
                runs.push((
                    format!("sharded/{topology}+oc"),
                    spec,
                    overlap_coalesced(sharded.clone()),
                ));
            }
            runs
        }
        other => {
            panic!("unknown --mode `{other}` (serial|overlap|overlap-coalesced|sharded|all)")
        }
    }
}

fn main() {
    let opts = parse_opts();
    let only_model = flag_value(&opts.rest, "--model");
    let mode_sel = flag_value(&opts.rest, "--mode").unwrap_or("all");
    let modes: Vec<&str> = match mode_sel {
        "all" => vec!["serial", "overlap", "overlap-coalesced", "sharded"],
        m => vec![m],
    };

    let mut total_hazards = 0usize;
    let mut runs = 0usize;
    println!(
        "timeline sanitizer — scale {:?}, seed {}",
        opts.scale, opts.seed
    );
    println!();
    for &name in MODEL_NAMES {
        if let Some(want) = only_model {
            if name != want {
                continue;
            }
        }
        for &mode in &modes {
            for (label, spec, cfg) in mode_runs(default_config(name), mode) {
                let mut model = build_model(name, opts.scale, opts.seed);
                let (report, run) = measure_sanitized(model.as_mut(), spec, ExecMode::Gpu, &cfg);
                runs += 1;
                total_hazards += report.hazards.len();
                let verdict = if report.is_clean() {
                    "clean"
                } else {
                    "HAZARDS"
                };
                println!(
                    "{name:>14} {label:<18} {verdict:<8} {:>7} trace records, {:>6} events, {} fork(s), {} B H2D",
                    report.stats.trace_records,
                    report.stats.timeline_events,
                    report.stats.forks,
                    report.stats.priced_bytes[0],
                );
                if !report.is_clean() {
                    print!("{report}");
                }
                drop(run);
            }
        }
    }
    println!();
    if total_hazards > 0 {
        println!("FAIL: {total_hazards} hazard(s) across {runs} run(s)");
        std::process::exit(1);
    }
    println!("OK: 0 hazards across {runs} run(s)");
}
