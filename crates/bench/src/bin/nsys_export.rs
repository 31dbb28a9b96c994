//! Exports a model run's simulated timeline as a Chrome-trace JSON —
//! the artifact-appendix equivalent of the paper's Nsight `.nsys-rep`
//! files. Open the output in `chrome://tracing` or Perfetto.
//!
//! Usage: `nsys_export [--scale ...] [--model tgat] [--out trace.json]`

use std::fs;

use dgnn_bench::{build_model, default_config, measure, parse_opts, MODEL_NAMES};
use dgnn_device::{ExecMode, PlatformSpec};
use dgnn_profile::{chrome_trace, render_kernel_summary};

fn main() {
    let opts = parse_opts(&[("--model", Some(MODEL_NAMES)), ("--out", None)]);
    let model_name = opts.flag("--model").unwrap_or("tgat");
    let out_path = opts.flag("--out").unwrap_or("trace.json");

    let mut model = build_model(model_name, opts.scale, opts.seed);
    let run = measure(
        model.as_mut(),
        PlatformSpec::default(),
        ExecMode::Gpu,
        &default_config(model_name),
    );

    let json = chrome_trace(&run.executor);
    fs::write(out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!(
        "wrote {out_path}: {} events, {} scopes, {} bytes",
        run.executor.timeline().len(),
        run.executor.scopes().len(),
        json.len()
    );
    print!(
        "{}",
        render_kernel_summary(
            run.executor.timeline(),
            &format!("{model_name} — CUDA kernel summary (Nsight-style)"),
            12,
        )
    );
}
