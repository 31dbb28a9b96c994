//! Regenerates Figure 8: inference time on CPU vs GPU and the GPU
//! speedup, swept over batch size for each model.
//!
//! Expected shapes (from the paper): TGAT's total time stays flat in
//! batch size (sampling-bound); DyRep and LDG never benefit from the
//! GPU; the snapshot models see modest or negative speedups.
//!
//! Usage: `fig8_cpu_gpu [--scale ...] [--model <name>]`

use dgnn_bench::{build_model, measure, parse_opts, MODEL_NAMES};
use dgnn_device::{ExecMode, PlatformSpec};
use dgnn_models::InferenceConfig;
use dgnn_profile::TextTable;

fn sweep(name: &str) -> (Vec<usize>, usize, usize) {
    // (batch sizes, neighbors, max_units)
    match name {
        "tgat" => (vec![200, 1_000, 2_000, 4_000], 20, 2),
        "tgn" => (vec![1_024, 4_096, 16_384], 10, 2),
        "jodie" => (vec![64, 128, 512], 20, 2),
        "dyrep" | "ldg_mlp" | "ldg_bilinear" => (vec![32, 64, 128, 256], 20, 1),
        "moldgnn" => (vec![32, 128, 512, 2_048], 20, 1),
        "astgnn" => (vec![4, 8, 16], 20, 2),
        // EvolveGCN: batch size is the snapshot count processed.
        _ => (vec![4, 8, 16], 20, 0),
    }
}

fn main() {
    let opts = parse_opts(&[("--model", Some(MODEL_NAMES))]);
    let only = opts.flag("--model");
    let models: Vec<&str> = match only {
        Some(m) => vec![m],
        None => MODEL_NAMES.to_vec(),
    };

    for name in models {
        let (batches, k, units) = sweep(name);
        let mut t = TextTable::new(
            &format!("Fig 8 — {name}: CPU vs GPU inference time"),
            &["batch size", "cpu (ms)", "gpu (ms)", "gpu speedup"],
        );
        for bs in batches {
            let cfg = if units == 0 {
                InferenceConfig::default().with_max_units(bs)
            } else {
                InferenceConfig::default()
                    .with_batch_size(bs)
                    .with_neighbors(k)
                    .with_max_units(units)
            };
            let time = |mode| {
                let mut m = build_model(name, opts.scale, opts.seed);
                measure(m.as_mut(), PlatformSpec::default(), mode, &cfg)
                    .profile
                    .inference_time
            };
            let cpu = time(ExecMode::CpuOnly);
            let gpu = time(ExecMode::Gpu);
            t.row(&[
                bs.to_string(),
                format!("{:.2}", cpu.as_millis_f64()),
                format!("{:.2}", gpu.as_millis_f64()),
                format!(
                    "{:.2}x",
                    cpu.as_nanos() as f64 / gpu.as_nanos().max(1) as f64
                ),
            ]);
        }
        print!("{}", t.render());
    }
}
