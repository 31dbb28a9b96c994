//! Regenerates Figure 9: ASTGNN GPU-utilization time-series for batch
//! sizes 4, 8 and 16 over two inference iterations.
//!
//! The paper's shape: small batches leave the GPU idle around the
//! prediction step; at batch 16 the GPU is nearly saturated and the
//! second iteration's encoding is delayed behind it.
//!
//! Usage: `fig9_astgnn_timeline [--scale ...]`

use dgnn_bench::{build_model, measure, parse_opts};
use dgnn_device::{DurationNs, ExecMode, PlatformSpec};
use dgnn_models::InferenceConfig;
use dgnn_profile::UtilizationReport;

fn main() {
    let opts = parse_opts(&[]);
    for bs in [4usize, 8, 16] {
        let mut m = build_model("astgnn", opts.scale, opts.seed);
        let cfg = InferenceConfig::default()
            .with_batch_size(bs)
            .with_max_units(2);
        let run = measure(m.as_mut(), PlatformSpec::default(), ExecMode::Gpu, &cfg);
        let inference = run
            .executor
            .scopes()
            .iter()
            .find(|s| s.path == "inference")
            .expect("inference scope");
        let span = inference.end - inference.start;
        // 40 windows across the two iterations.
        let window = DurationNs::from_nanos((span.as_nanos() / 40).max(1));
        let series: Vec<_> = UtilizationReport::series(
            run.executor.timeline(),
            inference.start,
            inference.end,
            window,
        )
        .into_iter()
        .map(|(t, u)| (t - inference.start, u))
        .collect();
        println!(
            "{}",
            UtilizationReport::render_series(
                &series,
                &format!(
                    "Fig 9 — ASTGNN GPU utilization, batch size {bs} (2 iterations, avg {:.1}%)",
                    run.profile.utilization.busy_fraction * 100.0
                ),
            )
        );
    }
}
