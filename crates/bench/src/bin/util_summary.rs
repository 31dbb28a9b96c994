//! Regenerates the §4.1 GPU-utilization summary across all models, with
//! the detected bottleneck classes.
//!
//! The paper's numbers: EvolveGCN and MolDGNN below 1%, TGAT 5–6%,
//! JODIE 1.5–2.5%, DyRep and LDG below 2%.
//!
//! Usage: `util_summary [--scale ...]`

use dgnn_bench::{build_model, default_config, measure, parse_opts, MODEL_NAMES};
use dgnn_device::{ExecMode, PlatformSpec};
use dgnn_profile::TextTable;

fn main() {
    let opts = parse_opts(&[]);
    let mut t = TextTable::new(
        "Sec 4.1 — GPU utilization during inference",
        &["model", "gpu util", "gpu mem (MiB)", "top bottleneck"],
    );
    for name in MODEL_NAMES {
        let mut m = build_model(name, opts.scale, opts.seed);
        let run = measure(
            m.as_mut(),
            PlatformSpec::default(),
            ExecMode::Gpu,
            &default_config(name),
        );
        // Warm-up dominates every short run (the paper's 86x ratios);
        // report the most severe *steady-state* bottleneck alongside it.
        let top = run
            .profile
            .findings
            .iter()
            .find(|f| f.kind != dgnn_profile::BottleneckKind::GpuWarmup)
            .or_else(|| run.profile.findings.first())
            .map(|f| f.kind.to_string())
            .unwrap_or_else(|| "-".to_string());
        t.row(&[
            name.to_string(),
            format!("{:.2}%", run.profile.utilization.busy_fraction * 100.0),
            format!("{:.1}", run.profile.gpu_peak_mib()),
            top,
        ]);
    }
    print!("{}", t.render());
}
