//! Regenerates Figure 6: GPU memory usage and utilization.
//!
//! * panel a — TGAT vs sampled-neighbor count (both rise);
//! * panel b — TGAT vs mini-batch size (utilization flat, memory rises);
//! * panel c — TGN vs batch size (utilization falls, memory rises);
//! * panel d — MolDGNN vs batch size (utilization flat, memory rises).
//!
//! Usage: `fig6_mem_util [--scale tiny|small|full] [--panel a|b|c|d]`

use dgnn_bench::{build_model, flag_value, measure, parse_opts};
use dgnn_device::{ExecMode, PlatformSpec};
use dgnn_models::InferenceConfig;
use dgnn_profile::TextTable;

fn main() {
    let opts = parse_opts();
    let panel = flag_value(&opts.rest, "--panel");
    let run_panel = |p: &str| panel.is_none() || panel == Some(p);

    if run_panel("a") {
        let mut t = TextTable::new(
            "Fig 6a — TGAT: utilization & memory vs sampled neighbors (bs=200)",
            &["n_neighbors", "gpu util", "gpu mem (MiB)"],
        );
        for k in [10usize, 20, 50, 100, 200] {
            let mut m = build_model("tgat", opts.scale, opts.seed);
            let cfg = InferenceConfig::default()
                .with_batch_size(200)
                .with_neighbors(k)
                .with_max_units(3);
            let r = measure(m.as_mut(), PlatformSpec::default(), ExecMode::Gpu, &cfg);
            t.row(&[
                k.to_string(),
                format!("{:.2}%", r.profile.utilization.busy_fraction * 100.0),
                format!("{:.1}", r.profile.gpu_peak_mib()),
            ]);
        }
        print!("{}", t.render());
    }

    if run_panel("b") {
        let mut t = TextTable::new(
            "Fig 6b — TGAT: utilization & memory vs mini-batch size (k=20)",
            &["batch size", "gpu util", "gpu mem (MiB)"],
        );
        for bs in [200usize, 1_000, 2_000, 4_000] {
            let mut m = build_model("tgat", opts.scale, opts.seed);
            let cfg = InferenceConfig::default()
                .with_batch_size(bs)
                .with_neighbors(20)
                .with_max_units(3);
            let r = measure(m.as_mut(), PlatformSpec::default(), ExecMode::Gpu, &cfg);
            t.row(&[
                bs.to_string(),
                format!("{:.2}%", r.profile.utilization.busy_fraction * 100.0),
                format!("{:.1}", r.profile.gpu_peak_mib()),
            ]);
        }
        print!("{}", t.render());
    }

    if run_panel("c") {
        let mut t = TextTable::new(
            "Fig 6c — TGN: utilization & memory vs batch size",
            &["batch size", "gpu util", "gpu mem (MiB)"],
        );
        for bs in [1_024usize, 4_096, 16_384, 65_536] {
            let mut m = build_model("tgn", opts.scale, opts.seed);
            let cfg = InferenceConfig::default()
                .with_batch_size(bs)
                .with_neighbors(10)
                .with_max_units(2);
            let r = measure(m.as_mut(), PlatformSpec::default(), ExecMode::Gpu, &cfg);
            t.row(&[
                bs.to_string(),
                format!("{:.2}%", r.profile.utilization.busy_fraction * 100.0),
                format!("{:.1}", r.profile.gpu_peak_mib()),
            ]);
        }
        print!("{}", t.render());
    }

    if run_panel("d") {
        let mut t = TextTable::new(
            "Fig 6d — MolDGNN: utilization & memory vs batch size",
            &["batch size", "gpu util", "gpu mem (MiB)"],
        );
        for bs in [8usize, 32, 128, 512, 2_048, 8_192] {
            let mut m = build_model("moldgnn", opts.scale, opts.seed);
            let cfg = InferenceConfig::default()
                .with_batch_size(bs)
                .with_max_units(1);
            let r = measure(m.as_mut(), PlatformSpec::default(), ExecMode::Gpu, &cfg);
            t.row(&[
                bs.to_string(),
                format!("{:.2}%", r.profile.utilization.busy_fraction * 100.0),
                format!("{:.1}", r.profile.gpu_peak_mib()),
            ]);
        }
        print!("{}", t.render());
    }
}
