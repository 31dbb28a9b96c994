//! Regenerates Figure 6: GPU memory usage and utilization.
//!
//! * panel a — TGAT vs sampled-neighbor count (both rise);
//! * panel b — TGAT vs mini-batch size (utilization flat, memory rises);
//! * panel c — TGN vs batch size (utilization falls, memory rises);
//! * panel d — MolDGNN vs batch size (utilization flat, memory rises).
//!
//! Usage: `fig6_mem_util [--scale tiny|small|full] [--panel a|b|c|d]`

use dgnn_bench::{build_model, measure, parse_opts};
use dgnn_device::{ExecMode, PlatformSpec};
use dgnn_models::InferenceConfig;
use dgnn_profile::TextTable;

/// One panel: a model swept over `xs`, each point run at `config(x)`.
struct Panel {
    title: &'static str,
    x_header: &'static str,
    model: &'static str,
    xs: &'static [usize],
    config: fn(usize) -> InferenceConfig,
}

/// The `--panel` letter of each of [`PANELS`], in order.
const LETTERS: [&str; 4] = ["a", "b", "c", "d"];

const PANELS: [Panel; 4] = [
    Panel {
        title: "Fig 6a — TGAT: utilization & memory vs sampled neighbors (bs=200)",
        x_header: "n_neighbors",
        model: "tgat",
        xs: &[10, 20, 50, 100, 200],
        config: |k| {
            InferenceConfig::default()
                .with_batch_size(200)
                .with_neighbors(k)
                .with_max_units(3)
        },
    },
    Panel {
        title: "Fig 6b — TGAT: utilization & memory vs mini-batch size (k=20)",
        x_header: "batch size",
        model: "tgat",
        xs: &[200, 1_000, 2_000, 4_000],
        config: |bs| {
            InferenceConfig::default()
                .with_batch_size(bs)
                .with_neighbors(20)
                .with_max_units(3)
        },
    },
    Panel {
        title: "Fig 6c — TGN: utilization & memory vs batch size",
        x_header: "batch size",
        model: "tgn",
        xs: &[1_024, 4_096, 16_384, 65_536],
        config: |bs| {
            InferenceConfig::default()
                .with_batch_size(bs)
                .with_neighbors(10)
                .with_max_units(2)
        },
    },
    Panel {
        title: "Fig 6d — MolDGNN: utilization & memory vs batch size",
        x_header: "batch size",
        model: "moldgnn",
        xs: &[8, 32, 128, 512, 2_048, 8_192],
        config: |bs| {
            InferenceConfig::default()
                .with_batch_size(bs)
                .with_max_units(1)
        },
    },
];

fn main() {
    let opts = parse_opts(&[("--panel", Some(&LETTERS))]);
    let only = opts.flag("--panel");

    for (_, panel) in LETTERS
        .iter()
        .zip(&PANELS)
        .filter(|(letter, _)| only.is_none() || only == Some(letter))
    {
        let mut t = TextTable::new(panel.title, &[panel.x_header, "gpu util", "gpu mem (MiB)"]);
        for &x in panel.xs {
            let mut m = build_model(panel.model, opts.scale, opts.seed);
            let cfg = (panel.config)(x);
            let r = measure(m.as_mut(), PlatformSpec::default(), ExecMode::Gpu, &cfg);
            t.row(&[
                x.to_string(),
                format!("{:.2}%", r.profile.utilization.busy_fraction * 100.0),
                format!("{:.1}", r.profile.gpu_peak_mib()),
            ]);
        }
        print!("{}", t.render());
    }
}
