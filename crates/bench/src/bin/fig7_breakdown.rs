//! Regenerates Figure 7: the per-module inference breakdown of each
//! DGNN, with the paper's parameter variants:
//!
//! * TGN — batch sizes 512 and 64k (panel a);
//! * MolDGNN — batch sizes 32/512/8192 (panel b);
//! * ASTGNN — batch sizes 4/8/16 (panel c);
//! * JODIE — t-batched window (panel d);
//! * TGAT — k ∈ {20, 100} × bs ∈ {200, 4000} (panels e/g);
//! * DyRep / LDG — default configs (panels f/h);
//! * EvolveGCN-O/-H on Wikipedia- and Reddit-derived snapshots (i/j).
//!
//! Usage: `fig7_breakdown [--scale ...] [--model <name>]`

use dgnn_bench::{build_model, default_config, measure, parse_opts, MODEL_NAMES};
use dgnn_device::{ExecMode, PlatformSpec};
use dgnn_models::InferenceConfig;

fn show(name: &str, scale: dgnn_datasets::Scale, seed: u64, cfg: &InferenceConfig, label: &str) {
    let mut m = build_model(name, scale, seed);
    let r = measure(m.as_mut(), PlatformSpec::default(), ExecMode::Gpu, cfg);
    println!(
        "{}",
        r.profile.breakdown.to_table(&format!(
            "Fig 7 — {label} (total {:.1} ms, {} iterations)",
            r.profile.inference_time.as_millis_f64(),
            r.summary.iterations
        ))
    );
}

fn main() {
    let opts = parse_opts(&[("--model", Some(MODEL_NAMES))]);
    let only = opts.flag("--model");
    let want = |m: &str| only.is_none() || only == Some(m);
    let (scale, seed) = (opts.scale, opts.seed);

    if want("tgn") {
        for bs in [512usize, 65_536] {
            let cfg = default_config("tgn").with_batch_size(bs).with_max_units(2);
            show("tgn", scale, seed, &cfg, &format!("TGN wikipedia bs={bs}"));
        }
    }
    if want("moldgnn") {
        for bs in [32usize, 512, 8_192] {
            let cfg = default_config("moldgnn").with_batch_size(bs);
            show(
                "moldgnn",
                scale,
                seed,
                &cfg,
                &format!("MolDGNN iso17 bs={bs}"),
            );
        }
    }
    if want("astgnn") {
        for bs in [4usize, 8, 16] {
            let cfg = default_config("astgnn").with_batch_size(bs);
            show("astgnn", scale, seed, &cfg, &format!("ASTGNN pems bs={bs}"));
        }
    }
    if want("jodie") {
        show(
            "jodie",
            scale,
            seed,
            &default_config("jodie"),
            "JODIE wikipedia (t-batch)",
        );
    }
    if want("tgat") {
        for k in [20usize, 100] {
            for bs in [200usize, 4_000] {
                let cfg = default_config("tgat")
                    .with_batch_size(bs)
                    .with_neighbors(k)
                    .with_max_units(2);
                show(
                    "tgat",
                    scale,
                    seed,
                    &cfg,
                    &format!("TGAT wikipedia k={k} bs={bs}"),
                );
            }
        }
    }
    if want("dyrep") {
        show(
            "dyrep",
            scale,
            seed,
            &default_config("dyrep"),
            "DyRep social-evolution",
        );
    }
    if want("ldg_mlp") {
        show(
            "ldg_mlp",
            scale,
            seed,
            &default_config("ldg_mlp"),
            "LDG (MLP encoder) github",
        );
    }
    if want("ldg_bilinear") {
        show(
            "ldg_bilinear",
            scale,
            seed,
            &default_config("ldg_bilinear"),
            "LDG (bilinear) github",
        );
    }
    if want("evolvegcn_o") {
        for ds in ["wikipedia", "reddit"] {
            let name = format!("evolvegcn_o@{ds}");
            show(
                &name,
                scale,
                seed,
                &default_config("evolvegcn_o"),
                &format!("EvolveGCN-O {ds}"),
            );
        }
    }
    if want("evolvegcn_h") {
        for ds in ["wikipedia", "reddit"] {
            let name = format!("evolvegcn_h@{ds}");
            show(
                &name,
                scale,
                seed,
                &default_config("evolvegcn_h"),
                &format!("EvolveGCN-H {ds}"),
            );
        }
    }
}
