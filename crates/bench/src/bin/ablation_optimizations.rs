//! Evaluates the paper's §5 optimization proposals (which the authors
//! left unevaluated) on the simulator:
//!
//! * Fig 10 — pipelined EvolveGCN (RNN of step t+1 overlaps GNN of t),
//!   re-scheduled from a sequential run's recorded stage durations;
//! * §5.1.1 — overlap EvolveGCN's snapshot prep and TGAT's sampling with
//!   GPU compute, executed: each model runs serial, then with
//!   `InferenceConfig::pipeline_overlap`, each run on a fresh build;
//! * §5.2.2 — delta snapshot transfer under sliding-window similarity;
//! * §3.3 — JODIE's t-batches against the per-event schedule.
//!
//! Usage: `ablation_optimizations [--scale tiny|small|full] [--seed N]`

use dgnn_bench::{build_model, measure, parse_opts, BenchOpts};
use dgnn_datasets::{bitcoin_alpha, wikipedia};
use dgnn_device::{ExecMode, PlatformSpec};
use dgnn_models::optim::{
    delta_snapshot_evolvegcn, jodie_tbatch, pipelined_evolvegcn, AblationResult,
};
use dgnn_models::{EvolveGcn, EvolveGcnVersion, InferenceConfig};
use dgnn_profile::TextTable;

/// §5.1.1 executed: `name` serial against `name` with pipeline overlap.
fn executed_overlap(name: &str, opts: &BenchOpts, cfg: &InferenceConfig) -> AblationResult {
    let time = |cfg: &InferenceConfig| {
        let mut model = build_model(name, opts.scale, opts.seed);
        measure(model.as_mut(), PlatformSpec::default(), ExecMode::Gpu, cfg)
            .summary
            .inference_time
    };
    AblationResult {
        baseline: time(cfg),
        optimized: time(&cfg.clone().with_pipeline_overlap(true)),
    }
}

fn row(t: &mut TextTable, label: &str, r: AblationResult) {
    t.row(&[
        label.to_string(),
        format!("{:.2}", r.baseline.as_millis_f64()),
        format!("{:.2}", r.optimized.as_millis_f64()),
        format!("{:.2}x", r.speedup()),
    ]);
}

fn main() {
    let opts = parse_opts(&[]);
    let mut t = TextTable::new(
        "Sec 5 — proposed optimizations, evaluated",
        &["optimization", "baseline (ms)", "optimized (ms)", "speedup"],
    );
    let egcn = || {
        EvolveGcn::new(
            bitcoin_alpha(opts.scale, opts.seed),
            EvolveGcnVersion::O,
            opts.seed,
        )
    };

    let egcn_cfg = InferenceConfig::default().with_max_units(12);
    let r = pipelined_evolvegcn(&mut egcn(), &egcn_cfg).expect("pipelined run");
    row(&mut t, "Fig 10: pipelined EvolveGCN (RNN || GNN)", r);

    let r = executed_overlap("evolvegcn_o", &opts, &egcn_cfg);
    row(
        &mut t,
        "5.1.1: overlap EvolveGCN prep+upload with compute",
        r,
    );

    let tgat_cfg = InferenceConfig::default()
        .with_batch_size(200)
        .with_max_units(4);
    let r = executed_overlap("tgat", &opts, &tgat_cfg);
    row(&mut t, "5.1.1: overlap TGAT sampling with compute", r);

    for similarity in [0.5, 0.9] {
        let r = delta_snapshot_evolvegcn(&mut egcn(), &egcn_cfg, similarity)
            .expect("delta-transfer run");
        row(
            &mut t,
            &format!("5.2.2: delta snapshot transfer (similarity {similarity})"),
            r,
        );
    }

    let jodie_cfg = InferenceConfig::default()
        .with_batch_size(128)
        .with_max_units(2);
    let data = wikipedia(opts.scale, opts.seed);
    let r = jodie_tbatch(&data, &jodie_cfg, opts.seed).expect("jodie ablation");
    row(&mut t, "3.3: JODIE t-batch vs per-event schedule", r);

    print!("{}", t.render());
}
