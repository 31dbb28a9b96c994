//! Evaluates the paper's §5 optimization proposals (which the authors
//! left unevaluated) on the simulator:
//!
//! * Fig 10 — pipelined EvolveGCN (RNN of step t+1 overlaps GNN of t);
//! * §5.1.1 — overlap TGAT's CPU sampling with GPU compute;
//! * §5.2.2 — delta snapshot transfer under sliding-window similarity.
//!
//! Usage: `ablation_optimizations [--scale ...]`

use dgnn_bench::parse_opts;
use dgnn_datasets::{bitcoin_alpha, wikipedia};
use dgnn_models::optim::{
    delta_snapshot_evolvegcn, jodie_tbatch, overlapped_prep_evolvegcn, overlapped_sampling_tgat,
    pipelined_evolvegcn,
};
use dgnn_models::{EvolveGcn, EvolveGcnVersion, InferenceConfig, Tgat};
use dgnn_profile::TextTable;

fn main() {
    let opts = parse_opts();
    let mut t = TextTable::new(
        "Sec 5 — proposed optimizations, evaluated",
        &["optimization", "baseline (ms)", "optimized (ms)", "speedup"],
    );
    let fmt = |r: dgnn_models::optim::AblationResult| {
        vec![
            format!("{:.2}", r.baseline.as_millis_f64()),
            format!("{:.2}", r.optimized.as_millis_f64()),
            format!("{:.2}x", r.speedup()),
        ]
    };

    let egcn_cfg = InferenceConfig::default().with_max_units(12);
    let mut egcn = EvolveGcn::new(
        bitcoin_alpha(opts.scale, opts.seed),
        EvolveGcnVersion::O,
        opts.seed,
    );
    let r = pipelined_evolvegcn(&mut egcn, &egcn_cfg).expect("pipelined run");
    let mut row = vec!["Fig 10: pipelined EvolveGCN (RNN || GNN)".to_string()];
    row.extend(fmt(r));
    t.row(&row);

    let mut egcn = EvolveGcn::new(
        bitcoin_alpha(opts.scale, opts.seed),
        EvolveGcnVersion::O,
        opts.seed,
    );
    let r = overlapped_prep_evolvegcn(&mut egcn, &egcn_cfg).expect("prep overlap run");
    let mut row = vec!["5.1.1: overlap EvolveGCN prep+upload with compute".to_string()];
    row.extend(fmt(r));
    t.row(&row);

    let tgat_cfg = InferenceConfig::default()
        .with_batch_size(200)
        .with_max_units(4);
    let mut tgat = Tgat::new(wikipedia(opts.scale, opts.seed), opts.seed);
    let r = overlapped_sampling_tgat(&mut tgat, &tgat_cfg).expect("overlap run");
    let mut row = vec!["5.1.1: overlap TGAT sampling with compute".to_string()];
    row.extend(fmt(r));
    t.row(&row);

    for similarity in [0.5, 0.9] {
        let mut egcn = EvolveGcn::new(
            bitcoin_alpha(opts.scale, opts.seed),
            EvolveGcnVersion::O,
            opts.seed,
        );
        let r =
            delta_snapshot_evolvegcn(&mut egcn, &egcn_cfg, similarity).expect("delta-transfer run");
        let mut row = vec![format!(
            "5.2.2: delta snapshot transfer (similarity {similarity})"
        )];
        row.extend(fmt(r));
        t.row(&row);
    }

    let jodie_cfg = InferenceConfig::default()
        .with_batch_size(128)
        .with_max_units(2);
    let data = wikipedia(opts.scale, opts.seed);
    let r = jodie_tbatch(&data, &jodie_cfg, opts.seed).expect("jodie ablation");
    let mut row = vec!["3.3: JODIE t-batch vs per-event schedule".to_string()];
    row.extend(fmt(r));
    t.row(&row);

    print!("{}", t.render());
}
