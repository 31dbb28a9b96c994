//! Regenerates the §4.4 warm-up ratios:
//!
//! * one-time GPU warm-up (context + model init) versus the time to
//!   process one mini-batch/snapshot — the paper reports 86×, 41× and
//!   33× for TGAT, EvolveGCN-O and EvolveGCN-H;
//! * model initialization on GPU versus CPU — the paper reports 40×,
//!   855× and 937×.
//!
//! Usage: `warmup_ratios [--scale ...]`

use dgnn_bench::{build_model, default_config, measure, parse_opts};
use dgnn_device::{ExecMode, Executor, PlatformSpec};
use dgnn_profile::TextTable;

fn main() {
    let opts = parse_opts(&[]);
    let mut t = TextTable::new(
        "Sec 4.4 — GPU warm-up ratios",
        &[
            "model",
            "one-time warm-up (s)",
            "per-unit inference (ms)",
            "warm-up / unit",
            "model-init gpu/cpu",
        ],
    );
    for name in ["tgat", "evolvegcn_o", "evolvegcn_h"] {
        let cfg = default_config(name);
        let mut m = build_model(name, opts.scale, opts.seed);
        let run = measure(m.as_mut(), PlatformSpec::default(), ExecMode::Gpu, &cfg);
        let one_time = run.profile.warmup.context + run.profile.warmup.model_init;
        let ratio = run
            .profile
            .warmup
            .one_time_warmup_ratio(run.summary.unit_time);

        // Model-init comparison on both devices.
        let mut exg = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        exg.ensure_context();
        let init_gpu = exg.model_init(m.param_bytes(), m.param_tensors());
        let mut exc = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
        let init_cpu = exc.model_init(m.param_bytes(), m.param_tensors());

        t.row(&[
            name.to_string(),
            format!("{:.2}", one_time.as_secs_f64()),
            format!("{:.1}", run.summary.unit_time.as_millis_f64()),
            format!("{ratio:.0}x"),
            format!(
                "{:.0}x",
                init_gpu.as_nanos() as f64 / init_cpu.as_nanos().max(1) as f64
            ),
        ]);
    }
    print!("{}", t.render());
}
