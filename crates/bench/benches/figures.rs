//! Benchmarks that regenerate a miniature of every paper artifact
//! (each Figure/Table) per iteration, measuring how fast the
//! *reproduction harness* produces them. The full-size artifacts are
//! produced by the `src/bin` binaries; these keep `cargo bench`
//! exercising the complete experiment code path.

use std::hint::black_box;

use dgnn_bench::harness::bench;
use dgnn_bench::{build_model, measure};
use dgnn_datasets::Scale;
use dgnn_device::{DurationNs, ExecMode};
use dgnn_models::InferenceConfig;
use dgnn_profile::UtilizationReport;

const SCALE: Scale = Scale::Tiny;
const SEED: u64 = 1;
const SAMPLES: usize = 10;

fn fig6_point() {
    bench("fig6_tgat_util_mem_point", SAMPLES, || {
        let mut m = build_model("tgat", SCALE, SEED);
        let cfg = InferenceConfig::default()
            .with_batch_size(100)
            .with_neighbors(20)
            .with_max_units(1);
        let r = measure(m.as_mut(), ExecMode::Gpu, &cfg);
        black_box((
            r.profile.utilization.busy_fraction,
            r.profile.gpu_peak_bytes,
        ))
    });
}

fn fig7_breakdown() {
    bench("fig7_tgn_breakdown", SAMPLES, || {
        let mut m = build_model("tgn", SCALE, SEED);
        let cfg = InferenceConfig::default()
            .with_batch_size(256)
            .with_neighbors(10)
            .with_max_units(1);
        let r = measure(m.as_mut(), ExecMode::Gpu, &cfg);
        black_box(r.profile.breakdown.entries().len())
    });
}

fn fig8_pair() {
    bench("fig8_moldgnn_cpu_vs_gpu", SAMPLES, || {
        let cfg = InferenceConfig::default()
            .with_batch_size(64)
            .with_max_units(1);
        let mut m = build_model("moldgnn", SCALE, SEED);
        let cpu = measure(m.as_mut(), ExecMode::CpuOnly, &cfg)
            .profile
            .inference_time;
        let mut m = build_model("moldgnn", SCALE, SEED);
        let gpu = measure(m.as_mut(), ExecMode::Gpu, &cfg)
            .profile
            .inference_time;
        black_box((cpu, gpu))
    });
}

fn fig9_series() {
    bench("fig9_astgnn_util_series", SAMPLES, || {
        let mut m = build_model("astgnn", SCALE, SEED);
        let cfg = InferenceConfig::default()
            .with_batch_size(4)
            .with_max_units(2);
        let r = measure(m.as_mut(), ExecMode::Gpu, &cfg);
        let series = UtilizationReport::series(
            r.executor.timeline(),
            DurationNs::ZERO,
            r.executor.now(),
            DurationNs::from_millis(100),
        );
        black_box(series.len())
    });
}

fn table2_row() {
    bench("table2_tgn_warmup_row", SAMPLES, || {
        let mut m = build_model("tgn", SCALE, SEED);
        let cfg = InferenceConfig::default()
            .with_batch_size(512)
            .with_neighbors(10)
            .with_max_units(2);
        let r = measure(m.as_mut(), ExecMode::Gpu, &cfg);
        black_box(r.profile.warmup.batch_warmup_share())
    });
}

fn fig10_ablation() {
    bench("fig10_pipelined_evolvegcn", SAMPLES, || {
        let mut m = dgnn_models::EvolveGcn::new(
            dgnn_datasets::bitcoin_alpha(SCALE, SEED),
            dgnn_models::EvolveGcnVersion::O,
            SEED,
        );
        let cfg = InferenceConfig::default().with_max_units(6);
        let r = dgnn_models::optim::pipelined_evolvegcn(&mut m, &cfg).unwrap();
        black_box(r.speedup())
    });
}

fn main() {
    fig6_point();
    fig7_breakdown();
    fig8_pair();
    fig9_series();
    table2_row();
    fig10_ablation();
}
