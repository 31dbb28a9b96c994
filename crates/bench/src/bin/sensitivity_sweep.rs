//! Sensitivity of the reproduced bottlenecks to the cost-model's design
//! choices — the DESIGN.md ablation: if a conclusion only held at one
//! magic constant, it would be an artifact of calibration rather than of
//! workload structure. Sweeps kernel-launch overhead, PCIe bandwidth and
//! host preprocessing throughput around their defaults and reports how
//! each model's headline metric moves.
//!
//! Expected outcome (and what the table shows): the *orderings* are
//! robust — TGAT stays sampling-bound across a 16× host-throughput range,
//! MolDGNN stays transfer-bound across an 8× PCIe range, and DyRep's
//! GPU-never-wins holds until launch overhead vanishes entirely.
//!
//! Usage: `sensitivity_sweep [--scale tiny|small|full]`

use dgnn_bench::{build_model, measure, parse_opts};
use dgnn_device::{ExecMode, PlatformSpec};
use dgnn_models::InferenceConfig;
use dgnn_profile::TextTable;

fn tgat_sampling_share(spec: PlatformSpec, scale: dgnn_datasets::Scale, seed: u64) -> f64 {
    let mut m = build_model("tgat", scale, seed);
    let cfg = InferenceConfig::default()
        .with_batch_size(200)
        .with_max_units(2);
    measure(m.as_mut(), spec, ExecMode::Gpu, &cfg)
        .profile
        .breakdown
        .share_of("sampling")
}

fn moldgnn_memcpy_share(spec: PlatformSpec, scale: dgnn_datasets::Scale, seed: u64) -> f64 {
    let mut m = build_model("moldgnn", scale, seed);
    let cfg = InferenceConfig::default()
        .with_batch_size(512)
        .with_max_units(1);
    let run = measure(m.as_mut(), spec, ExecMode::Gpu, &cfg);
    let tl = run.executor.timeline();
    let memcpy = tl.busy_time(dgnn_device::Place::Pcie).as_nanos() as f64;
    let kernels = tl
        .category_time(dgnn_device::EventCategory::is_gpu_compute)
        .as_nanos() as f64;
    memcpy / (memcpy + kernels)
}

fn dyrep_gpu_vs_cpu(spec: PlatformSpec, scale: dgnn_datasets::Scale, seed: u64) -> f64 {
    let cfg = InferenceConfig::default()
        .with_batch_size(64)
        .with_max_units(1);
    let time = |mode| {
        let mut m = build_model("dyrep", scale, seed);
        measure(m.as_mut(), spec.clone(), mode, &cfg)
            .summary
            .inference_time
    };
    time(ExecMode::CpuOnly).as_nanos() as f64 / time(ExecMode::Gpu).as_nanos() as f64
}

fn main() {
    let opts = parse_opts(&[]);

    // 1. Host preprocessing throughput vs TGAT sampling dominance.
    let mut t = TextTable::new(
        "Sensitivity — host preprocessing throughput vs TGAT sampling share",
        &["host ops/s (x default)", "sampling share"],
    );
    for factor in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let mut spec = PlatformSpec::default();
        spec.cpu.host_ops_per_sec *= factor;
        t.row(&[
            format!("{factor}x"),
            format!(
                "{:.1}%",
                tgat_sampling_share(spec, opts.scale, opts.seed) * 100.0
            ),
        ]);
    }
    print!("{}", t.render());

    // 2. PCIe bandwidth vs MolDGNN memcpy dominance.
    let mut t = TextTable::new(
        "Sensitivity — PCIe bandwidth vs MolDGNN memcpy share of GPU working time",
        &["pcie GB/s", "memcpy share"],
    );
    for bw in [3e9, 6e9, 12e9, 24e9, 48e9] {
        let mut spec = PlatformSpec::default();
        spec.pcie.bandwidth = bw;
        t.row(&[
            format!("{:.0}", bw / 1e9),
            format!(
                "{:.1}%",
                moldgnn_memcpy_share(spec, opts.scale, opts.seed) * 100.0
            ),
        ]);
    }
    print!("{}", t.render());

    // 3. Kernel launch overhead vs DyRep CPU-beats-GPU.
    let mut t = TextTable::new(
        "Sensitivity — kernel launch overhead vs DyRep cpu/gpu time ratio (<1 means GPU loses)",
        &["launch overhead (µs)", "cpu/gpu"],
    );
    for launch_us in [0u64, 2, 6, 12, 24] {
        let mut spec = PlatformSpec::default();
        spec.gpu.launch_overhead_ns = launch_us * 1_000;
        t.row(&[
            launch_us.to_string(),
            format!("{:.3}", dyrep_gpu_vs_cpu(spec, opts.scale, opts.seed)),
        ]);
    }
    print!("{}", t.render());
}
