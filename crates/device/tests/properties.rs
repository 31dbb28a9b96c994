//! Property-style tests over the simulated platform's invariants,
//! driven by a seeded sweep so the suite builds offline.

use dgnn_device::{
    DurationNs, ExecMode, Executor, HostWork, OpDescriptor, PlatformSpec, TransferDir,
};
use dgnn_tensor::TensorRng;

/// Deterministic sweep of (m, k, n) gemm shapes in `1..=max`.
fn dim_cases(rng: &mut TensorRng, max: usize, n_cases: usize) -> Vec<(usize, usize, usize)> {
    (0..n_cases)
        .map(|_| (rng.index(max) + 1, rng.index(max) + 1, rng.index(max) + 1))
        .collect()
}

#[test]
fn kernel_time_is_positive_and_monotone_in_work() {
    let mut rng = TensorRng::seed(0xdec1);
    for (m, k, n) in dim_cases(&mut rng, 255, 32) {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        ex.ensure_context();
        let small = ex.launch(OpDescriptor::gemm("s", m, k, n));
        let large = ex.launch(OpDescriptor::gemm("l", m * 2, k * 2, n * 2));
        assert!(small > DurationNs::ZERO);
        assert!(large >= small);
    }
}

#[test]
fn clock_equals_span_end_for_sequential_execution() {
    let mut rng = TensorRng::seed(0xdec2);
    for _ in 0..16 {
        let count = rng.index(19) + 1;
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        for (m, k, n) in dim_cases(&mut rng, 63, count) {
            ex.launch(OpDescriptor::gemm("k", m, k, n));
        }
        assert_eq!(ex.now(), ex.timeline().span_end());
    }
}

#[test]
fn transfers_scale_with_bytes() {
    let mut rng = TensorRng::seed(0xdec3);
    for _ in 0..32 {
        let b1 = rng.index(1_000_000) as u64 + 1;
        let b2 = rng.index(1_000_000) as u64 + 1;
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        ex.ensure_context();
        let d1 = ex.transfer(TransferDir::H2D, b1.min(b2));
        let d2 = ex.transfer(TransferDir::D2H, b1.max(b2));
        assert!(d2 >= d1);
    }
}

#[test]
fn same_seed_same_schedule() {
    let mut rng = TensorRng::seed(0xdec4);
    for (m, k, n) in dim_cases(&mut rng, 255, 16) {
        let run = || {
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            ex.scope("run", |ex| {
                ex.host(HostWork::irregular("sample", 1000, 8192));
                ex.transfer(TransferDir::H2D, (m * k * 4) as u64);
                ex.launch(OpDescriptor::gemm("mm", m, k, n));
                ex.transfer(TransferDir::D2H, (m * n * 4) as u64);
            });
            ex.now()
        };
        assert_eq!(run(), run());
    }
}

#[test]
fn utilization_is_a_fraction() {
    let mut rng = TensorRng::seed(0xdec5);
    for _ in 0..12 {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        ex.ensure_context();
        let count = rng.index(14) + 1;
        for (m, k, n) in dim_cases(&mut rng, 255, count) {
            ex.launch(OpDescriptor::gemm("k", m, k, n));
        }
        let u = ex.timeline().gpu_utilization(DurationNs::ZERO, ex.now());
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
    }
}

#[test]
fn scope_intervals_contain_their_events() {
    let mut rng = TensorRng::seed(0xdec6);
    for _ in 0..12 {
        let count = rng.index(9) + 1;
        let ops = dim_cases(&mut rng, 255, count);
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        ex.ensure_context();
        ex.scope("outer", |ex| {
            for (m, k, n) in &ops {
                ex.scope("inner", |ex| {
                    ex.launch(OpDescriptor::gemm("k", *m, *k, *n));
                });
            }
        });
        let outer = ex
            .scopes()
            .iter()
            .find(|s| s.path == "outer")
            .expect("outer scope recorded")
            .clone();
        for e in ex.timeline().events_in_scope("outer") {
            assert!(e.start >= outer.start && e.end <= outer.end);
        }
    }
}

#[test]
fn cpu_only_mode_never_touches_gpu() {
    let mut rng = TensorRng::seed(0xdec7);
    for _ in 0..12 {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
        let count = rng.index(9) + 1;
        for (m, k, n) in dim_cases(&mut rng, 255, count) {
            ex.launch(OpDescriptor::gemm("k", m, k, n));
            ex.transfer(TransferDir::H2D, 4096);
        }
        assert_eq!(
            ex.timeline().busy_time(dgnn_device::Place::Gpu),
            DurationNs::ZERO
        );
        assert_eq!(ex.gpu_memory().peak_bytes(), 0);
    }
}
