//! Priced = computed: for every kernel family and every typed op, the
//! flops/bytes the dispatcher charges onto the timeline must equal the
//! `dgnn-tensor` cost estimators evaluated at the operands' actual
//! shapes, under the caller's label and the op's family. This is
//! the invariant the unified dispatch layer exists to enforce — if it
//! drifts, every bottleneck share in the paper-claims suite is suspect.

use dgnn_device::{
    DeviceTensor, Dispatcher, EventCategory, ExecMode, Executor, OpKind, PlatformSpec, TransferDir,
};
use dgnn_tensor::cost::{
    self, elementwise_bytes, elementwise_flops, matmul_bytes, matmul_flops, softmax_flops,
    OpDescriptor,
};
use dgnn_tensor::{Tensor, TensorRng};

fn gpu() -> Executor {
    Executor::new(PlatformSpec::default(), ExecMode::Gpu)
}

fn rand(dims: &[usize], seed: u64) -> Tensor {
    TensorRng::seed(seed).init(dims, dgnn_tensor::Initializer::Uniform(1.0))
}

/// The single kernel event of kind `kind` on the timeline.
fn only_kernel(ex: &Executor, kind: OpKind) -> (u64, u64) {
    let events: Vec<_> = ex
        .timeline()
        .events()
        .iter()
        .filter(|e| e.category == EventCategory::Kernel(kind))
        .collect();
    assert_eq!(events.len(), 1, "expected exactly one {kind:?} kernel");
    (events[0].flops, events[0].bytes)
}

/// Every kernel on the timeline in launch order: label, family, flops
/// and bytes.
fn kernels(ex: &Executor) -> Vec<(&'static str, OpKind, u64, u64)> {
    ex.timeline()
        .events()
        .iter()
        .filter_map(|e| match e.category {
            EventCategory::Kernel(kind) => Some((e.label, kind, e.flops, e.bytes)),
            _ => None,
        })
        .collect()
}

#[test]
fn gemm_charge_matches_cost_estimator() {
    let (m, k, n) = (7, 13, 5);
    let mut ex = gpu();
    let mut dx = Dispatcher::new(&mut ex);
    let a = dx.adopt(rand(&[m, k], 1), 1.0);
    let b = dx.adopt(rand(&[k, n], 2), 1.0);
    dx.matmul("conf_gemm", &a, &b).unwrap();
    let (flops, bytes) = only_kernel(&ex, OpKind::Gemm);
    assert_eq!(flops, matmul_flops(m, k, n));
    assert_eq!(bytes, matmul_bytes(m, k, n));
}

#[test]
fn elementwise_charge_matches_cost_estimator() {
    let (m, n) = (9, 11);
    let mut ex = gpu();
    let mut dx = Dispatcher::new(&mut ex);
    let x = dx.adopt(rand(&[m, n], 3), 1.0);
    dx.relu("conf_relu", &x);
    let (flops, bytes) = only_kernel(&ex, OpKind::Elementwise);
    assert_eq!(flops, elementwise_flops(m * n, 1));
    assert_eq!(bytes, elementwise_bytes(m * n, 1));
}

#[test]
fn reduce_charge_matches_cost_estimator() {
    let (m, n) = (6, 17);
    let mut ex = gpu();
    let mut dx = Dispatcher::new(&mut ex);
    let x = dx.adopt(rand(&[m, n], 4), 1.0);
    dx.softmax_rows("conf_softmax", &x).unwrap();
    let (flops, bytes) = only_kernel(&ex, OpKind::Reduce);
    assert_eq!(flops, softmax_flops(m, n));
    assert_eq!(bytes, 2 * cost::f32_bytes(m * n));
}

#[test]
fn gather_charge_matches_cost_estimator() {
    let (rows, width) = (4, 19);
    let mut ex = gpu();
    let mut dx = Dispatcher::new(&mut ex);
    let table = dx.adopt(rand(&[64, width], 5), 1.0);
    dx.gather_rows("conf_gather", &table, &[0, 7, 9, 13], 1.0)
        .unwrap();
    let (flops, bytes) = only_kernel(&ex, OpKind::Gather);
    assert_eq!(flops, 0);
    assert_eq!(bytes, 2 * cost::f32_bytes(rows * width));
}

#[test]
fn sort_charge_matches_cost_estimator() {
    let len = 1000usize;
    let mut ex = gpu();
    let mut dx = Dispatcher::new(&mut ex);
    dx.charge(OpDescriptor::sort("conf_sort", len), 1.0);
    let (flops, bytes) = only_kernel(&ex, OpKind::Sort);
    let log = 64 - (len as u64).leading_zeros() as u64;
    assert_eq!(flops, len as u64 * log);
    assert_eq!(bytes, 2 * cost::f32_bytes(len) * log);
}

#[test]
fn remaining_typed_ops_charge_their_family_estimators() {
    // The typed ops the per-family tests above do not reach, each under
    // its caller's label and at its operands' shapes (the GEMM only
    // produces their input).
    let (m, k, n) = (7, 13, 5);
    let (rows, width) = (3, 19);
    let mut ex = gpu();
    let mut dx = Dispatcher::new(&mut ex);
    let a = dx.adopt(rand(&[m, k], 12), 1.0);
    let w = dx.adopt(rand(&[k, n], 13), 1.0);
    let y = dx.matmul("conf_gemm", &a, &w).unwrap();
    let bias = dx.adopt(rand(&[n], 14), 1.0);
    let z = dx.add_bias("conf_bias", &y, &bias).unwrap();
    let sum = dx.binary("conf_binary", &y, &z, Tensor::add).unwrap();
    dx.activation("conf_sigmoid", &sum, Tensor::sigmoid);
    dx.reduce_rows("conf_sum_rows", &sum, Tensor::sum_rows)
        .unwrap();
    let mut table = rand(&[64, width], 15);
    let update = dx.adopt(rand(&[rows, width], 16), 1.0);
    dx.scatter_rows("conf_scatter", &mut table, &[1, 5, 9], &update)
        .unwrap();

    let len = m * n;
    let ew = |label, ops, inputs| {
        let (flops, bytes) = (elementwise_flops(len, ops), elementwise_bytes(len, inputs));
        (label, OpKind::Elementwise, flops, bytes)
    };
    assert_eq!(
        kernels(&ex),
        vec![
            (
                "conf_gemm",
                OpKind::Gemm,
                matmul_flops(m, k, n),
                matmul_bytes(m, k, n)
            ),
            ew("conf_bias", 1, 2),
            ew("conf_binary", 1, 2),
            ew("conf_sigmoid", 4, 1),
            (
                "conf_sum_rows",
                OpKind::Reduce,
                softmax_flops(m, n),
                2 * cost::f32_bytes(len)
            ),
            (
                "conf_scatter",
                OpKind::Gather,
                0,
                2 * cost::f32_bytes(rows * width)
            ),
        ]
    );
}

#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "rounded scaled charges fit u64"
)]
fn representative_scale_multiplies_the_charge_exactly() {
    let (m, k, n) = (8, 16, 8);
    let scale = 37.0;
    let mut ex = gpu();
    let mut dx = Dispatcher::new(&mut ex);
    let a = dx.adopt(rand(&[m, k], 6), scale);
    let b = dx.adopt(rand(&[k, n], 7), scale);
    dx.matmul("conf_scaled_gemm", &a, &b).unwrap();
    let (flops, bytes) = only_kernel(&ex, OpKind::Gemm);
    assert_eq!(flops, (matmul_flops(m, k, n) as f64 * scale).round() as u64);
    assert_eq!(bytes, (matmul_bytes(m, k, n) as f64 * scale).round() as u64);
}

#[test]
fn residence_crossing_charges_logical_bytes() {
    let t = DeviceTensor::host_scaled(rand(&[3, 32], 8), 100.0);
    let mut ex = gpu();
    let mut dx = Dispatcher::new(&mut ex);
    dx.ensure_resident(&t);
    assert_eq!(
        ex.timeline().transfer_bytes(Some(TransferDir::H2D)),
        t.logical_bytes()
    );
}

#[test]
fn cpu_mode_never_transfers() {
    let t = DeviceTensor::host_scaled(rand(&[3, 32], 9), 100.0);
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
    let mut dx = Dispatcher::new(&mut ex);
    dx.ensure_resident(&t);
    let out = dx.relu("conf_cpu_relu", &t);
    dx.download(&out);
    assert_eq!(ex.timeline().transfer_bytes(None), 0);
}

#[test]
fn every_kernel_kind_is_covered_by_a_dispatcher_path() {
    // One run that exercises all five families through typed ops and
    // checks each recorded event against a descriptor rebuilt from the
    // same shapes — the loop form of the per-family tests above.
    let mut ex = gpu();
    let mut dx = Dispatcher::new(&mut ex);
    let a = dx.adopt(rand(&[4, 8], 10), 1.0);
    let b = dx.adopt(rand(&[8, 4], 11), 1.0);
    let prod = dx.matmul("cover_gemm", &a, &b).unwrap();
    let act = dx.relu("cover_relu", &prod);
    dx.softmax_rows("cover_softmax", &act).unwrap();
    dx.gather_rows("cover_gather", &act, &[0, 2], 1.0).unwrap();
    dx.charge(OpDescriptor::sort("cover_sort", 64), 1.0);

    let expect = [
        (OpKind::Gemm, OpDescriptor::gemm("", 4, 8, 4)),
        (OpKind::Elementwise, OpDescriptor::elementwise("", 16, 1, 1)),
        (OpKind::Reduce, OpDescriptor::reduce("", 4, 4)),
        (OpKind::Gather, OpDescriptor::gather("", 2, 4)),
        (OpKind::Sort, OpDescriptor::sort("", 64)),
    ];
    for (kind, desc) in expect {
        let (flops, bytes) = only_kernel(&ex, kind);
        assert_eq!(flops, desc.flops, "{kind:?} flops");
        assert_eq!(bytes, desc.bytes, "{kind:?} bytes");
    }
}
