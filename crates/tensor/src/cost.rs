//! FLOP and byte estimators for the simulated-kernel cost model.
//!
//! The device layer (`dgnn-device`) prices every kernel as
//! `launch + max(flops / effective_throughput, bytes / bandwidth)`.
//! These helpers centralize the arithmetic so models and layers report
//! consistent work estimates.
//!
//! The [`OpDescriptor`] type is the unit of exchange between this crate
//! and the device layer: each typed op of the dispatcher in
//! `dgnn-device` builds one descriptor (kind, flops, bytes, parallelism)
//! from its operand shapes with the family constructors here, and the
//! executor prices and records exactly that descriptor while the
//! functional math runs — so priced work can never drift from computed
//! work.

/// Bytes per `f32` element.
pub const F32_BYTES: u64 = 4;

/// The op families the profiled DGNNs exercise.
///
/// These mirror the categories an Nsight Systems trace groups CUDA
/// kernels into for these models; the device layer tags every kernel
/// event on its timeline with one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Dense matrix multiplication (cuBLAS GEMM).
    Gemm,
    /// Element-wise arithmetic / activation.
    Elementwise,
    /// Reduction (sum/max) or softmax.
    Reduce,
    /// Gather / scatter / embedding lookup — irregular access.
    Gather,
    /// Sort or bisection-heavy index manipulation — irregular access.
    Sort,
}

impl OpKind {
    /// Whether this family pays the irregular-access bandwidth penalty.
    pub fn is_irregular(self) -> bool {
        matches!(self, OpKind::Gather | OpKind::Sort)
    }

    /// Short display name used in breakdown tables.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Gemm => "gemm",
            OpKind::Elementwise => "elementwise",
            OpKind::Reduce => "reduce",
            OpKind::Gather => "gather",
            OpKind::Sort => "sort",
        }
    }
}

/// Work description of one tensor operation, in device-neutral terms.
///
/// Constructed by the family helpers here so FLOP and byte estimates
/// stay consistent across the model zoo. The device layer launches it
/// as-is: one descriptor is one kernel on the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct OpDescriptor {
    /// Human-readable label (appears on the timeline).
    pub label: &'static str,
    /// Op family.
    pub kind: OpKind,
    /// Floating-point operations performed.
    pub flops: u64,
    /// Bytes moved to/from memory.
    pub bytes: u64,
    /// Data-parallel lanes of work (drives occupancy).
    pub parallelism: u64,
}

impl OpDescriptor {
    /// A dense `[m, k] × [k, n]` GEMM.
    pub fn gemm(label: &'static str, m: usize, k: usize, n: usize) -> Self {
        OpDescriptor {
            label,
            kind: OpKind::Gemm,
            flops: matmul_flops(m, k, n),
            bytes: matmul_bytes(m, k, n),
            parallelism: matmul_parallelism(m, n),
        }
    }

    /// A batched GEMM of `b` independent `[m, k] × [k, n]` products.
    pub fn batched_gemm(label: &'static str, b: usize, m: usize, k: usize, n: usize) -> Self {
        OpDescriptor {
            label,
            kind: OpKind::Gemm,
            flops: b as u64 * matmul_flops(m, k, n),
            bytes: b as u64 * matmul_bytes(m, k, n),
            parallelism: b as u64 * matmul_parallelism(m, n),
        }
    }

    /// An element-wise op over `len` elements with `ops_per_elem`
    /// arithmetic ops and `n_inputs` input operands.
    pub fn elementwise(label: &'static str, len: usize, ops_per_elem: u64, n_inputs: u64) -> Self {
        OpDescriptor {
            label,
            kind: OpKind::Elementwise,
            flops: elementwise_flops(len, ops_per_elem),
            bytes: elementwise_bytes(len, n_inputs),
            parallelism: len as u64,
        }
    }

    /// A reduction/softmax op over an `[m, n]` matrix.
    pub fn reduce(label: &'static str, m: usize, n: usize) -> Self {
        OpDescriptor {
            label,
            kind: OpKind::Reduce,
            flops: softmax_flops(m, n),
            bytes: 2 * f32_bytes(m * n),
            parallelism: m as u64,
        }
    }

    /// A gather/scatter of `rows` rows of `width` f32 each.
    pub fn gather(label: &'static str, rows: usize, width: usize) -> Self {
        OpDescriptor {
            label,
            kind: OpKind::Gather,
            flops: 0,
            bytes: 2 * f32_bytes(rows * width),
            parallelism: rows as u64,
        }
    }

    /// A sort over `len` keys (comparison count `len·log2(len)`).
    pub fn sort(label: &'static str, len: usize) -> Self {
        let l = len.max(2) as u64;
        let log = 64 - l.leading_zeros() as u64;
        OpDescriptor {
            label,
            kind: OpKind::Sort,
            flops: l * log,
            bytes: 2 * f32_bytes(len) * log,
            parallelism: len as u64 / 2,
        }
    }

    /// Scales the work by a logical batch multiplier: a representative
    /// tensor standing for `factor×` its physical rows charges
    /// `factor×` the flops, bytes and parallel lanes.
    pub fn scaled(mut self, factor: f64) -> Self {
        if factor != 1.0 {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "rounded cost scaling fits u64"
            )]
            let mul = |v: u64| (v as f64 * factor).round() as u64;
            self.flops = mul(self.flops);
            self.bytes = mul(self.bytes);
            self.parallelism = mul(self.parallelism).max(1);
        }
        self
    }
}

/// FLOPs of a dense `[m, k] × [k, n]` matrix multiplication
/// (multiply–add counted as 2 FLOPs).
pub fn matmul_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

/// Bytes moved by a dense `[m, k] × [k, n]` matmul (read A, read B, write C).
pub fn matmul_bytes(m: usize, k: usize, n: usize) -> u64 {
    F32_BYTES * (m as u64 * k as u64 + k as u64 * n as u64 + m as u64 * n as u64)
}

/// FLOPs of an element-wise op over `len` elements with `ops_per_elem`
/// arithmetic operations each.
pub fn elementwise_flops(len: usize, ops_per_elem: u64) -> u64 {
    len as u64 * ops_per_elem
}

/// Bytes moved by an element-wise op (`n_inputs` reads + one write).
pub fn elementwise_bytes(len: usize, n_inputs: u64) -> u64 {
    F32_BYTES * len as u64 * (n_inputs + 1)
}

/// Bytes of `len` `f32` elements.
pub fn f32_bytes(len: usize) -> u64 {
    F32_BYTES * len as u64
}

/// FLOPs of a row-wise softmax over an `[m, n]` matrix
/// (max, exp, sum, divide ≈ 4 passes).
pub fn softmax_flops(m: usize, n: usize) -> u64 {
    4 * m as u64 * n as u64
}

/// Degree of data parallelism of a GEMM: one lane per output element.
pub fn matmul_parallelism(m: usize, n: usize) -> u64 {
    m as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_flops_counts_fma_as_two() {
        assert_eq!(matmul_flops(2, 3, 4), 48);
    }

    #[test]
    fn matmul_bytes_counts_three_matrices() {
        assert_eq!(matmul_bytes(2, 3, 4), 4 * (6 + 12 + 8));
    }

    #[test]
    fn elementwise_estimates() {
        assert_eq!(elementwise_flops(10, 3), 30);
        assert_eq!(elementwise_bytes(10, 2), 4 * 10 * 3);
    }

    #[test]
    fn parallelism_is_output_size() {
        assert_eq!(matmul_parallelism(32, 64), 2048);
    }

    #[test]
    fn gemm_descriptor_matches_cost_helpers() {
        let d = OpDescriptor::gemm("t", 4, 5, 6);
        assert_eq!(d.flops, 240);
        assert_eq!(d.parallelism, 24);
        assert_eq!(d.kind, OpKind::Gemm);
        assert!(!d.kind.is_irregular());
    }

    #[test]
    fn batched_gemm_scales_by_batch() {
        let single = OpDescriptor::gemm("t", 4, 5, 6);
        let batched = OpDescriptor::batched_gemm("t", 3, 4, 5, 6);
        assert_eq!(batched.flops, 3 * single.flops);
        assert_eq!(batched.parallelism, 3 * single.parallelism);
    }

    #[test]
    fn gather_and_sort_are_irregular() {
        assert!(OpDescriptor::gather("g", 10, 8).kind.is_irregular());
        assert!(OpDescriptor::sort("s", 100).kind.is_irregular());
    }

    #[test]
    fn sort_cost_grows_superlinearly() {
        let small = OpDescriptor::sort("s", 1_000);
        let large = OpDescriptor::sort("s", 100_000);
        assert!(large.flops > 100 * small.flops);
    }

    #[test]
    fn scaled_multiplies_all_work_fields() {
        let d = OpDescriptor::gemm("t", 4, 5, 6).scaled(2.5);
        assert_eq!(d.flops, 600);
        assert_eq!(d.parallelism, 60);
        let unit = OpDescriptor::gemm("t", 4, 5, 6).scaled(1.0);
        assert_eq!(unit, OpDescriptor::gemm("t", 4, 5, 6));
    }
}
