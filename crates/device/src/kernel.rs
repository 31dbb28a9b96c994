//! Host-work descriptors: the unit of pricing for CPU-side stages.
//!
//! Device kernels are priced from `dgnn_tensor::OpDescriptor`, re-exported
//! at the crate root.

/// Host-side (CPU) work description: graph preprocessing, sampling,
/// snapshot assembly. Always executes on the simulated CPU regardless of
/// execution mode — exactly as in the profiled frameworks.
#[derive(Debug, Clone, PartialEq)]
pub struct HostWork {
    /// Human-readable label.
    pub label: &'static str,
    /// Arithmetic/comparison operations performed.
    pub ops: u64,
    /// Bytes touched sequentially.
    pub seq_bytes: u64,
    /// Bytes touched with irregular (random) access — priced against
    /// `mem_bw × irregular_efficiency`.
    pub irregular_bytes: u64,
    /// Independent work items the stage fans out over (e.g. sampling
    /// roots). `1` means a serial loop on one core; larger values let the
    /// executor charge the stage as a critical path over the effective
    /// core count the parallelism can engage (see `Executor::host`).
    pub parallelism: u64,
}

impl HostWork {
    /// Sequential host work (e.g. packing a contiguous batch).
    pub fn sequential(label: &'static str, ops: u64, bytes: u64) -> Self {
        HostWork {
            label,
            ops,
            seq_bytes: bytes,
            irregular_bytes: 0,
            parallelism: 1,
        }
    }

    /// Irregular host work (e.g. temporal neighbor sampling with
    /// bisection over per-node timestamp arrays).
    pub fn irregular(label: &'static str, ops: u64, bytes: u64) -> Self {
        HostWork {
            label,
            ops,
            seq_bytes: 0,
            irregular_bytes: bytes,
            parallelism: 1,
        }
    }

    /// Builder-style parallelism override: declares the stage as `items`
    /// independent work units (clamped to at least 1).
    pub fn with_parallelism(mut self, items: u64) -> Self {
        self.parallelism = items.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_work_constructors() {
        let s = HostWork::sequential("pack", 10, 100);
        assert_eq!(s.irregular_bytes, 0);
        assert_eq!(s.parallelism, 1);
        let i = HostWork::irregular("sample", 10, 100);
        assert_eq!(i.seq_bytes, 0);
        assert_eq!(i.irregular_bytes, 100);
        assert_eq!(i.parallelism, 1);
        let p = i.with_parallelism(4096);
        assert_eq!(p.parallelism, 4096);
        assert_eq!(
            HostWork::sequential("z", 1, 1)
                .with_parallelism(0)
                .parallelism,
            1
        );
    }
}
