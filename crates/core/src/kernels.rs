//! Nsight-style CUDA kernel summary: per-kernel-name statistics.

use std::collections::BTreeMap;

use dgnn_device::{DurationNs, Timeline};

use crate::tablefmt::TextTable;

/// Aggregate statistics for one kernel name.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStat {
    /// Kernel label.
    pub name: &'static str,
    /// Invocations.
    pub count: usize,
    /// Total GPU time.
    pub total: DurationNs,
    /// Mean duration.
    pub mean: DurationNs,
    /// Mean occupancy across invocations.
    pub mean_occupancy: f64,
    /// Share of total kernel time.
    pub share: f64,
}

/// Summarizes GPU kernels by name, like Nsight Systems' "CUDA GPU Kernel
/// Summary" view — sorted by total time, largest first. The accumulator
/// is a `BTreeMap` so kernels tied on total time keep a stable
/// (name-ordered) position across runs.
pub fn kernel_summary(timeline: &Timeline) -> Vec<KernelStat> {
    let mut acc: BTreeMap<&'static str, (usize, u64, f64)> = BTreeMap::new();
    let mut grand_total = 0u64;
    for e in timeline.events() {
        if !e.category.is_gpu_compute() {
            continue;
        }
        let d = e.duration().as_nanos();
        grand_total += d;
        let entry = acc.entry(e.label).or_insert((0, 0, 0.0));
        entry.0 += 1;
        entry.1 += d;
        entry.2 += e.occupancy;
    }
    let mut stats: Vec<KernelStat> = acc
        .into_iter()
        .map(|(name, (count, total, occ))| KernelStat {
            name,
            count,
            total: DurationNs::from_nanos(total),
            mean: DurationNs::from_nanos(total / count.max(1) as u64),
            mean_occupancy: occ / count.max(1) as f64,
            share: if grand_total > 0 {
                total as f64 / grand_total as f64
            } else {
                0.0
            },
        })
        .collect();
    stats.sort_by_key(|s| std::cmp::Reverse(s.total));
    stats
}

/// Renders the kernel summary as a text table (top `limit` kernels).
pub fn render_kernel_summary(timeline: &Timeline, title: &str, limit: usize) -> String {
    let mut t = TextTable::new(
        title,
        &[
            "kernel",
            "calls",
            "total (ms)",
            "mean (µs)",
            "occupancy",
            "share",
        ],
    );
    for s in kernel_summary(timeline).into_iter().take(limit) {
        t.row(&[
            s.name.to_string(),
            s.count.to_string(),
            format!("{:.3}", s.total.as_millis_f64()),
            format!("{:.1}", s.mean.as_nanos() as f64 / 1e3),
            format!("{:.1}%", s.mean_occupancy * 100.0),
            format!("{:.1}%", s.share * 100.0),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_device::{ExecMode, Executor, OpDescriptor, PlatformSpec};

    fn run() -> Executor {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        ex.ensure_context();
        for _ in 0..3 {
            ex.launch(OpDescriptor::gemm("big", 512, 512, 512));
        }
        for _ in 0..10 {
            ex.launch(OpDescriptor::elementwise("relu", 1024, 1, 1));
        }
        ex
    }

    #[test]
    fn summary_groups_and_sorts_by_total_time() {
        let ex = run();
        let stats = kernel_summary(ex.timeline());
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "big");
        assert_eq!(stats[0].count, 3);
        assert_eq!(stats[1].count, 10);
        let share_sum: f64 = stats.iter().map(|s| s.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mean_times_are_consistent() {
        let ex = run();
        for s in kernel_summary(ex.timeline()) {
            assert_eq!(s.mean.as_nanos(), s.total.as_nanos() / s.count as u64);
            assert!((0.0..=1.0).contains(&s.mean_occupancy));
        }
    }

    #[test]
    fn render_lists_top_kernels() {
        let ex = run();
        let s = render_kernel_summary(ex.timeline(), "kernels", 1);
        assert!(s.contains("big"));
        assert!(!s.contains("relu"), "limit of 1 hides the second kernel");
    }

    #[test]
    fn empty_timeline_is_empty_summary() {
        let ex = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
        assert!(kernel_summary(ex.timeline()).is_empty());
    }
}
