//! Warm-up accounting — Table 2 and the §4.4 ratios.

use dgnn_device::{DurationNs, EventCategory, Timeline};

use crate::tablefmt::TextTable;

/// Decomposition of a run into warm-up components and computation, in the
/// paper's Table 2 framing: *warm-up share of GPU total working time*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmupReport {
    /// Lazy CUDA context initialization (one-time).
    pub context: DurationNs,
    /// Model initialization (weight upload, allocation, stream capture).
    pub model_init: DurationNs,
    /// Per-run activation allocation.
    pub alloc: DurationNs,
    /// Kernel computation time on the GPU.
    pub computation: DurationNs,
}

impl WarmupReport {
    /// Extracts warm-up components from a timeline.
    pub fn from_timeline(timeline: &Timeline) -> Self {
        WarmupReport {
            context: timeline.category_time(|c| c == EventCategory::WarmupContext),
            model_init: timeline.category_time(|c| c == EventCategory::WarmupModelInit),
            alloc: timeline.category_time(|c| c == EventCategory::WarmupAlloc),
            computation: timeline.category_time(EventCategory::is_gpu_compute),
        }
    }

    /// Table 2's proportion: per-batch warm-up over GPU total working
    /// time (warm-up + computation). Per-batch warm-up is allocation
    /// only: context and model init are one-time costs the table
    /// excludes.
    pub fn batch_warmup_share(&self) -> f64 {
        let total = (self.alloc + self.computation).as_nanos();
        if total == 0 {
            return 0.0;
        }
        self.alloc.as_nanos() as f64 / total as f64
    }

    /// §4.4's ratio: one-time warm-up versus the cost of processing one
    /// mini-batch/snapshot (`unit_time`). The paper reports 86×, 41×, 33×.
    pub fn one_time_warmup_ratio(&self, unit_time: DurationNs) -> f64 {
        if unit_time.as_nanos() == 0 {
            return f64::INFINITY;
        }
        (self.context + self.model_init).as_nanos() as f64 / unit_time.as_nanos() as f64
    }

    /// Renders one Table 2 row: `batch size | warm-up (share) |
    /// computation (share)`.
    pub fn table2_row(&self, batch_size: usize) -> Vec<String> {
        let total = self.alloc + self.computation;
        let share = |d: DurationNs| {
            if total.as_nanos() == 0 {
                0.0
            } else {
                d.as_nanos() as f64 / total.as_nanos() as f64 * 100.0
            }
        };
        vec![
            batch_size.to_string(),
            format!(
                "{:.1} ({:.0}%)",
                self.alloc.as_millis_f64(),
                share(self.alloc)
            ),
            format!(
                "{:.1} ({:.0}%)",
                self.computation.as_millis_f64(),
                share(self.computation)
            ),
        ]
    }

    /// Renders a full Table 2 for one model from per-batch-size reports.
    pub fn render_table2(model: &str, rows: &[(usize, WarmupReport)]) -> String {
        let mut t = TextTable::new(
            &format!("Table 2 — GPU warm-up overhead of {model}"),
            &["batch size", "warm-up ms (share)", "computation ms (share)"],
        );
        for (bs, r) in rows {
            t.row(&r.table2_row(*bs));
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_device::{ExecMode, Executor, OpDescriptor, PlatformSpec};

    fn run(alloc_bytes: u64, kernels: usize) -> WarmupReport {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        ex.model_init(1 << 20, 10);
        ex.alloc_warmup(alloc_bytes);
        for _ in 0..kernels {
            ex.launch(OpDescriptor::gemm("k", 128, 128, 128));
        }
        WarmupReport::from_timeline(ex.timeline())
    }

    #[test]
    fn components_are_positive_for_gpu_runs() {
        let r = run(1 << 20, 5);
        assert!(r.context > DurationNs::ZERO);
        assert!(r.model_init > DurationNs::ZERO);
        assert!(r.alloc > DurationNs::ZERO);
        assert!(r.computation > DurationNs::ZERO);
    }

    #[test]
    fn batch_warmup_share_grows_with_allocation() {
        let small = run(1 << 16, 50);
        let large = run(1 << 30, 50);
        assert!(large.batch_warmup_share() > small.batch_warmup_share());
        assert!((0.0..=1.0).contains(&large.batch_warmup_share()));
    }

    #[test]
    fn one_time_ratio_is_large_for_small_units() {
        let r = run(1 << 16, 1);
        let unit = DurationNs::from_millis(80);
        assert!(r.one_time_warmup_ratio(unit) > 30.0);
        assert!(r.one_time_warmup_ratio(DurationNs::ZERO).is_infinite());
    }

    #[test]
    fn cpu_runs_have_no_gpu_warmup() {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
        ex.launch(OpDescriptor::gemm("k", 64, 64, 64));
        let r = WarmupReport::from_timeline(ex.timeline());
        assert_eq!(r.context, DurationNs::ZERO);
        assert_eq!(r.alloc, DurationNs::ZERO);
    }

    #[test]
    fn table2_renders_rows() {
        let rows = vec![(8, run(1 << 20, 3)), (512, run(1 << 26, 3))];
        let s = WarmupReport::render_table2("TGN", &rows);
        assert!(s.contains("TGN"));
        assert!(s.contains("512"));
        assert!(s.contains('%'));
    }
}
