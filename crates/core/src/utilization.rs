//! GPU utilization analysis — Figures 6 and 9.

use dgnn_device::{DurationNs, Timeline};

use crate::tablefmt::TextTable;

/// GPU utilization over a measurement window, with an optional sampled
/// time-series.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationReport {
    /// Window start.
    pub window_start: DurationNs,
    /// Window end.
    pub window_end: DurationNs,
    /// Occupancy-weighted average utilization over the window, `[0, 1]`.
    pub average: f64,
    /// Fraction of the window during which *any* kernel was resident
    /// (ignoring occupancy) — the "GPU busy" bar in Nsight. Scoped to
    /// device 0; see [`UtilizationReport::per_device`] for the rest.
    pub busy_fraction: f64,
    /// Kernel-resident fraction per device: `per_device[d]` is GPU `d`.
    /// Single-device timelines have exactly one entry equal to
    /// `busy_fraction`.
    pub per_device: Vec<f64>,
    /// Mean of the per-device busy fractions — the platform-wide
    /// utilization a fleet scheduler would report. Equal to
    /// `busy_fraction` on a single-device timeline.
    pub platform_busy_fraction: f64,
}

impl UtilizationReport {
    /// Measures utilization over `[start, end)` of a timeline.
    pub fn over_window(timeline: &Timeline, start: DurationNs, end: DurationNs) -> Self {
        let per_device: Vec<f64> = (0..timeline.n_devices())
            .map(|d| timeline.device_busy_fraction(d, start, end))
            .collect();
        UtilizationReport {
            window_start: start,
            window_end: end,
            average: timeline.gpu_utilization(start, end),
            busy_fraction: timeline.gpu_busy_fraction(start, end),
            per_device,
            platform_busy_fraction: timeline.platform_busy_fraction(start, end),
        }
    }

    /// Samples kernel-resident utilization (the nvidia-smi metric) over
    /// fixed windows within `[start, end)` — Figure 9's series. Returns
    /// `(window_start, utilization)` pairs.
    pub fn series(
        timeline: &Timeline,
        start: DurationNs,
        end: DurationNs,
        window: DurationNs,
    ) -> Vec<(DurationNs, f64)> {
        assert!(window.as_nanos() > 0, "window must be positive");
        let mut out = Vec::new();
        let mut t = start;
        while t < end {
            let next = (t + window).min(end);
            out.push((t, timeline.gpu_busy_fraction(t, next)));
            t += window;
        }
        out
    }

    /// Renders a utilization time-series as a textual sparkline table
    /// (one row per window) for the Figure 9 binary.
    pub fn render_series(series: &[(DurationNs, f64)], title: &str) -> String {
        let mut t = TextTable::new(title, &["t (ms)", "util", "bar"]);
        for &(start, u) in series {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "utilization bar length ≤ 50"
            )]
            let bars = (u * 50.0).round() as usize;
            t.row(&[
                format!("{:.2}", start.as_millis_f64()),
                format!("{:5.1}%", u * 100.0),
                "#".repeat(bars),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_device::{ExecMode, Executor, OpDescriptor, PlatformSpec};

    fn run_kernels(n: usize, size: usize) -> Executor {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        ex.ensure_context();
        for _ in 0..n {
            ex.launch(OpDescriptor::gemm("k", size, size, size));
        }
        ex
    }

    #[test]
    fn average_bounded_by_busy_fraction() {
        let ex = run_kernels(10, 64);
        let r = UtilizationReport::over_window(ex.timeline(), DurationNs::ZERO, ex.now());
        assert!(r.average <= r.busy_fraction + 1e-12);
        assert!(r.average > 0.0);
        assert!(r.busy_fraction <= 1.0);
    }

    #[test]
    fn small_kernels_give_low_utilization() {
        let small = run_kernels(20, 16);
        let big = run_kernels(20, 2048);
        let t0 = DurationNs::from_secs_f64(6.0); // skip context init
        let u_small = UtilizationReport::over_window(small.timeline(), t0, small.now()).average;
        let u_big = UtilizationReport::over_window(big.timeline(), t0, big.now()).average;
        assert!(
            u_small < 0.05,
            "tiny kernels should underutilize, got {u_small}"
        );
        assert!(u_big > 10.0 * u_small, "big {u_big} vs small {u_small}");
    }

    #[test]
    fn series_spans_interval() {
        let ex = run_kernels(5, 128);
        let series = UtilizationReport::series(
            ex.timeline(),
            DurationNs::ZERO,
            ex.now(),
            DurationNs::from_millis(1_000),
        );
        assert!(!series.is_empty());
        assert!(series.iter().all(|&(_, u)| (0.0..=1.0).contains(&u)));
    }

    #[test]
    fn render_series_contains_bars() {
        let series = vec![(DurationNs::ZERO, 0.5), (DurationNs::from_millis(1), 0.0)];
        let s = UtilizationReport::render_series(&series, "fig9");
        assert!(s.contains("fig9"));
        assert!(s.contains("#########"));
    }

    #[test]
    fn single_device_per_device_matches_busy_fraction() {
        let ex = run_kernels(5, 128);
        let r = UtilizationReport::over_window(ex.timeline(), DurationNs::ZERO, ex.now());
        assert_eq!(r.per_device, vec![r.busy_fraction]);
        assert!((r.platform_busy_fraction - r.busy_fraction).abs() < 1e-12);
    }

    #[test]
    fn two_device_fork_reports_per_device_and_platform_fractions() {
        use dgnn_device::StreamId;
        let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(2), ExecMode::Gpu);
        ex.ensure_context();
        ex.fork_streams(2);
        // Device 0 does twice the kernel work of device 1.
        ex.on_device(0, |ex| {
            ex.on_stream(StreamId::Compute, |ex| {
                for _ in 0..8 {
                    ex.launch(OpDescriptor::gemm("k0", 256, 256, 256));
                }
            });
        });
        ex.on_device(1, |ex| {
            ex.on_stream(StreamId::Compute, |ex| {
                for _ in 0..4 {
                    ex.launch(OpDescriptor::gemm("k1", 256, 256, 256));
                }
            });
        });
        ex.join_streams();
        let r = UtilizationReport::over_window(ex.timeline(), DurationNs::ZERO, ex.now());
        assert_eq!(r.per_device.len(), 2, "both devices must be reported");
        assert!(r.per_device.iter().all(|&f| f > 0.0 && f <= 1.0));
        assert!(
            r.per_device[0] > r.per_device[1],
            "device 0 ran 2x the kernels: {:?}",
            r.per_device
        );
        assert_eq!(r.per_device[0], r.busy_fraction);
        let mean = (r.per_device[0] + r.per_device[1]) / 2.0;
        assert!((r.platform_busy_fraction - mean).abs() < 1e-12);
    }

    #[test]
    fn empty_window_is_zero() {
        let ex = run_kernels(1, 8);
        let r = UtilizationReport::over_window(ex.timeline(), ex.now(), ex.now());
        assert_eq!(r.average, 0.0);
        assert_eq!(r.busy_fraction, 0.0);
    }
}
