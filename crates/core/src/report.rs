//! One-call profile capture: everything the paper reports about a run.

use dgnn_device::{DurationNs, ExecMode, Executor, Place};

use crate::bottleneck::{BottleneckClassifier, BottleneckFinding};
use crate::breakdown::Breakdown;
use crate::utilization::UtilizationReport;
use crate::warmup::WarmupReport;

/// A complete profile of one inference run, captured from an
/// [`Executor`] after the model finished.
#[derive(Debug, Clone)]
pub struct InferenceProfile {
    /// Execution mode of the run.
    pub mode: ExecMode,
    /// Total simulated time of the inference root scope (excludes
    /// warm-up performed before the scope opened).
    pub inference_time: DurationNs,
    /// End-to-end simulated time including warm-up.
    pub end_to_end: DurationNs,
    /// Per-module breakdown under the root scope.
    pub breakdown: Breakdown,
    /// GPU utilization over the inference window.
    pub utilization: UtilizationReport,
    /// Warm-up decomposition over the whole run.
    pub warmup: WarmupReport,
    /// Peak GPU memory in bytes.
    pub gpu_peak_bytes: u64,
    /// Peak CPU memory in bytes.
    pub cpu_peak_bytes: u64,
    /// Total bytes moved over PCIe.
    pub pcie_bytes: u64,
    /// Host (CPU preprocessing) busy time within the run.
    pub host_time: DurationNs,
    /// Detected bottlenecks, most severe first.
    pub findings: Vec<BottleneckFinding>,
}

impl InferenceProfile {
    /// Captures a profile from a finished run whose inference was wrapped
    /// in the scope named `root`.
    ///
    /// # Panics
    ///
    /// Panics when no scope named `root` was recorded.
    pub fn capture(ex: &Executor, root: &str) -> Self {
        let roots: Vec<_> = ex.scopes().iter().filter(|s| s.path == root).collect();
        assert!(!roots.is_empty(), "no scope named `{root}` was recorded");
        let start = roots.iter().map(|s| s.start).min().expect("non-empty");
        let end = roots.iter().map(|s| s.end).max().expect("non-empty");
        let inference_time: DurationNs = roots.iter().map(|s| s.duration()).sum();

        let timeline = ex.timeline();
        let breakdown = Breakdown::from_scopes(ex.scopes(), root);
        let utilization = UtilizationReport::over_window(timeline, start, end);
        let warmup = WarmupReport::from_timeline(timeline);
        let host_time: DurationNs = timeline
            .events()
            .iter()
            .filter(|e| e.place == Place::Cpu && e.category == dgnn_device::EventCategory::Host)
            .map(|e| e.overlap(start, end))
            .sum();
        let findings = BottleneckClassifier::new().classify(timeline, start, end, ex.now());

        InferenceProfile {
            mode: ex.mode(),
            inference_time,
            end_to_end: ex.now(),
            breakdown,
            utilization,
            warmup,
            gpu_peak_bytes: ex.gpu_memory().peak_bytes(),
            cpu_peak_bytes: ex.cpu_memory().peak_bytes(),
            pcie_bytes: timeline.transfer_bytes(None),
            host_time,
            findings,
        }
    }

    /// Peak GPU memory in MiB.
    pub fn gpu_peak_mib(&self) -> f64 {
        self.gpu_peak_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Renders the full profile as a multi-section text report.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("===== {title} ({:?}) =====\n", self.mode));
        out.push_str(&format!(
            "inference: {}   end-to-end: {}   gpu-util: {:.2}%   gpu-mem: {:.1} MiB   pcie: {:.2} MiB\n",
            self.inference_time,
            self.end_to_end,
            self.utilization.average * 100.0,
            self.gpu_peak_mib(),
            self.pcie_bytes as f64 / (1024.0 * 1024.0),
        ));
        out.push_str(&self.breakdown.to_table("module breakdown"));
        if !self.findings.is_empty() {
            out.push_str("bottlenecks:\n");
            for f in &self.findings {
                out.push_str(&format!(
                    "  [{:>4.0}%] {} — {}\n",
                    f.severity * 100.0,
                    f.kind,
                    f.evidence
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_device::{HostWork, OpDescriptor, PlatformSpec, TransferDir};

    fn profiled_run() -> Executor {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        ex.model_init(1 << 20, 8);
        ex.scope("inference", |ex| {
            for _ in 0..4 {
                ex.scope("sampling", |ex| {
                    ex.host(HostWork::irregular("sample", 100_000, 1 << 20));
                });
                ex.scope("memcpy_h2d", |ex| {
                    ex.transfer(TransferDir::H2D, 1 << 20);
                });
                ex.scope("attention", |ex| {
                    ex.launch(OpDescriptor::gemm("qk", 64, 64, 64));
                });
            }
        });
        ex
    }

    #[test]
    fn capture_produces_consistent_numbers() {
        let ex = profiled_run();
        let p = InferenceProfile::capture(&ex, "inference");
        assert!(p.inference_time > DurationNs::ZERO);
        assert!(p.end_to_end >= p.inference_time);
        assert_eq!(p.breakdown.entries().len(), 3);
        assert!(p.breakdown.share_of("sampling") > 0.0);
        assert!(p.pcie_bytes >= 4 << 20);
        assert!(p.gpu_peak_bytes >= 1 << 20);
        assert!(p.host_time > DurationNs::ZERO);
    }

    #[test]
    #[should_panic(expected = "no scope named")]
    fn capture_requires_root_scope() {
        let ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        let _ = InferenceProfile::capture(&ex, "inference");
    }

    #[test]
    fn render_mentions_key_sections() {
        let ex = profiled_run();
        let p = InferenceProfile::capture(&ex, "inference");
        let s = p.render("TGAT wikipedia bs=200");
        assert!(s.contains("TGAT"));
        assert!(s.contains("module breakdown"));
        assert!(s.contains("sampling"));
    }

    #[test]
    fn cpu_mode_profile_has_no_transfers() {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
        ex.scope("inference", |ex| {
            ex.scope("gnn", |ex| {
                ex.launch(OpDescriptor::gemm("k", 32, 32, 32));
            });
        });
        let p = InferenceProfile::capture(&ex, "inference");
        assert_eq!(p.pcie_bytes, 0);
        assert_eq!(p.gpu_peak_bytes, 0);
    }
}
