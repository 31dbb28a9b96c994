//! Automatic bottleneck classification — the paper's four classes.

use std::fmt;

use dgnn_device::{DurationNs, EventCategory, Place, Timeline};

/// The four DGNN hardware bottlenecks of Section 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BottleneckKind {
    /// §4.1 — serialized stages and event ordering leave the GPU idle.
    TemporalDependency,
    /// §4.2 — CPU-side preprocessing (sampling) starves the GPU.
    WorkloadImbalance,
    /// §4.3 — CPU↔GPU transfers dominate.
    DataMovement,
    /// §4.4 — warm-up (context/model-init/allocation) dominates.
    GpuWarmup,
}

impl fmt::Display for BottleneckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BottleneckKind::TemporalDependency => "temporal data dependency",
            BottleneckKind::WorkloadImbalance => "workload imbalance (CPU preprocessing)",
            BottleneckKind::DataMovement => "data movement (CPU<->GPU)",
            BottleneckKind::GpuWarmup => "GPU warm-up",
        };
        f.write_str(s)
    }
}

/// One detected bottleneck with a severity score and evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckFinding {
    /// Which bottleneck class fired.
    pub kind: BottleneckKind,
    /// Severity in `[0, 1]`: how far past the threshold the metric is.
    pub severity: f64,
    /// Human-readable evidence string.
    pub evidence: String,
}

// Detection thresholds, following the paper's qualitative bars (e.g.
// "GPU utilization below a few percent", "sampling takes most of the
// inference time").
/// GPU utilization below this flags temporal dependency.
const MAX_HEALTHY_UTILIZATION: f64 = 0.10;
/// Host share of wall time above this flags workload imbalance.
const MAX_HEALTHY_HOST_SHARE: f64 = 0.40;
/// Transfer share of wall time above this flags data movement.
const MAX_HEALTHY_TRANSFER_SHARE: f64 = 0.25;
/// Warm-up share of total time above this flags warm-up.
const MAX_HEALTHY_WARMUP_SHARE: f64 = 0.30;

/// Classifies a profiled run against the four bottleneck classes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BottleneckClassifier;

impl BottleneckClassifier {
    /// A classifier against the paper's detection thresholds.
    pub fn new() -> Self {
        BottleneckClassifier
    }

    /// Analyzes `timeline` over the measurement window `[start, end)`
    /// (typically the inference root scope, excluding one-time warm-up)
    /// together with `total_span` (including warm-up) and returns the
    /// findings, most severe first.
    pub fn classify(
        &self,
        timeline: &Timeline,
        start: DurationNs,
        end: DurationNs,
        total_span: DurationNs,
    ) -> Vec<BottleneckFinding> {
        let mut findings = Vec::new();
        let window = end.saturating_sub(start).as_nanos().max(1) as f64;

        // Temporal dependency shows up two ways: idle gaps between
        // serialized stages (low kernel-resident utilization, the
        // nvidia-smi metric) or wall-to-wall launch-bound tiny kernels
        // (low occupancy-weighted utilization).
        let busy = timeline.gpu_busy_fraction(start, end);
        let weighted = timeline.gpu_utilization(start, end);
        let util = busy.min(weighted * 4.0);
        let gpu_events = timeline
            .events()
            .iter()
            .filter(|e| e.category.is_gpu_compute() && e.start >= start && e.end <= end)
            .count();
        if gpu_events > 0 && util < MAX_HEALTHY_UTILIZATION {
            findings.push(BottleneckFinding {
                kind: BottleneckKind::TemporalDependency,
                severity: (1.0 - util / MAX_HEALTHY_UTILIZATION).clamp(0.0, 1.0),
                evidence: format!(
                    "GPU utilization {:.2}% over the inference window ({} kernels, serialized)",
                    util * 100.0,
                    gpu_events
                ),
            });
        }

        // Workload imbalance: host time share in the window.
        let host: u64 = timeline
            .events()
            .iter()
            .filter(|e| e.place == Place::Cpu && e.category == EventCategory::Host)
            .map(|e| e.overlap(start, end).as_nanos())
            .sum();
        let host_share = host as f64 / window;
        if host_share > MAX_HEALTHY_HOST_SHARE {
            findings.push(BottleneckFinding {
                kind: BottleneckKind::WorkloadImbalance,
                severity: ((host_share - MAX_HEALTHY_HOST_SHARE) / (1.0 - MAX_HEALTHY_HOST_SHARE))
                    .clamp(0.0, 1.0),
                evidence: format!(
                    "CPU preprocessing occupies {:.1}% of inference time; GPU waits",
                    host_share * 100.0
                ),
            });
        }

        // Data movement: PCIe share in the window.
        let pcie: u64 = timeline
            .events()
            .iter()
            .filter(|e| e.place == Place::Pcie)
            .map(|e| e.overlap(start, end).as_nanos())
            .sum();
        let pcie_share = pcie as f64 / window;
        if pcie_share > MAX_HEALTHY_TRANSFER_SHARE {
            findings.push(BottleneckFinding {
                kind: BottleneckKind::DataMovement,
                severity: ((pcie_share - MAX_HEALTHY_TRANSFER_SHARE)
                    / (1.0 - MAX_HEALTHY_TRANSFER_SHARE))
                    .clamp(0.0, 1.0),
                evidence: format!(
                    "CPU<->GPU transfers occupy {:.1}% of inference time ({} bytes moved)",
                    pcie_share * 100.0,
                    timeline.transfer_bytes(None)
                ),
            });
        }

        // Warm-up: share of the *total* span including one-time costs.
        let warmup = timeline.category_time(EventCategory::is_warmup);
        let warmup_share = warmup.as_nanos() as f64 / total_span.as_nanos().max(1) as f64;
        if warmup_share > MAX_HEALTHY_WARMUP_SHARE {
            findings.push(BottleneckFinding {
                kind: BottleneckKind::GpuWarmup,
                severity: ((warmup_share - MAX_HEALTHY_WARMUP_SHARE)
                    / (1.0 - MAX_HEALTHY_WARMUP_SHARE))
                    .clamp(0.0, 1.0),
                evidence: format!(
                    "warm-up is {:.1}% of end-to-end time ({:.1} ms)",
                    warmup_share * 100.0,
                    warmup.as_millis_f64()
                ),
            });
        }

        findings.sort_by(|a, b| b.severity.total_cmp(&a.severity));
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_device::{ExecMode, Executor, HostWork, OpDescriptor, PlatformSpec, TransferDir};

    #[test]
    fn serialized_tiny_kernels_flag_temporal_dependency() {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        ex.ensure_context();
        let start = ex.now();
        for _ in 0..100 {
            ex.launch(OpDescriptor::gemm("tiny", 16, 16, 16));
        }
        let findings =
            BottleneckClassifier::new().classify(ex.timeline(), start, ex.now(), ex.now());
        assert!(findings
            .iter()
            .any(|f| f.kind == BottleneckKind::TemporalDependency));
    }

    #[test]
    fn host_dominated_runs_flag_workload_imbalance() {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        ex.ensure_context();
        let start = ex.now();
        for _ in 0..10 {
            ex.host(HostWork::irregular("sampling", 2_000_000, 10 << 20));
            ex.launch(OpDescriptor::gemm("k", 64, 64, 64));
        }
        let findings =
            BottleneckClassifier::new().classify(ex.timeline(), start, ex.now(), ex.now());
        assert!(findings
            .iter()
            .any(|f| f.kind == BottleneckKind::WorkloadImbalance));
    }

    #[test]
    fn transfer_dominated_runs_flag_data_movement() {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        ex.ensure_context();
        let start = ex.now();
        for _ in 0..10 {
            ex.transfer(TransferDir::H2D, 100 << 20);
            ex.launch(OpDescriptor::gemm("k", 64, 64, 64));
            ex.transfer(TransferDir::D2H, 100 << 20);
        }
        let findings =
            BottleneckClassifier::new().classify(ex.timeline(), start, ex.now(), ex.now());
        assert!(findings
            .iter()
            .any(|f| f.kind == BottleneckKind::DataMovement));
        let dm = findings
            .iter()
            .find(|f| f.kind == BottleneckKind::DataMovement)
            .unwrap();
        assert!(dm.evidence.contains("bytes"));
    }

    #[test]
    fn warmup_dominates_short_runs() {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        ex.model_init(1 << 20, 10);
        let start = ex.now();
        ex.launch(OpDescriptor::gemm("k", 64, 64, 64));
        let findings =
            BottleneckClassifier::new().classify(ex.timeline(), start, ex.now(), ex.now());
        assert!(findings.iter().any(|f| f.kind == BottleneckKind::GpuWarmup));
    }

    #[test]
    fn healthy_run_produces_no_findings() {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        ex.ensure_context();
        let start = ex.now();
        for _ in 0..10 {
            ex.launch(OpDescriptor::gemm("big", 4096, 4096, 4096));
        }
        let end = ex.now();
        // Measure only the kernel window and pretend total span is huge so
        // warm-up share is negligible.
        let findings = BottleneckClassifier::new().classify(
            ex.timeline(),
            start,
            end,
            DurationNs::from_secs_f64(10_000.0),
        );
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }

    #[test]
    fn severities_are_sorted_and_bounded() {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        ex.model_init(1 << 24, 50);
        let start = ex.now();
        for _ in 0..5 {
            ex.host(HostWork::irregular("sampling", 5_000_000, 50 << 20));
            ex.transfer(TransferDir::H2D, 200 << 20);
            ex.launch(OpDescriptor::gemm("tiny", 8, 8, 8));
        }
        let findings =
            BottleneckClassifier::new().classify(ex.timeline(), start, ex.now(), ex.now());
        assert!(findings.len() >= 2);
        for w in findings.windows(2) {
            assert!(w[0].severity >= w[1].severity);
        }
        assert!(findings.iter().all(|f| (0.0..=1.0).contains(&f.severity)));
    }
}
