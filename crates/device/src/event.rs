//! Timeline events: the simulated Nsight Systems trace records.

use std::sync::Arc;

use dgnn_tensor::OpKind;

use crate::stream::StreamId;
use crate::time::DurationNs;

/// Where an event executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Place {
    /// The host CPU.
    Cpu,
    /// The accelerator.
    Gpu,
    /// The PCIe link between them.
    Pcie,
}

/// Direction of a CPU↔GPU copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferDir {
    /// Host to device.
    H2D,
    /// Device to host.
    D2H,
}

impl TransferDir {
    /// Display name matching Nsight's memcpy naming.
    pub fn name(self) -> &'static str {
        match self {
            TransferDir::H2D => "memcpy_h2d",
            TransferDir::D2H => "memcpy_d2h",
        }
    }
}

/// What a timeline event represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventCategory {
    /// A device kernel of the given family.
    Kernel(OpKind),
    /// A PCIe copy.
    Transfer(TransferDir),
    /// Host-side computation (sampling, preprocessing).
    Host,
    /// CUDA context lazy initialization.
    WarmupContext,
    /// Model initialization (weight upload, allocation, stream capture).
    WarmupModelInit,
    /// Per-run activation allocation.
    WarmupAlloc,
    /// A cross-device (GPU↔GPU) copy — direct over a peer link, or
    /// bounced through host memory when no peer edge exists.
    PeerTransfer,
}

impl EventCategory {
    /// Whether the event is part of GPU warm-up (Section 4.4).
    pub fn is_warmup(self) -> bool {
        matches!(
            self,
            EventCategory::WarmupContext
                | EventCategory::WarmupModelInit
                | EventCategory::WarmupAlloc
        )
    }

    /// Whether the event occupies the GPU's execution units.
    pub fn is_gpu_compute(self) -> bool {
        matches!(self, EventCategory::Kernel(_))
    }
}

/// One interval on the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Human-readable label.
    pub label: &'static str,
    /// Profiler scope path active when the event was emitted
    /// (e.g. `"inference/attention"`), shared by every event the scope
    /// emits.
    pub scope: Arc<str>,
    /// Event category.
    pub category: EventCategory,
    /// Execution place.
    pub place: Place,
    /// Start time since simulation begin.
    pub start: DurationNs,
    /// End time since simulation begin.
    pub end: DurationNs,
    /// Fraction of the device's execution width this event used
    /// (occupancy; 1.0 for transfers/host work).
    pub occupancy: f64,
    /// FLOPs performed.
    pub flops: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Execution lane the event was issued on. `None` for the sequential
    /// engine (the default); `Some` only inside a stream fork, where
    /// events on different lanes may overlap in time.
    pub stream: Option<StreamId>,
    /// GPU the event is attributed to (0 on the historical single-GPU
    /// platform; meaningful for Gpu/Pcie places under sharded runs).
    pub device: usize,
}

impl TimelineEvent {
    /// Event duration.
    pub fn duration(&self) -> DurationNs {
        self.end - self.start
    }

    /// Overlap of this event with a window, in nanoseconds.
    pub fn overlap(&self, win_start: DurationNs, win_end: DurationNs) -> DurationNs {
        let s = self.start.max(win_start);
        let e = self.end.min(win_end);
        e.saturating_sub(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start: u64, end: u64) -> TimelineEvent {
        TimelineEvent {
            label: "k",
            scope: "".into(),
            category: EventCategory::Kernel(OpKind::Gemm),
            place: Place::Gpu,
            start: DurationNs::from_nanos(start),
            end: DurationNs::from_nanos(end),
            occupancy: 0.5,
            flops: 0,
            bytes: 0,
            stream: None,
            device: 0,
        }
    }

    #[test]
    fn duration_and_overlap() {
        let e = ev(10, 30);
        assert_eq!(e.duration().as_nanos(), 20);
        assert_eq!(
            e.overlap(DurationNs::from_nanos(20), DurationNs::from_nanos(100))
                .as_nanos(),
            10
        );
        assert_eq!(
            e.overlap(DurationNs::from_nanos(40), DurationNs::from_nanos(50))
                .as_nanos(),
            0
        );
    }

    #[test]
    fn warmup_classification() {
        assert!(EventCategory::WarmupContext.is_warmup());
        assert!(EventCategory::WarmupAlloc.is_warmup());
        assert!(!EventCategory::Host.is_warmup());
        assert!(EventCategory::Kernel(OpKind::Gemm).is_gpu_compute());
        assert!(!EventCategory::Transfer(TransferDir::H2D).is_gpu_compute());
    }
}
