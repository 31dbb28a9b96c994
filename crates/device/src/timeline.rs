//! The simulated Nsight trace: an ordered list of timeline events with
//! query helpers.

use crate::event::{EventCategory, Place, TimelineEvent};
use crate::time::DurationNs;

/// An append-only record of everything the [`crate::Executor`] did.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    events: Vec<TimelineEvent>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) when the event's end precedes its start.
    pub fn push(&mut self, event: TimelineEvent) {
        debug_assert!(event.end >= event.start, "event ends before it starts");
        self.events.push(event);
    }

    /// All events, in emission order (which is also start-time order for
    /// the sequential executor).
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// End time of the last-ending event (simulation makespan).
    pub fn span_end(&self) -> DurationNs {
        self.events
            .iter()
            .map(|e| e.end)
            .max()
            .unwrap_or(DurationNs::ZERO)
    }

    /// Total busy time at a place (sum of event durations there).
    pub fn busy_time(&self, place: Place) -> DurationNs {
        self.events
            .iter()
            .filter(|e| e.place == place)
            .map(|e| e.duration())
            .sum()
    }

    /// Total time in a category.
    pub fn category_time(&self, pred: impl Fn(EventCategory) -> bool) -> DurationNs {
        self.events
            .iter()
            .filter(|e| pred(e.category))
            .map(|e| e.duration())
            .sum()
    }

    /// Total bytes transferred over PCIe in the given direction (or both
    /// when `dir` is `None`).
    pub fn transfer_bytes(&self, dir: Option<crate::event::TransferDir>) -> u64 {
        self.events
            .iter()
            .filter(|e| match (e.category, dir) {
                (EventCategory::Transfer(d), Some(want)) => d == want,
                (EventCategory::Transfer(_), None) => true,
                _ => false,
            })
            .map(|e| e.bytes)
            .sum()
    }

    /// Number of priced PCIe transfer events in the given direction (or
    /// both when `dir` is `None`). Together with
    /// [`Timeline::transfer_bytes`] this is the coalescing metric: merging
    /// transfers reduces the count while conserving the bytes.
    pub fn transfer_count(&self, dir: Option<crate::event::TransferDir>) -> usize {
        self.events
            .iter()
            .filter(|e| match (e.category, dir) {
                (EventCategory::Transfer(d), Some(want)) => d == want,
                (EventCategory::Transfer(_), None) => true,
                _ => false,
            })
            .count()
    }

    /// Occupancy-weighted GPU utilization over `[win_start, win_end)`:
    /// `Σ(kernel overlap × occupancy) / window`. This approximates what
    /// `nvidia-smi` reports for the window.
    ///
    /// Returns 0 for an empty window.
    pub fn gpu_utilization(&self, win_start: DurationNs, win_end: DurationNs) -> f64 {
        let window = win_end.saturating_sub(win_start).as_nanos();
        if window == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .events
            .iter()
            .filter(|e| e.category.is_gpu_compute())
            .map(|e| e.overlap(win_start, win_end).as_nanos() as f64 * e.occupancy)
            .sum();
        weighted / window as f64
    }

    /// Kernel-resident fraction of `[win_start, win_end)` on device 0:
    /// the share of the window during which *some* kernel was executing,
    /// ignoring occupancy. This is what `nvidia-smi`'s "GPU utilization"
    /// reports and what the paper's utilization numbers mean. On the
    /// historical single-GPU platform every kernel lives on device 0, so
    /// this is unchanged; see [`Timeline::device_busy_fraction`] for
    /// other devices and [`Timeline::platform_busy_fraction`] for the
    /// aggregate.
    ///
    /// Computed as the interval-union of kernel events clipped to the
    /// window, so kernels that overlap in time (stream forks) are counted
    /// once — summing per-event overlaps would double-count them and
    /// report fractions above 1.
    pub fn gpu_busy_fraction(&self, win_start: DurationNs, win_end: DurationNs) -> f64 {
        self.device_busy_fraction(0, win_start, win_end)
    }

    /// Kernel-resident fraction of `[win_start, win_end)` on one device
    /// (interval union of its kernel events clipped to the window).
    pub fn device_busy_fraction(
        &self,
        device: usize,
        win_start: DurationNs,
        win_end: DurationNs,
    ) -> f64 {
        let window = win_end.saturating_sub(win_start).as_nanos();
        if window == 0 {
            return 0.0;
        }
        let mut intervals: Vec<(u64, u64)> = self
            .events
            .iter()
            .filter(|e| e.category.is_gpu_compute() && e.device == device)
            .filter_map(|e| {
                let s = e.start.max(win_start).as_nanos();
                let t = e.end.min(win_end).as_nanos();
                (t > s).then_some((s, t))
            })
            .collect();
        intervals.sort_unstable();
        let mut busy = 0u64;
        let mut current: Option<(u64, u64)> = None;
        for (s, t) in intervals {
            match current {
                Some((cs, ct)) if s <= ct => current = Some((cs, ct.max(t))),
                Some((cs, ct)) => {
                    busy += ct - cs;
                    current = Some((s, t));
                }
                None => current = Some((s, t)),
            }
        }
        if let Some((cs, ct)) = current {
            busy += ct - cs;
        }
        busy as f64 / window as f64
    }

    /// Number of GPUs the timeline has events for: one more than the
    /// highest device index among GPU-compute events (1 for an empty or
    /// host-only timeline — the platform always has device 0).
    pub fn n_devices(&self) -> usize {
        1 + self
            .events
            .iter()
            .filter(|e| e.category.is_gpu_compute() || e.category == EventCategory::PeerTransfer)
            .map(|e| e.device)
            .max()
            .unwrap_or(0)
    }

    /// Mean of the per-device kernel-resident fractions over
    /// `[win_start, win_end)`, across every device the timeline has
    /// events for — the platform-wide utilization a fleet scheduler
    /// would report. Equal to [`Timeline::gpu_busy_fraction`] on a
    /// single-device timeline.
    pub fn platform_busy_fraction(&self, win_start: DurationNs, win_end: DurationNs) -> f64 {
        let n = self.n_devices();
        (0..n)
            .map(|d| self.device_busy_fraction(d, win_start, win_end))
            .sum::<f64>()
            / n as f64
    }

    /// Total bytes moved by cross-device peer transfers (direct and
    /// host-staged). Zero on single-device timelines.
    pub fn peer_bytes(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| e.category == EventCategory::PeerTransfer)
            .map(|e| e.bytes)
            .sum()
    }

    /// Events whose scope path starts with `prefix`.
    pub fn events_in_scope<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = &'a TimelineEvent> {
        self.events
            .iter()
            .filter(move |e| e.scope.starts_with(prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TransferDir;
    use dgnn_tensor::OpKind;

    fn kernel(start: u64, end: u64, occ: f64) -> TimelineEvent {
        kernel_on(0, start, end, occ)
    }

    fn kernel_on(device: usize, start: u64, end: u64, occ: f64) -> TimelineEvent {
        TimelineEvent {
            label: "k",
            scope: "run/attn".into(),
            category: EventCategory::Kernel(OpKind::Gemm),
            place: Place::Gpu,
            start: DurationNs::from_nanos(start),
            end: DurationNs::from_nanos(end),
            occupancy: occ,
            flops: 100,
            bytes: 10,
            stream: None,
            device,
        }
    }

    fn transfer(start: u64, end: u64, bytes: u64, dir: TransferDir) -> TimelineEvent {
        TimelineEvent {
            label: dir.name(),
            scope: "run".into(),
            category: EventCategory::Transfer(dir),
            place: Place::Pcie,
            start: DurationNs::from_nanos(start),
            end: DurationNs::from_nanos(end),
            occupancy: 1.0,
            flops: 0,
            bytes,
            stream: None,
            device: 0,
        }
    }

    #[test]
    fn busy_time_sums_by_place() {
        let mut tl = Timeline::new();
        tl.push(kernel(0, 10, 1.0));
        tl.push(kernel(20, 35, 1.0));
        tl.push(transfer(10, 20, 64, TransferDir::H2D));
        assert_eq!(tl.busy_time(Place::Gpu).as_nanos(), 25);
        assert_eq!(tl.busy_time(Place::Pcie).as_nanos(), 10);
        assert_eq!(tl.span_end().as_nanos(), 35);
    }

    #[test]
    fn utilization_weights_by_occupancy() {
        let mut tl = Timeline::new();
        // Kernel busy half the window at 50% occupancy → 25% utilization.
        tl.push(kernel(0, 50, 0.5));
        let u = tl.gpu_utilization(DurationNs::ZERO, DurationNs::from_nanos(100));
        assert!((u - 0.25).abs() < 1e-9);
    }

    #[test]
    fn utilization_ignores_transfers() {
        let mut tl = Timeline::new();
        tl.push(transfer(0, 100, 1000, TransferDir::H2D));
        assert_eq!(
            tl.gpu_utilization(DurationNs::ZERO, DurationNs::from_nanos(100)),
            0.0
        );
    }

    #[test]
    fn transfer_bytes_filters_direction() {
        let mut tl = Timeline::new();
        tl.push(transfer(0, 10, 100, TransferDir::H2D));
        tl.push(transfer(10, 20, 40, TransferDir::D2H));
        assert_eq!(tl.transfer_bytes(Some(TransferDir::H2D)), 100);
        assert_eq!(tl.transfer_bytes(Some(TransferDir::D2H)), 40);
        assert_eq!(tl.transfer_bytes(None), 140);
        assert_eq!(tl.transfer_count(Some(TransferDir::H2D)), 1);
        assert_eq!(tl.transfer_count(Some(TransferDir::D2H)), 1);
        assert_eq!(tl.transfer_count(None), 2);
    }

    #[test]
    fn busy_fraction_counts_overlapping_kernels_once() {
        let mut tl = Timeline::new();
        // Two kernels overlapping on [20, 40): union is [0, 40) ∪ [50, 60).
        tl.push(kernel(0, 40, 1.0));
        tl.push(kernel(20, 60, 1.0));
        tl.push(kernel(50, 60, 1.0));
        let f = tl.gpu_busy_fraction(DurationNs::ZERO, DurationNs::from_nanos(100));
        assert!(
            (f - 0.6).abs() < 1e-9,
            "union of [0,40)+[20,60)+[50,60) over 100ns is 0.6, got {f}"
        );
        // A naive per-event sum would claim (40 + 40 + 10) / 100 = 0.9.
    }

    #[test]
    fn busy_fraction_never_exceeds_one() {
        let mut tl = Timeline::new();
        for _ in 0..4 {
            tl.push(kernel(0, 100, 1.0));
        }
        let f = tl.gpu_busy_fraction(DurationNs::ZERO, DurationNs::from_nanos(100));
        assert!((f - 1.0).abs() < 1e-9, "four coincident kernels: {f}");
    }

    #[test]
    fn busy_fraction_serial_matches_event_sum() {
        let mut tl = Timeline::new();
        tl.push(kernel(0, 10, 1.0));
        tl.push(kernel(30, 45, 1.0));
        let f = tl.gpu_busy_fraction(DurationNs::ZERO, DurationNs::from_nanos(100));
        assert!((f - 0.25).abs() < 1e-9);
        // Clipping to a window that cuts both events.
        let clipped = tl.gpu_busy_fraction(DurationNs::from_nanos(5), DurationNs::from_nanos(35));
        assert!((clipped - 10.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn busy_fractions_separate_devices_on_a_two_device_timeline() {
        let mut tl = Timeline::new();
        // Device 0 busy [0, 60); device 1 busy [0, 20) — overlapping in
        // wall time because the devices run concurrently.
        tl.push(kernel_on(0, 0, 40, 1.0));
        tl.push(kernel_on(0, 30, 60, 1.0));
        tl.push(kernel_on(1, 0, 20, 1.0));
        let w0 = DurationNs::ZERO;
        let w1 = DurationNs::from_nanos(100);
        assert_eq!(tl.n_devices(), 2);
        // gpu_busy_fraction is device 0 only: concurrent device-1 work
        // must not inflate it past the single-lane union.
        assert!((tl.gpu_busy_fraction(w0, w1) - 0.6).abs() < 1e-9);
        assert!((tl.device_busy_fraction(0, w0, w1) - 0.6).abs() < 1e-9);
        assert!((tl.device_busy_fraction(1, w0, w1) - 0.2).abs() < 1e-9);
        // Aggregate = mean over devices present.
        assert!((tl.platform_busy_fraction(w0, w1) - 0.4).abs() < 1e-9);
        // Devices beyond the timeline report idle.
        assert_eq!(tl.device_busy_fraction(7, w0, w1), 0.0);
    }

    #[test]
    fn platform_busy_fraction_matches_gpu_on_single_device() {
        let mut tl = Timeline::new();
        tl.push(kernel(0, 40, 1.0));
        tl.push(kernel(30, 60, 1.0));
        let w0 = DurationNs::ZERO;
        let w1 = DurationNs::from_nanos(100);
        assert_eq!(tl.n_devices(), 1);
        assert_eq!(
            tl.platform_busy_fraction(w0, w1),
            tl.gpu_busy_fraction(w0, w1)
        );
    }

    #[test]
    fn peer_bytes_counts_only_peer_transfers() {
        let mut tl = Timeline::new();
        tl.push(transfer(0, 10, 100, TransferDir::H2D));
        let mut peer = kernel_on(1, 10, 20, 1.0);
        peer.category = EventCategory::PeerTransfer;
        peer.place = Place::Pcie;
        peer.bytes = 64;
        tl.push(peer);
        assert_eq!(tl.peer_bytes(), 64);
        // Peer traffic is not PCIe host traffic…
        assert_eq!(tl.transfer_bytes(None), 100);
        assert_eq!(tl.transfer_count(None), 1);
        // …but its device index counts toward the device census.
        assert_eq!(tl.n_devices(), 2);
    }

    #[test]
    fn scope_filter_matches_prefix() {
        let mut tl = Timeline::new();
        tl.push(kernel(0, 10, 1.0));
        tl.push(transfer(10, 20, 8, TransferDir::H2D));
        assert_eq!(tl.events_in_scope("run/attn").count(), 1);
        assert_eq!(tl.events_in_scope("run").count(), 2);
    }
}
