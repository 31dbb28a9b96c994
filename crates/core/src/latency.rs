//! Request-latency accounting for the serving subsystem.
//!
//! The paper profiles *one* inference run end to end; a serving layer
//! (`dgnn-serve`) runs thousands and must report tail latency, not
//! means — the §4.4 warm-up cost appears at the tail as cold-start
//! spikes. This module provides the two reusable pieces:
//!
//! * [`LatencyStats`] — order statistics (p50/p95/p99, min/max/mean)
//!   over a set of simulated durations, computed with the deterministic
//!   nearest-rank rule so reports are bit-stable across runs;
//! * [`ServicePhases`] — a busy-time decomposition of a timeline slice
//!   into the phases a served request passes through (warm-up,
//!   host-side sampling/preprocessing, kernel compute, PCIe transfer),
//!   the per-request analogue of [`crate::Breakdown`].

use dgnn_device::{DurationNs, EventCategory, TimelineEvent};

/// Order statistics over a set of simulated latencies.
///
/// Quantiles use the nearest-rank definition (`ceil(q·n)`-th smallest),
/// so every reported value is an actually observed latency and the
/// whole struct is bit-deterministic for a fixed input set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// Number of samples.
    pub n: usize,
    /// Smallest observed latency.
    pub min: DurationNs,
    /// Largest observed latency.
    pub max: DurationNs,
    /// Arithmetic mean (integer ns, rounded down).
    pub mean: DurationNs,
    /// Median (nearest rank).
    pub p50: DurationNs,
    /// 95th percentile (nearest rank).
    pub p95: DurationNs,
    /// 99th percentile (nearest rank).
    pub p99: DurationNs,
}

impl LatencyStats {
    /// Computes statistics over `samples`. Order does not matter; an
    /// empty slice yields the all-zero stats.
    pub fn from_durations(samples: &[DurationNs]) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted: Vec<u64> = samples.iter().map(|d| d.as_nanos()).collect();
        sorted.sort_unstable();
        let n = sorted.len();
        let sum: u128 = sorted.iter().map(|&x| u128::from(x)).sum();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "mean ≤ max, which fits u64"
        )]
        let mean = (sum / n as u128) as u64;
        // Nearest rank ⌈q·n⌉ in exact integer arithmetic. The obvious
        // float version — `(q * n as f64).ceil()` — is wrong whenever
        // q·n is integral but not representable: 0.95 × 20 evaluates to
        // 19.000000000000004, whose ceiling is rank 20, silently turning
        // p95 into the max for every n that is a multiple of 20.
        let rank = |q_num: usize, q_den: usize| -> u64 {
            let idx = (q_num * n).div_ceil(q_den).clamp(1, n);
            sorted[idx - 1]
        };
        LatencyStats {
            n,
            min: DurationNs::from_nanos(sorted[0]),
            max: DurationNs::from_nanos(sorted[n - 1]),
            mean: DurationNs::from_nanos(mean),
            p50: DurationNs::from_nanos(rank(1, 2)),
            p95: DurationNs::from_nanos(rank(19, 20)),
            p99: DurationNs::from_nanos(rank(99, 100)),
        }
    }
}

/// Busy-time decomposition of one service span (a timeline slice) into
/// the phases of a served request.
///
/// Durations are *busy* sums per phase: under pipeline overlap they can
/// exceed the wall-clock span of the slice, exactly like the lane-busy
/// rows of an Nsight report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServicePhases {
    /// Warm-up (context init + model init + activation allocation).
    pub warmup: DurationNs,
    /// Host-side preprocessing (temporal sampling, batch/snapshot prep).
    pub host: DurationNs,
    /// Kernel execution on the compute device.
    pub compute: DurationNs,
    /// PCIe transfer time.
    pub transfer: DurationNs,
}

impl ServicePhases {
    /// Categorizes a slice of timeline events (typically
    /// `timeline.events()[i0..]` for a service that started at event
    /// index `i0`).
    pub fn from_events(events: &[TimelineEvent]) -> Self {
        let mut p = ServicePhases::default();
        for e in events {
            let d = e.duration();
            match e.category {
                EventCategory::WarmupContext
                | EventCategory::WarmupModelInit
                | EventCategory::WarmupAlloc => p.warmup += d,
                EventCategory::Host => p.host += d,
                EventCategory::Kernel(_) => p.compute += d,
                // Cross-device peer traffic is data movement like PCIe.
                EventCategory::Transfer(_) | EventCategory::PeerTransfer => p.transfer += d,
            }
        }
        p
    }

    /// Total busy time across all phases.
    pub fn total(&self) -> DurationNs {
        self.warmup + self.host + self.compute + self.transfer
    }

    /// Accumulates another service's phases (for per-config aggregation).
    pub fn accumulate(&mut self, other: &ServicePhases) {
        self.warmup += other.warmup;
        self.host += other.host;
        self.compute += other.compute;
        self.transfer += other.transfer;
    }

    /// Warm-up share of total busy time (0 when nothing ran).
    pub fn warmup_share(&self) -> f64 {
        let total = self.total().as_nanos();
        if total == 0 {
            return 0.0;
        }
        self.warmup.as_nanos() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_device::{ExecMode, Executor, HostWork, OpDescriptor, PlatformSpec, TransferDir};

    #[test]
    fn stats_of_empty_input_are_zero() {
        let s = LatencyStats::from_durations(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.p99, DurationNs::ZERO);
    }

    #[test]
    fn nearest_rank_quantiles_are_observed_values() {
        let samples: Vec<DurationNs> = (1..=100).map(DurationNs::from_nanos).collect();
        let s = LatencyStats::from_durations(&samples);
        assert_eq!(s.n, 100);
        assert_eq!(s.min.as_nanos(), 1);
        assert_eq!(s.max.as_nanos(), 100);
        assert_eq!(s.p50.as_nanos(), 50);
        assert_eq!(s.p95.as_nanos(), 95);
        assert_eq!(s.p99.as_nanos(), 99);
        assert_eq!(s.mean.as_nanos(), 50); // 5050/100 rounded down
    }

    #[test]
    fn nearest_rank_is_exact_when_q_times_n_is_integral() {
        // Regression for the float off-by-one: 0.95 × 20 is
        // 19.000000000000004 in f64, so a float ceil picked rank 20
        // (the max) instead of rank 19. Integer arithmetic must pick
        // exactly ⌈q·n⌉ at n = 20, 100 and 200.
        let n20: Vec<DurationNs> = (1..=20).map(DurationNs::from_nanos).collect();
        let s = LatencyStats::from_durations(&n20);
        assert_eq!(s.p50.as_nanos(), 10);
        assert_eq!(
            s.p95.as_nanos(),
            19,
            "p95 of 20 samples is rank 19, not the max"
        );
        assert_eq!(s.p99.as_nanos(), 20); // ⌈19.8⌉ = 20

        let n100: Vec<DurationNs> = (1..=100).map(DurationNs::from_nanos).collect();
        let s = LatencyStats::from_durations(&n100);
        assert_eq!(
            (s.p50.as_nanos(), s.p95.as_nanos(), s.p99.as_nanos()),
            (50, 95, 99)
        );

        let n200: Vec<DurationNs> = (1..=200).map(DurationNs::from_nanos).collect();
        let s = LatencyStats::from_durations(&n200);
        assert_eq!(s.p50.as_nanos(), 100);
        assert_eq!(s.p95.as_nanos(), 190, "p95 of 200 samples is rank 190");
        assert_eq!(s.p99.as_nanos(), 198);
    }

    #[test]
    fn quantiles_are_order_independent() {
        let a = [3, 1, 2].map(DurationNs::from_nanos);
        let b = [1, 2, 3].map(DurationNs::from_nanos);
        assert_eq!(
            LatencyStats::from_durations(&a),
            LatencyStats::from_durations(&b)
        );
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let s = LatencyStats::from_durations(&[DurationNs::from_millis(7)]);
        assert_eq!(s.p50, s.p99);
        assert_eq!(s.p99, DurationNs::from_millis(7));
    }

    #[test]
    fn phases_categorize_a_timeline_slice() {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        ex.model_init(1 << 20, 4);
        let i0 = ex.timeline().len();
        ex.host(HostWork::irregular("sample", 10_000, 1 << 16));
        ex.transfer(TransferDir::H2D, 1 << 16);
        ex.launch(OpDescriptor::gemm("k", 64, 64, 64));
        ex.alloc_warmup(1 << 20);
        let phases = ServicePhases::from_events(&ex.timeline().events()[i0..]);
        assert!(phases.host.as_nanos() > 0);
        assert!(phases.transfer.as_nanos() > 0);
        assert!(phases.compute.as_nanos() > 0);
        // Only the alloc warm-up falls inside the slice; model init is
        // before i0.
        assert!(phases.warmup.as_nanos() > 0);
        assert!(phases.warmup < DurationNs::from_millis(100));
        assert_eq!(
            phases.total(),
            phases.warmup + phases.host + phases.compute + phases.transfer
        );
        assert!(phases.warmup_share() > 0.0 && phases.warmup_share() < 1.0);
    }

    #[test]
    fn accumulate_sums_fields() {
        let a = ServicePhases {
            warmup: DurationNs::from_nanos(1),
            host: DurationNs::from_nanos(2),
            compute: DurationNs::from_nanos(3),
            transfer: DurationNs::from_nanos(4),
        };
        let mut b = a;
        b.accumulate(&a);
        assert_eq!(b.total().as_nanos(), 20);
    }
}
