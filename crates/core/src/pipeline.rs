//! Schedule re-simulation for the §5 proposals the executor cannot run.
//!
//! Fig 10 overlaps EvolveGCN's RNN of step `t+1` with its GNN of step
//! `t`. Both are kernels and the executor has one compute lane, so the
//! Fig 10 ablation (`dgnn_models::optim::pipelined_evolvegcn`)
//! *re-schedules recorded stage durations*: it takes the per-timestep
//! durations a sequential run measured and computes the makespan the
//! pipelined schedule would achieve, which mirrors how Figure 10 argues
//! the optimization. §5.2.2's delta transfer is re-priced from the
//! recorded upload sizes the same way.
//!
//! The overlap the executor can run is executed instead: with
//! `InferenceConfig::pipeline_overlap` the pipelined models fork
//! Host/Copy/Compute lanes and hide host sampling or snapshot prep
//! behind device work (§5.1.1), and the `ablation_optimizations` and
//! `pipeline_overlap` bins time that run against its serial twin.

use dgnn_device::DurationNs;

/// Two-stage pipelined makespan over per-step `(first, second)`
/// durations: stage one of step `t+1` runs concurrently with stage two
/// of step `t`; within a step, stage two still waits for stage one.
/// Fig 10 pipelines EvolveGCN's RNN (first) with its GNN (second).
pub fn pipelined_makespan(steps: &[(DurationNs, DurationNs)]) -> DurationNs {
    let mut first_done = DurationNs::ZERO;
    let mut second_done = DurationNs::ZERO;
    for &(first, second) in steps {
        first_done += first;
        second_done = first_done.max(second_done) + second;
    }
    second_done
}

/// Bytes saved by delta-snapshot transfer (§5.2.2): transferring only the
/// changed portion of each snapshot. `sizes` are per-snapshot byte
/// counts; `similarity` in `[0, 1]` is the fraction shared with the
/// previous snapshot (the first snapshot always ships whole).
pub fn delta_transfer_bytes(sizes: &[u64], similarity: f64) -> u64 {
    assert!(
        (0.0..=1.0).contains(&similarity),
        "similarity must be in [0, 1]"
    );
    let mut total = 0u64;
    for (i, &s) in sizes.iter().enumerate() {
        if i == 0 {
            total += s;
        } else {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "rounded byte fraction fits u64"
            )]
            {
                total += (s as f64 * (1.0 - similarity)).round() as u64;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> DurationNs {
        DurationNs::from_nanos(v)
    }

    /// Sequential makespan: `Σ (first + second)`.
    fn sequential(steps: &[(DurationNs, DurationNs)]) -> DurationNs {
        steps.iter().map(|&(first, second)| first + second).sum()
    }

    #[test]
    fn balanced_stages_approach_2x_speedup() {
        let steps = vec![(ns(10), ns(10)); 100];
        // Only the first step's first stage is exposed: 1010 ns against
        // 2000 ns sequential, a 1.98x speedup.
        assert_eq!(sequential(&steps), ns(2_000));
        assert_eq!(pipelined_makespan(&steps), ns(1_010));
    }

    #[test]
    fn pipelining_never_hurts() {
        let steps = vec![(ns(5), ns(20)), (ns(30), ns(2)), (ns(1), ns(1))];
        assert!(pipelined_makespan(&steps) <= sequential(&steps));
    }

    #[test]
    fn pipelined_respects_intra_step_dependency() {
        // One step: no overlap possible; makespan equals sequential.
        assert_eq!(pipelined_makespan(&[(ns(7), ns(9))]), ns(16));
    }

    #[test]
    fn skewed_stages_bound_by_bottleneck_stage() {
        let steps = vec![(ns(100), ns(1)); 50];
        // Makespan is dominated by the slow first stage.
        let m = pipelined_makespan(&steps).as_nanos();
        assert!(m >= 50 * 100);
        assert!(m <= 50 * 100 + 101);
    }

    #[test]
    fn overlap_hides_cheap_host_work() {
        let pairs = vec![(ns(2), ns(10)); 20];
        let overlapped = pipelined_makespan(&pairs);
        // Only the first host stage is exposed.
        assert_eq!(overlapped.as_nanos(), 2 + 20 * 10);
    }

    #[test]
    fn overlap_degrades_to_host_bound_when_sampling_dominates() {
        let pairs = vec![(ns(50), ns(5)); 20];
        let overlapped = pipelined_makespan(&pairs).as_nanos();
        assert!(overlapped >= 20 * 50, "host chain lower-bounds makespan");
    }

    #[test]
    fn delta_transfer_saves_bytes() {
        let sizes = vec![1_000u64; 10];
        let full: u64 = sizes.iter().sum();
        let delta = delta_transfer_bytes(&sizes, 0.8);
        assert_eq!(delta, 1_000 + 9 * 200);
        assert!(delta < full);
        assert_eq!(delta_transfer_bytes(&sizes, 0.0), full);
    }

    #[test]
    #[should_panic(expected = "similarity")]
    fn delta_transfer_validates_similarity() {
        delta_transfer_bytes(&[1], 1.5);
    }
}
