//! The paper's §5 optimization proposals that no configuration executes.
//!
//! The authors propose (but do not evaluate) several optimizations. The
//! ones the stream machine can execute are configuration settings, not
//! functions here: a run with [`InferenceConfig::pipeline_overlap`]
//! forks the stream lanes and hides sampling or snapshot preparation
//! behind compute (§5.1.1), one with
//! [`InferenceConfig::transfer_granularity`] set to `Coalesced` merges
//! each batch's transfers per direction, and one with
//! [`InferenceConfig::parallel_sampling`] prices sampling over the
//! platform's cores. The `ablation_optimizations`, `pipeline_overlap`
//! and `sampling_throughput` bins run each against its serial twin.
//!
//! What stays here needs something no configuration offers:
//!
//! * [`pipelined_evolvegcn`] — Fig 10: RNN of step `t+1` overlaps GNN of
//!   step `t` (§5.2.1). Both stages are kernels and the executor has one
//!   compute lane, so this re-schedules the *recorded* stage durations
//!   of a sequential run;
//! * [`delta_snapshot_evolvegcn`] — transfer only the changed fraction of
//!   each snapshot (§5.2.2, sliding-window similarity). No configuration
//!   uploads only the changed bytes, so this re-prices the recorded
//!   uploads;
//! * [`jodie_tbatch`] — §3.3: JODIE's t-batches against the
//!   one-event-per-step schedule, which only JODIE's crate-private
//!   per-event switch runs.

use dgnn_device::{DurationNs, EventCategory, ExecMode, Executor, PlatformSpec};
use dgnn_profile::pipeline::{delta_transfer_bytes, pipelined_makespan};

use crate::common::{DgnnModel, InferenceConfig};
use crate::evolvegcn::EvolveGcn;
use crate::Result;

/// Outcome of one optimization ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationResult {
    /// Simulated inference time of the unmodified (sequential) run.
    pub baseline: DurationNs,
    /// Simulated inference time under the proposed optimization.
    pub optimized: DurationNs,
}

impl AblationResult {
    /// Speedup factor (≥ 1 when the optimization helps).
    pub fn speedup(&self) -> f64 {
        if self.optimized.as_nanos() == 0 {
            return 1.0;
        }
        self.baseline.as_nanos() as f64 / self.optimized.as_nanos() as f64
    }
}

/// Durations of every occurrence of module scope `inference/<name>`, in
/// execution order.
fn module_durations(ex: &Executor, name: &str) -> Vec<DurationNs> {
    let path = format!("inference/{name}");
    ex.scopes()
        .iter()
        .filter(|s| s.path == path)
        .map(|s| s.duration())
        .collect()
}

/// Fig 10: pipeline EvolveGCN's RNN and GNN across adjacent time steps.
///
/// # Errors
///
/// Propagates inference errors from the baseline run.
pub fn pipelined_evolvegcn(model: &mut EvolveGcn, cfg: &InferenceConfig) -> Result<AblationResult> {
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    let baseline = model.run(&mut ex, cfg)?.inference_time;
    let rnn = module_durations(&ex, "rnn");
    let gnn = module_durations(&ex, "gnn");
    let steps: Vec<(DurationNs, DurationNs)> = rnn.into_iter().zip(gnn).collect();
    let sequential: DurationNs = steps.iter().map(|&(rnn, gnn)| rnn + gnn).sum();
    let saved = sequential - pipelined_makespan(&steps);
    Ok(AblationResult {
        baseline,
        optimized: baseline - saved,
    })
}

/// §3.3: quantify what JODIE's t-batch parallelization buys at inference
/// time by comparing against the naive one-event-per-step schedule (the
/// JODIE paper reports 9.2× for training).
///
/// # Errors
///
/// Propagates inference errors from either run.
pub fn jodie_tbatch(
    data: &dgnn_datasets::TemporalDataset,
    cfg: &InferenceConfig,
    seed: u64,
) -> Result<AblationResult> {
    let run = |use_tbatch: bool| -> Result<DurationNs> {
        let mut model = crate::jodie::Jodie::new(data.clone(), seed);
        model.use_tbatch = use_tbatch;
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        Ok(model.run(&mut ex, cfg)?.inference_time)
    };
    Ok(AblationResult {
        baseline: run(false)?,
        optimized: run(true)?,
    })
}

/// §5.2.2: ship only the non-overlapping fraction of each EvolveGCN
/// snapshot, assuming adjacent snapshots share `similarity ∈ [0, 1]` of
/// their bytes (sliding-window overlap).
///
/// # Errors
///
/// Propagates inference errors from the baseline run.
pub fn delta_snapshot_evolvegcn(
    model: &mut EvolveGcn,
    cfg: &InferenceConfig,
    similarity: f64,
) -> Result<AblationResult> {
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    let baseline = model.run(&mut ex, cfg)?.inference_time;
    let h2d_sizes: Vec<u64> = ex
        .timeline()
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.category,
                EventCategory::Transfer(dgnn_device::TransferDir::H2D)
            ) && e.scope.starts_with("inference/")
        })
        .map(|e| e.bytes)
        .collect();
    let full: u64 = h2d_sizes.iter().sum();
    let delta = delta_transfer_bytes(&h2d_sizes, similarity);
    let saved_bytes = full.saturating_sub(delta);
    let saved = DurationNs::from_secs_f64(saved_bytes as f64 / ex.spec().pcie.bandwidth);
    Ok(AblationResult {
        baseline,
        optimized: baseline.saturating_sub(saved),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolvegcn::EvolveGcnVersion;
    use crate::{Tgat, TransferGranularity};
    use dgnn_datasets::{bitcoin_alpha, wikipedia, Scale};

    fn egcn() -> EvolveGcn {
        EvolveGcn::new(bitcoin_alpha(Scale::Tiny, 1), EvolveGcnVersion::O, 7)
    }

    /// Inference time of one run of `model` on a fresh GPU executor.
    fn gpu_time(
        model: &mut dyn DgnnModel,
        spec: PlatformSpec,
        cfg: &InferenceConfig,
    ) -> DurationNs {
        let mut ex = Executor::new(spec, ExecMode::Gpu);
        model.run(&mut ex, cfg).unwrap().inference_time
    }

    #[test]
    fn stream_overlap_recovers_tgat_sampling_wall() {
        // The §5.1.1 acceptance point: at batch ≥ 1000 with the heavy
        // neighbor count the paper flags (k ≈ 100), real stream overlap
        // must cut TGAT end-to-end simulated time by at least 20%.
        let mut m = Tgat::new(wikipedia(Scale::Tiny, 1), 7);
        let cfg = InferenceConfig::default()
            .with_batch_size(1000)
            .with_neighbors(100)
            .with_max_units(4);
        let serial = gpu_time(&mut m, PlatformSpec::default(), &cfg);
        let overlap = cfg.with_pipeline_overlap(true);
        let overlapped = gpu_time(&mut m, PlatformSpec::default(), &overlap);
        let reduction = 1.0 - overlapped.as_nanos() as f64 / serial.as_nanos() as f64;
        assert!(
            reduction >= 0.20,
            "stream overlap should recover >=20%, got {:.1}%",
            reduction * 100.0
        );
    }

    #[test]
    fn stream_overlap_helps_every_pipelined_model() {
        let cfg = InferenceConfig::default()
            .with_batch_size(500)
            .with_max_units(3);
        let overlap = cfg.clone().with_pipeline_overlap(true);
        let mut tgn = crate::Tgn::new(wikipedia(Scale::Tiny, 1), 7);
        let mut mol = crate::MolDgnn::new(dgnn_datasets::iso17(Scale::Tiny, 1), 7);
        let mut eg = egcn();
        let models: [&mut dyn DgnnModel; 3] = [&mut tgn, &mut mol, &mut eg];
        for m in models {
            let name = m.name();
            let serial = gpu_time(m, PlatformSpec::default(), &cfg);
            let overlapped = gpu_time(m, PlatformSpec::default(), &overlap);
            assert!(
                overlapped < serial,
                "{name}: overlap {overlapped:?} should beat serial {serial:?}"
            );
        }
    }

    #[test]
    fn stream_overlap_preserves_numerics() {
        // The lanes reorder *pricing*, never data: serial and overlapped
        // runs of a fresh model must produce identical checksums.
        let run = |overlap: bool| {
            let mut m = Tgat::new(wikipedia(Scale::Tiny, 1), 7);
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            let cfg = InferenceConfig::default()
                .with_batch_size(200)
                .with_max_units(3)
                .with_pipeline_overlap(overlap);
            m.run(&mut ex, &cfg).unwrap().checksum
        };
        assert_eq!(run(false), run(true));
    }

    /// Inference time, priced transfer count and bytes moved of one run
    /// of `model` on a fresh GPU executor at transfer `granularity`.
    fn transfers(
        model: &mut dyn DgnnModel,
        cfg: &InferenceConfig,
        granularity: TransferGranularity,
    ) -> (DurationNs, usize, u64) {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        let cfg = cfg.clone().with_transfer_granularity(granularity);
        let time = model.run(&mut ex, &cfg).unwrap().inference_time;
        let timeline = ex.timeline();
        (
            time,
            timeline.transfer_count(None),
            timeline.transfer_bytes(None),
        )
    }

    /// Runs `model` per-tensor, then coalesced: coalescing must move the
    /// same bytes in at most a quarter of the priced transfers, faster.
    fn assert_coalescing_cuts_four_fold(model: &mut dyn DgnnModel, cfg: &InferenceConfig) {
        let name = model.name();
        let (per_time, per_count, per_bytes) =
            transfers(model, cfg, TransferGranularity::PerTensor);
        let (co_time, co_count, co_bytes) = transfers(model, cfg, TransferGranularity::Coalesced);
        assert_eq!(per_bytes, co_bytes, "bytes conserved");
        assert!(
            co_count > 0 && per_count >= 4 * co_count,
            "{name} coalescing should merge >=4x, got {per_count} -> {co_count}"
        );
        assert!(co_time < per_time);
    }

    #[test]
    fn coalescing_cuts_tgn_transfer_count_four_fold() {
        let mut m = crate::Tgn::new(wikipedia(Scale::Tiny, 1), 7);
        let cfg = InferenceConfig::default()
            .with_batch_size(500)
            .with_neighbors(10)
            .with_max_units(3);
        assert_coalescing_cuts_four_fold(&mut m, &cfg);
    }

    #[test]
    fn coalescing_cuts_moldgnn_transfer_count_four_fold() {
        let mut m = crate::MolDgnn::new(dgnn_datasets::iso17(Scale::Tiny, 1), 7);
        let cfg = InferenceConfig::default()
            .with_batch_size(64)
            .with_max_units(1);
        assert_coalescing_cuts_four_fold(&mut m, &cfg);
    }

    #[test]
    fn pipelining_evolvegcn_helps() {
        let cfg = InferenceConfig::default().with_max_units(8);
        let r = pipelined_evolvegcn(&mut egcn(), &cfg).unwrap();
        assert!(r.optimized < r.baseline);
        assert!(r.speedup() > 1.0);
        assert!(r.speedup() < 2.0, "two-stage pipeline caps at 2x");
    }

    #[test]
    fn parallel_sampling_speedup_grows_with_cores() {
        // Serial per-node sampling on the default platform against
        // sampling fanned out over the roots on `cores` cores (256
        // parallel roots per core, as in the default spec).
        let mut m = Tgat::new(wikipedia(Scale::Tiny, 1), 7);
        // Enough roots per batch to engage many cores.
        let cfg = InferenceConfig::default()
            .with_batch_size(2000)
            .with_max_units(1);
        let serial = gpu_time(&mut m, PlatformSpec::default(), &cfg);
        let parallel = cfg.with_parallel_sampling(true);
        let mut previous = 0.0;
        for cores in [1u32, 4, 16] {
            let mut spec = PlatformSpec::default();
            spec.cpu.cores = cores;
            spec.cpu.saturation_width = u64::from(cores) * 256;
            let speedup =
                serial.as_nanos() as f64 / gpu_time(&mut m, spec, &parallel).as_nanos() as f64;
            assert!(
                speedup >= previous,
                "speedup must be monotone in cores: {speedup} at {cores} cores after {previous}"
            );
            previous = speedup;
        }
        assert!(
            previous > 1.5,
            "16 cores should clearly beat serial sampling, got {previous}"
        );
    }

    #[test]
    fn prep_overlap_beats_fig10_pipelining_alone() {
        let cfg = InferenceConfig::default().with_max_units(8);
        let fig10 = pipelined_evolvegcn(&mut egcn(), &cfg).unwrap();
        let overlap = cfg.clone().with_pipeline_overlap(true);
        let prep = AblationResult {
            baseline: gpu_time(&mut egcn(), PlatformSpec::default(), &cfg),
            optimized: gpu_time(&mut egcn(), PlatformSpec::default(), &overlap),
        };
        assert!(prep.optimized < prep.baseline);
        assert!(
            prep.speedup() >= fig10.speedup(),
            "prep overlap {} should beat RNN||GNN {}",
            prep.speedup(),
            fig10.speedup()
        );
    }

    #[test]
    fn tbatching_speeds_up_jodie() {
        let data = dgnn_datasets::wikipedia(Scale::Tiny, 3);
        let cfg = InferenceConfig::default()
            .with_batch_size(120)
            .with_max_units(2);
        let r = jodie_tbatch(&data, &cfg, 3).unwrap();
        assert!(
            r.speedup() > 1.3,
            "t-batching should clearly beat per-event steps, got {}",
            r.speedup()
        );
    }

    #[test]
    fn delta_transfer_scales_with_similarity() {
        let cfg = InferenceConfig::default().with_max_units(6);
        let none = delta_snapshot_evolvegcn(&mut egcn(), &cfg, 0.0).unwrap();
        let most = delta_snapshot_evolvegcn(&mut egcn(), &cfg, 0.9).unwrap();
        assert!((none.speedup() - 1.0).abs() < 1e-6);
        assert!(most.speedup() > none.speedup());
        assert!(most.optimized < most.baseline);
    }
}
