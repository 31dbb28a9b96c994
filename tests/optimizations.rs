//! Integration tests for the §5 optimization ablations: the proposed
//! optimizations must strictly improve simulated time, within their
//! theoretical bounds.

use dgnn_suite::datasets::{bitcoin_alpha, wikipedia, Scale};
use dgnn_suite::device::{ExecMode, Executor, PlatformSpec};
use dgnn_suite::models::optim::{delta_snapshot_evolvegcn, pipelined_evolvegcn, AblationResult};
use dgnn_suite::models::{DgnnModel, EvolveGcn, EvolveGcnVersion, InferenceConfig, Tgat};

const SEED: u64 = 33;

fn egcn(version: EvolveGcnVersion) -> EvolveGcn {
    EvolveGcn::new(bitcoin_alpha(Scale::Tiny, SEED), version, SEED)
}

#[test]
fn fig10_pipelining_improves_both_evolvegcn_variants() {
    let cfg = InferenceConfig::default().with_max_units(10);
    for version in [EvolveGcnVersion::O, EvolveGcnVersion::H] {
        let r = pipelined_evolvegcn(&mut egcn(version), &cfg).expect("ablation runs");
        assert!(r.optimized < r.baseline, "{version:?} must improve");
        assert!(
            r.speedup() <= 2.0 + 1e-9,
            "{version:?}: two stages cap at 2x"
        );
    }
}

#[test]
fn overlap_speedup_bounded_by_device_share() {
    // Overlapping sampling with compute can hide at most the smaller of
    // the two chains; with sampling dominating, speedup is bounded by
    // 1 / sampling_share.
    let cfg = InferenceConfig::default()
        .with_batch_size(150)
        .with_max_units(4);
    let time = |cfg: &InferenceConfig| {
        let mut m = Tgat::new(wikipedia(Scale::Tiny, SEED), SEED);
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        m.run(&mut ex, cfg).expect("tgat runs").inference_time
    };
    let r = AblationResult {
        baseline: time(&cfg),
        optimized: time(&cfg.clone().with_pipeline_overlap(true)),
    };
    assert!(r.optimized < r.baseline);
    assert!(
        r.speedup() < 2.0,
        "sampling-bound: speedup {} must stay < 2x",
        r.speedup()
    );
}

#[test]
fn delta_transfer_monotone_in_similarity() {
    let cfg = InferenceConfig::default().with_max_units(8);
    let mut previous = None;
    for similarity in [0.0, 0.3, 0.6, 0.9] {
        let r = delta_snapshot_evolvegcn(&mut egcn(EvolveGcnVersion::O), &cfg, similarity)
            .expect("ablation runs");
        if let Some(prev) = previous {
            assert!(
                r.optimized <= prev,
                "higher similarity must not transfer more (sim {similarity})"
            );
        }
        previous = Some(r.optimized);
    }
}

/// The profiler must stay coherent when events overlap across stream
/// lanes: the interval-union busy fraction is a true fraction, module
/// shares are fractions, and the overlapped run really is shorter than
/// the serial one while the GPU sits *less* idle.
#[test]
fn profile_stays_coherent_over_overlapping_events() {
    use dgnn_suite::profile::InferenceProfile;

    let cfg = InferenceConfig::default()
        .with_batch_size(500)
        .with_neighbors(50)
        .with_max_units(3);
    let run = |cfg: &InferenceConfig| {
        let mut m = Tgat::new(wikipedia(Scale::Tiny, SEED), SEED);
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        m.run(&mut ex, cfg).expect("tgat runs");
        InferenceProfile::capture(&ex, "inference")
    };
    let serial = run(&cfg);
    let overlapped = run(&cfg.clone().with_pipeline_overlap(true));

    assert!(overlapped.inference_time < serial.inference_time);
    for p in [&serial, &overlapped] {
        assert!(
            p.utilization.busy_fraction > 0.0 && p.utilization.busy_fraction <= 1.0,
            "busy fraction {} is not a fraction",
            p.utilization.busy_fraction
        );
        let sampling = p.breakdown.share_of("sampling");
        assert!((0.0..=1.0).contains(&sampling), "share {sampling}");
    }
    // Hiding kernels behind sampling shrinks the denominator (wall) while
    // GPU-busy time is unchanged, so utilization must rise.
    assert!(
        overlapped.utilization.busy_fraction > serial.utilization.busy_fraction,
        "overlap should raise GPU utilization ({} vs {})",
        overlapped.utilization.busy_fraction,
        serial.utilization.busy_fraction
    );
}

#[test]
fn ablations_are_deterministic() {
    let cfg = InferenceConfig::default().with_max_units(6);
    let run = || {
        let r = pipelined_evolvegcn(&mut egcn(EvolveGcnVersion::O), &cfg).expect("runs");
        (r.baseline, r.optimized)
    };
    assert_eq!(run(), run());
}
