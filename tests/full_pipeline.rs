//! Cross-crate integration: every model runs end-to-end (dataset →
//! graph substrate → nn layers → simulated device → profile capture) on
//! both devices, deterministically.

use dgnn_suite::datasets::{
    bitcoin_alpha, github, iso17, pems, social_evolution, wikipedia, Scale,
};
use dgnn_suite::device::{DurationNs, ExecMode, Executor, PlatformSpec};
use dgnn_suite::models::{
    Astgnn, DgnnModel, DyRep, EvolveGcn, EvolveGcnVersion, InferenceConfig, Jodie, Ldg, LdgEncoder,
    MolDgnn, Tgat, Tgn,
};
use dgnn_suite::profile::InferenceProfile;

const SEED: u64 = 13;

fn zoo() -> Vec<(Box<dyn DgnnModel>, InferenceConfig)> {
    let s = Scale::Tiny;
    let base = InferenceConfig::default().with_max_units(2);
    vec![
        (
            Box::new(Jodie::new(wikipedia(s, SEED), SEED)) as _,
            base.clone().with_batch_size(64),
        ),
        (
            Box::new(Tgn::new(wikipedia(s, SEED), SEED)) as _,
            base.clone().with_batch_size(128).with_neighbors(10),
        ),
        (
            Box::new(EvolveGcn::new(
                bitcoin_alpha(s, SEED),
                EvolveGcnVersion::O,
                SEED,
            )) as _,
            base.clone().with_max_units(4),
        ),
        (
            Box::new(EvolveGcn::new(
                bitcoin_alpha(s, SEED),
                EvolveGcnVersion::H,
                SEED,
            )) as _,
            base.clone().with_max_units(4),
        ),
        (
            Box::new(Tgat::new(wikipedia(s, SEED), SEED)) as _,
            base.clone().with_batch_size(100).with_neighbors(10),
        ),
        (
            Box::new(Astgnn::new(pems(s, SEED), SEED)) as _,
            base.clone().with_batch_size(4),
        ),
        (
            Box::new(DyRep::new(social_evolution(s, SEED), SEED)) as _,
            base.clone().with_batch_size(48),
        ),
        (
            Box::new(Ldg::new(github(s, SEED), LdgEncoder::Mlp, SEED)) as _,
            base.clone().with_batch_size(48),
        ),
        (
            Box::new(Ldg::new(github(s, SEED), LdgEncoder::Bilinear, SEED)) as _,
            base.clone().with_batch_size(48),
        ),
        (
            Box::new(MolDgnn::new(iso17(s, SEED), SEED)) as _,
            base.with_batch_size(32).with_max_units(1),
        ),
    ]
}

#[test]
fn every_model_runs_on_gpu_with_a_complete_profile() {
    for (mut model, cfg) in zoo() {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        let summary = model
            .run(&mut ex, &cfg)
            .unwrap_or_else(|e| panic!("{} failed: {e}", model.name()));
        assert!(summary.iterations > 0, "{}", model.name());
        assert!(summary.checksum.is_finite(), "{}", model.name());
        assert!(
            summary.inference_time > DurationNs::ZERO,
            "{}",
            model.name()
        );

        let p = InferenceProfile::capture(&ex, "inference");
        assert!(p.end_to_end >= p.inference_time, "{}", model.name());
        assert!(
            (0.0..=1.0).contains(&p.utilization.busy_fraction),
            "{}",
            model.name()
        );
        assert!(!p.breakdown.entries().is_empty(), "{}", model.name());
        let share_sum: f64 = p.breakdown.entries().iter().map(|e| e.share).sum();
        assert!(
            (share_sum - 1.0).abs() < 0.02,
            "{} breakdown shares sum to {share_sum}",
            model.name()
        );
        // GPU runs always pay context init.
        assert!(p.warmup.context > DurationNs::ZERO, "{}", model.name());
    }
}

#[test]
fn every_model_runs_on_cpu_without_gpu_artifacts() {
    for (mut model, cfg) in zoo() {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
        model
            .run(&mut ex, &cfg)
            .unwrap_or_else(|e| panic!("{} failed: {e}", model.name()));
        let p = InferenceProfile::capture(&ex, "inference");
        assert_eq!(p.pcie_bytes, 0, "{}", model.name());
        assert_eq!(p.gpu_peak_bytes, 0, "{}", model.name());
        assert_eq!(p.warmup.context, DurationNs::ZERO, "{}", model.name());
    }
}

#[test]
fn simulated_time_is_reproducible_end_to_end() {
    let run_all = || -> Vec<(String, u64, u32)> {
        zoo()
            .into_iter()
            .map(|(mut model, cfg)| {
                let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
                let s = model.run(&mut ex, &cfg).expect("inference");
                (
                    model.name().to_string(),
                    ex.now().as_nanos(),
                    s.checksum.to_bits(),
                )
            })
            .collect()
    };
    assert_eq!(run_all(), run_all());
}

#[test]
fn model_info_names_are_consistent_with_registry() {
    for (model, _) in zoo() {
        let info = model.info();
        assert!(
            model.name().starts_with(info.name),
            "model `{}` vs registry `{}`",
            model.name(),
            info.name
        );
    }
}

#[test]
fn warmup_scales_with_model_size() {
    // TGAT (with its resident embedding table) has far more parameter
    // bytes than DyRep; its model init must cost more.
    let s = Scale::Tiny;
    let big = Tgat::new(wikipedia(s, SEED), SEED);
    let small = DyRep::new(social_evolution(s, SEED), SEED);
    assert!(big.param_bytes() > 10 * small.param_bytes());

    let mut ex_big = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    let d_big = ex_big.model_init(big.param_bytes(), big.param_tensors());
    let mut ex_small = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    let d_small = ex_small.model_init(small.param_bytes(), small.param_tensors());
    assert!(d_big > d_small);
}
