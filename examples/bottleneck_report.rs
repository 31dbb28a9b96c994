//! Bottleneck triage across the whole model zoo.
//!
//! Runs every model in its paper configuration on the simulated GPU and
//! prints the automatic bottleneck classification — the four classes of
//! Section 4 (temporal dependency, workload imbalance, data movement,
//! GPU warm-up) with severity and evidence.
//!
//! Run with: `cargo run --example bottleneck_report`

use dgnn_suite::datasets::{
    bitcoin_alpha, github, iso17, pems, social_evolution, wikipedia, Scale,
};
use dgnn_suite::device::{ExecMode, Executor, PlatformSpec};
use dgnn_suite::models::{
    Astgnn, DgnnModel, DyRep, EvolveGcn, EvolveGcnVersion, InferenceConfig, Jodie, Ldg, LdgEncoder,
    MolDgnn, Tgat, Tgn,
};
use dgnn_suite::profile::InferenceProfile;

fn report(model: &mut dyn DgnnModel, cfg: &InferenceConfig) {
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    model.run(&mut ex, cfg).expect("inference succeeds");
    let p = InferenceProfile::capture(&ex, "inference");
    println!(
        "{:<14} util {:>5.2}%  mem {:>7.1} MiB  inference {}",
        model.name(),
        p.utilization.busy_fraction * 100.0,
        p.gpu_peak_mib(),
        p.inference_time
    );
    for f in &p.findings {
        println!(
            "    [{:>3.0}%] {}: {}",
            f.severity * 100.0,
            f.kind,
            f.evidence
        );
    }
}

fn main() {
    let scale = Scale::Tiny;
    let seed = 7;
    let base = InferenceConfig::default().with_max_units(2);

    report(
        &mut Jodie::new(wikipedia(scale, seed), seed),
        &base.clone().with_batch_size(128),
    );
    report(
        &mut Tgn::new(wikipedia(scale, seed), seed),
        &base.clone().with_batch_size(512).with_neighbors(10),
    );
    report(
        &mut EvolveGcn::new(bitcoin_alpha(scale, seed), EvolveGcnVersion::O, seed),
        &base.clone().with_max_units(8),
    );
    report(
        &mut Tgat::new(wikipedia(scale, seed), seed),
        &base.clone().with_batch_size(200).with_neighbors(20),
    );
    report(
        &mut Astgnn::new(pems(scale, seed), seed),
        &base.clone().with_batch_size(8),
    );
    report(
        &mut DyRep::new(social_evolution(scale, seed), seed),
        &base.clone().with_batch_size(64),
    );
    report(
        &mut Ldg::new(github(scale, seed), LdgEncoder::Bilinear, seed),
        &base.clone().with_batch_size(64),
    );
    report(
        &mut MolDgnn::new(iso17(scale, seed), seed),
        &base.with_batch_size(128).with_max_units(1),
    );
}
