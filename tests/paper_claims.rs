//! The paper's headline quantitative claims, asserted against the
//! simulator. Each test names the paper section/figure it checks.
//!
//! Absolute values come from a simulator, so the assertions check the
//! paper's *shapes*: orderings, dominance relations and monotone trends.

use dgnn_suite::datasets::{iso17, social_evolution, wikipedia, Scale};
use dgnn_suite::device::{ExecMode, Executor, PlatformSpec};
use dgnn_suite::models::{DgnnModel, DyRep, InferenceConfig, MolDgnn, Tgat, Tgn};
use dgnn_suite::profile::{BottleneckKind, InferenceProfile};

const SEED: u64 = 21;

fn gpu_run(model: &mut dyn DgnnModel, cfg: &InferenceConfig) -> (InferenceProfile, Executor) {
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    model.run(&mut ex, cfg).expect("inference succeeds");
    (InferenceProfile::capture(&ex, "inference"), ex)
}

#[test]
fn sec42_tgat_sampling_dominates_inference() {
    // Paper: neighborhood sampling is 83%→94% of TGAT inference time.
    let mut m = Tgat::new(wikipedia(Scale::Tiny, SEED), SEED);
    let cfg = InferenceConfig::default()
        .with_batch_size(200)
        .with_max_units(3);
    let (p, _) = gpu_run(&mut m, &cfg);
    let share = p.breakdown.share_of("sampling");
    assert!((0.70..=0.97).contains(&share), "sampling share {share}");
}

#[test]
fn sec42_tgat_total_time_flat_in_batch_size() {
    // Paper Fig 8a: increasing the mini-batch size does not reduce total
    // inference time over the whole dataset (sampling is the bottleneck).
    let total_time = |bs: usize| {
        let mut m = Tgat::new(wikipedia(Scale::Tiny, SEED), SEED);
        // Whole dataset: units large enough to cover it at every bs.
        let cfg = InferenceConfig::default()
            .with_batch_size(bs)
            .with_max_units(1_000);
        let (p, _) = gpu_run(&mut m, &cfg);
        p.inference_time
    };
    let t_small = total_time(200);
    let t_large = total_time(800);
    let ratio = t_small.as_nanos() as f64 / t_large.as_nanos() as f64;
    assert!(
        (0.8..=1.4).contains(&ratio),
        "total time should stay roughly flat: 200→{t_small}, 800→{t_large}"
    );
}

#[test]
fn sec43_tgat_data_movement_explodes_past_k100() {
    // Paper: past ~100 sampled neighbors, transfer time grows rapidly
    // (quadratic in k).
    let pcie_time = |k: usize| {
        let mut m = Tgat::new(wikipedia(Scale::Tiny, SEED), SEED);
        let cfg = InferenceConfig::default()
            .with_batch_size(100)
            .with_neighbors(k)
            .with_max_units(2);
        let (_, ex) = gpu_run(&mut m, &cfg);
        ex.timeline().busy_time(dgnn_suite::device::Place::Pcie)
    };
    let t20 = pcie_time(20);
    let t200 = pcie_time(200);
    assert!(
        t200.as_nanos() > 40 * t20.as_nanos(),
        "k=200 transfers ({t200}) should dwarf k=20 ({t20})"
    );
}

#[test]
fn sec43_tgn_message_passing_is_top_module_and_data_movement_flagged() {
    // Paper Fig 7a: message passing dominates TGN at large batches;
    // the data-movement bottleneck fires.
    let mut m = Tgn::new(wikipedia(Scale::Tiny, SEED), SEED);
    let cfg = InferenceConfig::default()
        .with_batch_size(1_024)
        .with_neighbors(10)
        .with_max_units(1);
    let (p, _) = gpu_run(&mut m, &cfg);
    assert_eq!(p.breakdown.entries()[0].module, "message_passing");
    assert!(p
        .findings
        .iter()
        .any(|f| f.kind == BottleneckKind::DataMovement));
}

#[test]
fn sec43_moldgnn_memcpy_dominates_gpu_working_time() {
    // Paper Fig 7b: memcpy is 80–90% of MolDGNN's GPU working time at
    // realistic batch sizes.
    let mut m = MolDgnn::new(iso17(Scale::Tiny, SEED), SEED);
    let cfg = InferenceConfig::default()
        .with_batch_size(512)
        .with_max_units(1);
    let (_, ex) = gpu_run(&mut m, &cfg);
    let tl = ex.timeline();
    let memcpy = tl.busy_time(dgnn_suite::device::Place::Pcie).as_nanos() as f64;
    let kernels = tl
        .category_time(dgnn_suite::device::EventCategory::is_gpu_compute)
        .as_nanos() as f64;
    let share = memcpy / (memcpy + kernels);
    assert!(
        (0.6..=0.98).contains(&share),
        "memcpy share of GPU working time {share}"
    );
}

#[test]
fn sec41_dyrep_gpu_never_outperforms_cpu() {
    // Paper Fig 8: DyRep inference on GPU does not beat the CPU at any
    // batch size.
    for bs in [16usize, 64, 160] {
        let time = |mode| {
            let mut m = DyRep::new(social_evolution(Scale::Tiny, SEED), SEED);
            let mut ex = Executor::new(PlatformSpec::default(), mode);
            let cfg = InferenceConfig::default()
                .with_batch_size(bs)
                .with_max_units(1);
            m.run(&mut ex, &cfg).expect("inference").inference_time
        };
        assert!(
            time(ExecMode::Gpu) >= time(ExecMode::CpuOnly),
            "bs={bs}: GPU should not win"
        );
    }
}

#[test]
fn sec44_one_time_warmup_is_tens_of_batches() {
    // Paper: GPU warm-up ≈ 86× one TGAT mini-batch.
    let mut m = Tgat::new(wikipedia(Scale::Tiny, SEED), SEED);
    let cfg = InferenceConfig::default()
        .with_batch_size(200)
        .with_max_units(4);
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    let s = m.run(&mut ex, &cfg).expect("inference");
    let p = InferenceProfile::capture(&ex, "inference");
    let ratio = p.warmup.one_time_warmup_ratio(s.unit_time);
    assert!(
        (20.0..=500.0).contains(&ratio),
        "warm-up/unit ratio {ratio} out of the paper's order of magnitude"
    );
}

#[test]
fn sec44_batch_warmup_share_grows_with_batch_size() {
    // Paper Table 2: for a fixed workload, warm-up share of GPU working
    // time grows with batch size.
    let share = |bs: usize| {
        let mut m = Tgn::new(wikipedia(Scale::Tiny, SEED), SEED);
        let units = (2_048 / bs).max(1);
        let cfg = InferenceConfig::default()
            .with_batch_size(bs)
            .with_neighbors(10)
            .with_max_units(units);
        let (p, _) = gpu_run(&mut m, &cfg);
        p.warmup.batch_warmup_share()
    };
    let s8 = share(8);
    let s2048 = share(2_048);
    assert!(s2048 > s8, "warm-up share should grow: {s8} -> {s2048}");
}

#[test]
fn sec41_utilization_ordering_matches_paper() {
    // Paper §4.1: TGAT (5–6%) runs hotter than DyRep (<2%) and MolDGNN
    // (<1%).
    let util = |name: &str| -> f64 {
        let (p, _) = match name {
            "tgat" => {
                let mut m = Tgat::new(wikipedia(Scale::Tiny, SEED), SEED);
                gpu_run(
                    &mut m,
                    &InferenceConfig::default()
                        .with_batch_size(200)
                        .with_max_units(2),
                )
            }
            "dyrep" => {
                let mut m = DyRep::new(social_evolution(Scale::Tiny, SEED), SEED);
                gpu_run(
                    &mut m,
                    &InferenceConfig::default()
                        .with_batch_size(64)
                        .with_max_units(1),
                )
            }
            _ => {
                let mut m = MolDgnn::new(iso17(Scale::Tiny, SEED), SEED);
                gpu_run(
                    &mut m,
                    &InferenceConfig::default()
                        .with_batch_size(512)
                        .with_max_units(1),
                )
            }
        };
        p.utilization.busy_fraction
    };
    let tgat = util("tgat");
    let dyrep = util("dyrep");
    let moldgnn = util("moldgnn");
    assert!(tgat > dyrep, "tgat {tgat} vs dyrep {dyrep}");
    assert!(tgat > moldgnn, "tgat {tgat} vs moldgnn {moldgnn}");
    assert!(tgat < 0.12, "tgat stays single-digit: {tgat}");
    assert!(dyrep < 0.05, "dyrep {dyrep}");
    assert!(moldgnn < 0.05, "moldgnn {moldgnn}");
}
