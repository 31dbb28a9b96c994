//! Robustness and failure-injection tests: extreme or degenerate
//! configurations must produce clean results or clean errors, never
//! panics or non-finite numbers.

use dgnn_datasets::{iso17, pems, wikipedia, Scale};
use dgnn_device::{DurationNs, ExecMode, Executor, PlatformSpec};
use dgnn_graph::SnapshotSequence;
use dgnn_models::{Astgnn, DgnnModel, InferenceConfig, MolDgnn, Tgat, Tgn};

const SEED: u64 = 99;

#[test]
fn batch_size_larger_than_dataset_is_one_big_batch() {
    let data = wikipedia(Scale::Tiny, SEED);
    let n_events = data.stream.len();
    let mut m = Tgat::new(data, SEED);
    let cfg = InferenceConfig::default()
        .with_batch_size(n_events * 100)
        .with_max_units(5);
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    let s = m.run(&mut ex, &cfg).expect("oversized batch runs");
    assert_eq!(s.iterations, 1, "whole stream fits one batch");
    assert!(s.checksum.is_finite());
}

#[test]
fn max_units_beyond_dataset_is_clamped() {
    let mut m = Tgn::new(wikipedia(Scale::Tiny, SEED), SEED);
    let cfg = InferenceConfig::default()
        .with_batch_size(500)
        .with_max_units(10_000);
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    let s = m.run(&mut ex, &cfg).expect("runs");
    assert!(s.iterations <= 4, "tiny wikipedia has ~1.5k events");
}

#[test]
fn single_neighbor_and_batch_of_one() {
    let mut m = Tgat::new(wikipedia(Scale::Tiny, SEED), SEED);
    let cfg = InferenceConfig::default()
        .with_batch_size(1)
        .with_neighbors(1)
        .with_max_units(3);
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    let s = m.run(&mut ex, &cfg).expect("minimal config runs");
    assert_eq!(s.iterations, 3);
    assert!(s.checksum.is_finite());
}

#[test]
fn zero_neighbors_is_clamped_not_fatal() {
    let mut m = Tgn::new(wikipedia(Scale::Tiny, SEED), SEED);
    let cfg = InferenceConfig::default()
        .with_batch_size(50)
        .with_neighbors(0)
        .with_max_units(2);
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    assert!(m.run(&mut ex, &cfg).is_ok());
}

#[test]
fn degenerate_platform_specs_still_work() {
    // A GPU with brutal launch overhead and a slow link: everything still
    // completes, just slower.
    let mut spec = PlatformSpec::default();
    spec.gpu.launch_overhead_ns = 1_000_000;
    spec.pcie.bandwidth = 1e8;
    let mut slow_ex = Executor::new(spec, ExecMode::Gpu);
    let mut m = Tgat::new(wikipedia(Scale::Tiny, SEED), SEED);
    let cfg = InferenceConfig::default()
        .with_batch_size(50)
        .with_max_units(2);
    let slow = m.run(&mut slow_ex, &cfg).expect("slow platform runs");

    let mut fast_ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    let mut m = Tgat::new(wikipedia(Scale::Tiny, SEED), SEED);
    let fast = m.run(&mut fast_ex, &cfg).expect("default platform runs");
    assert!(slow.inference_time > fast.inference_time);
}

#[test]
fn moldgnn_handles_more_frames_than_dataset() {
    // MolDGNN rolls ten frames per unit, and every ISO17 scale holds
    // more, so cut each molecule's trajectory (and its position rows)
    // to fewer: the model must run exactly the frames that exist.
    const KEPT: usize = 4;
    let mut data = iso17(Scale::Tiny, SEED);
    let (full, atoms) = (data.frames_per_molecule(), data.n_atoms);
    assert!(full > KEPT);
    let rows: Vec<usize> = (0..data.n_molecules())
        .flat_map(|mol| (0..KEPT).map(move |frame| mol * full + frame))
        .collect();
    data.positions = data
        .positions
        .reshape(&[data.n_molecules() * full, atoms * 3])
        .and_then(|p| p.gather_rows(&rows))
        .and_then(|p| p.reshape(&[rows.len(), atoms, 3]))
        .expect("position rows of the kept frames");
    for mol in &mut data.molecules {
        *mol = SnapshotSequence::new(mol.snapshots()[..KEPT].to_vec()).expect("time-ordered");
    }
    assert_eq!(data.frames_per_molecule(), KEPT);

    let mut m = MolDgnn::new(data, SEED);
    let cfg = InferenceConfig::default()
        .with_batch_size(8)
        .with_max_units(2);
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    let s = m.run(&mut ex, &cfg).expect("a short trajectory runs");
    assert_eq!(s.iterations, 2);
    assert!(s.checksum.is_finite());
    let gnn_passes = ex
        .scopes()
        .iter()
        .filter(|scope| scope.path == "inference/gnn")
        .count();
    assert_eq!(
        gnn_passes,
        KEPT * s.iterations,
        "one GCN pass per kept frame"
    );
}

#[test]
fn astgnn_single_sensor_batch() {
    let mut m = Astgnn::new(pems(Scale::Tiny, SEED), SEED);
    let cfg = InferenceConfig::default()
        .with_batch_size(1)
        .with_max_units(1);
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    let s = m.run(&mut ex, &cfg).expect("bs=1 runs");
    assert!(s.inference_time > DurationNs::ZERO);
}

#[test]
fn repeated_runs_on_one_executor_accumulate_monotonically() {
    // Running two models back-to-back on the same executor keeps the
    // clock monotone and pays context init only once.
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    let cfg = InferenceConfig::default()
        .with_batch_size(50)
        .with_max_units(1);
    let mut a = Tgat::new(wikipedia(Scale::Tiny, SEED), SEED);
    a.run(&mut ex, &cfg).expect("first model");
    let t1 = ex.now();
    let mut b = Tgn::new(wikipedia(Scale::Tiny, SEED), SEED);
    b.run(&mut ex, &cfg).expect("second model");
    assert!(ex.now() > t1);
    let contexts = ex
        .timeline()
        .events()
        .iter()
        .filter(|e| e.label == "cuda_context_init")
        .count();
    assert_eq!(contexts, 1, "context init is one-time");
}

#[test]
fn checksum_depends_on_seed_but_timing_is_config_driven() {
    let time_and_sum = |seed: u64| {
        let mut m = Tgat::new(wikipedia(Scale::Tiny, 1), seed);
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        let cfg = InferenceConfig::default()
            .with_batch_size(50)
            .with_max_units(2);
        let s = m.run(&mut ex, &cfg).expect("runs");
        (s.inference_time, s.checksum)
    };
    let (t1, c1) = time_and_sum(1);
    let (t2, c2) = time_and_sum(2);
    assert_ne!(c1, c2, "different weights, different outputs");
    // Cost is structural: same dataset and config, near-identical time.
    let ratio = t1.as_nanos() as f64 / t2.as_nanos() as f64;
    assert!((0.95..1.05).contains(&ratio), "timing ratio {ratio}");
}
