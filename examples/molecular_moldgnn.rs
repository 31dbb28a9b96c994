//! Domain scenario: molecular-dynamics surrogate modeling with MolDGNN
//! on ISO17-style trajectories.
//!
//! Demonstrates the data-movement bottleneck of Fig 7(b): the dense
//! per-frame adjacency matrices dominate the GPU's working time, and the
//! §5.2.2 delta-transfer idea (bond graphs barely change between frames)
//! recovers most of it. Prints the memcpy share and the transfer volume
//! a delta encoding would save, computed from the real generated
//! trajectories' frame-to-frame similarity.
//!
//! Run with: `cargo run --example molecular_moldgnn`

use std::collections::HashSet;

use dgnn_suite::datasets::{iso17, Scale};
use dgnn_suite::device::{ExecMode, Executor, PlatformSpec};
use dgnn_suite::models::{DgnnModel, InferenceConfig, MolDgnn};
use dgnn_suite::profile::{pipeline::delta_transfer_bytes, InferenceProfile};

fn main() {
    let data = iso17(Scale::Tiny, 11);
    println!(
        "trajectories: {} molecules x {} frames, {} atoms each",
        data.n_molecules(),
        data.frames_per_molecule(),
        data.n_atoms
    );

    // Measure real frame-to-frame bond-graph similarity.
    let mol = &data.molecules[0];
    let mut similarities = Vec::new();
    let edge_set = |g: &dgnn_suite::graph::Graph| -> HashSet<(usize, usize)> {
        g.iter_edges().map(|(s, d, _)| (s, d)).collect()
    };
    for pair in mol.snapshots().windows(2) {
        let a = edge_set(&pair[0].graph);
        let b = edge_set(&pair[1].graph);
        let inter = a.intersection(&b).count() as f64;
        let union = a.union(&b).count() as f64;
        similarities.push(inter / union.max(1.0));
    }
    let similarity = similarities.iter().sum::<f64>() / similarities.len().max(1) as f64;
    println!("mean frame-to-frame bond-graph Jaccard similarity: {similarity:.3}");

    // Profile a batch of molecules on the simulated GPU.
    let mut model = MolDgnn::new(data, 11);
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    let cfg = InferenceConfig::default()
        .with_batch_size(512)
        .with_max_units(1);
    model.run(&mut ex, &cfg).expect("inference succeeds");
    let p = InferenceProfile::capture(&ex, "inference");
    let memcpy = p.breakdown.share_of("memcpy_h2d") + p.breakdown.share_of("memcpy_d2h");
    println!(
        "inference {} — memcpy is {:.0}% of the profiled modules; {:.1} MiB crossed PCIe",
        p.inference_time,
        memcpy * 100.0,
        p.pcie_bytes as f64 / (1024.0 * 1024.0)
    );

    // What would delta transfer save, given the measured similarity?
    let sizes: Vec<u64> = ex
        .timeline()
        .events()
        .iter()
        .filter(|e| matches!(e.category, dgnn_suite::device::EventCategory::Transfer(_)))
        .map(|e| e.bytes)
        .collect();
    let full: u64 = sizes.iter().sum();
    let delta = delta_transfer_bytes(&sizes, similarity);
    println!(
        "delta snapshot transfer at similarity {:.2}: {:.1} MiB -> {:.1} MiB ({:.0}% saved)",
        similarity,
        full as f64 / (1024.0 * 1024.0),
        delta as f64 / (1024.0 * 1024.0),
        (1.0 - delta as f64 / full.max(1) as f64) * 100.0
    );
}
