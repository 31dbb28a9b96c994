//! Quickstart: profile one DGNN on the simulated platform in ~20 lines.
//!
//! Builds TGAT over a synthetic Wikipedia-like interaction stream, runs
//! GPU-mode inference, and prints the captured profile — the same
//! breakdown/utilization/bottleneck report the paper's Figure 7 panels
//! are built from.
//!
//! Run with: `cargo run --example quickstart`

use dgnn_suite::datasets::{wikipedia, Scale};
use dgnn_suite::device::{ExecMode, Executor, PlatformSpec};
use dgnn_suite::models::{DgnnModel, InferenceConfig, Tgat};
use dgnn_suite::profile::InferenceProfile;

fn main() {
    // 1. A dataset: synthetic stand-in for JODIE's Wikipedia edit stream.
    let data = wikipedia(Scale::Tiny, 42);
    println!(
        "dataset: {} nodes, {} events, {}-dim edge features",
        data.stream.n_nodes(),
        data.stream.len(),
        data.edge_dim()
    );

    // 2. A model bound to it.
    let mut model = Tgat::new(data, 42);

    // 3. A simulated platform (Xeon 6226R + A6000 + PCIe 4.0).
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);

    // 4. Run inference: warm-up (context + model init + allocation) then
    //    four mini-batches of 200 events with 20 sampled neighbors each.
    let cfg = InferenceConfig::default()
        .with_batch_size(200)
        .with_neighbors(20)
        .with_max_units(4);
    let summary = model.run(&mut ex, &cfg).expect("inference succeeds");
    println!(
        "processed {} batches in {} simulated time (checksum {:.3})",
        summary.iterations, summary.inference_time, summary.checksum
    );

    // 5. Capture and print the full profile.
    let profile = InferenceProfile::capture(&ex, "inference");
    print!("{}", profile.render("TGAT / wikipedia / bs=200 / k=20"));
}
