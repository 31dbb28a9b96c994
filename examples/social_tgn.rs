//! Domain scenario: future-interaction prediction on a social network
//! with TGN, comparing batch-size regimes.
//!
//! Demonstrates the paper's TGN findings: the per-node memory exchange
//! makes message passing dominate at large batch sizes (Fig 7a) and
//! pushes GPU utilization *down* as batches grow (Fig 6c) — the opposite
//! of the usual "bigger batches use the GPU better" intuition.
//!
//! Run with: `cargo run --example social_tgn`

use dgnn_suite::datasets::{wikipedia, Scale};
use dgnn_suite::device::{ExecMode, Executor, PlatformSpec};
use dgnn_suite::models::{DgnnModel, InferenceConfig, Tgn};
use dgnn_suite::profile::InferenceProfile;

fn main() {
    let data = wikipedia(Scale::Tiny, 5);
    println!(
        "interaction network: {} nodes, {} timestamped interactions",
        data.stream.n_nodes(),
        data.stream.len()
    );

    println!(
        "\n{:>10}  {:>9}  {:>9}  {:>13}  {:>9}",
        "batch", "gpu util", "mem (MiB)", "msg-pass share", "time"
    );
    for bs in [64usize, 256, 1_024] {
        let mut model = Tgn::new(data.clone(), 5);
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        let cfg = InferenceConfig::default()
            .with_batch_size(bs)
            .with_neighbors(10)
            .with_max_units(3);
        model.run(&mut ex, &cfg).expect("inference succeeds");
        let p = InferenceProfile::capture(&ex, "inference");
        println!(
            "{:>10}  {:>8.2}%  {:>9.1}  {:>12.1}%  {:>9}",
            bs,
            p.utilization.busy_fraction * 100.0,
            p.gpu_peak_mib(),
            p.breakdown.share_of("message_passing") * 100.0,
            p.inference_time
        );
    }

    // Show the full module breakdown for the largest batch.
    let mut model = Tgn::new(data, 5);
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    let cfg = InferenceConfig::default()
        .with_batch_size(1_024)
        .with_neighbors(10)
        .with_max_units(3);
    model.run(&mut ex, &cfg).expect("inference succeeds");
    let p = InferenceProfile::capture(&ex, "inference");
    println!();
    print!("{}", p.breakdown.to_table("TGN module breakdown (bs=1024)"));
}
