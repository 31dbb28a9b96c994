//! Domain scenario: traffic forecasting with ASTGNN on a PeMS-style
//! sensor network.
//!
//! Demonstrates the batch-size trade-off of Figure 9: small batches
//! leave the GPU idle around the prediction step; large batches saturate
//! it but delay the decoder. Prints the utilization time-series per
//! batch size plus a CPU-vs-GPU comparison.
//!
//! Run with: `cargo run --example traffic_astgnn`

use dgnn_suite::datasets::{pems, Scale};
use dgnn_suite::device::{DurationNs, ExecMode, Executor, PlatformSpec};
use dgnn_suite::models::{Astgnn, DgnnModel, InferenceConfig};
use dgnn_suite::profile::UtilizationReport;

fn main() {
    let data = pems(Scale::Tiny, 3);
    println!(
        "sensor network: {} sensors, {} edges, {} five-minute slots",
        data.n_sensors(),
        data.sensor_graph.n_edges(),
        data.n_steps()
    );

    for bs in [4usize, 8, 16] {
        let cfg = InferenceConfig::default()
            .with_batch_size(bs)
            .with_max_units(2);

        // GPU run with a utilization timeline.
        let mut model = Astgnn::new(data.clone(), 3);
        let mut gpu = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        let summary = model.run(&mut gpu, &cfg).expect("gpu inference");
        let inference = gpu
            .scopes()
            .iter()
            .find(|s| s.path == "inference")
            .expect("inference scope")
            .clone();
        let window =
            DurationNs::from_nanos(((inference.end - inference.start).as_nanos() / 24).max(1));
        let series: Vec<_> =
            UtilizationReport::series(gpu.timeline(), inference.start, inference.end, window)
                .into_iter()
                .map(|(t, u)| (t - inference.start, u))
                .collect();

        // CPU comparison.
        let mut model = Astgnn::new(data.clone(), 3);
        let mut cpu = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
        let cpu_summary = model.run(&mut cpu, &cfg).expect("cpu inference");

        println!(
            "\nbatch {bs}: gpu {} vs cpu {} ({:.2}x speedup)",
            summary.inference_time,
            cpu_summary.inference_time,
            cpu_summary.inference_time.as_nanos() as f64
                / summary.inference_time.as_nanos().max(1) as f64,
        );
        print!(
            "{}",
            UtilizationReport::render_series(&series, &format!("GPU utilization, batch {bs}"))
        );
    }
}
