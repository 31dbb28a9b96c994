//! The simulated "parallel sampling" ablation: TGAT's sampling share as
//! the CPU core count grows.
//!
//! The paper's Section 4.2 bottleneck is CPU-side temporal neighbor
//! sampling (83–94% of TGAT inference as batch size goes 200→4000). This
//! binary runs one TGAT batch of 4000 with `parallel_sampling` enabled,
//! so the cost model charges sampling as a parallel critical path, and
//! sweeps the platform's core count: the ablation that shrinks the
//! paper's workload imbalance. Every cell is also emitted as a
//! machine-readable `BENCH {json}` line for downstream tooling.
//!
//! Usage: `sampling_throughput [--scale tiny|small|full] [--seed N]`

use dgnn_bench::parse_opts;
use dgnn_datasets::{wikipedia, Scale};
use dgnn_device::{ExecMode, Executor, PlatformSpec};
use dgnn_models::{DgnnModel, InferenceConfig, Tgat};
use dgnn_profile::{InferenceProfile, TextTable};

fn main() {
    let opts = parse_opts();
    let mut ablation = TextTable::new(
        "Parallel sampling ablation — simulated TGAT sampling share vs CPU cores",
        &["cores", "sampling share", "batch time ms"],
    );
    // Full-scale wikipedia is overkill for a share measurement; cap the
    // ablation dataset at Small.
    let ablation_scale = match opts.scale {
        Scale::Full => Scale::Small,
        s => s,
    };
    let data = wikipedia(ablation_scale, opts.seed);
    let cfg = InferenceConfig::default()
        .with_batch_size(4_000)
        .with_max_units(1)
        .with_parallel_sampling(true);
    for &cores in &[1u32, 2, 4, 8, 16] {
        let mut spec = PlatformSpec::default();
        spec.cpu.cores = cores;
        spec.cpu.saturation_width = cores as u64 * 256;
        let mut model = Tgat::new(data.clone(), opts.seed);
        let mut ex = Executor::new(spec, ExecMode::Gpu);
        let summary = model.run(&mut ex, &cfg).expect("tgat run");
        let profile = InferenceProfile::capture(&ex, "inference");
        let share = profile.breakdown.share_of("sampling");
        let ms = summary.inference_time.as_nanos() as f64 / 1e6;
        ablation.row(&[
            format!("{cores}"),
            format!("{:.1}%", share * 100.0),
            format!("{ms:.2}"),
        ]);
        println!(
            "BENCH {{\"bench\":\"parallel_sampling_ablation\",\"cores\":{cores},\
             \"sampling_share\":{share:.4},\"inference_ms\":{ms:.3}}}"
        );
    }
    print!("{}", ablation.render());
}
