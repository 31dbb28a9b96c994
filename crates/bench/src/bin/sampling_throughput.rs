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

use dgnn_bench::{emit, measure, parse_opts};
use dgnn_datasets::wikipedia;
use dgnn_device::{ExecMode, PlatformSpec};
use dgnn_models::{InferenceConfig, Tgat};
use dgnn_profile::TextTable;

fn main() {
    let opts = parse_opts(&[]);
    let mut ablation = TextTable::new(
        "Parallel sampling ablation — simulated TGAT sampling share vs CPU cores",
        &["cores", "sampling share", "batch time ms"],
    );
    // Full-scale wikipedia is overkill for a share measurement.
    let data = wikipedia(opts.sweep_scale(), opts.seed);
    let cfg = InferenceConfig::default()
        .with_batch_size(4_000)
        .with_max_units(1)
        .with_parallel_sampling(true);
    let mut records = Vec::new();
    for &cores in &[1u32, 2, 4, 8, 16] {
        let mut spec = PlatformSpec::default();
        spec.cpu.cores = cores;
        spec.cpu.saturation_width = cores as u64 * 256;
        let mut model = Tgat::new(data.clone(), opts.seed);
        let run = measure(&mut model, spec, ExecMode::Gpu, &cfg);
        let share = run.profile.breakdown.share_of("sampling");
        let ms = run.summary.inference_time.as_nanos() as f64 / 1e6;
        ablation.row(&[
            format!("{cores}"),
            format!("{:.1}%", share * 100.0),
            format!("{ms:.2}"),
        ]);
        emit(
            &mut records,
            format!(
                "{{\"bench\":\"parallel_sampling_ablation\",\"cores\":{cores},\
                 \"sampling_share\":{share:.4},\"inference_ms\":{ms:.3}}}"
            ),
        );
    }
    print!("{}", ablation.render());
}
