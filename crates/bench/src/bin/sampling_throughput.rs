//! Wall-clock throughput of the CSR temporal sampling engine, plus the
//! simulated "parallel sampling" ablation.
//!
//! The paper's Section 4.2 bottleneck is CPU-side temporal neighbor
//! sampling (83–94% of TGAT inference as batch size goes 200→4000). This
//! binary measures two things:
//!
//! 1. **Real wall-clock** of the host sampler itself:
//!    `sample_khop_batch` over a power-law interaction stream, sweeping
//!    batch size and fan-out `k`, in ms per batch and roots/s.
//! 2. **Simulated sampling share** of TGAT inference as the platform's
//!    core count grows with `parallel_sampling` enabled — the ablation
//!    that shrinks the paper's workload imbalance.
//!
//! Every measurement is also emitted as a machine-readable
//! `BENCH {json}` line for downstream tooling.
//!
//! Usage: `sampling_throughput [--scale tiny|small|full] [--seed N]`

use dgnn_bench::harness::walltime;
use dgnn_bench::parse_opts;
use dgnn_datasets::{wikipedia, PowerLawSampler, Scale};
use dgnn_device::{ExecMode, Executor, PlatformSpec};
use dgnn_graph::{EventStream, NeighborSampler, SampleStrategy, TemporalAdjacency};
use dgnn_models::{DgnnModel, InferenceConfig, Tgat};
use dgnn_profile::{InferenceProfile, TextTable};
use dgnn_tensor::TensorRng;

/// Power-law interaction stream: uniform sources, Zipf destinations.
fn power_law_stream(n_nodes: usize, n_events: usize, alpha: f64, seed: u64) -> EventStream {
    let mut rng = TensorRng::seed(seed);
    let zipf = PowerLawSampler::new(n_nodes, alpha);
    let mut t = 0.0f64;
    let events = (0..n_events)
        .map(|i| {
            t += rng.unit_f64();
            let src = rng.index(n_nodes);
            let mut dst = zipf.sample(&mut rng);
            if dst == src {
                dst = (dst + 1) % n_nodes;
            }
            dgnn_graph::TemporalEvent {
                src,
                dst,
                time: t,
                feature_idx: i,
            }
        })
        .collect();
    EventStream::new(n_nodes, events).expect("generated stream is valid")
}

/// Times `f` over `samples` iterations (one untimed warm-up), mean ns.
fn mean_ns<T>(samples: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let t0 = walltime();
    for _ in 0..samples {
        std::hint::black_box(f());
    }
    t0.elapsed().as_nanos() as f64 / samples as f64
}

fn main() {
    let opts = parse_opts();
    let n_events = opts.scale.apply(600_000, 20_000);
    let n_nodes = (n_events / 10).max(1_000);
    let stream = power_law_stream(n_nodes, n_events, 1.2, opts.seed);
    let adj = TemporalAdjacency::from_stream(&stream);
    let samples = 5;

    let mut table = TextTable::new(
        &format!("Sampling throughput — CSR engine ({n_events} events, {n_nodes} nodes)"),
        &["batch", "k (2 hops)", "ms", "roots/s"],
    );

    for &batch in &[200usize, 1_000, 4_000] {
        for &k in &[10usize, 20] {
            let roots: Vec<(usize, f64)> = stream
                .events()
                .iter()
                .rev()
                .take(batch)
                .map(|e| (e.src, e.time))
                .collect();
            let ks = [k, k];
            let sampler = NeighborSampler::new(SampleStrategy::Uniform, opts.seed);
            let ns = mean_ns(samples, || sampler.sample_khop_batch(&adj, &roots, &ks));
            let roots_per_sec = roots.len() as f64 / (ns / 1e9);

            table.row(&[
                format!("{batch}"),
                format!("{k}"),
                format!("{:.3}", ns / 1e6),
                format!("{roots_per_sec:.0}"),
            ]);
            println!(
                "BENCH {{\"bench\":\"sampling_throughput\",\"batch\":{batch},\"k\":{k},\
                 \"mean_ns\":{ns:.0},\"roots_per_sec\":{roots_per_sec:.0}}}"
            );
        }
    }
    print!("{}", table.render());

    // Simulated ablation: TGAT sampling share vs core count with the
    // cost model charging sampling as a parallel critical path.
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
