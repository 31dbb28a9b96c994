//! Isolated calls into the tensor and graph layers, on the shapes and
//! graph each workload uses, reported as host time per unit of work
//! (the per-work normalisation of the CxGNN profiling idiom).

use dgnn_bench::harness::walltime;
use dgnn_datasets::{wikipedia, Scale};
use dgnn_graph::{
    EventStream, NeighborSampler, SampleStrategy, StreamingAdjacency, TemporalAdjacency,
};
use dgnn_tensor::{Initializer, Tensor, TensorRng};

use crate::stats::median;
use crate::workloads::Workload;

/// Rows per matmul: the models' representative cap (`REP_CAP`).
const ROWS: usize = 32;

/// Timed repetitions per measurement; the median is reported.
const REPEATS: usize = 5;

/// Isolated host timings of one workload's tensor and graph shapes.
#[derive(Debug, Clone, Copy)]
pub struct LayerTimings {
    /// `Tensor::matmul` host ns per flop at 32-row shapes.
    pub matmul_ns_per_flop: f64,
    /// `sample_khop_batch` host ns per sampled edge.
    pub sample_ns_per_edge: f64,
    /// `StreamingAdjacency::append` host ns per event.
    pub append_ns_per_event: f64,
}

/// `(k, n)` of the workload's models' `32×k · k×n` products.
fn matmul_shapes(workload: Workload) -> &'static [(usize, usize)] {
    match workload {
        // JODIE 128, TGN 172, DyRep and LDG 32.
        Workload::FleetFlash => &[(128, 128), (172, 172), (32, 32)],
        // TGN: 172-wide memory, 100-wide time encoding.
        Workload::StreamIngest => &[(172, 172), (100, 172)],
        // Adds EvolveGCN's 100-wide hidden state.
        Workload::ZooAudit => &[(128, 128), (172, 172), (32, 32), (100, 100)],
    }
}

fn time_ns(f: impl FnOnce()) -> f64 {
    let t = walltime();
    f();
    t.elapsed().as_nanos() as f64
}

fn matmul_ns_per_flop(shapes: &[(usize, usize)], seed: u64) -> f64 {
    let mut rng = TensorRng::seed(seed);
    let pairs: Vec<(Tensor, Tensor)> = shapes
        .iter()
        .map(|&(k, n)| {
            (
                rng.init(&[ROWS, k], Initializer::Normal(1.0)),
                rng.init(&[k, n], Initializer::Normal(1.0)),
            )
        })
        .collect();
    let flops: usize = shapes.iter().map(|&(k, n)| 2 * ROWS * k * n).sum();
    let reps = 200;
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            time_ns(|| {
                for _ in 0..reps {
                    for (a, b) in &pairs {
                        std::hint::black_box(a.matmul(b).expect("shapes agree"));
                    }
                }
            }) / (reps * flops) as f64
        })
        .collect();
    median(&samples)
}

fn sample_ns_per_edge(stream: &EventStream, seed: u64) -> f64 {
    let adj = TemporalAdjacency::from_stream(stream);
    let sampler = NeighborSampler::new(SampleStrategy::Uniform, seed);
    let events = stream.events();
    // 32 roots at the latest event times, where histories are longest.
    let roots: Vec<(usize, f64)> = events
        .iter()
        .rev()
        .take(ROWS)
        .map(|e| (e.src, e.time))
        .collect();
    let fanout = [10, 10];
    let reps = 20;
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let mut edges = 0usize;
            let ns = time_ns(|| {
                for _ in 0..reps {
                    let (layers, _) = sampler.sample_khop_batch(&adj, &roots, &fanout);
                    edges += layers.iter().skip(1).map(Vec::len).sum::<usize>();
                    std::hint::black_box(layers);
                }
            });
            ns / edges.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn append_ns_per_event(stream: &EventStream) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let mut store = StreamingAdjacency::new(stream.n_nodes(), 256);
            let ns = time_ns(|| {
                for &e in stream.events() {
                    std::hint::black_box(store.append(e).expect("stream is time-sorted"));
                }
            });
            ns / stream.events().len().max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Measures the three isolated layer calls for `workload`. Every
/// workload's graph is the Wikipedia stream its TGN/JODIE models read.
pub fn measure(workload: Workload, scale: Scale, seed: u64) -> LayerTimings {
    let stream = wikipedia(scale, seed).stream;
    LayerTimings {
        matmul_ns_per_flop: matmul_ns_per_flop(matmul_shapes(workload), seed),
        sample_ns_per_edge: sample_ns_per_edge(&stream, seed),
        append_ns_per_event: append_ns_per_event(&stream),
    }
}
