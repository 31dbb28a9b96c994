//! Benchmarks of the simulator's own host-side performance: the
//! substrate operations every experiment leans on. These measure real
//! wall-clock (not simulated time), so regressions in the reproduction
//! infrastructure itself are visible.

use std::hint::black_box;

use dgnn_bench::harness::bench;
use dgnn_datasets::{wikipedia, Scale};
use dgnn_device::{ExecMode, Executor, HostWork, OpDescriptor, PlatformSpec, TransferDir};
use dgnn_graph::{NeighborSampler, SampleStrategy, TBatcher, TemporalAdjacency};
use dgnn_tensor::{Initializer, TensorRng};

const SAMPLES: usize = 20;

fn bench_tensor_ops() {
    for &n in &[32usize, 128] {
        let a = TensorRng::seed(1).init(&[n, n], Initializer::Uniform(1.0));
        let b = TensorRng::seed(2).init(&[n, n], Initializer::Uniform(1.0));
        bench(&format!("tensor/matmul_{n}x{n}"), SAMPLES, || {
            black_box(a.matmul(&b).unwrap())
        });
    }
    let m = TensorRng::seed(3).init(&[256, 64], Initializer::Uniform(1.0));
    bench("tensor/softmax_rows_256x64", SAMPLES, || {
        black_box(m.softmax_rows().unwrap())
    });
    let idx: Vec<usize> = (0..256).map(|i| (i * 7) % 256).collect();
    bench("tensor/gather_rows_256", SAMPLES, || {
        black_box(m.gather_rows(&idx).unwrap())
    });
}

fn bench_graph_substrate() {
    let data = wikipedia(Scale::Tiny, 1);
    bench("graph/temporal_adjacency_build", SAMPLES, || {
        black_box(TemporalAdjacency::from_stream(&data.stream))
    });
    let adj = TemporalAdjacency::from_stream(&data.stream);
    let t_end = data.stream.end_time();
    bench("graph/sample_khop_2x20", SAMPLES, || {
        let s = NeighborSampler::new(SampleStrategy::Uniform, 7);
        black_box(s.sample_khop_batch(&adj, &[(0, t_end)], &[20, 20]))
    });
    let batch_roots: Vec<(usize, f64)> = data
        .stream
        .events()
        .iter()
        .rev()
        .take(256)
        .map(|e| (e.src, e.time))
        .collect();
    bench("graph/sample_khop_batch_256x2x20", SAMPLES, || {
        let s = NeighborSampler::new(SampleStrategy::Uniform, 7);
        black_box(s.sample_khop_batch(&adj, &batch_roots, &[20, 20]))
    });
    bench("graph/tbatch_build_full_stream", SAMPLES, || {
        black_box(TBatcher::new().build_stream(&data.stream))
    });
}

fn bench_executor() {
    bench("executor/launch_1000_kernels", SAMPLES, || {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        ex.ensure_context();
        for _ in 0..1_000 {
            ex.launch(OpDescriptor::gemm("k", 64, 64, 64));
        }
        black_box(ex.now())
    });
    bench("executor/mixed_schedule_100_iterations", SAMPLES, || {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        for _ in 0..100 {
            ex.scope("iter", |ex| {
                ex.host(HostWork::irregular("sample", 10_000, 4_096));
                ex.transfer(TransferDir::H2D, 1 << 16);
                ex.launch(OpDescriptor::gemm("mm", 128, 64, 128));
                ex.transfer(TransferDir::D2H, 1 << 12);
            });
        }
        black_box(ex.timeline().len())
    });
}

fn main() {
    bench_tensor_ops();
    bench_graph_substrate();
    bench_executor();
}
