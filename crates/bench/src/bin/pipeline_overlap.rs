//! Async multi-stream executor ablation: pipeline overlap and transfer
//! coalescing.
//!
//! The paper's Section 4 bottlenecks 2 and 3 are GPU idle time while the
//! host samples neighbors, and per-tensor CPU↔GPU transfer overhead.
//! This binary quantifies how much of each the stream-aware executor
//! recovers:
//!
//! 1. **Pipeline overlap** (`InferenceConfig::pipeline_overlap`): TGAT
//!    serial vs double-buffered across batch sizes — end-to-end simulated
//!    time, reduction, and GPU busy fraction over the inference window
//!    (interval-union, so overlapping stream events are not double
//!    counted).
//! 2. **Transfer coalescing** (`TransferGranularity`): TGN and MolDGNN
//!    per-tensor vs coalesced — priced transfer counts, bytes (must be
//!    conserved), and the resulting time reduction.
//!
//! Every measurement is emitted as a machine-readable `BENCH {json}`
//! line. A full run from the repo root,
//! `cargo run --release -p dgnn-bench --bin pipeline_overlap`, also
//! writes these records to the committed `BENCH_overlap.json` baseline.
//!
//! Usage: `pipeline_overlap [--scale tiny|small|full] [--seed N] [--smoke]`
//!
//! `--smoke` shrinks the sweep to a single tiny configuration per model
//! so CI can exercise the full code path in seconds.

use dgnn_bench::{emit, measure, parse_opts};
use dgnn_datasets::{iso17, wikipedia};
use dgnn_device::{ExecMode, PlatformSpec};
use dgnn_models::{DgnnModel, InferenceConfig, MolDgnn, Tgat, Tgn, TransferGranularity};
use dgnn_profile::TextTable;

/// One serial-vs-overlap measurement of a model run.
struct OverlapPoint {
    serial_ns: u64,
    overlap_ns: u64,
    serial_busy: f64,
    overlap_busy: f64,
}

impl OverlapPoint {
    fn reduction(&self) -> f64 {
        if self.serial_ns == 0 {
            return 0.0;
        }
        1.0 - self.overlap_ns as f64 / self.serial_ns as f64
    }
}

/// Runs `model` twice on fresh GPU executors — serial then overlapped —
/// and captures simulated time plus GPU busy fraction for both.
fn measure_overlap(model: &mut dyn DgnnModel, cfg: &InferenceConfig) -> OverlapPoint {
    let mut run = |cfg: &InferenceConfig| -> (u64, f64) {
        let profile = measure(model, PlatformSpec::default(), ExecMode::Gpu, cfg).profile;
        (
            profile.inference_time.as_nanos(),
            profile.utilization.busy_fraction,
        )
    };
    let (serial_ns, serial_busy) = run(cfg);
    let (overlap_ns, overlap_busy) = run(&cfg.clone().with_pipeline_overlap(true));
    OverlapPoint {
        serial_ns,
        overlap_ns,
        serial_busy,
        overlap_busy,
    }
}

fn main() {
    let opts = parse_opts(&[]);
    let smoke = opts.smoke;
    // Overlap shares are scale-insensitive: the pipeline hides the same
    // fraction of the dominant lane regardless of event count.
    let scale = opts.sweep_scale();
    let mut records = Vec::new();

    // ── 1. TGAT pipeline overlap across batch sizes ────────────────────
    let k = 100usize; // transfer/compute-heavy regime where overlap pays
    let units = if smoke { 2 } else { 4 };
    let batches: &[usize] = if smoke { &[200] } else { &[200, 1_000, 4_000] };

    let mut table = TextTable::new(
        &format!("Pipeline overlap — TGAT serial vs double-buffered (k={k}, {scale:?})"),
        &[
            "batch",
            "serial ms",
            "overlap ms",
            "reduction",
            "gpu busy serial",
            "gpu busy overlap",
        ],
    );
    for &batch in batches {
        let mut model = Tgat::new(wikipedia(scale, opts.seed), opts.seed);
        let cfg = InferenceConfig::default()
            .with_batch_size(batch)
            .with_neighbors(k)
            .with_max_units(units);
        let p = measure_overlap(&mut model, &cfg);
        table.row(&[
            format!("{batch}"),
            format!("{:.3}", p.serial_ns as f64 / 1e6),
            format!("{:.3}", p.overlap_ns as f64 / 1e6),
            format!("{:.1}%", p.reduction() * 100.0),
            format!("{:.1}%", p.serial_busy * 100.0),
            format!("{:.1}%", p.overlap_busy * 100.0),
        ]);
        emit(
            &mut records,
            format!(
                "{{\"bench\":\"pipeline_overlap\",\"model\":\"tgat\",\"batch\":{batch},\
                 \"k\":{k},\"serial_ns\":{},\"overlap_ns\":{},\"reduction\":{:.4},\
                 \"gpu_busy_serial\":{:.4},\"gpu_busy_overlap\":{:.4}}}",
                p.serial_ns,
                p.overlap_ns,
                p.reduction(),
                p.serial_busy,
                p.overlap_busy,
            ),
        );
    }
    print!("{}", table.render());

    // ── 2. Transfer coalescing: per-tensor vs coalesced ────────────────
    let mut coalesce_table = TextTable::new(
        "Transfer coalescing — per-tensor vs one transaction per direction per batch",
        &[
            "model",
            "batch",
            "per-tensor xfers",
            "coalesced xfers",
            "count reduction",
            "bytes",
            "time speedup",
        ],
    );
    let tgn_batches: &[usize] = if smoke { &[128] } else { &[200, 500, 1_000] };
    let mol_batches: &[usize] = if smoke { &[16] } else { &[32, 64] };
    let tgn_units = if smoke { 1 } else { 3 };

    let mut coalesce_case = |model: &mut dyn DgnnModel, cfg: &InferenceConfig, batch: usize| {
        let mut transfers = |granularity| {
            let cfg = cfg.clone().with_transfer_granularity(granularity);
            let run = measure(model, PlatformSpec::default(), ExecMode::Gpu, &cfg);
            let timeline = run.executor.timeline();
            (
                run.summary.inference_time.as_nanos(),
                timeline.transfer_count(None),
                timeline.transfer_bytes(None),
            )
        };
        let (per_ns, per_count, per_bytes) = transfers(TransferGranularity::PerTensor);
        let (co_ns, co_count, co_bytes) = transfers(TransferGranularity::Coalesced);
        assert_eq!(per_bytes, co_bytes, "coalescing must conserve bytes");
        let count_reduction = per_count as f64 / co_count as f64;
        let time_speedup = per_ns as f64 / co_ns as f64;
        coalesce_table.row(&[
            model.name().to_string(),
            format!("{batch}"),
            format!("{per_count}"),
            format!("{co_count}"),
            format!("{count_reduction:.1}x"),
            format!("{co_bytes}"),
            format!("{time_speedup:.3}x"),
        ]);
        emit(
            &mut records,
            format!(
                "{{\"bench\":\"transfer_coalescing\",\"model\":\"{}\",\"batch\":{batch},\
                 \"per_tensor_transfers\":{per_count},\"coalesced_transfers\":{co_count},\
                 \"count_reduction\":{count_reduction:.3},\"bytes\":{co_bytes},\
                 \"time_speedup\":{time_speedup:.4}}}",
                model.name(),
            ),
        );
    };

    for &batch in tgn_batches {
        let mut model = Tgn::new(wikipedia(scale, opts.seed), opts.seed);
        let cfg = InferenceConfig::default()
            .with_batch_size(batch)
            .with_neighbors(10)
            .with_max_units(tgn_units);
        coalesce_case(&mut model, &cfg, batch);
    }
    for &batch in mol_batches {
        let mut model = MolDgnn::new(iso17(scale, opts.seed), opts.seed);
        let cfg = InferenceConfig::default()
            .with_batch_size(batch)
            .with_max_units(1);
        coalesce_case(&mut model, &cfg, batch);
    }
    print!("{}", coalesce_table.render());
    opts.write_bench_file("BENCH_overlap.json", "pipeline_overlap", &records);
}
