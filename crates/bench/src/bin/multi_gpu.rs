//! Topology-aware multi-GPU shard sweep.
//!
//! The paper profiles single-device inference; this binary measures what
//! the same analytical platform predicts for sharded execution across a
//! device graph. Each model splits its batch across `s` GPUs — TGN/TGAT
//! by contiguous source-node range, MolDGNN by molecule block, with
//! cross-shard feature and memory rows priced as peer transfers
//! (`InferenceConfig::shards`) — under two interconnects:
//!
//! * **nvlink**: a fully connected NVLink clique; remote rows move over
//!   direct peer links.
//! * **pcie**: no peer links; every cross-device row bounces through
//!   host memory, paying PCIe twice.
//!
//! Shard counts 1/2/4/8 are swept per model × topology. The `shards=1`
//! cell is the one-slice case of each model's driver and is asserted
//! bit-identical to a plain single-GPU run — idle extra devices and
//! peer links must change nothing. Above one shard the drivers also
//! price some copies and lanes differently (see
//! `InferenceConfig::shards`), so a cell's speedup over the `shards=1`
//! base mixes sharding with that pricing difference: TGN's 4-shard
//! NVLink cell gains 1.52× over one shard priced the sharded way, not
//! the 2.25× the table reports.
//!
//! Every measurement is emitted as a machine-readable `BENCH {json}`
//! line; the committed `BENCH_multigpu.json` baseline at the repo root
//! is the array of these records.
//!
//! Usage: `multi_gpu [--scale tiny|small|full] [--seed N] [--smoke]`
//!
//! `--smoke` shrinks the sweep to tiny configurations and adds a
//! shards=4 determinism replay plus a RULE1–RULE8 sanitizer audit of a
//! traced sharded run, so CI exercises the cross-device path in seconds.

use dgnn_bench::{build_model, parse_opts};
use dgnn_datasets::Scale;
use dgnn_device::{ExecMode, Executor, PlatformSpec};
use dgnn_models::InferenceConfig;
use dgnn_profile::{InferenceProfile, TextTable};

/// One measured cell. Times cover the inference window only — context
/// and model warm-up are identical across shard counts and would drown
/// the sharding signal in a constant.
struct Cell {
    inference_ns: u64,
    checksum_bits: u32,
    peer_bytes: u64,
    platform_busy: f64,
    per_device_busy: Vec<f64>,
}

fn platform(topology: &str, n: usize) -> PlatformSpec {
    match topology {
        "nvlink" => PlatformSpec::multi_gpu_nvlink(n),
        "pcie" => PlatformSpec::multi_gpu_pcie(n),
        other => panic!("unknown topology `{other}`"),
    }
}

fn run_cell(
    name: &str,
    scale: Scale,
    seed: u64,
    cfg: &InferenceConfig,
    spec: PlatformSpec,
) -> Cell {
    let mut model = build_model(name, scale, seed);
    let mut ex = Executor::new(spec, ExecMode::Gpu);
    let summary = model
        .run(&mut ex, cfg)
        .unwrap_or_else(|e| panic!("{name} inference failed: {e}"));
    let profile = InferenceProfile::capture(&ex, "inference");
    Cell {
        inference_ns: profile.inference_time.as_nanos(),
        checksum_bits: summary.checksum.to_bits(),
        peer_bytes: ex.timeline().peer_bytes(),
        platform_busy: profile.utilization.platform_busy_fraction,
        per_device_busy: profile.utilization.per_device,
    }
}

fn main() {
    let opts = parse_opts();
    let smoke = opts.rest.iter().any(|a| a == "--smoke");
    // Shard scaling is batch-structure-sensitive, not event-count-
    // sensitive; cap at Small to keep host-side sampling wall-clock sane.
    let scale = if smoke {
        Scale::Tiny
    } else {
        match opts.scale {
            Scale::Full => Scale::Small,
            s => s,
        }
    };

    let units = if smoke { 2 } else { 4 };
    let cases: Vec<(&str, InferenceConfig)> = vec![
        (
            "tgn",
            InferenceConfig::default()
                .with_batch_size(if smoke { 128 } else { 512 })
                .with_neighbors(10)
                .with_max_units(units),
        ),
        (
            "tgat",
            InferenceConfig::default()
                .with_batch_size(if smoke { 100 } else { 200 })
                .with_neighbors(20)
                .with_max_units(units),
        ),
        (
            "moldgnn",
            InferenceConfig::default()
                .with_batch_size(if smoke { 16 } else { 128 })
                .with_max_units(if smoke { 2 } else { 3 }),
        ),
    ];
    let shard_counts: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    let mut table = TextTable::new(
        &format!("Multi-GPU shard sweep — end-to-end simulated inference time ({scale:?})"),
        &[
            "model",
            "topology",
            "shards",
            "base ms",
            "sharded ms",
            "speedup",
            "peer MB",
            "platform busy",
        ],
    );
    let mut best_nvlink4 = 0.0f64;

    for (name, cfg) in &cases {
        // Bit-identity anchor: the default single-GPU platform.
        let single = run_cell(name, scale, opts.seed, cfg, PlatformSpec::default());
        for topology in ["nvlink", "pcie"] {
            let mut base_ns = 0u64;
            for &shards in shard_counts {
                let cell = run_cell(
                    name,
                    scale,
                    opts.seed,
                    &cfg.clone().with_shards(shards),
                    platform(topology, shards.max(2)),
                );
                if shards == 1 {
                    // Idle extra GPUs and peer links must be invisible.
                    assert_eq!(
                        cell.inference_ns, single.inference_ns,
                        "{name}/{topology}: shards=1 must match the single-GPU clock"
                    );
                    assert_eq!(
                        cell.checksum_bits, single.checksum_bits,
                        "{name}/{topology}: shards=1 must match single-GPU numerics"
                    );
                    assert_eq!(cell.peer_bytes, 0);
                    base_ns = cell.inference_ns;
                }
                let speedup = base_ns as f64 / cell.inference_ns as f64;
                if topology == "nvlink" && shards == 4 {
                    best_nvlink4 = best_nvlink4.max(speedup);
                }
                table.row(&[
                    (*name).to_string(),
                    topology.to_string(),
                    format!("{shards}"),
                    format!("{:.3}", base_ns as f64 / 1e6),
                    format!("{:.3}", cell.inference_ns as f64 / 1e6),
                    format!("{speedup:.2}x"),
                    format!("{:.2}", cell.peer_bytes as f64 / 1e6),
                    format!("{:.1}%", cell.platform_busy * 100.0),
                ]);
                let busy = cell
                    .per_device_busy
                    .iter()
                    .map(|f| format!("{f:.4}"))
                    .collect::<Vec<_>>()
                    .join(",");
                println!(
                    "BENCH {{\"bench\":\"multi_gpu\",\"model\":\"{name}\",\
                     \"topology\":\"{topology}\",\"shards\":{shards},\"base_ns\":{base_ns},\
                     \"sharded_ns\":{},\"speedup\":{speedup:.4},\"peer_bytes\":{},\
                     \"platform_busy\":{:.4},\"per_device_busy\":[{busy}]}}",
                    cell.inference_ns, cell.peer_bytes, cell.platform_busy,
                );
            }
        }
    }
    print!("{}", table.render());

    if smoke {
        // Determinism replay: a sharded cell twice, bit for bit.
        let (name, cfg) = &cases[0];
        let sharded = cfg.clone().with_shards(4);
        let a = run_cell(name, scale, opts.seed, &sharded, platform("nvlink", 4));
        let b = run_cell(name, scale, opts.seed, &sharded, platform("nvlink", 4));
        assert_eq!(
            a.inference_ns, b.inference_ns,
            "sharded replay must be exact"
        );
        assert_eq!(a.checksum_bits, b.checksum_bits);
        assert_eq!(a.peer_bytes, b.peer_bytes, "peer traffic must replay");

        // Sanitizer audit of a traced sharded run: every RULE including
        // the RULE8 peer-transfer conservation check must come back
        // clean on both topologies.
        for topology in ["nvlink", "pcie"] {
            let mut model = build_model(name, scale, opts.seed);
            let mut ex = Executor::new(platform(topology, 4), ExecMode::Gpu);
            ex.enable_tracing();
            model
                .run(&mut ex, &sharded)
                .unwrap_or_else(|e| panic!("{name} traced sharded run failed: {e}"));
            let report = dgnn_analysis::audit(&ex);
            assert!(
                report.is_clean(),
                "sharded {topology} run has hazards: {report}"
            );
        }
        println!("smoke OK: sharded replay exact, sanitizer clean on both topologies ({name})");
    } else {
        assert!(
            best_nvlink4 >= 1.5,
            "expected >= 1.5x end-to-end reduction at 4 NVLink shards on at least one model, \
             best {best_nvlink4:.2}x"
        );
    }
}
