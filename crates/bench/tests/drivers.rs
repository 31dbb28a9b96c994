//! Pins what every model driver prices across shard counts, platforms
//! and transfer knobs.
//!
//! Every cell runs one freshly built model once and folds its outcome
//! into a fingerprint: inference time and checksum bits, H2D, D2H and
//! peer bytes, kernel, transfer and peer event counts, the executor
//! clock, feature-cache hits and misses, and every timeline event
//! (label, scope, interval, bytes, device, lane). Cells group into four
//! rows for each of TGN, TGAT, MolDGNN and EvolveGCN and one row for
//! each of JODIE, DyRep, LDG and ASTGNN, and each row's digest is a
//! recorded constant: a driver change that moves any priced number
//! fails here and prints the new digest of every cell in the row. Two
//! tests cover the whole zoo: one pins every kernel event's fields on
//! the GPU and the CPU, and one checks that every model honors the
//! configured transfer mode. A last test pins every provenance trace
//! record the zoo and a streaming ingest session log.

use std::collections::HashMap;

use dgnn_bench::{build_model, default_config, served_zoo, MODEL_NAMES};
use dgnn_datasets::{wikipedia, Scale};
use dgnn_device::{
    DurationNs, EventCategory, ExecMode, ExecTrace, Executor, PlatformSpec, TraceRecord,
    TransferDir, TransferMode,
};
use dgnn_models::{InferenceConfig, TransferGranularity};
use dgnn_serve::{serve_streaming, ServeConfig, StreamingConfig};

const SEED: u64 = 5;

/// Feature-cache capacity (rows per device) of the cached cells.
const CACHE_ROWS: usize = 512;

/// FNV-1a over little-endian 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

/// Tiny two-unit workloads with small batches.
fn base(name: &str) -> InferenceConfig {
    let cfg = InferenceConfig::default().with_max_units(2);
    match name {
        "tgn" => cfg.with_batch_size(100).with_neighbors(10),
        "tgat" => cfg.with_batch_size(50).with_neighbors(10),
        "moldgnn" => cfg.with_batch_size(8),
        "jodie" => cfg.with_batch_size(100),
        "dyrep" | "ldg_mlp" | "ldg_bilinear" => cfg.with_batch_size(32),
        "astgnn" => cfg.with_batch_size(4),
        _ => cfg, // EvolveGCN: two snapshots
    }
}

fn overlap_coalesced(cfg: InferenceConfig) -> InferenceConfig {
    cfg.with_pipeline_overlap(true)
        .with_transfer_granularity(TransferGranularity::Coalesced)
}

fn per_tensor(cfg: InferenceConfig) -> InferenceConfig {
    cfg.with_transfer_granularity(TransferGranularity::PerTensor)
}

/// One run's fingerprint.
fn cell(name: &str, spec: PlatformSpec, mode: ExecMode, cfg: &InferenceConfig) -> u64 {
    let mut model = build_model(name, Scale::Tiny, SEED);
    let mut ex = Executor::new(spec, mode);
    let summary = model
        .run(&mut ex, cfg)
        .unwrap_or_else(|e| panic!("{name} inference failed: {e}"));
    let tl = ex.timeline();
    let count = |want: fn(EventCategory) -> bool| {
        tl.events().iter().filter(|e| want(e.category)).count() as u64
    };
    let cache = ex.cache_stats();
    let mut d = Digest::new();
    for w in [
        summary.inference_time.as_nanos(),
        u64::from(summary.checksum.to_bits()),
        tl.transfer_bytes(Some(TransferDir::H2D)),
        tl.transfer_bytes(Some(TransferDir::D2H)),
        tl.peer_bytes(),
        count(|c| matches!(c, EventCategory::Kernel(_))),
        count(|c| matches!(c, EventCategory::Transfer(_))),
        count(|c| c == EventCategory::PeerTransfer),
        ex.now().as_nanos(),
        cache.hits,
        cache.misses,
    ] {
        d.word(w);
    }
    for e in tl.events() {
        d.text(e.label);
        d.text(&e.scope);
        d.word(e.start.as_nanos());
        d.word(e.end.as_nanos());
        d.word(e.bytes);
        d.word(e.device as u64);
        d.word(e.stream.map_or(0, |lane| lane.index() as u64 + 1));
    }
    d.0
}

type Cell = (String, PlatformSpec, ExecMode, InferenceConfig);

/// Shards 1 on the default platform, under every knob combination a
/// single-device run is priced by.
fn single_row(name: &str) -> Vec<Cell> {
    let b = base(name);
    let gpu = |label: &str, cfg| {
        (
            label.to_string(),
            PlatformSpec::default(),
            ExecMode::Gpu,
            cfg,
        )
    };
    vec![
        gpu("serial", b.clone()),
        gpu("overlap", b.clone().with_pipeline_overlap(true)),
        gpu("per-tensor", per_tensor(b.clone())),
        gpu(
            "overlap+per-tensor",
            per_tensor(b.clone()).with_pipeline_overlap(true),
        ),
        gpu("overlap+coalesced", overlap_coalesced(b.clone())),
        gpu("cache", b.clone().with_feature_cache(CACHE_ROWS)),
        gpu(
            "overlap+per-tensor+cache",
            per_tensor(b.clone())
                .with_pipeline_overlap(true)
                .with_feature_cache(CACHE_ROWS),
        ),
        (
            "cpu".to_string(),
            PlatformSpec::default(),
            ExecMode::CpuOnly,
            b,
        ),
    ]
}

/// Shards 1 on a four-GPU platform: the idle devices change nothing.
fn idle_row(name: &str) -> Vec<Cell> {
    vec![(
        "nvlink4 shards=1".to_string(),
        PlatformSpec::multi_gpu_nvlink(4),
        ExecMode::Gpu,
        base(name),
    )]
}

/// Shards 2 and 4 on both interconnects under the default knobs,
/// overlap with coalescing, per-tensor pricing and the cache.
fn sharded_row(name: &str) -> Vec<Cell> {
    let mut cells = Vec::new();
    for shards in [2, 4] {
        for (topology, spec) in [
            ("nvlink4", PlatformSpec::multi_gpu_nvlink(4)),
            ("pcie4", PlatformSpec::multi_gpu_pcie(4)),
        ] {
            let b = base(name).with_shards(shards);
            for (knobs, cfg) in [
                ("default", b.clone()),
                ("overlap+coalesced", overlap_coalesced(b.clone())),
                ("per-tensor", per_tensor(b.clone())),
                ("cache", b.with_feature_cache(CACHE_ROWS)),
            ] {
                let label = format!("{topology} shards={shards} {knobs}");
                cells.push((label, spec.clone(), ExecMode::Gpu, cfg));
            }
        }
    }
    cells
}

/// Pageable host memory, only where the drivers honor it today: every
/// shard count for TGN, TGAT and MolDGNN, sharded runs for EvolveGCN.
fn pageable_row(name: &str) -> Vec<Cell> {
    let first = if name.starts_with("evolvegcn") { 2 } else { 1 };
    [1, 2, 4]
        .into_iter()
        .filter(|&shards| shards >= first)
        .map(|shards| {
            let spec = if shards == 1 {
                PlatformSpec::default()
            } else {
                PlatformSpec::multi_gpu_nvlink(4)
            };
            let cfg = base(name)
                .with_shards(shards)
                .with_transfer_mode(TransferMode::Pageable);
            (format!("shards={shards}"), spec, ExecMode::Gpu, cfg)
        })
        .collect()
}

/// JODIE, DyRep, LDG and ASTGNN under the GPU defaults, on the CPU, and
/// under each knob the other four models act on: overlap with
/// coalescing, per-tensor pricing, the cache and four NVLink shards.
fn serial_row(name: &str) -> Vec<Cell> {
    let b = base(name);
    let gpu = |label: &str, spec, cfg| (label.to_string(), spec, ExecMode::Gpu, cfg);
    vec![
        gpu("gpu", PlatformSpec::default(), b.clone()),
        (
            "cpu".to_string(),
            PlatformSpec::default(),
            ExecMode::CpuOnly,
            b.clone(),
        ),
        gpu(
            "overlap+coalesced",
            PlatformSpec::default(),
            overlap_coalesced(b.clone()),
        ),
        gpu("per-tensor", PlatformSpec::default(), per_tensor(b.clone())),
        gpu(
            "cache",
            PlatformSpec::default(),
            b.clone().with_feature_cache(CACHE_ROWS),
        ),
        gpu(
            "nvlink4 shards=4",
            PlatformSpec::multi_gpu_nvlink(4),
            b.with_shards(4),
        ),
    ]
}

/// Runs every row of `name` and checks the row digests against `want`
/// (single, idle, sharded, pageable), listing each cell of a moved row.
fn check_model(name: &str, want: [u64; 4]) {
    check_rows(
        name,
        &[
            ("single", single_row(name)),
            ("idle", idle_row(name)),
            ("sharded", sharded_row(name)),
            ("pageable", pageable_row(name)),
        ],
        &want,
    );
}

/// Checks the digest of each of `name`'s rows against `want`, listing
/// each cell of a moved row.
fn check_rows(name: &str, rows: &[(&str, Vec<Cell>)], want: &[u64]) {
    let mut got = vec![0u64; rows.len()];
    let mut moved = String::new();
    for (i, (row, cells)) in rows.iter().enumerate() {
        let mut d = Digest::new();
        let mut listing = String::new();
        for (label, spec, mode, cfg) in cells {
            let c = cell(name, spec.clone(), *mode, cfg);
            d.word(c);
            listing.push_str(&format!("  {label}: {c:#018x}\n"));
        }
        got[i] = d.0;
        if got[i] != want[i] {
            moved.push_str(&format!("{row} row {:#018x}:\n{listing}", got[i]));
        }
    }
    assert!(
        moved.is_empty(),
        "{name} driver prices moved; digests {got:#018x?}\n{moved}"
    );
}

#[test]
fn tgn_driver_prices_are_pinned() {
    check_model(
        "tgn",
        [
            0x6087_8d82_c1d3_5133,
            0x4c34_edd6_68d4_db0e,
            0x1516_84f8_7758_e31c,
            0x8cf3_f612_a7af_674c,
        ],
    );
}

#[test]
fn tgat_driver_prices_are_pinned() {
    check_model(
        "tgat",
        [
            0x2f3a_1a62_3508_c431,
            0x7f4e_90fc_5efc_40fc,
            0xee16_8635_298b_2fd6,
            0x7830_1d8a_d7be_cb60,
        ],
    );
}

#[test]
fn moldgnn_driver_prices_are_pinned() {
    check_model(
        "moldgnn",
        [
            0x49bb_bf7f_12bc_3294,
            0xfa6d_0d3c_d4f7_1d26,
            0x3764_1c1f_2a71_4de9,
            0xfbd1_490c_87b9_d345,
        ],
    );
}

#[test]
fn evolvegcn_o_driver_prices_are_pinned() {
    check_model(
        "evolvegcn_o",
        [
            0x9898_d82b_884d_89e3,
            0x6519_9401_0e9f_de84,
            0xd3c7_cf50_10b4_6c96,
            0xb774_92a0_19cb_f1e6,
        ],
    );
}

#[test]
fn evolvegcn_h_driver_prices_are_pinned() {
    check_model(
        "evolvegcn_h",
        [
            0x6f95_58bb_d85a_4428,
            0x7e28_b116_5908_4b74,
            0x93a1_8b64_3fa9_b546,
            0xa1ef_5623_acee_f6b9,
        ],
    );
}

#[test]
fn serial_plan_prices_are_pinned() {
    // These models price their GPU cells the same whatever the knobs
    // say: equal cell digests across a row's GPU cells record that.
    for (name, want) in [
        ("jodie", 0x53b2_0a08_344e_c406),
        ("dyrep", 0xac51_3109_8d4f_2c8f),
        ("ldg_mlp", 0x2549_d53f_8156_f049),
        ("ldg_bilinear", 0x0801_b018_4fe4_66b4),
        ("astgnn", 0xf9bd_08fb_084c_b6f1),
    ] {
        check_rows(name, &[("serial", serial_row(name))], &[want]);
    }
}

#[test]
fn kernel_fields_of_every_model() {
    // Every kernel event of every model, on the GPU and on the CPU: its
    // label, family, flops, bytes and occupancy. A change to how a
    // descriptor is built or launched moves this digest.
    let mut d = Digest::new();
    for &name in MODEL_NAMES {
        for mode in [ExecMode::Gpu, ExecMode::CpuOnly] {
            let cfg = default_config(name).with_max_units(1);
            let mut model = build_model(name, Scale::Tiny, SEED);
            let mut ex = Executor::new(PlatformSpec::default(), mode);
            model
                .run(&mut ex, &cfg)
                .unwrap_or_else(|e| panic!("{name} inference failed: {e}"));
            for e in ex.timeline().events() {
                if let EventCategory::Kernel(kind) = e.category {
                    d.text(e.label);
                    d.text(kind.name());
                    d.word(e.flops);
                    d.word(e.bytes);
                    d.word(e.occupancy.to_bits());
                }
            }
        }
    }
    assert_eq!(
        d.0, 0x6c5c_500d_a607_9d67,
        "kernel fields moved; digest {:#018x}",
        d.0
    );
}

#[test]
fn pageable_host_memory_is_slower_for_every_model() {
    // Every model applies the config's transfer mode: unpinned host
    // buffers pay the staging copy and host metadata on each transfer.
    for &name in MODEL_NAMES {
        let inference = |mode: TransferMode| {
            let cfg = default_config(name)
                .with_max_units(2)
                .with_transfer_mode(mode);
            let mut model = build_model(name, Scale::Tiny, SEED);
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            model
                .run(&mut ex, &cfg)
                .unwrap_or_else(|e| panic!("{name} inference failed: {e}"))
                .inference_time
        };
        let pinned = inference(TransferMode::Pinned);
        let pageable = inference(TransferMode::Pageable);
        assert!(
            pageable > pinned,
            "{name}: pageable {pageable:?} must cost more than pinned {pinned:?}"
        );
    }
}

/// Folds every record of `trace` into `d`: its variant and fields, in
/// program order. Tensor ids are renumbered by first appearance, since
/// their values come from a process-wide counter that other tests in
/// this process also draw from.
fn trace_digest(d: &mut Digest, trace: &ExecTrace) {
    let mut ids: HashMap<u64, u64> = HashMap::new();
    for r in trace.records() {
        let mut r = r.clone();
        if let TraceRecord::Access { tensor, .. }
        | TraceRecord::Release { tensor, .. }
        | TraceRecord::Crossing {
            tensor: Some(tensor),
            ..
        } = &mut r
        {
            let next = ids.len() as u64;
            *tensor = *ids.entry(*tensor).or_insert(next);
        }
        d.text(&format!("{r:?}"));
    }
}

#[test]
fn trace_records_of_every_model() {
    // Every model traced under GPU serial, overlap with coalescing, the
    // cache and the CPU; the sharded drivers also at four shards on each
    // interconnect with overlap and coalescing. Then one streaming ingest
    // session, which logs the graph appends and samples.
    let mut got = Vec::new();
    for &name in MODEL_NAMES {
        let b = base(name);
        let gpu = PlatformSpec::default();
        let mut cells = vec![
            (gpu.clone(), ExecMode::Gpu, b.clone()),
            (gpu.clone(), ExecMode::Gpu, overlap_coalesced(b.clone())),
            (
                gpu.clone(),
                ExecMode::Gpu,
                b.clone().with_feature_cache(CACHE_ROWS),
            ),
            (gpu, ExecMode::CpuOnly, b.clone()),
        ];
        if ["tgn", "tgat", "moldgnn", "evolvegcn_o", "evolvegcn_h"].contains(&name) {
            for spec in [
                PlatformSpec::multi_gpu_nvlink(4),
                PlatformSpec::multi_gpu_pcie(4),
            ] {
                cells.push((
                    spec,
                    ExecMode::Gpu,
                    overlap_coalesced(b.clone().with_shards(4)),
                ));
            }
        }
        let mut d = Digest::new();
        for (spec, mode, cfg) in cells {
            let mut model = build_model(name, Scale::Tiny, SEED);
            let mut ex = Executor::new(spec, mode);
            ex.enable_tracing();
            model
                .run(&mut ex, &cfg)
                .unwrap_or_else(|e| panic!("{name} inference failed: {e}"));
            trace_digest(&mut d, ex.trace().expect("tracing is on"));
        }
        got.push((name, d.0));
    }
    let cfg = ServeConfig {
        seed: 1,
        n_requests: 6,
        arrival_rate_rps: 2.0,
        batch_window: DurationNs::from_millis(2),
        pool_size: 1,
        trace: true,
        ..ServeConfig::default()
    };
    let mut scfg = StreamingConfig::new(wikipedia(Scale::Tiny, SEED).stream);
    scfg.compaction_threshold = 64;
    scfg.ingest_rate_eps = 20.0;
    let out = serve_streaming(&cfg, &scfg, &served_zoo(&["tgn"], Scale::Tiny, SEED));
    let ingest = out.ingest_session.trace().expect("tracing is on");
    assert!(ingest
        .records()
        .iter()
        .any(|r| matches!(r, TraceRecord::GraphAppend { .. })));
    assert!(ingest
        .records()
        .iter()
        .any(|r| matches!(r, TraceRecord::GraphSample { .. })));
    let mut d = Digest::new();
    trace_digest(&mut d, ingest);
    got.push(("ingest", d.0));
    let mut all = Digest::new();
    for &(_, w) in &got {
        all.word(w);
    }
    assert_eq!(
        all.0, 0x6f78_9a66_2d2b_988e,
        "trace records moved; digest {:#018x}, per run {got:#018x?}",
        all.0
    );
}
