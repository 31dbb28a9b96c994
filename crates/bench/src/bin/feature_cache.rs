//! Device-resident feature cache × transfer-mode ablation.
//!
//! The paper's Section 4 transfer bottleneck assumes every sampled
//! feature row re-crosses PCIe on every mini-batch. Two mitigations the
//! profiled frameworks leave on the table:
//!
//! 1. **Feature caching** (`InferenceConfig::feature_cache`): an LRU of
//!    feature/memory rows resident on the device. A hit skips the H2D
//!    transfer entirely; only cold rows are priced. Swept over cache
//!    capacity on TGN (node memory), TGAT (neighbor features) and
//!    MolDGNN (trajectory frame adjacencies — frames repeat across
//!    units, so a cache sized to the working set removes the memcpy
//!    wall).
//! 2. **Pinned-transfer pricing** (`TransferMode`): the baseline link
//!    model assumes pinned staging. `Pageable` prices what the naive
//!    allocation path costs — per-transfer host metadata plus a
//!    staging-buffer copy at host memcpy bandwidth before the (slower)
//!    pageable PCIe rate.
//!
//! Numerics are invariant across every cell: the cache and the transfer
//! mode reroute *pricing* only, and the binary asserts bit-identical
//! checksums against the uncached pinned baseline.
//!
//! Every measurement is emitted as a machine-readable `BENCH {json}`
//! line. A full run from the repo root,
//! `cargo run --release -p dgnn-bench --bin feature_cache`, also writes
//! these records to the committed `BENCH_cache.json` baseline.
//!
//! Usage: `feature_cache [--scale tiny|small|full] [--seed N] [--smoke]`
//!
//! `--smoke` shrinks the sweep to one tiny configuration per model and
//! adds a determinism replay plus a sanitizer audit of a traced cached
//! run, so CI exercises the full code path in seconds.

use dgnn_bench::{build_model, emit, measure, measure_sanitized, parse_opts, transfer_cases};
use dgnn_datasets::Scale;
use dgnn_device::{CacheStats, ExecMode, PlatformSpec, TransferMode};
use dgnn_models::InferenceConfig;
use dgnn_profile::TextTable;

/// One measured cell of the sweep. Times cover the inference window
/// only — the §4.4 one-time context/model warm-up is identical across
/// cells and would drown the transfer ablation in a constant.
struct Cell {
    inference_ns: u64,
    transfer_bytes: u64,
    checksum_bits: u32,
    cache: CacheStats,
}

fn run_cell(
    name: &str,
    scale: Scale,
    seed: u64,
    cfg: &InferenceConfig,
    capacity: Option<usize>,
    mode: TransferMode,
) -> Cell {
    let mut model = build_model(name, scale, seed);
    let mut cfg = cfg.clone().with_transfer_mode(mode);
    if let Some(cap) = capacity {
        cfg = cfg.with_feature_cache(cap);
    }
    let run = measure(model.as_mut(), PlatformSpec::default(), ExecMode::Gpu, &cfg);
    Cell {
        inference_ns: run.profile.inference_time.as_nanos(),
        transfer_bytes: run.executor.timeline().transfer_bytes(None),
        checksum_bits: run.summary.checksum.to_bits(),
        cache: run.executor.cache_stats(),
    }
}

fn main() {
    let opts = parse_opts(&[]);
    let smoke = opts.smoke;
    // Cache hit structure is scale-insensitive: reuse comes from the
    // unit loop and sampler popularity, not event count.
    let scale = opts.sweep_scale();
    let cases = transfer_cases(smoke);
    let capacities: &[usize] = if smoke { &[4096] } else { &[1_024, 1 << 20] };

    let mut table = TextTable::new(
        &format!("Feature cache × transfer mode — end-to-end simulated time ({scale:?})"),
        &[
            "model",
            "mode",
            "capacity",
            "base ms",
            "cached ms",
            "speedup",
            "hit rate",
            "bytes saved",
        ],
    );
    let mut best_speedup = 0.0f64;
    let mut records = Vec::new();

    for (name, cfg) in &cases {
        for mode in [TransferMode::Pinned, TransferMode::Pageable] {
            let base = run_cell(name, scale, opts.seed, cfg, None, mode);
            for &cap in capacities {
                let cached = run_cell(name, scale, opts.seed, cfg, Some(cap), mode);
                assert_eq!(
                    base.checksum_bits, cached.checksum_bits,
                    "{name}: the cache must not change numerics"
                );
                assert!(
                    cached.transfer_bytes <= base.transfer_bytes,
                    "{name}: the cache must never add priced bytes"
                );
                // Both modes count toward the headline reduction: the
                // profiled frameworks ship tensors from pageable
                // allocations by default, so the pageable baseline is
                // the paper-faithful one and pinned staging is itself
                // already a mitigation. Each record names its mode.
                let speedup = base.inference_ns as f64 / cached.inference_ns as f64;
                best_speedup = best_speedup.max(speedup);
                table.row(&[
                    (*name).to_string(),
                    mode.name().to_string(),
                    format!("{cap}"),
                    format!("{:.3}", base.inference_ns as f64 / 1e6),
                    format!("{:.3}", cached.inference_ns as f64 / 1e6),
                    format!("{speedup:.2}x"),
                    format!("{:.1}%", cached.cache.hit_rate() * 100.0),
                    format!("{}", base.transfer_bytes - cached.transfer_bytes),
                ]);
                emit(
                    &mut records,
                    format!(
                        "{{\"bench\":\"feature_cache\",\"model\":\"{name}\",\
                         \"mode\":\"{}\",\"capacity\":{cap},\"base_ns\":{},\"cached_ns\":{},\
                         \"speedup\":{speedup:.4},\"hits\":{},\"misses\":{},\"evictions\":{},\
                         \"hit_rate\":{:.4},\"base_transfer_bytes\":{},\"cached_transfer_bytes\":{}}}",
                        mode.name(),
                        base.inference_ns,
                        cached.inference_ns,
                        cached.cache.hits,
                        cached.cache.misses,
                        cached.cache.evictions,
                        cached.cache.hit_rate(),
                        base.transfer_bytes,
                        cached.transfer_bytes,
                    ),
                );
            }
        }
    }
    print!("{}", table.render());

    // Pageable-vs-pinned tax on the uncached baselines: what the naive
    // allocation path costs before any caching.
    let mut tax_table = TextTable::new(
        "Pinned-transfer pricing — uncached pageable tax over the pinned baseline",
        &["model", "pinned ms", "pageable ms", "tax"],
    );
    for (name, cfg) in &cases {
        let pinned = run_cell(name, scale, opts.seed, cfg, None, TransferMode::Pinned);
        let pageable = run_cell(name, scale, opts.seed, cfg, None, TransferMode::Pageable);
        assert_eq!(pinned.checksum_bits, pageable.checksum_bits);
        assert!(
            pageable.inference_ns > pinned.inference_ns,
            "{name}: pageable transfers must cost more"
        );
        let tax = pageable.inference_ns as f64 / pinned.inference_ns as f64 - 1.0;
        tax_table.row(&[
            (*name).to_string(),
            format!("{:.3}", pinned.inference_ns as f64 / 1e6),
            format!("{:.3}", pageable.inference_ns as f64 / 1e6),
            format!("+{:.1}%", tax * 100.0),
        ]);
        emit(
            &mut records,
            format!(
                "{{\"bench\":\"transfer_mode_tax\",\"model\":\"{name}\",\
                 \"pinned_ns\":{},\"pageable_ns\":{},\"tax\":{tax:.4}}}",
                pinned.inference_ns, pageable.inference_ns,
            ),
        );
    }
    print!("{}", tax_table.render());

    if smoke {
        // Determinism replay: one cached cell twice, bit for bit.
        let (name, cfg) = &cases[0];
        let a = run_cell(
            name,
            scale,
            opts.seed,
            cfg,
            Some(4096),
            TransferMode::Pinned,
        );
        let b = run_cell(
            name,
            scale,
            opts.seed,
            cfg,
            Some(4096),
            TransferMode::Pinned,
        );
        assert_eq!(
            a.inference_ns, b.inference_ns,
            "cached replay must be exact"
        );
        assert_eq!(a.checksum_bits, b.checksum_bits);
        assert_eq!(a.cache, b.cache, "cache counters must replay");

        // Sanitizer audit of a traced cached run: cache hits are
        // legitimately unpriced and must not trip RULE5.
        let mut model = build_model(name, scale, opts.seed);
        let (report, run) = measure_sanitized(
            model.as_mut(),
            PlatformSpec::default(),
            ExecMode::Gpu,
            &cfg.clone().with_feature_cache(4096),
        );
        assert!(report.is_clean(), "cached run has hazards: {report}");
        assert!(
            report.stats.cache_hit_rows > 0 || run.executor.cache_stats().hits == 0,
            "traced hits must reach the sanitizer"
        );
        println!("smoke OK: cached replay exact, sanitizer clean ({})", name);
    } else {
        assert!(
            best_speedup >= 1.5,
            "expected >= 1.5x end-to-end reduction on at least one model, best {best_speedup:.2}x"
        );
    }
    opts.write_bench_file("BENCH_cache.json", "feature_cache", &records);
}
