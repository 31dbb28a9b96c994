//! Timeline-sanitizer integration sweep: every model in the zoo must
//! produce a hazard-free schedule in serial mode, under pipeline
//! overlap, and under pipeline overlap with coalesced transfers, and
//! every sharded driver must stay hazard-free at four shards on both
//! interconnects.
//!
//! Serial schedules are totally ordered so a hazard there means the
//! dispatcher itself is broken; the overlap modes are the interesting
//! ones — they exercise the fork/join machinery, cross-lane event
//! handoffs and (for coalesced) the staged-byte flush discipline of
//! every driver. Sharded runs add per-device lanes, shard barriers and
//! the RULE8 peer-transfer ledger.

use dgnn_bench::{build_model, default_config, measure_sanitized, MODEL_NAMES};
use dgnn_datasets::Scale;
use dgnn_device::{ExecMode, PlatformSpec};
use dgnn_models::{InferenceConfig, TransferGranularity};

const SEED: u64 = 7;

fn shrink(cfg: InferenceConfig) -> InferenceConfig {
    // Tiny datasets + few units keep the sweep fast while still running
    // multiple batches through every lane.
    cfg.with_max_units(2)
}

fn assert_clean(name: &str, mode_desc: &str, spec: PlatformSpec, cfg: &InferenceConfig) {
    let mut model = build_model(name, Scale::Tiny, SEED);
    let (report, _run) = measure_sanitized(model.as_mut(), spec, ExecMode::Gpu, cfg);
    assert!(
        report.is_clean(),
        "{name} ({mode_desc}) produced hazards:\n{report}"
    );
    assert!(
        report.stats.trace_records > 0,
        "{name} ({mode_desc}) recorded no trace — tracing hook broken"
    );
}

#[test]
fn all_models_are_hazard_free_in_serial_mode() {
    for &name in MODEL_NAMES {
        let cfg = shrink(default_config(name));
        assert_clean(name, "serial", PlatformSpec::default(), &cfg);
    }
}

#[test]
fn all_models_are_hazard_free_under_pipeline_overlap() {
    for &name in MODEL_NAMES {
        let cfg = shrink(default_config(name)).with_pipeline_overlap(true);
        assert_clean(name, "pipeline_overlap", PlatformSpec::default(), &cfg);
    }
}

#[test]
fn all_models_are_hazard_free_under_overlap_with_coalescing() {
    for &name in MODEL_NAMES {
        let cfg = shrink(default_config(name))
            .with_pipeline_overlap(true)
            .with_transfer_granularity(TransferGranularity::Coalesced);
        assert_clean(
            name,
            "pipeline_overlap+coalesced",
            PlatformSpec::default(),
            &cfg,
        );
    }
}

#[test]
fn sharded_drivers_are_hazard_free_at_four_shards() {
    for name in ["tgn", "tgat", "moldgnn", "evolvegcn_o", "evolvegcn_h"] {
        let sharded = shrink(default_config(name)).with_shards(4);
        for (topology, spec) in [
            ("nvlink", PlatformSpec::multi_gpu_nvlink(4)),
            ("pcie", PlatformSpec::multi_gpu_pcie(4)),
        ] {
            for (knobs, cfg) in [
                ("serial", sharded.clone()),
                (
                    "overlap+coalesced",
                    sharded
                        .clone()
                        .with_pipeline_overlap(true)
                        .with_transfer_granularity(TransferGranularity::Coalesced),
                ),
                ("cache", sharded.clone().with_feature_cache(4096)),
            ] {
                assert_clean(
                    name,
                    &format!("4 shards {topology} {knobs}"),
                    spec.clone(),
                    &cfg,
                );
            }
        }
    }
}

#[test]
fn cpu_runs_trace_cleanly_too() {
    // CPU-only execution records accesses but no crossings; the
    // sanitizer must not confuse host tensors with device residents.
    for &name in MODEL_NAMES {
        let cfg = shrink(default_config(name));
        let mut model = build_model(name, Scale::Tiny, SEED);
        let (report, _run) = measure_sanitized(
            model.as_mut(),
            PlatformSpec::default(),
            ExecMode::CpuOnly,
            &cfg,
        );
        assert!(report.is_clean(), "{name} (cpu): \n{report}");
        assert_eq!(
            report.stats.priced_bytes,
            [0, 0],
            "{name} (cpu) priced PCIe bytes without a GPU"
        );
    }
}
