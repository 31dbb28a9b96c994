//! Property tests for the device-resident feature cache: the cache is a
//! *pricing* optimization only. Model numerics (checksums), iteration
//! counts and every byte of functional state must be identical with the
//! cache on or off; only the priced timeline (simulated time, transfer
//! bytes) may differ. Hit/miss counts must be bit-deterministic — the
//! cache keys come from seeded samplers and ordered batch walks, never
//! from map iteration order, so two identical runs agree exactly.

use dgnn_datasets::{iso17, wikipedia, Scale};
use dgnn_device::{CacheStats, ExecMode, Executor, PlatformSpec, TransferMode};
use dgnn_models::{DgnnModel, InferenceConfig, MolDgnn, RunSummary, Tgat, Tgn};

const SEED: u64 = 11;

fn models() -> Vec<(&'static str, Box<dyn DgnnModel>, InferenceConfig)> {
    vec![
        (
            "tgat",
            Box::new(Tgat::new(wikipedia(Scale::Tiny, SEED), SEED)),
            InferenceConfig::default()
                .with_batch_size(100)
                .with_max_units(3),
        ),
        (
            "tgn",
            Box::new(Tgn::new(wikipedia(Scale::Tiny, SEED), SEED)),
            InferenceConfig::default()
                .with_batch_size(100)
                .with_neighbors(10)
                .with_max_units(3),
        ),
        (
            "moldgnn",
            Box::new(MolDgnn::new(iso17(Scale::Tiny, SEED), SEED)),
            InferenceConfig::default()
                .with_batch_size(32)
                .with_max_units(2),
        ),
    ]
}

fn run(model: &mut dyn DgnnModel, cfg: &InferenceConfig) -> (RunSummary, Executor) {
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    let summary = model.run(&mut ex, cfg).expect("model runs");
    (summary, ex)
}

#[test]
fn cache_on_and_off_produce_byte_identical_numerics() {
    for (name, _, cfg) in models() {
        let (mut off_m, mut on_m) = rebuild_pair(name);
        let (off, _off_ex) = run(off_m.as_mut(), &cfg);
        let (on, on_ex) = run(on_m.as_mut(), &cfg.clone().with_feature_cache(4096));
        // Functional outputs are bit-identical: the cache only reroutes
        // pricing, never values.
        assert_eq!(
            off.checksum.to_bits(),
            on.checksum.to_bits(),
            "{name}: cache changed model numerics"
        );
        assert_eq!(off.iterations, on.iterations, "{name}");
        // The cache actually engaged (otherwise this test is vacuous).
        let stats = on_ex.cache_stats();
        assert!(stats.lookups() > 0, "{name}: cache never probed");
    }
}

#[test]
fn cache_reduces_priced_transfer_bytes_on_recurrent_workloads() {
    for (name, _, cfg) in models() {
        let (mut off_m, mut on_m) = rebuild_pair(name);
        let (_, off_ex) = run(off_m.as_mut(), &cfg);
        let (_, on_ex) = run(on_m.as_mut(), &cfg.clone().with_feature_cache(1 << 20));
        let off_bytes = off_ex.timeline().transfer_bytes(None);
        let on_bytes = on_ex.timeline().transfer_bytes(None);
        assert!(
            on_bytes < off_bytes,
            "{name}: cache should shed transfer bytes ({on_bytes} !< {off_bytes})"
        );
        assert!(
            on_ex.now() < off_ex.now(),
            "{name}: cache should shorten the simulated run"
        );
    }
}

#[test]
fn hit_and_miss_counts_are_bit_deterministic() {
    for (name, _, cfg) in models() {
        let cached = cfg.clone().with_feature_cache(2048);
        let stats_of = |m: &mut dyn DgnnModel| -> CacheStats {
            let (_, ex) = run(m, &cached);
            ex.cache_stats()
        };
        let (mut a, mut b) = rebuild_pair(name);
        let sa = stats_of(a.as_mut());
        let sb = stats_of(b.as_mut());
        assert_eq!(sa, sb, "{name}: cache stats must be deterministic");
        assert!(sa.misses > 0, "{name}: a cold cache must miss");
    }
}

#[test]
fn transfer_mode_is_a_pure_pricing_knob() {
    for (name, _, cfg) in models() {
        let (mut pinned_m, mut pageable_m) = rebuild_pair(name);
        let (pinned, pinned_ex) = run(pinned_m.as_mut(), &cfg);
        let (pageable, pageable_ex) = run(
            pageable_m.as_mut(),
            &cfg.clone().with_transfer_mode(TransferMode::Pageable),
        );
        assert_eq!(
            pinned.checksum.to_bits(),
            pageable.checksum.to_bits(),
            "{name}: transfer mode changed numerics"
        );
        // Same bytes cross; pageable just pays more per transfer.
        assert_eq!(
            pinned_ex.timeline().transfer_bytes(None),
            pageable_ex.timeline().transfer_bytes(None),
            "{name}"
        );
        assert!(
            pageable_ex.now() > pinned_ex.now(),
            "{name}: pageable transfers must cost more"
        );
    }
}

/// Two fresh, identically seeded instances of one model.
fn rebuild_pair(name: &str) -> (Box<dyn DgnnModel>, Box<dyn DgnnModel>) {
    let build = || -> Box<dyn DgnnModel> {
        match name {
            "tgat" => Box::new(Tgat::new(wikipedia(Scale::Tiny, SEED), SEED)),
            "tgn" => Box::new(Tgn::new(wikipedia(Scale::Tiny, SEED), SEED)),
            "moldgnn" => Box::new(MolDgnn::new(iso17(Scale::Tiny, SEED), SEED)),
            other => panic!("unknown model {other}"),
        }
    };
    (build(), build())
}
