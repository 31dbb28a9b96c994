//! # dgnn-bench
//!
//! Experiment harness for the paper's evaluation section. Each table and
//! figure has a dedicated binary (see `src/bin/`); this library provides
//! the shared machinery: a model factory, a standard runner that captures
//! an [`InferenceProfile`], and light CLI parsing.
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Table 1 (taxonomy)            | `table1_summary` |
//! | Fig 6 (memory & utilization)  | `fig6_mem_util` |
//! | Fig 7 (inference breakdowns)  | `fig7_breakdown` |
//! | Fig 8 (CPU vs GPU + speedup)  | `fig8_cpu_gpu` |
//! | Fig 9 (ASTGNN util timeline)  | `fig9_astgnn_timeline` |
//! | Table 2 (warm-up overhead)    | `table2_warmup` |
//! | §4.4 warm-up ratios           | `warmup_ratios` |
//! | §4.1 utilization summary      | `util_summary` |
//! | §5 / Fig 10 optimizations     | `ablation_optimizations` |
//! | §4.4 amortized (serving)      | `serve_sweep` |
//!
//! Extensions beyond the paper's figures keep the same shape — one
//! binary per question, `BENCH {json}` lines per cell, `--smoke` as
//! the CI determinism + sanitizer gate:
//!
//! | Extension | Binary |
//! |---|---|
//! | Parallel sampling vs CPU cores | `sampling_throughput` |
//! | Pipeline overlap / coalescing  | `pipeline_overlap` |
//! | Parameter sensitivity          | `sensitivity_sweep` |
//! | Streaming ingest vs queries    | `streaming_ingest` |
//! | Feature cache × transfer mode  | `feature_cache` |
//! | Multi-GPU shard matrix         | `multi_gpu` |
//! | Fleet: router × autoscaler     | `fleet_sweep` |
//! | Timeline sanitizer gate        | `sanitize` |
//! | Timeline export (nsys-like)    | `nsys_export` |

#![forbid(unsafe_code)]

pub mod harness;

use std::collections::BTreeMap;
use std::sync::Arc;

use dgnn_datasets::{
    as_snapshots, bitcoin_alpha, github, iso17, lastfm, pems, reddit, sbm, social_evolution,
    wikipedia, Scale, TemporalDataset,
};
use dgnn_device::{ExecMode, Executor, PlatformSpec};
use dgnn_models::{
    Astgnn, DgnnModel, DyRep, EvolveGcn, EvolveGcnVersion, InferenceConfig, Jodie, Ldg, LdgEncoder,
    MolDgnn, ReplicaHandle, RunSummary, Tgat, Tgn,
};
use dgnn_profile::InferenceProfile;

/// Names accepted by [`build_model`], in presentation order.
pub const MODEL_NAMES: &[&str] = &[
    "jodie",
    "tgn",
    "evolvegcn_o",
    "evolvegcn_h",
    "tgat",
    "astgnn",
    "dyrep",
    "ldg_mlp",
    "ldg_bilinear",
    "moldgnn",
];

/// Builds a model (with its default paper dataset) by name.
///
/// Extra dataset-bound variants select the dataset listed in the
/// paper's artifact appendix: `jodie@lastfm`, `tgn@lastfm`,
/// `evolvegcn_o@wikipedia`, `evolvegcn_o@reddit`, `evolvegcn_o@sbm`
/// (and `_h` forms — Fig 7i/j uses the Wikipedia/Reddit variants).
///
/// # Panics
///
/// Panics on an unknown name — binaries validate names up front.
pub fn build_model(name: &str, scale: Scale, seed: u64) -> Box<dyn DgnnModel> {
    prototype(name, &mut Datasets::new(scale, seed)).into_model()
}

/// A built model that hands out clones of itself. A prototype is never
/// run, so every clone equals a fresh build bit for bit.
trait Prototype: Send + Sync {
    /// A fresh model: a clone of the prototype.
    fn fresh(&self) -> Box<dyn DgnnModel>;
    /// The prototype itself, as a model.
    fn into_model(self: Box<Self>) -> Box<dyn DgnnModel>;
}

impl<M: DgnnModel + Clone + Send + Sync + 'static> Prototype for M {
    fn fresh(&self) -> Box<dyn DgnnModel> {
        Box::new(self.clone())
    }

    fn into_model(self: Box<Self>) -> Box<dyn DgnnModel> {
        self
    }
}

/// The interaction datasets one set of models is built over: each is
/// generated on first use and shared by every model that reads it.
struct Datasets {
    scale: Scale,
    seed: u64,
    temporal: BTreeMap<&'static str, Arc<TemporalDataset>>,
}

impl Datasets {
    fn new(scale: Scale, seed: u64) -> Self {
        Datasets {
            scale,
            seed,
            temporal: BTreeMap::new(),
        }
    }

    fn temporal(
        &mut self,
        name: &'static str,
        generate: fn(Scale, u64) -> TemporalDataset,
    ) -> Arc<TemporalDataset> {
        let (scale, seed) = (self.scale, self.seed);
        Arc::clone(
            self.temporal
                .entry(name)
                .or_insert_with(|| Arc::new(generate(scale, seed))),
        )
    }
}

/// The name → model table behind [`build_model`], [`replica_handle`]
/// and [`served_zoo`].
///
/// # Panics
///
/// Panics on an unknown name.
fn prototype(name: &str, data: &mut Datasets) -> Box<dyn Prototype> {
    let (base, dataset) = match name.split_once('@') {
        Some((b, d)) => (b, Some(d)),
        None => (name, None),
    };
    let (scale, seed) = (data.scale, data.seed);
    match base {
        "jodie" | "tgn" | "tgat" => {
            let data = match dataset {
                Some("lastfm") => data.temporal("lastfm", lastfm),
                Some("reddit") => data.temporal("reddit", reddit),
                _ => data.temporal("wikipedia", wikipedia),
            };
            match base {
                "jodie" => Box::new(Jodie::new(data, seed)),
                "tgn" => Box::new(Tgn::new(data, seed)),
                _ => Box::new(Tgat::new(data, seed)),
            }
        }
        "astgnn" => Box::new(Astgnn::new(pems(scale, seed), seed)),
        "moldgnn" => Box::new(MolDgnn::new(iso17(scale, seed), seed)),
        "dyrep" => Box::new(DyRep::new(
            data.temporal("social_evolution", social_evolution),
            seed,
        )),
        "ldg_mlp" | "ldg_bilinear" => {
            let encoder = if base == "ldg_mlp" {
                LdgEncoder::Mlp
            } else {
                LdgEncoder::Bilinear
            };
            Box::new(Ldg::new(data.temporal("github", github), encoder, seed))
        }
        "evolvegcn_o" | "evolvegcn_h" => {
            let version = if base.ends_with("_h") {
                EvolveGcnVersion::H
            } else {
                EvolveGcnVersion::O
            };
            let data = match dataset {
                Some("wikipedia") => as_snapshots(&data.temporal("wikipedia", wikipedia), 24),
                Some("reddit") => as_snapshots(&data.temporal("reddit", reddit), 24),
                Some("sbm") => sbm(scale, seed),
                _ => bitcoin_alpha(scale, seed),
            };
            Box::new(EvolveGcn::new(data, version, seed))
        }
        other => panic!("unknown model `{other}`; known: {MODEL_NAMES:?}"),
    }
}

/// A handle over the prototype of `name`: each build is a clone.
fn handle(name: &str, data: &mut Datasets) -> ReplicaHandle {
    let prototype = prototype(name, data);
    ReplicaHandle::new(name, move || prototype.fresh())
}

/// The default inference configuration each model was profiled with in
/// the paper (batch sizes, neighbor counts).
pub fn default_config(name: &str) -> InferenceConfig {
    let base = InferenceConfig::default();
    match name.split('@').next().unwrap_or(name) {
        "tgat" => base
            .with_batch_size(200)
            .with_neighbors(20)
            .with_max_units(4),
        "tgn" => base
            .with_batch_size(512)
            .with_neighbors(10)
            .with_max_units(4),
        "jodie" => base.with_batch_size(128).with_max_units(3),
        "astgnn" => base.with_batch_size(8).with_max_units(2),
        "moldgnn" => base.with_batch_size(128).with_max_units(1),
        "dyrep" | "ldg_mlp" | "ldg_bilinear" => base.with_batch_size(64).with_max_units(2),
        _ => base.with_max_units(8), // EvolveGCN: snapshots
    }
}

/// A serving-ready replica handle for `name`: builds the model (with
/// its paper dataset at `scale`) once, as a prototype that is never
/// run, and hands out a clone of it on every
/// [`ReplicaHandle::build`]. Every clone is bit-identical to a fresh
/// [`build_model`]; clones share only immutable data (datasets, event
/// streams, adjacency), never state a run mutates.
///
/// # Panics
///
/// Panics on an unknown name (same contract as [`build_model`]).
pub fn replica_handle(name: &str, scale: Scale, seed: u64) -> ReplicaHandle {
    handle(name, &mut Datasets::new(scale, seed))
}

/// A uniformly-weighted serving mix over `names`, each model bound to
/// its paper dataset at `scale` and its paper inference configuration
/// capped at one unit per request. Each handle hands out clones of a
/// never-run prototype, like [`replica_handle`]; each distinct dataset
/// is generated once and shared by every model that reads it.
///
/// # Panics
///
/// Panics on an unknown name (same contract as [`build_model`]).
pub fn served_zoo(names: &[&str], scale: Scale, seed: u64) -> Vec<dgnn_serve::ServedModel> {
    let mut data = Datasets::new(scale, seed);
    names
        .iter()
        .map(|name| dgnn_serve::ServedModel {
            handle: handle(name, &mut data),
            cfg: default_config(name).with_max_units(1),
            weight: 1.0,
        })
        .collect()
}

/// Result of one measured run.
pub struct MeasuredRun {
    /// Captured profile (breakdown, utilization, warm-up, memory).
    pub profile: InferenceProfile,
    /// Model-reported summary.
    pub summary: RunSummary,
    /// The executor, for custom timeline queries.
    pub executor: Executor,
}

/// Runs `model` under `cfg` on a fresh executor in `mode` and captures
/// the profile.
///
/// # Panics
///
/// Panics when inference fails (experiment configurations are known-good).
pub fn measure(model: &mut dyn DgnnModel, mode: ExecMode, cfg: &InferenceConfig) -> MeasuredRun {
    let mut ex = Executor::new(PlatformSpec::default(), mode);
    let summary = model
        .run(&mut ex, cfg)
        .unwrap_or_else(|e| panic!("{} inference failed: {e}", model.name()));
    let profile = InferenceProfile::capture(&ex, "inference");
    MeasuredRun {
        profile,
        summary,
        executor: ex,
    }
}

/// Runs `model` under `cfg` on a fresh executor for `spec` with
/// provenance tracing enabled, then audits the recorded execution with
/// the timeline sanitizer (`dgnn-analysis`).
///
/// # Panics
///
/// Panics when inference fails (experiment configurations are known-good).
pub fn measure_sanitized(
    model: &mut dyn DgnnModel,
    spec: PlatformSpec,
    mode: ExecMode,
    cfg: &InferenceConfig,
) -> (dgnn_analysis::SanitizerReport, MeasuredRun) {
    let mut ex = Executor::new(spec, mode);
    ex.enable_tracing();
    let summary = model
        .run(&mut ex, cfg)
        .unwrap_or_else(|e| panic!("{} inference failed: {e}", model.name()));
    let report = dgnn_analysis::audit(&ex);
    let profile = InferenceProfile::capture(&ex, "inference");
    (
        report,
        MeasuredRun {
            profile,
            summary,
            executor: ex,
        },
    )
}

/// CLI options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Dataset scale.
    pub scale: Scale,
    /// Seed for datasets and weights.
    pub seed: u64,
    /// Remaining (binary-specific) arguments.
    pub rest: Vec<String>,
}

/// Parses `--scale tiny|small|full`, `--seed N` and collects the rest.
/// Unknown flags are passed through in `rest`.
pub fn parse_opts() -> BenchOpts {
    let mut scale = Scale::Small;
    let mut seed = 1u64;
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = Scale::parse(&v)
                    .unwrap_or_else(|| panic!("bad --scale `{v}` (tiny|small|full)"));
            }
            "--seed" => {
                let v = args.next().unwrap_or_default();
                seed = v.parse().unwrap_or_else(|_| panic!("bad --seed `{v}`"));
            }
            other => rest.push(other.to_string()),
        }
    }
    BenchOpts { scale, seed, rest }
}

/// Value of a `--key value` pair in leftover args, if present.
pub fn flag_value<'a>(rest: &'a [String], key: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a == key)
        .and_then(|i| rest.get(i + 1))
        .map(String::as_str)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_model() {
        for name in MODEL_NAMES {
            let m = build_model(name, Scale::Tiny, 1);
            assert_eq!(m.name(), *name);
            assert!(m.param_bytes() > 0);
        }
    }

    #[test]
    fn factory_builds_dataset_variants() {
        let m = build_model("evolvegcn_o@wikipedia", Scale::Tiny, 1);
        assert_eq!(m.name(), "evolvegcn_o");
        let m = build_model("evolvegcn_h@reddit", Scale::Tiny, 1);
        assert_eq!(m.name(), "evolvegcn_h");
        let m = build_model("evolvegcn_o@sbm", Scale::Tiny, 1);
        assert_eq!(m.name(), "evolvegcn_o");
        let m = build_model("jodie@lastfm", Scale::Tiny, 1);
        assert_eq!(m.name(), "jodie");
        let m = build_model("tgn@lastfm", Scale::Tiny, 1);
        assert_eq!(m.name(), "tgn");
    }

    #[test]
    #[should_panic(expected = "unknown model")]
    fn factory_rejects_unknown() {
        let _ = build_model("gpt", Scale::Tiny, 1);
    }

    #[test]
    fn measure_runs_tiny_tgat() {
        let mut m = build_model("tgat", Scale::Tiny, 1);
        let cfg = InferenceConfig::default()
            .with_batch_size(50)
            .with_max_units(2);
        let run = measure(m.as_mut(), ExecMode::Gpu, &cfg);
        assert_eq!(run.summary.iterations, 2);
        assert!(run.profile.inference_time.as_nanos() > 0);
    }

    #[test]
    fn flag_value_finds_pairs() {
        let rest = vec!["--panel".to_string(), "a".to_string()];
        assert_eq!(flag_value(&rest, "--panel"), Some("a"));
        assert_eq!(flag_value(&rest, "--model"), None);
    }
}
