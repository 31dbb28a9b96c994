//! # dgnn-bench
//!
//! Experiment harness for the paper's evaluation section. Each table and
//! figure has a dedicated binary (see `src/bin/`); this library is the
//! one way each binary does each experiment job:
//!
//! * build a model: [`build_model`], [`default_config`], [`served_zoo`],
//!   and the transfer sweeps' shared [`transfer_cases`];
//! * run it: [`measure`] captures an [`InferenceProfile`] from one run
//!   on a fresh executor, and [`measure_sanitized`] is its traced twin,
//!   which also audits the run;
//! * audit serving sessions: [`assert_clean`];
//! * parse the CLI: [`parse_opts`], which rejects any argument the bin
//!   does not read, with [`BenchOpts::flag`] for the bin's own value
//!   flags and [`BenchOpts::sweep_scale`] as the sweep bins' one
//!   dataset-scale rule;
//! * report: [`emit`] prints each `BENCH {json}` record, and
//!   [`BenchOpts::write_bench_file`] writes the records to the
//!   committed `BENCH_*.json` file a full sweep regenerates.
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

/// The name → model table behind [`build_model`] and [`served_zoo`].
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

/// A uniformly-weighted serving mix over `names`, each model bound to
/// its paper dataset at `scale` and its paper inference configuration
/// capped at one unit per request.
///
/// Each handle builds its model once, as a prototype that is never run,
/// and hands out a clone of it on every [`ReplicaHandle::build`]. Every
/// clone is bit-identical to a fresh [`build_model`]; clones share only
/// immutable data (datasets, event streams, adjacency), never state a
/// run mutates. Each distinct dataset is generated once and shared by
/// every model that reads it.
///
/// # Panics
///
/// Panics on an unknown name (same contract as [`build_model`]).
pub fn served_zoo(names: &[&str], scale: Scale, seed: u64) -> Vec<dgnn_serve::ServedModel> {
    let mut data = Datasets::new(scale, seed);
    names
        .iter()
        .map(|&name| {
            let prototype = prototype(name, &mut data);
            dgnn_serve::ServedModel {
                handle: ReplicaHandle::new(name, move || prototype.fresh()),
                cfg: default_config(name).with_max_units(1),
                weight: 1.0,
            }
        })
        .collect()
}

/// The cases `feature_cache` and `multi_gpu` sweep: the recurrent
/// regimes where rows re-cross PCIe every unit. TGN moves node memory
/// for batch endpoints and sampled neighbors, TGAT neighbor features,
/// and MolDGNN per-frame adjacencies repeated over units. `smoke`
/// selects the bins' `--smoke` sizes.
pub fn transfer_cases(smoke: bool) -> Vec<(&'static str, InferenceConfig)> {
    let units = if smoke { 2 } else { 4 };
    vec![
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
    ]
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

/// Runs `model` under `cfg` on a fresh executor for `spec` in `mode`
/// and captures the profile.
///
/// # Panics
///
/// Panics when inference fails (experiment configurations are known-good).
pub fn measure(
    model: &mut dyn DgnnModel,
    spec: PlatformSpec,
    mode: ExecMode,
    cfg: &InferenceConfig,
) -> MeasuredRun {
    run(model, Executor::new(spec, mode), cfg)
}

/// [`measure`] with provenance tracing enabled, then an audit of the
/// recorded execution with the timeline sanitizer (`dgnn-analysis`).
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
    let run = run(model, ex, cfg);
    (dgnn_analysis::audit(&run.executor), run)
}

/// The one measured run behind [`measure`] and [`measure_sanitized`]:
/// `model` runs under `cfg` on the fresh executor `ex`, and the profile
/// is captured from it.
fn run(model: &mut dyn DgnnModel, mut ex: Executor, cfg: &InferenceConfig) -> MeasuredRun {
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

/// Audits every executor in `sessions` with the timeline sanitizer.
///
/// # Panics
///
/// Panics on the first session with a hazard, naming it `{what} {index}`.
pub fn assert_clean(what: &str, sessions: &[Executor]) {
    for (i, session) in sessions.iter().enumerate() {
        let report = dgnn_analysis::audit(session);
        assert!(report.is_clean(), "{what} {i} has hazards: {report}");
    }
}

/// Prints `json` as its `BENCH {json}` line and keeps it in `records`
/// for [`BenchOpts::write_bench_file`].
pub fn emit(records: &mut Vec<String>, json: String) {
    println!("BENCH {json}");
    records.push(json);
}

/// CLI options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Dataset scale.
    pub scale: Scale,
    /// Seed for datasets, weights and the serving bins' request streams.
    pub seed: u64,
    /// `--smoke`: the sweep bins' fast CI configuration.
    pub smoke: bool,
    /// The bin's declared value flags, each with the value it was given.
    flags: Vec<(&'static str, Option<String>)>,
}

impl BenchOpts {
    /// The value the command line gave `flag`, one of the value flags
    /// the bin declared to [`parse_opts`].
    ///
    /// # Panics
    ///
    /// Panics when the bin did not declare `flag`.
    pub fn flag(&self, flag: &str) -> Option<&str> {
        let (_, value) = self
            .flags
            .iter()
            .find(|(declared, _)| *declared == flag)
            .unwrap_or_else(|| panic!("`{flag}` is not a declared flag"));
        value.as_deref()
    }

    /// The dataset scale of a sweep: `Tiny` under `--smoke`, otherwise
    /// `--scale` capped at `Small`. What the sweeps study (overlap and
    /// cache shares, shard scaling, scheduling and warm-up pricing,
    /// ingest contention) does not grow with event count, and the cap
    /// keeps host-side sampling fast.
    pub fn sweep_scale(&self) -> Scale {
        match self.scale {
            _ if self.smoke => Scale::Tiny,
            Scale::Full => Scale::Small,
            s => s,
        }
    }

    /// Writes `records` to the committed baseline `path` (relative to
    /// the working directory) as the file `bin` regenerates: its
    /// `generated_by` command, the sweep scale, the seed, then one
    /// record per line. Prints `wrote …`. Under `--smoke` it writes
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics when the file cannot be written.
    pub fn write_bench_file(&self, path: &str, bin: &str, records: &[String]) {
        if self.smoke {
            return;
        }
        let scale = format!("{:?}", self.sweep_scale()).to_lowercase();
        let lines: Vec<String> = records.iter().map(|r| format!("    {r}")).collect();
        let json = format!(
            "{{\n  \"generated_by\": \"cargo run --release -p dgnn-bench --bin {bin}\",\n  \
             \"scale\": \"{scale}\",\n  \"seed\": {},\n  \"records\": [\n{}\n  ]\n}}\n",
            self.seed,
            lines.join(",\n"),
        );
        std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path} ({} records)", records.len());
    }
}

/// A value flag a bin reads through [`BenchOpts::flag`]: its name and
/// the values it accepts, where `None` accepts any value (a path).
pub type ValueFlag = (&'static str, Option<&'static [&'static str]>);

/// Parses the command line: `--scale tiny|small|full`, `--seed N`,
/// `--smoke`, and each `--flag value` pair whose flag is in `flags`,
/// the value flags the bin reads through [`BenchOpts::flag`].
///
/// Any other argument, a flag without its value, a value its flag does
/// not accept, or a bad `--scale` or `--seed` value prints an error
/// naming it and exits with status 2, before the bin does any work.
pub fn parse_opts(flags: &[ValueFlag]) -> BenchOpts {
    parse_args(std::env::args().skip(1), flags).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// [`parse_opts`] over `args`, the arguments after the program name.
fn parse_args(
    args: impl IntoIterator<Item = String>,
    flags: &[ValueFlag],
) -> Result<BenchOpts, String> {
    let mut opts = BenchOpts {
        scale: Scale::Small,
        seed: 1,
        smoke: false,
        flags: flags.iter().map(|&(flag, _)| (flag, None)).collect(),
    };
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let mut value = || {
            args.next_if(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("`{arg}` needs a value"))
        };
        match arg.as_str() {
            "--scale" => {
                let v = value()?;
                opts.scale = Scale::parse(&v)
                    .ok_or_else(|| format!("bad --scale `{v}` (tiny|small|full)"))?;
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            other => {
                let Some(pos) = flags.iter().position(|&(flag, _)| flag == other) else {
                    return Err(format!("unknown argument `{other}`"));
                };
                let v = value()?;
                if let Some(accepted) = flags[pos].1 {
                    if !accepted.contains(&v.as_str()) {
                        return Err(format!("bad {other} `{v}` ({})", accepted.join("|")));
                    }
                }
                opts.flags[pos].1 = Some(v);
            }
        }
    }
    Ok(opts)
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
        let run = measure(m.as_mut(), PlatformSpec::default(), ExecMode::Gpu, &cfg);
        assert_eq!(run.summary.iterations, 2);
        assert!(run.profile.inference_time.as_nanos() > 0);
    }

    /// [`parse_args`] over `args` with `flags` declared.
    fn parse(args: &[&str], flags: &[ValueFlag]) -> Result<BenchOpts, String> {
        parse_args(args.iter().map(|a| a.to_string()), flags)
    }

    const MODEL: ValueFlag = ("--model", Some(&["tgn", "tgat"]));

    #[test]
    fn sweep_scale_is_tiny_under_smoke_and_capped_at_small() {
        let opts = |scale, smoke| BenchOpts {
            scale,
            seed: 1,
            smoke,
            flags: Vec::new(),
        };
        assert_eq!(opts(Scale::Full, true).sweep_scale(), Scale::Tiny);
        assert_eq!(opts(Scale::Full, false).sweep_scale(), Scale::Small);
        assert_eq!(opts(Scale::Tiny, false).sweep_scale(), Scale::Tiny);
    }

    #[test]
    fn parse_reads_common_and_declared_flags() {
        let opts = parse(&[], &[MODEL]).unwrap();
        assert_eq!(
            (opts.scale, opts.seed, opts.smoke),
            (Scale::Small, 1, false)
        );
        assert_eq!(opts.flag("--model"), None);
        let args = [
            "--scale", "tiny", "--model", "tgn", "--seed", "7", "--smoke", "--out", "a/b.json",
        ];
        let opts = parse(&args, &[MODEL, ("--mode", Some(&["all"])), ("--out", None)]).unwrap();
        assert_eq!((opts.scale, opts.seed, opts.smoke), (Scale::Tiny, 7, true));
        assert_eq!(
            (
                opts.flag("--model"),
                opts.flag("--mode"),
                opts.flag("--out")
            ),
            (Some("tgn"), None, Some("a/b.json"))
        );
    }

    #[test]
    fn parse_rejects_what_the_bin_does_not_read() {
        for (args, error) in [
            (&["--smok"][..], "unknown argument `--smok`"),
            (&["--scael", "tiny"], "unknown argument `--scael`"),
            (&["--panel", "a"], "unknown argument `--panel`"),
            (&["tiny"], "unknown argument `tiny`"),
            (&["--model"], "`--model` needs a value"),
            (&["--model", "--scale", "tiny"], "`--model` needs a value"),
            (&["--seed"], "`--seed` needs a value"),
            (&["--scale", "huge"], "bad --scale `huge` (tiny|small|full)"),
            (&["--seed", "x"], "bad --seed `x`"),
            (&["--model", "gpt"], "bad --model `gpt` (tgn|tgat)"),
        ] {
            assert_eq!(parse(args, &[MODEL]).unwrap_err(), error, "{args:?}");
        }
    }

    #[test]
    #[should_panic(expected = "`--model` is not a declared flag")]
    fn flag_lookup_panics_on_an_undeclared_flag() {
        let _ = parse(&[], &[("--panel", None)]).unwrap().flag("--model");
    }
}
