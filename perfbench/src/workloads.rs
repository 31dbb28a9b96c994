//! The three workloads: set-up, one measured iteration, and the
//! simulated-clock summary of what the iteration produced.
//!
//! Each workload enters the program only through public entry points
//! (`served_zoo`, `serve_fleet`, `serve_streaming`, `build_model`,
//! `DgnnModel::run`, `InferenceProfile::capture`, `audit`). Traced
//! iterations swap in the wrappers from [`crate::spans`], which forward
//! every call unchanged.

use std::collections::BTreeMap;

use dgnn_bench::harness::walltime;
use dgnn_bench::{build_model, default_config, served_zoo, MODEL_NAMES};
use dgnn_datasets::{wikipedia, Scale};
use dgnn_device::{
    CacheStats, DurationNs, EventCategory, ExecMode, Executor, PlatformSpec, TransferDir,
};
use dgnn_models::{DgnnModel, InferenceConfig, TransferGranularity};
use dgnn_profile::{InferenceProfile, LatencyStats};
use dgnn_serve::{
    serve_fleet, serve_streaming, AutoscalerConfig, FleetConfig, FleetOutcome, RouterPolicy,
    ServeConfig, ServedModel, ServedRequest, StreamingConfig, StreamingOutcome, WorkloadShape,
};

use crate::{spans, stats};

/// Requests each serving workload offers: enough that nearest-rank p95
/// leaves ten samples beyond it.
const REQUESTS: usize = 200;

/// The latency target a served request must meet (fleet and stream).
const SLO: DurationNs = DurationNs::from_nanos(10_000_000_000);

/// `fleet_sweep`'s served mix.
const FLEET_MIX: [&str; 4] = ["jodie", "tgn", "dyrep", "ldg_mlp"];

/// The five configurations every zoo model runs under, in run order.
const ZOO_CONFIGS: [&str; 5] = ["serial", "overlap", "cache", "nvlink4", "cpu"];

/// Feature-cache capacity (rows) of the `cache` configuration.
const ZOO_CACHE_ROWS: usize = 4096;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Autoscaled fleet under a flash crowd.
    FleetFlash,
    /// One TGN pool serving queries that race live ingestion.
    StreamIngest,
    /// Every model under five configurations, traced and audited.
    ZooAudit,
}

impl Workload {
    /// All workloads, in presentation order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetFlash,
        Workload::StreamIngest,
        Workload::ZooAudit,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetFlash => "fleet_flash",
            Workload::StreamIngest => "stream_ingest",
            Workload::ZooAudit => "zoo_audit",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Name of the span around the measured call.
    pub fn outer_span(self) -> &'static str {
        match self {
            Workload::FleetFlash => "serve_fleet",
            Workload::StreamIngest => "serve_streaming",
            Workload::ZooAudit => "zoo_audit",
        }
    }

    /// Whether the workload serves requests (fleet and stream).
    pub(crate) fn serves(self) -> bool {
        self != Workload::ZooAudit
    }

    /// Whether the program runs on one worker thread rather than its
    /// default (`available_parallelism`). At the default, most of
    /// `zoo_audit`'s host time is per-call thread spawns on 32-row work,
    /// so it follows how fast the host wakes an idle vCPU: on a shared
    /// 2-vCPU machine two ten-seed sets differed by 92% in median
    /// `wall_s`, while at one worker two sets had spreads of 0.05–0.08. The
    /// fan-out cost is then measured only by `tensor.par.fanout_ratio`,
    /// which every traced run reports: the serving workloads keep the
    /// default but barely pay for it.
    pub(crate) fn single_threaded(self) -> bool {
        self == Workload::ZooAudit
    }
}

fn fleet_config(seed: u64) -> FleetConfig {
    // `fleet_sweep`'s affinity-first autoscaled flash-crowd cell.
    FleetConfig {
        seed,
        n_requests: REQUESTS,
        arrival_rate_rps: 1.0,
        shape: WorkloadShape::FlashCrowd {
            at: DurationNs::from_secs_f64(10.0),
            duration: DurationNs::from_secs_f64(30.0),
            multiplier: 20.0,
        },
        policy: RouterPolicy::AffinityFirst,
        batch_window: DurationNs::from_millis(50),
        max_batch: 4,
        initial_pools: 2,
        replicas_per_pool: 2,
        queue_bound: 32,
        slo: SLO,
        autoscaler: Some(AutoscalerConfig {
            min_pools: 1,
            max_pools: 6,
            scale_out_queue: 4,
            scale_in_queue: 1,
            idle_window: DurationNs::from_secs_f64(4.0),
            cooldown: DurationNs::from_secs_f64(2.0),
        }),
        mode: ExecMode::Gpu,
        trace: false,
        spec: PlatformSpec::default(),
    }
}

fn stream_config(seed: u64) -> ServeConfig {
    // Slow queries (200 over ~400 s): few arrive during the ~5 s pool
    // provisioning, so p95 measures service rather than start-up.
    ServeConfig {
        seed,
        n_requests: REQUESTS,
        arrival_rate_rps: 0.5,
        batch_window: DurationNs::from_millis(2),
        max_batch: 4,
        pool_size: 1,
        queue_bound: 1024,
        mode: ExecMode::Gpu,
        trace: false,
        spec: PlatformSpec::default(),
    }
}

/// Simulated seconds the ingest stream spans at any scale: longer than
/// the ~400 s of queries, so every query races live appends (30 events/s
/// at Small scale).
const STREAM_INGEST_SPAN_S: f64 = 520.0;

/// The platform, mode and inference configuration of one zoo cell.
fn zoo_cell(name: &str, config: &str) -> (PlatformSpec, ExecMode, InferenceConfig) {
    let base = default_config(name);
    match config {
        "serial" => (PlatformSpec::default(), ExecMode::Gpu, base),
        "overlap" => (
            PlatformSpec::default(),
            ExecMode::Gpu,
            base.with_pipeline_overlap(true)
                .with_transfer_granularity(TransferGranularity::Coalesced),
        ),
        "cache" => (
            PlatformSpec::default(),
            ExecMode::Gpu,
            base.with_feature_cache(ZOO_CACHE_ROWS),
        ),
        "nvlink4" => (
            PlatformSpec::multi_gpu_nvlink(4),
            ExecMode::Gpu,
            base.with_shards(4),
        ),
        "cpu" => (PlatformSpec::default(), ExecMode::CpuOnly, base),
        other => unreachable!("unknown zoo configuration `{other}`"),
    }
}

/// Everything one iteration builds before its measured phase.
pub(crate) enum Setup {
    /// Fleet zoo and configuration.
    Fleet {
        /// Served mix.
        zoo: Vec<ServedModel>,
        /// Fleet configuration.
        cfg: Box<FleetConfig>,
    },
    /// Stream zoo, serving and ingest configuration.
    Stream {
        /// Served mix (TGN).
        zoo: Vec<ServedModel>,
        /// Serving configuration.
        cfg: Box<ServeConfig>,
        /// Ingest configuration over the dataset's stream.
        scfg: Box<StreamingConfig>,
    },
    /// Built zoo models, in `MODEL_NAMES` order.
    Zoo {
        /// One model per name.
        models: Vec<Box<dyn DgnnModel>>,
    },
}

fn zoo_handles(names: &[&str], scale: Scale, seed: u64, traced: bool) -> Vec<ServedModel> {
    let zoo = served_zoo(names, scale, seed);
    if !traced {
        return zoo;
    }
    zoo.into_iter()
        .map(|m| ServedModel {
            handle: spans::traced_handle(m.handle),
            ..m
        })
        .collect()
}

impl Setup {
    /// Generates datasets and builds the zoo or models for `workload`.
    pub(crate) fn new(workload: Workload, scale: Scale, seed: u64, traced: bool) -> Setup {
        match workload {
            Workload::FleetFlash => Setup::Fleet {
                zoo: zoo_handles(&FLEET_MIX, scale, seed, traced),
                cfg: Box::new(fleet_config(seed)),
            },
            Workload::StreamIngest => {
                let mut scfg = StreamingConfig::new(wikipedia(scale, seed).stream);
                scfg.ingest_rate_eps = scfg.stream.events().len() as f64 / STREAM_INGEST_SPAN_S;
                Setup::Stream {
                    zoo: zoo_handles(&["tgn"], scale, seed, traced),
                    cfg: Box::new(stream_config(seed)),
                    scfg: Box::new(scfg),
                }
            }
            Workload::ZooAudit => Setup::Zoo {
                models: MODEL_NAMES
                    .iter()
                    .map(|name| {
                        let build = || build_model(name, scale, seed);
                        if traced {
                            spans::traced_build(build)
                        } else {
                            build()
                        }
                    })
                    .collect(),
            },
        }
    }

    /// Runs the measured phase. Only calls into the program are timed,
    /// and only the zoo's device read-out runs inside the timed call: each
    /// zoo cell folds its executor into [`DeviceStats`] and drops it, so
    /// memory holds one session at a time.
    pub(crate) fn measure(&mut self) -> Measured {
        let mut m = Measured::default();
        match self {
            Setup::Fleet { zoo, cfg } => {
                let out = m.call(|| spans::scoped("serve_fleet", || serve_fleet(cfg, zoo)));
                m.sim = summarize_fleet(&out);
            }
            Setup::Stream { zoo, cfg, scfg } => {
                let out =
                    m.call(|| spans::scoped("serve_streaming", || serve_streaming(cfg, scfg, zoo)));
                m.sim = summarize_stream(&out, scfg.stream.events().len());
            }
            Setup::Zoo { models } => {
                let mut device = DeviceStats::default();
                let cells = m.call(|| {
                    spans::scoped("zoo_audit", || {
                        let mut cells = Vec::with_capacity(models.len() * ZOO_CONFIGS.len());
                        for (name, model) in MODEL_NAMES.iter().zip(models.iter_mut()) {
                            for config in ZOO_CONFIGS {
                                cells.push(run_cell(name, config, model.as_mut(), &mut device));
                            }
                        }
                        cells
                    })
                });
                m.sim = summarize_zoo(&cells, device);
            }
        }
        m
    }
}

/// What one measured phase cost on the host and produced on the
/// simulated clock.
#[derive(Default)]
pub(crate) struct Measured {
    /// Host seconds of each call into the program, in call order.
    pub call_s: Vec<f64>,
    /// Peak RSS (MiB) of each call, each in its own window.
    pub peak_rss_mib: Vec<f64>,
    /// The simulated-clock summary.
    pub sim: SimOutcome,
}

impl Measured {
    fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        stats::reset_peak_rss();
        let t = walltime();
        let out = f();
        self.call_s.push(t.elapsed().as_secs_f64());
        self.peak_rss_mib.extend(stats::peak_rss_mib());
        out
    }

    /// Host seconds spent inside calls into the program.
    pub fn wall_s(&self) -> f64 {
        self.call_s.iter().sum()
    }
}

/// One zoo run: what capture and audit saw.
pub(crate) struct Cell {
    /// Model name.
    pub model: &'static str,
    /// Simulated inference time `capture` measured (zero on error).
    pub inference: DurationNs,
    /// Output checksum (`None` when the run errored).
    pub checksum: Option<f32>,
    /// Hazards the audit found.
    pub hazards: usize,
}

fn run_cell(name: &str, config: &str, model: &mut dyn DgnnModel, device: &mut DeviceStats) -> Cell {
    let (spec, mode, cfg) = zoo_cell(name, config);
    let mut ex = Executor::new(spec, mode);
    ex.enable_tracing();
    let model_name = model.name();
    let cell = match model.run(&mut ex, &cfg) {
        Ok(summary) => {
            let profile = spans::scoped(spans::CAPTURE, || {
                InferenceProfile::capture(&ex, "inference")
            });
            let records = ex.trace().map_or(0, |t| t.len() as u64);
            let idx = spans::enter(spans::AUDIT, None);
            let report = dgnn_analysis::audit(&ex);
            spans::exit(idx, records, 0);
            Cell {
                model: model_name,
                inference: profile.inference_time,
                checksum: Some(summary.checksum),
                hazards: report.hazards.len(),
            }
        }
        Err(e) => {
            eprintln!("zoo_audit: {name} under {config} failed: {e}");
            Cell {
                model: model_name,
                inference: DurationNs::ZERO,
                checksum: None,
                hazards: 0,
            }
        }
    };
    device.add(&ex);
    cell
}

/// Timeline and cache counters summed over every executor a run used.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct DeviceStats {
    /// Kernel events.
    pub kernels: u64,
    /// PCIe transfer events.
    pub transfers: u64,
    /// Host-work events.
    pub host: u64,
    /// Peer (GPU-GPU) transfer events.
    pub peer: u64,
    /// Bytes host to device.
    pub h2d_bytes: u64,
    /// Bytes device to host.
    pub d2h_bytes: u64,
    /// Bytes over peer links.
    pub peer_bytes: u64,
    /// Provenance trace records.
    pub trace_records: u64,
    /// Feature-cache counters.
    pub cache: CacheStats,
    /// Kernel-busy time on device 0, summed over executors (sim ns).
    pub gpu_busy_ns: f64,
    /// Timeline spans summed over executors (sim ns).
    pub span_ns: u64,
}

impl DeviceStats {
    fn add(&mut self, ex: &Executor) {
        let timeline = ex.timeline();
        for e in timeline.events() {
            match e.category {
                EventCategory::Kernel(_) => self.kernels += 1,
                EventCategory::Transfer(_) => self.transfers += 1,
                EventCategory::Host => self.host += 1,
                EventCategory::PeerTransfer => self.peer += 1,
                _ => {}
            }
        }
        self.h2d_bytes += timeline.transfer_bytes(Some(TransferDir::H2D));
        self.d2h_bytes += timeline.transfer_bytes(Some(TransferDir::D2H));
        self.peer_bytes += timeline.peer_bytes();
        self.trace_records += ex.trace().map_or(0, |t| t.len() as u64);
        self.cache.accumulate(&ex.cache_stats());
        let end = timeline.span_end();
        self.gpu_busy_ns +=
            timeline.gpu_busy_fraction(DurationNs::ZERO, end) * end.as_nanos() as f64;
        self.span_ns += end.as_nanos();
    }

    /// Kernel-busy share of all executors' timeline spans.
    pub fn gpu_busy_fraction(&self) -> f64 {
        if self.span_ns == 0 {
            0.0
        } else {
            self.gpu_busy_ns / self.span_ns as f64
        }
    }
}

/// Serving-layer counters (zero on `zoo_audit`).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ServeStats {
    /// Dispatched batches.
    pub batches: usize,
    /// Services that paid a model swap.
    pub cold: usize,
    /// Services on a warm replica.
    pub warm: usize,
    /// Mean requests per batch.
    pub mean_batch: f64,
    /// Autoscaler spawns.
    pub scale_outs: usize,
    /// Autoscaler drains.
    pub scale_ins: usize,
    /// p95 queue wait (sim ns).
    pub queue_wait_p95_ns: u64,
    /// Replica-seconds billed (sim).
    pub replica_seconds: f64,
}

/// Ingest-side counters (zero outside `stream_ingest`).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct IngestStats {
    /// Events appended.
    pub appends: usize,
    /// Delta-log compactions.
    pub compactions: usize,
    /// Host-lane time priced for appends and compactions (sim ns).
    pub ingest_busy_ns: u64,
    /// Host-lane time priced for query sampling (sim ns).
    pub sample_busy_ns: u64,
    /// Events in the stream.
    pub stream_events: usize,
    /// Order-sensitive checksum of the ingested node memory.
    pub memory_checksum: u64,
}

/// The simulated-clock result of one iteration: deterministic per seed,
/// so two iterations (traced or not) must compare equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct SimOutcome {
    /// Requests offered (serving) or runs attempted (zoo).
    pub offered: usize,
    /// Requests served (serving) or runs completed (zoo).
    pub served: usize,
    /// Requests shed by backpressure.
    pub shed: usize,
    /// Zoo runs that returned an error.
    pub errored: usize,
    /// Audited zoo runs with at least one hazard.
    pub hazard_runs: usize,
    /// Hazards over all audits.
    pub hazards: usize,
    /// Served requests within the SLO.
    pub slo_met: usize,
    /// Latency samples (served requests).
    pub latency_n: usize,
    /// Nearest-rank p50 latency (sim ns).
    pub p50_ns: u64,
    /// Nearest-rank p95 latency (sim ns).
    pub p95_ns: u64,
    /// Nearest-rank p95 staleness (sim ns).
    pub staleness_p95_ns: u64,
    /// Simulated inference time summed over every run (sim ns).
    pub inference_ns: u64,
    /// The same, per model name.
    pub inference_by_model: BTreeMap<&'static str, u64>,
    /// Every run and batch checksum, in run or dispatch order.
    pub checksums: Vec<u32>,
    /// Serving counters.
    pub serve: ServeStats,
    /// Ingest counters.
    pub ingest: IngestStats,
    /// Device counters.
    pub device: DeviceStats,
}

fn summarize_fleet(out: &FleetOutcome) -> SimOutcome {
    let r = &out.report;
    let mut sim = SimOutcome::default();
    for ex in &out.sessions {
        sim.device.add(ex);
    }
    for b in &out.batches {
        *sim.inference_by_model
            .entry(FLEET_MIX[b.batch.model])
            .or_default() += b.batch.summary.inference_time.as_nanos();
        sim.checksums.push(b.batch.summary.checksum.to_bits());
    }
    let latencies: Vec<DurationNs> = out.requests.iter().map(ServedRequest::latency).collect();
    let queue_waits: Vec<DurationNs> = out.requests.iter().map(ServedRequest::queue_wait).collect();
    let latency = LatencyStats::from_durations(&latencies);
    sim.offered = r.offered;
    sim.served = r.served;
    sim.shed = r.shed;
    sim.slo_met = r.slo_attained;
    sim.latency_n = latency.n;
    sim.p50_ns = latency.p50.as_nanos();
    sim.p95_ns = latency.p95.as_nanos();
    sim.inference_ns = sim.inference_by_model.values().sum();
    sim.serve = ServeStats {
        batches: r.batches,
        cold: r.cold_services,
        warm: r.warm_services,
        mean_batch: r.served as f64 / r.batches.max(1) as f64,
        scale_outs: r.scale_outs,
        scale_ins: r.scale_ins,
        queue_wait_p95_ns: LatencyStats::from_durations(&queue_waits).p95.as_nanos(),
        replica_seconds: r.replica_seconds,
    };
    sim
}

fn summarize_stream(out: &StreamingOutcome, stream_events: usize) -> SimOutcome {
    let r = &out.serve.report;
    let mut sim = SimOutcome::default();
    for ex in &out.serve.sessions {
        sim.device.add(ex);
    }
    sim.device.add(&out.ingest_session);
    for b in &out.serve.batches {
        *sim.inference_by_model.entry("tgn").or_default() += b.summary.inference_time.as_nanos();
        sim.checksums.push(b.summary.checksum.to_bits());
    }
    let busy = |labels: &[&str]| -> u64 {
        out.ingest_session
            .timeline()
            .events()
            .iter()
            .filter(|e| labels.contains(&e.label))
            .map(|e| e.duration().as_nanos())
            .sum()
    };
    sim.offered = r.offered;
    sim.served = r.served;
    sim.shed = r.shed;
    sim.slo_met = out
        .serve
        .requests
        .iter()
        .filter(|q| q.latency() <= SLO)
        .count();
    sim.latency_n = r.latency.n;
    sim.p50_ns = r.latency.p50.as_nanos();
    sim.p95_ns = r.latency.p95.as_nanos();
    sim.staleness_p95_ns = r.staleness.p95.as_nanos();
    sim.inference_ns = sim.inference_by_model.values().sum();
    sim.serve = ServeStats {
        batches: r.batches,
        cold: r.cold_services,
        warm: r.warm_services,
        mean_batch: r.mean_batch_size,
        scale_outs: 0,
        scale_ins: 0,
        queue_wait_p95_ns: r.queue_wait.p95.as_nanos(),
        replica_seconds: r.pool_size as f64 * r.makespan.as_secs_f64(),
    };
    sim.ingest = IngestStats {
        appends: out.ingested,
        compactions: out.compactions,
        ingest_busy_ns: busy(&["graph_append", "graph_compact"]),
        sample_busy_ns: busy(&["stream_sample"]),
        stream_events,
        memory_checksum: out.memory_checksum,
    };
    sim
}

fn summarize_zoo(cells: &[Cell], device: DeviceStats) -> SimOutcome {
    let mut sim = SimOutcome {
        device,
        ..SimOutcome::default()
    };
    for c in cells {
        *sim.inference_by_model.entry(c.model).or_default() += c.inference.as_nanos();
        sim.checksums
            .push(c.checksum.map_or(u32::MAX, f32::to_bits));
    }
    sim.offered = cells.len();
    sim.served = cells.iter().filter(|c| c.checksum.is_some()).count();
    sim.errored = sim.offered - sim.served;
    sim.hazard_runs = cells.iter().filter(|c| c.hazards > 0).count();
    sim.hazards = cells.iter().map(|c| c.hazards).sum();
    sim.inference_ns = sim.inference_by_model.values().sum();
    sim
}
