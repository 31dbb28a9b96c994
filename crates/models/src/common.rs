//! Shared model-execution machinery.

use std::ops::{Deref, DerefMut};

use dgnn_device::{Dispatcher, DurationNs, EventId, ExecMode, Executor, StreamId, TransferMode};
use dgnn_graph::{EventStream, TemporalEvent};

use crate::registry::{all_model_infos, ModelInfo};
use crate::Result;

/// Cap on the number of rows the *functional* tensor math processes per
/// unit of work. Kernel and transfer costs are always priced at the full
/// configured batch size; the representative subset only bounds host-side
/// arithmetic so full-scale sweeps stay fast.
pub const REP_CAP: usize = 32;

/// Clamps a workload size to the representative cap.
pub fn representative(n: usize) -> usize {
    n.clamp(1, REP_CAP)
}

/// Seed of the TGN and TGAT temporal neighbor samplers.
pub(crate) const SAMPLER_SEED: u64 = 42;

/// How a model driver prices its per-batch PCIe traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransferGranularity {
    /// One staged transfer per logical batch payload — the calibrated
    /// aggregate the sequential simulator has always priced. Default;
    /// timelines are bit-identical to the historical engine.
    #[default]
    Staged,
    /// One priced transfer per constituent tensor (edge features,
    /// timestamps, memory-row blocks, per-molecule adjacencies) — what
    /// the profiled frameworks actually issue, paying PCIe latency per
    /// tensor. Total bytes equal the staged aggregate exactly.
    PerTensor,
    /// The per-tensor crossings of a batch merged into one priced
    /// transaction per direction (one latency + summed bytes/bandwidth)
    /// — the §5 transfer-batching mitigation.
    Coalesced,
}

/// Inference configuration shared by all models. Fields a model does not
/// use (e.g. `n_neighbors` for MolDGNN) are ignored by that model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferenceConfig {
    /// Mini-batch size: events per batch (continuous models), subgraphs
    /// or molecules per batch (ASTGNN/MolDGNN).
    pub batch_size: usize,
    /// Temporal neighbors sampled per node (TGAT, TGN).
    pub n_neighbors: usize,
    /// Number of units (mini-batches or snapshots) to process; the
    /// datasets usually contain more than needed for stable profiles.
    pub max_units: usize,
    /// When true, temporal neighbor sampling (TGAT, TGN) is charged as a
    /// parallel critical path fanned out over the batch's roots instead
    /// of a serial per-node loop — the "parallel sampling" ablation. The
    /// paper's profiled frameworks sample serially, so this defaults to
    /// `false`.
    pub parallel_sampling: bool,
    /// When true (and the mode is GPU), the inference frame forks each
    /// device's Host, Copy and Compute lanes and runs every stage a model
    /// names (host work, upload, kernels, download) on its lane, so
    /// next-batch host work and H2D prefetch overlap current-batch
    /// kernels with double-buffered staging. The profiled frameworks are
    /// strictly sequential, so this defaults to `false`; with it off each
    /// stage is a plain scope and the timeline is bit-identical to the
    /// sequential engine. A run with more than one shard forks its lanes
    /// whatever this says (see [`InferenceConfig::shards`]).
    ///
    /// TGN, TGAT, MolDGNN and EvolveGCN act on this knob. JODIE, DyRep,
    /// LDG and ASTGNN name their stages too but run one serial plan, so
    /// they price the same whatever it says.
    pub pipeline_overlap: bool,
    /// Transfer pricing granularity (see [`TransferGranularity`]). With
    /// more than one shard, TGN, MolDGNN and EvolveGCN price their copies
    /// per tensor even under `Staged`, and TGAT prices one staged upload
    /// per slice even under `PerTensor`; `Coalesced` is honored at every
    /// shard count.
    ///
    /// TGN, TGAT, MolDGNN and EvolveGCN act on this knob. JODIE, DyRep,
    /// LDG and ASTGNN run one serial plan and price the same whatever
    /// it says.
    pub transfer_granularity: TransferGranularity,
    /// Capacity (in rows) of the device-resident feature cache, or
    /// `None` (the default) for no cache. With a cache, drivers route
    /// their recurrent feature/memory-row uploads through
    /// [`dgnn_device::Dispatcher::fetch_rows`]: rows already resident on
    /// the device skip the H2D crossing entirely and only misses are
    /// priced. Model numerics are bit-identical either way — the cache
    /// changes *pricing*, never values.
    ///
    /// TGN, TGAT, MolDGNN and EvolveGCN act on this knob. JODIE, DyRep,
    /// LDG and ASTGNN run one serial plan that routes nothing through
    /// the cache, so they price the same whatever it says.
    pub feature_cache: Option<usize>,
    /// Host-memory regime for PCIe pricing (see
    /// [`dgnn_device::TransferMode`]). The default `Pinned` is
    /// bit-identical to the historical engine; `Pageable` adds the
    /// staging-buffer copy and per-transfer host metadata overhead.
    /// All eight models act on this knob.
    pub transfer_mode: TransferMode,
    /// Number of GPU shards TGN, TGAT, MolDGNN and EvolveGCN split each
    /// batch across. Their one driver runs its per-unit body once per
    /// shard on that shard's device; `1` (the default) is the one-slice
    /// case — bit-identical to every historical timeline. Values above
    /// one take effect only in GPU mode on a platform with that many
    /// devices (capped at the device count); cross-shard data lands as
    /// peer transfers priced on the interconnect. JODIE, DyRep, LDG and
    /// ASTGNN run one serial plan on one device and price the same
    /// whatever it says.
    ///
    /// Above one shard the drivers still price a few things differently
    /// from one shard under the same knobs: they always fork lanes
    /// (see [`InferenceConfig::pipeline_overlap`]), they override the
    /// `Staged`/`PerTensor` choice (see
    /// [`InferenceConfig::transfer_granularity`]), TGN drops its staged
    /// messages' D2H inside message passing and prices no neighbor rows
    /// for a slice whose representative sample found none, and every
    /// MolDGNN shard computes representative molecules `0..rep` rather
    /// than its own range's.
    pub shards: usize,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        InferenceConfig {
            batch_size: 200,
            n_neighbors: 20,
            max_units: 8,
            parallel_sampling: false,
            pipeline_overlap: false,
            transfer_granularity: TransferGranularity::Staged,
            feature_cache: None,
            transfer_mode: TransferMode::Pinned,
            shards: 1,
        }
    }
}

impl InferenceConfig {
    /// Builder-style batch size override.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Builder-style neighbor count override.
    pub fn with_neighbors(mut self, n_neighbors: usize) -> Self {
        self.n_neighbors = n_neighbors;
        self
    }

    /// Builder-style unit-count override.
    pub fn with_max_units(mut self, max_units: usize) -> Self {
        self.max_units = max_units;
        self
    }

    /// Builder-style parallel-sampling toggle (see
    /// [`InferenceConfig::parallel_sampling`]).
    pub fn with_parallel_sampling(mut self, parallel_sampling: bool) -> Self {
        self.parallel_sampling = parallel_sampling;
        self
    }

    /// Builder-style pipeline-overlap toggle (see
    /// [`InferenceConfig::pipeline_overlap`]).
    pub fn with_pipeline_overlap(mut self, pipeline_overlap: bool) -> Self {
        self.pipeline_overlap = pipeline_overlap;
        self
    }

    /// Builder-style transfer-granularity override (see
    /// [`TransferGranularity`]).
    pub fn with_transfer_granularity(mut self, granularity: TransferGranularity) -> Self {
        self.transfer_granularity = granularity;
        self
    }

    /// Builder-style feature-cache capacity override (see
    /// [`InferenceConfig::feature_cache`]).
    pub fn with_feature_cache(mut self, capacity_rows: usize) -> Self {
        self.feature_cache = Some(capacity_rows);
        self
    }

    /// Builder-style transfer-mode override (see
    /// [`dgnn_device::TransferMode`]).
    pub fn with_transfer_mode(mut self, mode: TransferMode) -> Self {
        self.transfer_mode = mode;
        self
    }

    /// Builder-style shard-count override (see
    /// [`InferenceConfig::shards`]).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Applies the config's executor-level knobs (transfer mode, feature
    /// cache) to `ex`. Every model calls this at the top of `infer`, so
    /// serving replicas that reuse one executor across requests keep a
    /// warm cache (enabling an already-enabled cache at the same
    /// capacity preserves its contents).
    pub fn apply_device_options(&self, ex: &mut Executor) {
        ex.set_transfer_mode(self.transfer_mode);
        if let Some(cap) = self.feature_cache {
            ex.enable_feature_cache(cap);
        }
    }

    /// The units of an event-stream model's run: the first `max_units`
    /// (at least one) windows of `batch_size` events of `stream`.
    pub(crate) fn batches<'s>(
        &self,
        stream: &'s EventStream,
    ) -> impl Iterator<Item = &'s [TemporalEvent]> {
        stream.batches(self.batch_size).take(self.max_units.max(1))
    }

    /// Derives the knobs one `infer` call runs under on `ex`, after
    /// applying the config's executor-level options to it (see
    /// [`InferenceConfig::apply_device_options`]).
    pub(crate) fn plan(&self, ex: &mut Executor) -> RunPlan {
        self.apply_device_options(ex);
        let gpu = ex.mode() == ExecMode::Gpu;
        // CPU runs have no device graph to shard over.
        let shards = if gpu {
            self.shards.clamp(1, ex.n_devices())
        } else {
            1
        };
        RunPlan {
            shards,
            // Multi-shard rule 1: every shard runs on its own device's
            // lane triple, so a sharded run forks even with
            // `pipeline_overlap` off. Forking one shard (Small, seed 1,
            // `multi_gpu`'s configs) moves TGN from 10.47 to 8.27 ms,
            // TGAT from 172.77 to 151.76 ms and MolDGNN from 57.79 to
            // 52.94 ms.
            lanes: (self.pipeline_overlap && gpu) || shards > 1,
            granular: self.transfer_granularity != TransferGranularity::Staged && gpu,
            cached: self.feature_cache.is_some() && gpu,
            coalesced: self.transfer_granularity == TransferGranularity::Coalesced && gpu,
        }
    }
}

/// The knobs one `infer` call runs under, derived once by
/// [`InferenceConfig::plan`] (or [`RunPlan::serial`]). Drivers run their
/// per-unit body once per shard; `shards == 1` is the single-device
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunPlan {
    /// Shards each unit splits across: the configured count capped at
    /// the platform's device count in GPU mode, `1` otherwise.
    pub(crate) shards: usize,
    /// Whether the frame forks Host/Copy/Compute lanes (one triple per
    /// shard). While they are forked, [`run_units`] places each of a
    /// unit's [`Stages`] on its lane; unforked, a stage is a plain scope.
    /// This is the one place that decides whether stages overlap.
    pub(crate) lanes: bool,
    /// Whether transfers are priced per constituent tensor (GPU mode,
    /// any granularity but [`TransferGranularity::Staged`]).
    pub(crate) granular: bool,
    /// Whether recurrent row uploads route through the device-resident
    /// feature cache (GPU mode with a cache configured).
    pub(crate) cached: bool,
    /// Whether the dispatcher merges each batch's crossings into one
    /// transaction per direction (GPU mode,
    /// [`TransferGranularity::Coalesced`]).
    pub(crate) coalesced: bool,
}

impl RunPlan {
    /// The plan of JODIE, DyRep, LDG and ASTGNN, which price their units
    /// in place: applies the config's executor-level options to `ex`,
    /// then runs one shard with no lanes, no per-tensor pricing, no
    /// cache routing and no coalescing, whatever the other knobs say.
    pub(crate) fn serial(cfg: &InferenceConfig, ex: &mut Executor) -> RunPlan {
        cfg.apply_device_options(ex);
        RunPlan {
            shards: 1,
            lanes: false,
            granular: false,
            cached: false,
            coalesced: false,
        }
    }
}

/// The inference frame of every model: opens the `"inference"` scope,
/// builds the dispatcher with the plan's coalescing, forks one lane
/// triple per shard when the plan has lanes, runs `body` on each unit
/// followed by a [`shard_barrier`], then joins the lanes. The body
/// prices its unit in [`Stages`], which place each stage on its lane
/// while the plan is forked. Returns the unit count and the duration
/// of the `"inference"` scope. A body error ends the run at once and is
/// returned.
pub(crate) fn run_units<U>(
    ex: &mut Executor,
    plan: RunPlan,
    units: impl IntoIterator<Item = U>,
    mut body: impl FnMut(&mut Stages<'_, '_>, U) -> Result<()>,
) -> Result<(usize, DurationNs)> {
    let (run, time) = ex.timed(|ex| {
        ex.scope("inference", |ex| -> Result<usize> {
            let mut dx = Dispatcher::with_coalescing(ex, plan.coalesced);
            let mut lanes = Vec::new();
            if plan.lanes {
                dx.executor().fork_streams(plan.shards);
                lanes.resize_with(plan.shards, Lanes::default);
            }
            let mut stages = Stages {
                dx: &mut dx,
                lanes: &mut lanes,
            };
            let mut iterations = 0;
            for unit in units {
                body(&mut stages, unit)?;
                shard_barrier(&mut stages, plan.shards);
                iterations += 1;
            }
            if plan.lanes {
                stages.executor().join_streams();
            }
            Ok(iterations)
        })
    });
    Ok((run?, time))
}

/// The four kinds of stage a unit is priced in (see [`Stages`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Prep,
    Upload,
    Compute,
    Readback,
}

/// One device's lane state while the plan is forked (see [`Stages`]).
#[derive(Debug, Default)]
struct Lanes {
    /// Per lane, by [`StreamId::index`]: whether it holds work no other
    /// lane has waited on since.
    unwaited: [bool; 3],
    /// Copy-lane events marking the first upload of each of the last
    /// two steps, oldest first.
    uploads: [Option<EventId>; 2],
    /// Whether the current step has run a host stage.
    open: bool,
    /// Whether the current step has marked its upload.
    marked: bool,
}

/// The dispatcher a [`run_units`] body prices its unit with. Models
/// name their work in four stages — host work ([`Stages::prep`]), an
/// upload ([`Stages::h2d`]), kernels ([`Stages::compute`]) and a
/// download ([`Stages::d2h`]) — and reach everything else through the
/// [`Dispatcher`] it derefs to. Transfer stages price coalesced copies
/// before their scope closes.
///
/// Unforked, a stage is a plain scope. While the plan is forked, a stage
/// runs on its lane of the current device, after the lanes it reads
/// from: an upload after host work no lane has waited on yet, compute
/// after such host work and uploads, a download after such compute. A
/// *step* runs from its first host stage to its download. That host
/// stage first waits until the upload two steps back has drained the
/// staging buffer it fills (depth-2 double buffering), and the step's
/// first upload marks its own buffer drained.
pub(crate) struct Stages<'s, 'a> {
    dx: &'s mut Dispatcher<'a>,
    /// One entry per forked device; empty while the plan is unforked.
    lanes: &'s mut [Lanes],
}

impl<'a> Deref for Stages<'_, 'a> {
    type Target = Dispatcher<'a>;

    fn deref(&self) -> &Dispatcher<'a> {
        self.dx
    }
}

impl<'a> DerefMut for Stages<'_, 'a> {
    fn deref_mut(&mut self) -> &mut Dispatcher<'a> {
        self.dx
    }
}

impl<'a> Stages<'_, 'a> {
    /// Runs `f` with every priced action targeting `device` (see
    /// [`Dispatcher::on_device`]); its stages use that device's lanes.
    pub(crate) fn on_device<R>(
        &mut self,
        device: usize,
        f: impl FnOnce(&mut Stages<'_, 'a>) -> R,
    ) -> R {
        let lanes = &mut *self.lanes;
        self.dx.on_device(device, |dx| f(&mut Stages { dx, lanes }))
    }

    /// Runs `f`'s stages inside a named profiler scope.
    pub(crate) fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Stages<'_, 'a>) -> R) -> R {
        let lanes = &mut *self.lanes;
        self.dx.scope(name, |dx| f(&mut Stages { dx, lanes }))
    }

    /// Host work in scope `name`, on the host lane.
    pub(crate) fn prep<R>(&mut self, name: &str, f: impl FnOnce(&mut Dispatcher<'a>) -> R) -> R {
        self.stage(Stage::Prep, Some(name), f)
    }

    /// An upload in scope `memcpy_h2d`, on the copy lane.
    pub(crate) fn h2d<R>(&mut self, f: impl FnOnce(&mut Dispatcher<'a>) -> R) -> R {
        self.stage(Stage::Upload, Some("memcpy_h2d"), f)
    }

    /// Kernels in scope `name`, or in none, on the compute lane.
    pub(crate) fn compute<'n, R>(
        &mut self,
        name: impl Into<Option<&'n str>>,
        f: impl FnOnce(&mut Dispatcher<'a>) -> R,
    ) -> R {
        self.stage(Stage::Compute, name.into(), f)
    }

    /// A download in scope `memcpy_d2h`, on the copy lane.
    pub(crate) fn d2h<R>(&mut self, f: impl FnOnce(&mut Dispatcher<'a>) -> R) -> R {
        self.stage(Stage::Readback, Some("memcpy_d2h"), f)
    }

    fn stage<R>(
        &mut self,
        stage: Stage,
        name: Option<&str>,
        f: impl FnOnce(&mut Dispatcher<'a>) -> R,
    ) -> R {
        let (lane, reads): (StreamId, &[StreamId]) = match stage {
            Stage::Prep => (StreamId::Host, &[]),
            Stage::Upload => (StreamId::Copy, &[StreamId::Host]),
            Stage::Compute => (StreamId::Compute, &[StreamId::Host, StreamId::Copy]),
            Stage::Readback => (StreamId::Copy, &[StreamId::Compute]),
        };
        let run = |dx: &mut Dispatcher<'a>| match name {
            Some(name) => dx.scope(name, |dx| {
                let out = f(dx);
                if lane == StreamId::Copy {
                    dx.flush_transfers();
                }
                out
            }),
            None => f(dx),
        };
        let dx = &mut *self.dx;
        let Some(state) = self.lanes.get_mut(dx.executor().current_device()) else {
            return run(dx);
        };
        if stage == Stage::Prep && !std::mem::replace(&mut state.open, true) {
            if let Some(drained) = state.uploads[0] {
                dx.executor().wait_event(StreamId::Host, drained);
            }
        }
        for &from in reads {
            if std::mem::take(&mut state.unwaited[from.index()]) {
                let ex = dx.executor();
                let done = ex.record_event(from);
                ex.wait_event(lane, done);
            }
        }
        let out = dx.on_stream(lane, run);
        state.unwaited[lane.index()] = true;
        match stage {
            Stage::Upload if !std::mem::replace(&mut state.marked, true) => {
                let drained = dx.executor().record_event(StreamId::Copy);
                state.uploads = [state.uploads[1], Some(drained)];
            }
            Stage::Readback => (state.open, state.marked) = (false, false),
            _ => {}
        }
        out
    }
}

/// Owning shard of node `v` under the contiguous-range layout of
/// [`dgnn_graph::contiguous_ranges`]`(n_nodes, shards)`, where the first
/// `n_nodes % shards` ranges hold one extra node. Temporal drivers use
/// it to decide which device owns an event's endpoints and sampled
/// neighbors; it is computed rather than tabled, so a one-shard run
/// does no per-node work.
pub(crate) fn range_owner(v: usize, n_nodes: usize, shards: usize) -> usize {
    let base = n_nodes / shards;
    let rem = n_nodes % shards;
    let long = rem * (base + 1);
    if v < long {
        v / (base + 1)
    } else {
        rem + (v - long) / base
    }
}

/// All-to-all barrier across a multi-device fork at a batch boundary:
/// every device marks its copy and compute lanes, then every device's
/// three lanes wait on every other device's marks — no shard starts
/// batch `i + 1` before every shard has finished batch `i` (the
/// framework-level `cudaDeviceSynchronize` between sharded steps). A
/// single shard has no peer to wait for, so `shards < 2` is a no-op.
fn shard_barrier(dx: &mut Dispatcher, shards: usize) {
    if shards < 2 {
        return;
    }
    let mut marks: Vec<(usize, EventId)> = Vec::with_capacity(shards * 2);
    for dev in 0..shards {
        dx.on_device(dev, |dx| {
            let ex = dx.executor();
            marks.push((dev, ex.record_event(StreamId::Copy)));
            marks.push((dev, ex.record_event(StreamId::Compute)));
        });
    }
    for dev in 0..shards {
        dx.on_device(dev, |dx| {
            for &(owner, mark) in &marks {
                if owner != dev {
                    for lane in StreamId::ALL {
                        dx.executor().wait_event(lane, mark);
                    }
                }
            }
        });
    }
}

/// Outcome of one inference run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Units (mini-batches / snapshots) processed.
    pub iterations: usize,
    /// Total simulated time inside the `"inference"` scope.
    pub inference_time: DurationNs,
    /// Mean time per unit — the denominator of the §4.4 warm-up ratios.
    pub unit_time: DurationNs,
    /// Deterministic checksum over representative outputs (numeric
    /// sanity: finite and reproducible).
    pub checksum: f32,
}

impl RunSummary {
    /// Builds a summary from totals.
    pub fn new(iterations: usize, inference_time: DurationNs, checksum: f32) -> Self {
        let unit_time = if iterations > 0 {
            DurationNs::from_nanos(inference_time.as_nanos() / iterations as u64)
        } else {
            DurationNs::ZERO
        };
        RunSummary {
            iterations,
            inference_time,
            unit_time,
            checksum,
        }
    }
}

/// A profiled dynamic graph neural network.
///
/// Implementations price kernels/transfers at full batch size, compute
/// representative numerics, and annotate profiler scopes per the Figure 7
/// module taxonomy. Each model's `infer` names its units and a per-unit
/// body that names its stages, and runs them in the crate's one inference
/// frame, which owns the `"inference"` scope, the dispatcher, the lanes
/// the stages run on and the shard barrier.
pub trait DgnnModel {
    /// Model name (lowercase, e.g. `"tgat"`).
    fn name(&self) -> &'static str;

    /// Table 1 metadata: the row of the model's family, which is its name
    /// up to the first `_` (`ldg_mlp` → `ldg`, `evolvegcn_h` →
    /// `evolvegcn`).
    ///
    /// # Panics
    ///
    /// Panics when the family has no Table 1 row.
    fn info(&self) -> ModelInfo {
        let name = self.name();
        let family = name.split_once('_').map_or(name, |(family, _)| family);
        all_model_infos()
            .into_iter()
            .find(|i| i.name == family)
            .unwrap_or_else(|| panic!("{family} has no Table 1 row"))
    }

    /// Total parameter bytes (drives model-init warm-up).
    fn param_bytes(&self) -> u64;

    /// Number of parameter tensors (drives model-init warm-up).
    fn param_tensors(&self) -> u64;

    /// Peak activation bytes for a run with `cfg` (drives per-run
    /// allocation warm-up, Table 2).
    fn activation_bytes(&self, cfg: &InferenceConfig) -> u64;

    /// Runs inference inside an `"inference"` scope. Assumes warm-up has
    /// already been performed (see [`DgnnModel::run`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelError`] on shape or configuration problems.
    fn infer(&mut self, ex: &mut Executor, cfg: &InferenceConfig) -> Result<RunSummary>;

    /// Full measured run: model initialization, activation allocation,
    /// then inference — the sequence the paper profiles end-to-end.
    ///
    /// # Errors
    ///
    /// Propagates [`DgnnModel::infer`] errors.
    fn run(&mut self, ex: &mut Executor, cfg: &InferenceConfig) -> Result<RunSummary> {
        // Warm-up gets its own top-level scope so that the run's top-level
        // scopes tile the timeline: warmup + inference == Executor::now().
        ex.scope("warmup", |ex| {
            ex.model_init(self.param_bytes(), self.param_tensors());
            ex.alloc_warmup(self.activation_bytes(cfg));
        });
        self.infer(ex, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_device::{HostWork, PlatformSpec, TraceRecord, TransferDir};
    use dgnn_tensor::OpDescriptor;

    /// Traces one unit of a toy body on `devices` GPUs: on each device,
    /// `steps` steps of host work, an upload of `upload` bytes, more
    /// host work, two kernels (one unscoped) and a download.
    fn toy_run(overlap: bool, devices: usize, steps: usize, upload: u64) -> Executor {
        let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(devices), ExecMode::Gpu);
        ex.enable_tracing();
        let cfg = InferenceConfig::default().with_pipeline_overlap(overlap);
        let plan = cfg.with_shards(devices).plan(&mut ex);
        let work = |label| HostWork::sequential(label, 1_000, 64);
        let kernel = |dx: &mut Dispatcher| dx.charge(OpDescriptor::gemm("k", 64, 64, 64), 1.0);
        run_units(&mut ex, plan, [()], |dx, ()| {
            for device in 0..devices {
                dx.on_device(device, |dx| {
                    for _ in 0..steps {
                        dx.prep("pack", |dx| dx.host(work("pack")));
                        dx.h2d(|dx| dx.transfer(TransferDir::H2D, upload));
                        dx.prep("sample", |dx| dx.host(work("sample")));
                        dx.compute("kernel", kernel);
                        dx.compute(None, kernel);
                        dx.d2h(|dx| dx.transfer(TransferDir::D2H, 1 << 10));
                    }
                });
            }
            Ok(())
        })
        .unwrap();
        ex
    }

    /// Each traced wait as `waiting<recording` lane names, and the
    /// number of recorded events.
    fn waits(ex: &Executor) -> (Vec<String>, usize) {
        let (mut recorded, mut waits) = (Vec::new(), Vec::new());
        for r in ex.trace().unwrap().records() {
            match *r {
                TraceRecord::EventRecord { lane, .. } => recorded.push(lane.name()),
                TraceRecord::EventWait { event, lane } => {
                    waits.push(format!("{}<{}", lane.name(), recorded[event]));
                }
                _ => {}
            }
        }
        (waits, recorded.len())
    }

    #[test]
    fn stages_wait_on_the_lanes_they_read_only_while_forked() {
        assert_eq!(waits(&toy_run(false, 1, 3, 1 << 20)), (Vec::new(), 0));
        // An upload waits on the host work before it, compute on the
        // host work and upload since (the unscoped kernel on nothing
        // new), a download on compute. The third step's first host
        // stage also waits on the first step's upload mark.
        let step = ["copy<host", "compute<host", "compute<copy", "copy<compute"];
        let want = [&step[..], &step, &["host<copy"], &step].concat();
        assert_eq!(waits(&toy_run(true, 1, 3, 1 << 20)).0, want);
    }

    #[test]
    fn host_stages_wait_for_their_own_devices_upload_two_steps_back() {
        // Uploads far slower than host work, so only the staging buffer
        // holds a step's host work back.
        let ex = toy_run(true, 2, 4, 64 << 20);
        for device in 0..2 {
            let scoped = |scope: &str| -> Vec<_> {
                let events = ex.timeline().events().iter();
                events
                    .filter(|e| e.device == device && e.scope.ends_with(scope))
                    .collect()
            };
            let (packs, uploads) = (scoped("/pack"), scoped("/memcpy_h2d"));
            for i in 2..4 {
                assert!(
                    packs[i].start >= uploads[i - 2].end,
                    "device {device} step {i}"
                );
            }
        }
    }

    #[test]
    fn representative_is_capped_and_positive() {
        assert_eq!(representative(0), 1);
        assert_eq!(representative(5), 5);
        assert_eq!(representative(100_000), REP_CAP);
    }

    #[test]
    fn summary_divides_unit_time() {
        let s = RunSummary::new(4, DurationNs::from_nanos(100), 1.0);
        assert_eq!(s.unit_time.as_nanos(), 25);
        let z = RunSummary::new(0, DurationNs::from_nanos(100), 1.0);
        assert_eq!(z.unit_time, DurationNs::ZERO);
    }

    #[test]
    fn range_owner_matches_contiguous_ranges() {
        for (n, k) in [(1, 1), (10, 1), (10, 3), (10, 4), (3, 4), (97, 8)] {
            for (p, r) in dgnn_graph::contiguous_ranges(n, k).iter().enumerate() {
                for v in r.clone() {
                    assert_eq!(range_owner(v, n, k), p, "node {v} of {n} over {k}");
                }
            }
        }
    }

    #[test]
    fn config_builders_chain() {
        let c = InferenceConfig::default()
            .with_batch_size(4_000)
            .with_neighbors(100)
            .with_max_units(2);
        assert_eq!(c.batch_size, 4_000);
        assert_eq!(c.n_neighbors, 100);
        assert_eq!(c.max_units, 2);
    }
}
