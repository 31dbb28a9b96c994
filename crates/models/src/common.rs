//! Shared model-execution machinery.

use dgnn_device::{Dispatcher, DurationNs, EventId, ExecMode, Executor, StreamId, TransferMode};

use crate::registry::ModelInfo;
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
    /// Seed for model weights and samplers.
    pub seed: u64,
    /// When true, temporal neighbor sampling (TGAT, TGN) is charged as a
    /// parallel critical path fanned out over the batch's roots instead
    /// of a serial per-node loop — the "parallel sampling" ablation. The
    /// paper's profiled frameworks sample serially, so this defaults to
    /// `false`.
    pub parallel_sampling: bool,
    /// When true (and the mode is GPU), the driver runs its batch loop on
    /// the stream-forked executor: next-batch host preprocessing, H2D
    /// prefetch and current-batch kernels overlap on the simulated
    /// timeline with double-buffered staging. The profiled frameworks are
    /// strictly sequential, so this defaults to `false`; with it off the
    /// timeline is bit-identical to the sequential engine. A run with
    /// more than one shard forks its lanes whatever this says (see
    /// [`InferenceConfig::shards`]).
    pub pipeline_overlap: bool,
    /// Transfer pricing granularity (see [`TransferGranularity`]). With
    /// more than one shard, TGN, MolDGNN and EvolveGCN price their copies
    /// per tensor even under `Staged`, and TGAT prices one staged upload
    /// per slice even under `PerTensor`; `Coalesced` is honored at every
    /// shard count.
    pub transfer_granularity: TransferGranularity,
    /// Capacity (in rows) of the device-resident feature cache, or
    /// `None` (the default) for no cache. With a cache, drivers route
    /// their recurrent feature/memory-row uploads through
    /// [`dgnn_device::Dispatcher::fetch_rows`]: rows already resident on
    /// the device skip the H2D crossing entirely and only misses are
    /// priced. Model numerics are bit-identical either way — the cache
    /// changes *pricing*, never values.
    pub feature_cache: Option<usize>,
    /// Host-memory regime for PCIe pricing (see
    /// [`dgnn_device::TransferMode`]). The default `Pinned` is
    /// bit-identical to the historical engine; `Pageable` adds the
    /// staging-buffer copy and per-transfer host metadata overhead.
    pub transfer_mode: TransferMode,
    /// Number of GPU shards TGN, TGAT, MolDGNN and EvolveGCN split each
    /// batch across. Their one driver runs its per-unit body once per
    /// shard on that shard's device; `1` (the default) is the one-slice
    /// case — bit-identical to every historical timeline. Values above
    /// one take effect only in GPU mode on a platform with that many
    /// devices (capped at the device count); cross-shard data lands as
    /// peer transfers priced on the interconnect. Models without shard
    /// support ignore the knob.
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
            seed: 42,
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
/// [`InferenceConfig::plan`]. Drivers run their per-unit body once per
/// shard; `shards == 1` is the single-device engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunPlan {
    /// Shards each unit splits across: the configured count capped at
    /// the platform's device count in GPU mode, `1` otherwise.
    pub(crate) shards: usize,
    /// Whether the driver forks Host/Copy/Compute lanes (one triple per
    /// shard) and places its work on them.
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

/// Runs `f` with the dispatcher's priced actions placed on `lane` when
/// `active`; calls `f` directly (the serial path, bit-identical to the
/// historical engine) otherwise.
pub fn on_lane<R>(
    dx: &mut Dispatcher,
    active: bool,
    lane: StreamId,
    f: impl FnOnce(&mut Dispatcher) -> R,
) -> R {
    if active {
        dx.on_stream(lane, f)
    } else {
        f(dx)
    }
}

/// Orders `to` after everything issued so far on `from` (record + wait).
/// No-op on the serial path.
pub fn lane_handoff(dx: &mut Dispatcher, active: bool, from: StreamId, to: StreamId) {
    if active {
        let done = dx.record_event(from);
        dx.wait_event(to, done);
    }
}

/// Depth-2 double buffering for pipelined batch loops: the host may
/// prepare a batch into a staging buffer only after the upload that
/// drained the same buffer two batches earlier has finished. With two
/// buffers in flight this is exactly the reuse constraint of a classic
/// double-buffered prefetcher. Sharded drivers keep one per shard. All
/// methods are no-ops on the serial path.
#[derive(Debug, Default, Clone)]
pub struct DoubleBuffer {
    uploads: Vec<EventId>,
}

impl DoubleBuffer {
    /// Creates an empty buffer tracker.
    pub fn new() -> Self {
        DoubleBuffer::default()
    }

    /// Blocks `lane` (normally the host lane) until the staging buffer
    /// for the next batch is free for reuse.
    pub fn acquire(&self, dx: &mut Dispatcher, active: bool, lane: StreamId) {
        if active && self.uploads.len() >= 2 {
            dx.wait_event(lane, self.uploads[self.uploads.len() - 2]);
        }
    }

    /// Marks the current batch's staging buffer as drained once the copy
    /// lane reaches this point. Call right after issuing the batch's H2D
    /// upload on [`StreamId::Copy`].
    pub fn uploaded(&mut self, dx: &mut Dispatcher, active: bool) {
        if active {
            let done = dx.record_event(StreamId::Copy);
            self.uploads.push(done);
        }
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
pub fn shard_barrier(dx: &mut Dispatcher, shards: usize) {
    if shards < 2 {
        return;
    }
    let mut marks: Vec<(usize, EventId)> = Vec::with_capacity(shards * 2);
    for dev in 0..shards {
        dx.on_device(dev, |dx| {
            marks.push((dev, dx.record_event(StreamId::Copy)));
            marks.push((dev, dx.record_event(StreamId::Compute)));
        });
    }
    for dev in 0..shards {
        dx.on_device(dev, |dx| {
            for &(owner, mark) in &marks {
                if owner != dev {
                    for lane in StreamId::ALL {
                        dx.wait_event(lane, mark);
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
/// module taxonomy.
pub trait DgnnModel {
    /// Model name (lowercase, e.g. `"tgat"`).
    fn name(&self) -> &'static str;

    /// Table 1 metadata.
    fn info(&self) -> ModelInfo;

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
