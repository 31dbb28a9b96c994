//! TGN — Temporal Graph Networks (Rossi et al., 2020).
//!
//! Continuous-time model with a per-node **memory** table. Each batch:
//! 1. packs the batch's interactions on the CPU and ships edge features
//!    and timestamps to the GPU,
//! 2. samples recent temporal neighbors (CPU),
//! 3. **message passing**: fetches the memory rows of every touched node
//!    (sources, destinations, neighbors) — the frequent CPU↔GPU memory
//!    exchange of Fig 5(b) — and computes messages,
//! 4. updates memory with a GRU, computes embeddings with attention,
//! 5. writes updated memory rows back to the CPU side.
//!
//! Message passing's transfer volume makes it dominate at large batch
//! sizes (79% at 64k in Fig 7a) and drives GPU utilization *down* as
//! batch size grows (Fig 6c). All kernels route through the
//! [`dgnn_device::Dispatcher`]; the memory exchange is expressed as staged
//! [`DeviceTensor`]s whose residence crossings *are* the transfers.
//!
//! Under streaming serving the same per-node memory also advances on the
//! ingest path — see [`crate::IngestMemory`], the serving-side twin of
//! this model's GRU update, priced as Host-lane work so ingestion
//! contends with query sampling.

use std::sync::Arc;

use dgnn_datasets::TemporalDataset;
use dgnn_device::{DeviceTensor, Executor, HostWork, TensorClass, TransferDir};
use dgnn_graph::{NeighborSampler, SampleStrategy, TemporalAdjacency};
use dgnn_nn::{EmbeddingTable, GruCell, Linear, Module, MultiHeadAttention, Time2Vec};
use dgnn_tensor::{OpDescriptor, Tensor, TensorRng};

use crate::common::{
    range_owner, representative, run_units, DgnnModel, InferenceConfig, RunSummary, SAMPLER_SEED,
};
use crate::Result;

/// Framework ops per event for batch packing (vectorized numpy-style
/// preprocessing — cheap per element).
const PREP_CALL_OPS: u64 = 30;
/// Framework ops per event for vectorized temporal sampling (much
/// cheaper than TGAT's per-node Python bisect loop).
const SAMPLE_CALL_OPS: u64 = 120;

/// Memory and embedding width.
const DIM: usize = 172;
/// Time-embedding width.
const TIME_DIM: usize = 100;
/// Attention heads in the embedding module (divides [`DIM`]).
const HEADS: usize = 2;

/// The TGN model bound to a dataset.
#[derive(Debug, Clone)]
pub struct Tgn {
    data: Arc<TemporalDataset>,
    adj: Arc<TemporalAdjacency>,
    memory: EmbeddingTable,
    message_fn: Linear,
    memory_updater: GruCell,
    embed_attn: MultiHeadAttention,
    time_enc: Time2Vec,
    predictor: Linear,
}

impl Tgn {
    /// Builds TGN over an interaction dataset, owned or shared; clones
    /// share it and its adjacency.
    pub fn new(data: impl Into<Arc<TemporalDataset>>, seed: u64) -> Self {
        let data = data.into();
        let mut rng = TensorRng::seed(seed);
        let adj = Arc::new(TemporalAdjacency::from_stream(&data.stream));
        let msg_in = 2 * DIM + data.edge_dim() + TIME_DIM;
        Tgn {
            adj,
            memory: EmbeddingTable::new(data.stream.n_nodes(), DIM, &mut rng),
            message_fn: Linear::new(msg_in, DIM, &mut rng),
            memory_updater: GruCell::new(DIM, DIM, &mut rng),
            embed_attn: MultiHeadAttention::new(DIM, HEADS, &mut rng),
            time_enc: Time2Vec::new(TIME_DIM, &mut rng),
            predictor: Linear::new(2 * DIM, 1, &mut rng),
            data,
        }
    }

    fn modules(&self) -> Vec<&dyn Module> {
        vec![
            &self.memory,
            &self.message_fn,
            &self.memory_updater,
            &self.embed_attn,
            &self.time_enc,
            &self.predictor,
        ]
    }

    /// Memory rows touched per batch: two endpoints plus sampled
    /// neighbors per event.
    fn touched_rows(&self, batch: usize, k: usize) -> u64 {
        (batch * (2 + k)) as u64
    }
}

impl DgnnModel for Tgn {
    fn name(&self) -> &'static str {
        "tgn"
    }

    fn param_bytes(&self) -> u64 {
        self.modules().iter().map(|m| m.param_bytes()).sum()
    }

    fn param_tensors(&self) -> u64 {
        self.modules().iter().map(|m| m.param_tensor_count()).sum()
    }

    fn activation_bytes(&self, cfg: &InferenceConfig) -> u64 {
        // TGN stages memory rows through reused pinned buffers; only the
        // per-batch output embeddings are freshly allocated, which keeps
        // its per-batch warm-up nearly flat (Table 2).
        (cfg.batch_size * DIM * 4 * 2) as u64
    }

    /// One driver for every shard count. Events belong to the shard that
    /// owns their source node (contiguous node ranges, so per-shard
    /// memory stays a dense slice), and each shard's slice runs on its
    /// own device's lanes. Memory rows of remote destination endpoints
    /// and sampled neighbors arrive as peer transfers priced on the
    /// interconnect edge to their owner (NVLink hop, or a host-staged
    /// PCIe bounce when the topology has no direct link). One shard is
    /// the single-device engine: one slice, no peer traffic, no barrier.
    fn infer(&mut self, ex: &mut Executor, cfg: &InferenceConfig) -> Result<RunSummary> {
        let plan = cfg.plan(ex);
        // Multi-shard rule 2: a sharded run prices every copy per tensor,
        // even under `Staged`. On one forked shard this moves TGN (Small,
        // seed 1, `multi_gpu`'s config) from 8.27 to 8.50 ms.
        let per_tensor = plan.granular || plan.shards > 1;
        // Multi-shard rule 3: the staged messages' D2H inside message
        // passing is priced only at one shard. Dropping it on one forked
        // per-tensor shard moves the same TGN run from 8.50 to 7.04 ms.
        let staged_messages = plan.shards == 1;
        // Multi-shard rule 2a: a sharded slice whose representative
        // sample found no neighbor at all prices no neighbor rows, while
        // one shard prices the whole neighbor block regardless. No gap
        // on the same TGN run: only a sample in which no representative
        // event has history tells the two apart.
        let whole_neighbor_block = plan.shards == 1;

        let k = cfg.n_neighbors.max(1);
        let row_bytes = (2 * DIM * 4) as u64;
        let sampler = NeighborSampler::new(SampleStrategy::MostRecent, SAMPLER_SEED);
        let n_nodes = self.data.stream.n_nodes();
        let mut checksum = 0.0f32;

        let data = Arc::clone(&self.data);
        let owner = |v: usize| range_owner(v, n_nodes, plan.shards);
        let (iterations, time) = run_units(ex, plan, cfg.batches(&data.stream), |dx, batch| {
            let mut slices: Vec<Vec<&dgnn_graph::TemporalEvent>> = vec![Vec::new(); plan.shards];
            for e in batch {
                slices[owner(e.src)].push(e);
            }
            // Fixed shard order: the checksum and the shared memory
            // table update deterministically.
            for (s, slice) in slices.iter().enumerate() {
                if slice.is_empty() {
                    continue;
                }
                dx.on_device(s, |dx| -> Result<()> {
                    let bsz = slice.len();
                    let rep = representative(bsz);
                    let scale = bsz as f64 / rep as f64;
                    let touched = self.touched_rows(bsz, k);
                    let edge_bytes = (bsz * self.data.edge_dim() * 4) as u64;
                    let ts_bytes = (bsz * 2 * 4) as u64;
                    // Endpoint and neighbor message/memory blocks
                    // down (sums exactly to the staged write-back).
                    let d2h_pieces = [(bsz * 2 * DIM * 4) as u64, (bsz * k * DIM * 4) as u64];

                    // 1. Batch preparation + edge features to GPU.
                    dx.prep("batch_prep", |dx| {
                        dx.host(HostWork::sequential(
                            "pack_batch",
                            bsz as u64 * PREP_CALL_OPS,
                            bsz as u64 * dgnn_graph::EventStream::EVENT_BYTES,
                        ));
                    });
                    if !per_tensor {
                        // Staged aggregate: the edge payload ships as
                        // soon as packing finishes.
                        let edge_payload = DeviceTensor::host_scaled(
                            Tensor::zeros(&[1, self.data.edge_dim() + 2]),
                            bsz as f64,
                        );
                        dx.h2d(|dx| dx.ensure_resident(&edge_payload));
                    }

                    // 2. Temporal neighbor sampling on the CPU — the
                    // CSR batch engine, one root per slice event.
                    let rep_neighbors = dx.prep("sampling", |dx| {
                        let roots: Vec<(usize, f64)> =
                            slice.iter().take(rep).map(|e| (e.src, e.time)).collect();
                        let (rep_samples, cost) = sampler.sample_batch(&*self.adj, &roots, k);
                        let sc = (bsz as u64).div_ceil(rep as u64);
                        let parallelism = if cfg.parallel_sampling { bsz as u64 } else { 1 };
                        dx.host(HostWork {
                            label: "temporal_sampling",
                            ops: cost.ops * sc / 4 + (bsz * 2) as u64 * SAMPLE_CALL_OPS,
                            seq_bytes: 0,
                            irregular_bytes: cost.irregular_bytes * sc / 4,
                            parallelism,
                        });
                        rep_samples
                    });

                    // Memory rows by owning device: destination
                    // endpoints outside this shard's range, plus each
                    // owner's share of the sampled neighbors (counted
                    // on the representative sample, scaled to the
                    // slice's logical neighbor volume).
                    let mut remote_dst = vec![0u64; plan.shards];
                    for e in slice {
                        if owner(e.dst) != s {
                            remote_dst[owner(e.dst)] += 1;
                        }
                    }
                    let mut nbr_counts = vec![0u64; plan.shards];
                    let mut rep_nbr_total = 0u64;
                    for nb in rep_neighbors.iter().flatten() {
                        nbr_counts[owner(nb.node)] += 1;
                        rep_nbr_total += 1;
                    }
                    let logical_nbrs = (bsz * k) as u64;
                    let scaled_nbr = |o: usize| match (nbr_counts[o] * logical_nbrs)
                        .checked_div(rep_nbr_total)
                    {
                        Some(rows) => rows,
                        None if o == s && whole_neighbor_block => logical_nbrs,
                        None => 0,
                    };
                    let local_dst = bsz as u64 - remote_dst.iter().sum::<u64>();

                    if per_tensor || plan.cached {
                        // Once sampling has named the touched memory
                        // rows, every upload of the slice is issued
                        // back-to-back — individually priced copies, or
                        // one merged transaction when coalescing; rows
                        // owned by other shards cross the interconnect.
                        // With the feature cache the local memory-row
                        // blocks instead route through this device's
                        // cache: endpoint rows keyed exactly, the
                        // neighbor block by the sampled ids at slice
                        // scale, so recurrent nodes skip the Fig 5(b)
                        // exchange.
                        dx.h2d(|dx| {
                            if plan.cached {
                                if per_tensor {
                                    // Edge features + timestamps were
                                    // not shipped by the staged early
                                    // upload.
                                    dx.transfer(TransferDir::H2D, edge_bytes);
                                    dx.transfer(TransferDir::H2D, ts_bytes);
                                }
                                let mut keys: Vec<u64> =
                                    slice.iter().map(|e| e.src as u64).collect();
                                keys.extend(
                                    slice
                                        .iter()
                                        .filter(|e| owner(e.dst) == s)
                                        .map(|e| e.dst as u64),
                                );
                                dx.fetch_rows(TensorClass::NodeMemory, &keys, row_bytes, 1.0);
                                let nbr: Vec<u64> = rep_neighbors
                                    .iter()
                                    .flatten()
                                    .filter(|nb| owner(nb.node) == s)
                                    .map(|nb| nb.node as u64)
                                    .collect();
                                if !nbr.is_empty() {
                                    let nscale = scaled_nbr(s) as f64 / nbr.len() as f64;
                                    dx.fetch_rows(TensorClass::NodeMemory, &nbr, row_bytes, nscale);
                                }
                            } else {
                                for bytes in [
                                    edge_bytes,
                                    ts_bytes,
                                    bsz as u64 * row_bytes,
                                    local_dst * row_bytes,
                                    scaled_nbr(s) * row_bytes,
                                ] {
                                    dx.transfer(TransferDir::H2D, bytes);
                                }
                            }
                            for (o, &dst_rows) in remote_dst.iter().enumerate() {
                                if o == s {
                                    continue;
                                }
                                let rows = dst_rows + scaled_nbr(o);
                                if rows > 0 {
                                    dx.peer_transfer(o, rows * row_bytes);
                                }
                            }
                        });
                    }

                    let rep_src: Vec<usize> = slice.iter().take(rep).map(|e| e.src).collect();

                    // 3. Message passing: memory exchange + message
                    // kernels.
                    let rep_msgs = dx.compute("message_passing", |dx| -> Result<DeviceTensor> {
                        // Staged pricing derives the Fig 5(b) exchange
                        // from the residence of the staged row blocks:
                        // the inbound rows (unless the cache already
                        // fetched them in memcpy_h2d) and the outbound
                        // staged messages. Granular modes priced the
                        // inbound rows with the upload; the outbound
                        // messages are priced as their endpoint and
                        // neighbor blocks.
                        if !per_tensor && !plan.cached {
                            let mem_in = DeviceTensor::host_scaled(
                                Tensor::zeros(&[rep, 2 * DIM]),
                                touched as f64 / rep as f64,
                            );
                            dx.ensure_resident(&mem_in);
                        }
                        if staged_messages {
                            if plan.granular {
                                for bytes in d2h_pieces {
                                    dx.transfer(TransferDir::D2H, bytes);
                                }
                            } else {
                                let staged_out = dx
                                    .adopt(Tensor::zeros(&[rep, DIM]), touched as f64 / rep as f64);
                                dx.download(&staged_out);
                            }
                        }

                        let src_mem = self.memory.lookup_scaled(dx, &rep_src, scale)?;
                        let dst: Vec<usize> = slice.iter().take(rep).map(|e| e.dst).collect();
                        let dst_mem = self.memory.lookup_scaled(dx, &dst, scale)?;
                        let feats: Vec<usize> =
                            slice.iter().take(rep).map(|e| e.feature_idx).collect();
                        let edge = self.data.edge_features.gather_rows(&feats)?;
                        #[expect(
                            clippy::cast_possible_truncation,
                            reason = "f32 timestamps suffice"
                        )]
                        let deltas = Tensor::from_vec(
                            slice.iter().take(rep).map(|e| e.time as f32).collect(),
                            &[rep],
                        )?;
                        let deltas = dx.adopt(deltas, scale);
                        let time = self.time_enc.forward(dx, &deltas)?;
                        let raw = src_mem
                            .data()
                            .concat_cols(dst_mem.data())?
                            .concat_cols(&edge)?
                            .concat_cols(time.data())?;
                        let raw = dx.adopt(raw, scale);
                        let msgs = self.message_fn.forward(dx, &raw)?;
                        // Per-node aggregation of messages has no dense
                        // functional counterpart; charge the reduce
                        // directly.
                        dx.charge(OpDescriptor::reduce("message_agg", bsz, k.max(1)), 1.0);
                        Ok(msgs)
                    })?;

                    // 4. Memory update (GRU) + embedding (attention).
                    let new_mem = dx.compute("memory_update", |dx| -> Result<DeviceTensor> {
                        let prev = self.memory.lookup_scaled(dx, &rep_src, scale)?;
                        self.memory_updater
                            .forward(dx, &rep_msgs, &prev)
                            .map_err(Into::into)
                    })?;
                    dx.compute(None, |dx| self.memory.update(dx, &rep_src, &new_mem))?;

                    let emb = dx.compute("embedding", |dx| -> Result<DeviceTensor> {
                        // Keys/values: one event's sampled neighbors
                        // plus its source, standing in for the full
                        // slice (scale bsz); the queries are the rep
                        // updated-memory rows.
                        let kv_ids: Vec<usize> = rep_neighbors
                            .first()
                            .map(|l| l.iter().map(|n| n.node).collect::<Vec<_>>())
                            .unwrap_or_default()
                            .into_iter()
                            .chain(rep_src.first().copied())
                            .collect();
                        let kv = self.memory.lookup_scaled(dx, &kv_ids, bsz as f64)?;
                        self.embed_attn
                            .forward(dx, &new_mem, &kv, &kv)
                            .map_err(Into::into)
                    })?;

                    // 5. Prediction + memory write-back over this
                    // device's own PCIe link.
                    dx.compute("prediction", |dx| -> Result<()> {
                        let pair = dx.adopt(emb.data().concat_cols(emb.data())?, scale);
                        checksum += self.predictor.forward(dx, &pair)?.data().sum();
                        Ok(())
                    })?;
                    let writeback =
                        dx.adopt(Tensor::zeros(&[rep, DIM]), touched as f64 / rep as f64);
                    dx.d2h(|dx| {
                        if per_tensor {
                            for bytes in d2h_pieces {
                                dx.transfer(TransferDir::D2H, bytes);
                            }
                        } else {
                            dx.download(&writeback);
                        }
                    });
                    Ok(())
                })?;
            }
            Ok(())
        })?;
        Ok(RunSummary::new(iterations, time, checksum))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_datasets::{wikipedia, Scale};
    use dgnn_device::{ExecMode, PlatformSpec};
    use dgnn_profile::InferenceProfile;

    fn build() -> Tgn {
        Tgn::new(wikipedia(Scale::Tiny, 1), 7)
    }

    fn cfg(bs: usize) -> InferenceConfig {
        InferenceConfig::default()
            .with_batch_size(bs)
            .with_neighbors(10)
            .with_max_units(3)
    }

    #[test]
    fn runs_and_profiles() {
        let mut m = build();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        let s = m.run(&mut ex, &cfg(100)).unwrap();
        assert_eq!(s.iterations, 3);
        assert!(s.checksum.is_finite());
        let p = InferenceProfile::capture(&ex, "inference");
        assert!(p.breakdown.share_of("message_passing") > 0.0);
    }

    #[test]
    fn more_neighbors_price_more_time() {
        // `n_neighbors` is honoured above 10: every extra neighbor is a
        // sampled, gathered and attended-over row.
        let time = |k: usize| {
            let mut m = build();
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            let cfg = cfg(200).with_neighbors(k);
            m.run(&mut ex, &cfg).unwrap().inference_time
        };
        assert!(time(20) > time(10));
    }

    #[test]
    fn message_passing_dominates_large_batches() {
        let mut m = build();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        m.run(&mut ex, &cfg(500)).unwrap();
        let p = InferenceProfile::capture(&ex, "inference");
        let share = p.breakdown.share_of("message_passing");
        assert!(share > 0.4, "message passing share {share}");
    }

    #[test]
    fn utilization_decreases_with_batch_size() {
        let util = |bs: usize| {
            let mut m = build();
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            m.run(&mut ex, &cfg(bs)).unwrap();
            InferenceProfile::capture(&ex, "inference")
                .utilization
                .busy_fraction
        };
        let small = util(32);
        let large = util(512);
        assert!(
            large < small,
            "util should fall with batch size: {small} -> {large}"
        );
    }

    #[test]
    fn memory_table_evolves() {
        let mut m = build();
        let before = m.memory.table().clone();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        m.run(&mut ex, &cfg(64)).unwrap();
        assert_ne!(&before, m.memory.table());
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut m = build();
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            let s = m.run(&mut ex, &cfg(64)).unwrap();
            (s.checksum, ex.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cpu_mode_works() {
        let mut m = build();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
        let s = m.run(&mut ex, &cfg(64)).unwrap();
        assert!(s.inference_time.as_nanos() > 0);
    }

    #[test]
    fn one_shard_on_a_multi_gpu_platform_is_bit_identical() {
        let run = |spec: PlatformSpec, shards: usize| {
            let mut m = build();
            let mut ex = Executor::new(spec, ExecMode::Gpu);
            let s = m.run(&mut ex, &cfg(64).with_shards(shards)).unwrap();
            (s.checksum, s.inference_time, ex.now())
        };
        // Extra idle GPUs in the device graph change nothing about a
        // single-shard run.
        assert_eq!(
            run(PlatformSpec::default(), 1),
            run(PlatformSpec::multi_gpu_nvlink(4), 1)
        );
    }

    #[test]
    fn sharded_run_is_deterministic_and_faster_on_nvlink() {
        let run = |shards: usize| {
            let mut m = build();
            let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(4), ExecMode::Gpu);
            let s = m.run(&mut ex, &cfg(256).with_shards(shards)).unwrap();
            (s.checksum, ex.now())
        };
        assert_eq!(run(4), run(4), "sharded replay is bit-stable");
        let (_, single) = run(1);
        let (_, sharded) = run(4);
        assert!(
            sharded < single,
            "4 NVLink shards ({sharded:?}) should beat one GPU ({single:?})"
        );
    }

    #[test]
    fn sharded_run_prices_peer_traffic() {
        let mut m = build();
        let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(2), ExecMode::Gpu);
        m.run(&mut ex, &cfg(128).with_shards(2)).unwrap();
        let peer: u64 = ex
            .timeline()
            .events()
            .iter()
            .filter(|e| e.category == dgnn_device::EventCategory::PeerTransfer)
            .map(|e| e.bytes)
            .sum();
        assert!(
            peer > 0,
            "cross-shard memory rows must cross the interconnect"
        );
    }

    #[test]
    fn pcie_topology_prices_peer_traffic_as_staged_bounces() {
        let time_on = |spec: PlatformSpec| {
            let mut m = build();
            let mut ex = Executor::new(spec, ExecMode::Gpu);
            m.run(&mut ex, &cfg(256).with_shards(4)).unwrap();
            ex.now()
        };
        let nvlink = time_on(PlatformSpec::multi_gpu_nvlink(4));
        let pcie = time_on(PlatformSpec::multi_gpu_pcie(4));
        assert!(
            pcie > nvlink,
            "host-staged bounces ({pcie:?}) must cost more than NVLink hops ({nvlink:?})"
        );
    }
}
