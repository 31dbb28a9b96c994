//! TGAT — Temporal Graph Attention Network (Xu et al., ICLR'20).
//!
//! Continuous-time model. Per mini-batch of interaction events it:
//! 1. samples a two-hop temporal neighborhood per event **on the CPU**
//!    (bisection + index sorting — the paper's dominant cost, 83–94% of
//!    inference time),
//! 2. ships the gathered node/edge features and time deltas to the GPU
//!    (quadratic in the neighbor count `k`, hence the paper's "data
//!    movement increases rapidly past k≈100"),
//! 3. runs Bochner time encoding and two attention layers,
//! 4. copies the updated target embeddings back.
//!
//! All kernels and transfers go through the [`dgnn_device::Dispatcher`]:
//! the batch payload is staged as a host-resident [`DeviceTensor`] whose
//! logical bytes equal the full gathered feature block, so the H2D copy
//! falls out of the first device-side use rather than a hand-inserted
//! `transfer()` call.

use std::sync::Arc;

use dgnn_datasets::TemporalDataset;
use dgnn_device::{DeviceTensor, Executor, HostWork, TensorClass, TransferDir};
use dgnn_graph::{EventStream, NeighborSampler, SampleStrategy, TemporalAdjacency};
use dgnn_nn::{BochnerTimeEncoder, Linear, Module, MultiHeadAttention};
use dgnn_tensor::{Tensor, TensorRng};

use crate::common::{
    range_owner, representative, run_units, DgnnModel, InferenceConfig, RunSummary, SAMPLER_SEED,
};
use crate::Result;

/// Framework-level operations per sampling call: the reference
/// implementation performs temporal neighbor lookup in an interpreted
/// per-node loop (Python `bisect` + list indexing), costing several
/// microseconds per call rather than nanoseconds. Priced against
/// `CpuSpec::host_ops_per_sec` (1600 ops ≈ 8 µs per call).
const SAMPLING_CALL_OPS: u64 = 1_600;

/// Model width: the reference runs Wikipedia with 172-dimensional
/// features.
const DIM: usize = 172;
/// Time-encoding width.
const TIME_DIM: usize = 172;
/// Attention layers, one per sampled hop.
const N_LAYERS: usize = 2;
/// Attention heads (divides [`DIM`]).
const HEADS: usize = 2;

/// Rows of gathered features per event for neighbor count `k`: the
/// target plus its [`N_LAYERS`] sampled hops (`k` first-hop + `k²`
/// second-hop).
fn rows_per_event(k: usize) -> usize {
    1 + k + k * k
}

/// Edge-feature rows shipped to the GPU per event: one per sampled
/// interaction (`k` first-hop + `k²` second-hop). Node embeddings are
/// a learned table resident in GPU memory and are *not* re-shipped —
/// only edge features and time deltas cross PCIe each batch.
fn edge_rows_per_event(k: usize) -> usize {
    k + k * k
}

/// The TGAT model bound to a dataset's stream and node features.
#[derive(Debug, Clone)]
pub struct Tgat {
    stream: Arc<EventStream>,
    node_features: Tensor,
    edge_dim: usize,
    adj: Arc<TemporalAdjacency>,
    feat_proj: Linear,
    time_enc: BochnerTimeEncoder,
    attn: [MultiHeadAttention; N_LAYERS],
    merge: [Linear; N_LAYERS],
    predictor: Linear,
}

impl Tgat {
    /// Builds TGAT over an interaction dataset, owned or shared. It keeps
    /// copies of the stream and node features and the edge-feature
    /// width, not the edge features; clones share the stream and its
    /// adjacency.
    pub fn new(data: impl Into<Arc<TemporalDataset>>, seed: u64) -> Self {
        let data = data.into();
        let mut rng = TensorRng::seed(seed);
        let adj = Arc::new(TemporalAdjacency::from_stream(&data.stream));
        let feat_proj = Linear::new(data.node_dim(), DIM, &mut rng);
        let time_enc = BochnerTimeEncoder::new(TIME_DIM, &mut rng);
        let attn = std::array::from_fn(|_| MultiHeadAttention::new(DIM, HEADS, &mut rng));
        let merge = std::array::from_fn(|_| Linear::new(DIM + TIME_DIM, DIM, &mut rng));
        let predictor = Linear::new(2 * DIM, 1, &mut rng);
        Tgat {
            stream: Arc::new(data.stream.clone()),
            node_features: data.node_features.clone(),
            edge_dim: data.edge_dim(),
            adj,
            feat_proj,
            time_enc,
            attn,
            merge,
            predictor,
        }
    }

    fn modules(&self) -> Vec<&dyn Module> {
        let mut m: Vec<&dyn Module> = vec![&self.feat_proj, &self.time_enc, &self.predictor];
        for a in &self.attn {
            m.push(a);
        }
        for l in &self.merge {
            m.push(l);
        }
        m
    }
}

impl DgnnModel for Tgat {
    fn name(&self) -> &'static str {
        "tgat"
    }

    fn param_bytes(&self) -> u64 {
        // Learned node embeddings live on the GPU alongside the weights.
        self.modules().iter().map(|m| m.param_bytes()).sum::<u64>() + self.node_features.byte_len()
    }

    fn param_tensors(&self) -> u64 {
        self.modules()
            .iter()
            .map(|m| m.param_tensor_count())
            .sum::<u64>()
            + 1
    }

    fn activation_bytes(&self, cfg: &InferenceConfig) -> u64 {
        let rows = cfg.batch_size * rows_per_event(cfg.n_neighbors);
        (rows * (DIM + TIME_DIM) * 4) as u64
    }

    /// One driver for every shard count. Events belong to the shard
    /// owning their source node (contiguous ranges); each shard samples
    /// and runs attention for its slice on its own device. Gathered
    /// neighbor rows the shard owns ship over its PCIe link; rows owned
    /// by other shards arrive as peer transfers from their device. One
    /// shard is the single-device engine: one slice, no peer traffic,
    /// no barrier.
    fn infer(&mut self, ex: &mut Executor, cfg: &InferenceConfig) -> Result<RunSummary> {
        let plan = cfg.plan(ex);
        // Multi-shard rule 2: a sharded run prices one staged H2D per
        // slice, even under `PerTensor`. On one forked `PerTensor` shard
        // this moves TGAT (Small, seed 1, `multi_gpu`'s config) from
        // 151.78 to 151.76 ms.
        let staged_slices = plan.shards > 1;

        let k = cfg.n_neighbors.max(1);
        let sampler = NeighborSampler::new(SampleStrategy::Uniform, SAMPLER_SEED);
        // One gathered row: edge features + time delta + neighbor index.
        let row_bytes = ((self.edge_dim + 2) * 4) as u64;
        let n_nodes = self.stream.n_nodes();
        let mut checksum = 0.0f32;

        let stream = Arc::clone(&self.stream);

        let owner = |v: usize| range_owner(v, n_nodes, plan.shards);
        let (iterations, time) = run_units(ex, plan, cfg.batches(&stream), |dx, batch| {
            let mut slices: Vec<Vec<&dgnn_graph::TemporalEvent>> = vec![Vec::new(); plan.shards];
            for e in batch {
                slices[owner(e.src)].push(e);
            }
            for (s, slice) in slices.iter().enumerate() {
                if slice.is_empty() {
                    continue;
                }
                dx.on_device(s, |dx| -> Result<()> {
                    let bsz = slice.len();
                    let rep = representative(bsz);
                    let rows = bsz * rows_per_event(k);
                    let edge_rows = (bsz * edge_rows_per_event(k)) as u64;

                    // 1. Temporal neighborhood sampling on the CPU over
                    // the slice's roots. `parallel_sampling` changes only
                    // the *charged* critical path, never the samples. In
                    // pipelined mode it overlaps the previous batch's
                    // kernels.
                    let rep_layers = dx.prep("sampling", |dx| {
                        let roots: Vec<(usize, f64)> =
                            slice.iter().take(rep).map(|e| (e.src, e.time)).collect();
                        let (layers, cost) =
                            sampler.sample_khop_batch(&*self.adj, &roots, &[k; N_LAYERS]);
                        let scale = (bsz as u64).div_ceil(rep as u64);
                        let calls = (bsz * (1 + k)) as u64;
                        // The reference also sorts the sampled node
                        // indices per batch so the feature gather walks
                        // forward.
                        let sorted = (bsz * (1 + k)) as u64;
                        let sort_ops = sorted * (64 - sorted.max(2).leading_zeros() as u64);
                        let parallelism = if cfg.parallel_sampling { bsz as u64 } else { 1 };
                        dx.host(HostWork {
                            label: "temporal_sampling",
                            ops: cost.ops * scale + calls * SAMPLING_CALL_OPS + sort_ops,
                            seq_bytes: 0,
                            irregular_bytes: cost.irregular_bytes * scale,
                            parallelism,
                        });
                        layers
                    });

                    // Split the gathered rows by owner: locally-owned
                    // rows cross this device's PCIe link, remote rows
                    // are peer traffic from their owner (counted on the
                    // representative sample, scaled to the slice's
                    // logical gather volume; with no sampled neighbor
                    // at all the whole gather stays local).
                    let mut nbr_counts = vec![0u64; plan.shards];
                    let mut rep_total = 0u64;
                    for nb in rep_layers.iter().flatten() {
                        nbr_counts[owner(nb.node)] += 1;
                        rep_total += 1;
                    }
                    let scaled_rows =
                        |o: usize| match (nbr_counts[o] * edge_rows).checked_div(rep_total) {
                            Some(rows) => rows,
                            None if o == s => edge_rows,
                            None => 0,
                        };

                    // 2. The gathered edge features + time deltas cross
                    // PCIe once per slice. Staged granularity prices one
                    // aggregate payload whose logical bytes are the full
                    // `edge_rows` feature block; granular modes price its
                    // constituent tensors (edge features, time deltas,
                    // neighbor indices) individually, summing to exactly
                    // the same bytes.
                    dx.h2d(|dx| {
                        // Cache-routed fetch: one row per locally owned
                        // sampled neighbor, keyed by node id (the
                        // slice's roots when nothing was sampled). Hot
                        // nodes of the power-law graph stay
                        // device-resident; only cold rows are priced,
                        // as one merged H2D copy. The keys are the
                        // representative subset, so each key's row
                        // carries the logical slice scale. A shard that
                        // owns none of the sampled neighbors prices its
                        // (empty) local share as a plain copy.
                        let keys: Vec<u64> = if !plan.cached {
                            Vec::new()
                        } else if rep_total == 0 {
                            slice.iter().take(rep).map(|e| e.src as u64).collect()
                        } else {
                            rep_layers
                                .iter()
                                .flatten()
                                .filter(|nb| owner(nb.node) == s)
                                .map(|nb| nb.node as u64)
                                .collect()
                        };
                        if !keys.is_empty() {
                            let scale = scaled_rows(s) as f64 / keys.len() as f64;
                            dx.fetch_rows(TensorClass::NodeFeature, &keys, row_bytes, scale);
                        } else if plan.cached || staged_slices {
                            dx.transfer(TransferDir::H2D, scaled_rows(s) * row_bytes);
                        } else if plan.granular {
                            let feat_bytes = edge_rows * (self.edge_dim * 4) as u64;
                            let delta_bytes = edge_rows * 4;
                            let index_bytes = edge_rows * 4;
                            for bytes in [feat_bytes, delta_bytes, index_bytes] {
                                dx.transfer(TransferDir::H2D, bytes);
                            }
                        } else {
                            let payload = DeviceTensor::host_scaled(
                                Tensor::zeros(&[1, self.edge_dim + 2]),
                                edge_rows as f64,
                            );
                            dx.ensure_resident(&payload);
                        }
                        for o in 0..plan.shards {
                            if o != s && scaled_rows(o) > 0 {
                                dx.peer_transfer(o, scaled_rows(o) * row_bytes);
                            }
                        }
                    });

                    // Representative functional inputs: the first `rep`
                    // targets and one event's worth of sampled
                    // neighbors.
                    let rep_src: Vec<usize> = slice.iter().take(rep).map(|e| e.src).collect();
                    let src_feats = self.node_features.gather_rows(&rep_src)?;
                    let neigh: Vec<&dgnn_graph::sampler::SampledNeighbor> = rep_layers
                        .get(1)
                        .map(|l| l.iter().take(k).collect())
                        .unwrap_or_default();
                    let (neigh_feats, deltas) = if neigh.is_empty() {
                        (
                            Tensor::zeros(&[1, self.node_features.dims()[1]]),
                            vec![0.0f32],
                        )
                    } else {
                        let ids: Vec<usize> = neigh.iter().map(|s| s.node).collect();
                        #[expect(
                            clippy::cast_possible_truncation,
                            reason = "f32 timestamps suffice"
                        )]
                        let times: Vec<f32> = neigh.iter().map(|s| s.time as f32).collect();
                        (self.node_features.gather_rows(&ids)?, times)
                    };
                    let kn = neigh_feats.dims()[0];

                    // 3. Time encoding, priced for all gathered rows.
                    let rep_time = dx.compute("time_encoding", |dx| {
                        let n_phys = deltas.len();
                        let t = Tensor::from_vec(deltas.clone(), &[n_phys])?;
                        // The deltas arrived inside the staged payload,
                        // so they are already device-resident.
                        let t = dx.adopt(t, rows as f64 / n_phys as f64);
                        self.time_enc.forward(dx, &t)
                    })?;

                    // 4. Attention layers. The queries are `rep`
                    // physical target rows standing in for the layer's
                    // logical target count; the keys/values are ONE
                    // event's `kn` neighbor rows standing in for
                    // `targets × k` logical rows — both quadratic
                    // attention dims (`k`, `d`) stay physical, so scaled
                    // pricing equals full-batch pricing.
                    let out = dx.compute("attention", |dx| -> Result<DeviceTensor> {
                        let src = dx.adopt(src_feats.clone(), bsz as f64 / rep as f64);
                        let q0 = self.feat_proj.forward(dx, &src)?;
                        let nbr = dx.adopt(neigh_feats.clone(), (bsz * k) as f64 / kn as f64);
                        let nf = self.feat_proj.forward(dx, &nbr)?;
                        let nt = if nf.data().dims()[0] == rep_time.data().dims()[0] {
                            let merged = nf.data().concat_cols(rep_time.data())?;
                            let merged = dx.adopt(merged, nf.scale());
                            self.merge[0].forward(dx, &merged)?
                        } else {
                            nf
                        };
                        let mut h = q0;
                        for layer in 0..N_LAYERS {
                            let targets = if layer + 1 == N_LAYERS { bsz } else { bsz * k };
                            let q_rows = h.data().dims()[0];
                            let q = dx.adopt(h.data().clone(), targets as f64 / q_rows as f64);
                            let kv_rows = nt.data().dims()[0];
                            let kv =
                                dx.adopt(nt.data().clone(), (targets * k) as f64 / kv_rows as f64);
                            h = self.attn[layer].forward(dx, &q, &kv, &kv)?;
                        }
                        Ok(h)
                    })?;

                    // 5. Prediction head + copy-back of the target
                    // embeddings over this device's own link.
                    let result = dx.compute("prediction", |dx| -> Result<DeviceTensor> {
                        let out_rows = out.data().dims()[0];
                        let pair = dx.adopt(
                            out.data().concat_cols(out.data())?,
                            bsz as f64 / out_rows as f64,
                        );
                        let score = self.predictor.forward(dx, &pair)?;
                        checksum += score.data().sum();
                        Ok(dx.adopt(out.data().clone(), bsz as f64 / out_rows as f64))
                    })?;
                    debug_assert_eq!(result.data().dims()[1], DIM);
                    dx.d2h(|dx| dx.download(&result));
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

    fn build() -> Tgat {
        Tgat::new(wikipedia(Scale::Tiny, 1), 7)
    }

    fn small_cfg() -> InferenceConfig {
        InferenceConfig::default()
            .with_batch_size(50)
            .with_max_units(3)
    }

    #[test]
    fn runs_on_gpu_and_produces_profile() {
        let mut model = build();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        let summary = model.run(&mut ex, &small_cfg()).unwrap();
        assert_eq!(summary.iterations, 3);
        assert!(summary.checksum.is_finite());
        let p = InferenceProfile::capture(&ex, "inference");
        assert!(p.breakdown.share_of("sampling") > 0.0);
        assert!(p.pcie_bytes > 0);
    }

    #[test]
    fn sampling_dominates_gpu_inference() {
        let mut model = build();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        model
            .run(&mut ex, &small_cfg().with_batch_size(200))
            .unwrap();
        let p = InferenceProfile::capture(&ex, "inference");
        assert!(
            p.breakdown.share_of("sampling") > 0.5,
            "sampling share {:.2} should dominate",
            p.breakdown.share_of("sampling")
        );
    }

    #[test]
    fn gpu_utilization_is_low_single_digit() {
        let mut model = build();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        model.run(&mut ex, &small_cfg()).unwrap();
        let p = InferenceProfile::capture(&ex, "inference");
        assert!(
            p.utilization.average < 0.15,
            "util {}",
            p.utilization.average
        );
    }

    #[test]
    fn cpu_mode_runs_without_transfers() {
        let mut model = build();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
        let summary = model.run(&mut ex, &small_cfg()).unwrap();
        assert!(summary.inference_time.as_nanos() > 0);
        let p = InferenceProfile::capture(&ex, "inference");
        assert_eq!(p.pcie_bytes, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut model = build();
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            let s = model.run(&mut ex, &small_cfg()).unwrap();
            (s.checksum, ex.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn more_neighbors_means_more_transfer_bytes() {
        let bytes_for = |k: usize| {
            let mut model = build();
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            model.run(&mut ex, &small_cfg().with_neighbors(k)).unwrap();
            ex.timeline().transfer_bytes(None)
        };
        let b20 = bytes_for(20);
        let b100 = bytes_for(100);
        assert!(b100 > 10 * b20, "k=100 ({b100}) should dwarf k=20 ({b20})");
    }

    #[test]
    fn param_accounting_is_positive() {
        let model = build();
        assert!(model.param_bytes() > 10_000);
        assert!(model.param_tensors() > 10);
        assert!(model.activation_bytes(&small_cfg()) > 0);
    }

    #[test]
    fn info_matches_registry() {
        let model = build();
        let info = model.info();
        assert_eq!(info.name, "tgat");
        assert!(info.evolving.edge_features);
    }

    #[test]
    fn sharded_sampling_splits_across_devices_and_wins() {
        let run = |shards: usize| {
            let mut model = build();
            let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(4), ExecMode::Gpu);
            let s = model
                .run(
                    &mut ex,
                    &small_cfg().with_batch_size(200).with_shards(shards),
                )
                .unwrap();
            (s.checksum, ex.now())
        };
        assert_eq!(run(4), run(4), "sharded replay is bit-stable");
        let (_, single) = run(1);
        let (_, sharded) = run(4);
        assert!(
            sharded < single,
            "sharding the sampling-bound model must win: {sharded:?} vs {single:?}"
        );
    }

    #[test]
    fn sharded_remote_neighbor_rows_are_peer_priced() {
        let mut model = build();
        let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(2), ExecMode::Gpu);
        model
            .run(&mut ex, &small_cfg().with_batch_size(100).with_shards(2))
            .unwrap();
        let peer: u64 = ex
            .timeline()
            .events()
            .iter()
            .filter(|e| e.category == dgnn_device::EventCategory::PeerTransfer)
            .map(|e| e.bytes)
            .sum();
        assert!(
            peer > 0,
            "remote neighbor feature rows must cross the interconnect"
        );
    }
}
