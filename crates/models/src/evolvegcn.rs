//! EvolveGCN (Pareja et al., AAAI'20) — discrete-time model whose GCN
//! weights are *evolved* by a recurrent network.
//!
//! Per snapshot (strictly sequential — the paper's Fig 2a dependency):
//! 1. the CPU prepares the snapshot and reloads it **and** the node
//!    features onto the GPU (EvolveGCN re-ships every step rather than
//!    updating on-chip — the §4.3 data-movement bottleneck, worse on
//!    Reddit's larger snapshots than Wikipedia's),
//! 2. the RNN updates the GCN weights (`-O`: weights only; `-H`: weights
//!    plus a top-k sample of node embeddings to match dimensions),
//! 3. two (sparse) GCN layers run with the fresh weights,
//! 4. outputs return to the CPU.
//!
//! Because every kernel is tiny and gated on the previous step, GPU
//! utilization stays below 1%.

use dgnn_datasets::SnapshotDataset;
use dgnn_device::{DeviceTensor, Executor, HostWork, TransferDir};
use dgnn_nn::{GcnLayer, GruCell, Linear, Module};
use dgnn_tensor::{OpDescriptor, Tensor, TensorRng};

use crate::common::{run_units, DgnnModel, InferenceConfig, RunSummary, REP_CAP};
use crate::Result;

/// Framework ops per node during snapshot preparation (adjacency
/// normalization, tensor conversion in interpreted code).
const PREP_NODE_OPS: u64 = 1_000;
/// Framework ops per edge during snapshot preparation.
const PREP_EDGE_OPS: u64 = 500;

/// A shard's share of a byte total (`share` in `[0, 1]`; floors).
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "share is clamped to [0, 1], so the product is a non-negative byte count"
)]
fn share_bytes(total: u64, share: f64) -> u64 {
    (total as f64 * share) as u64
}

/// Which EvolveGCN variant to run (Fig 2a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvolveGcnVersion {
    /// `-O`: the RNN input is the previous GCN weights.
    O,
    /// `-H`: the RNN input is the previous weights *and* a top-k sample
    /// of node embeddings (needs the extra "top-k" module).
    H,
}

/// Hidden width of both GCN layers.
const HIDDEN: usize = 100;

/// The EvolveGCN model bound to a snapshot dataset.
#[derive(Debug, Clone)]
pub struct EvolveGcn {
    data: SnapshotDataset,
    version: EvolveGcnVersion,
    weight_rnn: GruCell,
    gcn1: GcnLayer,
    gcn2: GcnLayer,
    topk_scorer: Linear,
    evolved_weight: Tensor,
}

impl EvolveGcn {
    /// Builds the given EvolveGCN variant over a snapshot dataset.
    pub fn new(data: SnapshotDataset, version: EvolveGcnVersion, seed: u64) -> Self {
        let mut rng = TensorRng::seed(seed);
        let in_dim = data.node_dim();
        EvolveGcn {
            weight_rnn: GruCell::new(HIDDEN, HIDDEN, &mut rng),
            gcn1: GcnLayer::new(in_dim, HIDDEN, &mut rng),
            gcn2: GcnLayer::new(HIDDEN, HIDDEN, &mut rng),
            topk_scorer: Linear::new(in_dim, 1, &mut rng),
            evolved_weight: rng.init(&[HIDDEN, HIDDEN], dgnn_tensor::Initializer::XavierUniform),
            data,
            version,
        }
    }

    /// The variant being run.
    pub fn version(&self) -> EvolveGcnVersion {
        self.version
    }

    fn modules(&self) -> Vec<&dyn Module> {
        vec![&self.weight_rnn, &self.gcn1, &self.gcn2, &self.topk_scorer]
    }
}

impl DgnnModel for EvolveGcn {
    fn name(&self) -> &'static str {
        match self.version {
            EvolveGcnVersion::O => "evolvegcn_o",
            EvolveGcnVersion::H => "evolvegcn_h",
        }
    }

    fn param_bytes(&self) -> u64 {
        self.modules().iter().map(|m| m.param_bytes()).sum::<u64>() + self.evolved_weight.byte_len()
    }

    fn param_tensors(&self) -> u64 {
        self.modules()
            .iter()
            .map(|m| m.param_tensor_count())
            .sum::<u64>()
            + 1
    }

    fn activation_bytes(&self, _cfg: &InferenceConfig) -> u64 {
        (self.data.n_nodes() * HIDDEN * 4 * 2) as u64
    }

    /// One driver for every shard count. Every snapshot's node set is
    /// split by the deterministic greedy edge-cut partitioner
    /// ([`dgnn_graph::greedy_edge_cut`]); each shard reloads and runs
    /// the GCN over its own part, cut edges pull the remote endpoint's
    /// feature rows as peer transfers, and the tiny `h×h` weight
    /// evolution is *replicated* on every device (cheaper than
    /// broadcasting the evolved matrix each step, and functionally
    /// identical since every shard evolves from the same input). One
    /// shard is the single-device engine: one part, no cut, no barrier.
    fn infer(&mut self, ex: &mut Executor, cfg: &InferenceConfig) -> Result<RunSummary> {
        let plan = cfg.plan(ex);
        // Multi-shard rule 2: a sharded run prices the reload per tensor,
        // even under `Staged`. On one forked shard this moves
        // EvolveGCN-O (Small, seed 1, eight snapshots) from 18.71 to
        // 18.74 ms.
        let per_tensor = plan.granular || plan.shards > 1;

        let n = self.data.n_nodes();
        let d_in = self.data.node_dim();
        let feat_bytes = (n * d_in * 4) as u64;
        let mut checksum = 0.0f32;

        let n_steps = self.data.snapshots.len().min(cfg.max_units.max(1));
        // Representative functional sub-graph: the first REP_CAP nodes
        // stand in for the full snapshot; each shard's node count scales
        // the pricing to its part.
        let rep_n = n.min(REP_CAP);
        let rep_feats = self
            .data
            .node_features
            .gather_rows(&(0..rep_n).collect::<Vec<_>>())?;

        let (iterations, time) = run_units(ex, plan, 0..n_steps, |dx, step| {
            let snap = &self.data.snapshots.snapshots()[step];
            let edges: Vec<(usize, usize)> =
                snap.graph.iter_edges().map(|(u, v, _)| (u, v)).collect();
            let part = dgnn_graph::greedy_edge_cut(n, &edges, plan.shards);
            // Per-shard tallies: owned nodes, owned edges (an edge
            // belongs to its source's part) and the cut matrix —
            // cut[s][o] edges need part o's endpoint rows on s.
            let mut n_s = vec![0usize; plan.shards];
            for &p in &part.part {
                n_s[p] += 1;
            }
            let mut e_s = vec![0u64; plan.shards];
            let mut cut = vec![vec![0u64; plan.shards]; plan.shards];
            for &(u, v) in &edges {
                let pu = part.part[u];
                e_s[pu] += 1;
                let pv = part.part[v];
                if pv != pu {
                    cut[pu][pv] += 1;
                }
            }

            // Representative dense adjacency over the leading nodes
            // (shared across shards; each adopts it at its own scale).
            let rep_edges: Vec<(usize, usize, f32)> = snap
                .graph
                .iter_edges()
                .filter(|&(s, d, _)| s < rep_n && d < rep_n)
                .collect();
            let rep_graph = dgnn_graph::Graph::from_weighted_edges(rep_n, &rep_edges)?;
            let rep_adj_data = Tensor::from_vec(rep_graph.normalized_adjacency(), &[rep_n, rep_n])?;

            let mut next_weight: Option<Tensor> = None;
            for s in 0..plan.shards {
                if n_s[s] == 0 {
                    continue;
                }
                dx.on_device(s, |dx| -> Result<()> {
                    let shard_scale = n_s[s] as f64 / rep_n as f64;
                    let node_share = n_s[s] as f64 / n as f64;
                    // An edgeless snapshot's topology is its offsets
                    // array, split like the nodes.
                    let edge_share = if edges.is_empty() {
                        node_share
                    } else {
                        e_s[s] as f64 / edges.len() as f64
                    };
                    let topo_bytes = share_bytes(snap.graph.byte_len(), edge_share);
                    let part_feat_bytes = share_bytes(feat_bytes, node_share);

                    // 1. Snapshot preparation (CPU) and reload of the
                    // part's topology and feature rows. Pipelined runs
                    // prefetch snapshot i+1 while snapshot i's (strictly
                    // sequential) kernels run.
                    dx.prep("snapshot_prep", |dx| {
                        dx.host(HostWork {
                            label: "prepare_snapshot",
                            ops: n_s[s] as u64 * PREP_NODE_OPS + e_s[s] * PREP_EDGE_OPS,
                            seq_bytes: part_feat_bytes,
                            irregular_bytes: topo_bytes,
                            parallelism: 1,
                        });
                    });
                    // CSR topology + node features + per-edge features
                    // are re-shipped every snapshot; Reddit's denser
                    // snapshots move proportionally more (Fig 7i/j).
                    // Per-tensor pricing ships the three constituents
                    // individually. Cut edges pull the remote
                    // endpoint's input-feature and hidden rows from
                    // their owning device (both GCN layers read them).
                    let edge_feat_bytes = e_s[s] * (d_in * 4) as u64;
                    dx.h2d(|dx| {
                        if per_tensor {
                            for bytes in [topo_bytes, part_feat_bytes, edge_feat_bytes] {
                                dx.transfer(TransferDir::H2D, bytes);
                            }
                        } else {
                            let reload = DeviceTensor::host_scaled(
                                Tensor::zeros(&[1, 1]),
                                (topo_bytes + part_feat_bytes + edge_feat_bytes) as f64 / 4.0,
                            );
                            dx.ensure_resident(&reload);
                        }
                        for (o, &cut_rows) in cut[s].iter().enumerate() {
                            if o != s && cut_rows > 0 {
                                dx.peer_transfer(o, cut_rows * ((d_in + HIDDEN) * 4) as u64);
                            }
                        }
                    });

                    // 2. Weight evolution (RNN), plus top-k for -H.
                    if self.version == EvolveGcnVersion::H {
                        checksum += dx.compute("topk", |dx| -> Result<f32> {
                            // Score the part's nodes with a
                            // fully-connected layer: the rep rows run
                            // functionally, the node-count scale prices
                            // the part.
                            let feats = dx.adopt(rep_feats.clone(), shard_scale);
                            let scores = self.topk_scorer.forward(dx, &feats)?;
                            // Sort and gather have no functional
                            // counterpart at rep size — charge them
                            // directly.
                            dx.charge(OpDescriptor::sort("topk_sort", n_s[s]), 1.0);
                            dx.charge(OpDescriptor::gather("topk_gather", HIDDEN, HIDDEN), 1.0);
                            // Scores come back to the host for the index
                            // selection, an interpreted partial sort.
                            let logn = 64 - (n_s[s].max(2) as u64).leading_zeros() as u64;
                            dx.host(HostWork::irregular(
                                "topk_select",
                                2 * n_s[s] as u64 * logn,
                                (n_s[s] * 4) as u64,
                            ));
                            Ok(scores.data().sum() * 1e-3)
                        })?;
                    }
                    let evolved = dx.compute("rnn", |dx| -> Result<Tensor> {
                        // The GRU treats the h×h weight matrix as h rows
                        // of dimension h — one functional step through
                        // the dispatcher both prices and computes the
                        // evolution.
                        let w = dx.adopt(self.evolved_weight.clone(), 1.0);
                        let evolved = self.weight_rnn.forward(dx, &w, &w)?;
                        Ok(evolved.data().clone())
                    })?;

                    // 3. Two GCN layers over the part with the evolved
                    // weights: propagate (A·X), transform (·W), ReLU —
                    // priced at the part's node count through the
                    // adjacency's scale.
                    let emb = dx.compute("gnn", |dx| -> Result<DeviceTensor> {
                        let rep_adj = dx.adopt(rep_adj_data.clone(), shard_scale);
                        let x = dx.adopt(rep_feats.clone(), shard_scale);
                        let h1 = self.gcn1.forward(dx, &rep_adj, &x)?;
                        self.gcn2
                            .forward_with_weight(dx, &rep_adj, &h1, &evolved)
                            .map_err(Into::into)
                    })?;
                    checksum += emb.data().sum() * 1e-3;
                    next_weight = Some(evolved);

                    // 4. The part's embeddings back to the CPU.
                    let out = dx.adopt(Tensor::zeros(&[rep_n, HIDDEN]), shard_scale);
                    dx.d2h(|dx| dx.download(&out));
                    Ok(())
                })?;
            }
            // Every shard evolved the same matrix from the same input;
            // commit it once after the fan-out.
            if let Some(w) = next_weight {
                self.evolved_weight = w;
            }
            Ok(())
        })?;
        Ok(RunSummary::new(iterations, time, checksum))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_datasets::{as_snapshots, bitcoin_alpha, wikipedia, Scale};
    use dgnn_device::{ExecMode, PlatformSpec};
    use dgnn_profile::InferenceProfile;

    fn build(version: EvolveGcnVersion) -> EvolveGcn {
        EvolveGcn::new(bitcoin_alpha(Scale::Tiny, 1), version, 7)
    }

    fn cfg() -> InferenceConfig {
        InferenceConfig::default().with_max_units(6)
    }

    #[test]
    fn both_versions_run() {
        for v in [EvolveGcnVersion::O, EvolveGcnVersion::H] {
            let mut m = build(v);
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            let s = m.run(&mut ex, &cfg()).unwrap();
            assert_eq!(s.iterations, 6);
            assert!(s.checksum.is_finite());
        }
    }

    #[test]
    fn h_version_has_topk_module() {
        let mut m = build(EvolveGcnVersion::H);
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        m.run(&mut ex, &cfg()).unwrap();
        let p = InferenceProfile::capture(&ex, "inference");
        assert!(p.breakdown.share_of("topk") > 0.0);

        let mut mo = build(EvolveGcnVersion::O);
        let mut exo = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        mo.run(&mut exo, &cfg()).unwrap();
        let po = InferenceProfile::capture(&exo, "inference");
        assert_eq!(po.breakdown.share_of("topk"), 0.0);
    }

    #[test]
    fn gpu_utilization_below_one_percent_scale() {
        // The <1% claim reproduces at realistic node counts; Tiny-scale
        // graphs are launch-bound everywhere, so test at Small scale.
        let mut m = EvolveGcn::new(bitcoin_alpha(Scale::Small, 1), EvolveGcnVersion::O, 7);
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        m.run(&mut ex, &cfg()).unwrap();
        let p = InferenceProfile::capture(&ex, "inference");
        assert!(
            p.utilization.busy_fraction < 0.03,
            "EvolveGCN util {}",
            p.utilization.busy_fraction
        );
    }

    #[test]
    fn weights_evolve_across_snapshots() {
        let mut m = build(EvolveGcnVersion::O);
        let before = m.evolved_weight.clone();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        m.run(&mut ex, &cfg()).unwrap();
        assert_ne!(before, m.evolved_weight);
    }

    #[test]
    fn reddit_style_snapshots_move_more_data_than_wikipedia() {
        let bytes = |data: dgnn_datasets::SnapshotDataset| {
            let mut m = EvolveGcn::new(data, EvolveGcnVersion::O, 7);
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            m.run(&mut ex, &cfg()).unwrap();
            ex.timeline().transfer_bytes(None)
        };
        let wiki = bytes(as_snapshots(&wikipedia(Scale::Tiny, 1), 12));
        let red = bytes(as_snapshots(&dgnn_datasets::reddit(Scale::Tiny, 1), 12));
        assert!(red > wiki, "reddit {red} vs wikipedia {wiki}");
    }

    #[test]
    fn names_distinguish_versions() {
        assert_eq!(build(EvolveGcnVersion::O).name(), "evolvegcn_o");
        assert_eq!(build(EvolveGcnVersion::H).name(), "evolvegcn_h");
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut m = build(EvolveGcnVersion::H);
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            let s = m.run(&mut ex, &cfg()).unwrap();
            (s.checksum, ex.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sharded_weights_evolve_identically_to_single_device() {
        // The replicated weight evolution runs from the same input on
        // every shard, so the evolved matrix after n steps must equal
        // the single-device run's bit for bit.
        let evolve = |shards: usize| {
            let mut m = build(EvolveGcnVersion::O);
            let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(2), ExecMode::Gpu);
            m.run(&mut ex, &cfg().with_shards(shards)).unwrap();
            m.evolved_weight.clone()
        };
        assert_eq!(evolve(1), evolve(2));
    }

    #[test]
    fn sharded_snapshot_reload_splits_and_cut_edges_cross() {
        let run = |shards: usize| {
            let mut m = build(EvolveGcnVersion::O);
            let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(4), ExecMode::Gpu);
            m.run(&mut ex, &cfg().with_shards(shards)).unwrap();
            let peer: u64 = ex
                .timeline()
                .events()
                .iter()
                .filter(|e| e.category == dgnn_device::EventCategory::PeerTransfer)
                .map(|e| e.bytes)
                .sum();
            (ex.now(), peer)
        };
        let (single, no_peer) = run(1);
        let (sharded, peer) = run(4);
        assert_eq!(no_peer, 0);
        assert!(peer > 0, "a connected snapshot has cut edges");
        assert!(
            sharded < single,
            "splitting the snapshot reload must win: {sharded:?} vs {single:?}"
        );
    }
}
