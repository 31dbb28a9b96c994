//! MolDGNN (Ashby & Bilbrey, 2021) — discrete-time GCN-LSTM over
//! molecular dynamics trajectories.
//!
//! Per frame of a trajectory (frames are strictly sequential through the
//! LSTM), a batch of molecules is processed together:
//! 1. the CPU ships every molecule's dense adjacency matrix of the frame
//!    to the GPU (the paper's dominant cost — memcpy is 80–90% of GPU
//!    working time, Fig 7b),
//! 2. a GCN encodes each molecular graph,
//! 3. an LSTM carries the temporal state,
//! 4. the predicted next-frame adjacency matrices return to the CPU for
//!    atom-distance calculation.

use dgnn_datasets::TrajectoryDataset;
use dgnn_device::{DeviceTensor, Executor, HostWork, TensorClass, TransferDir};
use dgnn_nn::{GcnLayer, Linear, LstmCell, Module};
use dgnn_tensor::{Tensor, TensorRng};

use crate::common::{representative, run_units, DgnnModel, InferenceConfig, RunSummary};
use crate::Result;

/// Framework ops per molecule per frame for the vectorized (numpy)
/// pairwise-distance and adjacency assembly.
const FRAME_MOLECULE_OPS: u64 = 400;
/// Fixed framework ops per frame: the reference steps frames from a
/// Python loop (slicing trajectories, rebuilding tensors) at roughly a
/// millisecond per frame regardless of batch size.
const FRAME_LOOP_OPS: u64 = 300_000;

/// GCN output width per atom.
const GCN_DIM: usize = 16;
/// LSTM hidden width (over the flattened molecule embedding).
const LSTM_DIM: usize = 64;
/// Frames rolled through per unit, capped at the dataset's frames per
/// molecule.
const FRAMES: usize = 10;

/// The MolDGNN model bound to a trajectory dataset.
#[derive(Debug, Clone)]
pub struct MolDgnn {
    data: TrajectoryDataset,
    gcn: GcnLayer,
    lstm: LstmCell,
    decoder: Linear,
}

impl MolDgnn {
    /// Builds MolDGNN over a trajectory dataset.
    pub fn new(data: TrajectoryDataset, seed: u64) -> Self {
        let mut rng = TensorRng::seed(seed);
        let atoms = data.n_atoms;
        MolDgnn {
            gcn: GcnLayer::new(3, GCN_DIM, &mut rng),
            lstm: LstmCell::new(atoms * GCN_DIM, LSTM_DIM, &mut rng),
            decoder: Linear::new(LSTM_DIM, atoms * atoms, &mut rng),
            data,
        }
    }

    fn modules(&self) -> Vec<&dyn Module> {
        vec![&self.gcn, &self.lstm, &self.decoder]
    }

    /// Bytes of one batch's dense adjacency matrices per frame.
    fn adjacency_bytes(&self, batch: usize) -> u64 {
        (batch * self.data.n_atoms * self.data.n_atoms * 4) as u64
    }

    /// Normalized adjacency and atom coordinates of one molecule frame.
    fn molecule_inputs(&self, mol: usize, frame: usize) -> Result<(Tensor, Tensor)> {
        let atoms = self.data.n_atoms;
        let snap = &self.data.molecules[mol].snapshots()[frame];
        let adj = Tensor::from_vec(snap.graph.normalized_adjacency(), &[atoms, atoms])?;
        let pos_idx = mol * self.data.frames_per_molecule() + frame;
        let coords = self
            .data
            .positions
            .reshape(&[
                self.data.n_molecules() * self.data.frames_per_molecule(),
                atoms * 3,
            ])?
            .row(pos_idx)?
            .reshape(&[atoms, 3])?;
        Ok((adj, coords))
    }
}

impl DgnnModel for MolDgnn {
    fn name(&self) -> &'static str {
        "moldgnn"
    }

    fn param_bytes(&self) -> u64 {
        self.modules().iter().map(|m| m.param_bytes()).sum()
    }

    fn param_tensors(&self) -> u64 {
        self.modules().iter().map(|m| m.param_tensor_count()).sum()
    }

    fn activation_bytes(&self, cfg: &InferenceConfig) -> u64 {
        self.adjacency_bytes(cfg.batch_size) * 2 + (cfg.batch_size * LSTM_DIM * 4) as u64
    }

    /// One driver for every shard count. The batch's molecules split
    /// into contiguous ranges — molecules are independent graphs, so the
    /// partition has zero edge cut and *no* peer traffic. Each device
    /// rolls its molecule range through its own GCN-LSTM (frames stay
    /// strictly sequential per shard); shards synchronize once per
    /// trajectory unit. One shard is the single-device engine.
    fn infer(&mut self, ex: &mut Executor, cfg: &InferenceConfig) -> Result<RunSummary> {
        let plan = cfg.plan(ex);
        // Multi-shard rule 2: a sharded run prices every copy per tensor,
        // even under `Staged`. On one forked shard this moves MolDGNN
        // (Small, seed 1, `multi_gpu`'s config) from 52.94 to 54.50 ms.
        let per_tensor = plan.granular || plan.shards > 1;

        let b = cfg.batch_size.max(1);
        let ranges = dgnn_graph::contiguous_ranges(b, plan.shards);
        let frames = FRAMES.min(self.data.frames_per_molecule()).max(1);
        let flat = self.data.n_atoms * GCN_DIM;
        let mut checksum = 0.0f32;

        // One representative per-molecule LSTM state per shard,
        // resident on its device, carrying that shard's molecule range.
        let mut states: Vec<Option<dgnn_nn::LstmState>> = vec![None; plan.shards];
        let (iterations, time) = run_units(ex, plan, 0..cfg.max_units.max(1), |dx, _| {
            for (s, range) in ranges.iter().enumerate() {
                let b_s = range.len();
                if b_s == 0 {
                    continue;
                }
                let rep = representative(b_s.min(self.data.n_molecules()));
                let mol_scale = b_s as f64 / rep as f64;
                dx.on_device(s, |dx| -> Result<()> {
                    let mut state = match states[s].take() {
                        Some(state) => state,
                        None => self.lstm.zero_state_scaled(dx, rep, mol_scale),
                    };
                    for frame in 0..frames {
                        // 1. Adjacency assembly on CPU + H2D of the
                        // shard's molecules over its own PCIe link.
                        // Pipelined runs prepare frame i+1 while frame
                        // i's kernels run.
                        dx.prep("frame_prep", |dx| {
                            dx.host(HostWork::sequential(
                                "assemble_adjacency",
                                FRAME_LOOP_OPS + b_s as u64 * FRAME_MOLECULE_OPS,
                                self.adjacency_bytes(b_s),
                            ));
                        });
                        // Adjacency matrices plus pairwise distances
                        // and atom coordinates for the frame. Per-tensor
                        // pricing ships each molecule's adjacency as its
                        // own copy (the per-tensor traffic behind Fig
                        // 7b's memcpy wall), plus one coordinate and one
                        // distance block.
                        dx.h2d(|dx| {
                            if plan.cached {
                                // One cache row per molecule-frame pair
                                // (its adjacency + coordinate + distance
                                // blocks). Trajectory frames repeat
                                // across units, so a cache sized to the
                                // working set turns every re-visited
                                // frame's memcpy wall into hits — the
                                // paper's dominant MolDGNN cost (Fig 7b).
                                let keys: Vec<u64> = range
                                    .clone()
                                    .map(|mol| mol as u64 * frames as u64 + frame as u64)
                                    .collect();
                                let row_bytes =
                                    3 * (self.data.n_atoms * self.data.n_atoms * 4) as u64;
                                dx.fetch_rows(TensorClass::EdgeFeature, &keys, row_bytes, 1.0);
                            } else if per_tensor {
                                // b_s adjacency matrices + coordinate
                                // block + distance block = 3 ×
                                // adjacency_bytes.
                                for _ in 0..b_s {
                                    dx.transfer(TransferDir::H2D, self.adjacency_bytes(1));
                                }
                                dx.transfer(TransferDir::H2D, self.adjacency_bytes(b_s));
                                dx.transfer(TransferDir::H2D, self.adjacency_bytes(b_s));
                            } else {
                                let upload = DeviceTensor::host_scaled(
                                    Tensor::zeros(&[1, 1]),
                                    3.0 * self.adjacency_bytes(b_s) as f64 / 4.0,
                                );
                                dx.ensure_resident(&upload);
                            }
                        });

                        // 2. GCN over each molecule (batched small
                        // GEMMs). The first molecule runs through the
                        // dispatcher with the adjacency carrying the
                        // shard's molecule count — one functional pass
                        // prices the whole slice; the other rep
                        // molecules run as plain tensor math to fill the
                        // representative embedding rows without
                        // re-charging. Multi-shard rule 4: every shard
                        // computes molecules `0..rep`, not its own
                        // range; at one shard the two coincide.
                        let rep_emb = dx.compute("gnn", |dx| -> Result<DeviceTensor> {
                            let (adj0, coords0) = self.molecule_inputs(0, frame)?;
                            let adj = dx.adopt(adj0, b_s as f64);
                            let x = dx.adopt(coords0, b_s as f64);
                            let emb0 = self.gcn.forward(dx, &adj, &x)?;
                            let mut rows = vec![emb0.data().reshape(&[flat])?];
                            for mol in 1..rep {
                                let (adj, coords) = self.molecule_inputs(mol, frame)?;
                                let emb = adj.matmul(&coords)?.matmul(self.gcn.weight())?.relu();
                                rows.push(emb.reshape(&[flat])?);
                            }
                            Ok(dx.adopt(Tensor::stack_rows(&rows)?, mol_scale))
                        })?;

                        // 3. LSTM over the temporal sequence.
                        state = dx.compute("rnn", |dx| -> Result<dgnn_nn::LstmState> {
                            self.lstm.forward(dx, &rep_emb, &state).map_err(Into::into)
                        })?;

                        // 4. Decode next-frame adjacency + D2H + CPU
                        // distances.
                        dx.compute("prediction", |dx| -> Result<()> {
                            let pred = self.decoder.forward(dx, &state.0)?;
                            checksum += pred.data().sum() * 1e-3;
                            Ok(())
                        })?;
                        // Predicted adjacency sequence returns to the
                        // CPU for atom-to-atom distance calculation:
                        // predicted adjacencies plus the derived
                        // distance block.
                        let readback = dx.adopt(
                            Tensor::zeros(&[1, 1]),
                            2.0 * self.adjacency_bytes(b_s) as f64 / 4.0,
                        );
                        dx.d2h(|dx| {
                            if per_tensor {
                                dx.transfer(TransferDir::D2H, self.adjacency_bytes(b_s));
                                dx.transfer(TransferDir::D2H, self.adjacency_bytes(b_s));
                            } else {
                                dx.download(&readback);
                            }
                        });
                    }
                    states[s] = Some(state);
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
    use dgnn_datasets::{iso17, Scale};
    use dgnn_device::{ExecMode, PlatformSpec};
    use dgnn_profile::InferenceProfile;

    fn build() -> MolDgnn {
        MolDgnn::new(iso17(Scale::Tiny, 1), 7)
    }

    fn cfg(bs: usize) -> InferenceConfig {
        InferenceConfig::default()
            .with_batch_size(bs)
            .with_max_units(1)
    }

    #[test]
    fn runs_and_profiles() {
        let mut m = build();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        let s = m.run(&mut ex, &cfg(32)).unwrap();
        assert_eq!(s.iterations, 1);
        assert!(s.checksum.is_finite());
    }

    #[test]
    fn memcpy_dominates_gpu_working_time() {
        let mut m = build();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        m.run(&mut ex, &cfg(512)).unwrap();
        let p = InferenceProfile::capture(&ex, "inference");
        let memcpy = p.breakdown.share_of("memcpy_h2d") + p.breakdown.share_of("memcpy_d2h");
        let kernels = p.breakdown.share_of("gnn")
            + p.breakdown.share_of("rnn")
            + p.breakdown.share_of("prediction");
        assert!(
            memcpy > 2.0 * kernels,
            "memcpy {memcpy} should dwarf kernels {kernels}"
        );
    }

    #[test]
    fn utilization_low_and_stable_across_batch_sizes() {
        let util = |bs| {
            let mut m = build();
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            m.run(&mut ex, &cfg(bs)).unwrap();
            InferenceProfile::capture(&ex, "inference")
                .utilization
                .busy_fraction
        };
        let u64_ = util(64);
        let u1024 = util(1024);
        assert!(u64_ < 0.35, "util {u64_}");
        assert!(u1024 < 0.35, "util {u1024}");
    }

    #[test]
    fn memory_grows_with_batch_size() {
        let mem = |bs| {
            let mut m = build();
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            m.run(&mut ex, &cfg(bs)).unwrap();
            ex.gpu_memory().peak_bytes()
        };
        assert!(mem(1024) > mem(64));
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut m = build();
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            let s = m.run(&mut ex, &cfg(16)).unwrap();
            (s.checksum, ex.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sharded_molecule_split_has_zero_peer_traffic_and_wins() {
        let run = |shards: usize| {
            let mut m = build();
            let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(4), ExecMode::Gpu);
            m.run(&mut ex, &cfg(256).with_shards(shards)).unwrap();
            let peer: u64 = ex
                .timeline()
                .events()
                .iter()
                .filter(|e| e.category == dgnn_device::EventCategory::PeerTransfer)
                .map(|e| e.bytes)
                .sum();
            (ex.now(), peer)
        };
        let (single, _) = run(1);
        let (sharded, peer) = run(4);
        assert_eq!(peer, 0, "molecules are disjoint graphs: zero edge cut");
        assert!(
            sharded < single,
            "the memcpy wall splits across links: {sharded:?} vs {single:?}"
        );
    }

    #[test]
    fn sharded_run_is_deterministic() {
        let run = || {
            let mut m = build();
            let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(2), ExecMode::Gpu);
            let s = m.run(&mut ex, &cfg(64).with_shards(2)).unwrap();
            (s.checksum, ex.now())
        };
        assert_eq!(run(), run());
    }
}
