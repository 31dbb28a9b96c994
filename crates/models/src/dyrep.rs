//! DyRep (Trivedi et al., ICLR'19) — temporal point process over
//! dynamic graphs.
//!
//! Events are processed **one at a time**: computing the conditional
//! intensity at time `t` requires the node embeddings as of the previous
//! event, so updating embeddings and evaluating intensities strictly
//! alternate (Fig 4a). On the GPU this produces thousands of tiny,
//! serialized kernels; inference on the GPU never beats the CPU at any
//! batch size (Fig 8) and utilization stays under 2%.

use dgnn_datasets::TemporalDataset;
use dgnn_device::{DeviceTensor, Dispatcher, Executor, HostWork};
use dgnn_nn::{EmbeddingTable, Linear, Module, RnnCell};
use dgnn_tensor::{Tensor, TensorRng};

use crate::common::{DgnnModel, InferenceConfig, RunSummary};
use crate::registry::{all_model_infos, ModelInfo};
use crate::Result;

/// Framework ops per event in the reference implementation's Python
/// event loop (embedding gathering, neighborhood bookkeeping, intensity
/// bookkeeping) — DyRep processes events at roughly millisecond cost.
const EVENT_LOOP_OPS: u64 = 400_000;

/// DyRep hyper-parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DyRepConfig {
    /// Node-embedding dimension.
    pub dim: usize,
}

impl Default for DyRepConfig {
    fn default() -> Self {
        DyRepConfig { dim: 32 }
    }
}

/// The DyRep model bound to a dataset.
#[derive(Debug)]
pub struct DyRep {
    data: TemporalDataset,
    cfg: DyRepConfig,
    embeddings: EmbeddingTable,
    update_rnn: RnnCell,
    intensity: Linear,
    attention_w: Linear,
}

impl DyRep {
    /// Builds DyRep over an event dataset.
    pub fn new(data: TemporalDataset, cfg: DyRepConfig, seed: u64) -> Self {
        let mut rng = TensorRng::seed(seed);
        let d = cfg.dim;
        // RNN input: local propagation + self propagation + exogenous drive.
        DyRep {
            embeddings: EmbeddingTable::new(data.stream.n_nodes(), d, &mut rng),
            update_rnn: RnnCell::new(3 * d, d, &mut rng),
            intensity: Linear::new(2 * d, 1, &mut rng),
            attention_w: Linear::new(2 * d, 1, &mut rng),
            data,
            cfg,
        }
    }

    fn modules(&self) -> Vec<&dyn Module> {
        vec![
            &self.embeddings,
            &self.update_rnn,
            &self.intensity,
            &self.attention_w,
        ]
    }
}

impl DgnnModel for DyRep {
    fn name(&self) -> &'static str {
        "dyrep"
    }

    fn info(&self) -> ModelInfo {
        all_model_infos()
            .into_iter()
            .find(|i| i.name == "dyrep")
            .expect("dyrep registered")
    }

    fn param_bytes(&self) -> u64 {
        self.modules().iter().map(|m| m.param_bytes()).sum()
    }

    fn param_tensors(&self) -> u64 {
        self.modules().iter().map(|m| m.param_tensor_count()).sum()
    }

    fn activation_bytes(&self, cfg: &InferenceConfig) -> u64 {
        (cfg.batch_size * self.cfg.dim * 4 * 4) as u64
    }

    fn infer(&mut self, ex: &mut Executor, cfg: &InferenceConfig) -> Result<RunSummary> {
        cfg.apply_device_options(ex);
        let d = self.cfg.dim;
        let mut checksum = 0.0f32;
        let mut iterations = 0usize;

        let batches: Vec<Vec<dgnn_graph::TemporalEvent>> = self
            .data
            .stream
            .batches(cfg.batch_size)
            .take(cfg.max_units.max(1))
            .map(|b| b.to_vec())
            .collect();

        let run: Result<()> = ex.scope("inference", |ex| {
            let mut dx = Dispatcher::new(ex);
            for batch in &batches {
                // Batch features to device once per batch.
                let payload = DeviceTensor::host_scaled(
                    Tensor::zeros(&[1, self.data.edge_dim() + 4]),
                    batch.len() as f64,
                );
                dx.scope("memcpy_h2d", |dx| dx.ensure_resident(&payload));

                // Serial per-event processing — the temporal dependency.
                // Every event runs through the dispatcher: the tiny GEMMs
                // it prices ARE the tiny GEMMs it computes.
                for e in batch.iter() {
                    dx.scope("event_loop", |dx| {
                        dx.host(HostWork {
                            label: "event_bookkeeping",
                            ops: EVENT_LOOP_OPS,
                            seq_bytes: 512,
                            irregular_bytes: (4 * d * 4) as u64,
                            parallelism: 1,
                        });
                    });
                    dx.scope("embedding_update", |dx| -> Result<()> {
                        let pair = [e.src, e.dst];
                        let emb = self.embeddings.lookup(dx, &pair)?;
                        let x = dx.adopt(
                            emb.data()
                                .concat_cols(emb.data())?
                                .concat_cols(emb.data())?,
                            1.0,
                        );
                        let new = self.update_rnn.forward(dx, &x, &emb)?;
                        self.embeddings.update(dx, &pair, &new)?;
                        // Conditional intensity (bilinear + softplus).
                        let both = dx.adopt(new.data().reshape(&[1, 2 * d])?, 1.0);
                        let raw = self.intensity.forward(dx, &both)?;
                        let lambda = dx.activation("softplus", &raw, Tensor::softplus);
                        checksum += lambda.data().sum();
                        // Temporal attention weight refresh.
                        self.attention_w.forward(dx, &both)?;
                        Ok(())
                    })?;
                }

                let readback = dx.adopt(Tensor::zeros(&[1, d]), batch.len() as f64);
                dx.scope("memcpy_d2h", |dx| dx.download(&readback));
                iterations += 1;
            }
            Ok(())
        });
        run?;

        let inference_time = ex
            .scopes()
            .iter()
            .rev()
            .find(|s| s.path == "inference")
            .map(|s| s.duration())
            .unwrap_or_default();
        Ok(RunSummary::new(iterations, inference_time, checksum))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_datasets::{social_evolution, Scale};
    use dgnn_device::{ExecMode, PlatformSpec};
    use dgnn_profile::InferenceProfile;

    fn build() -> DyRep {
        DyRep::new(social_evolution(Scale::Tiny, 1), DyRepConfig::default(), 7)
    }

    fn cfg(bs: usize) -> InferenceConfig {
        InferenceConfig::default()
            .with_batch_size(bs)
            .with_max_units(2)
    }

    #[test]
    fn runs_and_produces_finite_intensities() {
        let mut m = build();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        let s = m.run(&mut ex, &cfg(64)).unwrap();
        assert_eq!(s.iterations, 2);
        assert!(s.checksum.is_finite());
        assert!(s.checksum > 0.0, "softplus intensities are positive");
    }

    #[test]
    fn gpu_utilization_below_two_percent() {
        let mut m = build();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        m.run(&mut ex, &cfg(64)).unwrap();
        let p = InferenceProfile::capture(&ex, "inference");
        assert!(
            p.utilization.busy_fraction < 0.05,
            "DyRep util {}",
            p.utilization.busy_fraction
        );
    }

    #[test]
    fn gpu_never_beats_cpu() {
        for bs in [32usize, 128] {
            let time = |mode| {
                let mut m = build();
                let mut ex = Executor::new(PlatformSpec::default(), mode);
                m.run(&mut ex, &cfg(bs)).unwrap().inference_time
            };
            let cpu = time(ExecMode::CpuOnly);
            let gpu = time(ExecMode::Gpu);
            assert!(gpu >= cpu, "bs={bs}: gpu {gpu} should not beat cpu {cpu}");
        }
    }

    #[test]
    fn embeddings_update_serially() {
        let mut m = build();
        let before = m.embeddings.table().clone();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        m.run(&mut ex, &cfg(32)).unwrap();
        assert_ne!(&before, m.embeddings.table());
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut m = build();
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            let s = m.run(&mut ex, &cfg(32)).unwrap();
            (s.checksum, ex.now())
        };
        assert_eq!(run(), run());
    }
}
