//! LDG (Knyazev et al., 2021) — Latent Dynamic Graph: DyRep's temporal
//! point process plus an NRI-style encoder that infers latent edges and
//! a bilinear decoder (Fig 4b).
//!
//! The per-event update/intensity alternation is inherited from DyRep,
//! so LDG shares its serialization bottleneck: GPU inference does not
//! outperform the CPU and utilization stays under 2% for both the MLP
//! and the bilinear encoder variants.

use dgnn_datasets::TemporalDataset;
use dgnn_device::{DeviceTensor, Dispatcher, Executor, HostWork};
use dgnn_nn::{EmbeddingTable, Linear, Mlp, Module, RnnCell};
use dgnn_tensor::{Tensor, TensorRng};

use crate::common::{DgnnModel, InferenceConfig, RunSummary};
use crate::registry::{all_model_infos, ModelInfo};
use crate::Result;

/// Framework ops per event in the interpreted event loop (as DyRep, plus
/// latent-graph bookkeeping).
const EVENT_LOOP_OPS: u64 = 500_000;

/// Which NRI encoder LDG uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LdgEncoder {
    /// Two-layer MLP over node-pair embeddings.
    Mlp,
    /// Bilinear form over node-pair embeddings.
    Bilinear,
}

/// LDG hyper-parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdgConfig {
    /// Node-embedding dimension.
    pub dim: usize,
    /// Encoder variant.
    pub encoder: LdgEncoder,
}

impl Default for LdgConfig {
    fn default() -> Self {
        LdgConfig {
            dim: 32,
            encoder: LdgEncoder::Bilinear,
        }
    }
}

/// The LDG model bound to a dataset.
#[derive(Debug)]
pub struct Ldg {
    data: TemporalDataset,
    cfg: LdgConfig,
    embeddings: EmbeddingTable,
    update_rnn: RnnCell,
    encoder_mlp: Mlp,
    encoder_bilinear: Linear,
    decoder: Linear,
}

impl Ldg {
    /// Builds LDG over an event dataset.
    pub fn new(data: TemporalDataset, cfg: LdgConfig, seed: u64) -> Self {
        let mut rng = TensorRng::seed(seed);
        let d = cfg.dim;
        Ldg {
            embeddings: EmbeddingTable::new(data.stream.n_nodes(), d, &mut rng),
            update_rnn: RnnCell::new(3 * d, d, &mut rng),
            encoder_mlp: Mlp::new(&[2 * d, 2 * d, d], &mut rng),
            encoder_bilinear: Linear::new(2 * d, d, &mut rng),
            decoder: Linear::new(2 * d, 1, &mut rng),
            data,
            cfg,
        }
    }

    /// The configured encoder variant.
    pub fn encoder(&self) -> LdgEncoder {
        self.cfg.encoder
    }

    fn modules(&self) -> Vec<&dyn Module> {
        vec![
            &self.embeddings,
            &self.update_rnn,
            &self.encoder_mlp,
            &self.encoder_bilinear,
            &self.decoder,
        ]
    }
}

impl DgnnModel for Ldg {
    fn name(&self) -> &'static str {
        match self.cfg.encoder {
            LdgEncoder::Mlp => "ldg_mlp",
            LdgEncoder::Bilinear => "ldg_bilinear",
        }
    }

    fn info(&self) -> ModelInfo {
        all_model_infos()
            .into_iter()
            .find(|i| i.name == "ldg")
            .expect("ldg registered")
    }

    fn param_bytes(&self) -> u64 {
        self.modules().iter().map(|m| m.param_bytes()).sum()
    }

    fn param_tensors(&self) -> u64 {
        self.modules().iter().map(|m| m.param_tensor_count()).sum()
    }

    fn activation_bytes(&self, cfg: &InferenceConfig) -> u64 {
        (cfg.batch_size * self.cfg.dim * 4 * 5) as u64
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
                let payload = DeviceTensor::host_scaled(
                    Tensor::zeros(&[1, self.data.edge_dim() + 4]),
                    batch.len() as f64,
                );
                dx.scope("memcpy_h2d", |dx| dx.ensure_resident(&payload));

                for e in batch.iter() {
                    dx.scope("event_loop", |dx| {
                        dx.host(HostWork {
                            label: "event_bookkeeping",
                            ops: EVENT_LOOP_OPS,
                            seq_bytes: 512,
                            irregular_bytes: (5 * d * 4) as u64,
                            parallelism: 1,
                        });
                    });

                    // NRI encoder over the event's node pair.
                    let pair_emb = dx.scope("encoder", |dx| -> Result<DeviceTensor> {
                        let emb = self.embeddings.lookup(dx, &[e.src, e.dst])?;
                        let x = dx.adopt(emb.data().reshape(&[1, 2 * d])?, 1.0);
                        match self.cfg.encoder {
                            LdgEncoder::Mlp => self.encoder_mlp.forward(dx, &x).map_err(Into::into),
                            LdgEncoder::Bilinear => {
                                self.encoder_bilinear.forward(dx, &x).map_err(Into::into)
                            }
                        }
                    })?;

                    // DyRep-style embedding update driven by the latent
                    // edge representation.
                    dx.scope("embedding_update", |dx| -> Result<()> {
                        let pair = [e.src, e.dst];
                        let emb = self.embeddings.lookup(dx, &pair)?;
                        let drive = pair_emb.data().concat_rows(pair_emb.data())?;
                        let x = dx.adopt(
                            emb.data().concat_cols(emb.data())?.concat_cols(&drive)?,
                            1.0,
                        );
                        let new = self.update_rnn.forward(dx, &x, &emb)?;
                        self.embeddings.update(dx, &pair, &new)?;
                        Ok(())
                    })?;

                    // Bilinear decoder scores the interaction.
                    dx.scope("decoder", |dx| -> Result<()> {
                        let emb = self.embeddings.lookup(dx, &[e.src, e.dst])?;
                        let x = dx.adopt(emb.data().reshape(&[1, 2 * d])?, 1.0);
                        let score = self.decoder.forward(dx, &x)?;
                        let prob = dx.activation("sigmoid", &score, Tensor::sigmoid);
                        checksum += prob.data().sum();
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
    use dgnn_datasets::{github, Scale};
    use dgnn_device::{ExecMode, PlatformSpec};
    use dgnn_profile::InferenceProfile;

    fn build(encoder: LdgEncoder) -> Ldg {
        Ldg::new(github(Scale::Tiny, 1), LdgConfig { dim: 32, encoder }, 7)
    }

    fn cfg(bs: usize) -> InferenceConfig {
        InferenceConfig::default()
            .with_batch_size(bs)
            .with_max_units(2)
    }

    #[test]
    fn both_encoders_run() {
        for enc in [LdgEncoder::Mlp, LdgEncoder::Bilinear] {
            let mut m = build(enc);
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            let s = m.run(&mut ex, &cfg(48)).unwrap();
            assert_eq!(s.iterations, 2);
            assert!(s.checksum.is_finite());
        }
    }

    #[test]
    fn mlp_encoder_costs_more_than_bilinear() {
        let time = |enc| {
            let mut m = build(enc);
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            m.run(&mut ex, &cfg(48)).unwrap().inference_time
        };
        assert!(time(LdgEncoder::Mlp) > time(LdgEncoder::Bilinear));
    }

    #[test]
    fn gpu_never_beats_cpu() {
        let time = |mode| {
            let mut m = build(LdgEncoder::Bilinear);
            let mut ex = Executor::new(PlatformSpec::default(), mode);
            m.run(&mut ex, &cfg(48)).unwrap().inference_time
        };
        assert!(time(ExecMode::Gpu) >= time(ExecMode::CpuOnly));
    }

    #[test]
    fn utilization_under_two_percent_scale() {
        let mut m = build(LdgEncoder::Mlp);
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        m.run(&mut ex, &cfg(48)).unwrap();
        let p = InferenceProfile::capture(&ex, "inference");
        assert!(
            p.utilization.busy_fraction < 0.05,
            "LDG util {}",
            p.utilization.busy_fraction
        );
    }

    #[test]
    fn names_distinguish_encoders() {
        assert_eq!(build(LdgEncoder::Mlp).name(), "ldg_mlp");
        assert_eq!(build(LdgEncoder::Bilinear).name(), "ldg_bilinear");
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut m = build(LdgEncoder::Bilinear);
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            let s = m.run(&mut ex, &cfg(32)).unwrap();
            (s.checksum, ex.now())
        };
        assert_eq!(run(), run());
    }
}
