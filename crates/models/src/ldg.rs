//! LDG (Knyazev et al., 2021) — Latent Dynamic Graph: DyRep's temporal
//! point process plus an NRI-style encoder that infers latent edges and
//! a bilinear decoder (Fig 4b).
//!
//! The per-event update/intensity alternation is inherited from DyRep,
//! so LDG shares its serialization bottleneck: GPU inference does not
//! outperform the CPU and utilization stays under 2% for both the MLP
//! and the bilinear encoder variants.

use std::sync::Arc;

use dgnn_datasets::TemporalDataset;
use dgnn_device::{DeviceTensor, Executor, HostWork};
use dgnn_graph::EventStream;
use dgnn_nn::{EmbeddingTable, Linear, Mlp, Module, RnnCell};
use dgnn_tensor::{Tensor, TensorRng};

use crate::common::{run_units, DgnnModel, InferenceConfig, RunPlan, RunSummary};
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

/// Node-embedding width.
const DIM: usize = 32;

/// The LDG model bound to a dataset's event stream.
#[derive(Debug, Clone)]
pub struct Ldg {
    stream: Arc<EventStream>,
    edge_dim: usize,
    encoder: LdgEncoder,
    embeddings: EmbeddingTable,
    update_rnn: RnnCell,
    encoder_mlp: Mlp,
    encoder_bilinear: Linear,
    decoder: Linear,
}

impl Ldg {
    /// Builds LDG with the given encoder over an event dataset, owned or
    /// shared. It keeps the stream, which clones share, and the
    /// edge-feature width, not the features.
    pub fn new(data: impl Into<Arc<TemporalDataset>>, encoder: LdgEncoder, seed: u64) -> Self {
        let data = data.into();
        let mut rng = TensorRng::seed(seed);
        Ldg {
            embeddings: EmbeddingTable::new(data.stream.n_nodes(), DIM, &mut rng),
            update_rnn: RnnCell::new(3 * DIM, DIM, &mut rng),
            encoder_mlp: Mlp::new(&[2 * DIM, 2 * DIM, DIM], &mut rng),
            encoder_bilinear: Linear::new(2 * DIM, DIM, &mut rng),
            decoder: Linear::new(2 * DIM, 1, &mut rng),
            stream: Arc::new(data.stream.clone()),
            edge_dim: data.edge_dim(),
            encoder,
        }
    }

    /// The configured encoder variant.
    pub fn encoder(&self) -> LdgEncoder {
        self.encoder
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
        match self.encoder {
            LdgEncoder::Mlp => "ldg_mlp",
            LdgEncoder::Bilinear => "ldg_bilinear",
        }
    }

    fn param_bytes(&self) -> u64 {
        self.modules().iter().map(|m| m.param_bytes()).sum()
    }

    fn param_tensors(&self) -> u64 {
        self.modules().iter().map(|m| m.param_tensor_count()).sum()
    }

    fn activation_bytes(&self, cfg: &InferenceConfig) -> u64 {
        (cfg.batch_size * DIM * 4 * 5) as u64
    }

    fn infer(&mut self, ex: &mut Executor, cfg: &InferenceConfig) -> Result<RunSummary> {
        let plan = RunPlan::serial(cfg, ex);
        let mut checksum = 0.0f32;

        let stream = Arc::clone(&self.stream);

        let (iterations, time) = run_units(ex, plan, cfg.batches(&stream), |dx, batch| {
            let payload = DeviceTensor::host_scaled(
                Tensor::zeros(&[1, self.edge_dim + 4]),
                batch.len() as f64,
            );
            dx.h2d(|dx| dx.ensure_resident(&payload));

            for e in batch.iter() {
                dx.prep("event_loop", |dx| {
                    dx.host(HostWork {
                        label: "event_bookkeeping",
                        ops: EVENT_LOOP_OPS,
                        seq_bytes: 512,
                        irregular_bytes: (5 * DIM * 4) as u64,
                        parallelism: 1,
                    });
                });

                // NRI encoder over the event's node pair.
                let pair_emb = dx.compute("encoder", |dx| -> Result<DeviceTensor> {
                    let emb = self.embeddings.lookup(dx, &[e.src, e.dst])?;
                    let x = dx.adopt(emb.data().reshape(&[1, 2 * DIM])?, 1.0);
                    match self.encoder {
                        LdgEncoder::Mlp => self.encoder_mlp.forward(dx, &x).map_err(Into::into),
                        LdgEncoder::Bilinear => {
                            self.encoder_bilinear.forward(dx, &x).map_err(Into::into)
                        }
                    }
                })?;

                // DyRep-style embedding update driven by the latent
                // edge representation.
                dx.compute("embedding_update", |dx| -> Result<()> {
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
                dx.compute("decoder", |dx| -> Result<()> {
                    let emb = self.embeddings.lookup(dx, &[e.src, e.dst])?;
                    let x = dx.adopt(emb.data().reshape(&[1, 2 * DIM])?, 1.0);
                    let score = self.decoder.forward(dx, &x)?;
                    let prob = dx.activation("sigmoid", &score, Tensor::sigmoid);
                    checksum += prob.data().sum();
                    Ok(())
                })?;
            }

            let readback = dx.adopt(Tensor::zeros(&[1, DIM]), batch.len() as f64);
            dx.d2h(|dx| dx.download(&readback));
            Ok(())
        })?;
        Ok(RunSummary::new(iterations, time, checksum))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_datasets::{github, Scale};
    use dgnn_device::{ExecMode, PlatformSpec};
    use dgnn_profile::InferenceProfile;

    fn build(encoder: LdgEncoder) -> Ldg {
        Ldg::new(github(Scale::Tiny, 1), encoder, 7)
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
