//! DyRep (Trivedi et al., ICLR'19) — temporal point process over
//! dynamic graphs.
//!
//! Events are processed **one at a time**: computing the conditional
//! intensity at time `t` requires the node embeddings as of the previous
//! event, so updating embeddings and evaluating intensities strictly
//! alternate (Fig 4a). On the GPU this produces thousands of tiny,
//! serialized kernels; inference on the GPU never beats the CPU at any
//! batch size (Fig 8) and utilization stays under 2%.

use std::sync::Arc;

use dgnn_datasets::TemporalDataset;
use dgnn_device::{DeviceTensor, Executor, HostWork};
use dgnn_graph::EventStream;
use dgnn_nn::{EmbeddingTable, Linear, Module, RnnCell};
use dgnn_tensor::{Tensor, TensorRng};

use crate::common::{run_units, DgnnModel, InferenceConfig, RunPlan, RunSummary};
use crate::Result;

/// Framework ops per event in the reference implementation's Python
/// event loop (embedding gathering, neighborhood bookkeeping, intensity
/// bookkeeping) — DyRep processes events at roughly millisecond cost.
const EVENT_LOOP_OPS: u64 = 400_000;

/// Node-embedding width.
const DIM: usize = 32;

/// The DyRep model bound to a dataset's event stream.
#[derive(Debug, Clone)]
pub struct DyRep {
    stream: Arc<EventStream>,
    edge_dim: usize,
    embeddings: EmbeddingTable,
    update_rnn: RnnCell,
    intensity: Linear,
    attention_w: Linear,
}

impl DyRep {
    /// Builds DyRep over an event dataset, owned or shared. It keeps the
    /// stream, which clones share, and the edge-feature width, not the
    /// features.
    pub fn new(data: impl Into<Arc<TemporalDataset>>, seed: u64) -> Self {
        let data = data.into();
        let mut rng = TensorRng::seed(seed);
        // RNN input: local propagation + self propagation + exogenous drive.
        DyRep {
            embeddings: EmbeddingTable::new(data.stream.n_nodes(), DIM, &mut rng),
            update_rnn: RnnCell::new(3 * DIM, DIM, &mut rng),
            intensity: Linear::new(2 * DIM, 1, &mut rng),
            attention_w: Linear::new(2 * DIM, 1, &mut rng),
            stream: Arc::new(data.stream.clone()),
            edge_dim: data.edge_dim(),
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

    fn param_bytes(&self) -> u64 {
        self.modules().iter().map(|m| m.param_bytes()).sum()
    }

    fn param_tensors(&self) -> u64 {
        self.modules().iter().map(|m| m.param_tensor_count()).sum()
    }

    fn activation_bytes(&self, cfg: &InferenceConfig) -> u64 {
        (cfg.batch_size * DIM * 4 * 4) as u64
    }

    fn infer(&mut self, ex: &mut Executor, cfg: &InferenceConfig) -> Result<RunSummary> {
        let plan = RunPlan::serial(cfg, ex);
        let mut checksum = 0.0f32;

        let stream = Arc::clone(&self.stream);

        let (iterations, time) = run_units(ex, plan, cfg.batches(&stream), |dx, batch| {
            // Batch features to device once per batch.
            let payload = DeviceTensor::host_scaled(
                Tensor::zeros(&[1, self.edge_dim + 4]),
                batch.len() as f64,
            );
            dx.h2d(|dx| dx.ensure_resident(&payload));

            // Serial per-event processing — the temporal dependency.
            // Every event runs through the dispatcher: the tiny GEMMs
            // it prices ARE the tiny GEMMs it computes.
            for e in batch.iter() {
                dx.prep("event_loop", |dx| {
                    dx.host(HostWork {
                        label: "event_bookkeeping",
                        ops: EVENT_LOOP_OPS,
                        seq_bytes: 512,
                        irregular_bytes: (4 * DIM * 4) as u64,
                        parallelism: 1,
                    });
                });
                dx.compute("embedding_update", |dx| -> Result<()> {
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
                    let both = dx.adopt(new.data().reshape(&[1, 2 * DIM])?, 1.0);
                    let raw = self.intensity.forward(dx, &both)?;
                    let lambda = dx.activation("softplus", &raw, Tensor::softplus);
                    checksum += lambda.data().sum();
                    // Temporal attention weight refresh.
                    self.attention_w.forward(dx, &both)?;
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
    use dgnn_datasets::{social_evolution, Scale};
    use dgnn_device::{ExecMode, PlatformSpec};
    use dgnn_profile::InferenceProfile;

    fn build() -> DyRep {
        DyRep::new(social_evolution(Scale::Tiny, 1), 7)
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
