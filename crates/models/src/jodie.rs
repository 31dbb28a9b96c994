//! JODIE — Predicting Dynamic Embedding Trajectory (Kumar et al., KDD'19).
//!
//! Continuous-time model with mutually-recursive user and item RNNs and
//! an embedding-projection operator. Inference uses the **t-batch**
//! algorithm (Sec 3.3): the CPU partitions each event window into
//! hazard-free t-batches, each t-batch ships to the GPU, both RNNs
//! update, the projection predicts, and results return to the CPU
//! (Fig 5a). Because consecutive t-batches are data-dependent, the GPU
//! runs many *small* kernels back to back — utilization stays at
//! 1.5–2.5% despite t-batching.
//!
//! Streaming serving advances one TGN-style node memory at ingest time
//! ([`crate::IngestMemory`]) whatever model it serves; JODIE's own
//! embeddings advance only inside inference.

use std::sync::Arc;

use dgnn_datasets::TemporalDataset;
use dgnn_device::{DeviceTensor, Executor, HostWork};
use dgnn_graph::TBatcher;
use dgnn_nn::{EmbeddingTable, Linear, Module, RnnCell};
use dgnn_tensor::{OpDescriptor, Tensor, TensorRng};

use crate::common::{representative, run_units, DgnnModel, InferenceConfig, RunPlan, RunSummary};
use crate::Result;

/// Framework ops per event during t-batch construction (hash map ops in
/// interpreted code).
const TBATCH_EVENT_OPS: u64 = 300;
/// Framework ops per t-batch step: the reference drives each t-batch
/// from a Python loop that gathers embeddings, slices tensors and
/// re-indexes — roughly a millisecond of host time per t-batch.
const TBATCH_STEP_OPS: u64 = 400_000;

/// Embedding width of users and items.
const DIM: usize = 128;

/// The JODIE model bound to a dataset.
#[derive(Debug, Clone)]
pub struct Jodie {
    data: Arc<TemporalDataset>,
    /// Whether to build t-batches (the paper's Sec 3.3 configuration,
    /// and what [`Jodie::new`] sets). With `false`, every event runs as
    /// its own step — the naive schedule t-batching was invented to
    /// beat, which only [`crate::optim::jodie_tbatch`] runs.
    pub(crate) use_tbatch: bool,
    embeddings: EmbeddingTable,
    user_rnn: RnnCell,
    item_rnn: RnnCell,
    projector: Linear,
    predictor: Linear,
}

impl Jodie {
    /// Builds JODIE over an interaction dataset, owned or shared; clones
    /// share it.
    pub fn new(data: impl Into<Arc<TemporalDataset>>, seed: u64) -> Self {
        let data = data.into();
        let mut rng = TensorRng::seed(seed);
        let in_dim = DIM + data.edge_dim() + 1; // partner embedding + features + Δt
        Jodie {
            embeddings: EmbeddingTable::new(data.stream.n_nodes(), DIM, &mut rng),
            user_rnn: RnnCell::new(in_dim, DIM, &mut rng),
            item_rnn: RnnCell::new(in_dim, DIM, &mut rng),
            projector: Linear::new(DIM, DIM, &mut rng),
            predictor: Linear::new(DIM, DIM, &mut rng),
            data,
            use_tbatch: true,
        }
    }

    fn modules(&self) -> Vec<&dyn Module> {
        vec![
            &self.embeddings,
            &self.user_rnn,
            &self.item_rnn,
            &self.projector,
            &self.predictor,
        ]
    }
}

impl DgnnModel for Jodie {
    fn name(&self) -> &'static str {
        "jodie"
    }

    fn param_bytes(&self) -> u64 {
        self.modules().iter().map(|m| m.param_bytes()).sum()
    }

    fn param_tensors(&self) -> u64 {
        self.modules().iter().map(|m| m.param_tensor_count()).sum()
    }

    fn activation_bytes(&self, cfg: &InferenceConfig) -> u64 {
        (cfg.batch_size * (2 * DIM + self.data.edge_dim()) * 4) as u64
    }

    fn infer(&mut self, ex: &mut Executor, cfg: &InferenceConfig) -> Result<RunSummary> {
        let plan = RunPlan::serial(cfg, ex);
        let mut checksum = 0.0f32;

        let data = Arc::clone(&self.data);
        let (iterations, time) = run_units(ex, plan, cfg.batches(&data.stream), |dx, window| {
            // 1. t-batch construction on the CPU.
            let tbatches = dx.prep("tbatch", |dx| {
                if self.use_tbatch {
                    let (tb, build_ops) = TBatcher::new().build(window);
                    dx.host(HostWork {
                        label: "t_batch",
                        ops: build_ops + window.len() as u64 * TBATCH_EVENT_OPS,
                        seq_bytes: window.len() as u64 * dgnn_graph::EventStream::EVENT_BYTES,
                        irregular_bytes: window.len() as u64 * 64,
                        parallelism: 1,
                    });
                    tb
                } else {
                    // Naive schedule: one event per step.
                    (0..window.len())
                        .map(|i| dgnn_graph::TBatch {
                            event_indices: vec![i],
                        })
                        .collect()
                }
            });

            // 2. Sequential t-batch execution (RNN dependency chain).
            for tb in &tbatches {
                let width = tb.len();
                let rep = representative(width);
                let scale = width as f64 / rep as f64;
                dx.prep("step_prep", |dx| {
                    dx.host(HostWork {
                        label: "tbatch_step",
                        ops: TBATCH_STEP_OPS,
                        seq_bytes: (width * DIM * 4) as u64,
                        irregular_bytes: (width * 128) as u64,
                        parallelism: 1,
                    });
                });
                let payload = DeviceTensor::host_scaled(
                    Tensor::zeros(&[1, self.data.edge_dim() + 4]),
                    width as f64,
                );
                dx.h2d(|dx| dx.ensure_resident(&payload));

                let rep_users: Vec<usize> = tb
                    .event_indices
                    .iter()
                    .take(rep)
                    .map(|&i| window[i].src)
                    .collect();
                let rep_items: Vec<usize> = tb
                    .event_indices
                    .iter()
                    .take(rep)
                    .map(|&i| window[i].dst)
                    .collect();

                let new_u = dx.compute("rnn_update", |dx| -> Result<DeviceTensor> {
                    // User RNN and item RNN, each a small kernel group
                    // over the t-batch width.
                    let u = self.embeddings.lookup_scaled(dx, &rep_users, scale)?;
                    let i = self.embeddings.lookup_scaled(dx, &rep_items, scale)?;
                    let feats: Vec<usize> = tb
                        .event_indices
                        .iter()
                        .take(rep)
                        .map(|&ix| window[ix].feature_idx)
                        .collect();
                    let e = self.data.edge_features.gather_rows(&feats)?;
                    let dt = Tensor::ones(&[rep, 1]);
                    let xu = dx.adopt(i.data().concat_cols(&e)?.concat_cols(&dt)?, scale);
                    let xi = dx.adopt(u.data().concat_cols(&e)?.concat_cols(&dt)?, scale);
                    let nu = self.user_rnn.forward(dx, &xu, &u)?;
                    let ni = self.item_rnn.forward(dx, &xi, &i)?;
                    self.embeddings.update(dx, &rep_users, &nu)?;
                    self.embeddings.update(dx, &rep_items, &ni)?;
                    Ok(nu)
                })?;

                let pred = dx.compute("projection", |dx| -> Result<DeviceTensor> {
                    // JODIE's time projection is an element-wise
                    // (1 + Δt·w) scaling — no functional counterpart
                    // beyond the projector itself.
                    dx.charge(OpDescriptor::elementwise("project", width * DIM, 2, 2), 1.0);
                    let proj = self.projector.forward(dx, &new_u)?;
                    let pred = self.predictor.forward(dx, &proj)?;
                    checksum += pred.data().sum();
                    Ok(pred)
                })?;

                dx.d2h(|dx| dx.download(&pred));
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

    fn build() -> Jodie {
        Jodie::new(wikipedia(Scale::Tiny, 1), 7)
    }

    fn cfg() -> InferenceConfig {
        InferenceConfig::default()
            .with_batch_size(100)
            .with_max_units(2)
    }

    #[test]
    fn runs_and_profiles() {
        let mut m = build();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        let s = m.run(&mut ex, &cfg()).unwrap();
        assert_eq!(s.iterations, 2);
        assert!(s.checksum.is_finite());
        let p = InferenceProfile::capture(&ex, "inference");
        assert!(p.breakdown.share_of("rnn_update") > 0.0);
        assert!(p.breakdown.share_of("tbatch") > 0.0);
    }

    #[test]
    fn gpu_utilization_is_low() {
        let mut m = build();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        m.run(&mut ex, &cfg()).unwrap();
        let p = InferenceProfile::capture(&ex, "inference");
        assert!(
            p.utilization.busy_fraction < 0.20,
            "JODIE util {}",
            p.utilization.busy_fraction
        );
    }

    #[test]
    fn tbatching_reduces_kernel_count_vs_per_event() {
        // The point of t-batching: fewer, wider steps — and therefore
        // fewer kernel launches — than the naive one-event-per-step
        // schedule over the same window.
        let kernels = |use_tbatch: bool| {
            let mut m = Jodie::new(wikipedia(Scale::Tiny, 1), 7);
            m.use_tbatch = use_tbatch;
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            m.run(&mut ex, &cfg()).unwrap();
            ex.timeline()
                .events()
                .iter()
                .filter(|e| e.category.is_gpu_compute())
                .count()
        };
        let batched = kernels(true);
        let naive = kernels(false);
        assert!(
            batched < naive,
            "t-batching should cut kernel launches: {batched} vs naive {naive}"
        );
    }

    #[test]
    fn embeddings_change_after_run() {
        let mut m = build();
        let before = m.embeddings.table().clone();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        m.run(&mut ex, &cfg()).unwrap();
        assert_ne!(&before, m.embeddings.table());
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut m = build();
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            let s = m.run(&mut ex, &cfg()).unwrap();
            (s.checksum, ex.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cpu_mode_runs() {
        let mut m = build();
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
        assert!(m.run(&mut ex, &cfg()).is_ok());
    }
}
