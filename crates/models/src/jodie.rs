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
//! Under streaming serving the embedding state also advances at ingest
//! time — see [`crate::IngestMemory`] with
//! [`crate::MemoryRule::JodieRnn`], the serving-side twin of the RNN
//! update applied per live event on the Host lane.

use dgnn_datasets::TemporalDataset;
use dgnn_device::{DeviceTensor, Dispatcher, Executor, HostWork};
use dgnn_graph::{TBatcher, TemporalEvent};
use dgnn_nn::{EmbeddingTable, Linear, Module, RnnCell};
use dgnn_tensor::{OpDescriptor, Tensor, TensorRng};

use crate::common::{representative, DgnnModel, InferenceConfig, RunSummary};
use crate::registry::{all_model_infos, ModelInfo};
use crate::Result;

/// Framework ops per event during t-batch construction (hash map ops in
/// interpreted code).
const TBATCH_EVENT_OPS: u64 = 300;
/// Framework ops per t-batch step: the reference drives each t-batch
/// from a Python loop that gathers embeddings, slices tensors and
/// re-indexes — roughly a millisecond of host time per t-batch.
const TBATCH_STEP_OPS: u64 = 400_000;

/// JODIE hyper-parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JodieConfig {
    /// Embedding dimension of users and items.
    pub dim: usize,
    /// Whether to build t-batches (the paper's Sec 3.3 configuration).
    /// With `false`, every event runs as its own step — the naive
    /// schedule t-batching was invented to beat.
    pub use_tbatch: bool,
}

impl Default for JodieConfig {
    fn default() -> Self {
        JodieConfig {
            dim: 128,
            use_tbatch: true,
        }
    }
}

/// The JODIE model bound to a dataset.
#[derive(Debug)]
pub struct Jodie {
    data: TemporalDataset,
    cfg: JodieConfig,
    embeddings: EmbeddingTable,
    user_rnn: RnnCell,
    item_rnn: RnnCell,
    projector: Linear,
    predictor: Linear,
}

impl Jodie {
    /// Builds JODIE over an interaction dataset.
    pub fn new(data: TemporalDataset, cfg: JodieConfig, seed: u64) -> Self {
        let mut rng = TensorRng::seed(seed);
        let d = cfg.dim;
        let in_dim = d + data.edge_dim() + 1; // partner embedding + features + Δt
        Jodie {
            embeddings: EmbeddingTable::new(data.stream.n_nodes(), d, &mut rng),
            user_rnn: RnnCell::new(in_dim, d, &mut rng),
            item_rnn: RnnCell::new(in_dim, d, &mut rng),
            projector: Linear::new(d, d, &mut rng),
            predictor: Linear::new(d, d, &mut rng),
            data,
            cfg,
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

    fn info(&self) -> ModelInfo {
        all_model_infos()
            .into_iter()
            .find(|i| i.name == "jodie")
            .expect("jodie registered")
    }

    fn param_bytes(&self) -> u64 {
        self.modules().iter().map(|m| m.param_bytes()).sum()
    }

    fn param_tensors(&self) -> u64 {
        self.modules().iter().map(|m| m.param_tensor_count()).sum()
    }

    fn activation_bytes(&self, cfg: &InferenceConfig) -> u64 {
        (cfg.batch_size * (2 * self.cfg.dim + self.data.edge_dim()) * 4) as u64
    }

    fn infer(&mut self, ex: &mut Executor, cfg: &InferenceConfig) -> Result<RunSummary> {
        cfg.apply_device_options(ex);
        let d = self.cfg.dim;
        let mut checksum = 0.0f32;
        let mut iterations = 0usize;

        let windows: Vec<Vec<TemporalEvent>> = self
            .data
            .stream
            .batches(cfg.batch_size)
            .take(cfg.max_units.max(1))
            .map(|b| b.to_vec())
            .collect();

        let run: Result<()> = ex.scope("inference", |ex| {
            let mut dx = Dispatcher::new(ex);
            for window in &windows {
                // 1. t-batch construction on the CPU.
                let tbatches = dx.scope("tbatch", |dx| {
                    if self.cfg.use_tbatch {
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
                    dx.scope("step_prep", |dx| {
                        dx.host(HostWork {
                            label: "tbatch_step",
                            ops: TBATCH_STEP_OPS,
                            seq_bytes: (width * d * 4) as u64,
                            irregular_bytes: (width * 128) as u64,
                            parallelism: 1,
                        });
                    });
                    let payload = DeviceTensor::host_scaled(
                        Tensor::zeros(&[1, self.data.edge_dim() + 4]),
                        width as f64,
                    );
                    dx.scope("memcpy_h2d", |dx| dx.ensure_resident(&payload));

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

                    let new_u = dx.scope("rnn_update", |dx| -> Result<DeviceTensor> {
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

                    let pred = dx.scope("projection", |dx| -> Result<DeviceTensor> {
                        // JODIE's time projection is an element-wise
                        // (1 + Δt·w) scaling — no functional counterpart
                        // beyond the projector itself.
                        dx.charge(OpDescriptor::elementwise("project", width * d, 2, 2), 1.0);
                        let proj = self.projector.forward(dx, &new_u)?;
                        let pred = self.predictor.forward(dx, &proj)?;
                        checksum += pred.data().sum();
                        Ok(pred)
                    })?;

                    dx.scope("memcpy_d2h", |dx| dx.download(&pred));
                }
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
    use dgnn_datasets::{wikipedia, Scale};
    use dgnn_device::{ExecMode, PlatformSpec};
    use dgnn_profile::InferenceProfile;

    fn build() -> Jodie {
        Jodie::new(wikipedia(Scale::Tiny, 1), JodieConfig::default(), 7)
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
            let mut m = Jodie::new(
                wikipedia(Scale::Tiny, 1),
                JodieConfig {
                    dim: 128,
                    use_tbatch,
                },
                7,
            );
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
