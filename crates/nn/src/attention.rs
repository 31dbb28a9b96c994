//! Multi-head scaled-dot-product attention (TGAT, ASTGNN, LDG).

use dgnn_device::{DeviceTensor, Dispatcher};
use dgnn_tensor::{Initializer, OpDescriptor, Tensor, TensorRng};

use crate::module::{Module, Param};
use crate::Result;

/// Multi-head attention with fused head projections.
///
/// `attend(q: [m, d], k: [n, d], v: [n, d]) → [m, d]` where `d` is the
/// model dimension, split evenly over `heads`. Each projection weight is
/// `[d, d]` stored `[in, out]`, so a projection is the GEMM `x W`.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHeadAttention {
    wq: Param,
    wk: Param,
    wv: Param,
    wo: Param,
    dim: usize,
    heads: usize,
}

impl MultiHeadAttention {
    /// Creates the attention block.
    ///
    /// # Panics
    ///
    /// Panics when `dim` is not divisible by `heads`.
    pub fn new(dim: usize, heads: usize, rng: &mut TensorRng) -> Self {
        assert!(
            heads > 0 && dim.is_multiple_of(heads),
            "dim must divide evenly into heads"
        );
        let mk = |name: &str, rng: &mut TensorRng| {
            Param::new(
                name,
                rng.init_transposed(dim, dim, Initializer::XavierUniform),
            )
        };
        MultiHeadAttention {
            wq: mk("wq", rng),
            wk: mk("wk", rng),
            wv: mk("wv", rng),
            wo: mk("wo", rng),
            dim,
            heads,
        }
    }

    /// Attention forward pass.
    ///
    /// # Errors
    ///
    /// Returns shape errors when `q`/`k`/`v` widths differ from `dim` or
    /// `k`/`v` row counts differ.
    pub fn forward(
        &self,
        dx: &mut Dispatcher,
        q: &DeviceTensor,
        k: &DeviceTensor,
        v: &DeviceTensor,
    ) -> Result<DeviceTensor> {
        let m = q.data().dims()[0];
        let n = k.data().dims()[0];
        let d = self.dim;
        let dh = d / self.heads;

        // Projections: one GEMM for queries, one fused GEMM for keys and
        // values together (they share the `[n, d]` input).
        let qp = dx.matmul("attn_q_proj", q, &self.wq.value)?;
        dx.ensure_resident(k);
        dx.ensure_resident(v);
        let (kp, vp) = dx.fused(
            OpDescriptor::gemm("attn_kv_proj", n, d, 2 * d),
            k.scale(),
            || {
                let kp = k.data().matmul(&self.wk.value)?;
                let vp = v.data().matmul(&self.wv.value)?;
                Ok((kp, vp))
            },
        )?;

        // Per-head scores, softmax, weighted sum: computed in one pass
        // below, charged as the three batched kernels a fused attention
        // implementation would launch.
        dx.charge(
            OpDescriptor::batched_gemm("attn_scores", self.heads, m, dh, n),
            q.scale(),
        );
        dx.charge(
            OpDescriptor::reduce("attn_softmax", self.heads * m, n),
            q.scale(),
        );
        dx.charge(
            OpDescriptor::batched_gemm("attn_context", self.heads, m, n, dh),
            q.scale(),
        );

        let scale = 1.0 / (dh as f32).sqrt();
        let mut context = Tensor::zeros(&[m, d]);
        for h in 0..self.heads {
            let slice_cols = |t: &Tensor, rows: usize| -> Result<Tensor> {
                let mut data = Vec::with_capacity(rows * dh);
                for r in 0..rows {
                    let off = r * d + h * dh;
                    data.extend_from_slice(&t.as_slice()[off..off + dh]);
                }
                Tensor::from_vec(data, &[rows, dh])
            };
            let qh = slice_cols(qp.data(), m)?;
            let kh = slice_cols(&kp, n)?;
            let vh = slice_cols(&vp, n)?;
            let scores = qh.matmul(&kh.transpose()?)?.scale(scale);
            let weights = scores.softmax_rows()?;
            let ctx = weights.matmul(&vh)?;
            // Write the head's slice back.
            for r in 0..m {
                for c in 0..dh {
                    context.set(&[r, h * dh + c], ctx.at(&[r, c])?)?;
                }
            }
        }

        // Output projection.
        let context = dx.adopt(context, q.scale());
        dx.matmul("attn_out_proj", &context, &self.wo.value)
    }
}

impl Module for MultiHeadAttention {
    fn parameters(&self) -> Vec<&Param> {
        vec![&self.wq, &self.wk, &self.wv, &self.wo]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_device::{ExecMode, Executor, PlatformSpec};

    fn ex() -> Executor {
        Executor::new(PlatformSpec::default(), ExecMode::CpuOnly)
    }

    fn dt(t: Tensor) -> DeviceTensor {
        DeviceTensor::host(t)
    }

    #[test]
    fn output_shape_matches_queries() {
        let mut rng = TensorRng::seed(1);
        let attn = MultiHeadAttention::new(8, 2, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let q = dt(TensorRng::seed(2).init(&[3, 8], Initializer::Normal(1.0)));
        let kv = dt(TensorRng::seed(3).init(&[5, 8], Initializer::Normal(1.0)));
        let out = attn.forward(&mut dx, &q, &kv, &kv).unwrap();
        assert_eq!(out.data().dims(), &[3, 8]);
        assert!(out.data().all_finite());
    }

    #[test]
    fn attention_over_identical_keys_is_mean_like() {
        // With identical keys, softmax weights are uniform, so the output
        // is the projected mean of values — identical across queries.
        let mut rng = TensorRng::seed(4);
        let attn = MultiHeadAttention::new(4, 1, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let q = dt(TensorRng::seed(5).init(&[2, 4], Initializer::Normal(1.0)));
        let k = dt(Tensor::ones(&[6, 4]));
        let v = dt(TensorRng::seed(6).init(&[6, 4], Initializer::Normal(1.0)));
        let out = attn.forward(&mut dx, &q, &k, &v).unwrap();
        let row0 = out.data().row(0).unwrap();
        let row1 = out.data().row(1).unwrap();
        row0.assert_close(&row1, 1e-5);
    }

    #[test]
    #[should_panic(expected = "heads")]
    fn dim_must_divide_heads() {
        let mut rng = TensorRng::seed(7);
        let _ = MultiHeadAttention::new(10, 3, &mut rng);
    }

    #[test]
    fn four_parameter_matrices() {
        let mut rng = TensorRng::seed(8);
        let attn = MultiHeadAttention::new(8, 2, &mut rng);
        assert_eq!(attn.param_tensor_count(), 4);
        assert_eq!(attn.param_bytes(), 4 * 8 * 8 * 4);
    }

    #[test]
    fn launches_projection_score_and_context_kernels() {
        let mut rng = TensorRng::seed(9);
        let attn = MultiHeadAttention::new(8, 2, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let q = dt(Tensor::zeros(&[2, 8]));
        let kv = dt(Tensor::zeros(&[3, 8]));
        attn.forward(&mut dx, &q, &kv, &kv).unwrap();
        assert!(dx.executor().timeline().len() >= 6);
    }

    #[test]
    fn mismatched_dims_error() {
        let mut rng = TensorRng::seed(10);
        let attn = MultiHeadAttention::new(8, 2, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let q = dt(Tensor::zeros(&[2, 6]));
        let kv = dt(Tensor::zeros(&[3, 8]));
        assert!(attn.forward(&mut dx, &q, &kv, &kv).is_err());
    }
}
