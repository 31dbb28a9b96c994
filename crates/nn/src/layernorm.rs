//! Layer normalization (ASTGNN's attention blocks).

use dgnn_device::{DeviceTensor, Dispatcher};
use dgnn_tensor::{OpDescriptor, Tensor, TensorError, TensorRng};

use crate::module::{Module, Param};
use crate::Result;

/// Row-wise layer normalization with learned gain and bias.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNorm {
    gain: Param,
    bias: Param,
    dim: usize,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer norm over feature width `dim`.
    pub fn new(dim: usize, _rng: &mut TensorRng) -> Self {
        LayerNorm {
            gain: Param::new("gain", Tensor::ones(&[dim])),
            bias: Param::new("bias", Tensor::zeros(&[dim])),
            dim,
            eps: 1e-5,
        }
    }

    /// Normalizes each row of `x: [m, dim]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors when `x` is not `[m, dim]`.
    pub fn forward(&self, dx: &mut Dispatcher, x: &DeviceTensor) -> Result<DeviceTensor> {
        if x.data().rank() != 2 || x.data().dims()[1] != self.dim {
            return Err(TensorError::ShapeMismatch {
                op: "layer_norm",
                lhs: x.data().dims().to_vec(),
                rhs: vec![0, self.dim],
            });
        }
        let (m, n) = (x.data().dims()[0], self.dim);
        dx.ensure_resident(x);
        let out = dx.fused(OpDescriptor::reduce("layer_norm", m, n), x.scale(), || {
            let mut out = vec![0.0f32; m * n];
            for i in 0..m {
                let row = &x.data().as_slice()[i * n..(i + 1) * n];
                let mean: f32 = row.iter().sum::<f32>() / n as f32;
                let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
                let inv = 1.0 / (var + self.eps).sqrt();
                for j in 0..n {
                    out[i * n + j] = (row[j] - mean) * inv * self.gain.value.as_slice()[j]
                        + self.bias.value.as_slice()[j];
                }
            }
            Tensor::from_vec(out, &[m, n])
        })?;
        Ok(dx.adopt(out, x.scale()))
    }
}

impl Module for LayerNorm {
    fn parameters(&self) -> Vec<&Param> {
        vec![&self.gain, &self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_device::{ExecMode, Executor, PlatformSpec};
    use dgnn_tensor::Initializer;

    fn ex() -> Executor {
        Executor::new(PlatformSpec::default(), ExecMode::CpuOnly)
    }

    #[test]
    fn rows_become_zero_mean_unit_var() {
        let mut rng = TensorRng::seed(1);
        let ln = LayerNorm::new(8, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let x = DeviceTensor::host(TensorRng::seed(2).init(&[4, 8], Initializer::Normal(5.0)));
        let y = ln.forward(&mut dx, &x).unwrap();
        for i in 0..4 {
            let row = y.data().row(i).unwrap();
            let mean = row.mean().unwrap();
            let var = row.norm_sq() / 8.0 - mean * mean;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn constant_rows_are_stable() {
        let mut rng = TensorRng::seed(3);
        let ln = LayerNorm::new(4, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let y = ln
            .forward(&mut dx, &DeviceTensor::host(Tensor::full(&[2, 4], 7.0)))
            .unwrap();
        assert!(y.data().all_finite());
        assert!(y.data().as_slice().iter().all(|v| v.abs() < 1e-2));
    }

    #[test]
    fn wrong_width_errors() {
        let mut rng = TensorRng::seed(4);
        let ln = LayerNorm::new(4, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        assert!(ln
            .forward(&mut dx, &DeviceTensor::host(Tensor::zeros(&[2, 5])))
            .is_err());
    }
}
