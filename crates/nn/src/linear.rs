//! Linear layers and MLPs.

use dgnn_device::{DeviceTensor, Dispatcher};
use dgnn_tensor::{Initializer, TensorRng};

use crate::module::{Module, Param};
use crate::Result;

/// A dense affine layer `y = x W + b` with weight `[in, out]`, the layout
/// the GEMM reads, so a forward pass never transposes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates a Xavier-initialized layer. The weight holds the values of
    /// an `[out, in]` draw, stored transposed as `[in, out]`.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut TensorRng) -> Self {
        Linear {
            weight: Param::new(
                "weight",
                rng.init_transposed(out_dim, in_dim, Initializer::XavierUniform),
            ),
            bias: Param::new("bias", rng.init(&[out_dim], Initializer::Zeros)),
            in_dim,
            out_dim,
        }
    }

    /// Forward pass over a batch `x: [m, in] → [m, out]`: one GEMM plus
    /// one bias kernel, dispatched (and priced) from the actual shapes.
    ///
    /// # Errors
    ///
    /// Returns shape errors when `x` is not `[m, in]`.
    pub fn forward(&self, dx: &mut Dispatcher, x: &DeviceTensor) -> Result<DeviceTensor> {
        let y = dx.matmul("linear_gemm", x, &self.weight.value)?;
        dx.add_bias("linear_bias", &y, &self.bias.value)
    }
}

impl Module for Linear {
    fn parameters(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }
}

/// A multi-layer perceptron with ReLU between layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Creates an MLP through the given layer widths
    /// (`dims = [in, h1, ..., out]`).
    ///
    /// # Panics
    ///
    /// Panics when fewer than two widths are given.
    pub fn new(dims: &[usize], rng: &mut TensorRng) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Forward pass `[m, in] → [m, out]` with ReLU after every layer but
    /// the last.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the underlying layers.
    pub fn forward(&self, dx: &mut Dispatcher, x: &DeviceTensor) -> Result<DeviceTensor> {
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(dx, &h)?;
            if i + 1 < self.layers.len() {
                h = dx.relu("mlp_relu", &h);
            }
        }
        Ok(h)
    }
}

impl Module for Mlp {
    fn parameters(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(Module::parameters).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_device::{ExecMode, Executor, PlatformSpec};
    use dgnn_tensor::Tensor;

    fn executor() -> Executor {
        Executor::new(PlatformSpec::default(), ExecMode::CpuOnly)
    }

    #[test]
    fn linear_shapes_and_bias() {
        let mut rng = TensorRng::seed(1);
        let l = Linear::new(4, 3, &mut rng);
        let mut ex = executor();
        let mut dx = Dispatcher::new(&mut ex);
        let y = l
            .forward(&mut dx, &DeviceTensor::host(Tensor::zeros(&[2, 4])))
            .unwrap();
        assert_eq!(y.data().dims(), &[2, 3]);
        // Zero input → bias only; bias initialized to zero.
        assert_eq!(y.data().sum(), 0.0);
        assert!(
            dx.executor().timeline().len() >= 2,
            "gemm + bias kernels launched"
        );
    }

    #[test]
    fn linear_rejects_wrong_width() {
        let mut rng = TensorRng::seed(2);
        let l = Linear::new(4, 3, &mut rng);
        let mut ex = executor();
        let mut dx = Dispatcher::new(&mut ex);
        assert!(l
            .forward(&mut dx, &DeviceTensor::host(Tensor::zeros(&[2, 5])))
            .is_err());
    }

    #[test]
    fn linear_matches_manual_matmul() {
        let mut rng = TensorRng::seed(3);
        let l = Linear::new(3, 2, &mut rng);
        let mut ex = executor();
        let mut dx = Dispatcher::new(&mut ex);
        let x = TensorRng::seed(9).init(&[4, 3], Initializer::Uniform(1.0));
        let y = l.forward(&mut dx, &DeviceTensor::host(x.clone())).unwrap();
        let w = &l.parameters()[0].value;
        let manual = x.matmul(w).unwrap();
        y.data().assert_close(&manual, 1e-5);
    }

    #[test]
    fn mlp_depth_and_forward() {
        let mut rng = TensorRng::seed(4);
        let mlp = Mlp::new(&[8, 16, 4], &mut rng);
        assert_eq!(mlp.param_tensor_count(), 4);
        let mut ex = executor();
        let mut dx = Dispatcher::new(&mut ex);
        let y = mlp
            .forward(&mut dx, &DeviceTensor::host(Tensor::ones(&[5, 8])))
            .unwrap();
        assert_eq!(y.data().dims(), &[5, 4]);
        assert!(y.data().all_finite());
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_requires_two_widths() {
        let mut rng = TensorRng::seed(5);
        let _ = Mlp::new(&[8], &mut rng);
    }

    #[test]
    fn forward_advances_simulated_clock() {
        let mut rng = TensorRng::seed(6);
        let l = Linear::new(64, 64, &mut rng);
        let mut ex = executor();
        let mut dx = Dispatcher::new(&mut ex);
        let t0 = dx.executor().now();
        l.forward(&mut dx, &DeviceTensor::host(Tensor::zeros(&[32, 64])))
            .unwrap();
        assert!(dx.executor().now() > t0);
    }
}
