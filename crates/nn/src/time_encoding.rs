//! Functional time encoders: Bochner (TGAT) and Time2Vec.

use dgnn_device::{DeviceTensor, Dispatcher};
use dgnn_tensor::{Initializer, OpDescriptor, Tensor, TensorRng};

use crate::module::{Module, Param};
use crate::Result;

/// TGAT's Bochner time encoding:
/// `Φ(t) = sqrt(1/d) · [cos(ω₁ t + b₁), …, cos(ω_d t + b_d)]`.
#[derive(Debug, Clone, PartialEq)]
pub struct BochnerTimeEncoder {
    omega: Param,
    phase: Param,
    dim: usize,
}

impl BochnerTimeEncoder {
    /// Creates an encoder of output width `dim`. Frequencies follow the
    /// reference implementation's geometric ladder `10^{-i·4/d}`.
    pub fn new(dim: usize, rng: &mut TensorRng) -> Self {
        let omega = Tensor::from_vec(
            (0..dim)
                .map(|i| 10f32.powf(-(i as f32) * 4.0 / dim as f32))
                .collect(),
            &[dim],
        )
        .expect("constructed length matches");
        BochnerTimeEncoder {
            omega: Param::new("omega", omega),
            phase: Param::new("phase", rng.init(&[dim], Initializer::Uniform(1.0))),
            dim,
        }
    }

    /// Encodes a batch of time deltas `[n] → [n, dim]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors when `deltas` is not rank 1.
    pub fn forward(&self, dx: &mut Dispatcher, deltas: &DeviceTensor) -> Result<DeviceTensor> {
        let n = deltas.data().len();
        dx.ensure_resident(deltas);
        let desc = OpDescriptor::elementwise("time_encode", n * self.dim, 3, 2);
        let out = dx.fused(desc, deltas.scale(), || {
            let scale = (1.0 / self.dim as f32).sqrt();
            let mut data = Vec::with_capacity(n * self.dim);
            for &t in deltas.data().as_slice() {
                for j in 0..self.dim {
                    let w = self.omega.value.as_slice()[j];
                    let b = self.phase.value.as_slice()[j];
                    data.push(scale * (w * t + b).cos());
                }
            }
            Tensor::from_vec(data, &[n, self.dim])
        })?;
        Ok(dx.adopt(out, deltas.scale()))
    }
}

impl Module for BochnerTimeEncoder {
    fn parameters(&self) -> Vec<&Param> {
        vec![&self.omega, &self.phase]
    }
}

/// Time2Vec: one linear component plus `d−1` periodic components,
/// `[ω₀t + b₀, sin(ω₁t + b₁), …]` (TGN's time embedding).
#[derive(Debug, Clone, PartialEq)]
pub struct Time2Vec {
    omega: Param,
    phase: Param,
    dim: usize,
}

impl Time2Vec {
    /// Creates a Time2Vec encoder of width `dim` (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0`.
    pub fn new(dim: usize, rng: &mut TensorRng) -> Self {
        assert!(dim >= 1, "Time2Vec needs at least the linear component");
        Time2Vec {
            omega: Param::new("omega", rng.init(&[dim], Initializer::Uniform(1.0))),
            phase: Param::new("phase", rng.init(&[dim], Initializer::Uniform(1.0))),
            dim,
        }
    }

    /// Encodes time deltas `[n] → [n, dim]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors when `deltas` is not rank 1.
    pub fn forward(&self, dx: &mut Dispatcher, deltas: &DeviceTensor) -> Result<DeviceTensor> {
        let n = deltas.data().len();
        dx.ensure_resident(deltas);
        let desc = OpDescriptor::elementwise("time2vec", n * self.dim, 3, 2);
        let out = dx.fused(desc, deltas.scale(), || {
            let mut data = Vec::with_capacity(n * self.dim);
            for &t in deltas.data().as_slice() {
                for j in 0..self.dim {
                    let v = self.omega.value.as_slice()[j] * t + self.phase.value.as_slice()[j];
                    data.push(if j == 0 { v } else { v.sin() });
                }
            }
            Tensor::from_vec(data, &[n, self.dim])
        })?;
        Ok(dx.adopt(out, deltas.scale()))
    }
}

impl Module for Time2Vec {
    fn parameters(&self) -> Vec<&Param> {
        vec![&self.omega, &self.phase]
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
    fn bochner_shape_and_bound() {
        let mut rng = TensorRng::seed(1);
        let enc = BochnerTimeEncoder::new(16, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let t = dt(Tensor::from_vec(vec![0.0, 1.0, 100.0], &[3]).unwrap());
        let e = enc.forward(&mut dx, &t).unwrap();
        assert_eq!(e.data().dims(), &[3, 16]);
        let bound = (1.0f32 / 16.0).sqrt() + 1e-6;
        assert!(e.data().as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn bochner_distinguishes_deltas() {
        let mut rng = TensorRng::seed(2);
        let enc = BochnerTimeEncoder::new(8, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let t = dt(Tensor::from_vec(vec![0.5, 5.0], &[2]).unwrap());
        let e = enc.forward(&mut dx, &t).unwrap();
        assert_ne!(e.data().row(0).unwrap(), e.data().row(1).unwrap());
    }

    #[test]
    fn time2vec_first_component_is_linear() {
        let mut rng = TensorRng::seed(3);
        let enc = Time2Vec::new(4, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let t = dt(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap());
        let e = enc.forward(&mut dx, &t).unwrap();
        // Linear component: equal second differences.
        let v: Vec<f32> = (0..3).map(|i| e.data().at(&[i, 0]).unwrap()).collect();
        assert!(((v[2] - v[1]) - (v[1] - v[0])).abs() < 1e-5);
        // Periodic components bounded by 1.
        for i in 0..3 {
            for j in 1..4 {
                assert!(e.data().at(&[i, j]).unwrap().abs() <= 1.0);
            }
        }
    }

    #[test]
    fn encoders_register_params_and_dispatch() {
        let mut rng = TensorRng::seed(4);
        let enc = BochnerTimeEncoder::new(8, &mut rng);
        assert_eq!(enc.param_tensor_count(), 2);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        enc.forward(&mut dx, &dt(Tensor::zeros(&[5]))).unwrap();
        assert_eq!(dx.executor().timeline().len(), 1);
    }
}
