//! Non-linear activations (element-wise kernel family).

use crate::Tensor;

/// Numerically stable logistic sigmoid.
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

impl Tensor {
    /// Rectified linear unit: `max(0, x)`.
    pub fn relu(&self) -> Tensor {
        self.map(|v| v.max(0.0))
    }

    /// Logistic sigmoid, numerically stable over the whole range.
    pub fn sigmoid(&self) -> Tensor {
        self.map(sigmoid_scalar)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// Element-wise natural exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Softplus `ln(1 + e^x)`, the positive-intensity link used by DyRep's
    /// conditional intensity function.
    pub fn softplus(&self) -> Tensor {
        self.map(|v| {
            if v > 20.0 {
                v
            } else if v < -20.0 {
                v.exp()
            } else {
                (1.0 + v.exp()).ln()
            }
        })
    }

    /// Element-wise cosine (used by the Bochner/Time2Vec time encoders).
    pub fn cos(&self) -> Tensor {
        self.map(f32::cos)
    }

    /// Element-wise sine.
    pub fn sin(&self) -> Tensor {
        self.map(f32::sin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        assert_eq!(t.relu().as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn sigmoid_bounds_and_midpoint() {
        let t = Tensor::from_vec(vec![-100.0, 0.0, 100.0], &[3]).unwrap();
        let s = t.sigmoid();
        assert!(s.as_slice()[0] >= 0.0 && s.as_slice()[0] < 1e-6);
        assert!((s.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(s.as_slice()[2] > 1.0 - 1e-6 && s.as_slice()[2] <= 1.0);
        assert!(s.all_finite());
    }

    #[test]
    fn softplus_is_stable_at_extremes() {
        let t = Tensor::from_vec(vec![-100.0, 0.0, 100.0], &[3]).unwrap();
        let s = t.softplus();
        assert!(s.all_finite());
        assert!((s.as_slice()[1] - 2.0f32.ln()).abs() < 1e-6);
        assert!((s.as_slice()[2] - 100.0).abs() < 1e-4);
    }

    #[test]
    fn tanh_is_odd() {
        let t = Tensor::from_vec(vec![-1.5, 1.5], &[2]).unwrap();
        let y = t.tanh();
        assert!((y.as_slice()[0] + y.as_slice()[1]).abs() < 1e-6);
    }

    #[test]
    fn sin_cos_pythagorean() {
        let t = Tensor::from_vec(vec![0.3, 1.2, 2.5], &[3]).unwrap();
        let s = t.sin();
        let c = t.cos();
        for (a, b) in s.as_slice().iter().zip(c.as_slice()) {
            assert!((a * a + b * b - 1.0).abs() < 1e-6);
        }
    }
}
