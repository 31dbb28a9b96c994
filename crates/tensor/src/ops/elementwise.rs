//! Element-wise binary/unary arithmetic (the element-wise kernel family).

use crate::{Result, Tensor, TensorError};

impl Tensor {
    fn zip_with(
        &self,
        rhs: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        self.shape().check_same(rhs.shape(), op)?;
        let data = self
            .as_slice()
            .iter()
            .zip(rhs.as_slice())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(data, self.dims())
    }

    /// Element-wise sum of two equally shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "mul", |a, b| a * b)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v + s)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_vec(self.as_slice().iter().map(|&v| f(v)).collect(), self.dims())
            .expect("map preserves element count")
    }

    /// Adds a rank-1 `bias` of length `n` to every row of a `[m, n]` tensor.
    ///
    /// This is the broadcast used after every linear layer.
    ///
    /// # Errors
    ///
    /// Returns shape errors when `self` is not rank 2 or the bias length
    /// differs from the row width.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "add_row_broadcast",
                expected: 2,
                actual: self.rank(),
            });
        }
        if bias.rank() != 1 || bias.len() != self.dims()[1] {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.dims().to_vec(),
                rhs: bias.dims().to_vec(),
            });
        }
        let n = self.dims()[1];
        let data = self
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &v)| v + bias.as_slice()[i % n])
            .collect();
        Tensor::from_vec(data, self.dims())
    }

    /// Linear interpolation: `self * (1 - t) + rhs * t`, element-wise with a
    /// per-element gate tensor `t` (the GRU update-gate blend).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when any shape differs.
    pub fn lerp_gate(&self, rhs: &Tensor, gate: &Tensor) -> Result<Tensor> {
        self.shape().check_same(rhs.shape(), "lerp_gate")?;
        self.shape().check_same(gate.shape(), "lerp_gate")?;
        let data = self
            .as_slice()
            .iter()
            .zip(rhs.as_slice())
            .zip(gate.as_slice())
            .map(|((&a, &b), &t)| a * (1.0 - t) + b * t)
            .collect();
        Tensor::from_vec(data, self.dims())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    #[test]
    fn add_sub_mul_known_values() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn binary_ops_reject_shape_mismatch() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(a.add(&b).is_err());
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn scalar_ops() {
        let a = t(&[1.0, -2.0]);
        assert_eq!(a.add_scalar(1.0).as_slice(), &[2.0, -1.0]);
        assert_eq!(a.scale(-2.0).as_slice(), &[-2.0, 4.0]);
    }

    #[test]
    fn row_broadcast_adds_bias_to_each_row() {
        let x = Tensor::from_vec(vec![0.0; 6], &[2, 3]).unwrap();
        let b = t(&[1.0, 2.0, 3.0]);
        let y = x.add_row_broadcast(&b).unwrap();
        assert_eq!(y.as_slice(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        assert!(x.add_row_broadcast(&t(&[1.0, 2.0])).is_err());
    }

    #[test]
    fn lerp_gate_blends() {
        let a = t(&[0.0, 0.0]);
        let b = t(&[10.0, 10.0]);
        let g = t(&[0.25, 1.0]);
        assert_eq!(a.lerp_gate(&b, &g).unwrap().as_slice(), &[2.5, 10.0]);
    }
}
