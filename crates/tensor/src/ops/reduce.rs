//! Reductions and softmax (the reduction kernel family).

use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for empty tensors.
    pub fn mean(&self) -> Result<f32> {
        if self.is_empty() {
            return Err(TensorError::EmptyInput { op: "mean" });
        }
        Ok(self.sum() / self.len() as f32)
    }

    /// Maximum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for empty tensors.
    pub fn max(&self) -> Result<f32> {
        if self.is_empty() {
            return Err(TensorError::EmptyInput { op: "max" });
        }
        Ok(self
            .as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max))
    }

    /// Sums a rank-2 tensor over rows: `[m, n] → [n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless rank is 2.
    pub fn sum_rows(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "sum_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            let row = &self.as_slice()[i * n..(i + 1) * n];
            for (acc, v) in out.iter_mut().zip(row) {
                *acc += v;
            }
        }
        Tensor::from_vec(out, &[n])
    }

    /// Mean of a rank-2 tensor over rows: `[m, n] → [n]`.
    ///
    /// This is the mean aggregator in message passing.
    ///
    /// # Errors
    ///
    /// Returns rank errors as in [`Tensor::sum_rows`] and
    /// [`TensorError::EmptyInput`] when `m == 0`.
    pub fn mean_rows(&self) -> Result<Tensor> {
        let m = self.dims().first().copied().unwrap_or(0);
        if m == 0 {
            return Err(TensorError::EmptyInput { op: "mean_rows" });
        }
        Ok(self.sum_rows()?.scale(1.0 / m as f32))
    }

    /// Row-wise softmax of a rank-2 tensor, numerically stabilized by
    /// subtracting each row's maximum.
    ///
    /// ```
    /// use dgnn_tensor::Tensor;
    ///
    /// # fn main() -> Result<(), dgnn_tensor::TensorError> {
    /// let logits = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[2, 2])?;
    /// let p = logits.softmax_rows()?;
    /// assert!((p.at(&[0, 0])? - 0.5).abs() < 1e-6);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless rank is 2.
    pub fn softmax_rows(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "softmax_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let row = &self.as_slice()[i * n..(i + 1) * n];
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for (j, &v) in row.iter().enumerate() {
                let e = (v - mx).exp();
                out[i * n + j] = e;
                denom += e;
            }
            for j in 0..n {
                out[i * n + j] /= denom;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum()
    }

    /// Dot product with another tensor of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn dot(&self, rhs: &Tensor) -> Result<f32> {
        self.shape().check_same(rhs.shape(), "dot")?;
        Ok(self
            .as_slice()
            .iter()
            .zip(rhs.as_slice())
            .map(|(a, b)| a * b)
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_mean_max() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean().unwrap(), 2.5);
        assert_eq!(t.max().unwrap(), 4.0);
    }

    #[test]
    fn empty_reductions_error() {
        let t = Tensor::zeros(&[0]);
        assert!(t.mean().is_err());
        assert!(t.max().is_err());
    }

    #[test]
    fn sum_rows_and_mean_rows() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.sum_rows().unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(t.mean_rows().unwrap().as_slice(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let p = t.softmax_rows().unwrap();
        for i in 0..2 {
            let row: f32 = (0..3).map(|j| p.at(&[i, j]).unwrap()).sum();
            assert!((row - 1.0).abs() < 1e-6);
            assert!(p.at(&[i, 2]).unwrap() > p.at(&[i, 0]).unwrap());
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]).unwrap();
        let p = t.softmax_rows().unwrap();
        assert!(p.all_finite());
        assert!((p.sum() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dot_matches_manual() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!(a.dot(&b).unwrap(), 11.0);
        assert!(a.dot(&Tensor::zeros(&[3])).is_err());
    }
}
