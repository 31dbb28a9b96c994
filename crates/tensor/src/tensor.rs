use std::fmt;

use crate::{Result, Shape, TensorError};

/// A dense, row-major, `f32` tensor.
///
/// The type is the numeric workhorse of the reproduction suite: every DGNN
/// layer produces and consumes `Tensor`s. Data is stored contiguously; all
/// views are materialized (copies), which keeps the semantics simple and
/// deterministic — appropriate for a simulator whose *timing* comes from an
/// analytical cost model rather than from this host-side arithmetic.
///
/// ```
/// use dgnn_tensor::Tensor;
///
/// # fn main() -> Result<(), dgnn_tensor::TensorError> {
/// let x = Tensor::zeros(&[2, 3]);
/// assert_eq!(x.shape().dims(), &[2, 3]);
/// assert_eq!(x.len(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLenMismatch`] when `data.len()` differs
    /// from the shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return Err(TensorError::DataLenMismatch {
                data_len: data.len(),
                shape_len: shape.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: Shape::scalar(),
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        Tensor::full(dims, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates an `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimensions as a slice (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the tensor payload in bytes.
    pub fn byte_len(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// Immutable access to the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates indexing errors from [`Shape::offset`].
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates indexing errors from [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a copy with a new shape over the same data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLenMismatch`] when element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        Tensor::from_vec(self.data.clone(), dims)
    }

    /// True when every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Maximum absolute difference against another tensor of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        self.shape.check_same(&other.shape, "max_abs_diff")?;
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max))
    }

    /// Asserts element-wise closeness within `tol`; used heavily in tests.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ or any element pair differs by more than
    /// `tol`.
    pub fn assert_close(&self, other: &Tensor, tol: f32) {
        let diff = self
            .max_abs_diff(other)
            .unwrap_or_else(|e| panic!("assert_close shape error: {e}"));
        assert!(
            diff <= tol,
            "tensors differ by {diff} (> {tol}): {self:?} vs {other:?}"
        );
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{}[", self.shape)?;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        if self.data.len() > PREVIEW {
            write!(f, ", … {} more", self.data.len() - PREVIEW)?;
        }
        write!(f, "]")
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]),
            Err(TensorError::DataLenMismatch { .. })
        ));
    }

    #[test]
    fn eye_is_identity() {
        let id = Tensor::eye(3);
        assert_eq!(id.at(&[0, 0]).unwrap(), 1.0);
        assert_eq!(id.at(&[1, 2]).unwrap(), 0.0);
        assert_eq!(id.as_slice().iter().sum::<f32>(), 3.0);
    }

    #[test]
    fn set_and_at_round_trip() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set(&[1, 0], 7.5).unwrap();
        assert_eq!(t.at(&[1, 0]).unwrap(), 7.5);
        assert_eq!(t.at(&[0, 1]).unwrap(), 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], &[6])
            .unwrap()
            .reshape(&[2, 3])
            .unwrap();
        assert_eq!(t.at(&[1, 2]).unwrap(), 5.0);
        assert!(t.reshape(&[7]).is_err());
    }

    #[test]
    fn debug_preview_is_bounded() {
        let t = Tensor::zeros(&[100]);
        let s = format!("{t:?}");
        assert!(s.contains("more"));
        assert!(s.len() < 200);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::ones(&[3]);
        assert!(t.all_finite());
        t.as_mut_slice()[1] = f32::NAN;
        assert!(!t.all_finite());
    }

    #[test]
    fn byte_len_counts_f32() {
        assert_eq!(Tensor::zeros(&[4, 4]).byte_len(), 64);
    }
}
