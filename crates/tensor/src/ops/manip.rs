//! Data-manipulation kernels: transpose, concatenation, slicing, gathers.
//!
//! In the profiled frameworks these correspond to the irregular-access
//! gather/scatter kernels the paper blames for workload imbalance, so the
//! device layer prices them against *memory bandwidth with an
//! irregular-access penalty* rather than FLOPs.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless rank is 2.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.as_slice()[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Concatenates rank-2 tensors along columns: `[m, a] ++ [m, b] → [m, a+b]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors when ranks are not 2 or row counts differ.
    pub fn concat_cols(&self, rhs: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 || rhs.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "concat_cols",
                expected: 2,
                actual: self.rank().min(rhs.rank()),
            });
        }
        let (m, a) = (self.dims()[0], self.dims()[1]);
        let (m2, b) = (rhs.dims()[0], rhs.dims()[1]);
        if m != m2 {
            return Err(TensorError::ShapeMismatch {
                op: "concat_cols",
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        let mut out = Vec::with_capacity(m * (a + b));
        for i in 0..m {
            out.extend_from_slice(&self.as_slice()[i * a..(i + 1) * a]);
            out.extend_from_slice(&rhs.as_slice()[i * b..(i + 1) * b]);
        }
        Tensor::from_vec(out, &[m, a + b])
    }

    /// Concatenates rank-2 tensors along rows: `[a, n] ++ [b, n] → [a+b, n]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors when ranks are not 2 or column counts differ.
    pub fn concat_rows(&self, rhs: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 || rhs.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "concat_rows",
                expected: 2,
                actual: self.rank().min(rhs.rank()),
            });
        }
        if self.dims()[1] != rhs.dims()[1] {
            return Err(TensorError::ShapeMismatch {
                op: "concat_rows",
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        let mut data = self.as_slice().to_vec();
        data.extend_from_slice(rhs.as_slice());
        Tensor::from_vec(data, &[self.dims()[0] + rhs.dims()[0], self.dims()[1]])
    }

    /// Extracts row `i` of a rank-2 tensor as a rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Returns rank/index errors.
    pub fn row(&self, i: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "row",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        if i >= m {
            return Err(TensorError::IndexOutOfBounds {
                op: "row",
                index: i,
                len: m,
            });
        }
        Tensor::from_vec(self.as_slice()[i * n..(i + 1) * n].to_vec(), &[n])
    }

    /// Gathers rows of a rank-2 tensor by index: output row `k` is input row
    /// `indices[k]`. This is the embedding-table lookup / neighbor gather.
    ///
    /// # Errors
    ///
    /// Returns rank errors or [`TensorError::IndexOutOfBounds`] when any
    /// index exceeds the row count.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "gather_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = Vec::with_capacity(indices.len() * n);
        for &i in indices {
            if i >= m {
                return Err(TensorError::IndexOutOfBounds {
                    op: "gather_rows",
                    index: i,
                    len: m,
                });
            }
            out.extend_from_slice(&self.as_slice()[i * n..(i + 1) * n]);
        }
        Tensor::from_vec(out, &[indices.len(), n])
    }

    /// Scatters `rows` (rank-2, one row per index) into `self` in place
    /// at the given row indices; later duplicates win. Every index is
    /// checked before the first write, so on error `self` is unchanged.
    ///
    /// # Errors
    ///
    /// Returns shape/index errors when widths differ, `rows` has fewer rows
    /// than `indices`, or any index is out of bounds.
    pub fn scatter_rows(&mut self, indices: &[usize], rows: &Tensor) -> Result<()> {
        if self.rank() != 2 || rows.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "scatter_rows",
                expected: 2,
                actual: self.rank().min(rows.rank()),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        if rows.dims()[1] != n || rows.dims()[0] < indices.len() {
            return Err(TensorError::ShapeMismatch {
                op: "scatter_rows",
                lhs: self.dims().to_vec(),
                rhs: rows.dims().to_vec(),
            });
        }
        if let Some(&i) = indices.iter().find(|&&i| i >= m) {
            return Err(TensorError::IndexOutOfBounds {
                op: "scatter_rows",
                index: i,
                len: m,
            });
        }
        let out = self.as_mut_slice();
        for (k, &i) in indices.iter().enumerate() {
            out[i * n..(i + 1) * n].copy_from_slice(&rows.as_slice()[k * n..(k + 1) * n]);
        }
        Ok(())
    }

    /// Stacks rank-1 tensors of equal length into a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for an empty list and shape
    /// errors when lengths differ.
    pub fn stack_rows(rows: &[Tensor]) -> Result<Tensor> {
        let first = rows
            .first()
            .ok_or(TensorError::EmptyInput { op: "stack_rows" })?;
        let n = first.len();
        let mut data = Vec::with_capacity(rows.len() * n);
        for r in rows {
            if r.rank() != 1 || r.len() != n {
                return Err(TensorError::ShapeMismatch {
                    op: "stack_rows",
                    lhs: vec![n],
                    rhs: r.dims().to_vec(),
                });
            }
            data.extend_from_slice(r.as_slice());
        }
        Tensor::from_vec(data, &[rows.len(), n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_involution() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let tt = t.transpose().unwrap().transpose().unwrap();
        assert_eq!(t, tt);
        assert_eq!(t.transpose().unwrap().dims(), &[3, 2]);
    }

    #[test]
    fn concat_cols_layout() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0], &[2, 1]).unwrap();
        let c = a.concat_cols(&b).unwrap();
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
    }

    #[test]
    fn concat_rows_layout() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]).unwrap();
        let c = a.concat_rows(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(a.concat_rows(&Tensor::zeros(&[1, 3])).is_err());
    }

    #[test]
    fn gather_rows_picks_and_validates() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[3, 2]).unwrap();
        let g = t.gather_rows(&[2, 0, 2]).unwrap();
        assert_eq!(g.as_slice(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
        assert!(t.gather_rows(&[3]).is_err());
    }

    #[test]
    fn scatter_rows_overwrites() {
        let mut out = Tensor::zeros(&[3, 2]);
        let rows = Tensor::from_vec(vec![1.0, 1.0, 2.0, 2.0], &[2, 2]).unwrap();
        out.scatter_rows(&[2, 0], &rows).unwrap();
        assert_eq!(out.as_slice(), &[2.0, 2.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn scatter_gather_round_trip() {
        let base = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[4, 2]).unwrap();
        let idx = [1usize, 3];
        let g = base.gather_rows(&idx).unwrap();
        let mut back = base.clone();
        back.scatter_rows(&idx, &g).unwrap();
        assert_eq!(base, back);
    }

    #[test]
    fn scatter_with_a_bad_index_writes_no_row() {
        let before = Tensor::from_vec((0..8).map(|v| v as f32 + 0.5).collect(), &[4, 2]).unwrap();
        let rows = Tensor::full(&[3, 2], -1.0);
        let mut table = before.clone();
        // The bad index comes last, after two valid rows.
        let err = table.scatter_rows(&[0, 2, 4], &rows).unwrap_err();
        assert_eq!(
            err,
            TensorError::IndexOutOfBounds {
                op: "scatter_rows",
                index: 4,
                len: 4,
            }
        );
        let same_bits = before
            .as_slice()
            .iter()
            .zip(table.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same_bits, "a failed scatter wrote rows: {table:?}");
    }

    #[test]
    fn stack_rows_builds_matrix() {
        let rows = vec![
            Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap(),
            Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap(),
        ];
        let m = Tensor::stack_rows(&rows).unwrap();
        assert_eq!(m.dims(), &[2, 2]);
        assert!(Tensor::stack_rows(&[]).is_err());
    }

    #[test]
    fn row_extracts() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[3, 2]).unwrap();
        assert_eq!(t.row(1).unwrap().as_slice(), &[2.0, 3.0]);
        assert!(t.row(3).is_err());
    }
}
