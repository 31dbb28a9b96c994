//! Matrix multiplication kernels (the GEMM family).
//!
//! `matmul` is cache-blocked. Tiling preserves the untiled ikj kernel's
//! result *bit for bit*: every output element still accumulates its `k`
//! products in ascending-`kk` order with the same zero-skip, so no f32
//! addition is reordered.

use crate::{Result, Tensor, TensorError};

/// Tile of the reduction dimension held hot in L1 across a row sweep.
const BLOCK_K: usize = 64;
/// Tile of the output columns — with `BLOCK_K` this keeps the active
/// `b` panel around 64 KiB.
const BLOCK_N: usize = 256;

/// Multiplies `a` (shape `[m, k]`) by `b` (`[k, n]`) into a fresh
/// `[m, n]` buffer with k/n tiling. For each output element the `kk`
/// loop still runs 0..k ascending (tiles are visited in order), so the
/// result is bitwise equal to the untiled kernel.
fn matmul_blocked(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for kt in (0..k).step_by(BLOCK_K) {
        let kend = (kt + BLOCK_K).min(k);
        for jt in (0..n).step_by(BLOCK_N) {
            let jend = (jt + BLOCK_N).min(n);
            for i in 0..m {
                for kk in kt..kend {
                    let aik = a[i * k + kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = &b[kk * n + jt..kk * n + jend];
                    let orow = &mut out[i * n + jt..i * n + jend];
                    for (o, bv) in orow.iter_mut().zip(brow) {
                        *o += aik * bv;
                    }
                }
            }
        }
    }
    out
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// ```
    /// use dgnn_tensor::Tensor;
    ///
    /// # fn main() -> Result<(), dgnn_tensor::TensorError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
    /// let c = a.matmul(&b)?;
    /// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank 2
    /// and [`TensorError::ShapeMismatch`] unless the inner dimensions agree.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: self.rank(),
            });
        }
        if rhs.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: rhs.rank(),
            });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (rhs.dims()[0], rhs.dims()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        let out = matmul_blocked(self.as_slice(), rhs.as_slice(), m, k, n);
        Tensor::from_vec(out, &[m, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;

    /// The historical untiled ikj kernel, kept verbatim as the
    /// byte-identity reference for the blocked version.
    fn matmul_untiled_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let aik = a[i * k + kk];
                if aik == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, bv) in orow.iter_mut().zip(brow) {
                    *o += aik * bv;
                }
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_is_byte_identical_to_untiled() {
        let mut rng = TensorRng::seed(11);
        // Shapes straddling every tile boundary: smaller than one tile,
        // exact multiples, and ragged remainders in both k and n.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (17, BLOCK_K, BLOCK_N),
            (33, BLOCK_K + 7, BLOCK_N + 13),
            (64, 200, 300),
            (129, 65, 257),
        ] {
            let mut a = rng.init(&[m, k], crate::Initializer::Uniform(1.0));
            // Inject zeros so the zero-skip path is exercised.
            let az = a.as_mut_slice();
            for idx in (0..az.len()).step_by(7) {
                az[idx] = 0.0;
            }
            let b = rng.init(&[k, n], crate::Initializer::Uniform(1.0));
            let reference = matmul_untiled_reference(a.as_slice(), b.as_slice(), m, k, n);
            let blocked = a.matmul(&b).unwrap();
            let same_bits = reference
                .iter()
                .zip(blocked.as_slice())
                .all(|(r, o)| r.to_bits() == o.to_bits());
            assert!(same_bits, "bit mismatch at shape [{m},{k}]x[{k},{n}]");
        }
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let id = Tensor::eye(3);
        a.matmul(&id).unwrap().assert_close(&a, 1e-6);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 2.0, -1.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 1.0, 2.0, 1.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[3.0, 1.0, 4.0, 1.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        assert!(a.matmul(&Tensor::zeros(&[3])).is_err());
    }
}
