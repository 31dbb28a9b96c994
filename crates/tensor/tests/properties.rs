//! Property-style tests over the tensor algebra, driven by a seeded
//! in-repo generator instead of an external property-testing crate so
//! the suite builds offline. Each test sweeps a deterministic family of
//! shapes and seeds.

use dgnn_tensor::{Initializer, Tensor, TensorRng};

/// Deterministic sweep of (rows, cols, seed) triples up to `max_dim`.
fn matrix_cases(max_dim: usize, n_cases: usize) -> Vec<(usize, usize, u64)> {
    let mut rng = TensorRng::seed(0xa11ce);
    (0..n_cases)
        .map(|_| {
            (
                rng.index(max_dim) + 1,
                rng.index(max_dim) + 1,
                rng.next_u64(),
            )
        })
        .collect()
}

fn small_matrix(m: usize, n: usize, seed: u64) -> Tensor {
    TensorRng::seed(seed).init(&[m, n], Initializer::Uniform(2.0))
}

#[test]
fn transpose_is_involution() {
    for (m, n, seed) in matrix_cases(8, 32) {
        let t = small_matrix(m, n, seed);
        let tt = t.transpose().unwrap().transpose().unwrap();
        assert_eq!(t, tt);
    }
}

#[test]
fn matmul_identity_left_and_right() {
    for (m, n, seed) in matrix_cases(8, 32) {
        let t = small_matrix(m, n, seed);
        t.matmul(&Tensor::eye(n)).unwrap().assert_close(&t, 1e-4);
        Tensor::eye(m).matmul(&t).unwrap().assert_close(&t, 1e-4);
    }
}

#[test]
fn matmul_distributes_over_add() {
    let mut rng = TensorRng::seed(0xd157);
    for _ in 0..32 {
        let (m, k, n) = (rng.index(5) + 1, rng.index(5) + 1, rng.index(5) + 1);
        let a = TensorRng::seed(rng.next_u64()).init(&[m, k], Initializer::Uniform(1.0));
        let b = TensorRng::seed(rng.next_u64()).init(&[k, n], Initializer::Uniform(1.0));
        let c = TensorRng::seed(rng.next_u64()).init(&[k, n], Initializer::Uniform(1.0));
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        lhs.assert_close(&rhs, 1e-3);
    }
}

#[test]
fn transpose_reverses_matmul() {
    let mut rng = TensorRng::seed(0x7a5);
    for _ in 0..32 {
        let (m, k, n) = (rng.index(5) + 1, rng.index(5) + 1, rng.index(5) + 1);
        let a = TensorRng::seed(rng.next_u64()).init(&[m, k], Initializer::Uniform(1.0));
        let b = TensorRng::seed(rng.next_u64()).init(&[k, n], Initializer::Uniform(1.0));
        let lhs = a.matmul(&b).unwrap().transpose().unwrap();
        let rhs = b
            .transpose()
            .unwrap()
            .matmul(&a.transpose().unwrap())
            .unwrap();
        lhs.assert_close(&rhs, 1e-4);
    }
}

#[test]
fn softmax_rows_are_distributions() {
    for (m, n, seed) in matrix_cases(8, 32) {
        let p = small_matrix(m, n, seed).softmax_rows().unwrap();
        for i in 0..m {
            let mut row_sum = 0.0f32;
            for j in 0..n {
                let v = p.at(&[i, j]).unwrap();
                assert!((0.0..=1.0 + 1e-6).contains(&v));
                row_sum += v;
            }
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
    }
}

#[test]
fn gather_then_scatter_round_trips() {
    for (m, n, seed) in matrix_cases(8, 32) {
        let t = small_matrix(m, n, seed);
        let mut rng = TensorRng::seed(seed ^ 0x5ca7);
        let k = rng.index(m) + 1;
        // Distinct indices so scatter exactly undoes gather.
        let mut idx: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            idx.swap(i, rng.index(i + 1));
        }
        idx.truncate(k);
        let g = t.gather_rows(&idx).unwrap();
        let mut back = t.clone();
        back.scatter_rows(&idx, &g).unwrap();
        assert_eq!(t, back);
    }
}

#[test]
fn concat_cols_preserves_rows() {
    for (m, _, seed) in matrix_cases(6, 24) {
        let a = small_matrix(m, 4, seed);
        let b = TensorRng::seed(seed ^ 0xc01).init(&[m, 3], Initializer::Uniform(1.0));
        let c = a.concat_cols(&b).unwrap();
        assert_eq!(c.dims()[0], m);
        assert_eq!(c.dims()[1], a.dims()[1] + 3);
        for i in 0..m {
            assert_eq!(c.at(&[i, 0]).unwrap(), a.at(&[i, 0]).unwrap());
            assert_eq!(c.at(&[i, a.dims()[1]]).unwrap(), b.at(&[i, 0]).unwrap());
        }
    }
}

#[test]
fn relu_is_idempotent_and_nonnegative() {
    for (m, n, seed) in matrix_cases(8, 32) {
        let r = small_matrix(m, n, seed).relu();
        assert!(r.as_slice().iter().all(|&v| v >= 0.0));
        assert_eq!(r.relu(), r);
    }
}

#[test]
fn sigmoid_tanh_identity() {
    for (m, n, seed) in matrix_cases(6, 24) {
        // tanh(x) = 2·sigmoid(2x) − 1
        let t = small_matrix(m, n, seed);
        let lhs = t.tanh();
        let rhs = t.scale(2.0).sigmoid().scale(2.0).add_scalar(-1.0);
        lhs.assert_close(&rhs, 1e-5);
    }
}

#[test]
fn sum_rows_matches_total() {
    for (m, n, seed) in matrix_cases(8, 32) {
        let t = small_matrix(m, n, seed);
        let total: f32 = t.sum();
        let rowsum = t.sum_rows().unwrap().sum();
        assert!((total - rowsum).abs() < 1e-3 * (1.0 + total.abs()));
    }
}
