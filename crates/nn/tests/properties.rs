//! Property-style tests over the neural-network layers, driven by a
//! seeded sweep so the suite builds offline.

use dgnn_device::{DeviceTensor, Dispatcher, ExecMode, Executor, PlatformSpec};
use dgnn_nn::{
    BochnerTimeEncoder, GcnLayer, GruCell, LayerNorm, Linear, LstmCell, Mlp, Module,
    MultiHeadAttention, RnnCell, Time2Vec,
};
use dgnn_tensor::{Initializer, Tensor, TensorRng};

fn cpu() -> Executor {
    Executor::new(PlatformSpec::default(), ExecMode::CpuOnly)
}

fn dt(t: Tensor) -> DeviceTensor {
    DeviceTensor::host(t)
}

#[test]
fn linear_output_shape_and_finiteness() {
    let mut sweep = TensorRng::seed(0x11a1);
    for _ in 0..32 {
        let (m, i, o) = (
            sweep.index(11) + 1,
            sweep.index(23) + 1,
            sweep.index(23) + 1,
        );
        let seed = sweep.next_u64();
        let mut rng = TensorRng::seed(seed);
        let layer = Linear::new(i, o, &mut rng);
        let x = dt(TensorRng::seed(seed ^ 1).init(&[m, i], Initializer::Normal(2.0)));
        let mut ex = cpu();
        let y = layer.forward(&mut Dispatcher::new(&mut ex), &x).unwrap();
        assert_eq!(y.data().dims(), &[m, o]);
        assert!(y.data().all_finite());
    }
}

#[test]
fn linear_is_linear() {
    let mut sweep = TensorRng::seed(0x11a2);
    for _ in 0..32 {
        let (m, i, o) = (sweep.index(7) + 1, sweep.index(11) + 1, sweep.index(11) + 1);
        let seed = sweep.next_u64();
        let mut rng = TensorRng::seed(seed);
        let layer = Linear::new(i, o, &mut rng);
        let mut ex = cpu();
        let mut dx = Dispatcher::new(&mut ex);
        let a = TensorRng::seed(seed ^ 2).init(&[m, i], Initializer::Uniform(1.0));
        let b = TensorRng::seed(seed ^ 3).init(&[m, i], Initializer::Uniform(1.0));
        // f(a) + f(b) - f(0) == f(a + b)  (affine with shared bias)
        let fa = layer.forward(&mut dx, &dt(a.clone())).unwrap();
        let fb = layer.forward(&mut dx, &dt(b.clone())).unwrap();
        let f0 = layer.forward(&mut dx, &dt(Tensor::zeros(&[m, i]))).unwrap();
        let fab = layer.forward(&mut dx, &dt(a.add(&b).unwrap())).unwrap();
        fa.data()
            .add(fb.data())
            .unwrap()
            .sub(f0.data())
            .unwrap()
            .assert_close(fab.data(), 1e-3);
    }
}

#[test]
fn recurrent_cells_bound_their_state() {
    let mut sweep = TensorRng::seed(0x11a3);
    for _ in 0..32 {
        let (b, i, h) = (sweep.index(5) + 1, sweep.index(9) + 1, sweep.index(9) + 1);
        let seed = sweep.next_u64();
        let mut rng = TensorRng::seed(seed);
        let x = dt(TensorRng::seed(seed ^ 4).init(&[b, i], Initializer::Normal(3.0)));

        let gru = GruCell::new(i, h, &mut rng);
        let h0 = dt(TensorRng::seed(seed ^ 5).init(&[b, h], Initializer::Uniform(1.0)));
        let mut ex1 = cpu();
        let h1 = gru
            .forward(&mut Dispatcher::new(&mut ex1), &x, &h0)
            .unwrap();
        assert!(h1.data().as_slice().iter().all(|v| v.abs() <= 1.01));

        let rnn = RnnCell::new(i, h, &mut rng);
        let mut ex2 = cpu();
        let r1 = rnn
            .forward(&mut Dispatcher::new(&mut ex2), &x, &h0)
            .unwrap();
        assert!(r1.data().as_slice().iter().all(|v| v.abs() <= 1.0));

        let lstm = LstmCell::new(i, h, &mut rng);
        let mut ex3 = cpu();
        let mut dx3 = Dispatcher::new(&mut ex3);
        let state = lstm.zero_state(&mut dx3, b);
        let (hh, cc) = lstm.forward(&mut dx3, &x, &state).unwrap();
        assert!(hh.data().all_finite() && cc.data().all_finite());
        assert!(hh.data().as_slice().iter().all(|v| v.abs() <= 1.0));
    }
}

#[test]
fn attention_output_is_convex_ish_in_values() {
    let mut sweep = TensorRng::seed(0x11a4);
    for _ in 0..32 {
        let (m, n) = (sweep.index(4) + 1, sweep.index(7) + 1);
        let seed = sweep.next_u64();
        // With all values equal to a constant row v, attention output is
        // Wo·(Wv·v) for every query regardless of scores.
        let d = 8usize;
        let mut rng = TensorRng::seed(seed);
        let attn = MultiHeadAttention::new(d, 2, &mut rng);
        let q = dt(TensorRng::seed(seed ^ 6).init(&[m, d], Initializer::Normal(1.0)));
        let k = dt(TensorRng::seed(seed ^ 7).init(&[n, d], Initializer::Normal(1.0)));
        let row = TensorRng::seed(seed ^ 8).init(&[1, d], Initializer::Normal(1.0));
        let mut v = Tensor::zeros(&[n, d]);
        for r in 0..n {
            v.scatter_rows(&[r], &row).unwrap();
        }
        let mut ex = cpu();
        let out = attn
            .forward(&mut Dispatcher::new(&mut ex), &q, &k, &dt(v))
            .unwrap();
        for r in 1..m {
            out.data()
                .row(0)
                .unwrap()
                .assert_close(&out.data().row(r).unwrap(), 1e-4);
        }
    }
}

#[test]
fn gcn_respects_graph_locality() {
    let mut sweep = TensorRng::seed(0x11a5);
    for _ in 0..32 {
        let n = sweep.index(8) + 2;
        let seed = sweep.next_u64();
        // With identity adjacency (no edges, self-loops only), output row
        // i depends only on input row i.
        let d = 4usize;
        let mut rng = TensorRng::seed(seed);
        let layer = GcnLayer::new(d, d, &mut rng);
        let adj = dt(Tensor::eye(n));
        let x1 = TensorRng::seed(seed ^ 9).init(&[n, d], Initializer::Normal(1.0));
        let mut x2 = x1.clone();
        // Perturb only the last row.
        let noise = TensorRng::seed(seed ^ 10).init(&[1, d], Initializer::Normal(1.0));
        x2.scatter_rows(&[n - 1], &noise).unwrap();
        let mut ex1 = cpu();
        let y1 = layer
            .forward(&mut Dispatcher::new(&mut ex1), &adj, &dt(x1))
            .unwrap();
        let mut ex2 = cpu();
        let y2 = layer
            .forward(&mut Dispatcher::new(&mut ex2), &adj, &dt(x2))
            .unwrap();
        for r in 0..n - 1 {
            y1.data()
                .row(r)
                .unwrap()
                .assert_close(&y2.data().row(r).unwrap(), 1e-5);
        }
    }
}

#[test]
fn time_encoders_are_deterministic_and_bounded() {
    let mut sweep = TensorRng::seed(0x11a6);
    for _ in 0..32 {
        let (n, d) = (sweep.index(19) + 1, sweep.index(15) + 1);
        let seed = sweep.next_u64();
        let mut rng = TensorRng::seed(seed);
        let bochner = BochnerTimeEncoder::new(d, &mut rng);
        let t2v = Time2Vec::new(d, &mut rng);
        let ts = dt(TensorRng::seed(seed ^ 11).init(&[n], Initializer::Uniform(100.0)));
        let mut ex1 = cpu();
        let e1 = bochner
            .forward(&mut Dispatcher::new(&mut ex1), &ts)
            .unwrap();
        let mut ex2 = cpu();
        let e2 = bochner
            .forward(&mut Dispatcher::new(&mut ex2), &ts)
            .unwrap();
        assert_eq!(e1.data(), e2.data());
        let bound = (1.0 / d as f32).sqrt() + 1e-5;
        assert!(e1.data().as_slice().iter().all(|v| v.abs() <= bound));
        let mut ex3 = cpu();
        assert!(t2v
            .forward(&mut Dispatcher::new(&mut ex3), &ts)
            .unwrap()
            .data()
            .all_finite());
    }
}

#[test]
fn layernorm_is_shift_invariant() {
    let mut sweep = TensorRng::seed(0x11a7);
    for _ in 0..32 {
        let m = sweep.index(7) + 1;
        let seed = sweep.next_u64();
        let d = 8usize;
        let mut rng = TensorRng::seed(seed);
        let ln = LayerNorm::new(d, &mut rng);
        let x = TensorRng::seed(seed ^ 12).init(&[m, d], Initializer::Normal(2.0));
        let shifted = x.add_scalar(5.0);
        let mut ex = cpu();
        let mut dx = Dispatcher::new(&mut ex);
        let y1 = ln.forward(&mut dx, &dt(x)).unwrap();
        let y2 = ln.forward(&mut dx, &dt(shifted)).unwrap();
        y1.data().assert_close(y2.data(), 1e-3);
    }
}

#[test]
fn param_counts_are_consistent() {
    let mut sweep = TensorRng::seed(0x11a8);
    for _ in 0..32 {
        let (i, h) = (sweep.index(15) + 1, sweep.index(15) + 1);
        let mut rng = TensorRng::seed(sweep.next_u64());
        let mlp = Mlp::new(&[i, h, 1], &mut rng);
        let total: u64 = mlp.parameters().iter().map(|p| p.value.byte_len()).sum();
        assert_eq!(mlp.param_bytes(), total);
        assert_eq!(mlp.param_tensor_count(), 4);
    }
}

#[test]
fn every_forward_advances_the_clock() {
    let mut sweep = TensorRng::seed(0x11a9);
    for _ in 0..16 {
        let m = sweep.index(5) + 1;
        let d = 8usize;
        let mut rng = TensorRng::seed(sweep.next_u64());
        let layer = Linear::new(d, d, &mut rng);
        let attn = MultiHeadAttention::new(d, 2, &mut rng);
        let x = dt(Tensor::ones(&[m, d]));
        let mut ex = cpu();
        let mut dx = Dispatcher::new(&mut ex);
        let t0 = dx.executor().now();
        layer.forward(&mut dx, &x).unwrap();
        let t1 = dx.executor().now();
        attn.forward(&mut dx, &x, &x, &x).unwrap();
        let t2 = dx.executor().now();
        assert!(t0 < t1 && t1 < t2);
    }
}
