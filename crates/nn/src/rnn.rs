//! Recurrent cells: GRU, LSTM and vanilla RNN.
//!
//! These are the time encoders of JODIE, EvolveGCN, MolDGNN, DyRep and
//! LDG. Their strictly sequential use across time steps is the paper's
//! first bottleneck; the cells themselves just do their gate math and
//! dispatch the matching kernels.

use dgnn_device::{DeviceTensor, Dispatcher};
use dgnn_tensor::{Initializer, OpDescriptor, Tensor, TensorRng};

use crate::module::{Module, Param};
use crate::Result;

/// The fused gate weights `w_input: [in, gates·hidden]` and
/// `w_hidden: [hidden, gates·hidden]` (the layout the GEMM reads), each
/// drawn as its `[gates·hidden, ·]` transpose, plus the gate bias.
fn gate_params(
    n_gates: usize,
    in_dim: usize,
    hidden: usize,
    rng: &mut TensorRng,
) -> (Param, Param, Param) {
    (
        Param::new(
            "w_input",
            rng.init_transposed(n_gates * hidden, in_dim, Initializer::XavierUniform),
        ),
        Param::new(
            "w_hidden",
            rng.init_transposed(n_gates * hidden, hidden, Initializer::XavierUniform),
        ),
        Param::new("bias", rng.init(&[n_gates * hidden], Initializer::Zeros)),
    )
}

/// Fused gate pre-activation: two GEMMs plus one element-wise combine,
/// split into per-gate `[b, hidden]` blocks.
#[allow(clippy::too_many_arguments)]
fn gates(
    dx: &mut Dispatcher,
    label: &'static str,
    x: &DeviceTensor,
    h: &DeviceTensor,
    w_input: &Tensor,
    w_hidden: &Tensor,
    bias: &Tensor,
    n_gates: usize,
    hidden: usize,
) -> Result<Vec<Tensor>> {
    let b = x.data().dims()[0];
    let xi = dx.matmul(label, x, w_input)?;
    let hh = dx.matmul(label, h, w_hidden)?;
    let pre = dx.fused(
        OpDescriptor::elementwise(label, b * n_gates * hidden, 2, 3),
        x.scale(),
        || xi.data().add(hh.data())?.add_row_broadcast(bias),
    )?;
    // Split the fused gate matrix into per-gate [b, hidden] blocks.
    let mut out = Vec::with_capacity(n_gates);
    for g in 0..n_gates {
        let mut data = Vec::with_capacity(b * hidden);
        for row in 0..b {
            let off = row * n_gates * hidden + g * hidden;
            data.extend_from_slice(&pre.as_slice()[off..off + hidden]);
        }
        out.push(Tensor::from_vec(data, &[b, hidden])?);
    }
    Ok(out)
}

/// Gated recurrent unit cell.
#[derive(Debug, Clone, PartialEq)]
pub struct GruCell {
    w_input: Param,
    w_hidden: Param,
    bias: Param,
    hidden: usize,
}

impl GruCell {
    /// Creates a GRU cell.
    pub fn new(in_dim: usize, hidden: usize, rng: &mut TensorRng) -> Self {
        let (w_input, w_hidden, bias) = gate_params(3, in_dim, hidden, rng);
        GruCell {
            w_input,
            w_hidden,
            bias,
            hidden,
        }
    }

    /// One step: `(x: [b, in], h: [b, hidden]) → h': [b, hidden]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors when inputs don't match the cell dimensions.
    pub fn forward(
        &self,
        dx: &mut Dispatcher,
        x: &DeviceTensor,
        h: &DeviceTensor,
    ) -> Result<DeviceTensor> {
        let g = gates(
            dx,
            "gru_gates",
            x,
            h,
            &self.w_input.value,
            &self.w_hidden.value,
            &self.bias.value,
            3,
            self.hidden,
        )?;
        let update = OpDescriptor::elementwise("gru_update", h.data().len(), 6, 3);
        let h_new = dx.fused(update, h.scale(), || {
            let z = g[0].sigmoid();
            let r = g[1].sigmoid();
            // Candidate uses the reset gate on the hidden contribution.
            // The fused pre-activation already mixed h in, so recompute
            // the candidate from its block with the r-gated correction:
            // the standard simplification n = tanh(pre_n - (1-r)·Uh·h) is
            // approximated by gating the whole block, which preserves the
            // cost model and keeps values bounded.
            let n = g[2].mul(&r)?.tanh();
            h.data().lerp_gate(&n, &z.map(|v| 1.0 - v))
        })?;
        Ok(dx.adopt(h_new, h.scale()))
    }
}

impl Module for GruCell {
    fn parameters(&self) -> Vec<&Param> {
        vec![&self.w_input, &self.w_hidden, &self.bias]
    }
}

/// Long short-term memory cell.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmCell {
    w_input: Param,
    w_hidden: Param,
    bias: Param,
    hidden: usize,
}

/// LSTM state `(h, c)`.
pub type LstmState = (DeviceTensor, DeviceTensor);

impl LstmCell {
    /// Creates an LSTM cell.
    pub fn new(in_dim: usize, hidden: usize, rng: &mut TensorRng) -> Self {
        let (w_input, w_hidden, bias) = gate_params(4, in_dim, hidden, rng);
        LstmCell {
            w_input,
            w_hidden,
            bias,
            hidden,
        }
    }

    /// Zero state for a batch of `b`, resident on the compute device
    /// (recurrent state lives where the kernels run — it never crosses
    /// PCIe between steps).
    pub fn zero_state(&self, dx: &mut Dispatcher, b: usize) -> LstmState {
        self.zero_state_scaled(dx, b, 1.0)
    }

    /// [`LstmCell::zero_state`] for a representative batch of `b`
    /// physical rows standing in for `scale × b` logical rows.
    pub fn zero_state_scaled(&self, dx: &mut Dispatcher, b: usize, scale: f64) -> LstmState {
        (
            dx.adopt(Tensor::zeros(&[b, self.hidden]), scale),
            dx.adopt(Tensor::zeros(&[b, self.hidden]), scale),
        )
    }

    /// One step: `(x: [b, in], (h, c)) → (h', c')`.
    ///
    /// # Errors
    ///
    /// Returns shape errors when inputs don't match the cell dimensions.
    pub fn forward(
        &self,
        dx: &mut Dispatcher,
        x: &DeviceTensor,
        state: &LstmState,
    ) -> Result<LstmState> {
        let (h, c) = state;
        let g = gates(
            dx,
            "lstm_gates",
            x,
            h,
            &self.w_input.value,
            &self.w_hidden.value,
            &self.bias.value,
            4,
            self.hidden,
        )?;
        let update = OpDescriptor::elementwise("lstm_state", h.data().len(), 6, 4);
        let (h_new, c_new) = dx.fused(update, h.scale(), || {
            let i = g[0].sigmoid();
            let f = g[1].sigmoid();
            let o = g[2].sigmoid();
            let cand = g[3].tanh();
            let c_new = f.mul(c.data())?.add(&i.mul(&cand)?)?;
            let h_new = o.mul(&c_new.tanh())?;
            Ok((h_new, c_new))
        })?;
        Ok((dx.adopt(h_new, h.scale()), dx.adopt(c_new, h.scale())))
    }
}

impl Module for LstmCell {
    fn parameters(&self) -> Vec<&Param> {
        vec![&self.w_input, &self.w_hidden, &self.bias]
    }
}

/// Vanilla RNN cell `h' = tanh(x W + h U + b)` (JODIE's update form),
/// with `W: [in, hidden]` and `U: [hidden, hidden]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RnnCell {
    w_input: Param,
    w_hidden: Param,
    bias: Param,
    hidden: usize,
}

impl RnnCell {
    /// Creates a vanilla RNN cell.
    pub fn new(in_dim: usize, hidden: usize, rng: &mut TensorRng) -> Self {
        let (w_input, w_hidden, bias) = gate_params(1, in_dim, hidden, rng);
        RnnCell {
            w_input,
            w_hidden,
            bias,
            hidden,
        }
    }

    /// One step: `(x: [b, in], h: [b, hidden]) → h'`.
    ///
    /// # Errors
    ///
    /// Returns shape errors when inputs don't match the cell dimensions.
    pub fn forward(
        &self,
        dx: &mut Dispatcher,
        x: &DeviceTensor,
        h: &DeviceTensor,
    ) -> Result<DeviceTensor> {
        let g = gates(
            dx,
            "rnn_step",
            x,
            h,
            &self.w_input.value,
            &self.w_hidden.value,
            &self.bias.value,
            1,
            self.hidden,
        )?;
        let tanh = OpDescriptor::elementwise("rnn_tanh", h.data().len(), 1, 1);
        let out = dx.fused(tanh, h.scale(), || Ok(g[0].tanh()))?;
        Ok(dx.adopt(out, h.scale()))
    }
}

impl Module for RnnCell {
    fn parameters(&self) -> Vec<&Param> {
        vec![&self.w_input, &self.w_hidden, &self.bias]
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
    fn gru_preserves_shape_and_boundedness() {
        let mut rng = TensorRng::seed(1);
        let cell = GruCell::new(6, 8, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let x = dt(TensorRng::seed(2).init(&[3, 6], Initializer::Normal(2.0)));
        let h = dt(TensorRng::seed(3).init(&[3, 8], Initializer::Uniform(1.0)));
        let h2 = cell.forward(&mut dx, &x, &h).unwrap();
        assert_eq!(h2.data().dims(), &[3, 8]);
        assert!(h2.data().all_finite());
        // GRU interpolates between bounded candidate and previous state.
        assert!(h2.data().as_slice().iter().all(|v| v.abs() <= 1.01));
    }

    #[test]
    fn lstm_state_evolves() {
        let mut rng = TensorRng::seed(4);
        let cell = LstmCell::new(5, 7, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let (h0, c0) = cell.zero_state(&mut dx, 2);
        let x = dt(TensorRng::seed(5).init(&[2, 5], Initializer::Normal(1.0)));
        let (h1, c1) = cell
            .forward(&mut dx, &x, &(h0.clone(), c0.clone()))
            .unwrap();
        assert_eq!(h1.data().dims(), &[2, 7]);
        assert_ne!(h1.data(), h0.data());
        assert_ne!(c1.data(), c0.data());
        let (h2, _) = cell.forward(&mut dx, &x, &(h1.clone(), c1)).unwrap();
        assert_ne!(h2.data(), h1.data());
    }

    #[test]
    fn rnn_output_is_tanh_bounded() {
        let mut rng = TensorRng::seed(6);
        let cell = RnnCell::new(4, 4, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let x = dt(TensorRng::seed(7).init(&[2, 4], Initializer::Normal(5.0)));
        let h = dt(Tensor::zeros(&[2, 4]));
        let out = cell.forward(&mut dx, &x, &h).unwrap();
        assert!(out.data().as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn cells_register_three_parameter_tensors() {
        let mut rng = TensorRng::seed(8);
        assert_eq!(GruCell::new(4, 4, &mut rng).param_tensor_count(), 3);
        assert_eq!(LstmCell::new(4, 4, &mut rng).param_tensor_count(), 3);
        assert_eq!(RnnCell::new(4, 4, &mut rng).param_tensor_count(), 3);
    }

    #[test]
    fn gate_width_scales_with_gate_count() {
        let mut rng = TensorRng::seed(9);
        let gru = GruCell::new(4, 8, &mut rng);
        let lstm = LstmCell::new(4, 8, &mut rng);
        assert!(lstm.param_bytes() > gru.param_bytes());
    }

    #[test]
    fn forward_launches_kernels() {
        let mut rng = TensorRng::seed(10);
        let cell = GruCell::new(4, 4, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let before = dx.executor().timeline().len();
        cell.forward(
            &mut dx,
            &dt(Tensor::zeros(&[1, 4])),
            &dt(Tensor::zeros(&[1, 4])),
        )
        .unwrap();
        assert!(dx.executor().timeline().len() >= before + 4);
    }

    #[test]
    fn wrong_shapes_error() {
        let mut rng = TensorRng::seed(11);
        let cell = GruCell::new(4, 4, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        assert!(cell
            .forward(
                &mut dx,
                &dt(Tensor::zeros(&[1, 5])),
                &dt(Tensor::zeros(&[1, 4]))
            )
            .is_err());
    }
}
