//! Graph convolution layer (EvolveGCN, MolDGNN, ASTGNN's spatial block).

use dgnn_device::{DeviceTensor, Dispatcher};
use dgnn_tensor::{Initializer, Tensor, TensorRng};

use crate::module::{Module, Param};
use crate::Result;

/// One GCN layer `H' = σ(Â H W)` over a dense normalized adjacency `Â`.
///
/// The layer also supports an *external* weight matrix
/// ([`GcnLayer::forward_with_weight`]) because EvolveGCN's RNN rewrites
/// the GCN weights at every time step.
#[derive(Debug, Clone, PartialEq)]
pub struct GcnLayer {
    weight: Param,
    in_dim: usize,
    out_dim: usize,
}

impl GcnLayer {
    /// Creates a GCN layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut TensorRng) -> Self {
        GcnLayer {
            weight: Param::new(
                "weight",
                rng.init(&[in_dim, out_dim], Initializer::XavierUniform),
            ),
            in_dim,
            out_dim,
        }
    }

    /// The layer's own weight `[in, out]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Forward with the layer's own weight.
    ///
    /// # Errors
    ///
    /// Returns shape errors when `adj` is not `[n, n]` or `x` not `[n, in]`.
    pub fn forward(
        &self,
        dx: &mut Dispatcher,
        adj: &DeviceTensor,
        x: &DeviceTensor,
    ) -> Result<DeviceTensor> {
        self.forward_with_weight(dx, adj, x, &self.weight.value)
    }

    /// Forward with an externally supplied weight (EvolveGCN).
    ///
    /// # Errors
    ///
    /// Returns shape errors on dimension mismatch.
    pub fn forward_with_weight(
        &self,
        dx: &mut Dispatcher,
        adj: &DeviceTensor,
        x: &DeviceTensor,
        weight: &Tensor,
    ) -> Result<DeviceTensor> {
        // Propagation (A·X) then transformation (·W), then ReLU.
        let propagated = dx.matmul("gcn_propagate", adj, x)?;
        let transformed = dx.matmul("gcn_transform", &propagated, weight)?;
        Ok(dx.relu("gcn_relu", &transformed))
    }
}

impl Module for GcnLayer {
    fn parameters(&self) -> Vec<&Param> {
        vec![&self.weight]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_device::{ExecMode, Executor, PlatformSpec};
    use dgnn_graph::Graph;

    fn ex() -> Executor {
        Executor::new(PlatformSpec::default(), ExecMode::CpuOnly)
    }

    fn dt(t: Tensor) -> DeviceTensor {
        DeviceTensor::host(t)
    }

    fn ring_adjacency(n: usize) -> Tensor {
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| [(i, (i + 1) % n), ((i + 1) % n, i)])
            .collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        Tensor::from_vec(g.normalized_adjacency(), &[n, n]).unwrap()
    }

    #[test]
    fn forward_shape_and_nonnegativity() {
        let mut rng = TensorRng::seed(1);
        let layer = GcnLayer::new(6, 4, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let adj = dt(ring_adjacency(5));
        let x = dt(TensorRng::seed(2).init(&[5, 6], Initializer::Normal(1.0)));
        let h = layer.forward(&mut dx, &adj, &x).unwrap();
        assert_eq!(h.data().dims(), &[5, 4]);
        assert!(h.data().as_slice().iter().all(|&v| v >= 0.0), "ReLU output");
    }

    #[test]
    fn isolated_node_keeps_only_self_loop_signal() {
        // Empty graph: normalized adjacency is the identity (self-loops).
        let g = Graph::from_edges(3, &[]).unwrap();
        let adj = dt(Tensor::from_vec(g.normalized_adjacency(), &[3, 3]).unwrap());
        let mut rng = TensorRng::seed(3);
        let layer = GcnLayer::new(2, 2, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let x = TensorRng::seed(4).init(&[3, 2], Initializer::Normal(1.0));
        let h = layer.forward(&mut dx, &adj, &dt(x.clone())).unwrap();
        let manual = x.matmul(layer.weight()).unwrap().relu();
        h.data().assert_close(&manual, 1e-5);
    }

    #[test]
    fn external_weight_overrides_internal() {
        let mut rng = TensorRng::seed(5);
        let layer = GcnLayer::new(3, 3, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let adj = dt(ring_adjacency(4));
        let x = dt(Tensor::ones(&[4, 3]));
        let w_zero = Tensor::zeros(&[3, 3]);
        let h = layer
            .forward_with_weight(&mut dx, &adj, &x, &w_zero)
            .unwrap();
        assert_eq!(h.data().sum(), 0.0);
    }

    #[test]
    fn launches_two_gemms_and_relu() {
        let mut rng = TensorRng::seed(6);
        let layer = GcnLayer::new(2, 2, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let adj = dt(ring_adjacency(3));
        layer
            .forward(&mut dx, &adj, &dt(Tensor::zeros(&[3, 2])))
            .unwrap();
        assert_eq!(dx.executor().timeline().len(), 3);
    }
}
