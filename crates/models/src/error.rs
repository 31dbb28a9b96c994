use std::fmt;

use dgnn_graph::GraphError;
use dgnn_tensor::TensorError;

/// Error surfaced by model construction or inference.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A tensor operation failed (shape mismatch, bad index, …).
    Tensor(TensorError),
    /// A graph operation failed (bad node id, unsorted events, …).
    Graph(GraphError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Tensor(e) => write!(f, "tensor error: {e}"),
            ModelError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Tensor(e) => Some(e),
            ModelError::Graph(e) => Some(e),
        }
    }
}

impl From<TensorError> for ModelError {
    fn from(e: TensorError) -> Self {
        ModelError::Tensor(e)
    }
}

impl From<GraphError> for ModelError {
    fn from(e: GraphError) -> Self {
        ModelError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_wrap_sources() {
        let t: ModelError = TensorError::EmptyInput { op: "mean" }.into();
        assert!(matches!(t, ModelError::Tensor(_)));
        assert!(std::error::Error::source(&t).is_some());
        let g: ModelError = GraphError::EmptyInput { op: "x" }.into();
        assert!(g.to_string().contains("graph error"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }
}
