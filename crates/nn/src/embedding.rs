//! Embedding tables with gather-kernel accounting.

use dgnn_device::{DeviceTensor, Dispatcher};
use dgnn_tensor::{Initializer, Tensor, TensorRng};

use crate::module::{Module, Param};
use crate::Result;

/// A dense embedding table `[rows, dim]` looked up by row index.
///
/// Lookups dispatch a gather kernel (irregular access), matching how the
/// profiled frameworks fetch node/edge embeddings. The table itself is a
/// weight: it lives on the compute device and never crosses PCIe.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    table: Param,
    rows: usize,
    dim: usize,
}

impl EmbeddingTable {
    /// Creates a normally initialized table.
    pub fn new(rows: usize, dim: usize, rng: &mut TensorRng) -> Self {
        EmbeddingTable {
            table: Param::new("table", rng.init(&[rows, dim], Initializer::Normal(1.0))),
            rows,
            dim,
        }
    }

    /// The raw table.
    pub fn table(&self) -> &Tensor {
        &self.table.value
    }

    /// Gathers the rows at `indices`, dispatching a gather kernel.
    ///
    /// # Errors
    ///
    /// Returns an index error when any index exceeds the table rows.
    pub fn lookup(&self, dx: &mut Dispatcher, indices: &[usize]) -> Result<DeviceTensor> {
        self.lookup_scaled(dx, indices, 1.0)
    }

    /// [`EmbeddingTable::lookup`] with a representative-batch `scale`:
    /// the gather is priced (and the result tagged) as if `scale`× the
    /// physical index count had been fetched.
    ///
    /// # Errors
    ///
    /// Returns an index error when any index exceeds the table rows.
    pub fn lookup_scaled(
        &self,
        dx: &mut Dispatcher,
        indices: &[usize],
        scale: f64,
    ) -> Result<DeviceTensor> {
        dx.gather_rows("embedding_lookup", &self.table.value, indices, scale)
    }

    /// Writes updated rows into the table in place (scatter), dispatching
    /// a gather-family kernel over the written rows only. Every index is
    /// checked before the first write, so on error the table is unchanged.
    ///
    /// # Errors
    ///
    /// Returns shape/index errors from the scatter.
    pub fn update(
        &mut self,
        dx: &mut Dispatcher,
        indices: &[usize],
        rows: &DeviceTensor,
    ) -> Result<()> {
        dx.scatter_rows("embedding_update", &mut self.table.value, indices, rows)
    }
}

impl Module for EmbeddingTable {
    fn parameters(&self) -> Vec<&Param> {
        vec![&self.table]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_device::{EventCategory, ExecMode, Executor, OpKind, PlatformSpec};

    fn ex() -> Executor {
        Executor::new(PlatformSpec::default(), ExecMode::CpuOnly)
    }

    #[test]
    fn lookup_returns_requested_rows() {
        let mut rng = TensorRng::seed(1);
        let table = EmbeddingTable::new(10, 4, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let out = table.lookup(&mut dx, &[3, 3, 7]).unwrap();
        assert_eq!(out.data().dims(), &[3, 4]);
        assert_eq!(out.data().row(0).unwrap(), out.data().row(1).unwrap());
        assert_eq!(out.data().row(2).unwrap(), table.table().row(7).unwrap());
    }

    #[test]
    fn update_round_trips() {
        let mut rng = TensorRng::seed(2);
        let mut table = EmbeddingTable::new(6, 3, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        let new_rows = dx.adopt(Tensor::full(&[2, 3], 9.0), 1.0);
        table.update(&mut dx, &[1, 4], &new_rows).unwrap();
        let got = table.lookup(&mut dx, &[1, 4]).unwrap();
        got.data().assert_close(new_rows.data(), 0.0);
    }

    #[test]
    fn lookup_dispatches_gather_kernel() {
        let mut rng = TensorRng::seed(3);
        let table = EmbeddingTable::new(5, 2, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        table.lookup(&mut dx, &[0]).unwrap();
        let events = dx.executor().timeline().events();
        assert!(events
            .iter()
            .any(|e| e.category == EventCategory::Kernel(OpKind::Gather)));
    }

    #[test]
    fn out_of_range_index_errors() {
        let mut rng = TensorRng::seed(4);
        let table = EmbeddingTable::new(5, 2, &mut rng);
        let mut ex = ex();
        let mut dx = Dispatcher::new(&mut ex);
        assert!(table.lookup(&mut dx, &[5]).is_err());
    }
}
