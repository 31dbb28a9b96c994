//! # dgnn-tensor
//!
//! Dense `f32` tensor math substrate for the DGNN bottleneck-analysis
//! reproduction suite.
//!
//! The crate provides a small, deterministic, row-major tensor type
//! ([`Tensor`]) together with the operations the eight profiled dynamic
//! graph neural networks need: matrix multiplication, element-wise
//! arithmetic, activations, reductions, softmax, concatenation, slicing
//! and gathers. Everything executes on the host CPU; *simulated* device
//! timing lives one layer up in `dgnn-device`, which charges a cost model
//! for each operation while this crate supplies the functional result.
//!
//! FLOP/byte estimators and the [`OpDescriptor`] work record (see
//! [`cost`]) are exposed so the device layer can price each kernel: one
//! descriptor per op, built from the operand shapes, is what the
//! simulated timeline records.
//!
//! ```
//! use dgnn_tensor::Tensor;
//!
//! # fn main() -> Result<(), dgnn_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c, a);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod error;
mod init;
mod shape;
mod tensor;

pub mod cost;
pub mod ops;
pub mod par;

pub use cost::{OpDescriptor, OpKind};
pub use error::TensorError;
pub use init::{Initializer, TensorRng};
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
