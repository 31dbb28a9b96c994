//! Tensor operations, grouped by kernel family.
//!
//! Each family maps onto one [`OpKind`](crate::OpKind): GEMM
//! ([`matmul`]), element-wise ([`elementwise`], [`activation`]),
//! reductions/softmax ([`reduce`]) and data-manipulation / gather-scatter
//! ([`manip`]). The functions here only compute values. The dispatcher
//! in `dgnn-device` prices each call by building one
//! [`OpDescriptor`](crate::OpDescriptor) from the operand shapes with the
//! family constructors in [`crate::cost`].

pub mod activation;
pub mod elementwise;
pub mod manip;
pub mod matmul;
pub mod reduce;
