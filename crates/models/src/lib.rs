//! # dgnn-models
//!
//! The eight dynamic graph neural networks the paper profiles —
//! JODIE, TGN, EvolveGCN (-H and -O), TGAT, ASTGNN, MolDGNN, DyRep and
//! LDG (MLP and bilinear encoders) — implemented over the simulated
//! platform, plus, in [`optim`], the §5 and §3.3 ablations that no
//! [`InferenceConfig`] setting executes.
//!
//! ## Execution model
//!
//! Each model implements [`DgnnModel`]: it registers its parameters
//! (driving warm-up cost), then runs inference inside an `"inference"`
//! profiler scope with module sub-scopes matching the paper's Figure 7
//! categories (`sampling`, `time_encoding`, `attention`, `rnn`, `gnn`,
//! `memcpy_h2d`, `memcpy_d2h`, …).
//!
//! ## Reference configuration
//!
//! Every model is built at one reference configuration: its widths,
//! heads and layer, window and frame counts are private constants in
//! its own file, so a constructor takes only its data and a weight
//! seed. The two variants callers choose are arguments: LDG's
//! [`LdgEncoder`] and EvolveGCN's [`EvolveGcnVersion`].
//!
//! ## Representative computation
//!
//! Kernel and transfer *costs* are always priced at the configured batch
//! size; the *functional* tensor math runs on a capped representative
//! subset ([`REP_CAP`] rows) so that full-scale experiments stay fast on
//! the host while the simulated timing reflects the real workload. Every
//! run returns a deterministic checksum over the representative outputs.

#![forbid(unsafe_code)]

mod astgnn;
mod common;
mod dyrep;
mod error;
mod evolvegcn;
mod jodie;
mod ldg;
mod memory;
mod moldgnn;
pub mod optim;
mod registry;
mod replica;
mod tgat;
mod tgn;

pub use astgnn::Astgnn;
pub use common::{DgnnModel, InferenceConfig, RunSummary, TransferGranularity, REP_CAP};
pub use dyrep::DyRep;
pub use error::ModelError;
pub use evolvegcn::{EvolveGcn, EvolveGcnVersion};
pub use jodie::Jodie;
pub use ldg::{Ldg, LdgEncoder};
pub use memory::IngestMemory;
pub use moldgnn::MolDgnn;
pub use registry::{all_model_infos, EvolvingParts, ModelInfo, ModelKind};
pub use replica::{ModelFactory, ReplicaHandle};
pub use tgat::Tgat;
pub use tgn::Tgn;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ModelError>;
