//! # dgnn-models
//!
//! The eight dynamic graph neural networks the paper profiles —
//! JODIE, TGN, EvolveGCN (-H and -O), TGAT, ASTGNN, MolDGNN, DyRep and
//! LDG (MLP and bilinear encoders) — implemented over the simulated
//! platform, plus the §5 optimization proposals as measurable ablations.
//!
//! ## Execution model
//!
//! Each model implements [`DgnnModel`]: it registers its parameters
//! (driving warm-up cost), then runs inference inside an `"inference"`
//! profiler scope with module sub-scopes matching the paper's Figure 7
//! categories (`sampling`, `time_encoding`, `attention`, `rnn`, `gnn`,
//! `memcpy_h2d`, `memcpy_d2h`, …).
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

pub use astgnn::{Astgnn, AstgnnConfig};
pub use common::{
    lane_handoff, on_lane, shard_barrier, DgnnModel, DoubleBuffer, InferenceConfig, RunSummary,
    TransferGranularity, REP_CAP,
};
pub use dyrep::{DyRep, DyRepConfig};
pub use error::ModelError;
pub use evolvegcn::{EvolveGcn, EvolveGcnConfig, EvolveGcnVersion};
pub use jodie::{Jodie, JodieConfig};
pub use ldg::{Ldg, LdgConfig, LdgEncoder};
pub use memory::{IngestMemory, MemoryRule};
pub use moldgnn::{MolDgnn, MolDgnnConfig};
pub use registry::{all_model_infos, EvolvingParts, ModelInfo, ModelKind};
pub use replica::{ModelFactory, ReplicaHandle};
pub use tgat::{Tgat, TgatConfig};
pub use tgn::{Tgn, TgnConfig};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ModelError>;
