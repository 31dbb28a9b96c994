//! # dgnn-graph
//!
//! The dynamic-graph substrate: everything the eight DGNNs consume.
//!
//! The paper's taxonomy (its Table 1) splits dynamic graph neural networks
//! into *discrete-time* models that consume a sequence of graph snapshots
//! ([`SnapshotSequence`]) and *continuous-time* models that consume a
//! stream of timestamped interaction events ([`EventStream`]). This crate
//! provides both representations plus the preprocessing machinery whose
//! CPU cost the paper identifies as a first-class bottleneck:
//!
//! * [`TemporalAdjacency`] — a flat CSR index of per-node, time-sorted
//!   neighbor history with bisection lookup, and [`NeighborSampler`]
//!   implementing TGAT-style temporal neighbor sampling (most-recent and
//!   uniform) with batch APIs that equal their per-root samples;
//! * [`StreamingAdjacency`] — the appendable variant for queries racing
//!   live ingestion: an event log over a [`TemporalAdjacency`] of its
//!   compacted prefix, with per-node delta rows and deterministic
//!   threshold compaction through the same CSR builder; its borrowed
//!   [`StreamingView`] snapshot and the frozen CSR both implement
//!   [`TemporalView`], the read interface every sampler method is
//!   written against;
//! * [`TBatcher`] — JODIE's t-batch parallelization algorithm, and
//!   [`WindowBatcher`] — the arrival-time micro-batching rule the
//!   `dgnn-serve` admission queue applies per model;
//! * [`snapshots_from_events`] — sliding-window snapshot extraction for
//!   discrete-time models.
//!
//! Sampling routines return a [`sampler::SampleCost`] describing the
//! comparisons and irregular bytes they touched, so the device layer can
//! price the work the way the paper observed it (irregular memory access
//! on the CPU).

#![forbid(unsafe_code)]

mod delta;
mod error;
mod event;
mod graph;
pub mod partition;
pub mod sampler;
mod snapshot;
mod tbatch;

pub use delta::{AppendReceipt, IngestCost, StreamingAdjacency, StreamingView};
pub use error::GraphError;
pub use event::{EventStream, TemporalEvent};
pub use graph::Graph;
pub use partition::{contiguous_ranges, greedy_edge_cut, Partition};
pub use sampler::{
    NeighborSampler, SampleCost, SampleStrategy, SampledNeighbor, TemporalAdjacency, TemporalView,
};
pub use snapshot::{snapshots_from_events, Snapshot, SnapshotSequence};
pub use tbatch::{MicroBatch, TBatch, TBatcher, WindowBatcher};

/// Node identifier (dense index into the node table).
pub type NodeId = usize;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
