//! # dgnn-device
//!
//! A deterministic, simulated CPU/GPU heterogeneous platform.
//!
//! The IISWC'22 paper this suite reproduces profiles DGNN inference on an
//! Intel Xeon 6226R and an NVIDIA A6000. This crate replaces that silicon
//! with an *analytical performance model* driven by a virtual nanosecond
//! clock:
//!
//! * every kernel is one [`OpDescriptor`] (the tensor op's own work
//!   record, re-exported from `dgnn-tensor`) and costs
//!   `launch_overhead + max(flops / effective_throughput,
//!   bytes / bandwidth)`, where effective throughput scales with the
//!   kernel's data parallelism (occupancy) — tiny DGNN kernels are
//!   launch-bound exactly as the paper observes;
//! * host-side work (temporal neighbor sampling, snapshot preparation,
//!   t-batching) runs on the simulated CPU, optionally with an
//!   irregular-access bandwidth penalty;
//! * CPU↔GPU traffic pays PCIe latency + bandwidth;
//! * GPU warm-up is modeled as lazy context creation plus model
//!   initialization (weight upload + per-tensor allocation) plus per-run
//!   activation allocation — the three components of Section 4.4.
//!
//! Everything an execution does is recorded on a [`timeline::Timeline`]
//! (the simulated Nsight trace) and in scope records (the simulated PyTorch
//! Profiler trace); the `dgnn-profile` crate turns those into the paper's
//! tables and figures.
//!
//! ```
//! use dgnn_device::{Executor, ExecMode, OpDescriptor, PlatformSpec};
//!
//! let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
//! ex.scope("attention", |ex| {
//!     ex.launch(OpDescriptor::gemm("qk", 64, 32, 64));
//! });
//! assert!(ex.now().as_nanos() > 0);
//! ```

#![forbid(unsafe_code)]

mod cache;
pub mod dispatch;
mod event;
mod executor;
mod kernel;
mod memory;
mod spec;
mod stream;
mod time;
pub mod timeline;
pub mod trace;
mod warmup;

pub use cache::{accumulate_class_stats, CacheStats, ClassCacheStats, FeatureCache, TensorClass};
pub use dgnn_tensor::{OpDescriptor, OpKind};
pub use dispatch::{CacheFetch, DeviceTensor, Dispatcher, Operand};
pub use event::{EventCategory, Place, TimelineEvent, TransferDir};
pub use executor::{ExecMode, Executor, ScopeRecord, Tape};
pub use kernel::HostWork;
pub use memory::MemoryTracker;
pub use spec::{
    CpuSpec, DeviceId, GpuSpec, LinkSpec, PcieSpec, PeerPath, PlatformSpec, TransferMode,
};
pub use stream::{EventId, StreamId};
pub use time::DurationNs;
pub use timeline::Timeline;
pub use trace::{AccessKind, ExecTrace, TensorId, TraceRecord};
pub use warmup::WarmupModel;
