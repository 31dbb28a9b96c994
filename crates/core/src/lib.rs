//! # dgnn-profile
//!
//! The paper's primary contribution, as a reusable toolkit: profiling and
//! bottleneck analysis of dynamic graph neural network inference.
//!
//! Where the authors combined PyTorch Profiler (module-level breakdowns,
//! memory) and NVIDIA Nsight Systems (kernel/transfer timeline, GPU
//! utilization), this crate consumes the equivalent records produced by
//! `dgnn-device` — profiler scopes and the kernel timeline — and derives:
//!
//! * [`Breakdown`] — per-module execution-time breakdowns (Figure 7);
//! * [`UtilizationReport`] — average GPU utilization and time-series
//!   (Figures 6 and 9);
//! * [`WarmupReport`] — warm-up vs computation accounting (Table 2 and
//!   the §4.4 ratios);
//! * [`BottleneckClassifier`] — automatic detection of the paper's four
//!   bottleneck classes from a profile;
//! * [`InferenceProfile`] — one-call capture of all of the above from an
//!   [`dgnn_device::Executor`];
//! * [`LatencyStats`] / [`ServicePhases`] — tail-latency order
//!   statistics and per-request phase decomposition for the serving
//!   subsystem (`dgnn-serve`);
//! * [`pipeline`] — schedule re-simulation for the §5 proposals the
//!   executor cannot run (Fig 10's pipelined EvolveGCN, delta transfer);
//! * [`chrome_trace`] — Chrome-trace/Perfetto export of the timeline
//!   (the `.nsys-rep` stand-in);
//! * [`kernel_summary`] — Nsight-style per-kernel statistics.
//!
//! ## Scope convention
//!
//! Models wrap one inference run in a root scope (conventionally
//! `"inference"`), optionally wrap each iteration in a scope named
//! `"iteration"`, and wrap every module of interest (`"sampling"`,
//! `"attention"`, `"memcpy_h2d"`, …) in its own scope directly inside the
//! root or the iteration scope. [`Breakdown::from_scopes`] aggregates by
//! module name across iterations.

#![forbid(unsafe_code)]

mod bottleneck;
mod breakdown;
mod kernels;
mod latency;
pub mod pipeline;
mod report;
mod tablefmt;
mod trace;
mod utilization;
mod warmup;

pub use bottleneck::{BottleneckClassifier, BottleneckFinding, BottleneckKind};
pub use breakdown::{Breakdown, BreakdownEntry};
pub use kernels::{kernel_summary, render_kernel_summary, KernelStat};
pub use latency::{LatencyStats, ServicePhases};
pub use report::InferenceProfile;
pub use tablefmt::TextTable;
pub use trace::chrome_trace;
pub use utilization::UtilizationReport;
pub use warmup::WarmupReport;
