//! # dgnn-serve
//!
//! Deterministic simulated inference serving for the DGNN suite.
//!
//! The paper profiles single inference runs and finds (§4.4) that GPU
//! context and model initialization can cost as much as ~86 inference
//! iterations — a cost that any real deployment must *amortize* across
//! requests. This crate builds that missing serving layer on the
//! simulated platform, end to end and bit-deterministic:
//!
//! * [`workload::generate`] — a seeded Poisson request stream over a
//!   weighted model mix (integer-nanosecond arrivals);
//! * [`dgnn_graph::WindowBatcher`]-driven dynamic micro-batching — a
//!   batch closes when its window expires or it reaches capacity;
//! * [`WarmPool`] — pre-initialized replica sessions; warm hits pay
//!   only per-run allocation, cold starts pay a model swap;
//! * [`serve`] — one warm pool behind the serving event loop, with
//!   backpressure shedding at a queue bound;
//! * [`serve_streaming`] — the same pool with queries racing live graph
//!   ingestion: appends into a [`dgnn_graph::StreamingAdjacency`] delta
//!   log, TGN/JODIE node-memory updates at ingest time, and per-request
//!   **staleness** measurement against the visible snapshot;
//! * [`ServeReport`] — p50/p95/p99 decomposition of request latency
//!   into assembly, queue wait, service (and staleness) phases.
//!
//! On top of the single pool sits the **fleet layer**:
//!
//! * [`WorkloadShape`] — traffic shapes beyond homogeneous Poisson:
//!   diurnal sinusoid, flash-crowd burst, heavy-tailed per-user
//!   sessions with per-session model affinity;
//! * [`Router`] — placement across N pools under [`RouterPolicy`]
//!   (affinity-first, power-of-two-choices, join-shortest-queue), all
//!   deterministically tie-broken;
//! * [`Autoscaler`] — queue-depth-driven scale-out/in where every
//!   spawned pool pays the full provisioning warm-up (the §4.4 cost as
//!   a *scaling* penalty) and every drained pool stops accruing
//!   replica-seconds;
//! * [`serve_fleet`] — N pools behind the serving event loop, reported
//!   by [`FleetReport`] with SLO attainment, shed rate, replica-seconds
//!   and scale-event counts.
//!
//! All three entry points run one discrete-event loop: [`serve`] and
//! [`serve_streaming`] are its one-pool, static, Poisson case, so a
//! single-pool run is exactly a [`serve_fleet`] run with one pool and
//! no autoscaler, record for record.
//!
//! Everything runs on the virtual clock: no wall-clock time, no thread
//! scheduling, no hash-map iteration order anywhere in a decision path.
//! The same seed and configuration replay the same nanosecond schedule
//! and the same output bits on any machine.
//!
//! ```
//! use dgnn_datasets::{wikipedia, Scale};
//! use dgnn_device::{DurationNs, ExecMode, PlatformSpec};
//! use dgnn_models::{InferenceConfig, Jodie, JodieConfig, ReplicaHandle};
//! use dgnn_serve::{serve, ServeConfig, ServedModel};
//!
//! let data = wikipedia(Scale::Tiny, 11);
//! let zoo = vec![ServedModel {
//!     handle: ReplicaHandle::new("jodie", move || {
//!         Box::new(Jodie::new(data.clone(), JodieConfig::default(), 11))
//!     }),
//!     cfg: InferenceConfig::default().with_max_units(1),
//!     weight: 1.0,
//! }];
//! let cfg = ServeConfig {
//!     seed: 7,
//!     n_requests: 8,
//!     arrival_rate_rps: 50.0,
//!     batch_window: DurationNs::from_millis(2),
//!     max_batch: 4,
//!     pool_size: 1,
//!     queue_bound: 64,
//!     mode: ExecMode::Gpu,
//!     trace: false,
//!     spec: PlatformSpec::default(),
//! };
//! let outcome = serve(&cfg, &zoo);
//! assert_eq!(outcome.report.served + outcome.report.shed, 8);
//! assert!(outcome.report.latency.p99 >= outcome.report.latency.p50);
//! ```

#![forbid(unsafe_code)]

mod autoscaler;
mod fleet;
mod pool;
mod report;
mod router;
mod streaming;
pub mod workload;

use dgnn_device::{DurationNs, ExecMode, PlatformSpec};
use dgnn_models::{InferenceConfig, ReplicaHandle};

pub use autoscaler::{Autoscaler, AutoscalerConfig, ScaleEvent, ScaleKind};
pub use fleet::{serve, serve_fleet, FleetBatch, FleetConfig, FleetOutcome, ServeOutcome};
pub use pool::{Replica, ServiceRecord, WarmPool};
pub use report::{FleetReport, ServeReport, ServedBatch, ServedRequest};
pub use router::{PoolLoad, Router, RouterPolicy};
pub use streaming::{generate_ingest, serve_streaming, StreamingConfig, StreamingOutcome};
pub use workload::{generate_shaped, validate_rate, RateError, Request, WorkloadShape, MIN_RATE};

/// Queue-bound value that disables backpressure shedding entirely.
/// Reports render a run at this bound as "shedding disabled" rather
/// than "0 shed", because a zero count is structural, not observed.
pub const UNBOUNDED: usize = usize::MAX;

/// One entry in the served model mix: how to build the model, how to
/// run one request unit of it, and its share of the request stream.
pub struct ServedModel {
    /// Recipe for building fresh model instances (numerics depend only
    /// on this, never on which replica served the request).
    pub handle: ReplicaHandle,
    /// Per-unit inference configuration; a batch of `k` requests runs
    /// with `max_units` scaled by `k`.
    pub cfg: InferenceConfig,
    /// Relative share of the request mix (need not be normalized).
    pub weight: f64,
}

impl std::fmt::Debug for ServedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedModel")
            .field("handle", &self.handle)
            .field("weight", &self.weight)
            .finish_non_exhaustive()
    }
}

/// Full configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Seed for arrivals and mix assignment.
    pub seed: u64,
    /// Number of requests to generate.
    pub n_requests: usize,
    /// Expected arrivals per simulated second.
    pub arrival_rate_rps: f64,
    /// Micro-batch window: a batch closes this long after its first
    /// member arrives (zero → every request is its own batch).
    pub batch_window: DurationNs,
    /// Maximum requests per batch (capacity close).
    pub max_batch: usize,
    /// Number of warm replica slots.
    pub pool_size: usize,
    /// Admitted-but-unstarted requests beyond which arrivals are shed
    /// ([`UNBOUNDED`] disables shedding).
    pub queue_bound: usize,
    /// Execution mode for every replica session.
    pub mode: ExecMode,
    /// Record timelines + provenance traces for sanitizer audits.
    pub trace: bool,
    /// Simulated platform replicas run on.
    pub spec: PlatformSpec,
}

impl Default for ServeConfig {
    /// A small, always-valid smoke configuration.
    fn default() -> Self {
        ServeConfig {
            seed: 42,
            n_requests: 64,
            arrival_rate_rps: 100.0,
            batch_window: DurationNs::from_millis(5),
            max_batch: 4,
            pool_size: 2,
            queue_bound: 256,
            mode: ExecMode::Gpu,
            trace: false,
            spec: PlatformSpec::default(),
        }
    }
}

impl ServeConfig {
    /// Validates the arrival rate before the generator turns it into a
    /// schedule. A NaN, infinite, non-positive or sub-[`MIN_RATE`] rate
    /// would previously saturate the `gap_s * 1e9 → u64` conversion and
    /// produce a silently nonsensical arrival schedule; now it is a
    /// typed error here and a panic in [`workload::generate`].
    ///
    /// # Errors
    ///
    /// Returns a [`RateError`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), RateError> {
        workload::validate_rate("arrival rate", self.arrival_rate_rps)
    }
}
