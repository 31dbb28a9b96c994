//! Provenance tracing: the causal record behind the timeline sanitizer.
//!
//! A recorded [`crate::Timeline`] tells *when* things happened; it does
//! not tell *why they were allowed to*. A Compute-lane kernel that reads
//! a tensor whose H2D copy was never event-ordered before it produces a
//! perfectly plausible-looking timeline — one whose overlap wins are
//! fiction. Real stacks catch this class of bug with
//! `compute-sanitizer`/TSAN; the simulated platform needs the same
//! evidence trail.
//!
//! [`ExecTrace`] is that trail: an append-only program-order log of
//! every causally relevant action the [`crate::Executor`] and
//! [`crate::Dispatcher`] take — tensor accesses with their lane,
//! residence crossings (immediate and coalesce-staged), coalesced
//! flushes, priced transfers, stream forks/joins and event
//! record/waits. The `dgnn-analysis` crate replays the log with vector
//! clocks to reconstruct the happens-before DAG and check the hazard
//! ruleset against it.
//!
//! Recording is off by default ([`crate::Executor::enable_tracing`]
//! switches it on). Every record, the dispatcher's included, passes the
//! executor's one gate, which checks tracing and stamps the issuing lane
//! and timeline length: one branch per action while off. No existing
//! timeline, pricing, or scope behavior changes either way.

use crate::cache::TensorClass;
use crate::event::{Place, TransferDir};
use crate::stream::StreamId;
use crate::time::DurationNs;

/// Identity of a [`crate::DeviceTensor`]'s simulated buffer.
///
/// Unique per constructed tensor within a process; clones share the id
/// (they alias the same logical buffer). Ids are compared for equality
/// only — their numeric values are allocation-order artifacts.
pub type TensorId = u64;

/// How a traced tensor access touches the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Consumed as a kernel argument (staged via `ensure_resident`).
    Arg,
    /// Defined on the compute device without a transfer (`adopt`).
    Adopt,
    /// Read back to the host (`download`), invalidating the device copy.
    Download,
}

/// One entry of the causal log, in program order.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A tensor access on the issuing lane (`None` = the serial clock).
    /// `place` is the compute device the access targets; `at_event` is
    /// the timeline length when the access was logged (the index the
    /// next priced event will take), tying diagnostics back to the
    /// trace.
    Access {
        /// Buffer identity.
        tensor: TensorId,
        /// Kind of access.
        kind: AccessKind,
        /// Issuing lane (`None` = serial clock).
        lane: Option<StreamId>,
        /// Device the access targets.
        place: Place,
        /// Timeline length at log time.
        at_event: usize,
    },
    /// A residence crossing intent from the dispatcher. `staged` means
    /// the bytes went into the coalescing accumulator instead of being
    /// priced immediately; a later [`TraceRecord::Flush`] must drain
    /// them.
    Crossing {
        /// Buffer identity, when the crossing came from a tracked
        /// tensor (`None` for raw byte transfers).
        tensor: Option<TensorId>,
        /// Copy direction.
        dir: TransferDir,
        /// Bytes crossing.
        bytes: u64,
        /// Issuing lane.
        lane: Option<StreamId>,
        /// Deferred into the coalescing accumulator.
        staged: bool,
        /// Timeline length at log time.
        at_event: usize,
    },
    /// A coalesced flush pricing `bytes` staged bytes as one merged
    /// transaction in `dir`.
    Flush {
        /// Copy direction.
        dir: TransferDir,
        /// Merged byte count.
        bytes: u64,
        /// Issuing lane.
        lane: Option<StreamId>,
        /// Timeline length at log time (the merged transfer's index).
        at_event: usize,
    },
    /// A priced PCIe transfer (the timeline's `Transfer` event twin).
    Priced {
        /// Copy direction.
        dir: TransferDir,
        /// Bytes priced.
        bytes: u64,
        /// Issuing lane.
        lane: Option<StreamId>,
        /// Timeline index of the priced event.
        event: usize,
    },
    /// Rows served from the device-resident feature cache instead of
    /// crossing PCIe. One aggregated record per fetch batch (not per
    /// row) to bound trace size. These bytes are *legitimately
    /// unpriced*: they deliberately appear in no crossing, flush or
    /// priced ledger, and RULE5 byte conservation must not flag them.
    CacheHit {
        /// Class of the cached rows.
        class: TensorClass,
        /// Rows served from the cache in this fetch.
        rows: u64,
        /// Bytes that skipped the H2D crossing.
        bytes: u64,
        /// Issuing lane.
        lane: Option<StreamId>,
        /// Timeline length at log time.
        at_event: usize,
    },
    /// A device buffer explicitly released; later device accesses
    /// without a re-upload are use-after-release hazards.
    Release {
        /// Buffer identity.
        tensor: TensorId,
        /// Issuing lane.
        lane: Option<StreamId>,
        /// Timeline length at log time.
        at_event: usize,
    },
    /// The serial clock forked into the three lanes.
    Fork {
        /// Fork origin on the serial clock.
        at: DurationNs,
    },
    /// The lanes folded back into the serial clock.
    Join {
        /// The joined serial clock.
        at: DurationNs,
        /// Per-lane clocks at join: three entries per forked device
        /// (slot `device * 3 + lane`), in [`StreamId::ALL`] lane order
        /// (`Host`, `Copy`, `Compute`). Single-device forks record
        /// exactly three.
        lane_clocks: Vec<DurationNs>,
    },
    /// `record_event`: `lane`'s clock captured as waitable event
    /// `event` (index within the active fork).
    EventRecord {
        /// Event index within the active fork.
        event: usize,
        /// Recording lane.
        lane: StreamId,
        /// Captured timestamp.
        at: DurationNs,
    },
    /// `wait_event`: `lane` ordered after recorded event `event`.
    EventWait {
        /// Event index within the active fork.
        event: usize,
        /// Waiting lane.
        lane: StreamId,
    },
    /// One event appended to a streaming graph store (delta-log CSR).
    /// The appended region becomes readable once the Host-lane append
    /// work completes at `visible_at`; a later sample over a prefix
    /// containing `event` must be ordered at or after that instant.
    GraphAppend {
        /// Identity of the streaming store (its session-unique id).
        store: u64,
        /// Global index of the ingested event (dense, in-order).
        event: usize,
        /// Bit pattern of the event's `f64` timestamp — the ingest
        /// watermark, which must be monotone across appends.
        time_bits: u64,
        /// Session-clock instant the append work completed (the event
        /// becomes visible to samplers).
        visible_at: DurationNs,
        /// Issuing lane (`None` = serial clock).
        lane: Option<StreamId>,
        /// Timeline length at log time.
        at_event: usize,
    },
    /// A sampling read over the first `visible` events of a streaming
    /// graph store, issued at session-clock instant `at`. Every append
    /// inside the visible prefix must happen-before this read.
    GraphSample {
        /// Identity of the streaming store.
        store: u64,
        /// Events the sampled snapshot exposes (prefix length).
        visible: usize,
        /// Session-clock instant the read began.
        at: DurationNs,
        /// Issuing lane (`None` = serial clock).
        lane: Option<StreamId>,
        /// Timeline length at log time.
        at_event: usize,
    },
    /// The executor's current device changed: subsequent lane-tagged
    /// records and events target `device` until the next switch.
    DeviceSwitch {
        /// The newly current GPU.
        device: usize,
    },
    /// A cross-device fetch intent from the dispatcher: `bytes` owned by
    /// `src` are needed on `dst`. Every such crossing must be priced on
    /// exactly one interconnect edge by a matching
    /// [`TraceRecord::PeerPriced`] (RULE8 conservation).
    PeerCrossing {
        /// Device that owns the bytes.
        src: usize,
        /// Device that needs them.
        dst: usize,
        /// Bytes crossing.
        bytes: u64,
        /// Issuing lane.
        lane: Option<StreamId>,
        /// Timeline length at log time.
        at_event: usize,
    },
    /// A priced cross-device transfer (the timeline's `PeerTransfer`
    /// event twin). `via_host` records the route: a direct peer edge, or
    /// a host-staged bounce over both devices' PCIe links.
    PeerPriced {
        /// Source device.
        src: usize,
        /// Destination device.
        dst: usize,
        /// Bytes priced.
        bytes: u64,
        /// Whether the payload bounced through host memory.
        via_host: bool,
        /// Issuing lane.
        lane: Option<StreamId>,
        /// Timeline index of the priced event.
        event: usize,
    },
}

/// The append-only causal log. Obtain one live from
/// [`crate::Executor::trace`] after [`crate::Executor::enable_tracing`],
/// or build one by hand (via [`ExecTrace::push`]) to feed the sanitizer
/// adversarial schedules.
///
/// ```
/// use dgnn_device::{ExecMode, Executor, PlatformSpec, TraceRecord, TransferDir};
///
/// let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
/// ex.enable_tracing();
/// ex.transfer(TransferDir::H2D, 4096);
/// let trace = ex.trace().expect("tracing is on");
/// // The priced transfer has a causal twin in the log.
/// assert!(trace.records().iter().any(|r| matches!(
///     r,
///     TraceRecord::Priced { dir: TransferDir::H2D, bytes: 4096, .. }
/// )));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecTrace {
    records: Vec<TraceRecord>,
}

impl ExecTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        ExecTrace::default()
    }

    /// Appends a record in program order. Called by the executor and
    /// dispatcher while tracing; public so tests can assemble
    /// adversarial traces the instrumented engine would never emit.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// All records, in program order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_preserves_program_order() {
        let mut t = ExecTrace::new();
        assert!(t.is_empty());
        t.push(TraceRecord::Fork {
            at: DurationNs::ZERO,
        });
        t.push(TraceRecord::EventRecord {
            event: 0,
            lane: StreamId::Copy,
            at: DurationNs::from_nanos(5),
        });
        assert_eq!(t.len(), 2);
        assert!(matches!(t.records()[0], TraceRecord::Fork { .. }));
        assert!(matches!(
            t.records()[1],
            TraceRecord::EventRecord {
                event: 0,
                lane: StreamId::Copy,
                ..
            }
        ));
    }
}
