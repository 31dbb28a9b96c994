//! The execution engine: a shared virtual clock, with optional stream
//! forks for pipelined schedules.
//!
//! The profiled frameworks execute DGNN inference as a strict sequence —
//! sample on the CPU, copy over PCIe, launch kernels, copy back — and that
//! serialization is the root of the paper's temporal-dependency and
//! workload-imbalance bottlenecks. By default [`Executor`] models exactly
//! that: every priced action advances a single clock, and timelines are a
//! serial tape.
//!
//! To quantify the paper's proposed mitigations (§5: pipelining, transfer
//! batching) the executor can *fork* into three CUDA-style lanes
//! ([`StreamId::Host`], [`StreamId::Copy`], [`StreamId::Compute`]) with
//! independent clocks, ordered across lanes only by recorded events
//! ([`Executor::record_event`] / [`Executor::wait_event`]). While no fork
//! is active the engine is bit-identical to the historical sequential
//! implementation — every existing timeline invariant holds unchanged.

use std::sync::Arc;

use dgnn_tensor::{OpDescriptor, OpKind};

use crate::cache::{
    accumulate_class_stats, CacheStats, ClassCacheStats, FeatureCache, TensorClass,
};
use crate::event::{EventCategory, Place, TimelineEvent, TransferDir};
use crate::kernel::HostWork;
use crate::memory::MemoryTracker;
use crate::spec::{DeviceId, PeerPath, PlatformSpec, TransferMode};
use crate::stream::{EventId, StreamId, StreamSet};
use crate::time::DurationNs;
use crate::timeline::Timeline;
use crate::trace::{AccessKind, ExecTrace, TensorId, TraceRecord};
use crate::warmup::WarmupModel;

/// Whether inference runs entirely on the CPU or offloads kernels to the
/// simulated GPU (the paper's two measurement configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// All kernels on the CPU; no transfers, no GPU warm-up.
    CpuOnly,
    /// Kernels on the GPU; host work on the CPU; PCIe between them.
    Gpu,
}

/// A closed profiler scope: the simulated PyTorch Profiler record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeRecord {
    /// Slash-joined scope path, e.g. `"inference/sampling"`.
    pub path: String,
    /// Nesting depth (0 = top level).
    pub depth: usize,
    /// Scope entry time.
    pub start: DurationNs,
    /// Scope exit time.
    pub end: DurationNs,
}

/// Open-scope handle returned by [`Executor::enter_scope`]; must be passed
/// back to [`Executor::exit_scope`] to close the span.
#[derive(Debug)]
pub(crate) struct ScopeToken {
    depth: usize,
    start: DurationNs,
}

impl ScopeRecord {
    /// Scope duration.
    pub fn duration(&self) -> DurationNs {
        self.end - self.start
    }

    /// Final path component (the scope's own name).
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// The simulated runtime: prices kernels, host work, transfers and warm-up
/// against the [`PlatformSpec`], advancing a virtual clock and recording a
/// timeline plus profiler scopes.
///
/// ```
/// use dgnn_device::{ExecMode, Executor, HostWork, OpDescriptor, PlatformSpec, TransferDir};
///
/// let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
/// ex.scope("inference", |ex| {
///     ex.host(HostWork::irregular("sampling", 10_000, 1 << 16));
///     ex.transfer(TransferDir::H2D, 1 << 16);
///     ex.launch(OpDescriptor::gemm("attn", 128, 64, 128)); // pays context init first
/// });
/// // Everything was priced on one serial clock and recorded in order.
/// assert_eq!(ex.timeline().len(), 4);
/// assert_eq!(ex.now(), ex.timeline().span_end());
/// assert_eq!(ex.scopes().len(), 1);
/// ```
#[derive(Debug)]
pub struct Executor {
    spec: PlatformSpec,
    mode: ExecMode,
    clock: DurationNs,
    timeline: Timeline,
    scopes: Vec<ScopeRecord>,
    /// Slash-joined path of the innermost open scope (empty outside
    /// every scope). Events share it rather than each joining the stack.
    scope_path: Arc<str>,
    /// The path each open scope restores when it exits, outermost
    /// first (the empty path at the bottom).
    scope_stack: Vec<Arc<str>>,
    cpu_mem: MemoryTracker,
    gpu_mem: MemoryTracker,
    context_ready: bool,
    /// Per-lane clocks while a stream fork is active; `None` otherwise.
    streams: Option<StreamSet>,
    /// Lane that priced actions are currently issued on (inside
    /// [`Executor::on_stream`]); `None` targets the serial clock.
    current_stream: Option<StreamId>,
    /// Causal provenance log for the timeline sanitizer; `None` (the
    /// default) records nothing and costs one branch per action.
    trace: Option<ExecTrace>,
    /// Host-memory regime PCIe transfers are priced under. `Pinned`
    /// (the default) is bit-identical to the historical pricing.
    transfer_mode: TransferMode,
    /// Row capacity of the feature cache; `None` (the default) means
    /// every fetch prices its H2D crossing, exactly as before.
    cache_capacity: Option<usize>,
    /// Per-device feature caches (shard-local by construction: each
    /// device caches only the rows fetched while it was current). Grown
    /// lazily as devices are probed; empty while caching is disabled.
    feature_caches: Vec<FeatureCache>,
    /// GPU that priced actions currently target (0 outside
    /// [`Executor::on_device`], i.e. the historical single-GPU path).
    current_device: DeviceId,
}

impl Executor {
    /// Creates an executor at time zero.
    pub fn new(spec: PlatformSpec, mode: ExecMode) -> Self {
        Executor {
            spec,
            mode,
            clock: DurationNs::ZERO,
            timeline: Timeline::new(),
            scopes: Vec::new(),
            scope_path: Arc::from(""),
            scope_stack: Vec::new(),
            cpu_mem: MemoryTracker::new(),
            gpu_mem: MemoryTracker::new(),
            // CPU-only runs never pay GPU warm-up.
            context_ready: mode == ExecMode::CpuOnly,
            streams: None,
            current_stream: None,
            trace: None,
            transfer_mode: TransferMode::default(),
            cache_capacity: None,
            feature_caches: Vec::new(),
            current_device: 0,
        }
    }

    /// Selects the host-memory regime PCIe transfers are priced under
    /// (see [`TransferMode`]). `Pinned` — the default — reproduces the
    /// historical pricing bit-for-bit; `Pageable` adds the staging-
    /// buffer copy, degraded DMA bandwidth and per-transfer host
    /// metadata overhead of unpinned host buffers.
    pub fn set_transfer_mode(&mut self, mode: TransferMode) {
        self.transfer_mode = mode;
    }

    /// The host-memory regime transfers are currently priced under.
    pub fn transfer_mode(&self) -> TransferMode {
        self.transfer_mode
    }

    /// Switches on the device-resident feature cache with room for
    /// `capacity_rows` rows *per device* (see [`FeatureCache`]; each GPU
    /// owns a shard-local cache — rows fetched while a device is current
    /// are resident on that device only). Idempotent: calling it again
    /// with the same capacity preserves the warm caches — a serving
    /// replica that enables it per request keeps its hot rows across
    /// requests. A different capacity rebuilds every cache empty.
    pub fn enable_feature_cache(&mut self, capacity_rows: usize) {
        if self.cache_capacity != Some(capacity_rows) {
            self.cache_capacity = Some(capacity_rows);
            self.feature_caches = vec![FeatureCache::new(capacity_rows)];
        }
    }

    /// Device 0's feature cache (`None` while disabled).
    pub fn feature_cache(&self) -> Option<&FeatureCache> {
        self.cache_capacity.and(self.feature_caches.first())
    }

    /// The feature cache of a specific device (`None` while disabled or
    /// before the device's first probe).
    pub fn device_feature_cache(&self, device: DeviceId) -> Option<&FeatureCache> {
        self.cache_capacity.and(self.feature_caches.get(device))
    }

    /// Hit/miss/eviction counters summed over every device's feature
    /// cache (all zero while disabled).
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for c in &self.feature_caches {
            total.accumulate(&c.stats());
        }
        total
    }

    /// Per-[`TensorClass`] cache counters summed over every device's
    /// feature cache (all zero while disabled).
    pub fn cache_class_stats(&self) -> ClassCacheStats {
        let mut total = ClassCacheStats::default();
        for c in &self.feature_caches {
            accumulate_class_stats(&mut total, c.class_stats());
        }
        total
    }

    /// Probes the current device's feature cache for `(class, key)`,
    /// inserting the row on a miss and balancing GPU memory (insert
    /// allocates `row_bytes`, an eviction frees the victim's bytes).
    /// Returns whether the probe hit — `false` (a priced fetch)
    /// whenever the cache is disabled. Dispatcher hook; pricing of miss
    /// traffic is the caller's job.
    pub(crate) fn cache_probe_insert(
        &mut self,
        class: TensorClass,
        key: u64,
        row_bytes: u64,
    ) -> bool {
        let Some(capacity) = self.cache_capacity else {
            return false;
        };
        while self.feature_caches.len() <= self.current_device {
            self.feature_caches.push(FeatureCache::new(capacity));
        }
        let (hit, evicted_bytes) =
            self.feature_caches[self.current_device].probe_insert(class, key, row_bytes);
        if !hit {
            self.gpu_mem.alloc(row_bytes);
            self.gpu_mem.free(evicted_bytes);
        }
        hit
    }

    /// Switches on provenance tracing: from here on, every tensor
    /// access, residence crossing, transfer, fork/join and event
    /// record/wait is appended to the causal log the timeline sanitizer
    /// consumes. Pricing, timelines and scopes are unaffected.
    /// Idempotent; an already-collected trace is preserved.
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(ExecTrace::new());
        }
    }

    /// The causal provenance log collected so far (`None` while tracing
    /// is off).
    pub fn trace(&self) -> Option<&ExecTrace> {
        self.trace.as_ref()
    }

    /// Logs a tensor access on the current lane (dispatcher hook).
    pub(crate) fn trace_access(&mut self, tensor: TensorId, kind: AccessKind, place: Place) {
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceRecord::Access {
                tensor,
                kind,
                lane: self.current_stream,
                place,
                at_event: self.timeline.len(),
            });
        }
    }

    /// Logs a residence-crossing intent (dispatcher hook).
    pub(crate) fn trace_crossing(
        &mut self,
        tensor: Option<TensorId>,
        dir: TransferDir,
        bytes: u64,
        staged: bool,
    ) {
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceRecord::Crossing {
                tensor,
                dir,
                bytes,
                lane: self.current_stream,
                staged,
                at_event: self.timeline.len(),
            });
        }
    }

    /// Logs a coalesced-flush pricing (dispatcher hook).
    pub(crate) fn trace_flush(&mut self, dir: TransferDir, bytes: u64) {
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceRecord::Flush {
                dir,
                bytes,
                lane: self.current_stream,
                at_event: self.timeline.len(),
            });
        }
    }

    /// Logs one aggregated feature-cache fetch result: `rows` rows
    /// (`bytes` bytes) of `class` served device-resident, skipping
    /// their H2D crossing (dispatcher hook).
    pub(crate) fn trace_cache_hit(&mut self, class: TensorClass, rows: u64, bytes: u64) {
        let at_event = self.timeline.len();
        let lane = self.current_stream;
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceRecord::CacheHit {
                class,
                rows,
                bytes,
                lane,
                at_event,
            });
        }
    }

    /// Logs a cross-device fetch intent: `bytes` owned by `src` needed
    /// on the current device (dispatcher hook). RULE8 pairs these
    /// crossings with [`TraceRecord::PeerPriced`] pricing twins.
    pub(crate) fn trace_peer_crossing(&mut self, src: DeviceId, bytes: u64) {
        let dst = self.current_device;
        let at_event = self.timeline.len();
        let lane = self.current_stream;
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceRecord::PeerCrossing {
                src,
                dst,
                bytes,
                lane,
                at_event,
            });
        }
    }

    /// Logs an explicit device-buffer release (dispatcher hook).
    pub(crate) fn trace_release(&mut self, tensor: TensorId) {
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceRecord::Release {
                tensor,
                lane: self.current_stream,
                at_event: self.timeline.len(),
            });
        }
    }

    /// Logs one streaming-graph append: ingest event `event` of store
    /// `store` (timestamp bits `time_bits`) became readable at
    /// `visible_at` on this session's clock. Called by the serving
    /// layer after pricing the append's Host-lane work; a no-op while
    /// tracing is off. `dgnn-analysis` RULE7 checks that watermarks and
    /// visibility are monotone and that samples over a prefix are
    /// ordered after every append inside it.
    pub fn trace_graph_append(
        &mut self,
        store: u64,
        event: usize,
        time_bits: u64,
        visible_at: DurationNs,
    ) {
        let at_event = self.timeline.len();
        let lane = self.current_stream;
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceRecord::GraphAppend {
                store,
                event,
                time_bits,
                visible_at,
                lane,
                at_event,
            });
        }
    }

    /// Logs one streaming-graph sampling read: a snapshot exposing the
    /// first `visible` events of store `store`, read starting at `at`
    /// on this session's clock. Called by the serving layer when it
    /// prices query sampling; a no-op while tracing is off.
    pub fn trace_graph_sample(&mut self, store: u64, visible: usize, at: DurationNs) {
        let at_event = self.timeline.len();
        let lane = self.current_stream;
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceRecord::GraphSample {
                store,
                visible,
                at,
                lane,
                at_event,
            });
        }
    }

    /// Current simulated time on the serial clock. Inside a stream fork
    /// this is the fork origin; lanes are queried with
    /// [`Executor::stream_now`] and folded back by
    /// [`Executor::join_streams`].
    pub fn now(&self) -> DurationNs {
        self.clock
    }

    /// The clock the next priced action would start at: the active lane's
    /// clock (on the current device) inside [`Executor::on_stream`], the
    /// serial clock otherwise.
    fn cursor(&self) -> DurationNs {
        match (self.current_stream, &self.streams) {
            (Some(lane), Some(s)) => s.clock(self.current_device, lane),
            _ => self.clock,
        }
    }

    /// Current virtual time of a lane on the current device (the serial
    /// clock when no fork is active).
    pub fn stream_now(&self, lane: StreamId) -> DurationNs {
        match &self.streams {
            Some(s) => s.clock(self.current_device, lane),
            None => self.clock,
        }
    }

    /// Forks the timeline into the three execution lanes, each starting at
    /// the current serial clock. Until [`Executor::join_streams`], work
    /// issued inside [`Executor::on_stream`] advances only its lane.
    ///
    /// Cross-lane ordering is expressed with [`Executor::record_event`] /
    /// [`Executor::wait_event`]; the join advances the serial clock to
    /// the forked region's makespan:
    ///
    /// ```
    /// use dgnn_device::{ExecMode, Executor, HostWork, OpDescriptor, PlatformSpec, StreamId};
    ///
    /// let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    /// ex.ensure_context(); // pay warm-up outside the forked region
    /// ex.fork_streams();
    /// let sampled = ex.on_stream(StreamId::Host, |ex| {
    ///     ex.host(HostWork::irregular("sample", 50_000, 1 << 18));
    ///     ex.record_event(StreamId::Host)
    /// });
    /// // The kernel must not start before sampling finished…
    /// ex.wait_event(StreamId::Compute, sampled);
    /// let host_done = ex.stream_now(StreamId::Host);
    /// ex.on_stream(StreamId::Compute, |ex| {
    ///     ex.launch(OpDescriptor::gemm("attn", 128, 64, 128));
    /// });
    /// let end = ex.join_streams();
    /// // …so the makespan covers sampling plus the kernel.
    /// assert!(end > host_done);
    /// assert_eq!(ex.now(), end);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when a fork is already active (forks do not nest).
    pub fn fork_streams(&mut self) {
        self.fork_streams_multi(1);
    }

    /// Forks the timeline into `devices × 3` lanes: each of the first
    /// `devices` GPUs gets its own Host/Copy/Compute lane triple, all
    /// starting at the current serial clock. `fork_streams` is the
    /// single-device case — a one-device fork is bit-identical to the
    /// historical engine. Lane work targets the current device (see
    /// [`Executor::on_device`]); events recorded on any device's lane
    /// can be waited on from any other, which is how sharded drivers
    /// express cross-device barriers.
    ///
    /// # Panics
    ///
    /// Panics when a fork is already active, when `devices` is zero, or
    /// when `devices` exceeds the platform's GPU count.
    pub fn fork_streams_multi(&mut self, devices: usize) {
        assert!(self.streams.is_none(), "stream fork already active");
        assert!(
            devices <= self.n_devices(),
            "fork spans {devices} devices but the platform has {}",
            self.n_devices()
        );
        self.streams = Some(StreamSet::forked_at_devices(self.clock, devices));
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceRecord::Fork { at: self.clock });
        }
    }

    /// Ends the stream fork: the serial clock advances to the latest lane
    /// clock (the makespan of the forked region) and returns it.
    ///
    /// # Panics
    ///
    /// Panics when no fork is active or a lane closure is still running.
    pub fn join_streams(&mut self) -> DurationNs {
        assert!(
            self.current_stream.is_none(),
            "cannot join streams inside on_stream"
        );
        let s = self
            .streams
            .take()
            .expect("join_streams without fork_streams");
        let end = s.max_clock().max(self.clock);
        self.clock = end;
        if let Some(t) = self.trace.as_mut() {
            let mut lane_clocks = Vec::with_capacity(s.devices() * 3);
            for device in 0..s.devices() {
                for lane in StreamId::ALL {
                    lane_clocks.push(s.clock(device, lane));
                }
            }
            t.push(TraceRecord::Join {
                at: end,
                lane_clocks,
            });
        }
        end
    }

    /// Runs `f` with every priced action placed on `lane`. Nesting is
    /// allowed; the innermost lane wins.
    ///
    /// # Panics
    ///
    /// Panics when no stream fork is active.
    pub fn on_stream<R>(&mut self, lane: StreamId, f: impl FnOnce(&mut Self) -> R) -> R {
        assert!(self.streams.is_some(), "on_stream requires fork_streams");
        let prev = self.current_stream.replace(lane);
        let result = f(self);
        self.current_stream = prev;
        result
    }

    /// Swaps the lane priced actions are issued on, returning the previous
    /// one. Used by wrappers (the dispatcher) that cannot express the lane
    /// as a closure over `&mut Executor`.
    pub(crate) fn swap_current_stream(&mut self, lane: Option<StreamId>) -> Option<StreamId> {
        assert!(
            lane.is_none() || self.streams.is_some(),
            "placing work on a lane requires fork_streams"
        );
        std::mem::replace(&mut self.current_stream, lane)
    }

    /// Number of GPUs in the platform's device graph (1 in CPU-only
    /// mode: there is no accelerator to shard over).
    pub fn n_devices(&self) -> usize {
        match self.mode {
            ExecMode::CpuOnly => 1,
            ExecMode::Gpu => self.spec.n_gpus(),
        }
    }

    /// The GPU priced actions currently target (0 outside
    /// [`Executor::on_device`]).
    pub fn current_device(&self) -> DeviceId {
        self.current_device
    }

    /// Runs `f` with every priced action attributed to GPU `device`:
    /// timeline events carry the device tag, lane-placed work advances
    /// that device's lane clocks, and feature-cache probes hit its
    /// shard-local cache. Kernels price against [`PlatformSpec::gpu`]
    /// on every device.
    /// Nesting is allowed; the innermost device wins. Device 0 with no
    /// fork is exactly the historical engine.
    ///
    /// # Panics
    ///
    /// Panics when `device` is outside the platform's device graph, or
    /// when a fork is active that does not span `device`.
    pub fn on_device<R>(&mut self, device: DeviceId, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.swap_current_device(device);
        let result = f(self);
        self.swap_current_device(prev);
        result
    }

    /// Swaps the device priced actions target, returning the previous
    /// one. Used by wrappers (the dispatcher) that cannot express the
    /// switch as a closure over `&mut Executor`.
    pub(crate) fn swap_current_device(&mut self, device: DeviceId) -> DeviceId {
        assert!(
            device < self.n_devices(),
            "device {device} outside the platform's {} GPU(s)",
            self.n_devices()
        );
        if let Some(s) = &self.streams {
            assert!(
                device < s.devices(),
                "device {device} outside the active fork's {} device(s)",
                s.devices()
            );
        }
        let prev = std::mem::replace(&mut self.current_device, device);
        if prev != device {
            if let Some(t) = self.trace.as_mut() {
                t.push(TraceRecord::DeviceSwitch { device });
            }
        }
        prev
    }

    /// Records `lane`'s current clock as a waitable synchronization point
    /// (the simulated `cudaEventRecord`).
    ///
    /// # Panics
    ///
    /// Panics when no stream fork is active.
    pub fn record_event(&mut self, lane: StreamId) -> EventId {
        let device = self.current_device;
        let id = self
            .streams
            .as_mut()
            .expect("record_event requires fork_streams")
            .record(device, lane);
        if self.trace.is_some() {
            let at = self.stream_now(lane);
            if let Some(t) = self.trace.as_mut() {
                t.push(TraceRecord::EventRecord {
                    event: id.index(),
                    lane,
                    at,
                });
            }
        }
        id
    }

    /// Stalls `lane` until the recorded event's timestamp (the simulated
    /// `cudaStreamWaitEvent`): the lane clock advances to the max of its
    /// dependencies and never rewinds.
    ///
    /// # Panics
    ///
    /// Panics when no stream fork is active, or when the event was
    /// recorded by a different fork — an earlier fork of this executor,
    /// or another executor entirely. Such a handle would otherwise
    /// advance the lane from an unrelated fork's timestamp table.
    pub fn wait_event(&mut self, lane: StreamId, event: EventId) {
        let device = self.current_device;
        self.streams
            .as_mut()
            .expect("wait_event requires fork_streams")
            .wait(device, lane, event);
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceRecord::EventWait {
                event: event.index(),
                lane,
            });
        }
    }

    /// Execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Platform specification.
    pub fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    /// The recorded kernel/transfer timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// All closed profiler scopes.
    pub fn scopes(&self) -> &[ScopeRecord] {
        &self.scopes
    }

    /// GPU memory accounting.
    pub fn gpu_memory(&self) -> &MemoryTracker {
        &self.gpu_mem
    }

    /// CPU memory accounting.
    pub fn cpu_memory(&self) -> &MemoryTracker {
        &self.cpu_mem
    }

    /// Opens a named profiler scope and returns a token for
    /// [`Executor::exit_scope`]. Used by wrappers (the dispatcher) that
    /// cannot express the scope as a closure over `&mut Executor`.
    pub(crate) fn enter_scope(&mut self, name: &str) -> ScopeToken {
        let path: Arc<str> = if self.scope_stack.is_empty() {
            Arc::from(name)
        } else {
            Arc::from(format!("{}/{name}", self.scope_path))
        };
        self.scope_stack
            .push(std::mem::replace(&mut self.scope_path, path));
        ScopeToken {
            depth: self.scope_stack.len() - 1,
            start: self.cursor(),
        }
    }

    /// Closes the scope opened with the given token, recording its span.
    pub(crate) fn exit_scope(&mut self, token: ScopeToken) {
        let end = self.cursor();
        let parent = self
            .scope_stack
            .pop()
            .expect("exit_scope without enter_scope");
        let path = std::mem::replace(&mut self.scope_path, parent);
        self.scopes.push(ScopeRecord {
            path: path.to_string(),
            depth: token.depth,
            start: token.start,
            end,
        });
    }

    /// Runs `f` inside a named profiler scope; nesting builds slash paths.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let token = self.enter_scope(name);
        let result = f(self);
        self.exit_scope(token);
        result
    }

    /// Runs `f` and returns its result together with the simulated time it
    /// consumed.
    pub fn timed<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, DurationNs) {
        let start = self.cursor();
        let result = f(self);
        (result, self.cursor() - start)
    }

    #[allow(clippy::too_many_arguments)]
    fn push_event(
        &mut self,
        label: &'static str,
        category: EventCategory,
        place: Place,
        duration: DurationNs,
        occupancy: f64,
        flops: u64,
        bytes: u64,
    ) {
        let start = self.cursor();
        let end = start + duration;
        self.timeline.push(TimelineEvent {
            label,
            scope: Arc::clone(&self.scope_path),
            category,
            place,
            start,
            end,
            occupancy,
            flops,
            bytes,
            stream: self.current_stream,
            device: self.current_device,
        });
        match (self.current_stream, &mut self.streams) {
            (Some(lane), Some(s)) => *s.clock_mut(self.current_device, lane) = end,
            _ => self.clock = end,
        }
    }

    /// Lazily initializes the CUDA context on first GPU activity
    /// (the paper's "lazy initialization" warm-up component). Returns the
    /// cost paid, which is zero after the first call and always zero in
    /// CPU-only mode.
    pub fn ensure_context(&mut self) -> DurationNs {
        if self.context_ready {
            return DurationNs::ZERO;
        }
        self.context_ready = true;
        let d = WarmupModel::context(&self.spec.gpu);
        self.push_event(
            "cuda_context_init",
            EventCategory::WarmupContext,
            Place::Gpu,
            d,
            0.0,
            0,
            0,
        );
        d
    }

    /// Performs model initialization: allocates and uploads `weight_bytes`
    /// of parameters in `n_param_tensors` tensors. On the GPU this is the
    /// expensive warm-up component of Section 4.4; on the CPU it is a
    /// cheap host-memory copy. Returns the simulated cost.
    pub fn model_init(&mut self, weight_bytes: u64, n_param_tensors: u64) -> DurationNs {
        match self.mode {
            ExecMode::Gpu => {
                self.ensure_context();
                let d = WarmupModel::model_init_gpu(
                    &self.spec.gpu,
                    &self.spec.pcie,
                    weight_bytes,
                    n_param_tensors,
                );
                self.gpu_mem.alloc(weight_bytes);
                self.push_event(
                    "model_init",
                    EventCategory::WarmupModelInit,
                    Place::Gpu,
                    d,
                    0.0,
                    0,
                    weight_bytes,
                );
                d
            }
            ExecMode::CpuOnly => {
                let d = WarmupModel::model_init_cpu(&self.spec.cpu, weight_bytes, n_param_tensors);
                self.cpu_mem.alloc(weight_bytes);
                self.push_event(
                    "model_init",
                    EventCategory::WarmupModelInit,
                    Place::Cpu,
                    d,
                    0.0,
                    0,
                    weight_bytes,
                );
                d
            }
        }
    }

    /// Per-run activation allocation warm-up (the batch-dependent part of
    /// Table 2). No-op in CPU-only mode. Returns the simulated cost.
    pub fn alloc_warmup(&mut self, activation_bytes: u64) -> DurationNs {
        if self.mode == ExecMode::CpuOnly {
            self.cpu_mem.alloc(activation_bytes);
            return DurationNs::ZERO;
        }
        self.ensure_context();
        let d = WarmupModel::alloc(&self.spec.gpu, activation_bytes);
        self.gpu_mem.alloc(activation_bytes);
        self.push_event(
            "activation_alloc",
            EventCategory::WarmupAlloc,
            Place::Gpu,
            d,
            0.0,
            0,
            activation_bytes,
        );
        d
    }

    /// Releases previously allocated activation memory.
    pub fn release(&mut self, bytes: u64) {
        match self.mode {
            ExecMode::Gpu => self.gpu_mem.free(bytes),
            ExecMode::CpuOnly => self.cpu_mem.free(bytes),
        }
    }

    fn gpu_kernel_duration(&self, desc: &OpDescriptor) -> (DurationNs, f64) {
        let g = &self.spec.gpu;
        let occupancy = (desc.parallelism as f64 / g.saturation_width as f64)
            .clamp(1.0 / g.sm_count as f64, 1.0);
        let compute_s = desc.flops as f64 / (g.peak_flops * g.kernel_efficiency * occupancy);
        let bw = if desc.kind.is_irregular() {
            g.mem_bw * g.irregular_efficiency
        } else {
            g.mem_bw
        };
        let memory_s = desc.bytes as f64 / bw;
        let busy = DurationNs::from_secs_f64(compute_s.max(memory_s));
        (
            DurationNs::from_nanos(g.launch_overhead_ns) + busy,
            occupancy,
        )
    }

    fn cpu_kernel_duration(&self, desc: &OpDescriptor) -> (DurationNs, f64) {
        let c = &self.spec.cpu;
        let occupancy =
            (desc.parallelism as f64 / c.saturation_width as f64).clamp(1.0 / c.cores as f64, 1.0);
        let compute_s = desc.flops as f64 / (c.peak_flops * c.kernel_efficiency * occupancy);
        let bw = if desc.kind.is_irregular() {
            c.mem_bw * c.irregular_efficiency
        } else {
            c.mem_bw
        };
        let memory_s = desc.bytes as f64 / bw;
        let busy = DurationNs::from_secs_f64(compute_s.max(memory_s));
        (
            DurationNs::from_nanos(c.dispatch_overhead_ns) + busy,
            occupancy,
        )
    }

    /// Launches one kernel on the compute device of the current mode,
    /// advancing the clock. Returns the simulated duration (including
    /// launch/dispatch overhead).
    pub fn launch(&mut self, desc: OpDescriptor) -> DurationNs {
        match self.mode {
            ExecMode::Gpu => {
                self.ensure_context();
                let (d, occ) = self.gpu_kernel_duration(&desc);
                self.push_event(
                    desc.label,
                    EventCategory::Kernel(desc.kind),
                    Place::Gpu,
                    d,
                    occ,
                    desc.flops,
                    desc.bytes,
                );
                d
            }
            ExecMode::CpuOnly => {
                let (d, occ) = self.cpu_kernel_duration(&desc);
                self.push_event(
                    desc.label,
                    EventCategory::Kernel(desc.kind),
                    Place::Cpu,
                    d,
                    occ,
                    desc.flops,
                    desc.bytes,
                );
                d
            }
        }
    }

    /// Executes host-side preprocessing work on the simulated CPU
    /// (always the CPU, in both modes). Returns the simulated duration.
    ///
    /// Serial stages (`parallelism == 1`) run on one core at
    /// `host_ops_per_sec`. Stages that declare parallel work items are
    /// charged as a critical path `total_ops / effective_cores`, where
    /// the engaged core count follows the same occupancy ramp as CPU
    /// kernels: `cores × clamp(parallelism / saturation_width,
    /// 1/cores, 1)`. Irregular bandwidth also scales with the engaged
    /// cores (memory-level parallelism), capped at the sequential peak.
    pub fn host(&mut self, work: HostWork) -> DurationNs {
        let c = &self.spec.cpu;
        let occupancy =
            (work.parallelism as f64 / c.saturation_width as f64).clamp(1.0 / c.cores as f64, 1.0);
        let effective_cores = (c.cores as f64 * occupancy).max(1.0);
        let ops_s = work.ops as f64 / (c.host_ops_per_sec * effective_cores);
        let seq_s = work.seq_bytes as f64 / c.mem_bw;
        let irr_bw = (c.mem_bw * c.irregular_efficiency * effective_cores).min(c.mem_bw);
        let irr_s = work.irregular_bytes as f64 / irr_bw;
        let d = DurationNs::from_nanos(c.dispatch_overhead_ns)
            + DurationNs::from_secs_f64(ops_s + seq_s + irr_s);
        self.push_event(
            work.label,
            EventCategory::Host,
            Place::Cpu,
            d,
            1.0,
            work.ops,
            work.seq_bytes + work.irregular_bytes,
        );
        d
    }

    /// Copies `bytes` across PCIe. Free (and unrecorded) in CPU-only mode,
    /// where no transfer exists. Returns the simulated duration.
    pub fn transfer(&mut self, dir: TransferDir, bytes: u64) -> DurationNs {
        if self.mode == ExecMode::CpuOnly {
            return DurationNs::ZERO;
        }
        self.ensure_context();
        let p = &self.spec.pcie;
        let d = match self.transfer_mode {
            // Direct DMA from page-locked memory — the historical
            // formula, reproduced exactly so pinned-mode runs are
            // bit-identical to pre-cache builds.
            TransferMode::Pinned => {
                DurationNs::from_nanos(p.latency_ns)
                    + DurationNs::from_secs_f64(bytes as f64 / p.bandwidth)
            }
            // Pageable: host memcpy into the driver's staging buffer,
            // then DMA at the degraded bandwidth, plus per-transfer
            // host metadata bookkeeping. Folded into one timeline
            // event (same label/category) — the staging copy is part
            // of the driver's cudaMemcpy, not a separate user action.
            TransferMode::Pageable => {
                DurationNs::from_nanos(p.latency_ns + p.host_meta_ns)
                    + DurationNs::from_secs_f64(
                        bytes as f64 / p.staging_bandwidth + bytes as f64 / p.pageable_bandwidth,
                    )
            }
        };
        self.push_event(
            dir.name(),
            EventCategory::Transfer(dir),
            Place::Pcie,
            d,
            1.0,
            0,
            bytes,
        );
        if self.trace.is_some() {
            let event = self.timeline.len() - 1;
            let lane = self.current_stream;
            if let Some(t) = self.trace.as_mut() {
                t.push(TraceRecord::Priced {
                    dir,
                    bytes,
                    lane,
                    event,
                });
            }
        }
        d
    }

    /// Copies `bytes` from GPU `src` to the *current* device, priced on
    /// the interconnect edge between them: one hop over the direct peer
    /// link when the topology has one ([`PeerPath::Direct`]), or a
    /// host-staged bounce — a D2H then an H2D over the two devices'
    /// PCIe links, always from pinned staging buffers (the driver owns
    /// them) — otherwise. Free (and unrecorded) in CPU-only mode, for
    /// zero bytes, and when `src` is already the current device.
    /// Returns the simulated duration.
    ///
    /// One timeline event ([`EventCategory::PeerTransfer`], attributed
    /// to the destination device) is recorded per call, plus a
    /// [`TraceRecord::PeerPriced`] twin while tracing — the RULE8
    /// conservation evidence.
    ///
    /// # Panics
    ///
    /// Panics when `src` is outside the platform's device graph.
    pub fn peer_transfer(&mut self, src: DeviceId, bytes: u64) -> DurationNs {
        if self.mode == ExecMode::CpuOnly {
            return DurationNs::ZERO;
        }
        assert!(
            src < self.n_devices(),
            "peer source device {src} outside the platform's {} GPU(s)",
            self.n_devices()
        );
        let dst = self.current_device;
        if bytes == 0 || src == dst {
            return DurationNs::ZERO;
        }
        self.ensure_context();
        let (d, label, via_host) = match self.spec.peer_path(src, dst) {
            PeerPath::Direct(link) => (
                DurationNs::from_nanos(link.latency_ns)
                    + DurationNs::from_secs_f64(bytes as f64 / link.bandwidth),
                "peer_copy",
                false,
            ),
            PeerPath::HostStaged => {
                let p = &self.spec.pcie;
                (
                    DurationNs::from_nanos(2 * p.latency_ns)
                        + DurationNs::from_secs_f64(2.0 * bytes as f64 / p.bandwidth),
                    "peer_copy_staged",
                    true,
                )
            }
        };
        self.push_event(
            label,
            EventCategory::PeerTransfer,
            Place::Pcie,
            d,
            1.0,
            0,
            bytes,
        );
        if self.trace.is_some() {
            let event = self.timeline.len() - 1;
            let lane = self.current_stream;
            if let Some(t) = self.trace.as_mut() {
                t.push(TraceRecord::PeerPriced {
                    src,
                    dst,
                    bytes,
                    via_host,
                    lane,
                    event,
                });
            }
        }
        d
    }

    /// Idle-waits until the clock reaches `t` (used by pipelined ablations
    /// when replaying schedules). No event is recorded; the gap is visible
    /// on the timeline as missing coverage.
    pub fn advance_to(&mut self, t: DurationNs) {
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Launches a "synchronization" marker: zero-work kernel representing
    /// `cudaStreamSynchronize`, charged one launch overhead.
    pub fn synchronize(&mut self) -> DurationNs {
        self.launch(OpDescriptor {
            label: "cuda_synchronize",
            kind: OpKind::Elementwise,
            flops: 0,
            bytes: 0,
            parallelism: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu_executor() -> Executor {
        Executor::new(PlatformSpec::default(), ExecMode::Gpu)
    }

    #[test]
    fn clock_is_monotone_across_actions() {
        let mut ex = gpu_executor();
        let t0 = ex.now();
        ex.launch(OpDescriptor::gemm("k", 32, 32, 32));
        let t1 = ex.now();
        ex.transfer(TransferDir::H2D, 1024);
        let t2 = ex.now();
        ex.host(HostWork::sequential("pack", 100, 1024));
        let t3 = ex.now();
        assert!(t0 < t1 && t1 < t2 && t2 < t3);
    }

    #[test]
    fn parallel_host_work_shortens_critical_path() {
        let time_for = |parallelism: u64| {
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
            ex.host(
                HostWork::irregular("sample", 10_000_000, 1 << 24).with_parallelism(parallelism),
            );
            ex.now()
        };
        let serial = time_for(1);
        let saturated = time_for(PlatformSpec::default().cpu.saturation_width);
        // Fully saturated parallelism engages all cores on the ops term.
        assert!(
            saturated.as_nanos() * 8 < serial.as_nanos(),
            "saturated {saturated:?} should be ≫ faster than serial {serial:?}"
        );
        // Sub-core-count parallelism must never price *slower* than serial.
        assert!(time_for(4) <= serial);
    }

    #[test]
    fn serial_host_pricing_is_unchanged_by_parallelism_field() {
        let explicit = {
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
            ex.host(HostWork::irregular("sample", 5_000, 4_096).with_parallelism(1));
            ex.now()
        };
        let default = {
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
            ex.host(HostWork::irregular("sample", 5_000, 4_096));
            ex.now()
        };
        assert_eq!(explicit, default);
    }

    #[test]
    fn first_gpu_action_pays_context_init() {
        let mut ex = gpu_executor();
        ex.launch(OpDescriptor::gemm("k", 8, 8, 8));
        let warmup = ex
            .timeline()
            .category_time(|c| c == EventCategory::WarmupContext);
        assert_eq!(
            warmup.as_nanos(),
            PlatformSpec::default().gpu.context_init_ns
        );
        // Second launch pays nothing extra.
        let before = ex.now();
        ex.launch(OpDescriptor::gemm("k", 8, 8, 8));
        let kernel_time = ex.now() - before;
        assert!(kernel_time.as_nanos() < 100_000);
    }

    #[test]
    fn cpu_mode_has_no_warmup_or_transfers() {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
        ex.launch(OpDescriptor::gemm("k", 8, 8, 8));
        assert_eq!(ex.transfer(TransferDir::H2D, 1 << 20), DurationNs::ZERO);
        assert_eq!(ex.timeline().busy_time(Place::Pcie), DurationNs::ZERO);
        assert_eq!(
            ex.timeline().category_time(EventCategory::is_warmup),
            DurationNs::ZERO
        );
        assert_eq!(ex.timeline().busy_time(Place::Gpu), DurationNs::ZERO);
    }

    #[test]
    fn tiny_gpu_kernels_are_launch_bound() {
        let mut ex = gpu_executor();
        ex.ensure_context();
        let d = ex.launch(OpDescriptor::gemm("tiny", 16, 16, 16));
        let launch = PlatformSpec::default().gpu.launch_overhead_ns;
        // Launch overhead must dominate: busy time < 20% of total.
        assert!(d.as_nanos() < launch * 12 / 10, "duration {d}");
    }

    #[test]
    fn large_gpu_kernels_beat_cpu() {
        let mut gpu = gpu_executor();
        gpu.ensure_context();
        let mut cpu = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
        let desc = OpDescriptor::gemm("big", 2048, 2048, 2048);
        let dg = gpu.launch(desc.clone());
        let dc = cpu.launch(desc);
        assert!(
            dc.as_nanos() > 5 * dg.as_nanos(),
            "cpu {dc} should be ≫ gpu {dg}"
        );
    }

    #[test]
    fn irregular_kernels_pay_bandwidth_penalty() {
        let mut ex = gpu_executor();
        ex.ensure_context();
        let regular = ex.launch(OpDescriptor::elementwise("r", 1 << 20, 1, 1));
        let irregular = ex.launch(OpDescriptor::gather("g", 1 << 18, 4));
        // gather moves 8 MiB at ~12% efficiency vs 8 MiB sequential.
        assert!(irregular > regular);
    }

    #[test]
    fn scopes_nest_and_record_spans() {
        let mut ex = gpu_executor();
        ex.scope("inference", |ex| {
            ex.scope("sampling", |ex| {
                ex.host(HostWork::irregular("sample", 1000, 4096));
            });
            ex.scope("attention", |ex| {
                ex.launch(OpDescriptor::gemm("qk", 64, 64, 64));
            });
        });
        let paths: Vec<&str> = ex.scopes().iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"inference/sampling"));
        assert!(paths.contains(&"inference/attention"));
        assert!(paths.contains(&"inference"));
        let outer = ex.scopes().iter().find(|s| s.path == "inference").unwrap();
        let inner = ex
            .scopes()
            .iter()
            .find(|s| s.path == "inference/sampling")
            .unwrap();
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        assert_eq!(inner.name(), "sampling");
    }

    #[test]
    fn events_inherit_scope_path() {
        let mut ex = gpu_executor();
        ex.ensure_context();
        ex.scope("run", |ex| {
            ex.scope("gnn", |ex| {
                ex.launch(OpDescriptor::gemm("agg", 32, 32, 32));
            });
        });
        let e = ex.timeline().events().last().unwrap();
        assert_eq!(&*e.scope, "run/gnn");
    }

    #[test]
    fn model_init_gpu_much_slower_than_cpu() {
        let mut gpu = gpu_executor();
        let mut cpu = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
        let dg = gpu.model_init(1 << 22, 30);
        let dc = cpu.model_init(1 << 22, 30);
        assert!(dg.as_nanos() > 40 * dc.as_nanos());
        assert_eq!(gpu.gpu_memory().live_bytes(), 1 << 22);
        assert_eq!(cpu.cpu_memory().live_bytes(), 1 << 22);
    }

    #[test]
    fn alloc_warmup_tracks_memory_and_grows() {
        let mut ex = gpu_executor();
        let small = ex.alloc_warmup(1 << 16);
        ex.release(1 << 16);
        let large = ex.alloc_warmup(1 << 28);
        assert!(large > small);
        assert_eq!(ex.gpu_memory().live_bytes(), 1 << 28);
    }

    #[test]
    fn timed_measures_simulated_time() {
        let mut ex = gpu_executor();
        ex.ensure_context();
        let ((), d) = ex.timed(|ex| {
            ex.launch(OpDescriptor::gemm("k", 64, 64, 64));
        });
        assert!(d.as_nanos() > 0);
        assert_eq!(
            ex.now().saturating_sub(d),
            DurationNs::from_nanos(PlatformSpec::default().gpu.context_init_ns,)
        );
    }

    #[test]
    fn advance_to_never_rewinds() {
        let mut ex = gpu_executor();
        ex.advance_to(DurationNs::from_nanos(100));
        ex.advance_to(DurationNs::from_nanos(50));
        assert_eq!(ex.now().as_nanos(), 100);
    }

    #[test]
    fn synchronize_costs_one_launch() {
        let mut ex = gpu_executor();
        ex.ensure_context();
        let d = ex.synchronize();
        assert_eq!(d.as_nanos(), PlatformSpec::default().gpu.launch_overhead_ns);
    }

    #[test]
    fn forked_lanes_overlap_on_the_timeline() {
        let mut ex = gpu_executor();
        ex.ensure_context();
        let origin = ex.now();
        ex.fork_streams();
        ex.on_stream(StreamId::Host, |ex| {
            ex.host(HostWork::sequential("sample", 1_000_000, 1 << 20));
        });
        ex.on_stream(StreamId::Compute, |ex| {
            ex.launch(OpDescriptor::gemm("attn", 256, 256, 256));
        });
        let host_end = ex.stream_now(StreamId::Host);
        let compute_end = ex.stream_now(StreamId::Compute);
        let end = ex.join_streams();
        // Both lanes started at the fork origin: the events overlap and
        // the makespan is the max, not the sum.
        let events = ex.timeline().events();
        let host_ev = events.iter().find(|e| e.label == "sample").unwrap();
        let gemm_ev = events.iter().find(|e| e.label == "attn").unwrap();
        assert_eq!(host_ev.start, origin);
        assert_eq!(gemm_ev.start, origin);
        assert_eq!(host_ev.stream, Some(StreamId::Host));
        assert_eq!(gemm_ev.stream, Some(StreamId::Compute));
        assert_eq!(end, host_end.max(compute_end));
        assert!(end < origin + host_ev.duration() + gemm_ev.duration());
        assert_eq!(ex.now(), end);
    }

    #[test]
    fn wait_event_orders_across_lanes() {
        let mut ex = gpu_executor();
        ex.ensure_context();
        ex.fork_streams();
        let uploaded = ex.on_stream(StreamId::Copy, |ex| {
            ex.transfer(TransferDir::H2D, 1 << 24);
            ex.record_event(StreamId::Copy)
        });
        ex.wait_event(StreamId::Compute, uploaded);
        ex.on_stream(StreamId::Compute, |ex| {
            ex.launch(OpDescriptor::gemm("dep", 64, 64, 64));
        });
        ex.join_streams();
        let events = ex.timeline().events();
        let copy = events.iter().find(|e| e.label == "memcpy_h2d").unwrap();
        let kernel = events.iter().find(|e| e.label == "dep").unwrap();
        assert!(
            kernel.start >= copy.end,
            "dependent kernel {kernel:?} must start after its upload {copy:?}"
        );
    }

    #[test]
    #[should_panic(expected = "different stream fork")]
    fn waiting_on_a_stale_forks_event_panics() {
        let mut ex = gpu_executor();
        ex.ensure_context();
        ex.fork_streams();
        let stale = ex.record_event(StreamId::Copy);
        ex.join_streams();
        // A new fork must not honor handles from the previous one.
        ex.fork_streams();
        ex.wait_event(StreamId::Compute, stale);
    }

    #[test]
    #[should_panic(expected = "different stream fork")]
    fn waiting_on_another_executors_event_panics() {
        let mut a = gpu_executor();
        a.fork_streams();
        let foreign = a.record_event(StreamId::Copy);
        let mut b = gpu_executor();
        b.fork_streams();
        b.wait_event(StreamId::Compute, foreign);
    }

    #[test]
    fn tracing_captures_sync_records_and_transfers() {
        use crate::trace::TraceRecord;
        let mut ex = gpu_executor();
        ex.ensure_context();
        ex.enable_tracing();
        assert!(ex.trace().is_some());
        ex.fork_streams();
        let up = ex.on_stream(StreamId::Copy, |ex| {
            ex.transfer(TransferDir::H2D, 4096);
            ex.record_event(StreamId::Copy)
        });
        ex.wait_event(StreamId::Compute, up);
        ex.join_streams();
        let records = ex.trace().unwrap().records();
        assert!(matches!(records[0], TraceRecord::Fork { .. }));
        assert!(records.iter().any(|r| matches!(
            r,
            TraceRecord::Priced {
                dir: TransferDir::H2D,
                bytes: 4096,
                lane: Some(StreamId::Copy),
                ..
            }
        )));
        assert!(records.iter().any(|r| matches!(
            r,
            TraceRecord::EventRecord {
                event: 0,
                lane: StreamId::Copy,
                ..
            }
        )));
        assert!(records.iter().any(|r| matches!(
            r,
            TraceRecord::EventWait {
                event: 0,
                lane: StreamId::Compute,
            }
        )));
        assert!(matches!(records.last().unwrap(), TraceRecord::Join { .. }));
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut ex = gpu_executor();
        ex.launch(OpDescriptor::gemm("k", 32, 32, 32));
        ex.transfer(TransferDir::H2D, 1024);
        assert!(ex.trace().is_none());
    }

    #[test]
    fn serial_actions_never_carry_a_stream_tag() {
        let mut ex = gpu_executor();
        ex.launch(OpDescriptor::gemm("k", 32, 32, 32));
        ex.transfer(TransferDir::D2H, 4096);
        assert!(ex.timeline().events().iter().all(|e| e.stream.is_none()));
        assert!(ex.streams.is_none());
    }

    #[test]
    fn join_without_lane_work_is_a_no_op_on_the_clock() {
        let mut ex = gpu_executor();
        ex.ensure_context();
        let before = ex.now();
        ex.fork_streams();
        assert!(ex.streams.is_some());
        let end = ex.join_streams();
        assert_eq!(end, before);
        assert_eq!(ex.now(), before);
    }

    #[test]
    fn pinned_transfer_pricing_matches_the_historical_formula() {
        let mut ex = gpu_executor();
        ex.ensure_context();
        assert_eq!(ex.transfer_mode(), TransferMode::Pinned);
        let bytes = 1u64 << 20;
        let d = ex.transfer(TransferDir::H2D, bytes);
        let p = PlatformSpec::default().pcie;
        let expected = DurationNs::from_nanos(p.latency_ns)
            + DurationNs::from_secs_f64(bytes as f64 / p.bandwidth);
        assert_eq!(d, expected);
    }

    #[test]
    fn pageable_transfers_pay_staging_and_metadata() {
        let price = |mode: TransferMode, bytes: u64| {
            let mut ex = gpu_executor();
            ex.set_transfer_mode(mode);
            ex.ensure_context();
            ex.transfer(TransferDir::H2D, bytes)
        };
        let spec = PlatformSpec::default().pcie;
        // Any payload is strictly slower pageable than pinned…
        assert!(price(TransferMode::Pageable, 1 << 20) > price(TransferMode::Pinned, 1 << 20));
        // …and even a zero-byte transfer pays the host metadata term.
        assert_eq!(
            price(TransferMode::Pageable, 0).as_nanos(),
            spec.latency_ns + spec.host_meta_ns
        );
        assert_eq!(price(TransferMode::Pinned, 0).as_nanos(), spec.latency_ns);
    }

    #[test]
    fn feature_cache_balances_gpu_memory() {
        let mut ex = gpu_executor();
        ex.enable_feature_cache(2);
        assert!(!ex.cache_probe_insert(TensorClass::NodeFeature, 1, 100));
        assert!(!ex.cache_probe_insert(TensorClass::NodeFeature, 2, 200));
        assert_eq!(ex.gpu_memory().live_bytes(), 300);
        // A hit allocates nothing…
        assert!(ex.cache_probe_insert(TensorClass::NodeFeature, 1, 100));
        assert_eq!(ex.gpu_memory().live_bytes(), 300);
        // …and an evicting miss frees the victim's bytes.
        assert!(!ex.cache_probe_insert(TensorClass::NodeFeature, 3, 50));
        assert_eq!(ex.gpu_memory().live_bytes(), 150); // 100 + 50, id 2 gone
        let s = ex.cache_stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 1));
    }

    #[test]
    fn enable_feature_cache_is_idempotent_and_keeps_warm_rows() {
        let mut ex = gpu_executor();
        assert!(ex.feature_cache().is_none());
        assert!(!ex.cache_probe_insert(TensorClass::NodeMemory, 9, 64));
        assert_eq!(ex.cache_stats(), CacheStats::default());
        ex.enable_feature_cache(4);
        ex.cache_probe_insert(TensorClass::NodeMemory, 9, 64);
        // Re-enabling at the same capacity keeps the warm row…
        ex.enable_feature_cache(4);
        assert!(ex.cache_probe_insert(TensorClass::NodeMemory, 9, 64));
        // …while a different capacity rebuilds it cold.
        ex.enable_feature_cache(8);
        assert!(!ex.cache_probe_insert(TensorClass::NodeMemory, 9, 64));
    }

    #[test]
    fn single_device_engine_is_device_zero() {
        let mut ex = gpu_executor();
        assert_eq!(ex.n_devices(), 1);
        assert_eq!(ex.current_device(), 0);
        ex.launch(OpDescriptor::gemm("k", 16, 16, 16));
        ex.transfer(TransferDir::H2D, 1024);
        assert!(ex.timeline().events().iter().all(|e| e.device == 0));
    }

    #[test]
    fn multi_device_fork_overlaps_compute_across_devices() {
        let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(2), ExecMode::Gpu);
        ex.ensure_context();
        let origin = ex.now();
        ex.fork_streams_multi(2);
        let desc = OpDescriptor::gemm("shard", 512, 512, 512);
        ex.on_stream(StreamId::Compute, |ex| {
            ex.launch(desc.clone());
        });
        ex.on_device(1, |ex| {
            ex.on_stream(StreamId::Compute, |ex| {
                ex.launch(desc.clone());
            });
        });
        let end = ex.join_streams();
        let events: Vec<_> = ex
            .timeline()
            .events()
            .iter()
            .filter(|e| e.label == "shard")
            .collect();
        assert_eq!(events.len(), 2);
        // Same lane, different devices: both start at the fork origin —
        // the devices genuinely run concurrently.
        assert_eq!(events[0].device, 0);
        assert_eq!(events[1].device, 1);
        assert_eq!(events[0].start, origin);
        assert_eq!(events[1].start, origin);
        assert_eq!(end, events[0].end.max(events[1].end));
    }

    #[test]
    fn cross_device_events_order_work() {
        let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(2), ExecMode::Gpu);
        ex.ensure_context();
        ex.fork_streams_multi(2);
        let up = ex.on_device(1, |ex| {
            ex.on_stream(StreamId::Copy, |ex| {
                ex.transfer(TransferDir::H2D, 1 << 24);
                ex.record_event(StreamId::Copy)
            })
        });
        // Device 0's compute waits on device 1's upload.
        ex.wait_event(StreamId::Compute, up);
        ex.on_stream(StreamId::Compute, |ex| {
            ex.launch(OpDescriptor::gemm("dep", 64, 64, 64));
        });
        ex.join_streams();
        let events = ex.timeline().events();
        let copy = events.iter().find(|e| e.label == "memcpy_h2d").unwrap();
        let kernel = events.iter().find(|e| e.label == "dep").unwrap();
        assert_eq!(copy.device, 1);
        assert_eq!(kernel.device, 0);
        assert!(kernel.start >= copy.end);
    }

    #[test]
    #[should_panic(expected = "outside the active fork")]
    fn switching_past_the_fork_span_panics() {
        let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(4), ExecMode::Gpu);
        ex.fork_streams_multi(2);
        ex.on_device(3, |_| {});
    }

    #[test]
    #[should_panic(expected = "outside the platform")]
    fn switching_past_the_platform_panics() {
        let mut ex = gpu_executor();
        ex.on_device(1, |_| {});
    }

    #[test]
    fn peer_transfer_prices_the_topology_edge() {
        let bytes = 1u64 << 24;
        // NVLink: one hop on the link.
        let mut nv = Executor::new(PlatformSpec::multi_gpu_nvlink(2), ExecMode::Gpu);
        nv.ensure_context();
        let d_nv = nv.on_device(1, |ex| ex.peer_transfer(0, bytes));
        let link = crate::spec::LinkSpec::nvlink();
        assert_eq!(
            d_nv,
            DurationNs::from_nanos(link.latency_ns)
                + DurationNs::from_secs_f64(bytes as f64 / link.bandwidth)
        );
        let e = nv.timeline().events().last().unwrap();
        assert_eq!(e.category, EventCategory::PeerTransfer);
        assert_eq!((e.label, e.device, e.bytes), ("peer_copy", 1, bytes));

        // No peer edge: the payload bounces D2H + H2D through the host.
        let mut pc = Executor::new(PlatformSpec::multi_gpu_pcie(2), ExecMode::Gpu);
        pc.ensure_context();
        let d_pc = pc.on_device(1, |ex| ex.peer_transfer(0, bytes));
        let p = PlatformSpec::default().pcie;
        assert_eq!(
            d_pc,
            DurationNs::from_nanos(2 * p.latency_ns)
                + DurationNs::from_secs_f64(2.0 * bytes as f64 / p.bandwidth)
        );
        assert!(d_pc > d_nv, "host-staged bounce must cost more than NVLink");
        assert_eq!(
            pc.timeline().events().last().unwrap().label,
            "peer_copy_staged"
        );
        assert_eq!(nv.timeline().peer_bytes(), bytes);
    }

    #[test]
    fn peer_transfer_degenerate_cases_are_free() {
        let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(2), ExecMode::Gpu);
        ex.ensure_context();
        let before = ex.timeline().len();
        // Same device and zero bytes cost nothing and record nothing.
        assert_eq!(ex.peer_transfer(0, 1024), DurationNs::ZERO);
        assert_eq!(
            ex.on_device(1, |ex| ex.peer_transfer(1, 0)),
            DurationNs::ZERO
        );
        assert_eq!(ex.timeline().len(), before);
        // CPU-only mode has no devices to peer between.
        let mut cpu = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
        assert_eq!(cpu.peer_transfer(0, 1024), DurationNs::ZERO);
    }

    #[test]
    fn feature_caches_are_shard_local_per_device() {
        let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(2), ExecMode::Gpu);
        ex.enable_feature_cache(8);
        // A row cached on device 0 misses on device 1: each shard owns
        // its residency.
        assert!(!ex.cache_probe_insert(TensorClass::NodeFeature, 7, 64));
        assert!(ex.cache_probe_insert(TensorClass::NodeFeature, 7, 64));
        ex.on_device(1, |ex| {
            assert!(!ex.cache_probe_insert(TensorClass::NodeFeature, 7, 64));
        });
        let s = ex.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        let per = ex.cache_class_stats();
        assert_eq!(per[TensorClass::NodeFeature.index()].misses, 2);
        assert_eq!(per[TensorClass::EdgeFeature.index()].lookups(), 0);
        assert!(ex.device_feature_cache(0).is_some());
        assert!(ex.device_feature_cache(1).is_some());
    }

    #[test]
    fn device_switches_are_traced() {
        let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(2), ExecMode::Gpu);
        ex.ensure_context();
        ex.enable_tracing();
        ex.on_device(1, |ex| {
            ex.peer_transfer(0, 4096);
        });
        let records = ex.trace().unwrap().records();
        assert!(records
            .iter()
            .any(|r| matches!(r, TraceRecord::DeviceSwitch { device: 1 })));
        assert!(records
            .iter()
            .any(|r| matches!(r, TraceRecord::DeviceSwitch { device: 0 })));
        assert!(records.iter().any(|r| matches!(
            r,
            TraceRecord::PeerPriced {
                src: 0,
                dst: 1,
                bytes: 4096,
                via_host: false,
                ..
            }
        )));
    }

    #[test]
    fn scopes_span_lane_work_inside_a_fork() {
        let mut ex = gpu_executor();
        ex.ensure_context();
        ex.fork_streams();
        ex.on_stream(StreamId::Host, |ex| {
            ex.scope("sampling", |ex| {
                ex.host(HostWork::sequential("sample", 10_000, 4096));
            });
        });
        ex.join_streams();
        let s = ex.scopes().iter().find(|s| s.path == "sampling").unwrap();
        assert!(s.duration().as_nanos() > 0);
        let e = ex
            .timeline()
            .events()
            .iter()
            .find(|e| e.label == "sample")
            .unwrap();
        assert!(s.start <= e.start && e.end <= s.end);
    }
}
