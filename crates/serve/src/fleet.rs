//! The serving event loop: N warm pools behind a router, with a
//! warm-up-priced autoscaler. It is the crate's only discrete-event
//! loop — [`crate::serve`] and [`crate::serve_streaming`] run it as a
//! one-pool static fleet under Poisson arrivals, and [`serve_fleet`]
//! runs it in full:
//!
//! ```text
//! workload ──▶ router ──▶ pool 0 ─▶ replica sessions
//!   (shaped)    (policy)  pool 1 ─▶ replica sessions
//!                  ▲      pool …
//!                  │        ▲
//!              autoscaler ──┘ (spawn = provisioning warm-up,
//!                              drain = replica-seconds stop accruing)
//! ```
//!
//! Within a pool, requests flow through four stations, every timestamp
//! an integer virtual nanosecond:
//!
//! ```text
//! arrival ──▶ per-model admission queue ──▶ ready FIFO ──▶ replica
//!              (WindowBatcher close rule)   (dispatch)     (service)
//! ```
//!
//! * **Placement**: every arrival is placed by the [`Router`] using only
//!   queue depths and model residency ([`PoolLoad`]).
//! * **Admission**: an arriving request is shed if its *destination*
//!   pool's admitted-but-unstarted requests have reached the queue
//!   bound; otherwise it joins that pool's queue for its model. A batch
//!   closes when the window since its head's arrival expires or the
//!   batch fills ([`WindowBatcher`]'s rule).
//! * **Dispatch**: closed batches wait in the pool's FIFO; whenever a
//!   replica frees up, the earliest batch that *can* start is assigned
//!   with model affinity ([`WarmPool::pick`]): a free slot
//!   holding its model (warm hit), waiting out a busy resident slot
//!   instead of evicting a peer, or the least-recently-used free slot
//!   when the model is resident nowhere (cold start).
//! * **Service**: the batch runs on the slot's session executor
//!   ([`WarmPool::service`]); the slot is busy until the
//!   simulated service duration elapses. A service's work depends only
//!   on its model and request count, so the run keeps one [`Memo`] for
//!   every pool: each mix entry's parameter sizes, read from its first
//!   build, and for each (model, request count) the tape of its first
//!   service's inference, which every later one replays on its own
//!   session's clock after pricing its warm-up.
//! * **Scaling**: the [`Autoscaler`] reads fleet-wide queue depth at
//!   each arrival — the deterministic latency signal, by Little's law —
//!   and can spawn a pool (whose replicas pay the full context +
//!   model-init provisioning warm-up before their first service, so
//!   scale-out is priced exactly like the paper's cold process start)
//!   or drain one (it finishes its queue, then stops accruing
//!   replica-seconds).
//! * **Ingestion** (streaming runs only): [`Ev::Ingest`] feeds live edge
//!   events through the shared [`StreamingState`] — appends, memory
//!   updates and compactions are priced on the ingest clock, and every
//!   dispatched batch first pays a host-side sampling stage on that same
//!   clock before its replica service starts, the freshness-vs-latency
//!   contention the streaming benchmarks measure.
//!
//! One [`EventLoop`] holds the run's whole state, and each event kind
//! has one handler on it. Event ordering is total: keys are `(time,
//! kind-priority, sequence)` in one `BTreeMap`, and [`Agenda::push`] is
//! the only way in. Replica releases come before arrivals before graph
//! ingests before batch closes at equal times (`ReplicaFree < Arrival <
//! Ingest < BatchClose`), so a freed slot is reusable by a same-instant
//! arrival, a same-instant ingest is visible to the batch that closes
//! then, and a zero-window batch closes after its own arrival. No hash
//! map participates in any decision — identical inputs replay identical
//! schedules bit for bit.

use std::collections::{BTreeMap, VecDeque};

use dgnn_device::{
    accumulate_class_stats, ClassCacheStats, DurationNs, ExecMode, Executor, PlatformSpec,
};
use dgnn_graph::WindowBatcher;
use dgnn_profile::ServicePhases;

use crate::autoscaler::{Autoscaler, AutoscalerConfig, ScaleEvent, ScaleKind};
use crate::pool::{Memo, WarmPool};
use crate::report::{FleetReport, ServedBatch, ServedRequest};
use crate::router::{PoolLoad, Router, RouterPolicy};
use crate::streaming::StreamingState;
use crate::workload::{generate_shaped, validate_count, RateError, Request, WorkloadShape};
use crate::{ServeConfig, ServedModel, UNBOUNDED};

/// Full configuration of one fleet serving run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Seed for arrivals, mix assignment and router probes.
    pub seed: u64,
    /// Number of requests to generate.
    pub n_requests: usize,
    /// Long-run average arrivals per simulated second.
    pub arrival_rate_rps: f64,
    /// Traffic shape layered on the base Poisson process.
    pub shape: WorkloadShape,
    /// Placement policy.
    pub policy: RouterPolicy,
    /// Micro-batch window (per pool, per model).
    pub batch_window: DurationNs,
    /// Maximum requests per batch (capacity close).
    pub max_batch: usize,
    /// Pools provisioned before the first arrival.
    pub initial_pools: usize,
    /// Warm replica slots per pool.
    pub replicas_per_pool: usize,
    /// Admitted-but-unstarted requests a single pool holds before
    /// arrivals routed to it are shed ([`UNBOUNDED`] disables shedding).
    pub queue_bound: usize,
    /// End-to-end latency target a served request must meet to count
    /// as SLO-attained; shed requests always count as misses.
    pub slo: DurationNs,
    /// Autoscaler thresholds; `None` freezes the fleet at
    /// `initial_pools` (the static baseline).
    pub autoscaler: Option<AutoscalerConfig>,
    /// Execution mode for every replica session.
    pub mode: ExecMode,
    /// Record timelines + provenance traces for sanitizer audits.
    pub trace: bool,
    /// Simulated platform replicas run on.
    pub spec: PlatformSpec,
}

impl Default for FleetConfig {
    /// A small, always-valid smoke configuration: two static pools
    /// under join-shortest-queue.
    fn default() -> Self {
        FleetConfig {
            seed: 42,
            n_requests: 64,
            arrival_rate_rps: 100.0,
            shape: WorkloadShape::Poisson,
            policy: RouterPolicy::JoinShortestQueue,
            batch_window: DurationNs::from_millis(5),
            max_batch: 4,
            initial_pools: 2,
            replicas_per_pool: 2,
            queue_bound: UNBOUNDED,
            slo: DurationNs::from_millis(250),
            autoscaler: None,
            mode: ExecMode::Gpu,
            trace: false,
            spec: PlatformSpec::default(),
        }
    }
}

impl FleetConfig {
    /// Validates the arrival rate and the shape parameters (see
    /// [`WorkloadShape::validate`]), then every count a run needs at
    /// least one of: initial pools, replicas per pool, the batch
    /// capacity and the autoscaler's `min_pools`, which must not exceed
    /// its `max_pools`.
    ///
    /// # Errors
    ///
    /// Returns a [`RateError`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), RateError> {
        self.shape.validate(self.arrival_rate_rps)?;
        validate_count("initial pools", self.initial_pools)?;
        validate_count("replicas per pool", self.replicas_per_pool)?;
        validate_count("max batch", self.max_batch)?;
        if let Some(scaler) = &self.autoscaler {
            validate_count("autoscaler min pools", scaler.min_pools)?;
            if scaler.min_pools > scaler.max_pools {
                return Err(RateError {
                    what: "autoscaler min pools",
                    value: scaler.min_pools as f64,
                    reason: "above max pools",
                });
            }
        }
        Ok(())
    }
}

/// One dispatched batch, tagged with the pool that served it.
#[derive(Debug, Clone)]
pub struct FleetBatch {
    /// Fleet-wide id of the pool that served the batch.
    pub pool: usize,
    /// The underlying batch record.
    pub batch: ServedBatch,
}

/// Everything a fleet run produced: the report plus raw records, the
/// scale-decision audit trail, and every replica session for post-hoc
/// sanitizer audits.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Aggregated statistics.
    pub report: FleetReport,
    /// Per-request records of served requests, in arrival order.
    pub requests: Vec<ServedRequest>,
    /// Requests rejected by backpressure, in arrival order.
    pub shed: Vec<Request>,
    /// Per-batch service records, in dispatch order.
    pub batches: Vec<FleetBatch>,
    /// Scale decisions, in virtual-time order.
    pub scale_events: Vec<ScaleEvent>,
    /// Every replica session, pools in spawn order, slots in slot
    /// order within a pool.
    pub sessions: Vec<Executor>,
}

/// Everything a single-pool serving run produced: the report plus the
/// raw records and the replica sessions for post-hoc auditing.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Aggregated statistics of the run as a one-pool static fleet.
    pub report: FleetReport,
    /// Per-request records of served requests, in arrival order.
    pub requests: Vec<ServedRequest>,
    /// Requests rejected by backpressure, in arrival order.
    pub shed: Vec<Request>,
    /// Per-batch service records, in dispatch order.
    pub batches: Vec<ServedBatch>,
    /// One session executor per replica slot, in slot order. Audit
    /// them with `dgnn_analysis::audit` when tracing was enabled.
    pub sessions: Vec<Executor>,
}

/// Runs the fleet simulation to completion.
///
/// Each (model, request count) is built and run once per call; every
/// later service of it replays what that run priced (see
/// [`dgnn_device::Executor::tape`]). This relies on the rule of
/// [`ReplicaHandle`](dgnn_models::ReplicaHandle) that two builds are
/// bit-identical. A traced run, and a model served with a feature
/// cache, build and run every service: a replay would carry no trace
/// records, and cache contents change pricing.
///
/// # Panics
///
/// Panics on an empty mix, on a configuration [`FleetConfig::validate`]
/// rejects, or when a model service fails.
///
/// ```
/// use dgnn_datasets::{wikipedia, Scale};
/// use dgnn_models::{InferenceConfig, Jodie, ReplicaHandle};
/// use dgnn_serve::{serve_fleet, FleetConfig, ServedModel};
///
/// // A prototype that is never run: every service gets a clone of it.
/// let prototype = Jodie::new(wikipedia(Scale::Tiny, 11), 11);
/// let zoo = vec![ServedModel {
///     handle: ReplicaHandle::new("jodie", move || Box::new(prototype.clone())),
///     cfg: InferenceConfig::default().with_max_units(1),
///     weight: 1.0,
/// }];
/// let cfg = FleetConfig { n_requests: 6, initial_pools: 2, replicas_per_pool: 1, ..FleetConfig::default() };
/// let outcome = serve_fleet(&cfg, &zoo);
/// assert_eq!(outcome.report.served, 6);
/// assert!(outcome.report.replica_seconds > 0.0);
/// ```
pub fn serve_fleet(cfg: &FleetConfig, zoo: &[ServedModel]) -> FleetOutcome {
    let records = run(cfg, zoo, None);
    FleetOutcome {
        report: FleetReport::build(cfg, &records),
        requests: records.served,
        shed: records.shed,
        batches: records.batches,
        scale_events: records.scale_events,
        sessions: records.sessions,
    }
}

/// Runs the serving simulation to completion on one static pool of
/// `cfg.pool_size` replicas.
///
/// The run is a one-pool static fleet under Poisson arrivals, and its
/// [`FleetReport`] says so: policy `shortest_queue`, shape `poisson`,
/// one pool spawned, no scale events, replica-seconds equal to
/// `pool_size × makespan`, and SLO attainment measured against
/// `FleetConfig`'s default target of 250 ms.
///
/// # Panics
///
/// Panics on an empty mix, on a configuration [`ServeConfig::validate`]
/// rejects, or when a model service fails.
pub fn serve(cfg: &ServeConfig, zoo: &[ServedModel]) -> ServeOutcome {
    serve_one_pool(cfg, zoo, None)
}

/// Runs `cfg` as a one-pool static fleet under Poisson arrivals,
/// optionally threading live-ingestion state (entry point:
/// [`crate::serve_streaming`]).
pub(crate) fn serve_one_pool(
    cfg: &ServeConfig,
    zoo: &[ServedModel],
    streaming: Option<&mut StreamingState<'_>>,
) -> ServeOutcome {
    // With a single pool every policy places every request on it, and
    // the SLO only feeds the report; both keep their defaults.
    let fleet = FleetConfig {
        seed: cfg.seed,
        n_requests: cfg.n_requests,
        arrival_rate_rps: cfg.arrival_rate_rps,
        shape: WorkloadShape::Poisson,
        batch_window: cfg.batch_window,
        max_batch: cfg.max_batch,
        initial_pools: 1,
        replicas_per_pool: cfg.pool_size,
        queue_bound: cfg.queue_bound,
        autoscaler: None,
        mode: cfg.mode,
        trace: cfg.trace,
        spec: cfg.spec.clone(),
        ..FleetConfig::default()
    };
    let records = run(&fleet, zoo, streaming);
    ServeOutcome {
        report: FleetReport::build(&fleet, &records),
        requests: records.served,
        shed: records.shed,
        batches: records.batches.into_iter().map(|b| b.batch).collect(),
        sessions: records.sessions,
    }
}

/// The raw records of one event-loop run, from which its
/// [`FleetReport`] is built.
#[derive(Default)]
pub(crate) struct Records {
    /// Requests generated (offered load).
    pub offered: usize,
    /// Served requests, in arrival order.
    pub served: Vec<ServedRequest>,
    /// Requests rejected by backpressure, in arrival order.
    pub shed: Vec<Request>,
    /// Per-batch service records, in dispatch order.
    pub batches: Vec<FleetBatch>,
    /// Scale decisions, in virtual-time order.
    pub scale_events: Vec<ScaleEvent>,
    /// Provisioning phases, summed over every slot of every pool.
    pub provision: ServicePhases,
    /// Feature-cache counters summed over every replica session, split
    /// by tensor class.
    pub cache_by_class: ClassCacheStats,
    /// Each pool's `(spawned_at, retired_at)` lifetime, in spawn order.
    pub pool_spans: Vec<(DurationNs, Option<DurationNs>)>,
    /// Most pools routable at once.
    pub peak_pools: usize,
    /// Pools still routable when the run ended.
    pub final_pools: usize,
    /// Last service or provisioning completion.
    pub makespan: DurationNs,
    /// Every replica session, pools in spawn order, slots in slot order.
    pub sessions: Vec<Executor>,
}

/// Event kinds, in tie-break priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// A replica finished its service (or its provisioning).
    ReplicaFree { pool: usize, slot: usize },
    /// A request arrives at the router.
    Arrival(usize),
    /// A live graph event arrives for ingestion (streaming runs only).
    Ingest(usize),
    /// The window of `model`'s open batch in `pool` expires. It fires on
    /// nothing once capacity has closed that batch: the pool's open
    /// window then no longer holds this event's sequence number.
    BatchClose { pool: usize, model: usize },
}

impl Ev {
    fn priority(&self) -> u8 {
        match self {
            Ev::ReplicaFree { .. } => 0,
            Ev::Arrival(_) => 1,
            Ev::Ingest(_) => 2,
            Ev::BatchClose { .. } => 3,
        }
    }
}

/// Pending events, totally ordered by `(time, kind priority, sequence)`.
#[derive(Default)]
struct Agenda {
    events: BTreeMap<(u64, u8, u64), Ev>,
    /// Sequence number of the last event enqueued.
    seq: u64,
}

impl Agenda {
    /// Enqueues `ev` at `at` and returns its sequence number.
    fn push(&mut self, at: DurationNs, ev: Ev) -> u64 {
        self.seq += 1;
        self.events
            .insert((at.as_nanos(), ev.priority(), self.seq), ev);
        self.seq
    }
}

/// A closed batch waiting for a replica, within one pool.
#[derive(Debug)]
struct PendingBatch {
    model: usize,
    members: Vec<usize>,
    ready: DurationNs,
}

/// One pool plus its admission state and lifetime accounting.
struct PoolState {
    id: usize,
    pool: WarmPool,
    queues: Vec<VecDeque<usize>>,
    /// Per model, the sequence number of the `BatchClose` scheduled for
    /// its open batch, if one is open.
    open_window: Vec<Option<u64>>,
    ready: VecDeque<PendingBatch>,
    /// Admitted but not yet dispatched (model queues + ready members).
    queued: usize,
    spawned_at: DurationNs,
    retired_at: Option<DurationNs>,
    draining: bool,
}

impl PoolState {
    fn routable(&self) -> bool {
        !self.draining && self.retired_at.is_none()
    }

    /// A draining pool retires the instant it runs dry; from then on
    /// it accrues no replica-seconds.
    fn maybe_retire(&mut self, now: DurationNs) {
        if self.draining && self.retired_at.is_none() && self.queued == 0 && !self.pool.busy() {
            debug_assert!(self.ready.is_empty());
            self.retired_at = Some(now);
        }
    }
}

/// The state of one event-loop run, with one handler per event kind.
struct EventLoop<'a, 's> {
    cfg: &'a FleetConfig,
    zoo: &'a [ServedModel],
    requests: Vec<Request>,
    batcher: WindowBatcher,
    agenda: Agenda,
    pools: Vec<PoolState>,
    router: Router,
    autoscaler: Option<Autoscaler>,
    /// Every pool's services share one memo: a service's work depends
    /// only on its model and request count, never on pool or slot.
    memo: Memo,
    streaming: Option<&'a mut StreamingState<'s>>,
    records: Records,
}

impl<'a, 's> EventLoop<'a, 's> {
    /// Provisions the initial pools and enqueues every arrival and
    /// ingest.
    fn new(
        cfg: &'a FleetConfig,
        zoo: &'a [ServedModel],
        streaming: Option<&'a mut StreamingState<'s>>,
    ) -> Self {
        let weights: Vec<f64> = zoo.iter().map(|m| m.weight).collect();
        let requests = generate_shaped(
            cfg.seed,
            cfg.n_requests,
            cfg.arrival_rate_rps,
            &weights,
            &cfg.shape,
        );
        let mut state = EventLoop {
            cfg,
            zoo,
            batcher: WindowBatcher::new(cfg.batch_window.as_nanos(), cfg.max_batch),
            agenda: Agenda::default(),
            pools: Vec::new(),
            router: Router::new(cfg.policy, cfg.seed),
            autoscaler: cfg.autoscaler.map(Autoscaler::new),
            memo: Memo::new(zoo.len()),
            streaming,
            records: Records {
                offered: requests.len(),
                peak_pools: cfg.initial_pools,
                ..Records::default()
            },
            requests,
        };
        for _ in 0..cfg.initial_pools {
            state.spawn(DurationNs::ZERO);
        }
        for r in &state.requests {
            state.agenda.push(r.arrival, Ev::Arrival(r.id));
        }
        if let Some(stream) = state.streaming.as_deref() {
            for (i, &at) in stream.ingest_arrivals().iter().enumerate() {
                state.agenda.push(at, Ev::Ingest(i));
            }
        }
        state
    }

    /// Handles every event in order, then collects the records.
    fn run(mut self) -> Records {
        while let Some(((t, _, seq), ev)) = self.agenda.events.pop_first() {
            let now = DurationNs::from_nanos(t);
            match ev {
                Ev::Arrival(id) => self.arrival(now, id),
                Ev::Ingest(i) => self
                    .streaming
                    .as_deref_mut()
                    .expect("ingest events are only scheduled in streaming runs")
                    .ingest(i, now),
                Ev::BatchClose { pool, model } => {
                    if self.pools[pool].open_window[model] == Some(seq) {
                        self.close(now, pool, model);
                    }
                }
                Ev::ReplicaFree { pool, slot } => self.replica_free(now, pool, slot),
            }
        }
        self.finish()
    }

    /// Spawns a pool at `at`. Scale-out pricing: each replica pays
    /// context + model init before its first service, exactly like the
    /// t = 0 pools.
    fn spawn(&mut self, at: DurationNs) {
        let id = self.pools.len();
        let (pool, completions) = WarmPool::provision(
            self.cfg,
            self.zoo,
            &mut self.memo,
            &mut self.records.provision,
        );
        for (slot, done) in completions.into_iter().enumerate() {
            self.agenda
                .push(at + done, Ev::ReplicaFree { pool: id, slot });
        }
        self.pools.push(PoolState {
            id,
            pool,
            queues: vec![VecDeque::new(); self.zoo.len()],
            open_window: vec![None; self.zoo.len()],
            ready: VecDeque::new(),
            queued: 0,
            spawned_at: at,
            retired_at: None,
            draining: false,
        });
    }

    /// Scales the fleet if the autoscaler says so, then places request
    /// `id` and admits or sheds it.
    fn arrival(&mut self, now: DurationNs, id: usize) {
        let req = self.requests[id];
        // The autoscaler reads the fleet before placement, so a spawned
        // pool is routable for this very arrival.
        if let Some(scaler) = self.autoscaler.as_mut() {
            let routable = self.pools.iter().filter(|p| p.routable());
            let queued_total: usize = routable.clone().map(|p| p.queued).sum();
            let active = routable.count();
            match scaler.decide(now, queued_total, active) {
                Some(ScaleKind::Out) => {
                    self.spawn(now);
                    self.records.peak_pools = self.records.peak_pools.max(active + 1);
                }
                Some(ScaleKind::In) => {
                    // Drain the least-loaded routable pool, newest on
                    // ties.
                    if let Some(p) = self
                        .pools
                        .iter_mut()
                        .filter(|p| p.routable())
                        .min_by_key(|p| (p.queued, std::cmp::Reverse(p.id)))
                    {
                        p.draining = true;
                        p.maybe_retire(now);
                    }
                }
                None => {}
            }
        }

        let loads: Vec<PoolLoad> = self
            .pools
            .iter()
            .filter(|p| p.routable())
            .map(|p| PoolLoad {
                pool: p.id,
                queued: p.queued,
                resident: p.pool.holds(req.model),
            })
            .collect();
        let dest = self.router.place(&loads);
        let p = &mut self.pools[dest];
        if p.queued >= self.cfg.queue_bound {
            self.records.shed.push(req);
            return;
        }
        p.queued += 1;
        p.queues[req.model].push_back(id);
        let waiting = p.queues[req.model].len();
        if self.batcher.is_full(waiting) {
            // Capacity close: dispatchable immediately.
            self.close(now, dest, req.model);
        } else if waiting == 1 {
            // New anchor: schedule the window close.
            let deadline = DurationNs::from_nanos(self.batcher.deadline(now.as_nanos()));
            let close = Ev::BatchClose {
                pool: dest,
                model: req.model,
            };
            self.pools[dest].open_window[req.model] = Some(self.agenda.push(deadline, close));
        }
    }

    /// Moves up to one batch of `model`'s queue in `pool` into the
    /// pool's ready FIFO, then dispatches.
    fn close(&mut self, now: DurationNs, pool: usize, model: usize) {
        let p = &mut self.pools[pool];
        p.open_window[model] = None;
        let q = &mut p.queues[model];
        debug_assert!(!q.is_empty(), "closing an empty batch");
        let take = q.len().min(self.batcher.max_batch);
        p.ready.push_back(PendingBatch {
            model,
            members: q.drain(..take).collect(),
            ready: now,
        });
        self.dispatch(now, pool);
    }

    /// A replica finished: frees its slot, dispatches, and retires its
    /// pool if that drained it.
    fn replica_free(&mut self, now: DurationNs, pool: usize, slot: usize) {
        // Every service or provisioning completion passes through here,
        // so the last one is the makespan (a stale window event can
        // outlive it and must not stretch the clock).
        self.records.makespan = self.records.makespan.max(now);
        self.pools[pool].pool.mark_free(slot);
        self.dispatch(now, pool);
        self.pools[pool].maybe_retire(now);
    }

    /// Starts ready batches on the pool's free replicas.
    fn dispatch(&mut self, now: DurationNs, pool: usize) {
        loop {
            let p = &mut self.pools[pool];
            // Earliest-ready batch that can start now. Affinity can
            // block the head (its model's slot is busy) without blocking
            // later batches whose slots are free; within one model, ready
            // order is FIFO so requests never overtake each other.
            let Some((pos, slot)) = p
                .ready
                .iter()
                .enumerate()
                .find_map(|(i, b)| p.pool.pick(b.model).map(|slot| (i, slot)))
            else {
                return;
            };
            let batch = p.ready.remove(pos).expect("index from enumerate");
            // Streaming: the batch first pays host-side sampling on the
            // shared ingest clock (contending with live appends), reading
            // a snapshot capped at the events visible right now.
            let (sampling, staleness) = match self.streaming.as_deref_mut() {
                Some(state) => state.sample_batch(now, &batch.members, &self.requests),
                None => (DurationNs::ZERO, Vec::new()),
            };
            let batch_id = self.records.batches.len();
            let record = p.pool.service(
                slot,
                batch.model,
                self.zoo,
                batch.members.len(),
                batch_id as u64 + 1,
                &mut self.memo,
            );
            let completed = now + sampling + record.duration;
            p.queued -= batch.members.len();

            for (pos_in_batch, &id) in batch.members.iter().enumerate() {
                self.records.served.push(ServedRequest {
                    id,
                    model: batch.model,
                    arrival: self.requests[id].arrival,
                    batch: batch_id,
                    assembled: batch.ready,
                    started: now,
                    completed,
                    cold: record.cold,
                    staleness: staleness
                        .get(pos_in_batch)
                        .copied()
                        .unwrap_or(DurationNs::ZERO),
                });
            }
            self.records.batches.push(FleetBatch {
                pool,
                batch: ServedBatch {
                    model: batch.model,
                    requests: batch.members,
                    ready: batch.ready,
                    started: now,
                    completed,
                    cold: record.cold,
                    replica: slot,
                    phases: record.phases,
                    summary: record.summary,
                },
            });
            self.agenda.push(completed, Ev::ReplicaFree { pool, slot });
        }
    }

    /// Checks that nothing is left queued and collects the records.
    fn finish(self) -> Records {
        assert!(
            self.pools.iter().all(|p| p.queued == 0
                && p.ready.is_empty()
                && p.queues.iter().all(VecDeque::is_empty)),
            "serving loop terminated with work still queued"
        );
        let mut records = self.records;
        records.served.sort_by_key(|r| r.id);
        records.scale_events = self
            .autoscaler
            .map(|s| s.events().to_vec())
            .unwrap_or_default();
        records.final_pools = self.pools.iter().filter(|p| p.routable()).count();
        for p in self.pools {
            records.pool_spans.push((p.spawned_at, p.retired_at));
            accumulate_class_stats(&mut records.cache_by_class, &p.pool.cache_class_stats());
            records.sessions.extend(p.pool.into_sessions());
        }
        records
    }
}

/// The event loop behind every entry point.
fn run(
    cfg: &FleetConfig,
    zoo: &[ServedModel],
    streaming: Option<&mut StreamingState<'_>>,
) -> Records {
    assert!(!zoo.is_empty(), "model mix must not be empty");
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    EventLoop::new(cfg, zoo, streaming).run()
}
