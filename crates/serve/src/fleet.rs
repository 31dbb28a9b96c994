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
//!   with model affinity ([`crate::WarmPool::pick`]): a free slot
//!   holding its model (warm hit), waiting out a busy resident slot
//!   instead of evicting a peer, or the least-recently-used free slot
//!   when the model is resident nowhere (cold start).
//! * **Service**: the batch runs on the slot's session executor
//!   ([`crate::WarmPool::service`]); the slot is busy until the
//!   simulated service duration elapses.
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
//! Event ordering is total: keys are `(time, kind-priority, sequence)`
//! in one `BTreeMap`, with replica releases before arrivals before
//! graph ingests before batch closes at equal times (`ReplicaFree <
//! Arrival < Ingest < BatchClose`), so a freed slot is reusable by a
//! same-instant arrival, a same-instant ingest is visible to the batch
//! that closes then, and a zero-window batch closes after its own
//! arrival. No hash map participates in any decision — identical inputs
//! replay identical schedules bit for bit.

use std::collections::{BTreeMap, VecDeque};

use dgnn_device::{
    accumulate_class_stats, CacheStats, ClassCacheStats, DurationNs, ExecMode, Executor,
    PlatformSpec,
};
use dgnn_graph::WindowBatcher;
use dgnn_profile::ServicePhases;

use crate::autoscaler::{Autoscaler, AutoscalerConfig, ScaleEvent, ScaleKind};
use crate::pool::WarmPool;
use crate::report::{FleetReport, ServeReport, ServedBatch, ServedRequest};
use crate::router::{PoolLoad, Router, RouterPolicy};
use crate::streaming::StreamingState;
use crate::workload::{generate_shaped, RateError, Request, WorkloadShape};
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
    /// [`WorkloadShape::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a [`RateError`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), RateError> {
        self.shape.validate(self.arrival_rate_rps)
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
    /// Aggregated statistics.
    pub report: ServeReport,
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

/// The raw records of one event-loop run, from which both
/// [`ServeReport`] and [`FleetReport`] are built.
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
    /// Services that paid a model swap, fleet-wide.
    pub cold_services: usize,
    /// Feature-cache counters summed over every replica session.
    pub cache: CacheStats,
    /// The same counters split by tensor class.
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
    /// A batch window expires. The token names the open window it was
    /// scheduled for, so it fires on nothing once that batch has
    /// already closed by capacity.
    BatchClose(u64),
}

impl Ev {
    fn priority(&self) -> u8 {
        match self {
            Ev::ReplicaFree { .. } => 0,
            Ev::Arrival(_) => 1,
            Ev::Ingest(_) => 2,
            Ev::BatchClose(_) => 3,
        }
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
    open_token: Vec<Option<u64>>,
    ready: VecDeque<PendingBatch>,
    /// Admitted but not yet dispatched (model queues + ready members).
    queued: usize,
    /// Replicas currently busy (provisioning or serving).
    busy: usize,
    spawned_at: DurationNs,
    retired_at: Option<DurationNs>,
    draining: bool,
}

impl PoolState {
    fn routable(&self) -> bool {
        !self.draining && self.retired_at.is_none()
    }

    fn holds(&self, model: usize) -> bool {
        (0..self.pool.len()).any(|i| self.pool.replica(i).resident() == Some(model))
    }

    /// A draining pool retires the instant it runs dry; from then on
    /// it accrues no replica-seconds.
    fn maybe_retire(&mut self, now: DurationNs) {
        if self.draining && self.retired_at.is_none() && self.queued == 0 && self.busy == 0 {
            debug_assert!(self.ready.is_empty());
            self.retired_at = Some(now);
        }
    }
}

/// Runs the fleet simulation to completion.
///
/// # Panics
///
/// Panics on an invalid configuration (empty mix, zero pools or
/// replicas, a rate or shape [`FleetConfig::validate`] rejects) or when
/// a model service fails.
///
/// ```
/// use dgnn_datasets::{wikipedia, Scale};
/// use dgnn_models::{InferenceConfig, Jodie, JodieConfig, ReplicaHandle};
/// use dgnn_serve::{serve_fleet, FleetConfig, ServedModel};
///
/// let data = wikipedia(Scale::Tiny, 11);
/// let zoo = vec![ServedModel {
///     handle: ReplicaHandle::new("jodie", move || {
///         Box::new(Jodie::new(data.clone(), JodieConfig::default(), 11))
///     }),
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
/// # Panics
///
/// Panics on an invalid configuration (empty mix, zero pool/rate) or
/// when a model service fails.
pub fn serve(cfg: &ServeConfig, zoo: &[ServedModel]) -> ServeOutcome {
    serve_one_pool(cfg, zoo, None)
}

/// Runs `cfg` as a one-pool static fleet under Poisson arrivals,
/// optionally threading live-ingestion state (entry point:
/// [`crate::serve_streaming`]).
pub(crate) fn serve_one_pool(
    cfg: &ServeConfig,
    zoo: &[ServedModel],
    streaming: Option<&mut StreamingState>,
) -> ServeOutcome {
    // With a single pool every policy places every request on it, and
    // the SLO only feeds the fleet report; both keep their defaults.
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
        report: ServeReport::build(cfg, &records),
        requests: records.served,
        shed: records.shed,
        batches: records.batches.into_iter().map(|b| b.batch).collect(),
        sessions: records.sessions,
    }
}

/// The event loop behind every entry point.
fn run(
    cfg: &FleetConfig,
    zoo: &[ServedModel],
    mut streaming: Option<&mut StreamingState>,
) -> Records {
    assert!(!zoo.is_empty(), "model mix must not be empty");
    assert!(cfg.initial_pools >= 1, "fleet needs at least one pool");
    assert!(
        cfg.replicas_per_pool >= 1,
        "pools need at least one replica"
    );
    let weights: Vec<f64> = zoo.iter().map(|m| m.weight).collect();
    let requests = generate_shaped(
        cfg.seed,
        cfg.n_requests,
        cfg.arrival_rate_rps,
        &weights,
        &cfg.shape,
    );
    let batcher = WindowBatcher::new(cfg.batch_window.as_nanos(), cfg.max_batch);
    let mut router = Router::new(cfg.policy, cfg.seed);
    let mut autoscaler = cfg.autoscaler.map(Autoscaler::new);

    let mut events: BTreeMap<(u64, u8, u64), Ev> = BTreeMap::new();
    let mut seq = 0u64;
    let push = |events: &mut BTreeMap<(u64, u8, u64), Ev>, seq: &mut u64, t: DurationNs, ev: Ev| {
        *seq += 1;
        events.insert((t.as_nanos(), ev.priority(), *seq), ev);
    };

    let mut pools: Vec<PoolState> = Vec::new();
    let spawn = |pools: &mut Vec<PoolState>,
                 events: &mut BTreeMap<(u64, u8, u64), Ev>,
                 seq: &mut u64,
                 at: DurationNs| {
        let id = pools.len();
        let mut pool = WarmPool::new(cfg.replicas_per_pool, cfg.spec.clone(), cfg.mode, cfg.trace);
        // Scale-out pricing: each replica pays context + model init
        // before its first service, exactly like the t = 0 pools.
        for (slot, done) in pool.provision(zoo).into_iter().enumerate() {
            push(events, seq, at + done, Ev::ReplicaFree { pool: id, slot });
        }
        pools.push(PoolState {
            id,
            pool,
            queues: vec![VecDeque::new(); zoo.len()],
            open_token: vec![None; zoo.len()],
            ready: VecDeque::new(),
            queued: 0,
            busy: cfg.replicas_per_pool,
            spawned_at: at,
            retired_at: None,
            draining: false,
        });
    };
    for _ in 0..cfg.initial_pools {
        spawn(&mut pools, &mut events, &mut seq, DurationNs::ZERO);
    }
    for r in &requests {
        push(&mut events, &mut seq, r.arrival, Ev::Arrival(r.id));
    }
    if let Some(state) = streaming.as_deref() {
        for (i, &at) in state.ingest_arrivals().iter().enumerate() {
            push(&mut events, &mut seq, at, Ev::Ingest(i));
        }
    }

    let mut served: Vec<ServedRequest> = Vec::new();
    let mut shed: Vec<Request> = Vec::new();
    let mut batches: Vec<FleetBatch> = Vec::new();
    let mut dispatch_seq = 0u64;
    let mut peak_pools = cfg.initial_pools;
    let mut makespan = DurationNs::ZERO;

    while let Some(((t, _, _), ev)) = events.pop_first() {
        let now = DurationNs::from_nanos(t);
        match ev {
            Ev::Arrival(id) => {
                let req = requests[id];
                // The autoscaler reads the fleet before placement, so a
                // spawned pool is routable for this very arrival.
                if let Some(scaler) = autoscaler.as_mut() {
                    let queued_total: usize = pools
                        .iter()
                        .filter(|p| p.routable())
                        .map(|p| p.queued)
                        .sum();
                    let active = pools.iter().filter(|p| p.routable()).count();
                    match scaler.decide(now, queued_total, active) {
                        Some(ScaleKind::Out) => {
                            spawn(&mut pools, &mut events, &mut seq, now);
                            peak_pools = peak_pools.max(active + 1);
                        }
                        Some(ScaleKind::In) => {
                            // Drain the least-loaded routable pool,
                            // newest on ties.
                            if let Some(pid) = pools
                                .iter()
                                .filter(|p| p.routable())
                                .min_by_key(|p| (p.queued, std::cmp::Reverse(p.id)))
                                .map(|p| p.id)
                            {
                                pools[pid].draining = true;
                                pools[pid].maybe_retire(now);
                            }
                        }
                        None => {}
                    }
                }

                let loads: Vec<PoolLoad> = pools
                    .iter()
                    .filter(|p| p.routable())
                    .map(|p| PoolLoad {
                        pool: p.id,
                        queued: p.queued,
                        resident: p.holds(req.model),
                    })
                    .collect();
                let dest = router.place(&loads);
                let p = &mut pools[dest];
                if p.queued >= cfg.queue_bound {
                    shed.push(req);
                    continue;
                }
                p.queued += 1;
                p.queues[req.model].push_back(id);
                if batcher.is_full(p.queues[req.model].len()) {
                    // Capacity close: dispatchable immediately.
                    p.open_token[req.model] = None;
                    close_batch(p, req.model, now, &batcher);
                    try_dispatch(
                        now,
                        zoo,
                        &mut pools[dest],
                        &requests,
                        &mut served,
                        &mut batches,
                        &mut dispatch_seq,
                        &mut events,
                        &mut seq,
                        streaming.as_deref_mut(),
                    );
                } else if p.queues[req.model].len() == 1 {
                    // New anchor: schedule the window close.
                    seq += 1;
                    let token = seq;
                    p.open_token[req.model] = Some(token);
                    let deadline = DurationNs::from_nanos(batcher.deadline(now.as_nanos()));
                    let ev = Ev::BatchClose(token);
                    events.insert((deadline.as_nanos(), ev.priority(), token), ev);
                }
            }
            Ev::Ingest(i) => streaming
                .as_deref_mut()
                .expect("ingest events are only scheduled in streaming runs")
                .ingest(i, now),
            Ev::BatchClose(token) => {
                let Some((pool, model)) = pools.iter().find_map(|p| {
                    let model = p.open_token.iter().position(|&t| t == Some(token))?;
                    Some((p.id, model))
                }) else {
                    continue; // stale: already closed by capacity
                };
                pools[pool].open_token[model] = None;
                close_batch(&mut pools[pool], model, now, &batcher);
                try_dispatch(
                    now,
                    zoo,
                    &mut pools[pool],
                    &requests,
                    &mut served,
                    &mut batches,
                    &mut dispatch_seq,
                    &mut events,
                    &mut seq,
                    streaming.as_deref_mut(),
                );
            }
            Ev::ReplicaFree { pool, slot } => {
                // Every service or provisioning completion passes
                // through here, so the last one is the makespan (a
                // stale window token can outlive it and must not
                // stretch the clock).
                makespan = makespan.max(now);
                pools[pool].pool.mark_free(slot);
                pools[pool].busy -= 1;
                try_dispatch(
                    now,
                    zoo,
                    &mut pools[pool],
                    &requests,
                    &mut served,
                    &mut batches,
                    &mut dispatch_seq,
                    &mut events,
                    &mut seq,
                    streaming.as_deref_mut(),
                );
                pools[pool].maybe_retire(now);
            }
        }
    }

    assert!(
        pools.iter().all(|p| p.queued == 0
            && p.ready.is_empty()
            && p.queues.iter().all(VecDeque::is_empty)),
        "serving loop terminated with work still queued"
    );

    served.sort_by_key(|r| r.id);
    let mut records = Records {
        offered: requests.len(),
        served,
        shed,
        batches,
        scale_events: autoscaler
            .as_ref()
            .map(|s| s.events().to_vec())
            .unwrap_or_default(),
        pool_spans: pools.iter().map(|p| (p.spawned_at, p.retired_at)).collect(),
        peak_pools,
        final_pools: pools.iter().filter(|p| p.routable()).count(),
        makespan,
        ..Records::default()
    };
    for p in pools {
        records.provision.accumulate(&p.pool.provision_phases());
        records.cold_services += p.pool.cold_starts();
        records.cache.accumulate(&p.pool.cache_stats());
        accumulate_class_stats(&mut records.cache_by_class, &p.pool.cache_class_stats());
        records.sessions.extend(p.pool.into_sessions());
    }
    records
}

/// Drains up to one batch from a pool's model queue into its ready
/// FIFO.
fn close_batch(p: &mut PoolState, model: usize, now: DurationNs, batcher: &WindowBatcher) {
    let q = &mut p.queues[model];
    debug_assert!(!q.is_empty(), "closing an empty batch");
    let take = q.len().min(batcher.max_batch);
    let members: Vec<usize> = q.drain(..take).collect();
    p.ready.push_back(PendingBatch {
        model,
        members,
        ready: now,
    });
}

/// Starts ready batches on the pool's free replicas.
#[allow(clippy::too_many_arguments)] // event-loop state is deliberately flat
fn try_dispatch(
    now: DurationNs,
    zoo: &[ServedModel],
    p: &mut PoolState,
    requests: &[Request],
    served: &mut Vec<ServedRequest>,
    batches: &mut Vec<FleetBatch>,
    dispatch_seq: &mut u64,
    events: &mut BTreeMap<(u64, u8, u64), Ev>,
    seq: &mut u64,
    mut streaming: Option<&mut StreamingState>,
) {
    // Earliest-ready batch that can start now. Affinity can block the
    // head (its model's slot is busy) without blocking later batches
    // whose slots are free; within one model, ready order is FIFO so
    // requests never overtake each other.
    while let Some((pos, slot)) = p
        .ready
        .iter()
        .enumerate()
        .find_map(|(i, b)| p.pool.pick(b.model).map(|(slot, _cold)| (i, slot)))
    {
        let batch = p.ready.remove(pos).expect("index from enumerate");
        *dispatch_seq += 1;
        // Streaming: the batch first pays host-side sampling on the
        // shared ingest clock (contending with live appends), reading a
        // snapshot capped at the events visible right now.
        let (sampling, staleness) = match streaming.as_deref_mut() {
            Some(state) => state.sample_batch(now, &batch.members, requests),
            None => (DurationNs::ZERO, Vec::new()),
        };
        let record = p
            .pool
            .service(slot, batch.model, zoo, batch.members.len(), *dispatch_seq);
        let completed = now + sampling + record.duration;
        p.queued -= batch.members.len();
        p.busy += 1;

        let batch_id = batches.len();
        for (pos_in_batch, &id) in batch.members.iter().enumerate() {
            served.push(ServedRequest {
                id,
                model: batch.model,
                arrival: requests[id].arrival,
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
        batches.push(FleetBatch {
            pool: p.id,
            batch: ServedBatch {
                model: batch.model,
                requests: batch.members,
                ready: batch.ready,
                started: now,
                completed,
                cold: record.cold,
                replica: record.replica,
                phases: record.phases,
                summary: record.summary,
            },
        });
        let ev = Ev::ReplicaFree { pool: p.id, slot };
        *seq += 1;
        events.insert((completed.as_nanos(), ev.priority(), *seq), ev);
    }
}
