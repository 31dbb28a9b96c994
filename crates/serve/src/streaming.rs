//! Streaming serving: queries race live graph ingestion.
//!
//! The offline serving loop treats the graph as frozen. Real DGNN
//! deployments do not get that luxury: edge events keep arriving while
//! queries are in flight, and the host must split its time between
//! *ingesting* (appending to the delta log, updating TGN-style node
//! memory, periodically compacting) and *sampling* for queries. This
//! module wires that contention into the discrete-event loop:
//!
//! * a seeded Poisson **ingest stream** ([`generate_ingest`]) assigns a
//!   virtual arrival instant to every event of a
//!   [`dgnn_graph::EventStream`];
//! * one shared **ingest executor** (a Host-lane session clock) prices
//!   every append, memory update, compaction *and* every query's
//!   neighbor sampling — ingestion and sampling contend for the same
//!   virtual core budget, so a burst of events delays queries and vice
//!   versa;
//! * each dispatched batch samples from a [`StreamingAdjacency`]
//!   snapshot capped at the events whose append work *completed* by the
//!   read's start ([`StreamingAdjacency::view_prefix`]), and logs
//!   `GraphAppend`/`GraphSample` provenance so `dgnn-analysis` RULE7
//!   can prove the run raced nothing;
//! * every served request carries a **staleness** measurement: the
//!   virtual time between the last ingest event its snapshot exposed
//!   and its own arrival (zero when nothing that had arrived was
//!   missing).
//!
//! The **frozen baseline** ([`StreamingConfig::frozen`]) builds the
//! whole graph before serving starts: zero staleness, no ingest
//! contention — the reference column for the freshness-vs-latency
//! tradeoff in `BENCH_streaming.json`.

use dgnn_device::{DurationNs, ExecMode, Executor, HostWork};
use dgnn_graph::{
    EventStream, NeighborSampler, SampleCost, SampleStrategy, StreamingAdjacency, TemporalEvent,
};
use dgnn_models::IngestMemory;
use dgnn_tensor::TensorRng;

use crate::fleet::{serve_one_pool, ServeOutcome};
use crate::workload::{exp_gap_ns, validate_count, validate_rate, RateError, Request};
use crate::{ServeConfig, ServedModel};

/// Identity of the shared streaming store in provenance traces.
const STORE_ID: u64 = 1;
/// Row width of the TGN-style node memory updated at ingest time.
const MEMORY_DIM: usize = 32;
/// Neighbors sampled per hop for each query.
const QUERY_NEIGHBORS: usize = 10;
/// Sampling hops per query.
const QUERY_HOPS: usize = 2;

/// Configuration of the live-ingestion side of a streaming run.
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// The edge events to ingest, in dataset time order.
    pub stream: EventStream,
    /// Expected ingest arrivals per simulated second.
    pub ingest_rate_eps: f64,
    /// Delta-log size at which the store compacts (see
    /// [`StreamingAdjacency`]).
    pub compaction_threshold: usize,
    /// Build the full graph before serving starts instead of ingesting
    /// live: the zero-staleness, zero-contention baseline.
    pub frozen: bool,
}

impl StreamingConfig {
    /// A live run over the given stream at 2 000 arrivals per second,
    /// compacting every 256 events. Every run samples 2 hops of 10
    /// neighbors per query and updates a 32-wide TGN-style node memory
    /// per ingested event.
    pub fn new(stream: EventStream) -> Self {
        StreamingConfig {
            stream,
            ingest_rate_eps: 2_000.0,
            compaction_threshold: 256,
            frozen: false,
        }
    }

    /// Checks the compaction threshold, then the ingest rate, before
    /// they reach the panicking store and generators (frozen runs never
    /// generate arrivals, so any rate is acceptable there).
    ///
    /// # Errors
    ///
    /// Returns the typed [`RateError`] for a zero `compaction_threshold`,
    /// or for a zero, negative, non-finite or degenerately small
    /// `ingest_rate_eps`.
    pub fn validate(&self) -> Result<(), RateError> {
        validate_count("compaction threshold", self.compaction_threshold)?;
        if self.frozen {
            return Ok(());
        }
        validate_rate("ingest rate", self.ingest_rate_eps)
    }
}

/// Assigns a strictly increasing virtual arrival instant to each of `n`
/// ingest events: exponential inter-arrival gaps at `rate_eps` expected
/// events per simulated second, inverse-transform sampled from a seeded
/// RNG and rounded to integer (≥ 1) nanoseconds.
///
/// The RNG stream is decorrelated from the request-arrival stream of
/// [`crate::generate_shaped`] by a distinct seed mix, so ingest and
/// query processes are independent Poisson processes.
///
/// # Panics
///
/// Panics when `rate_eps` fails [`crate::workload::validate_rate`];
/// call [`StreamingConfig::validate`] first to get the typed
/// [`crate::workload::RateError`] instead.
pub fn generate_ingest(seed: u64, n: usize, rate_eps: f64) -> Vec<DurationNs> {
    if let Err(e) = validate_rate("ingest rate", rate_eps) {
        panic!("{e}");
    }
    let mut rng = TensorRng::seed(seed.wrapping_mul(0x94d0_49bb_1331_11eb) ^ 0x1963);
    let mut t_ns = 0u64;
    (0..n)
        .map(|_| {
            t_ns += exp_gap_ns(&mut rng, rate_eps);
            DurationNs::from_nanos(t_ns)
        })
        .collect()
}

/// Live state threaded through the serving event loop.
///
/// Owns the delta-log store, the serving-path node memory, and the
/// ingest executor whose Host lane both ingestion and query sampling
/// are priced on. It borrows the stream it ingests: the store's log
/// holds every ingested event.
#[derive(Debug)]
pub(crate) struct StreamingState<'a> {
    store: StreamingAdjacency,
    memory: IngestMemory,
    ingest: Executor,
    sampler: NeighborSampler,
    events: &'a [TemporalEvent],
    /// Virtual arrival instant per event (empty in frozen mode).
    arrivals: Vec<DurationNs>,
    /// Instant each ingested event's append work completed (monotone).
    visible_at: Vec<DurationNs>,
    frozen: bool,
}

impl<'a> StreamingState<'a> {
    /// Builds the streaming state for one run. In frozen mode the whole
    /// stream is ingested (and node memory advanced) offline at t = 0.
    ///
    /// # Panics
    ///
    /// Panics when the stream is malformed (unsorted, out-of-bounds
    /// nodes) or the compaction threshold is zero.
    pub fn new(scfg: &'a StreamingConfig, cfg: &ServeConfig) -> Self {
        let events = scfg.stream.events();
        let n_nodes = scfg.stream.n_nodes();
        let mut ingest = Executor::new(cfg.spec.clone(), ExecMode::CpuOnly);
        if cfg.trace {
            ingest.enable_tracing();
        }
        let mut memory = IngestMemory::new(n_nodes, MEMORY_DIM, cfg.seed);
        let (store, arrivals, visible_at) = if scfg.frozen {
            // Offline build: the store and memory reflect the full
            // stream before the clock starts; nothing arrives live.
            let store = StreamingAdjacency::from_stream(&scfg.stream, scfg.compaction_threshold);
            for (i, ev) in events.iter().enumerate() {
                memory.apply(ev);
                ingest.trace_graph_append(STORE_ID, i, ev.time.to_bits(), DurationNs::ZERO);
            }
            let visible = vec![DurationNs::ZERO; events.len()];
            (store, Vec::new(), visible)
        } else {
            let store = StreamingAdjacency::new(n_nodes, scfg.compaction_threshold);
            let arrivals = generate_ingest(cfg.seed, events.len(), scfg.ingest_rate_eps);
            (store, arrivals, Vec::new())
        };
        StreamingState {
            store,
            memory,
            ingest,
            sampler: NeighborSampler::new(SampleStrategy::MostRecent, cfg.seed),
            events,
            arrivals,
            visible_at,
            frozen: scfg.frozen,
        }
    }

    /// Ingest arrival instants, in event order (empty in frozen mode).
    pub(crate) fn ingest_arrivals(&self) -> &[DurationNs] {
        &self.arrivals
    }

    /// Ingests event `i` arriving at `now`: prices the append, the node
    /// memory update and any triggered compaction as Host-lane work on
    /// the shared ingest clock; the event becomes visible to samplers
    /// when that work completes.
    pub(crate) fn ingest(&mut self, i: usize, now: DurationNs) {
        assert_eq!(i, self.store.total_events(), "ingest out of order");
        let ev = self.events[i];
        self.ingest.advance_to(now);
        let receipt = self
            .store
            .append(ev)
            .expect("stream events were validated at construction");
        let mem_cost = self.memory.apply(&ev);
        self.ingest.scope("ingest", |ex| {
            ex.host(HostWork {
                label: "graph_append",
                ops: receipt.cost.ops + mem_cost.ops,
                seq_bytes: receipt.cost.seq_bytes + mem_cost.seq_bytes,
                irregular_bytes: receipt.cost.irregular_bytes + mem_cost.irregular_bytes,
                parallelism: 1,
            });
            if let Some(c) = receipt.compaction {
                ex.host(HostWork {
                    label: "graph_compact",
                    ops: c.ops,
                    seq_bytes: c.seq_bytes,
                    irregular_bytes: c.irregular_bytes,
                    parallelism: 1,
                });
            }
        });
        let visible = self.ingest.now();
        self.ingest
            .trace_graph_append(STORE_ID, i, ev.time.to_bits(), visible);
        self.visible_at.push(visible);
    }

    /// Samples for one dispatched batch at `now`. Returns the host-side
    /// sampling latency (added to the batch's service span) and the
    /// per-member staleness, in `members` order.
    ///
    /// The snapshot exposes exactly the events whose append work
    /// completed by the read's start — the visibility watermark RULE7
    /// certifies — and each member's root node is a deterministic
    /// function of its request id.
    pub(crate) fn sample_batch(
        &mut self,
        now: DurationNs,
        members: &[usize],
        requests: &[Request],
    ) -> (DurationNs, Vec<DurationNs>) {
        self.ingest.advance_to(now);
        let start = self.ingest.now();
        let visible = self.visible_at.partition_point(|&v| v <= start);
        self.ingest.trace_graph_sample(STORE_ID, visible, start);
        let view = self.store.view_prefix(visible);
        let n_nodes = self.store.n_nodes();
        let fanout = [QUERY_NEIGHBORS; QUERY_HOPS];
        // An empty store (a query dispatched before the first ingest, or
        // a degenerate zero-node stream) has nothing to sample: the
        // request is served over the empty snapshot at zero sampling
        // cost instead of dividing by zero below.
        let cost = if n_nodes > 0 {
            let roots: Vec<(usize, f64)> = members
                .iter()
                .map(|&id| ((id.wrapping_mul(0x9e37) ^ 0x79b9) % n_nodes, f64::INFINITY))
                .collect();
            self.sampler.sample_khop_batch(&view, &roots, &fanout).1
        } else {
            SampleCost::default()
        };
        self.ingest.scope("stream_sample", |ex| {
            ex.host(HostWork {
                label: "stream_sample",
                ops: cost.ops,
                seq_bytes: 0,
                irregular_bytes: cost.irregular_bytes,
                parallelism: members.len() as u64,
            });
        });
        let extra = self.ingest.now() - start;

        // Staleness: virtual time between the last ingest event the
        // sampled snapshot exposed and the request's arrival — how old
        // the freshest served data was from the requester's viewpoint.
        // Zero when the watermark had already passed the arrival (data
        // at least as fresh as the request), and zero by definition in
        // frozen mode, where nothing arrives during serving.
        let watermark = visible
            .checked_sub(1)
            .and_then(|last| self.arrivals.get(last))
            .copied()
            .unwrap_or(DurationNs::ZERO);
        let staleness = members
            .iter()
            .map(|&id| {
                if self.frozen {
                    DurationNs::ZERO
                } else {
                    requests[id].arrival.saturating_sub(watermark)
                }
            })
            .collect();
        (extra, staleness)
    }
}

/// Everything a streaming serving run produced.
#[derive(Debug)]
pub struct StreamingOutcome {
    /// The serving outcome: report (with staleness), raw records, and
    /// per-replica sessions.
    pub serve: ServeOutcome,
    /// The shared ingest/sampling session, for RULE7 audits.
    pub ingest_session: Executor,
    /// Events ingested over the run.
    pub ingested: usize,
    /// Compactions the delta log triggered.
    pub compactions: usize,
    /// Checksum of the final node-memory state (determinism witness).
    pub memory_checksum: u64,
}

/// Runs the serving simulation with live graph ingestion racing the
/// query stream (or against a frozen pre-built graph when
/// [`StreamingConfig::frozen`] is set).
///
/// # Panics
///
/// Panics on an invalid configuration, exactly as [`crate::serve`].
pub fn serve_streaming(
    cfg: &ServeConfig,
    scfg: &StreamingConfig,
    zoo: &[ServedModel],
) -> StreamingOutcome {
    let mut state = StreamingState::new(scfg, cfg);
    let serve = serve_one_pool(cfg, zoo, Some(&mut state));
    StreamingOutcome {
        serve,
        ingested: state.store.total_events(),
        compactions: state.store.compactions(),
        memory_checksum: state.memory.checksum(),
        ingest_session: state.ingest,
    }
}
