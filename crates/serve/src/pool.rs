//! The warm pool: pre-initialized replica sessions that amortize GPU
//! warm-up across requests.
//!
//! The paper's §4.4 bottleneck is that context/model initialization for
//! TGAT costs ≈ 86× one mini-batch — paid once per process in the
//! profiled frameworks, and therefore catastrophic if every request
//! were served by a fresh process. The pool models the mitigation the
//! paper proposes but does not build: each replica slot owns one
//! long-lived [`Executor`] session whose CUDA context is initialized at
//! provisioning time and whose resident model's weights stay on the
//! device between requests.
//!
//! * **Provisioning** (pool start-up): every slot pays context init +
//!   model init once, before the first request is admitted.
//! * **Warm hit**: a request for the slot's resident model pays only
//!   per-run activation allocation (the batch-dependent Table 2
//!   component) plus inference.
//! * **Cold start** (eviction): a request for a model the pool does not
//!   hold resident evicts the least-recently-used free slot — the old
//!   weights are released and the new model's `model_init` is paid
//!   inside the request's service time.
//!
//! Every service runs a fresh model *struct* from its
//! [`ReplicaHandle`]: a clone of a prototype that is never run, sharing
//! only immutable data with it. What a service prices and computes
//! therefore depends only on its model and its batch's request count,
//! and every pool of a run shares one [`Memo`] of it. A mix entry's
//! parameter sizes, which model init, eviction and provisioning price,
//! are read once, from its first build. The first service of a (model,
//! request count) builds the model and tapes its `infer`
//! ([`Executor::tape`]), and every later service prices its warm-up for
//! real, then replays the tape ([`Executor::replay`]) — no build, no
//! tensor math, the same events, scopes, clock and checksum. Traced and
//! feature-cached sessions cannot be taped, so they build and run every
//! service.
//!
//! [`ReplicaHandle`]: dgnn_models::ReplicaHandle

use std::collections::BTreeMap;

use dgnn_device::{accumulate_class_stats, ClassCacheStats, DurationNs, Executor, Tape};
use dgnn_models::{DgnnModel, RunSummary};
use dgnn_profile::ServicePhases;

use crate::{FleetConfig, ServedModel};

/// A mix entry's parameter sizes: what its model init prices and its
/// eviction frees.
#[derive(Debug, Clone, Copy)]
struct Params {
    bytes: u64,
    tensors: u64,
}

impl Params {
    fn of(model: &dyn DgnnModel) -> Self {
        Params {
            bytes: model.param_bytes(),
            tensors: model.param_tensors(),
        }
    }
}

/// What the first service of one key left for every later one: its
/// activation bytes, its summary and the tape of its `infer`.
#[derive(Debug)]
struct Taped {
    activation_bytes: u64,
    summary: RunSummary,
    tape: Tape,
}

/// What one serving run knows about its mix, shared by every pool:
/// each entry's parameter sizes, from the first build of that entry,
/// and each (mix index, requests in the batch) key's taped service.
#[derive(Debug)]
pub(crate) struct Memo {
    params: Vec<Option<Params>>,
    taped: BTreeMap<(usize, usize), Taped>,
}

impl Memo {
    /// An empty memo for a mix of `entries` models.
    pub fn new(entries: usize) -> Self {
        Memo {
            params: vec![None; entries],
            taped: BTreeMap::new(),
        }
    }

    /// Sizes of an entry some build has already read.
    fn params(&self, model_idx: usize) -> Params {
        self.params[model_idx].expect("an entry's first build sizes it")
    }
}

/// One replica slot: a long-lived executor session plus residence
/// bookkeeping.
#[derive(Debug)]
struct Replica {
    /// Slot id (stable, 0-based).
    id: usize,
    session: Executor,
    /// Mix index of the model whose weights are resident.
    resident: usize,
    busy: bool,
    last_used: u64,
}

/// Result of one service executed on a replica.
#[derive(Debug, Clone)]
pub(crate) struct ServiceRecord {
    /// Whether the service paid a model swap (cold start).
    pub cold: bool,
    /// Simulated service duration (warm-up + inference makespan).
    pub duration: DurationNs,
    /// Busy-time phase decomposition of the service span.
    pub phases: ServicePhases,
    /// The model-reported inference summary.
    pub summary: RunSummary,
}

/// A fixed-size pool of warm replica sessions.
#[derive(Debug)]
pub(crate) struct WarmPool {
    replicas: Vec<Replica>,
}

impl WarmPool {
    /// Provisions `cfg.replicas_per_pool` fresh sessions before the pool
    /// opens: slot `i` gets model `i % zoo.len()` — context init plus
    /// model init, the one-time warm-up of §4.4, paid up front instead
    /// of inside any request's latency. An entry no build has sized yet
    /// is built once here to read its sizes. Adds the phases paid to
    /// `phases` and returns each slot's provisioning completion time
    /// (slots provision concurrently from their spawn); the slots stay
    /// marked busy until then, so the caller must schedule their
    /// release.
    pub fn provision(
        cfg: &FleetConfig,
        zoo: &[ServedModel],
        memo: &mut Memo,
        phases: &mut ServicePhases,
    ) -> (Self, Vec<DurationNs>) {
        assert!(!zoo.is_empty(), "cannot provision an empty model mix");
        let mut replicas = Vec::with_capacity(cfg.replicas_per_pool);
        let mut completions = Vec::with_capacity(cfg.replicas_per_pool);
        for id in 0..cfg.replicas_per_pool {
            let mut session = Executor::new(cfg.spec.clone(), cfg.mode);
            if cfg.trace {
                session.enable_tracing();
            }
            let resident = id % zoo.len();
            let p = *memo.params[resident]
                .get_or_insert_with(|| Params::of(zoo[resident].handle.build().as_ref()));
            completions.push(session.scope("provision", |ex| {
                ex.model_init(p.bytes, p.tensors);
                ex.now()
            }));
            // Provisioning is the session's only work so far.
            phases.accumulate(&ServicePhases::from_events(session.timeline().events()));
            replicas.push(Replica {
                id,
                session,
                resident,
                busy: true,
                last_used: 0,
            });
        }
        (WarmPool { replicas }, completions)
    }

    /// Whether any slot holds `model`'s weights.
    pub fn holds(&self, model: usize) -> bool {
        self.replicas.iter().any(|r| r.resident == model)
    }

    /// Whether any slot is provisioning or serving.
    pub fn busy(&self) -> bool {
        self.replicas.iter().any(|r| r.busy)
    }

    /// Picks a slot for `model` with model affinity:
    ///
    /// 1. a *free* slot already holding the model → warm hit (smallest
    ///    id wins ties);
    /// 2. the model resident only on *busy* slots → `None` (wait for
    ///    that slot rather than evict another model's warm weights —
    ///    eager eviction would thrash a pool that exactly fits the mix);
    /// 3. the model resident nowhere → the least-recently-used free
    ///    slot, as a cold start (its resident model is evicted);
    /// 4. every slot busy → `None`.
    ///
    /// A `None` is always transient: some slot is busy and its
    /// completion retries the dispatch.
    pub fn pick(&self, model: usize) -> Option<usize> {
        let warm = self
            .replicas
            .iter()
            .find(|r| !r.busy && r.resident == model);
        if let Some(r) = warm {
            return Some(r.id);
        }
        if self.holds(model) {
            return None; // resident but busy: wait, don't evict a peer
        }
        self.replicas
            .iter()
            .filter(|r| !r.busy)
            .min_by_key(|r| (r.last_used, r.id))
            .map(|r| r.id)
    }

    /// Executes one batched service of `units` request-units of
    /// `zoo[model_idx]` on `slot`, advancing that slot's session clock.
    /// `seq` is a monotone dispatch counter used for LRU bookkeeping.
    ///
    /// The service prices its warm-up, then its inference. The first
    /// service of a key builds the model and tapes its `infer` into
    /// `memo`; every later service of that key replays the tape, with
    /// no build and no tensor math. That relies on [`ReplicaHandle`]'s
    /// rule that two builds are bit-identical. A session that cannot
    /// replay (tracing, a feature cache) builds and runs for real.
    ///
    /// [`ReplicaHandle`]: dgnn_models::ReplicaHandle
    ///
    /// # Panics
    ///
    /// Panics when the slot is busy, or when inference fails (serving
    /// configurations are known-good).
    pub fn service(
        &mut self,
        slot: usize,
        model_idx: usize,
        zoo: &[ServedModel],
        units: usize,
        seq: u64,
        memo: &mut Memo,
    ) -> ServiceRecord {
        let m = &zoo[model_idx];
        let r = &mut self.replicas[slot];
        assert!(!r.busy, "slot {slot} is mid-service");
        let cold = r.resident != model_idx;

        let run_cfg = m
            .cfg
            .clone()
            .with_max_units(m.cfg.max_units.max(1) * units.max(1));
        let key = (model_idx, units);
        let mut built = None;
        let activation_bytes = match memo.taped.get(&key) {
            Some(taped) => taped.activation_bytes,
            None => {
                let model = built.insert(m.handle.build());
                memo.params[model_idx].get_or_insert_with(|| Params::of(model.as_ref()));
                model.activation_bytes(&run_cfg)
            }
        };

        let t0 = r.session.now();
        let i0 = r.session.timeline().len();
        if cold {
            // Evict the resident model; the context stays warm — the
            // session (process) survives the swap.
            r.session.release(memo.params(r.resident).bytes);
        }
        // The warm-up `DgnnModel::run` prices: the §4.4 model init on a
        // cold start, then the batch-dependent activation allocation
        // (Table 2).
        r.session.scope("warmup", |ex| {
            if cold {
                let p = memo.params(model_idx);
                ex.model_init(p.bytes, p.tensors);
            }
            ex.alloc_warmup(activation_bytes);
        });
        let replayed = memo
            .taped
            .get(&key)
            .filter(|taped| r.session.replay(&taped.tape))
            .map(|taped| taped.summary.clone());
        let summary = replayed.unwrap_or_else(|| {
            let mut model = built.unwrap_or_else(|| m.handle.build());
            let (result, tape) = r.session.tape(|ex| model.infer(ex, &run_cfg));
            let summary = result.unwrap_or_else(|e| panic!("{} service failed: {e}", model.name()));
            if let Some(tape) = tape {
                memo.taped.entry(key).or_insert(Taped {
                    activation_bytes,
                    summary: summary.clone(),
                    tape,
                });
            }
            summary
        });

        let duration = r.session.now() - t0;
        let phases = ServicePhases::from_events(&r.session.timeline().events()[i0..]);
        // The activation pool is recycled between services.
        r.session.release(activation_bytes);

        r.resident = model_idx;
        r.busy = true;
        r.last_used = seq;

        ServiceRecord {
            cold,
            duration,
            phases,
            summary,
        }
    }

    /// Marks a slot free (its scheduled completion time was reached).
    pub fn mark_free(&mut self, slot: usize) {
        self.replicas[slot].busy = false;
    }

    /// Per-[`dgnn_device::TensorClass`] feature-cache counters summed
    /// over every slot's session: node-feature / edge-feature /
    /// node-memory traffic. A slot's cache stays warm between services —
    /// the whole point of the pool — so hits here measure cross-request
    /// reuse, not just intra-batch locality. All zeros when the served
    /// configs never enable the cache.
    pub fn cache_class_stats(&self) -> ClassCacheStats {
        let mut total = ClassCacheStats::default();
        for r in &self.replicas {
            accumulate_class_stats(&mut total, &r.session.cache_class_stats());
        }
        total
    }

    /// Consumes the pool, returning each slot's session executor in
    /// slot order — ready for sanitizer audit or profile capture.
    pub fn into_sessions(self) -> Vec<Executor> {
        self.replicas.into_iter().map(|r| r.session).collect()
    }
}
