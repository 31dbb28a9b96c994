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
//! so one serving run computes each (model, request count) once: the
//! first service of that key builds the model and tapes its `infer`
//! ([`Executor::tape`]) into the run's [`Memo`], and every later service
//! prices its warm-up for real, then replays the tape
//! ([`Executor::replay`]) — no build, no tensor math, the same events,
//! scopes, clock and checksum. Traced and feature-cached sessions
//! cannot be taped, so they build and run every service.
//!
//! [`ReplicaHandle`]: dgnn_models::ReplicaHandle

use std::collections::BTreeMap;

use dgnn_device::{
    accumulate_class_stats, ClassCacheStats, DurationNs, ExecMode, Executor, PlatformSpec, Tape,
};
use dgnn_models::RunSummary;
use dgnn_profile::ServicePhases;

use crate::ServedModel;

/// The sizes a service's warm-up prices.
#[derive(Debug, Clone, Copy)]
struct WarmupSizes {
    param_bytes: u64,
    param_tensors: u64,
    activation_bytes: u64,
}

/// What the first service of one key left for every later one: its
/// model's warm-up sizes, its summary and the tape of its `infer`.
#[derive(Debug)]
pub(crate) struct Taped {
    sizes: WarmupSizes,
    summary: RunSummary,
    tape: Tape,
}

/// One serving run's taped services, keyed by (mix index, requests in
/// the batch), shared by every pool of the run.
pub(crate) type Memo = BTreeMap<(usize, usize), Taped>;

/// One replica slot: a long-lived executor session plus residence
/// bookkeeping.
#[derive(Debug)]
pub(crate) struct Replica {
    /// Slot id (stable, 0-based).
    pub id: usize,
    session: Executor,
    /// Mix index of the model whose weights are resident, if any.
    resident: Option<usize>,
    resident_param_bytes: u64,
    busy: bool,
    last_used: u64,
    /// Cold starts served by this slot (model swaps after provisioning).
    pub cold_starts: usize,
}

impl Replica {
    /// Mix index of the resident model.
    pub fn resident(&self) -> Option<usize> {
        self.resident
    }
}

/// Result of one service executed on a replica.
#[derive(Debug, Clone)]
pub(crate) struct ServiceRecord {
    /// Slot that served the batch.
    pub replica: usize,
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
    /// Creates `pool_size` empty slots (no sessions yet — call
    /// [`WarmPool::provision`]).
    ///
    /// # Panics
    ///
    /// Panics when `pool_size` is zero.
    pub fn new(pool_size: usize, spec: PlatformSpec, mode: ExecMode, trace: bool) -> Self {
        assert!(pool_size >= 1, "pool needs at least one replica");
        let replicas = (0..pool_size)
            .map(|id| {
                let mut session = Executor::new(spec.clone(), mode);
                if trace {
                    session.enable_tracing();
                }
                Replica {
                    id,
                    session,
                    resident: None,
                    resident_param_bytes: 0,
                    busy: false,
                    last_used: 0,
                    cold_starts: 0,
                }
            })
            .collect();
        WarmPool { replicas }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Slot accessor.
    pub fn replica(&self, id: usize) -> &Replica {
        &self.replicas[id]
    }

    /// Pre-initializes every slot before the server opens: slot `i`
    /// gets model `i % zoo.len()` — context init plus model init, the
    /// one-time warm-up of §4.4, paid up front instead of inside any
    /// request's latency. Returns each slot's provisioning completion
    /// time (slots provision concurrently from t = 0); the slots stay
    /// marked busy until then, so the caller must schedule their
    /// release.
    pub fn provision(&mut self, zoo: &[ServedModel]) -> Vec<DurationNs> {
        assert!(!zoo.is_empty(), "cannot provision an empty model mix");
        let mut completions = Vec::with_capacity(self.replicas.len());
        for r in &mut self.replicas {
            let model_idx = r.id % zoo.len();
            let model = zoo[model_idx].handle.build();
            let done = r.session.scope("provision", |ex| {
                ex.model_init(model.param_bytes(), model.param_tensors());
                ex.now()
            });
            r.resident = Some(model_idx);
            r.resident_param_bytes = model.param_bytes();
            r.busy = true;
            completions.push(done);
        }
        completions
    }

    /// Busy-time phases paid during provisioning, summed over slots.
    pub fn provision_phases(&self) -> ServicePhases {
        let mut total = ServicePhases::default();
        for r in &self.replicas {
            let events = r.session.timeline().events();
            let provisioned: Vec<_> = events
                .iter()
                .filter(|e| e.scope.starts_with("provision"))
                .cloned()
                .collect();
            total.accumulate(&ServicePhases::from_events(&provisioned));
        }
        total
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
    /// Returns `(slot, cold)`. A `None` is always transient: some slot
    /// is busy and its completion retries the dispatch.
    pub fn pick(&self, model: usize) -> Option<(usize, bool)> {
        let warm = self
            .replicas
            .iter()
            .find(|r| !r.busy && r.resident == Some(model));
        if let Some(r) = warm {
            return Some((r.id, false));
        }
        if self.replicas.iter().any(|r| r.resident == Some(model)) {
            return None; // resident but busy: wait, don't evict a peer
        }
        self.replicas
            .iter()
            .filter(|r| !r.busy)
            .min_by_key(|r| (r.last_used, r.id))
            .map(|r| (r.id, true))
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
        let cold = r.resident != Some(model_idx);

        let run_cfg = m
            .cfg
            .clone()
            .with_max_units(m.cfg.max_units.max(1) * units.max(1));
        let key = (model_idx, units);
        let mut built = None;
        let sizes = match memo.get(&key) {
            Some(taped) => taped.sizes,
            None => {
                let model = built.insert(m.handle.build());
                WarmupSizes {
                    param_bytes: model.param_bytes(),
                    param_tensors: model.param_tensors(),
                    activation_bytes: model.activation_bytes(&run_cfg),
                }
            }
        };

        let t0 = r.session.now();
        let i0 = r.session.timeline().len();
        if cold {
            // Evict the resident model; the context stays warm — the
            // session (process) survives the swap.
            r.session.release(r.resident_param_bytes);
            r.cold_starts += 1;
        }
        // The warm-up `DgnnModel::run` prices: the §4.4 model init on a
        // cold start, then the batch-dependent activation allocation
        // (Table 2).
        r.session.scope("warmup", |ex| {
            if cold {
                ex.model_init(sizes.param_bytes, sizes.param_tensors);
            }
            ex.alloc_warmup(sizes.activation_bytes);
        });
        let replayed = memo
            .get(&key)
            .filter(|taped| r.session.replay(&taped.tape))
            .map(|taped| taped.summary.clone());
        let summary = replayed.unwrap_or_else(|| {
            let mut model = built.unwrap_or_else(|| m.handle.build());
            let (result, tape) = r.session.tape(|ex| model.infer(ex, &run_cfg));
            let summary = result.unwrap_or_else(|e| panic!("{} service failed: {e}", model.name()));
            if let Some(tape) = tape {
                memo.entry(key).or_insert(Taped {
                    sizes,
                    summary: summary.clone(),
                    tape,
                });
            }
            summary
        });

        let duration = r.session.now() - t0;
        let phases = ServicePhases::from_events(&r.session.timeline().events()[i0..]);
        // The activation pool is recycled between services.
        r.session.release(sizes.activation_bytes);

        r.resident = Some(model_idx);
        r.resident_param_bytes = sizes.param_bytes;
        r.busy = true;
        r.last_used = seq;

        ServiceRecord {
            replica: slot,
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

    /// Total cold starts across slots (excludes provisioning).
    pub fn cold_starts(&self) -> usize {
        self.replicas.iter().map(|r| r.cold_starts).sum()
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
