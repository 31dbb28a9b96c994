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
//! The model *struct* is rebuilt from its [`ReplicaHandle`] on every
//! service, so request numerics depend only on the handle's recipe —
//! session reuse amortizes priced warm-up without carrying mutable
//! model state between requests.

use dgnn_device::{
    accumulate_class_stats, CacheStats, ClassCacheStats, DurationNs, ExecMode, Executor,
    PlatformSpec,
};
use dgnn_models::RunSummary;
use dgnn_profile::ServicePhases;

use crate::ServedModel;

/// One replica slot: a long-lived executor session plus residence
/// bookkeeping.
#[derive(Debug)]
pub struct Replica {
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
    /// Total services (batches) executed by this slot.
    pub services: usize,
}

impl Replica {
    /// Mix index of the resident model.
    pub fn resident(&self) -> Option<usize> {
        self.resident
    }
}

/// Result of one service executed on a replica.
#[derive(Debug, Clone)]
pub struct ServiceRecord {
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
pub struct WarmPool {
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
                    services: 0,
                }
            })
            .collect();
        WarmPool { replicas }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the pool has no slots (never true — see
    /// [`WarmPool::new`]).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
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
    ) -> ServiceRecord {
        let m = &zoo[model_idx];
        let r = &mut self.replicas[slot];
        assert!(!r.busy, "slot {slot} is mid-service");
        let cold = r.resident != Some(model_idx);

        let run_cfg = m
            .cfg
            .clone()
            .with_max_units(m.cfg.max_units.max(1) * units.max(1));
        let mut model = m.handle.build();

        let t0 = r.session.now();
        let i0 = r.session.timeline().len();
        let summary = if cold {
            // Evict the resident model, then pay the §4.4 model-init
            // warm-up inside this request's service time. The context
            // stays warm — the session (process) survives the swap.
            r.session.release(r.resident_param_bytes);
            r.cold_starts += 1;
            model.run(&mut r.session, &run_cfg)
        } else {
            // Warm hit: only the batch-dependent activation allocation
            // (Table 2) is paid before inference.
            r.session.scope("warmup", |ex| {
                ex.alloc_warmup(model.activation_bytes(&run_cfg));
            });
            model.infer(&mut r.session, &run_cfg)
        }
        .unwrap_or_else(|e| panic!("{} service failed: {e}", model.name()));

        let duration = r.session.now() - t0;
        let phases = ServicePhases::from_events(&r.session.timeline().events()[i0..]);
        // The activation pool is recycled between services.
        r.session.release(model.activation_bytes(&run_cfg));

        r.resident = Some(model_idx);
        r.resident_param_bytes = model.param_bytes();
        r.busy = true;
        r.last_used = seq;
        r.services += 1;

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

    /// Feature-cache counters summed over every slot's session. A slot's
    /// cache stays warm between services — the whole point of the pool —
    /// so hits here measure cross-request reuse, not just intra-batch
    /// locality. All zeros when the served configs never enable the
    /// cache.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for r in &self.replicas {
            total.accumulate(&r.session.cache_stats());
        }
        total
    }

    /// Per-[`dgnn_device::TensorClass`] feature-cache counters summed
    /// over every slot's session — splits the [`WarmPool::cache_stats`]
    /// total into node-feature / edge-feature / node-memory traffic.
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
