//! Aggregated serving statistics: the serving analogue of the paper's
//! Table 2, extended with tail latency.
//!
//! The profiled frameworks report a single end-to-end inference time;
//! a serving layer must decompose each request's latency into the
//! stations it waited at:
//!
//! ```text
//! latency = assembly (arrival → batch close)
//!         + queue wait (batch close → service start)
//!         + service (warm-up + sampling + compute + transfer)
//! ```
//!
//! and report *order statistics* over requests, because the §4.4
//! warm-up cost shows up as cold-start spikes at the tail, not in the
//! mean.

use dgnn_device::{CacheStats, ClassCacheStats, DurationNs, TensorClass};
use dgnn_models::RunSummary;
use dgnn_profile::{LatencyStats, ServicePhases, TextTable};

use crate::autoscaler::ScaleKind;
use crate::fleet::{FleetConfig, Records};
use crate::router::RouterPolicy;
use crate::{ServeConfig, UNBOUNDED};

/// Renders the shed side of a "requests:" line so a zero is never
/// ambiguous: with shedding disabled there is no count to report, and
/// with a bound the bound is named even when nothing was shed.
fn shed_summary(shed: usize, queue_bound: usize) -> String {
    if queue_bound == UNBOUNDED {
        "shedding disabled".to_string()
    } else {
        format!("{shed} shed (bound {queue_bound})")
    }
}

/// The latency decomposition both reports share: per-station order
/// statistics over served requests, busy-time phases summed over
/// services, and the throughput and batching ratios.
struct Decomposition {
    latency: LatencyStats,
    assembly: LatencyStats,
    queue_wait: LatencyStats,
    service: LatencyStats,
    service_phases: ServicePhases,
    throughput_rps: f64,
    mean_batch_size: f64,
}

impl Decomposition {
    fn of(records: &Records) -> Self {
        let stats = |phase: fn(&ServedRequest) -> DurationNs| {
            let samples: Vec<DurationNs> = records.served.iter().map(phase).collect();
            LatencyStats::from_durations(&samples)
        };
        let mut service_phases = ServicePhases::default();
        for b in &records.batches {
            service_phases.accumulate(&b.batch.phases);
        }
        let served = records.served.len() as f64;
        let throughput_rps = if records.makespan.as_nanos() == 0 {
            0.0
        } else {
            served / records.makespan.as_secs_f64()
        };
        let mean_batch_size = if records.batches.is_empty() {
            0.0
        } else {
            served / records.batches.len() as f64
        };
        Decomposition {
            latency: stats(ServedRequest::latency),
            assembly: stats(ServedRequest::assembly_wait),
            queue_wait: stats(ServedRequest::queue_wait),
            service: stats(ServedRequest::service_time),
            service_phases,
            throughput_rps,
            mean_batch_size,
        }
    }
}

/// Warm-up share of all busy time, provisioning included — the
/// amortized counterpart of the paper's Table 2 ratio.
fn warmup_share(provision: &ServicePhases, service: &ServicePhases) -> f64 {
    let warm = provision.warmup + service.warmup;
    let total = provision.total() + service.total();
    if total.as_nanos() == 0 {
        return 0.0;
    }
    warm.as_nanos() as f64 / total.as_nanos() as f64
}

/// Per-request serving record.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedRequest {
    /// Request id (arrival order).
    pub id: usize,
    /// Mix index of the requested model.
    pub model: usize,
    /// Arrival time.
    pub arrival: DurationNs,
    /// Index of the batch (in dispatch order) that carried the request.
    pub batch: usize,
    /// When the batch closed (window expiry or capacity).
    pub assembled: DurationNs,
    /// When the batch started on a replica.
    pub started: DurationNs,
    /// When the service completed.
    pub completed: DurationNs,
    /// Whether the service paid a cold-start model swap.
    pub cold: bool,
    /// Freshness lag of the data the request was served with: virtual
    /// time between the last ingest event visible to the sampled graph
    /// snapshot and this request's arrival. Zero when the visibility
    /// watermark had already passed the arrival instant — and always
    /// zero for non-streaming runs and the frozen-graph baseline.
    pub staleness: DurationNs,
}

impl ServedRequest {
    /// End-to-end latency: arrival → completion.
    pub fn latency(&self) -> DurationNs {
        self.completed - self.arrival
    }

    /// Batch-assembly wait: arrival → batch close.
    pub fn assembly_wait(&self) -> DurationNs {
        self.assembled - self.arrival
    }

    /// Queue wait: batch close → service start.
    pub fn queue_wait(&self) -> DurationNs {
        self.started - self.assembled
    }

    /// Service time: start → completion.
    pub fn service_time(&self) -> DurationNs {
        self.completed - self.started
    }
}

/// Per-batch serving record.
#[derive(Debug, Clone)]
pub struct ServedBatch {
    /// Mix index of the batch's model.
    pub model: usize,
    /// Member request ids, in arrival order.
    pub requests: Vec<usize>,
    /// When the batch closed.
    pub ready: DurationNs,
    /// When it started on a replica.
    pub started: DurationNs,
    /// When it completed.
    pub completed: DurationNs,
    /// Whether the service paid a cold-start model swap.
    pub cold: bool,
    /// Replica slot that served it.
    pub replica: usize,
    /// Busy-time phase decomposition of the service span.
    pub phases: ServicePhases,
    /// The model-reported inference summary.
    pub summary: RunSummary,
}

/// Aggregated statistics over one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests generated (offered load).
    pub offered: usize,
    /// Requests served to completion.
    pub served: usize,
    /// Requests rejected by backpressure.
    pub shed: usize,
    /// The queue bound shedding was enforced at ([`UNBOUNDED`] when
    /// shedding was disabled — then `shed` is structurally zero, which
    /// [`ServeReport::render`] distinguishes from a bounded run that
    /// happened to shed nothing).
    pub queue_bound: usize,
    /// Batches dispatched.
    pub batches: usize,
    /// Services that paid a model swap (cold starts, post-provisioning).
    pub cold_services: usize,
    /// Services that hit a resident model (warm).
    pub warm_services: usize,
    /// Replica pool size.
    pub pool_size: usize,
    /// Warm-up paid once at provisioning time, across slots.
    pub provision: ServicePhases,
    /// Busy-time phases summed over all services.
    pub service_phases: ServicePhases,
    /// End-to-end latency statistics (served requests).
    pub latency: LatencyStats,
    /// Batch-assembly wait statistics.
    pub assembly: LatencyStats,
    /// Queue-wait statistics.
    pub queue_wait: LatencyStats,
    /// Service-time statistics.
    pub service: LatencyStats,
    /// Staleness statistics (see [`ServedRequest::staleness`]); all
    /// zeros outside streaming runs.
    pub staleness: LatencyStats,
    /// Device feature-cache counters summed over every replica session.
    /// Replica caches survive between services, so hits here include
    /// cross-request reuse on warm slots; all zeros when the served
    /// configs never set [`dgnn_models::InferenceConfig::feature_cache`].
    pub cache: CacheStats,
    /// The same counters split by [`TensorClass`] (indexed by
    /// [`TensorClass::index`]) — shows whether hits come from static
    /// node/edge features or recurrent memory rows.
    pub cache_by_class: ClassCacheStats,
    /// Last service or provisioning completion.
    pub makespan: DurationNs,
    /// Served requests per simulated second of makespan.
    pub throughput_rps: f64,
    /// Mean requests per dispatched batch.
    pub mean_batch_size: f64,
}

impl ServeReport {
    /// Builds the report from the raw loop records of a one-pool run.
    pub(crate) fn build(cfg: &ServeConfig, records: &Records) -> Self {
        let d = Decomposition::of(records);
        let staleness: Vec<DurationNs> = records.served.iter().map(|r| r.staleness).collect();
        ServeReport {
            offered: records.offered,
            served: records.served.len(),
            shed: records.shed.len(),
            queue_bound: cfg.queue_bound,
            batches: records.batches.len(),
            cold_services: records.cold_services,
            warm_services: records.batches.len() - records.cold_services,
            pool_size: cfg.pool_size,
            provision: records.provision,
            service_phases: d.service_phases,
            latency: d.latency,
            assembly: d.assembly,
            queue_wait: d.queue_wait,
            service: d.service,
            staleness: LatencyStats::from_durations(&staleness),
            cache: records.cache,
            cache_by_class: records.cache_by_class,
            makespan: records.makespan,
            throughput_rps: d.throughput_rps,
            mean_batch_size: d.mean_batch_size,
        }
    }

    /// Warm-up share of all busy time, provisioning included — the
    /// amortized counterpart of the paper's Table 2 ratio.
    pub fn warmup_share(&self) -> f64 {
        warmup_share(&self.provision, &self.service_phases)
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self, title: &str) -> String {
        let ms = |d: DurationNs| format!("{:.3}", d.as_secs_f64() * 1e3);
        let mut t = TextTable::new(
            title,
            &["metric", "p50 (ms)", "p95 (ms)", "p99 (ms)", "mean (ms)"],
        );
        for (name, s) in [
            ("latency", &self.latency),
            ("assembly", &self.assembly),
            ("queue wait", &self.queue_wait),
            ("service", &self.service),
            ("staleness", &self.staleness),
        ] {
            t.row(&[
                name.to_string(),
                ms(s.p50),
                ms(s.p95),
                ms(s.p99),
                ms(s.mean),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "requests: {} offered, {} served, {} | batches: {} (mean size {:.2}) | \
             services: {} cold / {} warm | pool: {} | warm-up share: {:.1}% | \
             throughput: {:.1} rps | makespan: {:.1} ms\n",
            self.offered,
            self.served,
            shed_summary(self.shed, self.queue_bound),
            self.batches,
            self.mean_batch_size,
            self.cold_services,
            self.warm_services,
            self.pool_size,
            self.warmup_share() * 100.0,
            self.throughput_rps,
            self.makespan.as_secs_f64() * 1e3,
        ));
        if self.cache.lookups() > 0 {
            out.push_str(&format!(
                "feature cache: {} hit / {} miss ({:.1}% hit rate), {} B served on-device, \
                 {} eviction(s)\n",
                self.cache.hits,
                self.cache.misses,
                self.cache.hit_rate() * 100.0,
                self.cache.hit_bytes,
                self.cache.evictions,
            ));
            for class in TensorClass::ALL {
                let s = &self.cache_by_class[class.index()];
                if s.lookups() == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "  {:>12}: {} hit / {} miss ({:.1}% hit rate)\n",
                    class.name(),
                    s.hits,
                    s.misses,
                    s.hit_rate() * 100.0,
                ));
            }
        }
        out
    }
}

/// Aggregated statistics over one fleet serving run — the policy-level
/// metrics (SLO attainment, shed rate, replica-seconds, scale events)
/// on top of the per-request decomposition [`ServeReport`] introduced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Placement policy the run used.
    pub policy: RouterPolicy,
    /// Workload-shape label ([`crate::WorkloadShape::label`]).
    pub shape: &'static str,
    /// Requests generated (offered load).
    pub offered: usize,
    /// Requests served to completion.
    pub served: usize,
    /// Requests rejected by backpressure.
    pub shed: usize,
    /// Per-pool queue bound shedding was enforced at ([`UNBOUNDED`]
    /// when shedding was disabled).
    pub queue_bound: usize,
    /// Batches dispatched, fleet-wide.
    pub batches: usize,
    /// Services that paid a model swap (cold starts, post-provisioning).
    pub cold_services: usize,
    /// Services that hit a resident model (warm).
    pub warm_services: usize,
    /// Pools ever spawned (initial + scale-outs).
    pub pools_spawned: usize,
    /// Most pools routable at once.
    pub peak_pools: usize,
    /// Pools still routable when the run ended.
    pub final_pools: usize,
    /// Warm replica slots per pool.
    pub replicas_per_pool: usize,
    /// Scale-out decisions taken.
    pub scale_outs: usize,
    /// Scale-in decisions taken.
    pub scale_ins: usize,
    /// Replica-seconds accrued: each pool contributes
    /// `replicas_per_pool × (retirement − spawn)`, with never-retired
    /// pools billed to the makespan. The capacity cost the autoscaler
    /// trades against SLO attainment.
    pub replica_seconds: f64,
    /// The end-to-end latency target.
    pub slo: DurationNs,
    /// Served requests whose latency met the target.
    pub slo_attained: usize,
    /// Warm-up paid at provisioning time, across all pools and slots
    /// (initial pools *and* autoscaler spawns — the scale-out price).
    pub provision: ServicePhases,
    /// Busy-time phases summed over all services.
    pub service_phases: ServicePhases,
    /// End-to-end latency statistics (served requests).
    pub latency: LatencyStats,
    /// Batch-assembly wait statistics.
    pub assembly: LatencyStats,
    /// Queue-wait statistics.
    pub queue_wait: LatencyStats,
    /// Service-time statistics.
    pub service: LatencyStats,
    /// Last service or provisioning completion.
    pub makespan: DurationNs,
    /// Served requests per simulated second of makespan.
    pub throughput_rps: f64,
    /// Mean requests per dispatched batch.
    pub mean_batch_size: f64,
}

impl FleetReport {
    /// Builds the report from the raw loop records of a fleet run.
    pub(crate) fn build(cfg: &FleetConfig, records: &Records) -> Self {
        let d = Decomposition::of(records);
        let replica_seconds: f64 = records
            .pool_spans
            .iter()
            .map(|&(spawned, retired)| {
                (retired.unwrap_or(records.makespan).saturating_sub(spawned)).as_secs_f64()
                    * cfg.replicas_per_pool as f64
            })
            .sum();
        let scale_count = |kind: ScaleKind| {
            records
                .scale_events
                .iter()
                .filter(|e| e.kind == kind)
                .count()
        };
        FleetReport {
            policy: cfg.policy,
            shape: cfg.shape.label(),
            offered: records.offered,
            served: records.served.len(),
            shed: records.shed.len(),
            queue_bound: cfg.queue_bound,
            batches: records.batches.len(),
            cold_services: records.cold_services,
            warm_services: records.batches.len() - records.cold_services,
            pools_spawned: records.pool_spans.len(),
            peak_pools: records.peak_pools,
            final_pools: records.final_pools,
            replicas_per_pool: cfg.replicas_per_pool,
            scale_outs: scale_count(ScaleKind::Out),
            scale_ins: scale_count(ScaleKind::In),
            replica_seconds,
            slo: cfg.slo,
            slo_attained: records
                .served
                .iter()
                .filter(|r| r.latency() <= cfg.slo)
                .count(),
            provision: records.provision,
            service_phases: d.service_phases,
            latency: d.latency,
            assembly: d.assembly,
            queue_wait: d.queue_wait,
            service: d.service,
            makespan: records.makespan,
            throughput_rps: d.throughput_rps,
            mean_batch_size: d.mean_batch_size,
        }
    }

    /// SLO attainment over *offered* load: attained ÷ offered, so a
    /// fleet cannot buy attainment by shedding — every shed request is
    /// a miss.
    pub fn slo_attainment(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.slo_attained as f64 / self.offered as f64
    }

    /// Shed requests over offered load.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed as f64 / self.offered as f64
    }

    /// Warm-up share of all busy time, provisioning (including
    /// autoscaler spawns) included.
    pub fn warmup_share(&self) -> f64 {
        warmup_share(&self.provision, &self.service_phases)
    }

    /// Renders the report as an aligned text table plus fleet lines.
    pub fn render(&self, title: &str) -> String {
        let ms = |d: DurationNs| format!("{:.3}", d.as_secs_f64() * 1e3);
        let mut t = TextTable::new(
            title,
            &["metric", "p50 (ms)", "p95 (ms)", "p99 (ms)", "mean (ms)"],
        );
        for (name, s) in [
            ("latency", &self.latency),
            ("assembly", &self.assembly),
            ("queue wait", &self.queue_wait),
            ("service", &self.service),
        ] {
            t.row(&[
                name.to_string(),
                ms(s.p50),
                ms(s.p95),
                ms(s.p99),
                ms(s.mean),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "policy: {} | shape: {} | requests: {} offered, {} served, {} | \
             batches: {} (mean size {:.2}) | services: {} cold / {} warm\n",
            self.policy.label(),
            self.shape,
            self.offered,
            self.served,
            shed_summary(self.shed, self.queue_bound),
            self.batches,
            self.mean_batch_size,
            self.cold_services,
            self.warm_services,
        ));
        out.push_str(&format!(
            "fleet: {} spawned, peak {}, final {} × {} replicas | scale: {} out / {} in | \
             replica-seconds: {:.2} | SLO {:.0} ms: {:.1}% attained | warm-up share: {:.1}% | \
             throughput: {:.1} rps | makespan: {:.1} ms\n",
            self.pools_spawned,
            self.peak_pools,
            self.final_pools,
            self.replicas_per_pool,
            self.scale_outs,
            self.scale_ins,
            self.replica_seconds,
            self.slo.as_secs_f64() * 1e3,
            self.slo_attainment() * 100.0,
            self.warmup_share() * 100.0,
            self.throughput_rps,
            self.makespan.as_secs_f64() * 1e3,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shed clause never reads "0 shed" for a run that *couldn't*
    /// shed: disabled shedding and an unhit bound render differently.
    #[test]
    fn shed_summary_disambiguates_disabled_from_zero() {
        assert_eq!(shed_summary(0, UNBOUNDED), "shedding disabled");
        assert_eq!(shed_summary(0, 64), "0 shed (bound 64)");
        assert_eq!(shed_summary(12, 64), "12 shed (bound 64)");
    }

    fn report(shed: usize, queue_bound: usize) -> ServeReport {
        let cfg = ServeConfig {
            queue_bound,
            ..ServeConfig::default()
        };
        let request = crate::Request {
            id: 0,
            model: 0,
            arrival: DurationNs::from_nanos(1),
        };
        let records = Records {
            shed: vec![request; shed],
            ..Records::default()
        };
        ServeReport::build(&cfg, &records)
    }

    #[test]
    fn render_pins_the_requests_line_format() {
        let bounded = report(2, 64).render("t");
        assert!(
            bounded.contains("requests: 0 offered, 0 served, 2 shed (bound 64) |"),
            "unexpected requests line in:\n{bounded}"
        );
        let unbounded = report(0, UNBOUNDED).render("t");
        assert!(
            unbounded.contains("requests: 0 offered, 0 served, shedding disabled |"),
            "unexpected requests line in:\n{unbounded}"
        );
        assert!(
            !unbounded.contains("0 shed"),
            "disabled shedding must not print a shed count:\n{unbounded}"
        );
    }
}
