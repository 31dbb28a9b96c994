//! Fleet-level end-to-end properties: determinism, conservation,
//! routing-policy behaviour, autoscaler pricing, sanitizer cleanliness,
//! and how many models a run builds.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dgnn_datasets::{wikipedia, Scale};
use dgnn_device::{DurationNs, ExecMode, PlatformSpec};
use dgnn_models::{InferenceConfig, Jodie, ReplicaHandle, Tgat};
use dgnn_serve::{
    serve_fleet, AutoscalerConfig, FleetConfig, FleetOutcome, RouterPolicy, ServedModel,
    WorkloadShape, UNBOUNDED,
};

fn jodie_entry(weight: f64) -> ServedModel {
    let data = wikipedia(Scale::Tiny, 11);
    ServedModel {
        handle: ReplicaHandle::new("jodie", move || Box::new(Jodie::new(data.clone(), 11))),
        cfg: InferenceConfig::default()
            .with_batch_size(64)
            .with_max_units(1),
        weight,
    }
}

fn tgat_entry(weight: f64) -> ServedModel {
    let data = wikipedia(Scale::Tiny, 13);
    ServedModel {
        handle: ReplicaHandle::new("tgat", move || Box::new(Tgat::new(data.clone(), 13))),
        cfg: InferenceConfig::default()
            .with_batch_size(32)
            .with_neighbors(5)
            .with_max_units(1),
        weight,
    }
}

fn base_cfg() -> FleetConfig {
    FleetConfig {
        seed: 7,
        n_requests: 24,
        arrival_rate_rps: 200.0,
        shape: WorkloadShape::Poisson,
        policy: RouterPolicy::JoinShortestQueue,
        batch_window: DurationNs::from_millis(3),
        max_batch: 4,
        initial_pools: 2,
        replicas_per_pool: 1,
        queue_bound: UNBOUNDED,
        slo: DurationNs::from_millis(250),
        autoscaler: None,
        mode: ExecMode::Gpu,
        trace: false,
        spec: PlatformSpec::default(),
    }
}

fn burst_scaler() -> AutoscalerConfig {
    AutoscalerConfig {
        min_pools: 1,
        max_pools: 4,
        scale_out_queue: 2,
        scale_in_queue: 1,
        idle_window: DurationNs::from_millis(20),
        cooldown: DurationNs::from_millis(10),
    }
}

#[test]
fn fleet_replay_is_bit_deterministic() {
    let mut cfg = base_cfg();
    cfg.policy = RouterPolicy::PowerOfTwoChoices;
    cfg.autoscaler = Some(burst_scaler());
    cfg.shape = WorkloadShape::FlashCrowd {
        at: DurationNs::from_millis(20),
        duration: DurationNs::from_millis(40),
        multiplier: 8.0,
    };
    let a = serve_fleet(&cfg, &[jodie_entry(3.0), tgat_entry(1.0)]);
    let b = serve_fleet(&cfg, &[jodie_entry(3.0), tgat_entry(1.0)]);
    assert_eq!(a.requests, b.requests, "per-request records must replay");
    assert_eq!(
        a.scale_events, b.scale_events,
        "scale decisions must replay"
    );
    assert_eq!(a.report.makespan, b.report.makespan);
    assert_eq!(
        a.report.replica_seconds.to_bits(),
        b.report.replica_seconds.to_bits()
    );
    let checks_a: Vec<u32> = a
        .batches
        .iter()
        .map(|x| x.batch.summary.checksum.to_bits())
        .collect();
    let checks_b: Vec<u32> = b
        .batches
        .iter()
        .map(|x| x.batch.summary.checksum.to_bits())
        .collect();
    assert_eq!(checks_a, checks_b, "service numerics must be bit-identical");
}

#[test]
fn every_request_is_served_or_shed_exactly_once() {
    for policy in [
        RouterPolicy::AffinityFirst,
        RouterPolicy::PowerOfTwoChoices,
        RouterPolicy::JoinShortestQueue,
    ] {
        let mut cfg = base_cfg();
        cfg.policy = policy;
        let outcome = serve_fleet(&cfg, &[jodie_entry(1.0), tgat_entry(1.0)]);
        assert_eq!(
            outcome.report.served + outcome.report.shed,
            cfg.n_requests,
            "request conservation under {:?}",
            policy
        );
        let mut ids: Vec<usize> = outcome
            .requests
            .iter()
            .map(|r| r.id)
            .chain(outcome.shed.iter().map(|r| r.id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), cfg.n_requests, "no id served twice or lost");
        for r in &outcome.requests {
            assert!(r.arrival <= r.assembled && r.assembled <= r.started);
            assert!(r.started < r.completed);
        }
    }
}

#[test]
fn jsq_spreads_load_across_pools() {
    let mut cfg = base_cfg();
    cfg.n_requests = 32;
    let outcome = serve_fleet(&cfg, &[jodie_entry(1.0)]);
    let mut pools_used: Vec<usize> = outcome.batches.iter().map(|b| b.pool).collect();
    pools_used.sort_unstable();
    pools_used.dedup();
    assert_eq!(pools_used, vec![0, 1], "JSQ must use both pools");
}

#[test]
fn affinity_first_cuts_cold_starts_versus_jsq() {
    // Two models, two single-replica pools, arrivals sparse enough
    // (2 s gaps ≫ ~0.25 s service) that after the provisioning phase
    // each batch dispatches before the next arrival. Affinity then
    // routes each model to the pool last holding it and the fleet
    // settles with zero further swaps. JSQ sees empty queues
    // everywhere, ties to pool 0, and funnels the alternating mix
    // through one slot — paying a model swap on nearly every
    // alternation.
    let mut cfg = base_cfg();
    cfg.n_requests = 24;
    cfg.arrival_rate_rps = 0.5;
    cfg.policy = RouterPolicy::AffinityFirst;
    let affinity = serve_fleet(&cfg, &[jodie_entry(1.0), tgat_entry(1.0)]);
    cfg.policy = RouterPolicy::JoinShortestQueue;
    let jsq = serve_fleet(&cfg, &[jodie_entry(1.0), tgat_entry(1.0)]);
    assert!(
        affinity.report.cold_services < jsq.report.cold_services,
        "affinity {} cold vs jsq {} cold",
        affinity.report.cold_services,
        jsq.report.cold_services
    );
    // Arrivals queued during the ~6.5 s provisioning phase can mix
    // models inside a pool before residency is observable, so a few
    // swaps happen at start-up; affinity must pin shortly after.
    assert!(
        affinity.report.cold_services <= 4,
        "affinity should pin each model after the start-up pileup, got {}",
        affinity.report.cold_services
    );
}

#[test]
fn autoscaler_pays_warmup_per_spawn_and_absorbs_a_flash_crowd() {
    let mut cfg = base_cfg();
    cfg.n_requests = 48;
    cfg.initial_pools = 1;
    cfg.arrival_rate_rps = 300.0;
    cfg.shape = WorkloadShape::FlashCrowd {
        at: DurationNs::from_millis(30),
        duration: DurationNs::from_millis(80),
        multiplier: 10.0,
    };
    let zoo = || vec![jodie_entry(1.0), tgat_entry(1.0)];

    let static_run = serve_fleet(&cfg, &zoo());
    cfg.autoscaler = Some(burst_scaler());
    let scaled = serve_fleet(&cfg, &zoo());

    assert!(
        scaled.report.scale_outs >= 1,
        "the burst must trigger a scale-out: {:?}",
        scaled.scale_events
    );
    assert!(scaled.report.peak_pools > 1);
    assert_eq!(
        scaled.report.pools_spawned,
        1 + scaled.report.scale_outs,
        "every scale-out spawns exactly one pool"
    );
    // Each spawned pool pays provisioning warm-up — the scale-out price.
    assert!(
        scaled.report.provision.total() > static_run.report.provision.total(),
        "spawned pools must pay provisioning: scaled {:?} vs static {:?}",
        scaled.report.provision.total(),
        static_run.report.provision.total()
    );
    // The capacity it bought shows up as a shorter backlog drain.
    assert!(
        scaled.report.makespan < static_run.report.makespan,
        "extra pools must drain the burst sooner: {} vs {} ns",
        scaled.report.makespan.as_nanos(),
        static_run.report.makespan.as_nanos()
    );
    assert!(
        scaled.report.slo_attainment() >= static_run.report.slo_attainment(),
        "scaling out must not hurt SLO attainment"
    );
}

#[test]
fn scale_in_retires_pools_and_stops_billing_replica_seconds() {
    let mut cfg = base_cfg();
    cfg.n_requests = 48;
    cfg.initial_pools = 1;
    cfg.arrival_rate_rps = 1.0;
    // A burst carrying ≈ 2/3 of the stream, then a sparse 1 rps tail
    // long enough (vs the ~0.25 s service time) for queues to drain
    // and the idle window to elapse between arrivals.
    cfg.shape = WorkloadShape::FlashCrowd {
        at: DurationNs::from_secs_f64(2.0),
        duration: DurationNs::from_secs_f64(5.0),
        multiplier: 6.0,
    };
    cfg.autoscaler = Some(AutoscalerConfig {
        idle_window: DurationNs::from_secs_f64(2.0),
        cooldown: DurationNs::from_secs_f64(1.0),
        ..burst_scaler()
    });
    let outcome = serve_fleet(&cfg, &[jodie_entry(1.0)]);
    let report = &outcome.report;
    assert!(report.scale_outs >= 1, "{:?}", outcome.scale_events);
    assert!(report.scale_ins >= 1, "{:?}", outcome.scale_events);
    assert!(report.final_pools < report.peak_pools);
    // Retired pools stop accruing: total replica-seconds must be less
    // than running the peak fleet for the whole makespan.
    let peak_bill = (report.peak_pools * report.pool_size) as f64 * report.makespan.as_secs_f64();
    assert!(
        report.replica_seconds < peak_bill,
        "replica-seconds {} must undercut the peak bill {peak_bill}",
        report.replica_seconds
    );
}

#[test]
fn queue_bound_sheds_and_the_render_names_the_bound() {
    let mut cfg = base_cfg();
    cfg.queue_bound = 1;
    cfg.arrival_rate_rps = 5_000.0;
    let outcome = serve_fleet(&cfg, &[jodie_entry(1.0)]);
    assert!(outcome.report.shed > 0, "overload must shed");
    assert!(outcome.report.shed_rate() > 0.0);
    let text = outcome.report.render("bounded fleet");
    assert!(text.contains("shed (bound 1)"), "{text}");

    let unbounded = serve_fleet(&base_cfg(), &[jodie_entry(1.0)]);
    let text = unbounded.report.render("unbounded fleet");
    assert!(text.contains("shedding disabled"), "{text}");
    assert!(!text.contains("0 shed"), "{text}");
}

#[test]
fn fleet_sessions_audit_clean() {
    let mut cfg = base_cfg();
    cfg.trace = true;
    cfg.n_requests = 16;
    cfg.autoscaler = Some(burst_scaler());
    cfg.arrival_rate_rps = 600.0;
    let outcome = serve_fleet(&cfg, &[jodie_entry(1.0), tgat_entry(1.0)]);
    assert_eq!(
        outcome.sessions.len(),
        outcome.report.pools_spawned * outcome.report.pool_size
    );
    for (i, session) in outcome.sessions.iter().enumerate() {
        let report = dgnn_analysis::audit(session);
        assert!(
            report.is_clean(),
            "fleet replica {i} timeline has hazards: {report:?}"
        );
    }
}

/// `entry` with a handle that counts every model it builds in `builds`.
fn counted(entry: ServedModel, builds: &Arc<AtomicUsize>) -> ServedModel {
    let builds = Arc::clone(builds);
    let name = entry.handle.name().to_string();
    let inner = entry.handle;
    ServedModel {
        handle: ReplicaHandle::new(name, move || {
            builds.fetch_add(1, Ordering::Relaxed);
            inner.build()
        }),
        ..entry
    }
}

#[test]
fn untraced_runs_build_each_service_key_once_and_traced_runs_every_service() {
    let mut cfg = base_cfg();
    cfg.autoscaler = Some(burst_scaler());
    cfg.arrival_rate_rps = 600.0;
    let run = |trace: bool| {
        let builds = Arc::new(AtomicUsize::new(0));
        let zoo = [
            counted(jodie_entry(3.0), &builds),
            counted(tgat_entry(1.0), &builds),
        ];
        let out = serve_fleet(
            &FleetConfig {
                trace,
                ..cfg.clone()
            },
            &zoo,
        );
        (out, builds.load(Ordering::Relaxed))
    };
    let (untraced, untraced_builds) = run(false);
    let (traced, traced_builds) = run(true);

    // Provisioning builds each entry it places once, to size it (slot
    // `i` holds entry `i % 2`), and a scale-out builds nothing.
    let sized = cfg.replicas_per_pool.min(2);
    assert!(
        untraced.report.pools_spawned > cfg.initial_pools,
        "a pool spawned"
    );
    let keys: BTreeSet<_> = untraced
        .batches
        .iter()
        .map(|b| (b.batch.model, b.batch.requests.len()))
        .collect();
    assert!(keys.len() < untraced.batches.len(), "a key repeats");
    assert_eq!(untraced_builds, sized + keys.len(), "untraced builds");
    assert_eq!(traced_builds, sized + traced.batches.len(), "traced builds");

    let served = |out: &FleetOutcome| -> Vec<_> {
        out.batches
            .iter()
            .map(|b| {
                let s = &b.batch;
                let checksum = s.summary.checksum.to_bits();
                let placed = (b.pool, s.replica, s.model, s.requests.clone(), s.cold);
                (placed, s.completed - s.started, s.phases, checksum)
            })
            .collect()
    };
    assert_eq!(served(&untraced), served(&traced));
}

#[test]
fn fleet_config_validates_rate_and_shape() {
    let mut cfg = base_cfg();
    assert!(cfg.validate().is_ok());
    cfg.arrival_rate_rps = 0.0;
    assert_eq!(cfg.validate().unwrap_err().reason, "not positive");
    cfg.arrival_rate_rps = 100.0;
    cfg.shape = WorkloadShape::Diurnal {
        period: DurationNs::from_secs_f64(1.0),
        amplitude: 2.0,
    };
    let err = cfg.validate().unwrap_err();
    assert_eq!(err.what, "diurnal amplitude");
}

#[test]
fn fleet_config_rejects_every_count_a_run_needs() {
    fn rejected(set: impl FnOnce(&mut FleetConfig)) -> &'static str {
        let mut cfg = base_cfg();
        set(&mut cfg);
        cfg.validate().unwrap_err().what
    }
    let scaler = |min_pools| {
        Some(AutoscalerConfig {
            min_pools,
            ..burst_scaler()
        })
    };
    assert_eq!(rejected(|c| c.initial_pools = 0), "initial pools");
    assert_eq!(rejected(|c| c.replicas_per_pool = 0), "replicas per pool");
    assert_eq!(rejected(|c| c.max_batch = 0), "max batch");
    assert_eq!(
        rejected(|c| c.autoscaler = scaler(0)),
        "autoscaler min pools"
    );
    // Above `burst_scaler`'s `max_pools` of 4.
    assert_eq!(
        rejected(|c| c.autoscaler = scaler(5)),
        "autoscaler min pools"
    );
}

#[test]
fn report_renders_fleet_metrics() {
    let mut cfg = base_cfg();
    cfg.autoscaler = Some(burst_scaler());
    let outcome = serve_fleet(&cfg, &[jodie_entry(1.0)]);
    let text = outcome.report.render("fleet smoke");
    for needle in [
        "policy: shortest_queue",
        "shape: poisson",
        "replica-seconds:",
        "SLO",
        "attained",
        "scale:",
        "warm-up share",
    ] {
        assert!(text.contains(needle), "report missing {needle}:\n{text}");
    }
}
