//! End-to-end serving properties: determinism, conservation,
//! backpressure, warm-pool amortization, and sanitizer cleanliness.

use dgnn_datasets::{wikipedia, Scale};
use dgnn_device::{DurationNs, ExecMode, PlatformSpec};
use dgnn_graph::WindowBatcher;
use dgnn_models::{InferenceConfig, Jodie, ReplicaHandle, Tgat};
use dgnn_serve::{serve, ServeConfig, ServedModel, UNBOUNDED};

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

fn base_cfg() -> ServeConfig {
    ServeConfig {
        seed: 7,
        n_requests: 24,
        arrival_rate_rps: 200.0,
        batch_window: DurationNs::from_millis(3),
        max_batch: 4,
        pool_size: 2,
        queue_bound: 256,
        mode: ExecMode::Gpu,
        trace: false,
        spec: PlatformSpec::default(),
    }
}

#[test]
fn serving_is_deterministic() {
    let cfg = base_cfg();
    let zoo = vec![jodie_entry(3.0), tgat_entry(1.0)];
    let zoo2 = vec![jodie_entry(3.0), tgat_entry(1.0)];
    let a = serve(&cfg, &zoo);
    let b = serve(&cfg, &zoo2);
    assert_eq!(a.requests, b.requests, "per-request records must replay");
    assert_eq!(a.report.latency, b.report.latency);
    assert_eq!(a.report.makespan, b.report.makespan);
    let checks_a: Vec<u32> = a
        .batches
        .iter()
        .map(|x| x.summary.checksum.to_bits())
        .collect();
    let checks_b: Vec<u32> = b
        .batches
        .iter()
        .map(|x| x.summary.checksum.to_bits())
        .collect();
    assert_eq!(checks_a, checks_b, "service numerics must be bit-identical");
}

#[test]
fn every_request_is_served_or_shed_exactly_once() {
    let cfg = base_cfg();
    let outcome = serve(&cfg, &[jodie_entry(1.0), tgat_entry(1.0)]);
    assert_eq!(
        outcome.report.served + outcome.report.shed,
        cfg.n_requests,
        "request conservation"
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
    // Batch membership matches the per-request records.
    let member_total: usize = outcome.batches.iter().map(|b| b.requests.len()).sum();
    assert_eq!(member_total, outcome.report.served);
}

#[test]
fn request_stations_are_ordered() {
    let outcome = serve(&base_cfg(), &[jodie_entry(1.0), tgat_entry(1.0)]);
    for r in &outcome.requests {
        assert!(r.arrival <= r.assembled, "request {} assembled early", r.id);
        assert!(r.assembled <= r.started, "request {} started early", r.id);
        assert!(r.started < r.completed, "request {} zero service", r.id);
    }
}

#[test]
fn tiny_queue_bound_sheds_load() {
    let mut cfg = base_cfg();
    cfg.queue_bound = 1;
    cfg.arrival_rate_rps = 5_000.0; // heavy overload
    let outcome = serve(&cfg, &[jodie_entry(1.0)]);
    assert!(outcome.report.shed > 0, "overload must shed");
    assert!(outcome.report.served > 0, "but some requests are served");
}

/// A run that sheds every request still provisions its pool, so its
/// makespan is the last provisioning completion, not zero.
#[test]
fn all_shed_run_reports_the_provisioning_makespan() {
    let mut cfg = base_cfg();
    cfg.n_requests = 8;
    cfg.queue_bound = 0;
    let outcome = serve(&cfg, &[jodie_entry(1.0), tgat_entry(1.0)]);
    assert_eq!(outcome.report.shed, 8, "a zero bound sheds everything");
    assert_eq!(outcome.report.batches, 0);
    let provisioned = outcome
        .sessions
        .iter()
        .map(dgnn_device::Executor::now)
        .max()
        .expect("the pool has replicas");
    assert!(provisioned > DurationNs::ZERO);
    assert_eq!(outcome.report.makespan, provisioned);
    assert_eq!(outcome.report.throughput_rps, 0.0);
}

#[test]
fn zero_window_yields_singleton_batches() {
    let mut cfg = base_cfg();
    cfg.batch_window = DurationNs::ZERO;
    let outcome = serve(&cfg, &[jodie_entry(1.0)]);
    assert!(outcome.batches.iter().all(|b| b.requests.len() == 1));
    assert_eq!(outcome.report.batches, outcome.report.served);
}

#[test]
fn wide_window_assembles_multi_request_batches() {
    let mut cfg = base_cfg();
    cfg.batch_window = DurationNs::from_millis(50);
    cfg.arrival_rate_rps = 2_000.0;
    let outcome = serve(&cfg, &[jodie_entry(1.0)]);
    assert!(
        outcome.report.mean_batch_size > 1.5,
        "dense arrivals with a wide window must batch (got {})",
        outcome.report.mean_batch_size
    );
    assert!(outcome
        .batches
        .iter()
        .all(|b| b.requests.len() <= cfg.max_batch));
}

/// `WindowBatcher::partition` is the closed form of the loop's
/// admission rule: with one model and no queue bound, every served
/// batch holds exactly the members, and closes at exactly the instant,
/// that the partition of the arrival instants gives.
#[test]
fn batches_match_the_window_batcher_partition() {
    let cfg = ServeConfig {
        n_requests: 48,
        arrival_rate_rps: 1_000.0,
        batch_window: DurationNs::from_millis(3),
        max_batch: 4,
        queue_bound: UNBOUNDED,
        ..base_cfg()
    };
    let outcome = serve(&cfg, &[jodie_entry(1.0)]);
    assert_eq!(outcome.report.served, cfg.n_requests);
    let arrivals: Vec<u64> = outcome
        .requests
        .iter()
        .map(|r| r.arrival.as_nanos())
        .collect();
    let reference =
        WindowBatcher::new(cfg.batch_window.as_nanos(), cfg.max_batch).partition(&arrivals);
    assert_eq!(outcome.batches.len(), reference.len());
    for (i, (served, want)) in outcome.batches.iter().zip(&reference).enumerate() {
        assert_eq!(
            served.requests,
            want.indices().collect::<Vec<_>>(),
            "batch {i}"
        );
        assert_eq!(served.ready.as_nanos(), want.ready_ns, "batch {i}");
    }
    // Both close rules fire: some batches fill, others time out.
    let full = reference.iter().filter(|b| b.len == cfg.max_batch).count();
    assert!(
        full > 0 && full < reference.len(),
        "{full} of {} batches closed on capacity",
        reference.len()
    );
}

#[test]
fn single_model_mix_never_cold_starts_after_provisioning() {
    let outcome = serve(&base_cfg(), &[jodie_entry(1.0)]);
    assert_eq!(
        outcome.report.cold_services, 0,
        "one model, every slot provisioned with it"
    );
    assert!(
        outcome.report.warmup_share() > 0.0,
        "provisioning is priced"
    );
}

#[test]
fn multi_model_mix_on_pool_1_thrashes_and_pool_matching_mix_heals_it() {
    // Pool of 1 with two models: every model alternation is an eviction.
    let mut cfg = base_cfg();
    cfg.pool_size = 1;
    let zoo = vec![jodie_entry(1.0), tgat_entry(1.0)];
    let thrash = serve(&cfg, &zoo);
    assert!(
        thrash.report.cold_services > 0,
        "alternating mix on one slot must swap models"
    );

    // Pool of 2 holds both models resident: no swap ever needed.
    cfg.pool_size = 2;
    let zoo2 = vec![jodie_entry(1.0), tgat_entry(1.0)];
    let healed = serve(&cfg, &zoo2);
    assert_eq!(healed.report.cold_services, 0);
    assert!(
        healed.report.latency.p99 < thrash.report.latency.p99,
        "warm pool must cut tail latency: pool2 p99 {} vs pool1 p99 {}",
        healed.report.latency.p99.as_nanos(),
        thrash.report.latency.p99.as_nanos()
    );
}

#[test]
fn served_sessions_pass_the_sanitizer() {
    let mut cfg = base_cfg();
    cfg.trace = true;
    cfg.n_requests = 16;
    let outcome = serve(&cfg, &[jodie_entry(1.0), tgat_entry(1.0)]);
    assert_eq!(outcome.sessions.len(), cfg.pool_size);
    for (slot, session) in outcome.sessions.iter().enumerate() {
        let report = dgnn_analysis::audit(session);
        assert!(
            report.is_clean(),
            "replica {slot} timeline has hazards: {report:?}"
        );
        assert!(!session.timeline().is_empty(), "replica {slot} never ran");
    }
}

#[test]
fn report_renders_every_station() {
    let outcome = serve(&base_cfg(), &[jodie_entry(1.0)]);
    let text = outcome.report.render("serve smoke");
    for needle in [
        "latency",
        "assembly",
        "queue wait",
        "service",
        "warm-up share",
    ] {
        assert!(text.contains(needle), "report missing {needle}:\n{text}");
    }
    // No served config enabled the feature cache: the cache line is
    // omitted rather than rendered as all zeros.
    assert_eq!(outcome.report.cache.lookups(), 0);
    assert!(!text.contains("feature cache"), "{text}");
}

#[test]
fn warm_replicas_keep_feature_caches_across_requests() {
    // One TGAT model with the device feature cache on: the first
    // service cold-misses, later services on the same warm slot re-probe
    // the same sampled rows and hit. The report aggregates the counters
    // across replica sessions.
    let mut cfg = base_cfg();
    cfg.trace = true;
    let entry = || {
        let mut e = tgat_entry(1.0);
        e.cfg = e.cfg.clone().with_feature_cache(1 << 16);
        e
    };
    let outcome = serve(&cfg, &[entry()]);
    let stats = outcome.report.cache;
    assert!(stats.misses > 0, "a cold cache must miss first");
    assert!(
        stats.hits > 0,
        "warm replicas must re-serve cached rows across requests: {stats:?}"
    );
    let text = outcome.report.render("cached serve");
    assert!(text.contains("feature cache"));
    // The per-class split must account for every counted probe and
    // surface TGAT's node-feature traffic as its own render line.
    let by_class = &outcome.report.cache_by_class;
    let class_hits: u64 = by_class.iter().map(|s| s.hits).sum();
    let class_misses: u64 = by_class.iter().map(|s| s.misses).sum();
    assert_eq!(class_hits, stats.hits, "per-class hits must sum to total");
    assert_eq!(class_misses, stats.misses);
    let nf = &by_class[dgnn_device::TensorClass::NodeFeature.index()];
    assert!(nf.lookups() > 0, "TGAT probes node-feature rows");
    assert!(text.contains("node_feature"), "{text}");
    // Cache hits are legitimately unpriced: the sanitizer stays clean
    // and tallies them instead of flagging RULE5.
    let mut audited_hits = 0;
    for session in &outcome.sessions {
        let report = dgnn_analysis::audit(session);
        assert!(report.is_clean(), "cached replica has hazards: {report:?}");
        audited_hits += report.stats.cache_hit_rows;
    }
    assert_eq!(audited_hits, stats.hits, "trace and counters must agree");

    // And the whole thing replays bit-identically.
    let again = serve(&cfg, &[entry()]);
    assert_eq!(again.report.cache, stats);
}

#[test]
fn serve_config_validates_its_arrival_rate() {
    let mut cfg = base_cfg();
    assert!(cfg.validate().is_ok());
    cfg.arrival_rate_rps = f64::INFINITY;
    let err = cfg.validate().unwrap_err();
    assert_eq!(err.reason, "not finite");
    assert!(err.to_string().contains("arrival rate"));
    cfg.arrival_rate_rps = -1.0;
    assert_eq!(cfg.validate().unwrap_err().reason, "not positive");
}

#[test]
fn serve_config_rejects_an_empty_pool_or_batch() {
    let rejected = |set: fn(&mut ServeConfig)| {
        let mut cfg = base_cfg();
        set(&mut cfg);
        let err = cfg.validate().unwrap_err();
        (err.what, err.reason)
    };
    assert_eq!(rejected(|c| c.pool_size = 0), ("pool size", "not positive"));
    assert_eq!(rejected(|c| c.max_batch = 0), ("max batch", "not positive"));
}
