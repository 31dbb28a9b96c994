//! Seeded serving fuzz: random Tiny configurations through the one
//! serving loop.
//!
//! A seeded in-house generator (the workspace has no external crates)
//! draws fleet runs over workload shape, router policy, initial pools,
//! replicas per pool, batch window, batch capacity, queue bound
//! (shedding included), autoscaler on or off and execution mode, and
//! streaming runs over ingest rate, compaction threshold and frozen or
//! live. For every draw the configuration validates, offered load is
//! served plus shed with every request id in exactly one of the two, a
//! second run replays bit for bit, and a traced run — which builds and
//! runs every service instead of replaying — dispatches the same batch
//! records. A streaming draw also ingests every stream event, and its
//! traced ingest session audits clean.

use dgnn_datasets::{wikipedia, Scale};
use dgnn_device::{DurationNs, ExecMode, PlatformSpec};
use dgnn_models::{InferenceConfig, Jodie, ReplicaHandle, Tgat, Tgn};
use dgnn_profile::ServicePhases;
use dgnn_serve::{
    serve_fleet, serve_streaming, AutoscalerConfig, FleetConfig, FleetOutcome, Request,
    RouterPolicy, ServeConfig, ServeOutcome, ServedBatch, ServedModel, ServedRequest,
    StreamingConfig, WorkloadShape, UNBOUNDED,
};
use dgnn_tensor::TensorRng;

/// Fleet configurations drawn.
const FLEET_DRAWS: usize = 24;
/// Streaming configurations drawn.
const STREAMING_DRAWS: usize = 8;

fn ms(v: u64) -> DurationNs {
    DurationNs::from_millis(v)
}

fn pick<T: Copy>(rng: &mut TensorRng, xs: &[T]) -> T {
    xs[rng.index(xs.len())]
}

fn entry(handle: ReplicaHandle, cfg: InferenceConfig, weight: f64) -> ServedModel {
    ServedModel {
        handle,
        cfg: cfg.with_max_units(1),
        weight,
    }
}

/// JODIE and TGAT on Tiny Wikipedia, at small batches so that a traced
/// run, which runs every service, stays fast in debug builds.
fn fleet_zoo(rng: &mut TensorRng) -> Vec<ServedModel> {
    let jodie = wikipedia(Scale::Tiny, 11);
    let tgat = wikipedia(Scale::Tiny, 13);
    vec![
        entry(
            ReplicaHandle::new("jodie", move || Box::new(Jodie::new(jodie.clone(), 11))),
            InferenceConfig::default().with_batch_size(16),
            pick(rng, &[1.0, 3.0]),
        ),
        entry(
            ReplicaHandle::new("tgat", move || Box::new(Tgat::new(tgat.clone(), 13))),
            InferenceConfig::default()
                .with_batch_size(8)
                .with_neighbors(5),
            1.0,
        ),
    ]
}

fn shape(rng: &mut TensorRng) -> WorkloadShape {
    match rng.index(4) {
        0 => WorkloadShape::Poisson,
        1 => WorkloadShape::Diurnal {
            period: ms(pick(rng, &[20, 100])),
            amplitude: pick(rng, &[0.0, 0.5, 0.9]),
        },
        2 => WorkloadShape::FlashCrowd {
            at: ms(pick(rng, &[0, 10, 30])),
            duration: ms(pick(rng, &[10, 40])),
            multiplier: pick(rng, &[1.0, 4.0, 10.0]),
        },
        _ => WorkloadShape::Sessions {
            mean_length: pick(rng, &[1.0, 2.5, 4.0]),
            think_time: ms(pick(rng, &[1, 5])),
        },
    }
}

/// A bound of 1–4 queued requests about a third of the time, so that
/// draws shed; unbounded otherwise.
fn queue_bound(rng: &mut TensorRng) -> usize {
    if rng.chance(0.35) {
        1 + rng.index(4)
    } else {
        UNBOUNDED
    }
}

fn fleet_draw(rng: &mut TensorRng) -> FleetConfig {
    let autoscaler = rng.chance(0.5).then(|| {
        let max_pools = 1 + rng.index(4);
        AutoscalerConfig {
            min_pools: 1 + rng.index(max_pools),
            max_pools,
            scale_out_queue: 1 + rng.index(3),
            scale_in_queue: rng.index(2),
            idle_window: ms(pick(rng, &[5, 20])),
            cooldown: ms(pick(rng, &[2, 10])),
        }
    });
    FleetConfig {
        seed: rng.next_u64() % 1000,
        n_requests: 6 + rng.index(11),
        arrival_rate_rps: pick(rng, &[50.0, 200.0, 800.0]),
        shape: shape(rng),
        policy: pick(
            rng,
            &[
                RouterPolicy::AffinityFirst,
                RouterPolicy::PowerOfTwoChoices,
                RouterPolicy::JoinShortestQueue,
            ],
        ),
        batch_window: ms(pick(rng, &[0, 1, 3, 10])),
        max_batch: 1 + rng.index(4),
        initial_pools: 1 + rng.index(3),
        replicas_per_pool: 1 + rng.index(3),
        queue_bound: queue_bound(rng),
        slo: ms(250),
        autoscaler,
        mode: if rng.chance(0.75) {
            ExecMode::Gpu
        } else {
            ExecMode::CpuOnly
        },
        trace: false,
        spec: PlatformSpec::default(),
    }
}

fn streaming_draw(rng: &mut TensorRng) -> (ServeConfig, StreamingConfig) {
    let cfg = ServeConfig {
        seed: rng.next_u64() % 1000,
        n_requests: 4 + rng.index(5),
        arrival_rate_rps: pick(rng, &[1.2, 5.0, 50.0]),
        batch_window: ms(pick(rng, &[0, 2, 5])),
        max_batch: 1 + rng.index(3),
        pool_size: 1 + rng.index(2),
        queue_bound: queue_bound(rng),
        mode: ExecMode::Gpu,
        trace: false,
        spec: PlatformSpec::default(),
    };
    let mut scfg = StreamingConfig::new(wikipedia(Scale::Tiny, 11).stream);
    scfg.ingest_rate_eps = pick(rng, &[20.0, 200.0, 2_000.0]);
    scfg.compaction_threshold = pick(rng, &[16, 64, 256]);
    scfg.frozen = rng.chance(0.3);
    (cfg, scfg)
}

/// A dispatched batch as the schedule placed and priced it.
type BatchRecord = (
    usize,
    usize,
    usize,
    Vec<usize>,
    bool,
    [DurationNs; 3],
    ServicePhases,
    u32,
);

fn record(pool: usize, b: &ServedBatch) -> BatchRecord {
    (
        pool,
        b.replica,
        b.model,
        b.requests.clone(),
        b.cold,
        [b.ready, b.started, b.completed],
        b.phases,
        b.summary.checksum.to_bits(),
    )
}

fn fleet_records(out: &FleetOutcome) -> Vec<BatchRecord> {
    out.batches
        .iter()
        .map(|b| record(b.pool, &b.batch))
        .collect()
}

fn serve_records(out: &ServeOutcome) -> Vec<BatchRecord> {
    out.batches.iter().map(|b| record(0, b)).collect()
}

/// Offered load is served plus shed, and every request id is in exactly
/// one of the two.
fn assert_conserved(what: &str, n: usize, served: &[ServedRequest], shed: &[Request]) {
    let mut ids: Vec<usize> = served.iter().map(|r| r.id).collect();
    ids.extend(shed.iter().map(|r| r.id));
    ids.sort_unstable();
    assert_eq!(ids, (0..n).collect::<Vec<_>>(), "{what}: request ids");
}

#[test]
fn seeded_fleet_draws_conserve_replay_and_match_traced_runs() {
    let mut rng = TensorRng::seed(0x5e7e);
    // Shed requests, scale-outs and cold services over all draws.
    let mut seen = (0, 0, 0);
    for i in 0..FLEET_DRAWS {
        let zoo = fleet_zoo(&mut rng);
        let cfg = fleet_draw(&mut rng);
        let what = format!("fleet draw {i}: {cfg:?}");
        cfg.validate()
            .unwrap_or_else(|e| panic!("{what}: rejected: {e}"));

        let a = serve_fleet(&cfg, &zoo);
        let r = &a.report;
        assert_eq!(r.offered, cfg.n_requests, "{what}: offered");
        assert_eq!(r.served + r.shed, r.offered, "{what}: served + shed");
        assert_conserved(&what, cfg.n_requests, &a.requests, &a.shed);
        seen.0 += r.shed;
        seen.1 += r.scale_outs;
        seen.2 += r.cold_services;

        let b = serve_fleet(&cfg, &zoo);
        assert_eq!(a.requests, b.requests, "{what}: requests replay");
        assert_eq!(a.shed, b.shed, "{what}: shed replay");
        assert_eq!(a.scale_events, b.scale_events, "{what}: scale replay");
        assert_eq!(
            fleet_records(&a),
            fleet_records(&b),
            "{what}: batches replay"
        );
        assert_eq!(
            (r.makespan, r.replica_seconds.to_bits()),
            (b.report.makespan, b.report.replica_seconds.to_bits()),
            "{what}: report replay"
        );

        let traced_cfg = FleetConfig {
            trace: true,
            ..cfg.clone()
        };
        let traced = serve_fleet(&traced_cfg, &zoo);
        assert_eq!(
            fleet_records(&a),
            fleet_records(&traced),
            "{what}: traced batches"
        );
    }
    assert!(
        seen.0 > 0 && seen.1 > 0 && seen.2 > 0,
        "draws shed, scale out and cold-start: {seen:?}"
    );
}

#[test]
fn seeded_streaming_draws_ingest_everything_replay_and_audit_clean() {
    let mut rng = TensorRng::seed(0x57e4);
    let data = wikipedia(Scale::Tiny, 11);
    let zoo = [entry(
        ReplicaHandle::new("tgn", move || Box::new(Tgn::new(data.clone(), 11))),
        InferenceConfig::default()
            .with_batch_size(8)
            .with_neighbors(5),
        1.0,
    )];
    let mut frozen = [false; 2];
    for i in 0..STREAMING_DRAWS {
        let (cfg, scfg) = streaming_draw(&mut rng);
        frozen[usize::from(scfg.frozen)] = true;
        let what = format!(
            "streaming draw {i}: {cfg:?}, ingest {} eps, threshold {}, frozen {}",
            scfg.ingest_rate_eps, scfg.compaction_threshold, scfg.frozen
        );
        cfg.validate()
            .unwrap_or_else(|e| panic!("{what}: rejected: {e}"));
        scfg.validate()
            .unwrap_or_else(|e| panic!("{what}: rejected: {e}"));
        let events = scfg.stream.events().len();

        let a = serve_streaming(&cfg, &scfg, &zoo);
        let r = &a.serve.report;
        assert_eq!(r.served + r.shed, cfg.n_requests, "{what}: served + shed");
        assert_conserved(&what, cfg.n_requests, &a.serve.requests, &a.serve.shed);
        assert_eq!(a.ingested, events, "{what}: every event ingested");

        let b = serve_streaming(&cfg, &scfg, &zoo);
        assert_eq!(
            a.serve.requests, b.serve.requests,
            "{what}: requests replay"
        );
        assert_eq!(a.serve.shed, b.serve.shed, "{what}: shed replay");
        assert_eq!(
            serve_records(&a.serve),
            serve_records(&b.serve),
            "{what}: batches replay"
        );
        assert_eq!(
            (a.ingested, a.compactions, a.memory_checksum),
            (b.ingested, b.compactions, b.memory_checksum),
            "{what}: ingest replay"
        );

        let traced_cfg = ServeConfig {
            trace: true,
            ..cfg.clone()
        };
        let traced = serve_streaming(&traced_cfg, &scfg, &zoo);
        assert_eq!(
            serve_records(&a.serve),
            serve_records(&traced.serve),
            "{what}: traced batches"
        );
        assert_eq!(traced.ingested, events, "{what}: traced ingest");
        let audit = dgnn_analysis::audit(&traced.ingest_session);
        assert!(audit.is_clean(), "{what}: ingest session: {audit}");
        assert_eq!(audit.stats.graph_appends, events, "{what}: appends");
    }
    assert_eq!(frozen, [true; 2], "draws both live and frozen");
}
