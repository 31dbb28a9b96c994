//! Cross-validation of the serving path against the single-run harness:
//! with micro-batching disabled (window 0) and a single warm replica,
//! serving N single-model requests must reproduce — bit for bit — the
//! numerics of N independent `measure_sanitized` runs.
//!
//! This pins down the core amortization claim: the warm pool changes
//! *when* warm-up is priced, never *what* the model computes.
//!
//! The second half pins the serving event loop itself: the `--smoke`
//! configurations of `serve_sweep`, `streaming_ingest` and
//! `fleet_sweep` each reduce to one outcome fingerprint, and `serve`
//! must equal a one-pool static `serve_fleet` record for record.

use dgnn_bench::{build_model, default_config, measure_sanitized, served_zoo};
use dgnn_datasets::{wikipedia, Scale};
use dgnn_device::{DurationNs, ExecMode, PlatformSpec};
use dgnn_profile::LatencyStats;
use dgnn_serve::{
    serve, serve_fleet, serve_streaming, AutoscalerConfig, FleetConfig, FleetOutcome, Request,
    RouterPolicy, ServeConfig, ServeOutcome, ServedBatch, ServedRequest, StreamingConfig,
    StreamingOutcome, WorkloadShape,
};

#[test]
fn window_zero_pool_one_matches_sequential_runs() {
    const N: usize = 5;
    const SEED: u64 = 3;

    let cfg = ServeConfig {
        seed: 17,
        n_requests: N,
        arrival_rate_rps: 40.0,
        batch_window: DurationNs::ZERO, // every request its own batch
        max_batch: 1,
        pool_size: 1,
        queue_bound: 64,
        mode: ExecMode::Gpu,
        trace: true,
        spec: PlatformSpec::default(),
    };
    let outcome = serve(&cfg, &served_zoo(&["jodie"], Scale::Tiny, SEED));
    assert_eq!(outcome.report.served, N, "nothing may shed at this rate");
    assert_eq!(outcome.report.batches, N, "window 0 must not batch");
    assert_eq!(
        outcome.report.cold_services, 0,
        "single-model mix is all-warm"
    );

    // The serving timeline itself must be hazard-free.
    let audit = dgnn_analysis::audit(&outcome.sessions[0]);
    assert!(audit.is_clean(), "served session has hazards: {audit:?}");

    let run_cfg = default_config("jodie").with_max_units(1);
    for (i, batch) in outcome.batches.iter().enumerate() {
        let mut model = build_model("jodie", Scale::Tiny, SEED);
        let (report, run) = measure_sanitized(
            model.as_mut(),
            PlatformSpec::default(),
            ExecMode::Gpu,
            &run_cfg,
        );
        assert!(report.is_clean(), "sequential run {i} has hazards");
        assert_eq!(
            batch.summary.checksum.to_bits(),
            run.summary.checksum.to_bits(),
            "request {i}: served checksum must equal the sequential run's"
        );
        assert_eq!(
            batch.summary.inference_time, run.summary.inference_time,
            "request {i}: priced inference time must be identical"
        );
        assert_eq!(batch.summary.iterations, run.summary.iterations);
    }
}

/// FNV-1a over little-endian 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn n(&mut self, x: usize) {
        self.word(x as u64);
    }

    fn ns(&mut self, d: DurationNs) {
        self.word(d.as_nanos());
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn text(&mut self, s: &str) {
        self.n(s.len());
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    fn stats(&mut self, s: &LatencyStats) {
        for d in [s.p50, s.p95, s.p99, s.mean] {
            self.ns(d);
        }
    }

    fn records(&mut self, requests: &[ServedRequest], shed: &[Request]) {
        self.n(requests.len());
        for r in requests {
            self.n(r.id);
            self.n(r.model);
            self.ns(r.arrival);
            self.n(r.batch);
            self.ns(r.assembled);
            self.ns(r.started);
            self.ns(r.completed);
            self.n(usize::from(r.cold));
            self.ns(r.staleness);
        }
        self.n(shed.len());
        for r in shed {
            self.n(r.id);
        }
    }

    fn batch(&mut self, b: &ServedBatch) {
        self.n(b.model);
        self.n(b.replica);
        self.ns(b.started);
        self.ns(b.completed);
        self.word(u64::from(b.summary.checksum.to_bits()));
    }
}

/// Outcome fingerprint of `serve`: records plus every report field a
/// `serve_sweep` BENCH line prints.
fn serve_digest(d: &mut Digest, out: &ServeOutcome) {
    d.records(&out.requests, &out.shed);
    out.batches.iter().for_each(|b| d.batch(b));
    let r = &out.report;
    for x in [
        r.pool_size,
        r.offered,
        r.served,
        r.shed,
        r.batches,
        r.cold_services,
        r.warm_services,
    ] {
        d.n(x);
    }
    d.stats(&r.latency);
    d.stats(&r.staleness);
    d.f(r.mean_batch_size);
    d.f(r.throughput_rps);
    d.f(r.warmup_share());
    d.ns(r.makespan);
}

fn stream_digest(out: &StreamingOutcome) -> u64 {
    let mut d = Digest::new();
    serve_digest(&mut d, &out.serve);
    d.n(out.ingested);
    d.n(out.compactions);
    d.word(out.memory_checksum);
    d.0
}

/// Outcome fingerprint of `serve_fleet`: records, scale decisions and
/// every report field a `fleet_sweep` BENCH line prints.
fn fleet_digest(out: &FleetOutcome) -> u64 {
    let mut d = Digest::new();
    d.records(&out.requests, &out.shed);
    for b in &out.batches {
        d.n(b.pool);
        d.batch(&b.batch);
    }
    for e in &out.scale_events {
        d.ns(e.at);
        d.text(&format!("{:?}", e.kind));
        d.n(e.pools_after);
        d.n(e.trigger_queued);
    }
    let r = &out.report;
    d.text(r.policy.label());
    d.text(r.shape);
    for x in [
        r.offered,
        r.served,
        r.shed,
        r.pools_spawned,
        r.peak_pools,
        r.final_pools,
        r.scale_outs,
        r.scale_ins,
        r.cold_services,
        r.warm_services,
    ] {
        d.n(x);
    }
    d.stats(&r.latency);
    for x in [
        r.shed_rate(),
        r.slo_attainment(),
        r.replica_seconds,
        r.mean_batch_size,
        r.throughput_rps,
        r.warmup_share(),
    ] {
        d.f(x);
    }
    d.ns(r.slo);
    d.ns(r.makespan);
    d.0
}

/// `serve_sweep`'s configuration at `--smoke` (seed 1, 24 requests).
fn sweep_cfg(pool: usize) -> ServeConfig {
    ServeConfig {
        seed: 1,
        n_requests: 24,
        arrival_rate_rps: 200.0,
        batch_window: DurationNs::from_millis(2),
        max_batch: 4,
        pool_size: pool,
        queue_bound: 1024,
        mode: ExecMode::Gpu,
        trace: false,
        spec: PlatformSpec::default(),
    }
}

/// `streaming_ingest`'s serving side at `--smoke`.
fn stream_serve_cfg() -> ServeConfig {
    ServeConfig {
        n_requests: 10,
        arrival_rate_rps: 1.2,
        pool_size: 1,
        ..sweep_cfg(1)
    }
}

fn stream_cfg(threshold: usize, frozen: bool) -> StreamingConfig {
    let mut scfg = StreamingConfig::new(wikipedia(Scale::Tiny, SMOKE_SEED).stream);
    scfg.compaction_threshold = threshold;
    scfg.ingest_rate_eps = 20.0;
    scfg.frozen = frozen;
    scfg
}

/// `fleet_sweep --smoke`'s autoscaled flash-crowd cell.
fn flash_cfg() -> FleetConfig {
    FleetConfig {
        seed: 1,
        n_requests: 16,
        arrival_rate_rps: 1.0,
        shape: WorkloadShape::FlashCrowd {
            at: DurationNs::from_secs_f64(2.0),
            duration: DurationNs::from_secs_f64(6.0),
            multiplier: 8.0,
        },
        policy: RouterPolicy::PowerOfTwoChoices,
        batch_window: DurationNs::from_millis(50),
        max_batch: 4,
        initial_pools: 1,
        replicas_per_pool: 1,
        queue_bound: 32,
        slo: DurationNs::from_secs_f64(10.0),
        autoscaler: Some(AutoscalerConfig {
            min_pools: 1,
            max_pools: 6,
            scale_out_queue: 2,
            scale_in_queue: 1,
            idle_window: DurationNs::from_secs_f64(2.0),
            cooldown: DurationNs::from_secs_f64(1.0),
        }),
        mode: ExecMode::Gpu,
        trace: false,
        spec: PlatformSpec::default(),
    }
}

/// The two-model mix of `serve_sweep --smoke` and `fleet_sweep --smoke`.
const SMOKE_MIX: [&str; 2] = ["jodie", "dyrep"];

/// The bins' default `--seed`.
const SMOKE_SEED: u64 = 1;

#[test]
fn smoke_configs_reproduce_their_pinned_outcomes() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for pool in [1, 2] {
        let out = serve(
            &sweep_cfg(pool),
            &served_zoo(&SMOKE_MIX, Scale::Tiny, SMOKE_SEED),
        );
        let mut d = Digest::new();
        serve_digest(&mut d, &out);
        got.push((format!("serve pool {pool}"), d.0));
    }
    let tgn = served_zoo(&["tgn"], Scale::Tiny, SMOKE_SEED);
    for (threshold, frozen) in [(256, true), (64, false), (256, false), (1024, false)] {
        let out = serve_streaming(&stream_serve_cfg(), &stream_cfg(threshold, frozen), &tgn);
        got.push((
            format!("stream threshold {threshold} frozen {frozen}"),
            stream_digest(&out),
        ));
    }
    let out = serve_fleet(
        &flash_cfg(),
        &served_zoo(&SMOKE_MIX, Scale::Tiny, SMOKE_SEED),
    );
    assert!(out.report.scale_outs >= 1, "the pinned cell must scale out");
    got.push(("fleet flash autoscaled".to_string(), fleet_digest(&out)));

    let pinned: [(&str, u64); 7] = [
        ("serve pool 1", 0x512c28a9053e0594),
        ("serve pool 2", 0x8c705ca4b9fbb1d2),
        ("stream threshold 256 frozen true", 0x7025ef1e7321ee0e),
        ("stream threshold 64 frozen false", 0xe7f44a1de91e2672),
        ("stream threshold 256 frozen false", 0x5fdd72e3162bf968),
        ("stream threshold 1024 frozen false", 0x91bf0ae417e1db63),
        ("fleet flash autoscaled", 0x0ec236adb94b8df3),
    ];
    let want: Vec<(String, u64)> = pinned.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    let listing: String = got
        .iter()
        .map(|(k, v)| format!("        (\"{k}\", {v:#018x}),\n"))
        .collect();
    assert_eq!(got, want, "serving outcomes moved; observed:\n{listing}");
}

/// `serve` is the one-pool, static, Poisson special case of
/// `serve_fleet`: request for request, batch for batch, checksum bit
/// for checksum bit, whichever policy routes the single pool.
#[test]
fn serve_equals_a_one_pool_static_poisson_fleet() {
    let shedding = ServeConfig {
        queue_bound: 2,
        ..sweep_cfg(1)
    };
    for cfg in [sweep_cfg(1), sweep_cfg(2), shedding] {
        let zoo = served_zoo(&SMOKE_MIX, Scale::Tiny, SMOKE_SEED);
        let single = serve(&cfg, &zoo);
        for policy in [
            RouterPolicy::AffinityFirst,
            RouterPolicy::PowerOfTwoChoices,
            RouterPolicy::JoinShortestQueue,
        ] {
            let fcfg = FleetConfig {
                seed: cfg.seed,
                n_requests: cfg.n_requests,
                arrival_rate_rps: cfg.arrival_rate_rps,
                shape: WorkloadShape::Poisson,
                policy,
                batch_window: cfg.batch_window,
                max_batch: cfg.max_batch,
                initial_pools: 1,
                replicas_per_pool: cfg.pool_size,
                queue_bound: cfg.queue_bound,
                slo: DurationNs::from_secs_f64(10.0),
                autoscaler: None,
                mode: cfg.mode,
                trace: false,
                spec: cfg.spec.clone(),
            };
            let fleet = serve_fleet(&fcfg, &zoo);
            let ctx = format!(
                "pool {} bound {} {}",
                cfg.pool_size,
                cfg.queue_bound,
                policy.label()
            );
            assert_eq!(single.requests, fleet.requests, "{ctx}: request records");
            assert_eq!(single.shed, fleet.shed, "{ctx}: shed requests");
            assert_eq!(single.batches.len(), fleet.batches.len(), "{ctx}: batches");
            for (a, b) in single.batches.iter().zip(&fleet.batches) {
                let mut da = Digest::new();
                da.batch(a);
                da.n(a.requests.len());
                da.ns(a.ready);
                let mut db = Digest::new();
                db.batch(&b.batch);
                db.n(b.batch.requests.len());
                db.ns(b.batch.ready);
                assert_eq!(da.0, db.0, "{ctx}: batch record");
            }
            let (s, f) = (&single.report, &fleet.report);
            assert_eq!(s.latency, f.latency, "{ctx}: latency");
            assert_eq!(s.assembly, f.assembly, "{ctx}: assembly");
            assert_eq!(s.queue_wait, f.queue_wait, "{ctx}: queue wait");
            assert_eq!(s.service, f.service, "{ctx}: service");
            assert_eq!(s.makespan, f.makespan, "{ctx}: makespan");
            assert_eq!(
                (s.cold_services, s.warm_services),
                (f.cold_services, f.warm_services),
                "{ctx}: services"
            );
            assert_eq!(
                s.warmup_share().to_bits(),
                f.warmup_share().to_bits(),
                "{ctx}: warm-up share"
            );
        }
    }
}
