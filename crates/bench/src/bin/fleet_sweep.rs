//! Fleet sweep: routing policies × workload shapes, autoscaled vs
//! static, with the §4.4 warm-up cost priced into every scale-out.
//!
//! The serving sweep (`serve_sweep`) amortizes GPU warm-up inside one
//! warm pool. This binary scales the question to a fleet: N pools
//! behind a deterministic router, an autoscaler that spawns pools
//! (each replica re-paying context + model init before its first
//! request) and drains them (replica-seconds stop accruing), and
//! traffic shapes representative of production — homogeneous Poisson,
//! diurnal sinusoid, flash crowd, heavy-tailed per-user sessions.
//!
//! Each cell reports the policy-level metrics the architecture surveys
//! ask for on top of kernel timelines: SLO attainment over *offered*
//! load (shed requests count as misses), shed rate, replica-seconds
//! (the capacity bill), and scale-event counts. The autoscaled fleet
//! is compared against a static fleet of the same initial size — the
//! SLO-attainment / replica-seconds trade-off in one table.
//!
//! Every cell is emitted as a machine-readable `BENCH {json}` line. A
//! full run from the repo root,
//! `cargo run --release -p dgnn-bench --bin fleet_sweep`, also writes
//! these records to the committed `BENCH_fleet.json` baseline.
//!
//! Usage: `fleet_sweep [--scale tiny|small|full] [--seed N] [--smoke]`
//!
//! `--smoke` shrinks to a tiny two-model mix and additionally
//! (1) replays one autoscaled flash-crowd cell to assert
//! bit-determinism (request records, scale decisions, numerics),
//! (2) audits every replica session of every pool — including
//! autoscaler-spawned ones — with the timeline sanitizer, and
//! (3) asserts the flash crowd actually triggers a scale-out.

use dgnn_bench::{assert_clean, emit, parse_opts, served_zoo};
use dgnn_datasets::Scale;
use dgnn_device::{DurationNs, ExecMode, PlatformSpec};
use dgnn_profile::TextTable;
use dgnn_serve::{
    serve_fleet, AutoscalerConfig, FleetConfig, FleetOutcome, RouterPolicy, WorkloadShape,
};

fn shapes() -> Vec<WorkloadShape> {
    vec![
        WorkloadShape::Poisson,
        WorkloadShape::Diurnal {
            period: DurationNs::from_secs_f64(30.0),
            amplitude: 0.8,
        },
        // ×20 overload, sustained past the ~6.5 s replica provisioning
        // lag: the burst has to both exceed the static fleet's service
        // capacity (so queues actually build and the SLO is at risk)
        // and outlast the warm-up window (a burst shorter than
        // provisioning ends before any scale-out's capacity lands).
        WorkloadShape::FlashCrowd {
            at: DurationNs::from_secs_f64(10.0),
            duration: DurationNs::from_secs_f64(30.0),
            multiplier: 20.0,
        },
        WorkloadShape::Sessions {
            mean_length: 4.0,
            think_time: DurationNs::from_millis(500),
        },
    ]
}

fn scaler() -> AutoscalerConfig {
    AutoscalerConfig {
        min_pools: 1,
        max_pools: 6,
        scale_out_queue: 4,
        scale_in_queue: 1,
        idle_window: DurationNs::from_secs_f64(4.0),
        cooldown: DurationNs::from_secs_f64(2.0),
    }
}

fn fleet_cfg(
    seed: u64,
    n_requests: usize,
    shape: WorkloadShape,
    policy: RouterPolicy,
    autoscaled: bool,
    trace: bool,
) -> FleetConfig {
    FleetConfig {
        seed,
        n_requests,
        arrival_rate_rps: 1.0,
        shape,
        policy,
        batch_window: DurationNs::from_millis(50),
        max_batch: 4,
        initial_pools: 2,
        replicas_per_pool: 2,
        queue_bound: 32,
        slo: DurationNs::from_secs_f64(10.0),
        autoscaler: autoscaled.then(scaler),
        mode: ExecMode::Gpu,
        trace,
        spec: PlatformSpec::default(),
    }
}

fn record_json(out: &FleetOutcome, scaling: &str) -> String {
    let r = &out.report;
    format!(
        "{{\"bench\":\"fleet_sweep\",\"policy\":\"{}\",\"shape\":\"{}\",\
         \"scaling\":\"{scaling}\",\"offered\":{},\"served\":{},\"shed\":{},\
         \"shed_rate\":{:.4},\"slo_ms\":{:.0},\"slo_attainment\":{:.4},\
         \"replica_seconds\":{:.2},\"pools_spawned\":{},\"peak_pools\":{},\
         \"final_pools\":{},\"scale_outs\":{},\"scale_ins\":{},\
         \"cold_services\":{},\"warm_services\":{},\"mean_batch\":{:.3},\
         \"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"mean_ns\":{},\
         \"throughput_rps\":{:.2},\"warmup_share\":{:.4},\"makespan_ms\":{:.1}}}",
        r.policy.label(),
        r.shape,
        r.offered,
        r.served,
        r.shed,
        r.shed_rate(),
        r.slo.as_secs_f64() * 1e3,
        r.slo_attainment(),
        r.replica_seconds,
        r.pools_spawned,
        r.peak_pools,
        r.final_pools,
        r.scale_outs,
        r.scale_ins,
        r.cold_services,
        r.warm_services,
        r.mean_batch_size,
        r.latency.p50.as_nanos(),
        r.latency.p95.as_nanos(),
        r.latency.p99.as_nanos(),
        r.latency.mean.as_nanos(),
        r.throughput_rps,
        r.warmup_share(),
        r.makespan.as_secs_f64() * 1e3,
    )
}

fn main() {
    let opts = parse_opts(&[]);
    let (smoke, seed) = (opts.smoke, opts.seed);
    // Like serve_sweep: the object of study is placement + pricing,
    // both scale-insensitive.
    let scale = opts.sweep_scale();
    let names: &[&str] = if smoke {
        &["jodie", "dyrep"]
    } else {
        &["jodie", "tgn", "dyrep", "ldg_mlp"]
    };
    let n_requests = if smoke { 16 } else { 192 };
    let policies = [
        RouterPolicy::AffinityFirst,
        RouterPolicy::PowerOfTwoChoices,
        RouterPolicy::JoinShortestQueue,
    ];

    if smoke {
        run_smoke(names, scale, seed, n_requests);
        return;
    }

    let mut table = TextTable::new(
        &format!(
            "Fleet sweep — mix [{}], 1 rps mean, SLO 10 s, 2×2 start ({scale:?})",
            names.join("+")
        ),
        &[
            "shape",
            "policy",
            "scaling",
            "served/shed",
            "SLO att.",
            "replica-s",
            "out/in",
            "p99 (s)",
        ],
    );
    let mut records = Vec::new();
    let mut row = |out: &FleetOutcome, scaling: &str| {
        let r = &out.report;
        table.row(&[
            r.shape.to_string(),
            r.policy.label().to_string(),
            scaling.to_string(),
            format!("{}/{}", r.served, r.shed),
            format!("{:.1}%", r.slo_attainment() * 100.0),
            format!("{:.1}", r.replica_seconds),
            format!("{}/{}", r.scale_outs, r.scale_ins),
            format!("{:.2}", r.latency.p99.as_secs_f64()),
        ]);
        emit(&mut records, record_json(out, scaling));
    };

    for shape in shapes() {
        // Autoscaled fleet under every policy…
        for policy in policies {
            let cfg = fleet_cfg(seed, n_requests, shape, policy, true, false);
            let out = serve_fleet(&cfg, &served_zoo(names, scale, seed));
            row(&out, "auto");
        }
        // …and a static JSQ fleet of the same initial size as baseline.
        let cfg = fleet_cfg(
            seed,
            n_requests,
            shape,
            RouterPolicy::JoinShortestQueue,
            false,
            false,
        );
        let out = serve_fleet(&cfg, &served_zoo(names, scale, seed));
        row(&out, "static");
    }
    print!("{}", table.render());
    opts.write_bench_file("BENCH_fleet.json", "fleet_sweep", &records);
}

fn run_smoke(names: &[&str], scale: Scale, seed: u64, n_requests: usize) {
    let flash = WorkloadShape::FlashCrowd {
        at: DurationNs::from_secs_f64(2.0),
        duration: DurationNs::from_secs_f64(6.0),
        multiplier: 8.0,
    };

    // 1. Bit-determinism: an identical autoscaled configuration
    //    replays the identical schedule, scale decisions and numerics.
    let mut cfg = fleet_cfg(
        seed,
        n_requests,
        flash,
        RouterPolicy::PowerOfTwoChoices,
        true,
        false,
    );
    cfg.initial_pools = 1;
    cfg.replicas_per_pool = 1;
    cfg.autoscaler = Some(AutoscalerConfig {
        scale_out_queue: 2,
        idle_window: DurationNs::from_secs_f64(2.0),
        cooldown: DurationNs::from_secs_f64(1.0),
        ..scaler()
    });
    let a = serve_fleet(&cfg, &served_zoo(names, scale, seed));
    let b = serve_fleet(&cfg, &served_zoo(names, scale, seed));
    assert_eq!(a.requests, b.requests, "fleet replay diverged");
    assert_eq!(a.scale_events, b.scale_events, "scale decisions diverged");
    let bits = |o: &FleetOutcome| -> Vec<u32> {
        o.batches
            .iter()
            .map(|x| x.batch.summary.checksum.to_bits())
            .collect()
    };
    assert_eq!(bits(&a), bits(&b), "fleet numerics diverged");

    // 2. The flash crowd must trigger the autoscaler, and every
    //    spawned pool prices its provisioning warm-up.
    assert!(
        a.report.scale_outs >= 1,
        "flash crowd failed to trigger a scale-out: {:?}",
        a.scale_events
    );
    assert_eq!(a.report.pools_spawned, 1 + a.report.scale_outs);
    assert!(a.report.provision.warmup > DurationNs::ZERO);

    // 3. Sanitizer audit over every replica session of every pool,
    //    autoscaler-spawned pools included.
    cfg.trace = true;
    let out = serve_fleet(&cfg, &served_zoo(names, scale, seed));
    assert!(out.report.pools_spawned > 1, "trace run must also scale");
    assert_clean("fleet replica", &out.sessions);

    // 4. Policies and shapes stay deterministic and conserve requests.
    for policy in [RouterPolicy::AffinityFirst, RouterPolicy::JoinShortestQueue] {
        for shape in shapes() {
            let cfg = fleet_cfg(seed, 12, shape, policy, false, false);
            let out = serve_fleet(&cfg, &served_zoo(names, scale, seed));
            assert_eq!(
                out.report.served + out.report.shed,
                12,
                "{} × {} lost requests",
                out.report.policy.label(),
                out.report.shape
            );
        }
    }
    println!("fleet_sweep --smoke: determinism + autoscale + sanitizer OK");
}
