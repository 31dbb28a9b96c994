//! Serving sweep: warm-pool amortization of the §4.4 warm-up cost.
//!
//! The paper measures that GPU context + model initialization can cost
//! as much as ~86 inference iterations (Table 2) and argues a serving
//! deployment must amortize it. This binary quantifies the amortization
//! with the deterministic `dgnn-serve` subsystem: a Poisson request
//! stream over a model mix, dynamic micro-batching, and a warm replica
//! pool, swept over pool sizes at a fixed arrival rate.
//!
//! With a pool smaller than the mix, every model alternation evicts
//! resident weights and re-pays `model_init` inside a request's
//! latency — cold-start spikes that surface at p99. A pool that fits
//! the mix pays warm-up only at provisioning time.
//!
//! Every configuration is emitted as a machine-readable `BENCH {json}`
//! line (p50/p95/p99, throughput, cold/warm service counts, and the
//! warm-up share of all busy time).
//!
//! Usage: `serve_sweep [--scale tiny|small|full] [--seed N] [--smoke]`
//!
//! `--smoke` shrinks to a tiny two-model mix and additionally
//! (1) replays one configuration to assert bit-determinism,
//! (2) audits every replica session with the timeline sanitizer —
//! serial and pipeline-overlap service modes — and
//! (3) asserts that pool 2 beats pool 1 at the tail.

use dgnn_bench::{assert_clean, emit, parse_opts, served_zoo};
use dgnn_device::{DurationNs, ExecMode, PlatformSpec};
use dgnn_profile::TextTable;
use dgnn_serve::{serve, ServeConfig, ServeOutcome, ServedModel};

fn serve_cfg(seed: u64, n_requests: usize, pool: usize, trace: bool) -> ServeConfig {
    ServeConfig {
        seed,
        n_requests,
        arrival_rate_rps: 200.0,
        batch_window: DurationNs::from_millis(2),
        max_batch: 4,
        pool_size: pool,
        queue_bound: 1024,
        mode: ExecMode::Gpu,
        trace,
        spec: PlatformSpec::default(),
    }
}

fn record_json(tag: &str, cfg: &ServeConfig, out: &ServeOutcome) -> String {
    let r = &out.report;
    format!(
        "{{\"bench\":\"serve_sweep\",\"mix\":\"{tag}\",\"pool\":{},\
         \"rate_rps\":{:.1},\"window_ms\":{:.1},\"max_batch\":{},\
         \"offered\":{},\"served\":{},\"shed\":{},\"batches\":{},\
         \"mean_batch\":{:.3},\"cold_services\":{},\"warm_services\":{},\
         \"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"mean_ns\":{},\
         \"throughput_rps\":{:.2},\"warmup_share\":{:.4}}}",
        r.pool_size,
        cfg.arrival_rate_rps,
        cfg.batch_window.as_secs_f64() * 1e3,
        cfg.max_batch,
        r.offered,
        r.served,
        r.shed,
        r.batches,
        r.mean_batch_size,
        r.cold_services,
        r.warm_services,
        r.latency.p50.as_nanos(),
        r.latency.p95.as_nanos(),
        r.latency.p99.as_nanos(),
        r.latency.mean.as_nanos(),
        r.throughput_rps,
        r.warmup_share(),
    )
}

fn main() {
    let opts = parse_opts(&[]);
    let (smoke, seed) = (opts.smoke, opts.seed);
    // The sweep's object of study is scheduling + warm-up pricing, both
    // scale-insensitive.
    let scale = opts.sweep_scale();
    let names: &[&str] = if smoke {
        &["jodie", "dyrep"]
    } else {
        &["jodie", "tgn", "dyrep", "ldg_mlp"]
    };
    let tag = names.join("+");
    let n_requests = if smoke { 24 } else { 96 };
    let pools: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };

    let mut table = TextTable::new(
        &format!("Serving sweep — mix [{tag}], 200 rps, window 2 ms ({scale:?})"),
        &[
            "pool",
            "served/shed",
            "cold/warm",
            "p50 (ms)",
            "p99 (ms)",
            "tput (rps)",
            "warm-up share",
        ],
    );

    let mut p99_by_pool: Vec<(usize, u64)> = Vec::new();
    let mut records = Vec::new();
    for &pool in pools {
        let cfg = serve_cfg(seed, n_requests, pool, false);
        let zoo = served_zoo(names, scale, seed);
        let out = serve(&cfg, &zoo);
        let r = &out.report;
        table.row(&[
            format!("{pool}"),
            format!("{}/{}", r.served, r.shed),
            format!("{}/{}", r.cold_services, r.warm_services),
            format!("{:.3}", r.latency.p50.as_secs_f64() * 1e3),
            format!("{:.3}", r.latency.p99.as_secs_f64() * 1e3),
            format!("{:.1}", r.throughput_rps),
            format!("{:.1}%", r.warmup_share() * 100.0),
        ]);
        emit(&mut records, record_json(&tag, &cfg, &out));
        p99_by_pool.push((pool, r.latency.p99.as_nanos()));
    }
    print!("{}", table.render());

    let p99_pool1 = p99_by_pool[0].1;
    let p99_pooln = p99_by_pool.last().expect("at least two pools").1;
    assert!(
        p99_pooln < p99_pool1,
        "a pool fitting the mix must cut tail latency: pool {} p99 {} ≥ pool 1 p99 {}",
        p99_by_pool.last().expect("non-empty").0,
        p99_pooln,
        p99_pool1,
    );

    if smoke {
        // 1. Bit-determinism: an identical configuration replays the
        //    identical schedule and numerics.
        let cfg = serve_cfg(seed, n_requests, 1, false);
        let a = serve(&cfg, &served_zoo(names, scale, seed));
        let b = serve(&cfg, &served_zoo(names, scale, seed));
        assert_eq!(a.requests, b.requests, "serving replay diverged");
        let bits = |o: &ServeOutcome| -> Vec<u32> {
            o.batches
                .iter()
                .map(|x| x.summary.checksum.to_bits())
                .collect()
        };
        assert_eq!(bits(&a), bits(&b), "service numerics diverged");

        // 2. Sanitizer audit over served sessions, serial mode.
        let out = serve(
            &serve_cfg(seed, 12, 2, true),
            &served_zoo(names, scale, seed),
        );
        assert_clean("serial replica", &out.sessions);

        // 3. Same audit with pipeline-overlap services: the replicas
        //    run the stream-forked drivers, so the sanitizer checks
        //    real cross-stream edges.
        let overlap_zoo: Vec<ServedModel> = served_zoo(&["tgat", "tgn"], scale, seed)
            .into_iter()
            .map(|mut m| {
                m.cfg = m.cfg.with_pipeline_overlap(true).with_batch_size(64);
                m
            })
            .collect();
        let out = serve(&serve_cfg(seed, 8, 2, true), &overlap_zoo);
        assert_clean("overlap replica", &out.sessions);
        println!("serve_sweep --smoke: determinism + sanitizer (serial, overlap) OK");
    }
}
