//! Streaming ingestion benchmark: queries racing live graph appends.
//!
//! The paper profiles inference over a *frozen* graph; a deployed DGNN
//! also ingests edge events while serving, and the host must split its
//! time between appending to the delta-log CSR (plus TGN node-memory
//! updates and periodic compaction) and sampling for queries. This
//! binary measures that **freshness-vs-latency tradeoff** on TGN:
//!
//! * sweeping the delta-log **compaction threshold** — small thresholds
//!   compact often (short delta rows, costlier ingest instants), large
//!   ones let the delta grow (cheap appends, longer sample reads);
//! * sweeping the **ingest rate** — sparse streams leave queries with
//!   stale snapshots, dense streams keep data fresh but contend with
//!   sampling on the host clock;
//! * against the **frozen-graph baseline** — the whole graph built
//!   before serving: zero staleness, zero ingest contention.
//!
//! Every configuration is emitted as a `BENCH {json}` line with
//! latency and staleness order statistics. A full run from the repo
//! root, `cargo run --release -p dgnn-bench --bin streaming_ingest`,
//! also writes these records to the committed `BENCH_streaming.json`
//! baseline.
//!
//! Usage: `streaming_ingest [--scale tiny|small|full] [--seed N] [--smoke]`
//!
//! `--smoke` shrinks the sweep and additionally (1) replays one
//! configuration to assert bit-determinism of the schedule, the served
//! numerics and the ingested node-memory state, and (2) audits the
//! ingest session and every replica session with the timeline
//! sanitizer, RULE7 (sample-after-append) included.

use dgnn_bench::{assert_clean, emit, parse_opts, served_zoo};
use dgnn_datasets::{wikipedia, Scale};
use dgnn_device::{DurationNs, ExecMode, PlatformSpec};
use dgnn_profile::TextTable;
use dgnn_serve::{serve_streaming, ServeConfig, StreamingConfig, StreamingOutcome};

fn serve_cfg(seed: u64, n_requests: usize, trace: bool) -> ServeConfig {
    ServeConfig {
        seed,
        n_requests,
        // Slow arrivals: the stream outlasts pool provisioning, so the
        // tail of the request stream genuinely races ingestion.
        arrival_rate_rps: 1.2,
        batch_window: DurationNs::from_millis(2),
        max_batch: 4,
        pool_size: 1,
        queue_bound: 1024,
        mode: ExecMode::Gpu,
        trace,
        spec: PlatformSpec::default(),
    }
}

fn stream_cfg(
    scale: Scale,
    seed: u64,
    threshold: usize,
    rate: f64,
    frozen: bool,
) -> StreamingConfig {
    let mut scfg = StreamingConfig::new(wikipedia(scale, seed).stream);
    scfg.compaction_threshold = threshold;
    scfg.ingest_rate_eps = rate;
    scfg.frozen = frozen;
    scfg
}

struct Row {
    threshold: usize,
    rate: f64,
    frozen: bool,
    out: StreamingOutcome,
}

impl Row {
    fn json(&self) -> String {
        let r = &self.out.serve.report;
        format!(
            "{{\"bench\":\"streaming_ingest\",\"model\":\"tgn\",\
             \"threshold\":{},\"ingest_rate_eps\":{:.1},\"frozen\":{},\
             \"served\":{},\"ingested\":{},\"compactions\":{},\
             \"p50_ns\":{},\"p99_ns\":{},\"mean_ns\":{},\
             \"staleness_p50_ns\":{},\"staleness_p99_ns\":{},\
             \"staleness_mean_ns\":{}}}",
            self.threshold,
            self.rate,
            self.frozen,
            r.served,
            self.out.ingested,
            self.out.compactions,
            r.latency.p50.as_nanos(),
            r.latency.p99.as_nanos(),
            r.latency.mean.as_nanos(),
            r.staleness.p50.as_nanos(),
            r.staleness.p99.as_nanos(),
            r.staleness.mean.as_nanos(),
        )
    }
}

fn main() {
    let opts = parse_opts(&[]);
    let (smoke, seed) = (opts.smoke, opts.seed);
    // The object of study is host-side ingest/sampling contention, not
    // model math.
    let scale = opts.sweep_scale();
    let n_requests = if smoke { 10 } else { 24 };
    let thresholds: &[usize] = &[64, 256, 1024];
    let rates: &[f64] = if smoke { &[20.0] } else { &[20.0, 200.0] };

    let zoo = served_zoo(&["tgn"], scale, seed);
    let mut rows: Vec<Row> = Vec::new();

    // Frozen-graph baseline: the reference column.
    let out = serve_streaming(
        &serve_cfg(seed, n_requests, false),
        &stream_cfg(scale, seed, 256, 20.0, true),
        &zoo,
    );
    assert!(
        out.serve
            .requests
            .iter()
            .all(|r| r.staleness == DurationNs::ZERO),
        "frozen baseline must have zero staleness"
    );
    rows.push(Row {
        threshold: 256,
        rate: 0.0,
        frozen: true,
        out,
    });

    for &threshold in thresholds {
        for &rate in rates {
            let out = serve_streaming(
                &serve_cfg(seed, n_requests, false),
                &stream_cfg(scale, seed, threshold, rate, false),
                &zoo,
            );
            rows.push(Row {
                threshold,
                rate,
                frozen: false,
                out,
            });
        }
    }

    let mut table = TextTable::new(
        &format!("Streaming ingest — TGN, freshness vs latency ({scale:?})"),
        &[
            "threshold",
            "rate (eps)",
            "served",
            "compactions",
            "p50 (ms)",
            "p99 (ms)",
            "stale p50 (ms)",
            "stale p99 (ms)",
        ],
    );
    let mut records = Vec::new();
    for row in &rows {
        let r = &row.out.serve.report;
        let ms = |d: DurationNs| format!("{:.3}", d.as_secs_f64() * 1e3);
        table.row(&[
            if row.frozen {
                "frozen".to_string()
            } else {
                format!("{}", row.threshold)
            },
            if row.frozen {
                "-".to_string()
            } else {
                format!("{:.0}", row.rate)
            },
            format!("{}", r.served),
            format!("{}", row.out.compactions),
            ms(r.latency.p50),
            ms(r.latency.p99),
            ms(r.staleness.p50),
            ms(r.staleness.p99),
        ]);
        emit(&mut records, row.json());
    }
    print!("{}", table.render());

    // The tradeoff's live half: with a sparse ingest stream some query
    // must be served with stale data (the frozen column shows zero).
    let low_rate = rows
        .iter()
        .find(|r| !r.frozen && r.rate <= 20.0)
        .expect("sweep includes the sparse rate");
    assert!(
        low_rate.out.serve.report.staleness.p99 > DurationNs::ZERO,
        "sparse ingest must surface staleness at the tail"
    );

    if smoke {
        // 1. Bit-determinism: schedule, numerics, and ingested state.
        let cfg = serve_cfg(seed, n_requests, false);
        let scfg = stream_cfg(scale, seed, 64, 20.0, false);
        let a = serve_streaming(&cfg, &scfg, &served_zoo(&["tgn"], scale, seed));
        let b = serve_streaming(&cfg, &scfg, &served_zoo(&["tgn"], scale, seed));
        assert_eq!(
            a.serve.requests, b.serve.requests,
            "streaming replay diverged"
        );
        assert_eq!(
            a.memory_checksum, b.memory_checksum,
            "ingest state diverged"
        );
        let bits = |o: &StreamingOutcome| -> Vec<u32> {
            o.serve
                .batches
                .iter()
                .map(|x| x.summary.checksum.to_bits())
                .collect()
        };
        assert_eq!(bits(&a), bits(&b), "service numerics diverged");

        // 2. Sanitizer audit, RULE7 included: the ingest session logs
        //    every append and sample; replicas stay clean too.
        let out = serve_streaming(
            &serve_cfg(seed, 8, true),
            &stream_cfg(scale, seed, 64, 20.0, false),
            &served_zoo(&["tgn"], scale, seed),
        );
        let report = dgnn_analysis::audit(&out.ingest_session);
        assert!(report.is_clean(), "ingest session has hazards: {report}");
        assert_eq!(report.stats.graph_appends, out.ingested);
        assert!(report.stats.graph_samples > 0, "batches must log samples");
        assert_clean("replica", &out.serve.sessions);
        println!("streaming_ingest --smoke: determinism + RULE7 sanitizer OK");
    }
    opts.write_bench_file("BENCH_streaming.json", "streaming_ingest", &records);
}
