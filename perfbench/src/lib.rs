//! # dgnn-perfbench
//!
//! The repository benchmark: three workloads run through the program's
//! public entry points, each number tagged with the clock it reads.
//! `host` numbers are what the simulator costs on the machine running
//! it; `sim` numbers are what the modelled platform would take, and
//! repeat exactly for a seed. See `README.md` next to this crate for
//! the workloads, metrics and predictions.

#![forbid(unsafe_code)]

mod layers;
pub mod spans;
mod stats;
pub mod workloads;

use std::fmt::Write as _;

use dgnn_bench::harness::walltime;
use dgnn_datasets::Scale;

use spans::Span;
use workloads::{Measured, Setup, SimOutcome, Workload};

/// Seed whose run and batch checksums are recorded in `golden.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Seed kept out of tuning, for checking later claims.
pub const HELD_OUT_SEED: u64 = 7;

/// Set-ups each run times at least; `setup_s` is their median. One
/// set-up costs 0.2–0.4 s, so eleven add a few seconds to a run.
const MIN_SETUPS: usize = 11;

/// Measured iterations each run makes at least, so that one always
/// replays another: two untraced, or one untraced and one traced.
const MIN_ITERATIONS: usize = 2;

/// How far an outer span may differ from the host time of the call it
/// wraps. Only a few instructions separate the two clock reads, so this
/// leaves room for one preemption, not for an unwrapped part of the call.
const SPAN_TOLERANCE_S: f64 = 0.01;

/// Recorded checksum digests: `workload scale seed count digest`.
const GOLDEN: &str = include_str!("../golden.txt");

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: datasets, arrival and ingest schedules, router
    /// probes and model weights all derive from it.
    pub seed: u64,
    /// How long the run measures, in host seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Dataset scale.
    pub scale: Scale,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit; a `sim_` prefix marks the simulated clock.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The values compared.
    pub detail: String,
}

/// Everything a run measured and checked.
#[derive(Debug)]
pub struct Report {
    /// What ran.
    pub options: Options,
    /// Worker threads the program fans out to.
    pub threads: usize,
    /// Measured iterations (untraced plus traced).
    pub iterations: usize,
    /// Requests offered or zoo runs attempted, per iteration.
    pub attempted: usize,
    /// Shed requests, errored runs and audited runs with hazards.
    pub failed: usize,
    /// Output checks.
    pub checks: Vec<Check>,
    /// The JSON metrics: end-to-end (untraced) or per-layer (traced).
    pub metrics: Vec<Metric>,
    /// Further metrics printed as text only.
    pub text_metrics: Vec<Metric>,
    /// Spans of the first traced iteration (empty when untraced).
    pub spans: Vec<Span>,
    /// Digest of every run and batch checksum.
    pub digest: u64,
    /// Number of checksums digested.
    pub checksums: usize,
    /// Host seconds of every untraced measured phase, in run order.
    pub wall_samples: Vec<f64>,
    /// Host seconds of every set-up, in run order.
    pub setup_samples: Vec<f64>,
    /// Peak RSS (MiB) of every untraced call into the program.
    pub rss_samples: Vec<f64>,
}

impl Report {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

struct Iteration {
    setup_s: f64,
    measured: Measured,
    spans: Vec<Span>,
}

fn iterate(opts: &Options, traced: bool) -> Iteration {
    if traced {
        spans::start();
    }
    let t = walltime();
    let mut setup = spans::scoped(spans::SETUP, || {
        Setup::new(opts.workload, opts.scale, opts.seed, traced)
    });
    let setup_s = t.elapsed().as_secs_f64();
    let measured = setup.measure();
    let spans = if traced { spans::finish() } else { Vec::new() };
    Iteration {
        setup_s,
        measured,
        spans,
    }
}

/// Sets the program's worker threads for what follows: one, or the
/// program's default. The benchmark owns `RAYON_NUM_THREADS`, so the
/// caller's environment does not change its results. Call only while no
/// other thread runs.
fn set_single_threaded(one: bool) {
    if one {
        std::env::set_var("RAYON_NUM_THREADS", "1");
    } else {
        std::env::remove_var("RAYON_NUM_THREADS");
    }
}

fn check(checks: &mut Vec<Check>, name: &'static str, ok: bool, detail: String) {
    checks.push(Check { name, ok, detail });
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// The recorded `(count, digest)` for a workload, scale and seed.
fn golden(workload: Workload, scale: Scale, seed: u64) -> Option<(usize, u64)> {
    GOLDEN.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        let key = [workload.name(), scale_name(scale), &seed.to_string()];
        if f.len() == 5 && f[..3] == key {
            let digest = u64::from_str_radix(f[4].trim_start_matches("0x"), 16).ok()?;
            Some((f[3].parse().ok()?, digest))
        } else {
            None
        }
    })
}

fn output_checks(opts: &Options, sim: &SimOutcome, checks: &mut Vec<Check>) {
    let w = opts.workload;
    if w.serves() {
        check(
            checks,
            "served + shed = offered",
            sim.served + sim.shed == sim.offered,
            format!("{} + {} vs {}", sim.served, sim.shed, sim.offered),
        );
    } else {
        check(
            checks,
            "every audit reports zero hazards",
            sim.hazards == 0,
            format!("{} hazards over {} runs", sim.hazards, sim.offered),
        );
        check(
            checks,
            "every run completes",
            sim.errored == 0,
            format!("{} of {} errored", sim.errored, sim.offered),
        );
    }
    if w == Workload::StreamIngest {
        check(
            checks,
            "every stream event is ingested",
            sim.ingest.appends == sim.ingest.stream_events,
            format!("{} of {}", sim.ingest.appends, sim.ingest.stream_events),
        );
    }
    let finite = sim
        .checksums
        .iter()
        .all(|&bits| f32::from_bits(bits).is_finite());
    check(
        checks,
        "every checksum is finite",
        finite && !sim.checksums.is_empty(),
        format!("{} checksums", sim.checksums.len()),
    );
    if opts.seed == DEFAULT_SEED {
        let got = (sim.checksums.len(), stats::digest(&sim.checksums));
        let want = golden(w, opts.scale, opts.seed);
        check(
            checks,
            "checksums equal the recorded default-seed values",
            want == Some(got),
            format!(
                "got {} 0x{:016x}, recorded {}",
                got.0,
                got.1,
                want.map_or("nothing".to_string(), |(n, d)| format!("{n} 0x{d:016x}"))
            ),
        );
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The user-visible simulated-clock metrics beyond `sim_inference_ms`,
/// and `failed_share`. They repeat exactly for a seed, so they are
/// compared exactly, not within a bound: each is zero or undefined on
/// some workload, and on `fleet_flash` the tail moves by more than any
/// bound from one seed to the next.
fn sim_metrics(sim: &SimOutcome) -> Vec<Metric> {
    let ms = |ns: u64| ns as f64 / 1e6;
    vec![
        metric("sim_p50_latency_ms", "sim_ms", ms(sim.p50_ns)),
        metric("sim_p95_latency_ms", "sim_ms", ms(sim.p95_ns)),
        metric("serve.latency_samples", "count", sim.latency_n as f64),
        metric(
            "slo_attainment",
            "ratio",
            ratio(sim.slo_met as f64, sim.offered as f64),
        ),
        metric("replica_seconds", "sim_s", sim.serve.replica_seconds),
        metric("staleness_p95_ms", "sim_ms", ms(sim.staleness_p95_ns)),
        metric(
            "failed_share",
            "ratio",
            ratio(failed(sim) as f64, sim.offered as f64),
        ),
    ]
}

fn failed(sim: &SimOutcome) -> usize {
    sim.shed + sim.errored + sim.hazard_runs
}

/// Per-layer totals read from one traced iteration's spans.
#[derive(Debug, Default)]
struct SpanTotals {
    build_calls: u64,
    build_ns: u64,
    infer_calls: u64,
    infer_ns: u64,
    infer_units: u64,
    infer_events: u64,
    capture_ns: u64,
    audit_ns: u64,
    audit_records: u64,
    /// Duration of each outer span (one per measured call), in order.
    outer_ns: Vec<u64>,
    outer_self_ns: u64,
}

fn span_totals(workload: Workload, spans: &[Span]) -> SpanTotals {
    let self_ns = spans::self_times(spans);
    let mut t = SpanTotals::default();
    for (s, &own) in spans.iter().zip(&self_ns) {
        let d = s.duration_ns();
        match s.name {
            spans::BUILD => {
                t.build_calls += 1;
                t.build_ns += d;
            }
            spans::INFER => {
                t.infer_calls += 1;
                t.infer_ns += d;
                t.infer_units += s.units;
                t.infer_events += s.events;
            }
            spans::CAPTURE => t.capture_ns += d,
            spans::AUDIT => {
                t.audit_ns += d;
                t.audit_records += s.units;
            }
            name if name == workload.outer_span() => {
                t.outer_ns.push(d);
                t.outer_self_ns += own;
            }
            _ => {}
        }
    }
    t
}

/// Checks one traced iteration's spans against each other and against
/// the host time `Measured` took of each call they wrap (`call_s`).
fn span_checks(
    workload: Workload,
    spans: &[Span],
    t: &SpanTotals,
    call_s: &[f64],
    checks: &mut Vec<Check>,
) {
    let nesting = spans::check_nesting(spans);
    check(
        checks,
        "traced spans nest",
        nesting.is_ok(),
        nesting
            .err()
            .unwrap_or_else(|| format!("{} spans", spans.len())),
    );
    let within = |span_ns: u64, call: f64| (span_ns as f64 / 1e9 - call).abs() <= SPAN_TOLERANCE_S;
    check(
        checks,
        "each outer span covers the call it wraps",
        t.outer_ns.len() == call_s.len()
            && t.outer_ns.iter().zip(call_s).all(|(&d, &c)| within(d, c)),
        format!(
            "`{}` spans {:?} ns, calls {:?} s",
            workload.outer_span(),
            t.outer_ns,
            call_s
        ),
    );
    if workload.serves() {
        // Holds only when every build and infer span lies directly under
        // the serve span and nothing else does.
        let outer_ns: u64 = t.outer_ns.iter().sum();
        check(
            checks,
            "build + infer + serve self = serve span",
            t.build_ns + t.infer_ns + t.outer_self_ns == outer_ns && outer_ns > 0,
            format!(
                "{} + {} + {} vs {outer_ns} ns",
                t.build_ns, t.infer_ns, t.outer_self_ns
            ),
        );
    }
}

fn layer_metrics(
    opts: &Options,
    sim: &SimOutcome,
    t: &SpanTotals,
    layers: &layers::LayerTimings,
    fanout_ratio: f64,
    overhead_s: f64,
) -> Vec<Metric> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let services = sim.serve.batches as f64;
    let serve_self_ns = if opts.workload.serves() {
        t.outer_self_ns
    } else {
        0
    };
    let d = &sim.device;
    let mut out = vec![
        metric("models.build.calls", "count", t.build_calls as f64),
        metric("models.build.ms", "ms", ms(t.build_ns)),
        metric(
            "models.build.ms_per_call",
            "ms/call",
            ratio(ms(t.build_ns), t.build_calls as f64),
        ),
        metric(
            "serve.builds_per_service",
            "ratio",
            ratio(t.build_calls as f64, services),
        ),
        metric("models.infer.calls", "count", t.infer_calls as f64),
        metric("models.infer.ms", "ms", ms(t.infer_ns)),
        metric(
            "models.infer.ms_per_unit",
            "ms/unit",
            ratio(ms(t.infer_ns), t.infer_units as f64),
        ),
        metric(
            "models.infer.us_per_event",
            "us/event",
            ratio(t.infer_ns as f64 / 1e3, t.infer_events as f64),
        ),
    ];
    for name in dgnn_bench::MODEL_NAMES {
        let ns = sim.inference_by_model.get(name).copied().unwrap_or(0);
        out.push(metric(format!("models.sim_ms.{name}"), "sim_ms", ms(ns)));
    }
    out.extend([
        metric("tensor.par.fanout_ratio", "ratio", fanout_ratio),
        metric(
            "tensor.matmul.ns_per_flop",
            "ns/flop",
            layers.matmul_ns_per_flop,
        ),
        metric(
            "graph.sample.ns_per_edge",
            "ns/edge",
            layers.sample_ns_per_edge,
        ),
        metric(
            "graph.append.ns_per_event",
            "ns/event",
            layers.append_ns_per_event,
        ),
        metric("graph.ingest.appends", "count", sim.ingest.appends as f64),
        metric(
            "graph.ingest.compactions",
            "count",
            sim.ingest.compactions as f64,
        ),
        metric(
            "graph.ingest.sim_busy_ms",
            "sim_ms",
            ms(sim.ingest.ingest_busy_ns),
        ),
        metric(
            "graph.stream_sample.sim_busy_ms",
            "sim_ms",
            ms(sim.ingest.sample_busy_ns),
        ),
        metric("device.events.kernel", "count", d.kernels as f64),
        metric("device.events.transfer", "count", d.transfers as f64),
        metric("device.events.host", "count", d.host as f64),
        metric("device.events.peer", "count", d.peer as f64),
        metric("device.bytes.h2d", "bytes", d.h2d_bytes as f64),
        metric("device.bytes.d2h", "bytes", d.d2h_bytes as f64),
        metric("device.bytes.peer", "bytes", d.peer_bytes as f64),
        metric("device.trace_records", "count", d.trace_records as f64),
        metric("device.cache.hit_rate", "ratio", d.cache.hit_rate()),
        metric("device.gpu_busy_fraction", "ratio", d.gpu_busy_fraction()),
        metric("serve.self.ms", "ms", ms(serve_self_ns)),
        metric(
            "serve.self.us_per_request",
            "us/request",
            ratio(serve_self_ns as f64 / 1e3, sim.offered as f64),
        ),
        metric("serve.batches", "count", services),
        metric("serve.services.cold", "count", sim.serve.cold as f64),
        metric("serve.services.warm", "count", sim.serve.warm as f64),
        metric("serve.mean_batch", "requests", sim.serve.mean_batch),
        metric("serve.scale_outs", "count", sim.serve.scale_outs as f64),
        metric("serve.scale_ins", "count", sim.serve.scale_ins as f64),
        metric("serve.shed", "count", sim.shed as f64),
        metric(
            "serve.queue_wait_p95_ms",
            "sim_ms",
            ms(sim.serve.queue_wait_p95_ns),
        ),
        metric("profile.capture.ms", "ms", ms(t.capture_ns)),
        metric("analysis.audit.ms", "ms", ms(t.audit_ns)),
        metric(
            "analysis.audit.ns_per_record",
            "ns/record",
            ratio(t.audit_ns as f64, t.audit_records as f64),
        ),
        metric("analysis.hazards", "count", sim.hazards as f64),
        metric("trace.overhead_s", "s", overhead_s),
    ]);
    out
}

/// Runs one workload for `opts.seconds` and checks its outputs.
///
/// An untraced run repeats set-up plus measured phase until the time is
/// spent and reports end-to-end metrics. A traced run spends half the
/// time untraced and half traced, then reports per-layer metrics and the
/// tracing overhead. Either makes at least two iterations, so a run
/// whose iterations are long lasts longer than `opts.seconds`.
pub fn run(opts: &Options) -> Report {
    let single = opts.workload.single_threaded();
    set_single_threaded(single);
    let start = walltime();
    let mut checks = Vec::new();
    let mut setup_s = Vec::new();
    let mut wall_s = Vec::new();
    let (untraced_until, untraced_min) = if opts.trace {
        (opts.seconds / 2.0, MIN_ITERATIONS - 1)
    } else {
        (opts.seconds, MIN_ITERATIONS)
    };
    // Past the minimum, another iteration starts only if at least half
    // of it fits.
    let more = |until: f64, last: f64| start.elapsed().as_secs_f64() + last / 2.0 < until;
    let mut first: Option<SimOutcome> = None;
    let mut replays_match = true;
    let mut rss = Vec::new();
    loop {
        let it = iterate(opts, false);
        let last = it.setup_s + it.measured.wall_s();
        setup_s.push(it.setup_s);
        wall_s.push(it.measured.wall_s());
        rss.extend(it.measured.peak_rss_mib);
        match &first {
            Some(f) => replays_match &= *f == it.measured.sim,
            None => first = Some(it.measured.sim),
        }
        if wall_s.len() >= untraced_min && !more(untraced_until, last) {
            break;
        }
    }
    let sim = first.expect("at least one iteration ran");
    let mut traced_wall_s = Vec::new();
    let mut traced: Option<Iteration> = None;
    let mut fanout_ratio = 0.0;
    if opts.trace {
        loop {
            let it = iterate(opts, true);
            setup_s.push(it.setup_s);
            traced_wall_s.push(it.measured.wall_s());
            replays_match &= it.measured.sim == sim;
            let last = it.setup_s + it.measured.wall_s();
            traced.get_or_insert(it);
            if !more(opts.seconds, last) {
                break;
            }
        }
        // One more untraced iteration at the other thread setting: the
        // fan-out ratio, and a replay at another width.
        set_single_threaded(!single);
        let other = iterate(opts, false);
        set_single_threaded(single);
        replays_match &= other.measured.sim == sim;
        let (default_s, one_s) = if single {
            (other.measured.wall_s(), stats::median(&wall_s))
        } else {
            (stats::median(&wall_s), other.measured.wall_s())
        };
        fanout_ratio = default_s / one_s;
    }
    while setup_s.len() < MIN_SETUPS {
        let t = walltime();
        drop(Setup::new(opts.workload, opts.scale, opts.seed, false));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    check(
        &mut checks,
        "every iteration replays the first bit for bit",
        replays_match,
        format!(
            "{} untraced, {} traced, {} at the other thread count",
            wall_s.len(),
            traced_wall_s.len(),
            u8::from(opts.trace)
        ),
    );
    output_checks(opts, &sim, &mut checks);

    check(
        &mut checks,
        "peak RSS is readable",
        !rss.is_empty(),
        "/proc/self/status VmHWM".to_string(),
    );
    // The end-to-end metrics: the JSON result of an untraced run. Each
    // is defined and non-zero on every workload and steady across seeds,
    // which the other simulated-clock metrics are not (see `sim_metrics`).
    let end_to_end = vec![
        metric("wall_s", "s", stats::median(&wall_s)),
        metric("setup_s", "s", stats::median(&setup_s)),
        metric("peak_rss_mb", "MiB", stats::median(&rss)),
        metric("sim_inference_ms", "sim_ms", sim.inference_ns as f64 / 1e6),
    ];
    let iterations = wall_s.len() + traced_wall_s.len();
    let (metrics, text_metrics, spans) = match traced {
        Some(it) => {
            let totals = span_totals(opts.workload, &it.spans);
            span_checks(
                opts.workload,
                &it.spans,
                &totals,
                &it.measured.call_s,
                &mut checks,
            );
            let layers = layers::measure(opts.workload, opts.scale, opts.seed);
            let overhead = stats::median(&traced_wall_s) - stats::median(&wall_s);
            let mut per_layer = sim_metrics(&sim);
            per_layer.extend(layer_metrics(
                opts,
                &sim,
                &totals,
                &layers,
                fanout_ratio,
                overhead,
            ));
            (per_layer, end_to_end, it.spans)
        }
        None => (end_to_end, sim_metrics(&sim), Vec::new()),
    };
    Report {
        options: opts.clone(),
        threads: dgnn_tensor::par::max_threads(),
        iterations,
        attempted: sim.offered,
        failed: failed(&sim),
        checks,
        metrics,
        text_metrics,
        spans,
        digest: stats::digest(&sim.checksums),
        checksums: sim.checksums.len(),
        wall_samples: wall_s,
        setup_samples: setup_s,
        rss_samples: rss,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// The clock a unit reads: `sim_` units are simulated, plain time and
/// memory units (alone or per unit of work) are host, counts and
/// ratios read none.
fn clock(unit: &str) -> &'static str {
    if unit.starts_with("sim_") {
        "sim"
    } else if matches!(
        unit.split('/').next(),
        Some("s" | "ms" | "us" | "ns" | "MiB")
    ) {
        "host"
    } else {
        "-"
    }
}

/// The full output: a run record, the checks and every metric as text,
/// then the result line last.
pub fn render(report: &Report) -> String {
    let o = &report.options;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# perfbench workload={} seed={} scale={} threads={} trace={} iterations={} held_out_seed={}",
        o.workload.name(),
        o.seed,
        scale_name(o.scale),
        report.threads,
        u8::from(o.trace),
        report.iterations,
        HELD_OUT_SEED,
    );
    let _ = writeln!(
        s,
        "# checksums n={} digest=0x{:016x}",
        report.checksums, report.digest
    );
    let samples = |v: &[f64]| -> String {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(s, "# wall_s samples: {}", samples(&report.wall_samples));
    let _ = writeln!(s, "# setup_s samples: {}", samples(&report.setup_samples));
    let _ = writeln!(s, "# peak_rss_mb samples: {}", samples(&report.rss_samples));
    for c in &report.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        let _ = writeln!(s, "# check {verdict}: {} ({})", c.name, c.detail);
    }
    for m in report.metrics.iter().chain(&report.text_metrics) {
        let _ = writeln!(
            s,
            "{:<34} {:>18} {:<10} {}",
            m.name,
            json_number(m.value),
            m.unit,
            clock(m.unit)
        );
    }
    s.push_str(&result_json(report));
    s.push('\n');
    s
}

/// Spans as tab-separated lines: index, parent, service, name, start
/// and end in host ns since recording began.
pub fn spans_tsv(spans: &[Span]) -> String {
    let mut s = String::from("index\tparent\tservice\tname\tstart_ns\tend_ns\n");
    for (i, sp) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
        let _ = writeln!(
            s,
            "{i}\t{}\t{}\t{}\t{}\t{}",
            opt(sp.parent.map(|p| p as u64)),
            opt(sp.service),
            sp.name,
            sp.start_ns,
            sp.end_ns
        );
    }
    s
}
