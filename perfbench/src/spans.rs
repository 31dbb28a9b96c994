//! In-memory span recorder, plus the two wrappers that feed it from the
//! benchmark's side of the program's public API.
//!
//! A span records a name, a start, an end and the span that was open
//! when it started. Spans of one service share that service's id: the
//! id is taken when the service's model is built, and the model's run
//! spans carry it. Nothing here changes what the program computes —
//! [`TracedModel`] forwards every call to the real model, and the
//! traced handle calls the real handle's `build()`.
//!
//! The recorder is thread-local: every wrapped call the program makes
//! today happens on the thread that entered `serve_fleet`,
//! `serve_streaming` or the zoo loop.

use std::cell::RefCell;
use std::time::Instant;

use dgnn_bench::harness::walltime;
use dgnn_device::Executor;
use dgnn_models::{DgnnModel, InferenceConfig, ModelInfo, ReplicaHandle, RunSummary};

/// Span names: one per layer boundary the benchmark wraps.
pub const BUILD: &str = "models.build";
/// `DgnnModel::run` and `DgnnModel::infer`.
pub const INFER: &str = "models.infer";
/// `InferenceProfile::capture`.
pub const CAPTURE: &str = "profile.capture";
/// `dgnn_analysis::audit`.
pub const AUDIT: &str = "analysis.audit";
/// The benchmark's own per-iteration set-up (datasets, zoo, models).
pub const SETUP: &str = "setup";

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name.
    pub name: &'static str,
    /// Host nanoseconds since recording started.
    pub start_ns: u64,
    /// Host nanoseconds since recording started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Service id shared by a service's build and run spans.
    pub service: Option<u64>,
    /// Work units the call reported (run units, audited records).
    pub units: u64,
    /// Priced timeline events the call appended.
    pub events: u64,
}

impl Span {
    /// Host duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_service: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn elapsed_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).expect("a run lasts far less than 584 years")
}

/// Starts recording on this thread, discarding any earlier spans.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: walltime(),
            spans: Vec::new(),
            open: Vec::new(),
            next_service: 0,
        });
    });
}

/// Stops recording and returns the spans, in start order.
///
/// # Panics
///
/// Panics when a span is still open: every `enter` must be matched.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut().take().map_or_else(Vec::new, |rec| {
            assert!(rec.open.is_empty(), "span left open: {:?}", rec.open);
            rec.spans
        })
    })
}

/// Opens a span when recording is on; returns its index.
pub fn enter(name: &'static str, service: Option<u64>) -> Option<usize> {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let idx = rec.spans.len();
        let start_ns = elapsed_ns(rec.epoch);
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: rec.open.last().copied(),
            service,
            units: 0,
            events: 0,
        });
        rec.open.push(idx);
        Some(idx)
    })
}

/// Closes the span `enter` opened, attaching its work counts.
pub fn exit(idx: Option<usize>, units: u64, events: u64) {
    let Some(idx) = idx else { return };
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().expect("recording stopped with a span open");
        assert_eq!(
            rec.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let end_ns = elapsed_ns(rec.epoch);
        let span = &mut rec.spans[idx];
        span.end_ns = end_ns;
        span.units = units;
        span.events = events;
    });
}

/// Runs `f` inside a span named `name`.
pub fn scoped<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = enter(name, None);
    let out = f();
    exit(idx, 0, 0);
    out
}

/// A fresh service id (0 when recording is off).
fn next_service() -> u64 {
    RECORDER.with(|r| {
        r.borrow_mut().as_mut().map_or(0, |rec| {
            rec.next_service += 1;
            rec.next_service
        })
    })
}

/// Builds through `build` inside a `models.build` span and wraps the
/// model so its runs are recorded under the same service id.
pub fn traced_build(build: impl FnOnce() -> Box<dyn DgnnModel>) -> Box<dyn DgnnModel> {
    let service = next_service();
    let idx = enter(BUILD, Some(service));
    let inner = build();
    exit(idx, 1, 0);
    Box::new(TracedModel { inner, service })
}

/// A handle whose `build()` calls `handle.build()` inside a span.
pub fn traced_handle(handle: ReplicaHandle) -> ReplicaHandle {
    let name = handle.name().to_string();
    ReplicaHandle::new(name, move || traced_build(|| handle.build()))
}

/// A model that forwards every call to the real one, recording a
/// `models.infer` span around `run` and `infer`.
pub struct TracedModel {
    inner: Box<dyn DgnnModel>,
    service: u64,
}

impl TracedModel {
    fn record(
        &mut self,
        ex: &mut Executor,
        call: impl FnOnce(&mut dyn DgnnModel, &mut Executor) -> dgnn_models::Result<RunSummary>,
    ) -> dgnn_models::Result<RunSummary> {
        let before = ex.timeline().len();
        let idx = enter(INFER, Some(self.service));
        let out = call(self.inner.as_mut(), ex);
        let units = out.as_ref().map_or(0, |s| s.iterations as u64);
        exit(idx, units, (ex.timeline().len() - before) as u64);
        out
    }
}

impl DgnnModel for TracedModel {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn info(&self) -> ModelInfo {
        self.inner.info()
    }

    fn param_bytes(&self) -> u64 {
        self.inner.param_bytes()
    }

    fn param_tensors(&self) -> u64 {
        self.inner.param_tensors()
    }

    fn activation_bytes(&self, cfg: &InferenceConfig) -> u64 {
        self.inner.activation_bytes(cfg)
    }

    fn infer(
        &mut self,
        ex: &mut Executor,
        cfg: &InferenceConfig,
    ) -> dgnn_models::Result<RunSummary> {
        self.record(ex, |m, ex| m.infer(ex, cfg))
    }

    fn run(&mut self, ex: &mut Executor, cfg: &InferenceConfig) -> dgnn_models::Result<RunSummary> {
        self.record(ex, |m, ex| m.run(ex, cfg))
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Children of one span never overlap (one thread), so the
/// covered part is the sum of their durations.
pub(crate) fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| s.duration_ns() - c)
        .collect()
}

/// Checks that every span lies inside its parent and that siblings do
/// not overlap; returns the first violation.
///
/// # Errors
///
/// Returns a description of the first span that breaks nesting.
pub(crate) fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut last_child_end: Vec<u64> = vec![0; spans.len()];
    let mut last_root_end = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        let prev_end = match s.parent {
            Some(p) => {
                let parent = &spans[p];
                if p >= i || s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!("span {i} `{}` escapes parent {p}", s.name));
                }
                &mut last_child_end[p]
            }
            None => &mut last_root_end,
        };
        if s.start_ns < *prev_end {
            return Err(format!(
                "span {i} `{}` overlaps its previous sibling",
                s.name
            ));
        }
        *prev_end = s.end_ns;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            service: None,
            units: 0,
            events: 0,
        }
    }

    #[test]
    fn self_times_subtract_children() {
        let spans = [
            span("outer", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert!(check_nesting(&spans).is_ok());
    }

    #[test]
    fn nesting_rejects_escapes_and_overlaps() {
        let escape = [span("outer", 0, 10, None), span("a", 5, 20, Some(0))];
        assert!(check_nesting(&escape).is_err());
        let overlap = [
            span("outer", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 60, Some(0)),
        ];
        assert!(check_nesting(&overlap).is_err());
    }

    #[test]
    fn recorder_nests_and_tags_services() {
        start();
        scoped("outer", || {
            let model =
                traced_build(|| dgnn_bench::build_model("jodie", dgnn_datasets::Scale::Tiny, 1));
            assert_eq!(model.name(), "jodie");
        });
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, BUILD);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].service, Some(1));
        assert!(check_nesting(&spans).is_ok());
        assert!(
            enter("off", None).is_none(),
            "recording is off after finish"
        );
    }
}
