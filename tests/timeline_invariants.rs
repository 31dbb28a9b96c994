//! Timeline invariants of the serial simulator: events never overlap,
//! they advance monotonically on the single clock, and the top-level
//! profiler scopes (warm-up + inference) tile a full model run exactly —
//! their summed durations equal `Executor::now()`. Every bottleneck
//! share in the paper-claims suite divides by these totals, so the
//! accounting must close to the nanosecond.

use dgnn_suite::datasets::{iso17, wikipedia, Scale};
use dgnn_suite::device::{ExecMode, Executor, PlatformSpec};
use dgnn_suite::models::{DgnnModel, InferenceConfig, MolDgnn, Tgat, Tgn};

const SEED: u64 = 13;

fn zoo() -> Vec<(Box<dyn DgnnModel>, InferenceConfig)> {
    let base = InferenceConfig::default().with_max_units(2);
    vec![
        (
            Box::new(Tgat::new(wikipedia(Scale::Tiny, SEED), SEED)) as _,
            base.clone().with_batch_size(100).with_neighbors(10),
        ),
        (
            Box::new(Tgn::new(wikipedia(Scale::Tiny, SEED), SEED)) as _,
            base.clone().with_batch_size(128).with_neighbors(10),
        ),
        (
            Box::new(MolDgnn::new(iso17(Scale::Tiny, SEED), SEED)) as _,
            base.with_batch_size(32),
        ),
    ]
}

#[test]
fn events_are_monotone_and_non_overlapping() {
    for mode in [ExecMode::Gpu, ExecMode::CpuOnly] {
        for (mut model, cfg) in zoo() {
            let mut ex = Executor::new(PlatformSpec::default(), mode);
            model.run(&mut ex, &cfg).unwrap();
            let events = ex.timeline().events();
            assert!(!events.is_empty(), "{} produced no events", model.name());
            let mut cursor = 0u64;
            for e in events {
                assert!(
                    e.start.as_nanos() >= cursor,
                    "{} [{mode:?}]: event '{}' starts at {} before the previous \
                     event ended at {cursor}",
                    model.name(),
                    e.label,
                    e.start.as_nanos(),
                );
                assert!(
                    e.end >= e.start,
                    "{} [{mode:?}]: event '{}' ends before it starts",
                    model.name(),
                    e.label,
                );
                cursor = e.end.as_nanos();
            }
            assert!(
                cursor <= ex.now().as_nanos(),
                "{} [{mode:?}]: last event outlives the clock",
                model.name(),
            );
        }
    }
}

/// With `pipeline_overlap` off (the default), the decorated drivers must
/// behave exactly like the seed's serial engine: no event carries a
/// stream tag, and the timeline replays byte-for-byte — same labels,
/// same nanosecond endpoints, same priced work. Overlap on is the only
/// thing allowed to change the timeline.
#[test]
fn overlap_off_timelines_are_untagged_and_bit_stable() {
    for (i, (_, cfg)) in zoo().iter().enumerate() {
        assert!(
            !cfg.pipeline_overlap,
            "config {i}: pipeline_overlap must default off"
        );
    }
    for mode in [ExecMode::Gpu, ExecMode::CpuOnly] {
        for ((mut model, cfg), (mut replay, _)) in zoo().into_iter().zip(zoo()) {
            let mut ex = Executor::new(PlatformSpec::default(), mode);
            model.run(&mut ex, &cfg).unwrap();
            let mut ex2 = Executor::new(PlatformSpec::default(), mode);
            replay.run(&mut ex2, &cfg).unwrap();

            let (a, b) = (ex.timeline().events(), ex2.timeline().events());
            assert_eq!(a.len(), b.len(), "{}: event count drifted", model.name());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(
                    x.stream,
                    None,
                    "{} [{mode:?}]: serial event '{}' carries a stream tag",
                    model.name(),
                    x.label,
                );
                assert_eq!(
                    (x.label, x.start, x.end, x.flops, x.bytes),
                    (y.label, y.start, y.end, y.flops, y.bytes),
                    "{} [{mode:?}]: timeline is not bit-stable",
                    model.name(),
                );
            }
            assert_eq!(ex.now(), ex2.now());
        }
    }
}

#[test]
fn top_level_scopes_tile_the_run_exactly() {
    for mode in [ExecMode::Gpu, ExecMode::CpuOnly] {
        for (mut model, cfg) in zoo() {
            let mut ex = Executor::new(PlatformSpec::default(), mode);
            model.run(&mut ex, &cfg).unwrap();
            let top: Vec<_> = ex.scopes().iter().filter(|s| s.depth == 0).collect();
            // A full run is warm-up followed by inference; both are
            // top-level scopes on the same clock.
            assert!(
                top.iter().any(|s| s.path == "warmup"),
                "{}: missing warmup scope",
                model.name(),
            );
            assert!(
                top.iter().any(|s| s.path == "inference"),
                "{}: missing inference scope",
                model.name(),
            );
            // Scopes are contiguous: each starts where the previous ended.
            let mut cursor = 0u64;
            for s in &top {
                assert_eq!(
                    s.start.as_nanos(),
                    cursor,
                    "{} [{mode:?}]: top-level scope '{}' does not start where \
                     the previous one ended",
                    model.name(),
                    s.path,
                );
                cursor = s.end.as_nanos();
            }
            // And their durations sum to the executor clock.
            let total: u64 = top.iter().map(|s| s.duration().as_nanos()).sum();
            assert_eq!(
                total,
                ex.now().as_nanos(),
                "{} [{mode:?}]: top-level scopes do not tile the timeline",
                model.name(),
            );
        }
    }
}
