//! Adversarial and known-good traces for the timeline sanitizer.
//!
//! Every one of the eight hazard rules is exercised with at least one
//! hand-built trace that MUST be flagged, and the clean twins (plus real
//! executor sessions) MUST pass. This is the regression net that keeps
//! the checker honest in both directions: no missed hazards, no false
//! positives on well-synchronized schedules.

use dgnn_analysis::{audit, sanitize, BusyClaim, HazardRule};
use dgnn_device::{
    AccessKind, DeviceTensor, Dispatcher, DurationNs, EventCategory, ExecMode, ExecTrace, Executor,
    OpKind, Place, PlatformSpec, StreamId, Timeline, TimelineEvent, TraceRecord, TransferDir,
};
use dgnn_tensor::Tensor;

fn ns(n: u64) -> DurationNs {
    DurationNs::from_nanos(n)
}

fn kernel_event(start: u64, end: u64, stream: Option<StreamId>) -> TimelineEvent {
    TimelineEvent {
        label: "kernel",
        scope: "".into(),
        category: EventCategory::Kernel(OpKind::Gemm),
        place: Place::Gpu,
        start: ns(start),
        end: ns(end),
        occupancy: 1.0,
        flops: 1,
        bytes: 0,
        stream,
        device: 0,
    }
}

fn transfer_event(dir: TransferDir, bytes: u64, stream: Option<StreamId>) -> TimelineEvent {
    TimelineEvent {
        label: "memcpy",
        scope: "".into(),
        category: EventCategory::Transfer(dir),
        place: Place::Pcie,
        start: ns(0),
        end: ns(10),
        occupancy: 1.0,
        flops: 0,
        bytes,
        stream,
        device: 0,
    }
}

// ---------------------------------------------------------------------
// RULE1 read-before-transfer
// ---------------------------------------------------------------------

#[test]
fn rule1_cross_lane_upload_without_wait_is_flagged() {
    let mut trace = ExecTrace::new();
    trace.push(TraceRecord::Fork { at: ns(0) });
    trace.push(TraceRecord::Crossing {
        tensor: Some(1),
        dir: TransferDir::H2D,
        bytes: 128,
        lane: Some(StreamId::Copy),
        staged: false,
        at_event: 0,
    });
    // Compute reads the buffer with NO record/wait edge from Copy.
    trace.push(TraceRecord::Access {
        tensor: 1,
        kind: AccessKind::Arg,
        lane: Some(StreamId::Compute),
        place: Place::Gpu,
        at_event: 1,
    });
    trace.push(TraceRecord::Join {
        at: ns(20),
        lane_clocks: vec![ns(10), ns(10), ns(10)],
    });
    let report = sanitize(&Timeline::new(), &trace, None);
    assert_eq!(report.count(HazardRule::ReadBeforeTransfer), 1, "{report}");
}

#[test]
fn rule1_read_of_never_uploaded_tensor_is_flagged() {
    let mut trace = ExecTrace::new();
    trace.push(TraceRecord::Access {
        tensor: 9,
        kind: AccessKind::Arg,
        lane: None,
        place: Place::Gpu,
        at_event: 0,
    });
    let report = sanitize(&Timeline::new(), &trace, None);
    assert_eq!(report.count(HazardRule::ReadBeforeTransfer), 1, "{report}");
}

#[test]
fn rule1_clean_twin_with_handoff_passes() {
    let mut trace = ExecTrace::new();
    trace.push(TraceRecord::Fork { at: ns(0) });
    trace.push(TraceRecord::Crossing {
        tensor: Some(1),
        dir: TransferDir::H2D,
        bytes: 128,
        lane: Some(StreamId::Copy),
        staged: false,
        at_event: 0,
    });
    trace.push(TraceRecord::EventRecord {
        event: 0,
        lane: StreamId::Copy,
        at: ns(10),
    });
    trace.push(TraceRecord::EventWait {
        event: 0,
        lane: StreamId::Compute,
    });
    trace.push(TraceRecord::Access {
        tensor: 1,
        kind: AccessKind::Arg,
        lane: Some(StreamId::Compute),
        place: Place::Gpu,
        at_event: 1,
    });
    trace.push(TraceRecord::Join {
        at: ns(20),
        lane_clocks: vec![ns(10), ns(10), ns(15)],
    });
    let report = sanitize(&Timeline::new(), &trace, None);
    assert_eq!(report.count(HazardRule::ReadBeforeTransfer), 0, "{report}");
    assert_eq!(report.count(HazardRule::MissingWait), 0, "{report}");
    assert_eq!(report.count(HazardRule::ClockMonotonicity), 0, "{report}");
}

// ---------------------------------------------------------------------
// RULE2 use-after-release
// ---------------------------------------------------------------------

#[test]
fn rule2_read_after_release_is_flagged() {
    let mut trace = ExecTrace::new();
    trace.push(TraceRecord::Crossing {
        tensor: Some(3),
        dir: TransferDir::H2D,
        bytes: 64,
        lane: None,
        staged: false,
        at_event: 0,
    });
    trace.push(TraceRecord::Access {
        tensor: 3,
        kind: AccessKind::Arg,
        lane: None,
        place: Place::Gpu,
        at_event: 1,
    });
    trace.push(TraceRecord::Release {
        tensor: 3,
        lane: None,
        at_event: 2,
    });
    trace.push(TraceRecord::Access {
        tensor: 3,
        kind: AccessKind::Arg,
        lane: None,
        place: Place::Gpu,
        at_event: 3,
    });
    let report = sanitize(&Timeline::new(), &trace, None);
    assert_eq!(report.count(HazardRule::UseAfterRelease), 1, "{report}");
}

#[test]
fn rule2_read_after_download_is_flagged_but_reupload_heals() {
    let mut trace = ExecTrace::new();
    for (tensor, reupload) in [(4u64, false), (5u64, true)] {
        trace.push(TraceRecord::Crossing {
            tensor: Some(tensor),
            dir: TransferDir::H2D,
            bytes: 64,
            lane: None,
            staged: false,
            at_event: 0,
        });
        // The download pair: read half then the D2H crossing.
        trace.push(TraceRecord::Access {
            tensor,
            kind: AccessKind::Download,
            lane: None,
            place: Place::Gpu,
            at_event: 1,
        });
        trace.push(TraceRecord::Crossing {
            tensor: Some(tensor),
            dir: TransferDir::D2H,
            bytes: 64,
            lane: None,
            staged: false,
            at_event: 1,
        });
        if reupload {
            trace.push(TraceRecord::Crossing {
                tensor: Some(tensor),
                dir: TransferDir::H2D,
                bytes: 64,
                lane: None,
                staged: false,
                at_event: 2,
            });
        }
        trace.push(TraceRecord::Access {
            tensor,
            kind: AccessKind::Arg,
            lane: None,
            place: Place::Gpu,
            at_event: 3,
        });
    }
    let report = sanitize(&Timeline::new(), &trace, None);
    // Tensor 4 is flagged; tensor 5 was re-uploaded and is fine.
    assert_eq!(report.count(HazardRule::UseAfterRelease), 1, "{report}");
    let flagged = report
        .hazards
        .iter()
        .find(|h| h.rule == HazardRule::UseAfterRelease)
        .expect("one RULE2 hazard");
    assert_eq!(flagged.tensor, Some(4));
}

// ---------------------------------------------------------------------
// RULE3 missing-wait
// ---------------------------------------------------------------------

#[test]
fn rule3_cross_lane_write_racing_a_read_is_flagged() {
    let mut trace = ExecTrace::new();
    trace.push(TraceRecord::Fork { at: ns(0) });
    // Compute defines and reads the buffer...
    trace.push(TraceRecord::Access {
        tensor: 6,
        kind: AccessKind::Adopt,
        lane: Some(StreamId::Compute),
        place: Place::Gpu,
        at_event: 0,
    });
    trace.push(TraceRecord::Access {
        tensor: 6,
        kind: AccessKind::Arg,
        lane: Some(StreamId::Compute),
        place: Place::Gpu,
        at_event: 1,
    });
    // ...while Copy releases it with no ordering edge.
    trace.push(TraceRecord::Release {
        tensor: 6,
        lane: Some(StreamId::Copy),
        at_event: 1,
    });
    trace.push(TraceRecord::Join {
        at: ns(20),
        lane_clocks: vec![ns(0), ns(10), ns(10)],
    });
    let report = sanitize(&Timeline::new(), &trace, None);
    assert_eq!(report.count(HazardRule::MissingWait), 1, "{report}");
}

#[test]
fn rule3_wait_on_unrecorded_event_is_flagged() {
    let mut trace = ExecTrace::new();
    trace.push(TraceRecord::Fork { at: ns(0) });
    trace.push(TraceRecord::EventWait {
        event: 7,
        lane: StreamId::Compute,
    });
    trace.push(TraceRecord::Join {
        at: ns(1),
        lane_clocks: vec![ns(0), ns(0), ns(0)],
    });
    let report = sanitize(&Timeline::new(), &trace, None);
    assert_eq!(report.count(HazardRule::MissingWait), 1, "{report}");
}

#[test]
fn rule3_clean_twin_release_after_recorded_wait_passes() {
    // Same write/read pair as the race above, but Compute records an
    // event after its read and Copy waits on it before releasing: the
    // cross-lane edge orders the release after the read.
    let mut trace = ExecTrace::new();
    trace.push(TraceRecord::Fork { at: ns(0) });
    trace.push(TraceRecord::Access {
        tensor: 6,
        kind: AccessKind::Adopt,
        lane: Some(StreamId::Compute),
        place: Place::Gpu,
        at_event: 0,
    });
    trace.push(TraceRecord::Access {
        tensor: 6,
        kind: AccessKind::Arg,
        lane: Some(StreamId::Compute),
        place: Place::Gpu,
        at_event: 1,
    });
    trace.push(TraceRecord::EventRecord {
        event: 0,
        lane: StreamId::Compute,
        at: ns(10),
    });
    trace.push(TraceRecord::EventWait {
        event: 0,
        lane: StreamId::Copy,
    });
    trace.push(TraceRecord::Release {
        tensor: 6,
        lane: Some(StreamId::Copy),
        at_event: 2,
    });
    trace.push(TraceRecord::Join {
        at: ns(20),
        lane_clocks: vec![ns(0), ns(15), ns(10)],
    });
    let report = sanitize(&Timeline::new(), &trace, None);
    assert!(report.is_clean(), "{report}");
}

// ---------------------------------------------------------------------
// RULE4 clock monotonicity
// ---------------------------------------------------------------------

#[test]
fn rule4_join_below_lane_clock_is_flagged() {
    let mut trace = ExecTrace::new();
    trace.push(TraceRecord::Fork { at: ns(0) });
    trace.push(TraceRecord::Join {
        at: ns(5),
        lane_clocks: vec![ns(10), ns(0), ns(0)],
    });
    let report = sanitize(&Timeline::new(), &trace, None);
    assert_eq!(report.count(HazardRule::ClockMonotonicity), 1, "{report}");
}

#[test]
fn rule4_lane_clock_rewind_and_unjoined_fork_are_flagged() {
    let mut trace = ExecTrace::new();
    trace.push(TraceRecord::Fork { at: ns(0) });
    trace.push(TraceRecord::EventRecord {
        event: 0,
        lane: StreamId::Copy,
        at: ns(10),
    });
    trace.push(TraceRecord::EventRecord {
        event: 1,
        lane: StreamId::Copy,
        at: ns(5), // rewinds the copy lane clock
    });
    // ...and the fork is never joined.
    let report = sanitize(&Timeline::new(), &trace, None);
    assert_eq!(report.count(HazardRule::ClockMonotonicity), 2, "{report}");
}

#[test]
fn rule4_overlapping_events_on_one_lane_are_flagged() {
    let mut tl = Timeline::new();
    tl.push(kernel_event(0, 40, Some(StreamId::Compute)));
    let mut bad = kernel_event(20, 60, Some(StreamId::Compute));
    bad.label = "overlapping";
    // Timeline::push debug-asserts end >= start, so build the overlap
    // via two well-formed but overlapping same-lane events.
    tl.push(bad);
    let report = sanitize(&tl, &ExecTrace::new(), None);
    assert_eq!(report.count(HazardRule::ClockMonotonicity), 1, "{report}");
}

#[test]
fn rule4_overlap_across_lanes_is_legal() {
    let mut tl = Timeline::new();
    tl.push(kernel_event(0, 40, Some(StreamId::Compute)));
    tl.push(transfer_event(TransferDir::H2D, 64, Some(StreamId::Copy)));
    let report = sanitize(&tl, &ExecTrace::new(), None);
    assert_eq!(report.count(HazardRule::ClockMonotonicity), 0, "{report}");
}

// ---------------------------------------------------------------------
// RULE5 byte conservation
// ---------------------------------------------------------------------

#[test]
fn rule5_staged_bytes_never_flushed_are_flagged() {
    let mut trace = ExecTrace::new();
    trace.push(TraceRecord::Crossing {
        tensor: Some(8),
        dir: TransferDir::H2D,
        bytes: 256,
        lane: None,
        staged: true,
        at_event: 0,
    });
    // No Flush, no Priced: the staged bytes silently vanish.
    let report = sanitize(&Timeline::new(), &trace, None);
    assert!(report.count(HazardRule::ByteConservation) >= 1, "{report}");
}

#[test]
fn rule5_flush_exceeding_staged_is_flagged() {
    let mut trace = ExecTrace::new();
    trace.push(TraceRecord::Crossing {
        tensor: Some(8),
        dir: TransferDir::H2D,
        bytes: 100,
        lane: None,
        staged: true,
        at_event: 0,
    });
    trace.push(TraceRecord::Flush {
        dir: TransferDir::H2D,
        bytes: 300, // flushes more than was ever staged
        lane: None,
        at_event: 0,
    });
    let report = sanitize(&Timeline::new(), &trace, None);
    assert!(report.count(HazardRule::ByteConservation) >= 1, "{report}");
}

#[test]
fn rule5_priced_record_mismatching_timeline_is_flagged() {
    let mut tl = Timeline::new();
    tl.push(transfer_event(TransferDir::H2D, 64, None));
    let mut trace = ExecTrace::new();
    trace.push(TraceRecord::Crossing {
        tensor: Some(2),
        dir: TransferDir::H2D,
        bytes: 64,
        lane: None,
        staged: false,
        at_event: 0,
    });
    trace.push(TraceRecord::Priced {
        dir: TransferDir::H2D,
        bytes: 999, // disagrees with the 64 B timeline event
        lane: None,
        event: 0,
    });
    let report = sanitize(&tl, &trace, None);
    assert!(report.count(HazardRule::ByteConservation) >= 1, "{report}");

    let mut dangling = ExecTrace::new();
    dangling.push(TraceRecord::Priced {
        dir: TransferDir::D2H,
        bytes: 64,
        lane: None,
        event: 17, // points past the timeline
    });
    let report = sanitize(&Timeline::new(), &dangling, None);
    assert!(report.count(HazardRule::ByteConservation) >= 1, "{report}");
}

#[test]
fn rule5_clean_staged_flush_price_cycle_passes() {
    let mut tl = Timeline::new();
    tl.push(transfer_event(TransferDir::H2D, 300, None));
    let mut trace = ExecTrace::new();
    for t in [1u64, 2, 3] {
        trace.push(TraceRecord::Crossing {
            tensor: Some(t),
            dir: TransferDir::H2D,
            bytes: 100,
            lane: None,
            staged: true,
            at_event: 0,
        });
    }
    trace.push(TraceRecord::Flush {
        dir: TransferDir::H2D,
        bytes: 300,
        lane: None,
        at_event: 0,
    });
    trace.push(TraceRecord::Priced {
        dir: TransferDir::H2D,
        bytes: 300,
        lane: None,
        event: 0,
    });
    let report = sanitize(&tl, &trace, None);
    assert_eq!(report.count(HazardRule::ByteConservation), 0, "{report}");
}

// ---------------------------------------------------------------------
// RULE6 busy-fraction consistency
// ---------------------------------------------------------------------

#[test]
fn rule6_per_event_sum_over_overlapping_kernels_is_flagged() {
    let mut tl = Timeline::new();
    // Three kernels overlapping on different lanes: union = [0, 60) minus
    // nothing = 60 ns busy over a 100 ns window → 0.6.
    tl.push(kernel_event(0, 40, Some(StreamId::Compute)));
    tl.push(kernel_event(20, 60, Some(StreamId::Host)));
    tl.push(kernel_event(50, 60, Some(StreamId::Copy)));
    let naive_sum = (40.0 + 40.0 + 10.0) / 100.0; // 0.9, double-counted
    let claim = BusyClaim {
        win_start: ns(0),
        win_end: ns(100),
        fraction: naive_sum,
    };
    let report = sanitize(&tl, &ExecTrace::new(), Some(&claim));
    assert_eq!(report.count(HazardRule::BusyFraction), 1, "{report}");

    let honest = BusyClaim {
        win_start: ns(0),
        win_end: ns(100),
        fraction: 0.6,
    };
    let report = sanitize(&tl, &ExecTrace::new(), Some(&honest));
    assert_eq!(report.count(HazardRule::BusyFraction), 0, "{report}");
}

#[test]
fn rule6_fraction_outside_unit_interval_is_flagged() {
    let claim = BusyClaim {
        win_start: ns(0),
        win_end: ns(100),
        fraction: 1.3,
    };
    let report = sanitize(&Timeline::new(), &ExecTrace::new(), Some(&claim));
    assert!(report.count(HazardRule::BusyFraction) >= 1, "{report}");
}

#[test]
fn rule6_clean_twin_union_fraction_passes() {
    // The same overlapping three-kernel timeline as the adversarial
    // case, but the claim uses the interval-union busy time (60 ns of
    // the 100 ns window) instead of the double-counted per-event sum.
    let mut tl = Timeline::new();
    tl.push(kernel_event(0, 40, Some(StreamId::Compute)));
    tl.push(kernel_event(20, 60, Some(StreamId::Host)));
    tl.push(kernel_event(50, 60, Some(StreamId::Copy)));
    let claim = BusyClaim {
        win_start: ns(0),
        win_end: ns(100),
        fraction: 0.6,
    };
    let report = sanitize(&tl, &ExecTrace::new(), Some(&claim));
    assert!(report.is_clean(), "{report}");
}

// ---------------------------------------------------------------------
// Known-good real sessions: the sanitizer must not cry wolf.
// ---------------------------------------------------------------------

#[test]
fn real_serial_gpu_session_is_clean() {
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    ex.enable_tracing();
    {
        let mut dx = Dispatcher::new(&mut ex);
        let a = DeviceTensor::host(Tensor::zeros(&[8, 8]));
        let w = DeviceTensor::host(Tensor::zeros(&[8, 8]));
        let h = dx.matmul("proj", &a, &w).expect("shapes agree");
        let out = dx.relu("act", &h);
        dx.download(&out);
        dx.release_tensor(&h);
    }
    let report = audit(&ex);
    assert!(report.is_clean(), "{report}");
    assert!(report.stats.tensors >= 3);
    assert!(report.stats.priced_bytes[0] > 0, "H2D was priced");
}

#[test]
fn real_forked_session_with_handoffs_is_clean() {
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    ex.enable_tracing();
    {
        let mut dx = Dispatcher::new(&mut ex);
        let a = DeviceTensor::host(Tensor::zeros(&[8, 8]));
        let w = DeviceTensor::host(Tensor::zeros(&[8, 8]));
        dx.executor().fork_streams(1);
        // Copy lane uploads both operands.
        dx.on_stream(StreamId::Copy, |dx| {
            dx.ensure_resident(&a);
            dx.ensure_resident(&w);
        });
        let uploaded = dx.executor().record_event(StreamId::Copy);
        // Compute lane waits for the copies, then runs the kernels.
        dx.executor().wait_event(StreamId::Compute, uploaded);
        let out = dx.on_stream(StreamId::Compute, |dx| {
            let h = dx.matmul("proj", &a, &w).expect("shapes agree");
            dx.relu("act", &h)
        });
        let computed = dx.executor().record_event(StreamId::Compute);
        // Copy lane waits for the kernels, then drains the result.
        dx.executor().wait_event(StreamId::Copy, computed);
        dx.on_stream(StreamId::Copy, |dx| dx.download(&out));
        dx.executor().join_streams();
    }
    let report = audit(&ex);
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.stats.forks, 1);
}

#[test]
fn real_coalesced_session_is_clean_once_flushed() {
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    ex.enable_tracing();
    {
        let mut dx = Dispatcher::with_coalescing(&mut ex, true);
        let a = DeviceTensor::host(Tensor::zeros(&[8, 8]));
        let w = DeviceTensor::host(Tensor::zeros(&[8, 8]));
        dx.ensure_resident(&a);
        dx.ensure_resident(&w);
        dx.flush_transfers();
        let h = dx.matmul("proj", &a, &w).expect("shapes agree");
        dx.download(&h);
        dx.flush_transfers();
    }
    let report = audit(&ex);
    assert!(report.is_clean(), "{report}");
    assert!(report.stats.crossings >= 3);
}

#[test]
fn real_cpu_only_session_is_clean() {
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
    ex.enable_tracing();
    {
        let mut dx = Dispatcher::new(&mut ex);
        let a = DeviceTensor::host(Tensor::zeros(&[8, 8]));
        let w = DeviceTensor::host(Tensor::zeros(&[8, 8]));
        let h = dx.matmul("proj", &a, &w).expect("shapes agree");
        dx.download(&h);
    }
    let report = audit(&ex);
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.stats.priced_bytes, [0, 0], "CPU mode prices no PCIe");
}

#[test]
fn audit_panics_without_tracing() {
    let ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    let result = std::panic::catch_unwind(|| audit(&ex));
    assert!(result.is_err(), "audit must refuse an untraced executor");
}

// ---------------------------------------------------------------------
// RULE7 sample-after-append
// ---------------------------------------------------------------------

fn graph_append(store: u64, event: usize, time: f64, visible_at: u64) -> TraceRecord {
    TraceRecord::GraphAppend {
        store,
        event,
        time_bits: time.to_bits(),
        visible_at: ns(visible_at),
        lane: None,
        at_event: 0,
    }
}

fn graph_sample(store: u64, visible: usize, at: u64) -> TraceRecord {
    TraceRecord::GraphSample {
        store,
        visible,
        at: ns(at),
        lane: None,
        at_event: 0,
    }
}

#[test]
fn rule7_sample_before_append_completes_is_flagged() {
    let mut trace = ExecTrace::new();
    trace.push(graph_append(7, 0, 1.0, 100));
    trace.push(graph_append(7, 1, 2.0, 250));
    // The snapshot exposes both events, but the second append's ingest
    // work only completes at 250 ns — reading at 120 ns races it.
    trace.push(graph_sample(7, 2, 120));
    let report = sanitize(&Timeline::new(), &trace, None);
    assert_eq!(report.count(HazardRule::SampleAfterAppend), 1, "{report}");
    assert_eq!(report.stats.graph_appends, 2);
    assert_eq!(report.stats.graph_samples, 1);
}

#[test]
fn rule7_clean_twin_sample_after_visibility_passes() {
    let mut trace = ExecTrace::new();
    trace.push(graph_append(7, 0, 1.0, 100));
    trace.push(graph_append(7, 1, 2.0, 250));
    // Same schedule, but the read starts once the prefix is visible —
    // and an earlier read that caps its prefix at the visible watermark.
    trace.push(graph_sample(7, 1, 120));
    trace.push(graph_sample(7, 2, 250));
    let report = sanitize(&Timeline::new(), &trace, None);
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.stats.graph_samples, 2);
}

#[test]
fn rule7_sample_beyond_appended_region_is_flagged() {
    let mut trace = ExecTrace::new();
    trace.push(graph_append(3, 0, 1.0, 10));
    // Claims to read 2 events; only 1 was ever appended.
    trace.push(graph_sample(3, 2, 500));
    let report = sanitize(&Timeline::new(), &trace, None);
    assert_eq!(report.count(HazardRule::SampleAfterAppend), 1, "{report}");
}

#[test]
fn rule7_watermark_regression_is_flagged() {
    let mut trace = ExecTrace::new();
    trace.push(graph_append(9, 0, 5.0, 10));
    // Timestamp moves backwards: the ingest watermark regressed.
    trace.push(graph_append(9, 1, 4.0, 20));
    let report = sanitize(&Timeline::new(), &trace, None);
    assert_eq!(report.count(HazardRule::SampleAfterAppend), 1, "{report}");
}

#[test]
fn rule7_visibility_regression_is_flagged() {
    let mut trace = ExecTrace::new();
    trace.push(graph_append(11, 0, 1.0, 300));
    // A later append claims to become visible before an earlier one.
    trace.push(graph_append(11, 1, 2.0, 200));
    let report = sanitize(&Timeline::new(), &trace, None);
    assert_eq!(report.count(HazardRule::SampleAfterAppend), 1, "{report}");
}

#[test]
fn rule7_out_of_order_append_index_is_flagged() {
    let mut trace = ExecTrace::new();
    trace.push(graph_append(13, 0, 1.0, 10));
    // Event index 2 arrives while only 1 append was logged — a gap.
    trace.push(graph_append(13, 2, 2.0, 20));
    let report = sanitize(&Timeline::new(), &trace, None);
    assert_eq!(report.count(HazardRule::SampleAfterAppend), 1, "{report}");
}

#[test]
fn rule7_stores_are_tracked_independently() {
    let mut trace = ExecTrace::new();
    trace.push(graph_append(1, 0, 1.0, 100));
    trace.push(graph_append(2, 0, 1.0, 900));
    // Store 1's event is visible at 100 ns; store 2's only at 900 ns.
    trace.push(graph_sample(1, 1, 150));
    trace.push(graph_sample(2, 1, 150));
    let report = sanitize(&Timeline::new(), &trace, None);
    assert_eq!(report.count(HazardRule::SampleAfterAppend), 1, "{report}");
}

// ---------------------------------------------------------------------
// RULE8 peer conservation
// ---------------------------------------------------------------------

#[test]
fn rule8_unpriced_peer_crossing_is_flagged() {
    let mut trace = ExecTrace::new();
    trace.push(TraceRecord::DeviceSwitch { device: 1 });
    trace.push(TraceRecord::PeerCrossing {
        src: 0,
        dst: 1,
        bytes: 2048,
        lane: None,
        at_event: 0,
    });
    // No PeerPriced twin: the fetch intent escaped interconnect pricing.
    let report = sanitize(&Timeline::new(), &trace, None);
    assert_eq!(report.count(HazardRule::PeerConservation), 1, "{report}");
}

#[test]
fn rule8_phantom_peer_pricing_is_flagged() {
    let mut tl = Timeline::new();
    tl.push(TimelineEvent {
        label: "peer_copy",
        scope: "".into(),
        category: EventCategory::PeerTransfer,
        place: Place::Pcie,
        start: ns(0),
        end: ns(10),
        occupancy: 1.0,
        flops: 0,
        bytes: 2048,
        stream: None,
        device: 1,
    });
    let mut trace = ExecTrace::new();
    trace.push(TraceRecord::DeviceSwitch { device: 1 });
    // Interconnect traffic priced with no crossing intent behind it.
    trace.push(TraceRecord::PeerPriced {
        src: 0,
        dst: 1,
        bytes: 2048,
        via_host: false,
        lane: None,
        event: 0,
    });
    let report = sanitize(&tl, &trace, None);
    assert_eq!(report.count(HazardRule::PeerConservation), 1, "{report}");
}

#[test]
fn rule8_real_multi_gpu_session_is_clean() {
    let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(2), ExecMode::Gpu);
    ex.enable_tracing();
    ex.ensure_context();
    {
        let mut dx = Dispatcher::new(&mut ex);
        let x = dx.adopt(Tensor::ones(&[8, 8]), 1.0);
        dx.executor().fork_streams(2);
        dx.on_device(1, |dx| {
            // Shard 1 fetches remote rows from shard 0, then computes.
            dx.peer_transfer(0, 1 << 16);
            dx.on_stream(StreamId::Compute, |dx| {
                dx.matmul("mm", &x, &Tensor::eye(8)).unwrap();
            });
        });
        dx.executor().join_streams();
    }
    let report = audit(&ex);
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.stats.peer_crossings, 1);
    assert_eq!(report.stats.peer_bytes, 1 << 16);
}

#[test]
fn rule8_host_staged_bounce_on_pcie_topology_is_clean() {
    let mut ex = Executor::new(PlatformSpec::multi_gpu_pcie(2), ExecMode::Gpu);
    ex.enable_tracing();
    ex.ensure_context();
    {
        let mut dx = Dispatcher::new(&mut ex);
        dx.on_device(1, |dx| {
            dx.peer_transfer(0, 4096);
        });
    }
    let report = audit(&ex);
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.stats.peer_bytes, 4096);
}

#[test]
fn rule7_real_executor_ingest_session_is_clean() {
    use dgnn_device::HostWork;

    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
    ex.enable_tracing();
    // Priced ingest loop: each append is Host-lane work; the event
    // becomes visible when that work completes on the session clock.
    for i in 0..4usize {
        ex.host(HostWork {
            label: "graph_append",
            ops: 8,
            seq_bytes: 64,
            irregular_bytes: 128,
            parallelism: 1,
        });
        ex.trace_graph_append(1, i, (i as f64).to_bits(), ex.now());
    }
    // A sample issued after all appends completed reads the full prefix.
    ex.trace_graph_sample(1, 4, ex.now());
    let report = audit(&ex);
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.stats.graph_appends, 4);
    assert_eq!(report.stats.graph_samples, 1);
}
