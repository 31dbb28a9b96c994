//! Stream/event semantics of the async executor.
//!
//! The pipelined drivers in `dgnn-models` rely on four contracts pinned
//! here at the device level:
//!
//! 1. events issued on one lane never overlap and are monotone in time;
//! 2. `record_event`/`wait_event` orders work *across* lanes (and without
//!    the wait, lanes genuinely overlap — otherwise the pipeline would be
//!    a no-op);
//! 3. with no fork active the executor is the seed's serial engine:
//!    every event is untagged, globally non-overlapping, and the whole
//!    run is deterministic byte-for-byte;
//! 4. transfer coalescing merges priced transactions but conserves bytes.

use dgnn_device::{
    Dispatcher, EventCategory, ExecMode, Executor, HostWork, OpDescriptor, OpKind, PlatformSpec,
    StreamId, TimelineEvent, TransferDir,
};

fn gpu() -> Executor {
    Executor::new(PlatformSpec::default(), ExecMode::Gpu)
}

fn kernel(flops: u64) -> OpDescriptor {
    OpDescriptor {
        label: "k",
        kind: OpKind::Gemm,
        flops,
        bytes: flops / 2,
        parallelism: 1024,
    }
}

/// Pays GPU context/first-touch warm-up before the test body so warm-up
/// events do not land inside a stream fork.
fn warmed() -> Executor {
    let mut ex = gpu();
    ex.launch(kernel(1_000));
    ex.transfer(TransferDir::H2D, 64);
    ex
}

fn lane_events(ex: &Executor, lane: StreamId) -> Vec<&TimelineEvent> {
    ex.timeline()
        .events()
        .iter()
        .filter(|e| e.stream == Some(lane))
        .collect()
}

#[test]
fn per_lane_events_are_monotone_and_non_overlapping() {
    let mut ex = warmed();
    ex.fork_streams(1);
    for round in 0..4u64 {
        ex.on_stream(StreamId::Host, |ex| {
            ex.host(HostWork::sequential("prep", 10_000 + round, 4_096));
        });
        ex.on_stream(StreamId::Copy, |ex| {
            ex.transfer(TransferDir::H2D, 1 << 20);
        });
        ex.on_stream(StreamId::Compute, |ex| {
            ex.launch(kernel(1 << 24));
        });
    }
    ex.join_streams();

    for lane in [StreamId::Host, StreamId::Copy, StreamId::Compute] {
        let events = lane_events(&ex, lane);
        assert_eq!(events.len(), 4, "4 rounds of work on {lane:?}");
        for pair in events.windows(2) {
            assert!(
                pair[0].end <= pair[1].start,
                "{lane:?} events overlap: {:?}..{:?} then {:?}..{:?}",
                pair[0].start,
                pair[0].end,
                pair[1].start,
                pair[1].end
            );
        }
    }
}

#[test]
fn wait_event_orders_work_across_lanes() {
    let mut ex = warmed();
    ex.fork_streams(1);
    // Delay the Copy lane, then make Compute wait on its completion.
    let done = ex.on_stream(StreamId::Copy, |ex| {
        ex.transfer(TransferDir::H2D, 64 << 20);
        ex.record_event(StreamId::Copy)
    });
    ex.wait_event(StreamId::Compute, done);
    ex.on_stream(StreamId::Compute, |ex| {
        ex.launch(kernel(1 << 20));
    });
    ex.join_streams();

    let upload = lane_events(&ex, StreamId::Copy)[0];
    let compute = lane_events(&ex, StreamId::Compute)[0];
    assert!(
        compute.start >= upload.end,
        "waiting kernel started at {:?} before upload ended at {:?}",
        compute.start,
        upload.end
    );
}

#[test]
fn without_wait_lanes_genuinely_overlap() {
    let mut ex = warmed();
    ex.fork_streams(1);
    ex.on_stream(StreamId::Copy, |ex| {
        ex.transfer(TransferDir::H2D, 64 << 20);
    });
    ex.on_stream(StreamId::Compute, |ex| {
        ex.launch(kernel(1 << 26));
    });
    ex.join_streams();

    let upload = lane_events(&ex, StreamId::Copy)[0];
    let compute = lane_events(&ex, StreamId::Compute)[0];
    assert!(
        compute.start < upload.end,
        "independent lanes should overlap: kernel {:?}.. vs upload ..{:?}",
        compute.start,
        upload.end
    );
}

#[test]
fn join_advances_serial_clock_to_slowest_lane() {
    let mut ex = warmed();
    ex.fork_streams(1);
    ex.on_stream(StreamId::Copy, |ex| {
        ex.transfer(TransferDir::H2D, 256 << 20);
    });
    ex.on_stream(StreamId::Host, |ex| {
        ex.host(HostWork::sequential("tiny", 10, 64));
    });
    let copy_end = ex.stream_now(StreamId::Copy);
    let host_end = ex.stream_now(StreamId::Host);
    let joined = ex.join_streams();
    assert!(copy_end > host_end, "copy lane should be the slow one");
    assert_eq!(joined, copy_end, "join = makespan of the forked region");
    assert_eq!(ex.now(), joined);
}

#[test]
fn no_fork_is_the_serial_engine_and_deterministic() {
    let run = || {
        let mut ex = gpu();
        ex.launch(kernel(1 << 22));
        ex.transfer(TransferDir::H2D, 1 << 20);
        ex.host(HostWork::sequential("prep", 50_000, 8_192));
        ex.launch(kernel(1 << 21));
        ex.transfer(TransferDir::D2H, 1 << 18);
        ex
    };
    let a = run();
    let b = run();

    let events = a.timeline().events();
    for e in events {
        assert_eq!(
            e.stream, None,
            "serial event `{}` carries a lane tag",
            e.label
        );
    }
    // Serial events tile the clock: globally monotone, non-overlapping.
    for pair in events.windows(2) {
        assert!(pair[0].end <= pair[1].start, "serial events overlap");
    }
    // Bit-identical replay: same labels, same nanosecond endpoints,
    // same priced work.
    assert_eq!(events.len(), b.timeline().events().len());
    for (x, y) in events.iter().zip(b.timeline().events()) {
        assert_eq!((x.label, x.start, x.end), (y.label, y.start, y.end));
        assert_eq!((x.flops, x.bytes), (y.flops, y.bytes));
    }
    assert_eq!(a.now(), b.now());
}

#[test]
fn coalescing_conserves_bytes_and_merges_transactions() {
    let pieces: [u64; 5] = [4 << 10, 32 << 10, 1 << 20, 96, 7];
    let total: u64 = pieces.iter().sum();

    let run = |coalesce: bool| {
        let mut ex = warmed();
        let mut dx = Dispatcher::with_coalescing(&mut ex, coalesce);
        for &b in &pieces {
            dx.transfer(TransferDir::H2D, b);
        }
        dx.transfer(TransferDir::D2H, 128);
        dx.flush_transfers();
        let h2d = ex.timeline().transfer_bytes(Some(TransferDir::H2D));
        let count = ex
            .timeline()
            .events()
            .iter()
            .filter(|e| matches!(e.category, EventCategory::Transfer(_)))
            .count();
        (h2d, count, ex.now())
    };

    let (granular_bytes, granular_count, granular_time) = run(false);
    let (coalesced_bytes, coalesced_count, coalesced_time) = run(true);

    assert_eq!(
        granular_bytes, coalesced_bytes,
        "coalescing must conserve bytes"
    );
    // Warm-up adds a fixed number of transfer events to both runs; the
    // five H2D pieces merge into one transaction, the D2H stays one.
    assert_eq!(granular_count - coalesced_count, pieces.len() - 1);
    assert!(
        coalesced_time < granular_time,
        "merging transactions must save per-transfer latency"
    );
    // The merged payload really is the sum of the pieces.
    let mut ex = warmed();
    let before = ex.timeline().transfer_bytes(Some(TransferDir::H2D));
    let mut dx = Dispatcher::with_coalescing(&mut ex, true);
    for &b in &pieces {
        dx.transfer(TransferDir::H2D, b);
    }
    assert_eq!(dx.pending_transfer_bytes(TransferDir::H2D), total);
    dx.flush_transfers();
    assert_eq!(dx.pending_transfer_bytes(TransferDir::H2D), 0);
    assert_eq!(
        ex.timeline().transfer_bytes(Some(TransferDir::H2D)) - before,
        total
    );
}
