//! The hazard ruleset: a vector-clock replay of the provenance trace
//! plus structural checks on the recorded timeline.
//!
//! See `DESIGN.md` §3e for the rule catalogue. In short:
//!
//! * **RULE1 read-before-transfer** — every device-side read must be
//!   happens-before-ordered after the H2D upload (or `adopt`) that
//!   defines the buffer.
//! * **RULE2 use-after-release** — no device-side access after the
//!   buffer was downloaded or released without a re-upload.
//! * **RULE3 missing-wait** — conflicting cross-lane accesses require a
//!   `record_event`/`wait_event` chain; waits must name events the
//!   active fork recorded.
//! * **RULE4 clock-monotonicity** — per-lane clocks never rewind, lane
//!   events never overlap on one lane, joins cover every lane clock.
//! * **RULE5 byte-conservation** — coalesce-staged bytes are flushed
//!   exactly once, every crossing is priced, and every priced record
//!   matches its timeline event.
//! * **RULE6 busy-fraction** — a claimed GPU busy fraction must match
//!   the interval-union reference recomputed from the timeline.
//! * **RULE7 sample-after-append** (`DESIGN.md` §3g) — a streaming-graph
//!   sample must be happens-before-ordered after every append inside
//!   its visible prefix (append logged earlier in program order *and*
//!   its Host-lane work complete by the read's start), and the ingest
//!   watermark / visibility instants must be monotone across appends.
//! * **RULE8 peer-conservation** (`DESIGN.md` §3i) — every cross-device
//!   fetch intent is priced on exactly one interconnect edge, every
//!   priced peer record matches its timeline event (category, bytes,
//!   route, destination device), and no device "fetches" from itself.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use dgnn_device::{
    AccessKind, DurationNs, EventCategory, ExecTrace, Place, TensorId, Timeline, TraceRecord,
    TransferDir,
};

use crate::hb::{component, component_name, hb, HbEngine, Node};
use crate::report::{Hazard, HazardRule, SanitizeStats, SanitizerReport};

/// A busy-fraction claim to verify under RULE6 (e.g. what a profile
/// table is about to print).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusyClaim {
    /// Window start.
    pub win_start: DurationNs,
    /// Window end.
    pub win_end: DurationNs,
    /// Claimed kernel-resident fraction of the window.
    pub fraction: f64,
}

/// Absolute tolerance of RULE6's fraction comparison.
const BUSY_EPSILON: f64 = 1e-9;

fn dir_index(dir: TransferDir) -> usize {
    match dir {
        TransferDir::H2D => 0,
        TransferDir::D2H => 1,
    }
}

fn dir_name(dir: TransferDir) -> &'static str {
    match dir {
        TransferDir::H2D => "H2D",
        TransferDir::D2H => "D2H",
    }
}

/// How a write-class record touches a buffer's device copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteKind {
    /// H2D residence crossing.
    Upload,
    /// Defined directly on the device (`adopt`).
    Adopt,
    /// Device copy invalidated (`"download"` or `"release"`).
    Invalidate(&'static str),
}

impl WriteKind {
    fn label(self) -> &'static str {
        match self {
            WriteKind::Upload => "upload",
            WriteKind::Adopt => "adopt",
            WriteKind::Invalidate(how) => how,
        }
    }
}

/// One observed streaming-graph append (RULE7 replay state).
#[derive(Debug, Clone, Copy)]
struct AppendSeen {
    /// Running maximum of `visible_at` over the append prefix ending
    /// here — the instant by which the whole prefix is readable.
    visible_by: DurationNs,
    /// Trace record index of the append.
    record: usize,
}

/// Per-store replay state (RULE7).
#[derive(Debug, Default)]
struct StoreState {
    /// Appends in program order, indexed by global event index.
    appends: Vec<AppendSeen>,
    /// Watermark bits of the latest append (timestamps are monotone).
    last_time_bits: Option<u64>,
    /// Visibility instant of the latest append.
    last_visible_at: DurationNs,
}

/// Per-buffer replay state.
#[derive(Debug, Default)]
struct TensorState {
    /// Latest define (upload or adopt), live or superseded.
    define: Option<Node>,
    /// Whether the device copy is currently valid in program order.
    device_valid: bool,
    /// Latest invalidation while the copy is invalid.
    invalidated: Option<(Node, &'static str)>,
    /// Latest device read per component (for write/read race checks).
    last_read: HashMap<usize, Node>,
}

struct Sanitizer<'a> {
    timeline: &'a Timeline,
    engine: HbEngine,
    /// The hash containers below are point-lookup-only state keyed by
    /// replay ids (never iterated), so hasher order cannot reach hazard
    /// output; everything that *is* iterated for reports uses BTree
    /// containers.
    tensors: HashMap<TensorId, TensorState>,
    hazards: Vec<Hazard>,
    /// Dedup for tensor-attributed hazards: one report per (rule, buffer).
    reported: HashSet<(&'static str, TensorId)>,
    /// Byte ledgers per direction (`[H2D, D2H]`).
    staged: [u64; 2],
    flushed: [u64; 2],
    immediate: [u64; 2],
    priced: [u64; 2],
    over_flush_reported: [bool; 2],
    crossings: usize,
    forks: usize,
    /// Serial clock after the last join (RULE4 fork-origin check).
    last_serial_time: DurationNs,
    fork_origin: DurationNs,
    /// Last `record_event` timestamp per (device, lane) component within
    /// the active fork.
    last_record_at: HashMap<usize, DurationNs>,
    /// Device the executor currently targets (DeviceSwitch replay).
    current_device: usize,
    /// RULE8 crossing-intent bytes per (src, dst) device pair.
    peer_crossed: BTreeMap<(usize, usize), u64>,
    /// RULE8 priced bytes per (src, dst) device pair.
    peer_priced: BTreeMap<(usize, usize), u64>,
    peer_crossings: usize,
    peer_bytes: u64,
    /// Streaming-graph stores observed so far (RULE7).
    stores: HashMap<u64, StoreState>,
    /// Dedup for store-attributed hazards: one report per (store, kind).
    store_reported: HashSet<(u64, &'static str)>,
    graph_appends: usize,
    graph_samples: usize,
    cache_hit_rows: u64,
    cache_hit_bytes: u64,
}

impl<'a> Sanitizer<'a> {
    fn new(timeline: &'a Timeline) -> Self {
        Sanitizer {
            timeline,
            engine: HbEngine::new(),
            tensors: HashMap::new(),
            hazards: Vec::new(),
            reported: HashSet::new(),
            staged: [0; 2],
            flushed: [0; 2],
            immediate: [0; 2],
            priced: [0; 2],
            over_flush_reported: [false; 2],
            crossings: 0,
            forks: 0,
            last_serial_time: DurationNs::ZERO,
            fork_origin: DurationNs::ZERO,
            last_record_at: HashMap::new(),
            current_device: 0,
            peer_crossed: BTreeMap::new(),
            peer_priced: BTreeMap::new(),
            peer_crossings: 0,
            peer_bytes: 0,
            stores: HashMap::new(),
            store_reported: HashSet::new(),
            graph_appends: 0,
            graph_samples: 0,
            cache_hit_rows: 0,
            cache_hit_bytes: 0,
        }
    }

    /// RULE7 hazard with per-(store, kind) dedup — one report per
    /// failure kind per store, mirroring the tensor-attributed rules.
    fn store_hazard(
        &mut self,
        store: u64,
        kind: &'static str,
        message: String,
        lanes: Vec<&'static str>,
        records: Vec<usize>,
        events: Vec<usize>,
    ) {
        if !self.store_reported.insert((store, kind)) {
            return;
        }
        self.hazard(
            HazardRule::SampleAfterAppend,
            message,
            lanes,
            records,
            events,
            None,
        );
    }

    fn push(&mut self, hazard: Hazard) {
        if let Some(t) = hazard.tensor {
            if !self.reported.insert((hazard.rule.id(), t)) {
                return;
            }
        }
        self.hazards.push(hazard);
    }

    fn hazard(
        &mut self,
        rule: HazardRule,
        message: String,
        lanes: Vec<&'static str>,
        records: Vec<usize>,
        events: Vec<usize>,
        tensor: Option<TensorId>,
    ) {
        self.push(Hazard {
            rule,
            message,
            lanes,
            records,
            events,
            tensor,
            suggestion: rule.suggestion(),
        });
    }

    /// RULE1/RULE2: a device-side read (kernel argument or download).
    fn device_read(&mut self, tensor: TensorId, node: Node, place: Place, what: &str) {
        if place != Place::Gpu {
            // CPU-mode accesses touch host memory; no device hazards.
            return;
        }
        let state = self.tensors.entry(tensor).or_default();
        if !state.device_valid {
            if let Some((inv, how)) = state.invalidated.clone() {
                let lanes = vec![component_name(inv.comp), component_name(node.comp)];
                let recs = vec![inv.rec, node.rec];
                let evs = vec![inv.at_event, node.at_event];
                self.hazard(
                    HazardRule::UseAfterRelease,
                    format!("{what} of a buffer after its {how} invalidated the device copy"),
                    lanes,
                    recs,
                    evs,
                    Some(tensor),
                );
            } else {
                let lanes = vec![component_name(node.comp)];
                self.hazard(
                    HazardRule::ReadBeforeTransfer,
                    format!("{what} of a buffer that was never uploaded or adopted on the device"),
                    lanes,
                    vec![node.rec],
                    vec![node.at_event],
                    Some(tensor),
                );
            }
        } else if let Some(define) = state.define.clone() {
            if !hb(&define, &node) {
                let lanes = vec![component_name(define.comp), component_name(node.comp)];
                let recs = vec![define.rec, node.rec];
                let evs = vec![define.at_event, node.at_event];
                self.hazard(
                    HazardRule::ReadBeforeTransfer,
                    format!(
                        "{what} has no happens-before edge from the defining upload/adopt \
                         on another lane — the copy may not have landed"
                    ),
                    lanes,
                    recs,
                    evs,
                    Some(tensor),
                );
            }
        }
        if let Some(state) = self.tensors.get_mut(&tensor) {
            state.last_read.insert(node.comp, node);
        }
    }

    /// RULE2/RULE3 + state transition for a write-class record.
    fn device_write(&mut self, tensor: TensorId, node: Node, kind: WriteKind) {
        // Race checks against reads (and the live define) on other lanes.
        let mut races: Vec<(Node, &'static str)> = Vec::new();
        {
            let state = self.tensors.entry(tensor).or_default();
            for (&comp, read) in &state.last_read {
                if comp == node.comp {
                    continue;
                }
                if !hb(read, &node) {
                    races.push((read.clone(), "device read"));
                }
            }
            // Race reports in deterministic component order regardless of
            // map iteration order.
            races.sort_by_key(|(n, _)| (n.comp, n.rec));
            if let Some(define) = state.define.clone() {
                if define.comp != node.comp && !hb(&define, &node) {
                    races.push((define, "defining upload/adopt"));
                }
            }
        }
        for (prev, prev_what) in races {
            let lanes = vec![component_name(prev.comp), component_name(node.comp)];
            let recs = vec![prev.rec, node.rec];
            let evs = vec![prev.at_event, node.at_event];
            self.hazard(
                HazardRule::MissingWait,
                format!(
                    "{} races a {} on another lane with no event ordering them",
                    kind.label(),
                    prev_what
                ),
                lanes,
                recs,
                evs,
                Some(tensor),
            );
        }
        // Double invalidation (release of an already-invalid buffer).
        let prior_invalidation = {
            let state = self.tensors.entry(tensor).or_default();
            match kind {
                WriteKind::Invalidate(_) if !state.device_valid => state.invalidated.clone(),
                _ => None,
            }
        };
        if let (Some((prev, prev_how)), WriteKind::Invalidate(how)) = (prior_invalidation, kind) {
            let lanes = vec![component_name(prev.comp), component_name(node.comp)];
            self.hazard(
                HazardRule::UseAfterRelease,
                format!("{how} of a buffer already invalidated by a {prev_how}"),
                lanes,
                vec![prev.rec, node.rec],
                vec![prev.at_event, node.at_event],
                Some(tensor),
            );
        }
        let state = self.tensors.entry(tensor).or_default();
        match kind {
            WriteKind::Upload | WriteKind::Adopt => {
                state.define = Some(node);
                state.device_valid = true;
                state.invalidated = None;
            }
            WriteKind::Invalidate(how) => {
                state.device_valid = false;
                state.invalidated = Some((node, how));
            }
        }
    }

    fn replay(&mut self, trace: &ExecTrace) {
        for (i, rec) in trace.records().iter().enumerate() {
            match rec {
                TraceRecord::Access {
                    tensor,
                    kind,
                    lane,
                    place,
                    at_event,
                } => {
                    let node = self.engine.issue(self.current_device, *lane, i, *at_event);
                    match kind {
                        AccessKind::Arg => {
                            self.device_read(*tensor, node, *place, "kernel-argument read");
                        }
                        AccessKind::Download => {
                            // The read half; the paired D2H crossing
                            // performs the invalidation.
                            self.device_read(*tensor, node, *place, "download read");
                        }
                        AccessKind::Adopt => self.device_write(*tensor, node, WriteKind::Adopt),
                    }
                }
                TraceRecord::Crossing {
                    tensor,
                    dir,
                    bytes,
                    lane,
                    staged,
                    at_event,
                } => {
                    let node = self.engine.issue(self.current_device, *lane, i, *at_event);
                    self.crossings += 1;
                    let di = dir_index(*dir);
                    if *staged {
                        self.staged[di] += bytes;
                    } else {
                        self.immediate[di] += bytes;
                    }
                    if let Some(t) = tensor {
                        match dir {
                            TransferDir::H2D => self.device_write(*t, node, WriteKind::Upload),
                            TransferDir::D2H => {
                                self.device_write(*t, node, WriteKind::Invalidate("download"));
                            }
                        }
                    }
                }
                TraceRecord::Flush {
                    dir,
                    bytes,
                    lane,
                    at_event,
                } => {
                    let _node = self.engine.issue(self.current_device, *lane, i, *at_event);
                    let di = dir_index(*dir);
                    self.flushed[di] += bytes;
                    if self.flushed[di] > self.staged[di] && !self.over_flush_reported[di] {
                        self.over_flush_reported[di] = true;
                        let msg = format!(
                            "{} flush priced {} B but only {} B were ever staged",
                            dir_name(*dir),
                            self.flushed[di],
                            self.staged[di]
                        );
                        self.hazard(
                            HazardRule::ByteConservation,
                            msg,
                            vec![component_name(component(self.current_device, *lane))],
                            vec![i],
                            vec![*at_event],
                            None,
                        );
                    }
                }
                TraceRecord::Priced {
                    dir,
                    bytes,
                    lane,
                    event,
                } => {
                    let _node = self.engine.issue(self.current_device, *lane, i, *event);
                    self.priced[dir_index(*dir)] += bytes;
                    match self.timeline.events().get(*event) {
                        Some(e)
                            if e.category == EventCategory::Transfer(*dir)
                                && e.bytes == *bytes
                                && e.stream == *lane => {}
                        Some(e) => {
                            let msg = format!(
                                "priced {} B {} does not match timeline event {} \
                                 ({:?}, {} B, lane {:?})",
                                bytes,
                                dir_name(*dir),
                                event,
                                e.category,
                                e.bytes,
                                e.stream
                            );
                            self.hazard(
                                HazardRule::ByteConservation,
                                msg,
                                vec![component_name(component(self.current_device, *lane))],
                                vec![i],
                                vec![*event],
                                None,
                            );
                        }
                        None => {
                            let msg = format!(
                                "priced {} B {} points at timeline event {} past the \
                                 recorded timeline (len {})",
                                bytes,
                                dir_name(*dir),
                                event,
                                self.timeline.len()
                            );
                            self.hazard(
                                HazardRule::ByteConservation,
                                msg,
                                vec![component_name(component(self.current_device, *lane))],
                                vec![i],
                                vec![],
                                None,
                            );
                        }
                    }
                }
                TraceRecord::CacheHit {
                    rows,
                    bytes,
                    lane,
                    at_event,
                    ..
                } => {
                    // Cache-served rows are *legitimately unpriced*: the
                    // whole point of the device-resident feature cache is
                    // that these bytes never cross PCIe, so they enter no
                    // staged/immediate/priced ledger and RULE5 must stay
                    // silent about them. The record still participates in
                    // the happens-before graph (it is a device read on
                    // its issuing lane) and is tallied for reports.
                    let _node = self.engine.issue(self.current_device, *lane, i, *at_event);
                    self.cache_hit_rows += rows;
                    self.cache_hit_bytes += bytes;
                }
                TraceRecord::Release {
                    tensor,
                    lane,
                    at_event,
                } => {
                    let node = self.engine.issue(self.current_device, *lane, i, *at_event);
                    self.device_write(*tensor, node, WriteKind::Invalidate("release"));
                }
                TraceRecord::Fork { at } => {
                    self.forks += 1;
                    if self.engine.forked {
                        self.hazard(
                            HazardRule::ClockMonotonicity,
                            "fork_streams while a fork is already active".to_string(),
                            vec!["serial"],
                            vec![i],
                            vec![],
                            None,
                        );
                    }
                    if *at < self.last_serial_time {
                        let msg = format!(
                            "fork origin {} ns precedes the serial clock {} ns left by \
                             the previous join",
                            at.as_nanos(),
                            self.last_serial_time.as_nanos()
                        );
                        self.hazard(
                            HazardRule::ClockMonotonicity,
                            msg,
                            vec!["serial"],
                            vec![i],
                            vec![],
                            None,
                        );
                    }
                    self.engine.fork();
                    self.fork_origin = *at;
                    self.last_record_at.clear();
                }
                TraceRecord::Join { at, lane_clocks } => {
                    if !self.engine.forked {
                        self.hazard(
                            HazardRule::ClockMonotonicity,
                            "join_streams without an active fork".to_string(),
                            vec!["serial"],
                            vec![i],
                            vec![],
                            None,
                        );
                    } else {
                        let max_lane = lane_clocks.iter().copied().max().unwrap_or_default();
                        if *at < max_lane {
                            let msg = format!(
                                "joined serial clock {} ns precedes a lane clock {} ns — \
                                 the join must cover every lane",
                                at.as_nanos(),
                                max_lane.as_nanos()
                            );
                            self.hazard(
                                HazardRule::ClockMonotonicity,
                                msg,
                                vec!["serial"],
                                vec![i],
                                vec![],
                                None,
                            );
                        }
                    }
                    self.engine.join();
                    self.last_serial_time = self.last_serial_time.max(*at);
                }
                TraceRecord::EventRecord { event, lane, at } => {
                    if !self.engine.forked {
                        let msg = format!("record_event({event}) outside an active fork");
                        self.hazard(
                            HazardRule::ClockMonotonicity,
                            msg,
                            vec![lane.name()],
                            vec![i],
                            vec![],
                            None,
                        );
                    } else {
                        let li = component(self.current_device, Some(*lane));
                        if *at < self.fork_origin {
                            let msg = format!(
                                "event {} recorded at {} ns before the fork origin {} ns",
                                event,
                                at.as_nanos(),
                                self.fork_origin.as_nanos()
                            );
                            self.hazard(
                                HazardRule::ClockMonotonicity,
                                msg,
                                vec![lane.name()],
                                vec![i],
                                vec![],
                                None,
                            );
                        }
                        if let Some(&prev) = self.last_record_at.get(&li) {
                            if *at < prev {
                                let msg = format!(
                                    "lane clock rewound: event {} recorded at {} ns after \
                                     a record at {} ns on the same lane",
                                    event,
                                    at.as_nanos(),
                                    prev.as_nanos()
                                );
                                self.hazard(
                                    HazardRule::ClockMonotonicity,
                                    msg,
                                    vec![lane.name()],
                                    vec![i],
                                    vec![],
                                    None,
                                );
                            }
                        }
                        self.last_record_at.insert(li, *at);
                    }
                    self.engine.record(*event, self.current_device, *lane);
                }
                TraceRecord::EventWait { event, lane } => {
                    if !self.engine.wait(*event, self.current_device, *lane) {
                        let msg = format!(
                            "wait_event on index {event} which the active fork never \
                             recorded (stale or foreign handle)"
                        );
                        self.hazard(
                            HazardRule::MissingWait,
                            msg,
                            vec![lane.name()],
                            vec![i],
                            vec![],
                            None,
                        );
                    }
                }
                TraceRecord::GraphAppend {
                    store,
                    event,
                    time_bits,
                    visible_at,
                    lane,
                    at_event,
                } => {
                    let _node = self.engine.issue(self.current_device, *lane, i, *at_event);
                    self.graph_appends += 1;
                    let lane_name = component_name(component(self.current_device, *lane));
                    let st = self.stores.entry(*store).or_default();
                    let expected = st.appends.len();
                    let last_time_bits = st.last_time_bits;
                    let last_visible_at = st.last_visible_at;
                    if *event != expected {
                        let msg = format!(
                            "store {store} append logged event index {event} but \
                             {expected} event(s) were appended before it — appends \
                             must arrive dense and in ingest order"
                        );
                        self.store_hazard(
                            *store,
                            "append-order",
                            msg,
                            vec![lane_name],
                            vec![i],
                            vec![*at_event],
                        );
                    }
                    let time = f64::from_bits(*time_bits);
                    if let Some(prev_bits) = last_time_bits {
                        let prev = f64::from_bits(prev_bits);
                        // `partial_cmp` so a NaN watermark (incomparable)
                        // is also flagged as a regression.
                        let ok = matches!(
                            time.partial_cmp(&prev),
                            Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
                        );
                        if !ok {
                            let msg = format!(
                                "store {store} ingest watermark regressed: event {event} \
                                 carries timestamp {time} after an append at {prev}"
                            );
                            self.store_hazard(
                                *store,
                                "watermark",
                                msg,
                                vec![lane_name],
                                vec![i],
                                vec![*at_event],
                            );
                        }
                    }
                    if *visible_at < last_visible_at {
                        let msg = format!(
                            "store {store} visibility instant regressed: event {event} \
                             becomes visible at {} ns after an append visible at {} ns",
                            visible_at.as_nanos(),
                            last_visible_at.as_nanos()
                        );
                        self.store_hazard(
                            *store,
                            "visibility-monotone",
                            msg,
                            vec![lane_name],
                            vec![i],
                            vec![*at_event],
                        );
                    }
                    let st = self.stores.entry(*store).or_default();
                    let visible_by = st.last_visible_at.max(*visible_at);
                    st.appends.push(AppendSeen {
                        visible_by,
                        record: i,
                    });
                    st.last_time_bits = Some(*time_bits);
                    st.last_visible_at = visible_by;
                }
                TraceRecord::GraphSample {
                    store,
                    visible,
                    at,
                    lane,
                    at_event,
                } => {
                    let _node = self.engine.issue(self.current_device, *lane, i, *at_event);
                    self.graph_samples += 1;
                    let lane_name = component_name(component(self.current_device, *lane));
                    let st = self.stores.entry(*store).or_default();
                    let appended = st.appends.len();
                    let newest = visible
                        .checked_sub(1)
                        .and_then(|last| st.appends.get(last))
                        .copied();
                    if *visible > appended {
                        let msg = format!(
                            "store {store} sample exposes {visible} event(s) but only \
                             {appended} append(s) were ever logged — the snapshot reads \
                             a delta region no append wrote"
                        );
                        self.store_hazard(
                            *store,
                            "sample-beyond-append",
                            msg,
                            vec![lane_name],
                            vec![i],
                            vec![*at_event],
                        );
                    } else if let Some(a) = newest {
                        if a.visible_by > *at {
                            let msg = format!(
                                "store {store} sample at {} ns reads a {visible}-event \
                                 prefix whose newest append only completes at {} ns — \
                                 the read is not happens-before-ordered after the append",
                                at.as_nanos(),
                                a.visible_by.as_nanos()
                            );
                            self.store_hazard(
                                *store,
                                "sample-before-visible",
                                msg,
                                vec![lane_name],
                                vec![i, a.record],
                                vec![*at_event],
                            );
                        }
                    }
                }
                TraceRecord::DeviceSwitch { device } => {
                    self.current_device = *device;
                }
                TraceRecord::PeerCrossing {
                    src,
                    dst,
                    bytes,
                    lane,
                    at_event,
                } => {
                    let _node = self.engine.issue(*dst, *lane, i, *at_event);
                    self.peer_crossings += 1;
                    *self.peer_crossed.entry((*src, *dst)).or_default() += bytes;
                }
                TraceRecord::PeerPriced {
                    src,
                    dst,
                    bytes,
                    via_host,
                    lane,
                    event,
                } => {
                    let _node = self.engine.issue(*dst, *lane, i, *event);
                    *self.peer_priced.entry((*src, *dst)).or_default() += bytes;
                    self.peer_bytes += bytes;
                    let lane_name = component_name(component(*dst, *lane));
                    if src == dst {
                        let msg = format!(
                            "device {dst} priced a {bytes} B peer transfer from itself — \
                             shard-local reads must never touch the interconnect"
                        );
                        self.hazard(
                            HazardRule::PeerConservation,
                            msg,
                            vec![lane_name],
                            vec![i],
                            vec![*event],
                            None,
                        );
                    }
                    let expected_label = if *via_host {
                        "peer_copy_staged"
                    } else {
                        "peer_copy"
                    };
                    match self.timeline.events().get(*event) {
                        Some(e)
                            if e.category == EventCategory::PeerTransfer
                                && e.bytes == *bytes
                                && e.device == *dst
                                && e.stream == *lane
                                && e.label == expected_label => {}
                        Some(e) => {
                            let msg = format!(
                                "priced {} B peer transfer {}→{} does not match timeline \
                                 event {} ({:?} \"{}\", {} B, device {}, lane {:?})",
                                bytes,
                                src,
                                dst,
                                event,
                                e.category,
                                e.label,
                                e.bytes,
                                e.device,
                                e.stream
                            );
                            self.hazard(
                                HazardRule::PeerConservation,
                                msg,
                                vec![lane_name],
                                vec![i],
                                vec![*event],
                                None,
                            );
                        }
                        None => {
                            let msg = format!(
                                "priced {} B peer transfer {}→{} points at timeline event \
                                 {} past the recorded timeline (len {})",
                                bytes,
                                src,
                                dst,
                                event,
                                self.timeline.len()
                            );
                            self.hazard(
                                HazardRule::PeerConservation,
                                msg,
                                vec![lane_name],
                                vec![i],
                                vec![],
                                None,
                            );
                        }
                    }
                }
            }
        }
        if self.engine.forked {
            self.hazard(
                HazardRule::ClockMonotonicity,
                "trace ends inside an active fork (fork_streams never joined)".to_string(),
                vec!["serial"],
                vec![trace.len().saturating_sub(1)],
                vec![],
                None,
            );
        }
        // End-of-trace byte conservation.
        for dir in [TransferDir::H2D, TransferDir::D2H] {
            let di = dir_index(dir);
            if self.staged[di] > self.flushed[di] {
                let msg = format!(
                    "{} staged {} B but flushed only {} B — staged bytes escaped pricing",
                    dir_name(dir),
                    self.staged[di],
                    self.flushed[di]
                );
                self.hazard(
                    HazardRule::ByteConservation,
                    msg,
                    vec![],
                    vec![],
                    vec![],
                    None,
                );
            }
            let covered = self.immediate[di] + self.flushed[di];
            if self.priced[di] < covered {
                let msg = format!(
                    "{} priced {} B over PCIe but crossings account for {} B — \
                     some crossing was never priced",
                    dir_name(dir),
                    self.priced[di],
                    covered
                );
                self.hazard(
                    HazardRule::ByteConservation,
                    msg,
                    vec![],
                    vec![],
                    vec![],
                    None,
                );
            }
        }
        // End-of-trace RULE8 peer conservation: per (src, dst) device
        // pair, crossing intents and interconnect pricing must balance.
        let pairs: BTreeSet<(usize, usize)> = self
            .peer_crossed
            .keys()
            .chain(self.peer_priced.keys())
            .copied()
            .collect();
        for pair in pairs {
            let crossed = self.peer_crossed.get(&pair).copied().unwrap_or(0);
            let priced = self.peer_priced.get(&pair).copied().unwrap_or(0);
            if priced < crossed {
                let msg = format!(
                    "peer crossings {}→{} logged {} B but only {} B were priced on an \
                     interconnect edge — some cross-device fetch was never priced",
                    pair.0, pair.1, crossed, priced
                );
                self.hazard(
                    HazardRule::PeerConservation,
                    msg,
                    vec![],
                    vec![],
                    vec![],
                    None,
                );
            } else if priced > crossed {
                let msg = format!(
                    "peer pricing {}→{} covered {} B but only {} B of crossings were \
                     logged — phantom interconnect traffic with no fetch intent",
                    pair.0, pair.1, priced, crossed
                );
                self.hazard(
                    HazardRule::PeerConservation,
                    msg,
                    vec![],
                    vec![],
                    vec![],
                    None,
                );
            }
        }
    }

    /// RULE4 over the timeline: per execution lane (and the serial
    /// clock) of every device, events must be well-formed and
    /// non-overlapping in emission order.
    fn check_timeline(&mut self) {
        // Keyed get/insert per lane component, never iterated: hazard
        // order follows timeline emission order, not hasher state.
        let mut last_end: HashMap<usize, (usize, DurationNs)> = HashMap::new();
        for (idx, e) in self.timeline.events().iter().enumerate() {
            if e.end < e.start {
                let msg = format!(
                    "timeline event {} ({}) ends at {} ns before it starts at {} ns",
                    idx,
                    e.label,
                    e.end.as_nanos(),
                    e.start.as_nanos()
                );
                self.hazard(
                    HazardRule::ClockMonotonicity,
                    msg,
                    vec![component_name(component(e.device, e.stream))],
                    vec![],
                    vec![idx],
                    None,
                );
                continue;
            }
            let c = component(e.device, e.stream);
            if let Some(&(prev_idx, prev_end)) = last_end.get(&c) {
                if e.start < prev_end {
                    let msg = format!(
                        "events {} and {} overlap on the {} clock ({} starts at {} ns \
                         before {} ends at {} ns)",
                        prev_idx,
                        idx,
                        component_name(c),
                        e.label,
                        e.start.as_nanos(),
                        prev_idx,
                        prev_end.as_nanos()
                    );
                    self.hazard(
                        HazardRule::ClockMonotonicity,
                        msg,
                        vec![component_name(c)],
                        vec![],
                        vec![prev_idx, idx],
                        None,
                    );
                }
            }
            last_end.insert(c, (idx, e.end));
        }
    }

    /// RULE6: verify a claimed busy fraction against an independently
    /// computed interval union (boundary sweep, a different algorithm
    /// from [`Timeline::gpu_busy_fraction`]'s sorted-interval merge).
    fn check_busy_claim(&mut self, claim: &BusyClaim) {
        if !(0.0..=1.0).contains(&claim.fraction) {
            let msg = format!("claimed busy fraction {} is outside [0, 1]", claim.fraction);
            self.hazard(HazardRule::BusyFraction, msg, vec![], vec![], vec![], None);
        }
        let reference = reference_busy_fraction(self.timeline, claim.win_start, claim.win_end);
        if (claim.fraction - reference).abs() > BUSY_EPSILON {
            let msg = format!(
                "claimed busy fraction {:.9} disagrees with the interval-union \
                 reference {:.9} over [{}, {}) ns — per-event sums double-count \
                 overlapping kernels",
                claim.fraction,
                reference,
                claim.win_start.as_nanos(),
                claim.win_end.as_nanos()
            );
            self.hazard(HazardRule::BusyFraction, msg, vec![], vec![], vec![], None);
        }
    }
}

/// Boundary-sweep interval union of GPU kernel events clipped to the
/// window, as a fraction of the window.
fn reference_busy_fraction(timeline: &Timeline, win_start: DurationNs, win_end: DurationNs) -> f64 {
    let window = win_end.saturating_sub(win_start).as_nanos();
    if window == 0 {
        return 0.0;
    }
    let mut bounds: Vec<(u64, i64)> = Vec::new();
    for e in timeline.events() {
        // The claim under test is `gpu_busy_fraction`, which is device
        // 0's kernel residency; other devices' kernels are out of scope.
        if !e.category.is_gpu_compute() || e.device != 0 {
            continue;
        }
        let s = e.start.max(win_start).as_nanos();
        let t = e.end.min(win_end).as_nanos();
        if t > s {
            bounds.push((s, 1));
            bounds.push((t, -1));
        }
    }
    bounds.sort_unstable();
    let mut depth = 0i64;
    let mut prev = 0u64;
    let mut busy = 0u64;
    for (t, delta) in bounds {
        if depth > 0 {
            busy += t - prev;
        }
        prev = t;
        depth += delta;
    }
    busy as f64 / window as f64
}

/// Replays `trace` against `timeline` and returns every detected hazard.
///
/// A clean report means: every device read is ordered after its defining
/// transfer, no buffer is used after download/release, all conflicting
/// cross-lane accesses are event-ordered, clocks are monotone, staged
/// bytes are conserved, (when `busy_claim` is supplied) the claimed busy
/// fraction is consistent with the timeline (RULE6), every
/// streaming-graph sample reads
/// only append prefixes whose ingest work completed before the read,
/// and every cross-device fetch is priced on exactly one interconnect
/// edge (RULE8).
pub fn sanitize(
    timeline: &Timeline,
    trace: &ExecTrace,
    busy_claim: Option<&BusyClaim>,
) -> SanitizerReport {
    let mut s = Sanitizer::new(timeline);
    s.replay(trace);
    s.check_timeline();
    if let Some(claim) = busy_claim {
        s.check_busy_claim(claim);
    }
    let stats = SanitizeStats {
        trace_records: trace.len(),
        timeline_events: timeline.len(),
        tensors: s.tensors.len(),
        forks: s.forks,
        crossings: s.crossings,
        priced_bytes: s.priced,
        graph_appends: s.graph_appends,
        graph_samples: s.graph_samples,
        cache_hit_rows: s.cache_hit_rows,
        cache_hit_bytes: s.cache_hit_bytes,
        peer_crossings: s.peer_crossings,
        peer_bytes: s.peer_bytes,
    };
    SanitizerReport {
        hazards: s.hazards,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_device::StreamId;

    #[test]
    fn empty_trace_and_timeline_are_clean() {
        let report = sanitize(&Timeline::new(), &ExecTrace::new(), None);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.stats.trace_records, 0);
    }

    #[test]
    fn serial_upload_then_read_is_clean() {
        let mut trace = ExecTrace::new();
        trace.push(TraceRecord::Crossing {
            tensor: Some(7),
            dir: TransferDir::H2D,
            bytes: 64,
            lane: None,
            staged: false,
            at_event: 0,
        });
        trace.push(TraceRecord::Access {
            tensor: 7,
            kind: AccessKind::Arg,
            lane: None,
            place: Place::Gpu,
            at_event: 1,
        });
        // The priced twin for the crossing.
        let mut tl = Timeline::new();
        tl.push(dgnn_device::TimelineEvent {
            label: "memcpy_h2d",
            scope: "".into(),
            category: EventCategory::Transfer(TransferDir::H2D),
            place: Place::Pcie,
            start: DurationNs::ZERO,
            end: DurationNs::from_nanos(10),
            occupancy: 1.0,
            flops: 0,
            bytes: 64,
            stream: None,
            device: 0,
        });
        trace.push(TraceRecord::Priced {
            dir: TransferDir::H2D,
            bytes: 64,
            lane: None,
            event: 0,
        });
        let report = sanitize(&tl, &trace, None);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.stats.tensors, 1);
        assert_eq!(report.stats.priced_bytes, [64, 0]);
    }

    #[test]
    fn cache_hits_are_legitimately_unpriced() {
        use dgnn_device::TensorClass;
        // A fetch that half-hits: two rows served from the cache (no
        // crossing, no priced event) and one row priced over PCIe. RULE5
        // byte conservation must only account for the priced row.
        let mut trace = ExecTrace::new();
        trace.push(TraceRecord::CacheHit {
            class: TensorClass::NodeFeature,
            rows: 2,
            bytes: 256,
            lane: None,
            at_event: 0,
        });
        trace.push(TraceRecord::Crossing {
            tensor: None,
            dir: TransferDir::H2D,
            bytes: 128,
            lane: None,
            staged: false,
            at_event: 0,
        });
        let mut tl = Timeline::new();
        tl.push(dgnn_device::TimelineEvent {
            label: "memcpy_h2d",
            scope: "".into(),
            category: EventCategory::Transfer(TransferDir::H2D),
            place: Place::Pcie,
            start: DurationNs::ZERO,
            end: DurationNs::from_nanos(10),
            occupancy: 1.0,
            flops: 0,
            bytes: 128,
            stream: None,
            device: 0,
        });
        trace.push(TraceRecord::Priced {
            dir: TransferDir::H2D,
            bytes: 128,
            lane: None,
            event: 0,
        });
        let report = sanitize(&tl, &trace, None);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.stats.cache_hit_rows, 2);
        assert_eq!(report.stats.cache_hit_bytes, 256);
        assert_eq!(report.stats.priced_bytes, [128, 0]);
    }

    #[test]
    fn cross_lane_read_without_wait_is_rule1() {
        let mut trace = ExecTrace::new();
        trace.push(TraceRecord::Fork {
            at: DurationNs::ZERO,
        });
        trace.push(TraceRecord::Crossing {
            tensor: Some(1),
            dir: TransferDir::H2D,
            bytes: 128,
            lane: Some(StreamId::Copy),
            staged: false,
            at_event: 0,
        });
        trace.push(TraceRecord::Access {
            tensor: 1,
            kind: AccessKind::Arg,
            lane: Some(StreamId::Compute),
            place: Place::Gpu,
            at_event: 1,
        });
        trace.push(TraceRecord::Join {
            at: DurationNs::from_nanos(10),
            lane_clocks: vec![DurationNs::ZERO; 3],
        });
        let report = sanitize(&Timeline::new(), &trace, None);
        assert_eq!(report.count(HazardRule::ReadBeforeTransfer), 1, "{report}");
    }

    #[test]
    fn cross_lane_read_with_handoff_is_clean_of_rule1() {
        let mut trace = ExecTrace::new();
        trace.push(TraceRecord::Fork {
            at: DurationNs::ZERO,
        });
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
            at: DurationNs::from_nanos(5),
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
            at: DurationNs::from_nanos(10),
            lane_clocks: vec![DurationNs::ZERO; 3],
        });
        let report = sanitize(&Timeline::new(), &trace, None);
        assert_eq!(report.count(HazardRule::ReadBeforeTransfer), 0, "{report}");
        assert_eq!(report.count(HazardRule::MissingWait), 0, "{report}");
    }

    fn peer_event(label: &'static str, device: usize, bytes: u64) -> dgnn_device::TimelineEvent {
        dgnn_device::TimelineEvent {
            label,
            scope: "".into(),
            category: EventCategory::PeerTransfer,
            place: Place::Pcie,
            start: DurationNs::ZERO,
            end: DurationNs::from_nanos(10),
            occupancy: 1.0,
            flops: 0,
            bytes,
            stream: None,
            device,
        }
    }

    #[test]
    fn balanced_peer_crossing_is_clean() {
        let mut trace = ExecTrace::new();
        trace.push(TraceRecord::DeviceSwitch { device: 1 });
        trace.push(TraceRecord::PeerCrossing {
            src: 0,
            dst: 1,
            bytes: 4096,
            lane: None,
            at_event: 0,
        });
        trace.push(TraceRecord::PeerPriced {
            src: 0,
            dst: 1,
            bytes: 4096,
            via_host: false,
            lane: None,
            event: 0,
        });
        let mut tl = Timeline::new();
        tl.push(peer_event("peer_copy", 1, 4096));
        let report = sanitize(&tl, &trace, None);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.stats.peer_crossings, 1);
        assert_eq!(report.stats.peer_bytes, 4096);
    }

    #[test]
    fn unpriced_peer_crossing_is_rule8() {
        let mut trace = ExecTrace::new();
        trace.push(TraceRecord::DeviceSwitch { device: 1 });
        trace.push(TraceRecord::PeerCrossing {
            src: 0,
            dst: 1,
            bytes: 4096,
            lane: None,
            at_event: 0,
        });
        let report = sanitize(&Timeline::new(), &trace, None);
        assert_eq!(report.count(HazardRule::PeerConservation), 1, "{report}");
    }

    #[test]
    fn self_peer_pricing_is_rule8() {
        let mut trace = ExecTrace::new();
        trace.push(TraceRecord::PeerCrossing {
            src: 1,
            dst: 1,
            bytes: 64,
            lane: None,
            at_event: 0,
        });
        trace.push(TraceRecord::PeerPriced {
            src: 1,
            dst: 1,
            bytes: 64,
            via_host: false,
            lane: None,
            event: 0,
        });
        let mut tl = Timeline::new();
        tl.push(peer_event("peer_copy", 1, 64));
        let report = sanitize(&tl, &trace, None);
        assert_eq!(report.count(HazardRule::PeerConservation), 1, "{report}");
    }

    #[test]
    fn mislabeled_peer_route_is_rule8() {
        // Priced record says the payload bounced through the host, but
        // the timeline event is a direct peer copy.
        let mut trace = ExecTrace::new();
        trace.push(TraceRecord::DeviceSwitch { device: 2 });
        trace.push(TraceRecord::PeerCrossing {
            src: 0,
            dst: 2,
            bytes: 512,
            lane: None,
            at_event: 0,
        });
        trace.push(TraceRecord::PeerPriced {
            src: 0,
            dst: 2,
            bytes: 512,
            via_host: true,
            lane: None,
            event: 0,
        });
        let mut tl = Timeline::new();
        tl.push(peer_event("peer_copy", 2, 512));
        let report = sanitize(&tl, &trace, None);
        assert_eq!(report.count(HazardRule::PeerConservation), 1, "{report}");
    }
}
