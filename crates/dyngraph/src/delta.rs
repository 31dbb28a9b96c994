//! Two-tier streaming adjacency: immutable CSR base + append-only delta
//! log, with deterministic threshold compaction.
//!
//! A frozen [`TemporalAdjacency`](crate::TemporalAdjacency) is the right index for offline
//! inference, but the paper's dynamic-graph setting is most interesting
//! when events arrive *while* queries are being served. Rebuilding the
//! CSR per event is O(total history); a mutable CSR would invalidate
//! borrowed rows under readers. [`StreamingAdjacency`] takes the
//! LSM-style middle road:
//!
//! * **Base tier** — compacted CSR slabs, identical layout to
//!   [`TemporalAdjacency`](crate::TemporalAdjacency) plus one `event_idx` slab recording which
//!   global event produced each entry.
//! * **Delta tier** — append-only struct-of-arrays log in arrival
//!   order, plus a per-node position index so a node's delta history is
//!   recoverable without scanning the log.
//! * **Compaction** — when the delta log holds `threshold` events,
//!   [`StreamingAdjacency::append`] folds the whole log into fresh base
//!   slabs. The trigger depends only on the event sequence, so replays
//!   compact at identical points.
//!
//! # Read-through views and byte-identity
//!
//! [`StreamingAdjacency::view_prefix`] borrows a [`StreamingView`]: a
//! read snapshot exposing exactly the first `visible` events, however
//! they are currently split between tiers. Because appends are
//! time-monotone and both tiers preserve arrival order, a node's
//! visible history is `base-row prefix ++ delta-row prefix` — the same
//! entries in the same order as a frozen [`TemporalAdjacency`](crate::TemporalAdjacency) built
//! from that event prefix. [`crate::TemporalView`] is implemented over
//! that composition with the same bisection step accounting, so
//! sampling through a view is **byte-identical** — samples and
//! [`crate::SampleCost`] both — to sampling the frozen graph, before
//! and after compaction.
//!
//! # Cost accounting
//!
//! Mutations return [`IngestCost`] receipts (ops, sequential bytes,
//! irregular bytes) that the serving layer prices through the
//! `Executor` as Host-lane work, so ingestion and query sampling
//! contend on the same virtual clock.

use crate::error::GraphError;
use crate::sampler::TemporalView;
use crate::{EventStream, NodeId, TemporalEvent};

/// Bytes of one CSR entry across the four slabs (neighbor, time,
/// feature row, event index).
const ENTRY_BYTES: u64 = 32;

/// Host-side work performed by an append or a compaction, in the same
/// units as `dgnn-device`'s `HostWork` so the serving layer can price
/// it on the Host lane without conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestCost {
    /// Comparison/index operations (bounds checks, cursor updates).
    pub ops: u64,
    /// Bytes touched sequentially (slab tail appends, slab rewrites).
    pub seq_bytes: u64,
    /// Bytes touched with irregular access (per-node row indexes).
    pub irregular_bytes: u64,
}

impl IngestCost {
    /// Accumulates another cost.
    pub fn add(&mut self, other: IngestCost) {
        self.ops += other.ops;
        self.seq_bytes += other.seq_bytes;
        self.irregular_bytes += other.irregular_bytes;
    }
}

/// Receipt of one [`StreamingAdjacency::append`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReceipt {
    /// Global index the appended event received (0-based, dense).
    pub event_index: usize,
    /// Cost of the append itself.
    pub cost: IngestCost,
    /// Cost of the threshold compaction the append triggered, if any.
    pub compaction: Option<IngestCost>,
}

/// Appendable two-tier temporal adjacency (see module docs).
///
/// ```
/// use dgnn_graph::{
///     EventStream, NeighborSampler, SampleStrategy, StreamingAdjacency,
///     TemporalAdjacency, TemporalEvent,
/// };
///
/// let ev = |src, dst, time, feature_idx| TemporalEvent { src, dst, time, feature_idx };
/// let prefix = EventStream::new(3, vec![ev(0, 1, 1.0, 0), ev(1, 2, 2.0, 1)]).unwrap();
/// let mut live = StreamingAdjacency::from_stream(&prefix, 4);
/// let receipt = live.append(ev(0, 2, 3.0, 2)).unwrap();
/// assert_eq!(receipt.event_index, 2);
/// assert_eq!(live.delta_events(), 1);
///
/// // Sampling through the two tiers is byte-identical to a frozen
/// // graph built from the same three events.
/// let full = EventStream::new(
///     3,
///     vec![ev(0, 1, 1.0, 0), ev(1, 2, 2.0, 1), ev(0, 2, 3.0, 2)],
/// )
/// .unwrap();
/// let frozen = TemporalAdjacency::from_stream(&full);
/// let sampler = NeighborSampler::new(SampleStrategy::Uniform, 7);
/// assert_eq!(
///     sampler.sample(&live.view(), 0, 4.0, 5),
///     sampler.sample(&frozen, 0, 4.0, 5),
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingAdjacency {
    n_nodes: usize,
    threshold: usize,
    // Base tier: compacted CSR slabs (layout of `TemporalAdjacency`
    // plus the per-entry global event index).
    base_offsets: Vec<usize>,
    base_neighbors: Vec<NodeId>,
    base_times: Vec<f64>,
    base_feature_idx: Vec<usize>,
    base_event_idx: Vec<usize>,
    // Delta tier: append-order slabs + per-node position index.
    delta_rows: Vec<Vec<usize>>,
    delta_neighbors: Vec<NodeId>,
    delta_times: Vec<f64>,
    delta_feature_idx: Vec<usize>,
    delta_event_idx: Vec<usize>,
    delta_events: usize,
    total_events: usize,
    compactions: usize,
    watermark: Option<f64>,
}

impl StreamingAdjacency {
    /// Creates an empty store over `n_nodes` nodes that compacts every
    /// time the delta log reaches `threshold` events.
    ///
    /// # Panics
    ///
    /// Panics when `threshold` is zero — the delta log must be allowed
    /// to hold at least one event between compactions.
    pub fn new(n_nodes: usize, threshold: usize) -> Self {
        assert!(threshold >= 1, "compaction threshold must be >= 1");
        StreamingAdjacency {
            n_nodes,
            threshold,
            base_offsets: vec![0; n_nodes + 1],
            base_neighbors: Vec::new(),
            base_times: Vec::new(),
            base_feature_idx: Vec::new(),
            base_event_idx: Vec::new(),
            delta_rows: vec![Vec::new(); n_nodes],
            delta_neighbors: Vec::new(),
            delta_times: Vec::new(),
            delta_feature_idx: Vec::new(),
            delta_event_idx: Vec::new(),
            delta_events: 0,
            total_events: 0,
            compactions: 0,
            watermark: None,
        }
    }

    /// Builds a store whose base tier holds the whole `stream` (already
    /// compacted) and whose delta log is empty — the usual starting
    /// point for serving: a historical prefix plus live ingestion.
    pub fn from_stream(stream: &EventStream, threshold: usize) -> Self {
        let mut s = StreamingAdjacency::new(stream.n_nodes(), threshold);
        let mut degree = vec![0usize; s.n_nodes];
        for e in stream.events() {
            degree[e.src] += 1;
            degree[e.dst] += 1;
        }
        let mut acc = 0usize;
        for (v, &d) in degree.iter().enumerate() {
            acc += d;
            s.base_offsets[v + 1] = acc;
        }
        s.base_neighbors = vec![0 as NodeId; acc];
        s.base_times = vec![0.0f64; acc];
        s.base_feature_idx = vec![0usize; acc];
        s.base_event_idx = vec![0usize; acc];
        let mut cursor = s.base_offsets[..s.n_nodes].to_vec();
        for (i, e) in stream.events().iter().enumerate() {
            for (from, to) in [(e.src, e.dst), (e.dst, e.src)] {
                let at = cursor[from];
                s.base_neighbors[at] = to;
                s.base_times[at] = e.time;
                s.base_feature_idx[at] = e.feature_idx;
                s.base_event_idx[at] = i;
                cursor[from] += 1;
            }
        }
        s.total_events = stream.len();
        s.watermark = stream.events().last().map(|e| e.time);
        s
    }

    /// Number of nodes indexed (fixed at construction).
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Events currently in the delta log.
    pub fn delta_events(&self) -> usize {
        self.delta_events
    }

    /// Total events ingested (base + delta).
    pub fn total_events(&self) -> usize {
        self.total_events
    }

    /// Compactions performed so far.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// Time of the most recently ingested event; `None` when empty.
    /// Appends must be monotone in this watermark.
    pub fn watermark(&self) -> Option<f64> {
        self.watermark
    }

    /// Appends one event to the delta log, compacting first into the
    /// base tier when the log reaches the threshold. Returns a receipt
    /// carrying the event's global index and the Host-lane cost(s).
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] — an endpoint is not a node.
    /// * [`GraphError::InvalidTimestamp`] — the time is not finite.
    /// * [`GraphError::UnsortedEvents`] — the time precedes the
    ///   watermark (ingestion must be time-monotone, like the sorted
    ///   [`EventStream`] the base was built from).
    pub fn append(&mut self, event: TemporalEvent) -> Result<AppendReceipt, GraphError> {
        for node in [event.src, event.dst] {
            if node >= self.n_nodes {
                return Err(GraphError::NodeOutOfBounds {
                    node,
                    n_nodes: self.n_nodes,
                });
            }
        }
        if !event.time.is_finite() {
            return Err(GraphError::InvalidTimestamp {
                index: self.total_events,
            });
        }
        if let Some(w) = self.watermark {
            if event.time < w {
                return Err(GraphError::UnsortedEvents {
                    index: self.total_events,
                });
            }
        }

        let event_index = self.total_events;
        for (from, to) in [(event.src, event.dst), (event.dst, event.src)] {
            self.delta_rows[from].push(self.delta_neighbors.len());
            self.delta_neighbors.push(to);
            self.delta_times.push(event.time);
            self.delta_feature_idx.push(event.feature_idx);
            self.delta_event_idx.push(event_index);
        }
        self.delta_events += 1;
        self.total_events += 1;
        self.watermark = Some(event.time);

        // Two slab-tail appends are sequential; the two per-node row
        // index pushes each chase one scattered cache line.
        let cost = IngestCost {
            ops: 8,
            seq_bytes: 2 * ENTRY_BYTES,
            irregular_bytes: 128,
        };
        let compaction = (self.delta_events >= self.threshold).then(|| self.compact());
        Ok(AppendReceipt {
            event_index,
            cost,
            compaction,
        })
    }

    /// Folds the whole delta log into fresh base slabs, preserving
    /// per-row entry order (base prefix, then delta entries in arrival
    /// order). Views are unaffected: a [`StreamingView`] filters both
    /// tiers by event index, so the same prefix reads the same entries
    /// before and after. Returns the Host-lane cost; no-op (zero cost)
    /// when the log is empty.
    pub fn compact(&mut self) -> IngestCost {
        if self.delta_events == 0 {
            return IngestCost::default();
        }
        let merged_entries = self.base_neighbors.len() + self.delta_neighbors.len();
        let mut offsets = vec![0usize; self.n_nodes + 1];
        let mut neighbors = vec![0 as NodeId; merged_entries];
        let mut times = vec![0.0f64; merged_entries];
        let mut feature_idx = vec![0usize; merged_entries];
        let mut event_idx = vec![0usize; merged_entries];
        let mut at = 0usize;
        for v in 0..self.n_nodes {
            let b = self.base_offsets[v]..self.base_offsets[v + 1];
            let width = b.len() + self.delta_rows[v].len();
            for i in b {
                neighbors[at] = self.base_neighbors[i];
                times[at] = self.base_times[i];
                feature_idx[at] = self.base_feature_idx[i];
                event_idx[at] = self.base_event_idx[i];
                at += 1;
            }
            for &p in &self.delta_rows[v] {
                neighbors[at] = self.delta_neighbors[p];
                times[at] = self.delta_times[p];
                feature_idx[at] = self.delta_feature_idx[p];
                event_idx[at] = self.delta_event_idx[p];
                at += 1;
            }
            offsets[v + 1] = offsets[v] + width;
        }
        debug_assert_eq!(at, merged_entries);

        let delta_entries = self.delta_neighbors.len() as u64;
        let cost = IngestCost {
            ops: merged_entries as u64 + self.n_nodes as u64,
            // Every merged entry is read once and written once.
            seq_bytes: 2 * merged_entries as u64 * ENTRY_BYTES,
            // Delta entries are gathered through the per-node position
            // index — one scattered line each.
            irregular_bytes: delta_entries * 64,
        };

        self.base_offsets = offsets;
        self.base_neighbors = neighbors;
        self.base_times = times;
        self.base_feature_idx = feature_idx;
        self.base_event_idx = event_idx;
        for row in &mut self.delta_rows {
            row.clear();
        }
        self.delta_neighbors.clear();
        self.delta_times.clear();
        self.delta_feature_idx.clear();
        self.delta_event_idx.clear();
        self.delta_events = 0;
        self.compactions += 1;
        cost
    }

    /// Borrows a read snapshot over every ingested event. Equivalent to
    /// `view_prefix(total_events())`.
    pub fn view(&self) -> StreamingView<'_> {
        self.view_prefix(self.total_events)
    }

    /// Borrows a read snapshot exposing only the first `visible`
    /// events, wherever they currently live (base or delta). Sampling
    /// through the snapshot is byte-identical to sampling a frozen
    /// [`TemporalAdjacency`](crate::TemporalAdjacency) built from that event prefix.
    ///
    /// The snapshot is a plain borrow — no slab is cloned.
    ///
    /// # Panics
    ///
    /// Panics when `visible` exceeds the events ingested so far.
    pub fn view_prefix(&self, visible: usize) -> StreamingView<'_> {
        assert!(
            visible <= self.total_events,
            "view of {visible} events but only {} ingested",
            self.total_events
        );
        StreamingView {
            store: self,
            visible,
        }
    }
}

/// Borrowed read snapshot of a [`StreamingAdjacency`] prefix.
///
/// Implements [`TemporalView`], so every `NeighborSampler` method —
/// the batch APIs included — reads through both tiers without copying
/// them. Obtain one with [`StreamingAdjacency::view`] or
/// [`StreamingAdjacency::view_prefix`].
#[derive(Debug, Clone, Copy)]
pub struct StreamingView<'a> {
    store: &'a StreamingAdjacency,
    visible: usize,
}

impl StreamingView<'_> {
    /// Visible entry counts of `node` in (base, delta): entries whose
    /// producing event index precedes the visibility horizon. Both row
    /// segments store event indexes in increasing order, so each prefix
    /// length is one bisection.
    fn visible_split(&self, node: NodeId) -> (usize, usize) {
        let s = self.store;
        let row = &s.base_event_idx[s.base_offsets[node]..s.base_offsets[node + 1]];
        let base = row.partition_point(|&e| e < self.visible);
        let delta = s.delta_rows[node].partition_point(|&p| s.delta_event_idx[p] < self.visible);
        (base, delta)
    }
}

impl TemporalView for StreamingView<'_> {
    fn n_nodes(&self) -> usize {
        self.store.n_nodes
    }

    fn degree(&self, node: NodeId) -> usize {
        let (base, delta) = self.visible_split(node);
        base + delta
    }

    fn entry(&self, node: NodeId, i: usize) -> (NodeId, f64, usize) {
        let s = self.store;
        let (base, _) = self.visible_split(node);
        if i < base {
            let at = s.base_offsets[node] + i;
            (
                s.base_neighbors[at],
                s.base_times[at],
                s.base_feature_idx[at],
            )
        } else {
            let p = s.delta_rows[node][i - base];
            (
                s.delta_neighbors[p],
                s.delta_times[p],
                s.delta_feature_idx[p],
            )
        }
    }

    fn count_before(&self, node: NodeId, t: f64) -> (usize, u64) {
        let s = self.store;
        let (base, delta) = self.visible_split(node);
        let len = base + delta;
        if len == 0 {
            return (0, 0);
        }
        // The visible row is `base prefix ++ delta prefix`, globally
        // time-sorted (appends are watermark-monotone), so the strict
        // lower bound splits across the two segments. The step count is
        // a function of the *visible row length* alone — the same
        // bisection a frozen CSR of this prefix would pay.
        let b0 = s.base_offsets[node];
        let in_base = s.base_times[b0..b0 + base].partition_point(|&x| x < t);
        let in_delta = s.delta_rows[node][..delta].partition_point(|&p| s.delta_times[p] < t);
        #[expect(clippy::cast_possible_truncation, reason = "log2 of a length fits u64")]
        let steps = (len as f64).log2().ceil() as u64 + 1;
        (in_base + in_delta, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NeighborSampler, SampleStrategy, TemporalAdjacency};

    fn ev(src: usize, dst: usize, time: f64, feature_idx: usize) -> TemporalEvent {
        TemporalEvent {
            src,
            dst,
            time,
            feature_idx,
        }
    }

    fn events() -> Vec<TemporalEvent> {
        vec![
            ev(0, 1, 1.0, 0),
            ev(0, 2, 2.0, 1),
            ev(1, 2, 3.0, 2),
            ev(0, 3, 4.0, 3),
            ev(2, 3, 5.0, 4),
            ev(1, 3, 5.0, 5),
        ]
    }

    #[test]
    fn append_grows_the_log_and_compacts_at_threshold() {
        let mut s = StreamingAdjacency::new(4, 3);
        for (i, e) in events().into_iter().enumerate() {
            let r = s.append(e).unwrap();
            assert_eq!(r.event_index, i);
        }
        // Six appends with threshold 3 → two compactions, empty log.
        assert_eq!(s.compactions(), 2);
        assert_eq!(s.delta_events(), 0);
        assert_eq!(s.total_events(), 6);
        assert_eq!(s.watermark(), Some(5.0));
    }

    #[test]
    fn append_rejects_bad_events() {
        let mut s = StreamingAdjacency::new(3, 8);
        assert!(matches!(
            s.append(ev(0, 3, 1.0, 0)),
            Err(GraphError::NodeOutOfBounds { node: 3, .. })
        ));
        assert!(matches!(
            s.append(ev(0, 1, f64::NAN, 0)),
            Err(GraphError::InvalidTimestamp { .. })
        ));
        s.append(ev(0, 1, 2.0, 0)).unwrap();
        assert!(matches!(
            s.append(ev(1, 2, 1.5, 1)),
            Err(GraphError::UnsortedEvents { index: 1 })
        ));
        // Equal times are fine (ties keep arrival order).
        s.append(ev(1, 2, 2.0, 1)).unwrap();
    }

    #[test]
    fn view_matches_frozen_prefix_at_every_split() {
        let all = events();
        for split in 0..=all.len() {
            let prefix = EventStream::new(4, all[..split].to_vec()).unwrap();
            let mut live = StreamingAdjacency::from_stream(&prefix, 100);
            for e in &all[split..] {
                live.append(*e).unwrap();
            }
            for visible in 0..=all.len() {
                let frozen = TemporalAdjacency::from_stream(
                    &EventStream::new(4, all[..visible].to_vec()).unwrap(),
                );
                let view = live.view_prefix(visible);
                for node in 0..4 {
                    assert_eq!(view.degree(node), TemporalView::degree(&frozen, node));
                    for t in [0.5, 2.0, 3.5, 6.0] {
                        assert_eq!(
                            TemporalView::count_before(&view, node, t),
                            TemporalView::count_before(&frozen, node, t),
                            "split {split} visible {visible} node {node} t {t}"
                        );
                    }
                    for i in 0..view.degree(node) {
                        assert_eq!(view.entry(node, i), TemporalView::entry(&frozen, node, i));
                    }
                }
            }
        }
    }

    #[test]
    fn compaction_does_not_change_what_a_view_reads() {
        let all = events();
        let mut live = StreamingAdjacency::new(4, 100);
        for e in &all {
            live.append(*e).unwrap();
        }
        let sampler = NeighborSampler::new(SampleStrategy::Uniform, 5);
        let before: Vec<_> = (0..4)
            .map(|n| sampler.sample(&live.view_prefix(4), n, 9.0, 6))
            .collect();
        let cost = live.compact();
        assert!(cost.seq_bytes > 0);
        assert_eq!(live.delta_events(), 0);
        let after: Vec<_> = (0..4)
            .map(|n| sampler.sample(&live.view_prefix(4), n, 9.0, 6))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn empty_compaction_is_free() {
        let mut s = StreamingAdjacency::new(2, 4);
        assert_eq!(s.compact(), IngestCost::default());
        assert_eq!(s.compactions(), 0);
    }

    #[test]
    #[should_panic(expected = "only 1 ingested")]
    fn view_beyond_ingested_panics() {
        let mut s = StreamingAdjacency::new(2, 4);
        s.append(ev(0, 1, 1.0, 0)).unwrap();
        let _ = s.view_prefix(2);
    }
}
