//! Streaming adjacency: an append-only event log over one frozen
//! [`TemporalAdjacency`], with deterministic threshold compaction.
//!
//! A frozen [`TemporalAdjacency`] is the right index for offline
//! inference, but the paper's dynamic-graph setting is most interesting
//! when events arrive *while* queries are being served. Rebuilding the
//! CSR per event is O(total history); a mutable CSR would invalidate
//! borrowed rows under readers. [`StreamingAdjacency`] takes the
//! LSM-style middle road:
//!
//! * **Event log** — every ingested event, in arrival order.
//! * **Base tier** — the log's compacted prefix. It *is* a
//!   [`TemporalAdjacency`], made by the same builder as a frozen graph,
//!   plus one vector recording which event produced each entry.
//! * **Delta tier** — per node, the log indexes of its events past the
//!   compacted prefix, in arrival order. A self-loop is listed twice,
//!   as the CSR lists it twice.
//! * **Compaction** — when the delta tier holds `threshold` events,
//!   [`StreamingAdjacency::append`] rebuilds the base over the whole
//!   log. The trigger depends only on the event sequence, so replays
//!   compact at identical points.
//!
//! # Read-through views and byte-identity
//!
//! [`StreamingAdjacency::view_prefix`] borrows a [`StreamingView`]: a
//! read snapshot exposing exactly the first `visible` events, however
//! they are currently split between tiers. Because appends are
//! time-monotone and both tiers preserve arrival order, a node's
//! visible history is `base-row prefix ++ delta-row prefix` — the same
//! entries in the same order as a frozen [`TemporalAdjacency`] built
//! from that event prefix. [`TemporalView`] is implemented over that
//! composition with the same bisection step count, so sampling through
//! a view is **byte-identical** — samples and [`crate::SampleCost`]
//! both — to sampling the frozen graph, before and after compaction.
//!
//! # Cost accounting
//!
//! Mutations return [`IngestCost`] receipts (ops, sequential bytes,
//! irregular bytes) that the serving layer prices through the
//! `Executor` as Host-lane work, so ingestion and query sampling
//! contend on the same virtual clock.

use crate::error::GraphError;
use crate::sampler::{bisect_steps, TemporalView};
use crate::{EventStream, NodeId, TemporalAdjacency, TemporalEvent};

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

/// Appendable temporal adjacency: an event log over a compacted
/// [`TemporalAdjacency`] (see module docs).
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
    threshold: usize,
    /// Every ingested event, in arrival order.
    events: Vec<TemporalEvent>,
    /// The base is the CSR of `events[..compacted]`, and `entry_events`
    /// holds the log index of each base entry.
    compacted: usize,
    base: TemporalAdjacency,
    entry_events: Vec<usize>,
    /// Per node, the log indexes of its events past `compacted`.
    delta_rows: Vec<Vec<usize>>,
    compactions: usize,
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
        let (base, entry_events) = TemporalAdjacency::from_events(n_nodes, &[]);
        StreamingAdjacency {
            threshold,
            events: Vec::new(),
            compacted: 0,
            base,
            entry_events,
            delta_rows: vec![Vec::new(); n_nodes],
            compactions: 0,
        }
    }

    /// Builds a store whose base tier holds the whole `stream` (already
    /// compacted) and whose delta log is empty — the usual starting
    /// point for serving: a historical prefix plus live ingestion.
    pub fn from_stream(stream: &EventStream, threshold: usize) -> Self {
        let mut s = StreamingAdjacency::new(stream.n_nodes(), threshold);
        s.events = stream.events().to_vec();
        s.rebuild_base();
        s
    }

    /// Number of nodes indexed (fixed at construction).
    pub fn n_nodes(&self) -> usize {
        self.delta_rows.len()
    }

    /// Events currently in the delta log.
    pub fn delta_events(&self) -> usize {
        self.events.len() - self.compacted
    }

    /// Total events ingested (base + delta).
    pub fn total_events(&self) -> usize {
        self.events.len()
    }

    /// Compactions performed so far.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// Time of the most recently ingested event; `None` when empty.
    /// Appends must be monotone in this watermark.
    pub fn watermark(&self) -> Option<f64> {
        self.events.last().map(|e| e.time)
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
        let n_nodes = self.n_nodes();
        for node in [event.src, event.dst] {
            if node >= n_nodes {
                return Err(GraphError::NodeOutOfBounds { node, n_nodes });
            }
        }
        let event_index = self.events.len();
        if !event.time.is_finite() {
            return Err(GraphError::InvalidTimestamp { index: event_index });
        }
        if let Some(w) = self.watermark() {
            if event.time < w {
                return Err(GraphError::UnsortedEvents { index: event_index });
            }
        }

        self.delta_rows[event.src].push(event_index);
        self.delta_rows[event.dst].push(event_index);
        self.events.push(event);

        // Priced as two CSR entries written at slab tails (sequential)
        // and two per-node row pushes, each chasing one scattered cache
        // line.
        let cost = IngestCost {
            ops: 8,
            seq_bytes: 2 * ENTRY_BYTES,
            irregular_bytes: 128,
        };
        let compaction = (self.delta_events() >= self.threshold).then(|| self.compact());
        Ok(AppendReceipt {
            event_index,
            cost,
            compaction,
        })
    }

    /// Folds the delta log into the base by rebuilding it over the
    /// whole log, so each row is its base prefix followed by its delta
    /// entries in arrival order. Views are unaffected: a
    /// [`StreamingView`] filters both tiers by event index, so the same
    /// prefix reads the same entries before and after. Returns the
    /// Host-lane cost; no-op (zero cost) when the log is empty.
    pub fn compact(&mut self) -> IngestCost {
        let delta_entries = 2 * self.delta_events() as u64;
        if delta_entries == 0 {
            return IngestCost::default();
        }
        let merged_entries = 2 * self.events.len() as u64;
        self.rebuild_base();
        self.compactions += 1;
        IngestCost {
            ops: merged_entries + self.n_nodes() as u64,
            // Priced as a merge: every merged entry is read once and
            // written once, and each delta entry is gathered through
            // its row index — one scattered line each.
            seq_bytes: 2 * merged_entries * ENTRY_BYTES,
            irregular_bytes: delta_entries * 64,
        }
    }

    /// Indexes the whole log in the base and empties the delta tier.
    fn rebuild_base(&mut self) {
        (self.base, self.entry_events) =
            TemporalAdjacency::from_events(self.n_nodes(), &self.events);
        self.compacted = self.events.len();
        for row in &mut self.delta_rows {
            row.clear();
        }
    }

    /// Borrows a read snapshot over every ingested event. Equivalent to
    /// `view_prefix(total_events())`.
    pub fn view(&self) -> StreamingView<'_> {
        self.view_prefix(self.total_events())
    }

    /// Borrows a read snapshot exposing only the first `visible`
    /// events, wherever they currently live (base or delta). Sampling
    /// through the snapshot is byte-identical to sampling a frozen
    /// [`TemporalAdjacency`] built from that event prefix.
    ///
    /// The snapshot is a plain borrow — nothing is cloned.
    ///
    /// # Panics
    ///
    /// Panics when `visible` exceeds the events ingested so far.
    pub fn view_prefix(&self, visible: usize) -> StreamingView<'_> {
        assert!(
            visible <= self.total_events(),
            "view of {visible} events but only {} ingested",
            self.total_events()
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
    /// producing event index precedes the visibility horizon. Both tiers
    /// list a row's event indexes in increasing order, so each prefix
    /// length is one bisection.
    fn visible_split(&self, node: NodeId) -> (usize, usize) {
        let s = self.store;
        let base = s.entry_events[s.base.span(node)].partition_point(|&e| e < self.visible);
        let delta = s.delta_rows[node].partition_point(|&e| e < self.visible);
        (base, delta)
    }
}

impl TemporalView for StreamingView<'_> {
    fn n_nodes(&self) -> usize {
        self.store.n_nodes()
    }

    fn degree(&self, node: NodeId) -> usize {
        let (base, delta) = self.visible_split(node);
        base + delta
    }

    fn entry(&self, node: NodeId, i: usize) -> (NodeId, f64, usize) {
        let s = self.store;
        let (base, _) = self.visible_split(node);
        if i < base {
            s.base.entry(node, i)
        } else {
            // A delta entry is its logged event, seen from `node`: the
            // neighbor is the other endpoint (`node` itself for a
            // self-loop).
            let e = &s.events[s.delta_rows[node][i - base]];
            let neighbor = if e.src == node { e.dst } else { e.src };
            (neighbor, e.time, e.feature_idx)
        }
    }

    fn count_before(&self, node: NodeId, t: f64) -> (usize, u64) {
        let s = self.store;
        let (base, delta) = self.visible_split(node);
        // The visible row is `base prefix ++ delta prefix`, globally
        // time-sorted (appends are watermark-monotone), so the strict
        // lower bound splits across the two segments. The step count is
        // a function of the *visible row length* alone — the same
        // bisection a frozen CSR of this prefix would pay.
        let (_, times, _) = s.base.row(node);
        let in_base = times[..base].partition_point(|&x| x < t);
        let in_delta = s.delta_rows[node][..delta].partition_point(|&e| s.events[e].time < t);
        (in_base + in_delta, bisect_steps(base + delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NeighborSampler, SampleStrategy};

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

    /// `(ops, seq_bytes, irregular_bytes)` of each append, followed by
    /// that of the compaction it triggered, if any.
    fn priced(s: &mut StreamingAdjacency, events: &[TemporalEvent]) -> Vec<(u64, u64, u64)> {
        let mut costs = Vec::new();
        for &e in events {
            let r = s.append(e).unwrap();
            for c in std::iter::once(r.cost).chain(r.compaction) {
                costs.push((c.ops, c.seq_bytes, c.irregular_bytes));
            }
        }
        costs
    }

    #[test]
    fn every_append_and_compaction_is_priced_exactly() {
        // An append is 8 ops, two 32 B entries and two scattered lines.
        // A compaction is (merged entries + 4 nodes) ops, each merged
        // entry read and written once, one line per delta entry.
        const A: (u64, u64, u64) = (8, 64, 128);
        let all = events();
        let mut s = StreamingAdjacency::new(4, 3);
        let pinned = [A, A, A, (10, 384, 384), A, A, A, (16, 768, 384)];
        assert_eq!(priced(&mut s, &all), pinned);
        assert_eq!(s.compact(), IngestCost::default());
        // A two-event prefix is the base; the first compaction merges
        // its 4 entries with 6 delta entries.
        let prefix = EventStream::new(4, all[..2].to_vec()).unwrap();
        let mut s = StreamingAdjacency::from_stream(&prefix, 3);
        assert_eq!(priced(&mut s, &all[2..]), [A, A, A, (14, 640, 384), A]);
        let last = s.compact();
        let last = (last.ops, last.seq_bytes, last.irregular_bytes);
        assert_eq!(last, (16, 768, 128));
        assert_eq!(s.compactions(), 2);
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
