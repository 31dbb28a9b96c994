//! Temporal neighbor sampling — the paper's workload-imbalance culprit.
//!
//! TGAT (and TGN) sample a fixed number of *past* neighbors for every
//! target node, honoring event time: only interactions strictly earlier
//! than the query time are eligible. The reference implementations keep a
//! per-node, time-sorted adjacency and use **bisection** plus index
//! sorting, which produces the irregular CPU memory traffic Section 4.2
//! blames for starving the GPU. Sampling here returns both the sample and
//! a [`SampleCost`] so the executor can charge that CPU time faithfully.
//!
//! # Engine layout
//!
//! [`TemporalAdjacency`] is a flat CSR index: one `offsets` array plus
//! struct-of-arrays `neighbors`/`times`/`feature_idx` slabs, so a node's
//! whole history is one contiguous slice and bisection/gathers walk
//! contiguous memory instead of chasing `Vec<Vec<…>>` pointers.
//!
//! Sampling itself is written against the [`TemporalView`] trait — the
//! minimal read interface (degree, entry gather, strict-lower-bound
//! bisection) — so the same code serves the frozen CSR and the two-tier
//! streaming store (`StreamingAdjacency`'s borrowed snapshot,
//! [`crate::StreamingView`]) with byte-identical results and costs.
//!
//! # Pure-function sampling
//!
//! Every sampling call derives its RNG stream from
//! `(sampler seed, node, query time)` rather than consuming a shared
//! sequential stream. A call is therefore a pure function of its
//! arguments: a batch ([`NeighborSampler::sample_batch`],
//! [`NeighborSampler::sample_khop_batch`]) equals its roots' own samples
//! concatenated in root order, and a streaming view samples exactly what
//! the frozen CSR of the same event prefix does.

use std::ops::Range;

use dgnn_tensor::TensorRng;

use crate::{EventStream, NodeId, TemporalEvent};

/// One sampled temporal neighbor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledNeighbor {
    /// Neighbor node id.
    pub node: NodeId,
    /// Time of the interaction that created the edge.
    pub time: f64,
    /// Edge-feature row of the interaction that produced this neighbor;
    /// `None` for root-layer entries, which were not reached through any
    /// interaction and must never be used to index the edge-feature
    /// table.
    pub feature_idx: Option<usize>,
}

/// Work performed by a sampling call, for host-cost pricing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SampleCost {
    /// Comparison/index operations (bisection steps, RNG draws, sorts).
    pub ops: u64,
    /// Bytes touched with irregular access (adjacency rows, gathers).
    pub irregular_bytes: u64,
}

impl SampleCost {
    /// Accumulates another cost.
    pub fn add(&mut self, other: SampleCost) {
        self.ops += other.ops;
        self.irregular_bytes += other.irregular_bytes;
    }
}

/// How neighbors are drawn from the eligible past.
///
/// # Ordering contract
///
/// * [`SampleStrategy::MostRecent`] returns the window **most-recent
///   first** (descending time), matching the reference TGAT
///   `find_before` + tail-slice convention: index 0 is the latest
///   eligible interaction.
/// * [`SampleStrategy::Uniform`] returns draws in **ascending adjacency
///   order** (the reference sorts sampled indices so the feature gather
///   walks forward — the "node index sorting" the paper mentions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleStrategy {
    /// The `k` most recent interactions before the query time,
    /// most-recent first.
    MostRecent,
    /// `k` uniform draws (with replacement) from the eligible past —
    /// TGAT's `--uniform` flag.
    Uniform,
}

/// Per-node, time-sorted adjacency in CSR (compressed sparse row) form.
///
/// Each undirected occurrence is indexed on both endpoints, matching the
/// reference TGAT preprocessing. Node `v`'s interactions occupy the
/// contiguous range `offsets[v]..offsets[v + 1]` of the three
/// struct-of-arrays slabs, sorted by time.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalAdjacency {
    /// `n_nodes + 1` row boundaries into the slabs.
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
    times: Vec<f64>,
    feature_idx: Vec<usize>,
}

impl TemporalAdjacency {
    /// Builds the CSR index of a stream (time-sorted, so every row is).
    pub fn from_stream(stream: &EventStream) -> Self {
        TemporalAdjacency::from_events(stream.n_nodes(), stream.events()).0
    }

    /// The one CSR builder, frozen and streaming: degree count + prefix
    /// sum, then a fill in event order (a self-loop fills its row twice).
    /// Also returns each entry's index into `events`.
    pub(crate) fn from_events(n_nodes: usize, events: &[TemporalEvent]) -> (Self, Vec<usize>) {
        let mut degree = vec![0usize; n_nodes];
        for e in events {
            degree[e.src] += 1;
            degree[e.dst] += 1;
        }
        let mut offsets = Vec::with_capacity(n_nodes + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut neighbors = vec![0 as NodeId; acc];
        let mut times = vec![0.0f64; acc];
        let mut feature_idx = vec![0usize; acc];
        let mut event_idx = vec![0usize; acc];
        let mut cursor = offsets[..n_nodes].to_vec();
        for (i, e) in events.iter().enumerate() {
            for (from, to) in [(e.src, e.dst), (e.dst, e.src)] {
                let at = cursor[from];
                neighbors[at] = to;
                times[at] = e.time;
                feature_idx[at] = e.feature_idx;
                event_idx[at] = i;
                cursor[from] += 1;
            }
        }
        let adj = TemporalAdjacency {
            offsets,
            neighbors,
            times,
            feature_idx,
        };
        (adj, event_idx)
    }

    /// Number of nodes indexed.
    pub fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total degree (interactions) of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.offsets[node + 1] - self.offsets[node]
    }

    /// Slab range of `node`'s row.
    pub(crate) fn span(&self, node: NodeId) -> Range<usize> {
        self.offsets[node]..self.offsets[node + 1]
    }

    /// The contiguous CSR row of `node`: `(neighbors, times, feature
    /// rows)`, time-sorted.
    pub fn row(&self, node: NodeId) -> (&[NodeId], &[f64], &[usize]) {
        let r = self.span(node);
        (
            &self.neighbors[r.clone()],
            &self.times[r.clone()],
            &self.feature_idx[r],
        )
    }

    /// Bisection: number of interactions of `node` strictly before `t`,
    /// together with the number of comparison steps taken. A node with
    /// no history costs nothing — there is no array to bisect.
    pub fn count_before(&self, node: NodeId, t: f64) -> (usize, u64) {
        let (_, times, _) = self.row(node);
        (times.partition_point(|&x| x < t), bisect_steps(times.len()))
    }
}

/// Comparison steps every [`TemporalView`] prices a bisection over a
/// row of `len` entries at: `⌈log₂ len⌉ + 1`, none for an empty row.
#[expect(clippy::cast_possible_truncation, reason = "log2 of a length fits u64")]
pub(crate) fn bisect_steps(len: usize) -> u64 {
    if len == 0 {
        0
    } else {
        (len as f64).log2().ceil() as u64 + 1
    }
}

/// The read interface sampling needs from a temporal adjacency: a row
/// length, a random-access entry gather, and a strict-lower-bound
/// bisection with its step count.
///
/// Implementors present each node's history as one logical time-sorted
/// row `0..degree(node)`, whatever the physical layout — a contiguous
/// frozen CSR row ([`TemporalAdjacency`]) or a base-prefix ++ delta-log
/// composition ([`crate::StreamingView`]). Two views exposing the same
/// logical rows produce byte-identical samples *and* byte-identical
/// [`SampleCost`]s, because every cost term is derived from logical row
/// lengths and counts, never from the physical layout.
pub trait TemporalView {
    /// Number of nodes indexed.
    fn n_nodes(&self) -> usize;

    /// Logical row length (total interactions) of `node`.
    fn degree(&self, node: NodeId) -> usize;

    /// Entry `i` of `node`'s time-sorted row:
    /// `(neighbor, time, edge-feature row)`.
    fn entry(&self, node: NodeId, i: usize) -> (NodeId, f64, usize);

    /// Number of interactions of `node` strictly before `t`, plus the
    /// bisection comparison steps taken (zero for an empty row).
    fn count_before(&self, node: NodeId, t: f64) -> (usize, u64);
}

impl TemporalView for TemporalAdjacency {
    fn n_nodes(&self) -> usize {
        TemporalAdjacency::n_nodes(self)
    }

    fn degree(&self, node: NodeId) -> usize {
        TemporalAdjacency::degree(self, node)
    }

    fn entry(&self, node: NodeId, i: usize) -> (NodeId, f64, usize) {
        let (neighbors, times, feature_idx) = self.row(node);
        (neighbors[i], times[i], feature_idx[i])
    }

    fn count_before(&self, node: NodeId, t: f64) -> (usize, u64) {
        TemporalAdjacency::count_before(self, node, t)
    }
}

/// Draws temporal neighbor samples and accounts their CPU cost.
///
/// All methods take `&self`: each call derives a private RNG stream from
/// `(seed, node, query time)`, so sampling is a pure function of its
/// arguments (see module docs).
#[derive(Debug, Clone)]
pub struct NeighborSampler {
    seed: u64,
    strategy: SampleStrategy,
}

impl NeighborSampler {
    /// Creates a sampler with a fixed seed.
    pub fn new(strategy: SampleStrategy, seed: u64) -> Self {
        NeighborSampler { seed, strategy }
    }

    /// Derives the per-call RNG stream for `(node, t)`: the seed and both
    /// call coordinates are mixed murmur3-style into the 64-bit key that
    /// seeds an independent xoshiro stream.
    fn stream_for(&self, node: NodeId, t: f64) -> TensorRng {
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for w in [node as u64, t.to_bits()] {
            h ^= w.wrapping_mul(0xff51_afd7_ed55_8ccd).rotate_left(31);
            h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        }
        TensorRng::seed(h)
    }

    /// Samples up to `k` neighbors of `node` that interacted strictly
    /// before `t`, through any [`TemporalView`] (frozen CSR or streaming
    /// snapshot). Returns fewer than `k` (possibly zero) when the
    /// eligible past is smaller — only for [`SampleStrategy::MostRecent`];
    /// uniform sampling draws with replacement and always returns `k`
    /// unless the past is empty. See [`SampleStrategy`] for the ordering
    /// contract.
    pub fn sample<V: TemporalView + ?Sized>(
        &self,
        adj: &V,
        node: NodeId,
        t: f64,
        k: usize,
    ) -> (Vec<SampledNeighbor>, SampleCost) {
        let (eligible, bisect_steps) = adj.count_before(node, t);
        let mut cost = SampleCost {
            ops: bisect_steps,
            // The bisection touches log(d) scattered cache lines of 64 B.
            irregular_bytes: bisect_steps * 64,
        };
        if eligible == 0 {
            return (Vec::new(), cost);
        }
        let pick = |i: usize| {
            let (node, time, feature_idx) = adj.entry(node, i);
            SampledNeighbor {
                node,
                time,
                feature_idx: Some(feature_idx),
            }
        };
        let picked: Vec<SampledNeighbor> = match self.strategy {
            SampleStrategy::MostRecent => {
                let take = k.min(eligible);
                // Most-recent first: walk the tail of the window backward.
                (eligible - take..eligible).rev().map(pick).collect()
            }
            SampleStrategy::Uniform => {
                let mut rng = self.stream_for(node, t);
                let mut idx: Vec<usize> = (0..k).map(|_| rng.index(eligible)).collect();
                // Reference implementation sorts sampled indices so the
                // gather walks forward — the "node index sorting" the
                // paper mentions.
                idx.sort_unstable();
                #[expect(clippy::cast_possible_truncation, reason = "k·log₂k op count fits u64")]
                {
                    cost.ops += (k as f64 * (k.max(2) as f64).log2()) as u64;
                }
                idx.into_iter().map(pick).collect()
            }
        };
        // Each picked neighbor gathers one adjacency record (~16 B) plus
        // one cache line of feature pointer indirection.
        cost.ops += picked.len() as u64;
        cost.irregular_bytes += picked.len() as u64 * 80;
        (picked, cost)
    }

    /// Single-hop batch sampling: element `i` of the result is exactly
    /// what `self.sample(adj, roots[i].0, roots[i].1, k)` returns, and the
    /// cost is the sum over roots.
    pub fn sample_batch<V: TemporalView + ?Sized>(
        &self,
        adj: &V,
        roots: &[(NodeId, f64)],
        k: usize,
    ) -> (Vec<Vec<SampledNeighbor>>, SampleCost) {
        let mut cost = SampleCost::default();
        let samples = roots
            .iter()
            .map(|&(node, t)| {
                let (picked, c) = self.sample(adj, node, t, k);
                cost.add(c);
                picked
            })
            .collect();
        (samples, cost)
    }

    /// Recursive k-hop sampling: layer `l` samples `ks[l]` neighbors of
    /// every node sampled at layer `l-1`. Returns the flattened frontier
    /// per layer (layer 0 = the roots, with `feature_idx: None`) and the
    /// accumulated cost. Each layer lists the roots' subtrees in root
    /// order, so the result is every root's own k-hop sample
    /// concatenated layer by layer, with the costs summed.
    pub fn sample_khop_batch<V: TemporalView + ?Sized>(
        &self,
        adj: &V,
        roots: &[(NodeId, f64)],
        ks: &[usize],
    ) -> (Vec<Vec<SampledNeighbor>>, SampleCost) {
        let mut cost = SampleCost::default();
        let mut layers: Vec<Vec<SampledNeighbor>> = Vec::with_capacity(ks.len() + 1);
        let mut frontier: Vec<SampledNeighbor> = roots
            .iter()
            .map(|&(node, time)| SampledNeighbor {
                node,
                time,
                feature_idx: None,
            })
            .collect();
        for &k in ks {
            let mut next = Vec::with_capacity(frontier.len().saturating_mul(k));
            for s in &frontier {
                let (picked, c) = self.sample(adj, s.node, s.time, k);
                cost.add(c);
                next.extend(picked);
            }
            layers.push(std::mem::replace(&mut frontier, next));
        }
        layers.push(frontier);
        (layers, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> EventStream {
        let events = vec![
            TemporalEvent {
                src: 0,
                dst: 1,
                time: 1.0,
                feature_idx: 0,
            },
            TemporalEvent {
                src: 0,
                dst: 2,
                time: 2.0,
                feature_idx: 1,
            },
            TemporalEvent {
                src: 1,
                dst: 2,
                time: 3.0,
                feature_idx: 2,
            },
            TemporalEvent {
                src: 0,
                dst: 3,
                time: 4.0,
                feature_idx: 3,
            },
        ];
        EventStream::new(4, events).unwrap()
    }

    #[test]
    fn adjacency_indexes_both_endpoints() {
        let adj = TemporalAdjacency::from_stream(&stream());
        assert_eq!(adj.degree(0), 3);
        assert_eq!(adj.degree(2), 2);
        assert_eq!(adj.degree(3), 1);
    }

    #[test]
    fn csr_rows_are_time_sorted_and_consistent() {
        let adj = TemporalAdjacency::from_stream(&stream());
        for node in 0..adj.n_nodes() {
            let (neighbors, times, feats) = adj.row(node);
            assert_eq!(neighbors.len(), adj.degree(node));
            assert_eq!(times.len(), adj.degree(node));
            assert_eq!(feats.len(), adj.degree(node));
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
        }
        // Node 0 interacted with 1, 2, 3 at times 1, 2, 4.
        let (neighbors, times, feats) = adj.row(0);
        assert_eq!(neighbors, &[1, 2, 3]);
        assert_eq!(times, &[1.0, 2.0, 4.0]);
        assert_eq!(feats, &[0, 1, 3]);
    }

    #[test]
    fn count_before_respects_strictness() {
        let adj = TemporalAdjacency::from_stream(&stream());
        assert_eq!(adj.count_before(0, 2.0).0, 1); // only t=1.0
        assert_eq!(adj.count_before(0, 4.5).0, 3);
        assert_eq!(adj.count_before(3, 4.0).0, 0);
    }

    #[test]
    fn most_recent_returns_latest_first_eligible() {
        let adj = TemporalAdjacency::from_stream(&stream());
        let s = NeighborSampler::new(SampleStrategy::MostRecent, 1);
        let (picked, cost) = s.sample(&adj, 0, 4.5, 2);
        assert_eq!(picked.len(), 2);
        // The two most recent, most-recent first: times 4.0 then 2.0.
        assert_eq!(picked[0].time, 4.0);
        assert_eq!(picked[1].time, 2.0);
        assert_eq!(picked[0].feature_idx, Some(3));
        assert!(cost.ops > 0 && cost.irregular_bytes > 0);
    }

    #[test]
    fn all_samples_precede_query_time() {
        let adj = TemporalAdjacency::from_stream(&stream());
        for strategy in [SampleStrategy::MostRecent, SampleStrategy::Uniform] {
            let s = NeighborSampler::new(strategy, 9);
            let (picked, _) = s.sample(&adj, 0, 3.0, 10);
            assert!(!picked.is_empty());
            assert!(picked.iter().all(|n| n.time < 3.0));
        }
    }

    #[test]
    fn empty_past_returns_nothing() {
        let adj = TemporalAdjacency::from_stream(&stream());
        let s = NeighborSampler::new(SampleStrategy::Uniform, 2);
        // Node 2 has history (degree 2) but none of it precedes t=2.0:
        // the bisection over its non-empty row still costs.
        let (picked, cost) = s.sample(&adj, 2, 2.0, 5);
        assert!(picked.is_empty());
        assert!(cost.ops > 0, "bisection over non-empty history costs");
    }

    #[test]
    fn degree_zero_node_costs_nothing() {
        // Node 2 never appears in any event: no adjacency row exists, so
        // there is nothing to bisect and nothing to charge.
        let lone = EventStream::new(
            3,
            vec![TemporalEvent {
                src: 0,
                dst: 1,
                time: 1.0,
                feature_idx: 0,
            }],
        )
        .unwrap();
        let adj = TemporalAdjacency::from_stream(&lone);
        assert_eq!(adj.degree(2), 0);
        assert_eq!(adj.count_before(2, 5.0), (0, 0));
        let s = NeighborSampler::new(SampleStrategy::MostRecent, 2);
        let (picked, cost) = s.sample(&adj, 2, 5.0, 4);
        assert!(picked.is_empty());
        assert_eq!(cost, SampleCost::default());
    }

    #[test]
    fn uniform_draws_with_replacement_fill_k() {
        let adj = TemporalAdjacency::from_stream(&stream());
        let s = NeighborSampler::new(SampleStrategy::Uniform, 3);
        let (picked, _) = s.sample(&adj, 0, 4.5, 8);
        assert_eq!(picked.len(), 8);
        assert!(picked.iter().all(|n| n.feature_idx.is_some()));
    }

    #[test]
    fn khop_layers_expand() {
        let adj = TemporalAdjacency::from_stream(&stream());
        let s = NeighborSampler::new(SampleStrategy::MostRecent, 4);
        let (layers, cost) = s.sample_khop_batch(&adj, &[(0, 4.5)], &[2, 2]);
        assert_eq!(layers.len(), 3);
        assert_eq!(layers[0].len(), 1);
        assert_eq!(layers[1].len(), 2);
        assert!(layers[2].len() <= 4);
        assert!(cost.irregular_bytes > 0);
    }

    #[test]
    fn root_layer_has_no_feature_rows_but_hops_do() {
        let adj = TemporalAdjacency::from_stream(&stream());
        let s = NeighborSampler::new(SampleStrategy::Uniform, 4);
        let (layers, _) = s.sample_khop_batch(&adj, &[(0, 4.5), (1, 4.5)], &[3]);
        assert!(layers[0].iter().all(|n| n.feature_idx.is_none()));
        assert!(layers[1].iter().all(|n| n.feature_idx.is_some()));
    }

    #[test]
    fn sampler_is_deterministic_per_seed() {
        let adj = TemporalAdjacency::from_stream(&stream());
        let run = |seed| {
            let s = NeighborSampler::new(SampleStrategy::Uniform, seed);
            s.sample(&adj, 0, 4.5, 6).0
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn batch_matches_per_root_sample_loop() {
        let adj = TemporalAdjacency::from_stream(&stream());
        let roots: Vec<(NodeId, f64)> =
            vec![(0, 4.5), (1, 4.5), (2, 4.5), (3, 4.5), (0, 2.5), (1, 3.5)];
        for strategy in [SampleStrategy::MostRecent, SampleStrategy::Uniform] {
            let s = NeighborSampler::new(strategy, 11);
            let mut per_root = Vec::new();
            let mut per_root_cost = SampleCost::default();
            for &(node, t) in &roots {
                let (picked, c) = s.sample(&adj, node, t, 3);
                per_root.push(picked);
                per_root_cost.add(c);
            }
            let (b, bc) = s.sample_batch(&adj, &roots, 3);
            assert_eq!(b, per_root, "{strategy:?}");
            assert_eq!(bc, per_root_cost, "{strategy:?}");
        }
    }
}
