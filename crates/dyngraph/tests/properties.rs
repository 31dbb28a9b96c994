//! Property-style tests over the dynamic-graph substrate invariants,
//! driven by a seeded sweep so the suite builds offline.

use dgnn_graph::{
    snapshots_from_events, EventStream, Graph, NeighborSampler, SampleCost, SampleStrategy,
    TBatcher, TemporalAdjacency, TemporalEvent,
};
use dgnn_tensor::TensorRng;
use std::collections::HashSet;

/// Deterministic synthetic event stream with `n` nodes and `m` events.
fn gen_stream(n: usize, m: usize, seed: u64) -> EventStream {
    let mut rng = TensorRng::seed(seed);
    let mut t = 0.0f64;
    let events = (0..m)
        .map(|i| {
            t += rng.index(100) as f64 / 10.0;
            let src = rng.index(n);
            let mut dst = rng.index(n);
            if dst == src {
                dst = (dst + 1) % n;
            }
            TemporalEvent {
                src,
                dst,
                time: t,
                feature_idx: i,
            }
        })
        .collect();
    EventStream::new(n, events).expect("generated stream is valid")
}

/// Sweep of streams with varied sizes per seed.
fn stream_cases(max_nodes: usize, max_events: usize, n_cases: usize) -> Vec<EventStream> {
    let mut rng = TensorRng::seed(0x57e3);
    (0..n_cases)
        .map(|_| {
            let n = rng.index(max_nodes - 1) + 2;
            let m = rng.index(max_events) + 1;
            gen_stream(n, m, rng.next_u64())
        })
        .collect()
}

/// Deterministic random edge list over `n` nodes.
fn gen_edges(n: usize, max_edges: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = TensorRng::seed(seed);
    let count = rng.index(max_edges + 1);
    (0..count).map(|_| (rng.index(n), rng.index(n))).collect()
}

#[test]
fn csr_round_trips_edge_multiset() {
    let mut rng = TensorRng::seed(0xc5a);
    for _ in 0..24 {
        let n = rng.index(18) + 2;
        let edges = gen_edges(n, 60, rng.next_u64());
        let g = Graph::from_edges(n, &edges).unwrap();
        assert_eq!(g.n_edges(), edges.len());
        let mut got: Vec<(usize, usize)> = g.iter_edges().map(|(s, d, _)| (s, d)).collect();
        let mut want = edges;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

#[test]
fn degrees_sum_to_edge_count() {
    let mut rng = TensorRng::seed(0xde6);
    for _ in 0..24 {
        let n = rng.index(18) + 2;
        let edges = gen_edges(n, 60, rng.next_u64());
        let g = Graph::from_edges(n, &edges).unwrap();
        let total: usize = (0..n).map(|v| g.out_degree(v)).sum();
        assert_eq!(total, g.n_edges());
    }
}

#[test]
fn sampled_neighbors_always_precede_query() {
    let mut rng = TensorRng::seed(0x5a3);
    for stream in stream_cases(12, 80, 16) {
        let adj = TemporalAdjacency::from_stream(&stream);
        let t_query = stream.end_time() / 2.0 + 1.0;
        for strategy in [SampleStrategy::MostRecent, SampleStrategy::Uniform] {
            let sampler = NeighborSampler::new(strategy, rng.next_u64());
            for node in 0..stream.n_nodes() {
                let (picked, _) = sampler.sample(&adj, node, t_query, 5);
                for p in picked {
                    assert!(
                        p.time < t_query,
                        "sample at {} not before {}",
                        p.time,
                        t_query
                    );
                }
            }
        }
    }
}

#[test]
fn bisection_count_matches_brute_force() {
    for stream in stream_cases(10, 60, 16) {
        let adj = TemporalAdjacency::from_stream(&stream);
        let t_query = stream.end_time() * 0.7;
        for node in 0..stream.n_nodes() {
            let brute = stream
                .events()
                .iter()
                .filter(|e| (e.src == node || e.dst == node) && e.time < t_query)
                .count();
            assert_eq!(adj.count_before(node, t_query).0, brute);
        }
    }
}

#[test]
fn khop_batch_equals_per_root_samples_across_streams_and_strategies() {
    let mut rng = TensorRng::seed(0xba7c);
    for stream in stream_cases(14, 120, 8) {
        let adj = TemporalAdjacency::from_stream(&stream);
        let t_query = stream.end_time() * 0.8 + 1.0;
        let roots: Vec<(usize, f64)> = (0..stream.n_nodes().min(24))
            .map(|v| (v, t_query))
            .collect();
        for strategy in [SampleStrategy::MostRecent, SampleStrategy::Uniform] {
            let sampler = NeighborSampler::new(strategy, rng.next_u64());
            let (batch, batch_cost) = sampler.sample_khop_batch(&adj, &roots, &[4, 3]);
            // Each root's own sample, concatenated layer by layer.
            let mut layers = vec![Vec::new(); 3];
            let mut cost = SampleCost::default();
            for root in &roots {
                let (root_layers, c) =
                    sampler.sample_khop_batch(&adj, std::slice::from_ref(root), &[4, 3]);
                cost.add(c);
                for (layer, mut part) in layers.iter_mut().zip(root_layers) {
                    layer.append(&mut part);
                }
            }
            assert_eq!(batch, layers);
            assert_eq!(batch_cost, cost);
        }
    }
}

#[test]
fn degree_zero_nodes_cost_nothing() {
    for stream in stream_cases(16, 40, 12) {
        let adj = TemporalAdjacency::from_stream(&stream);
        let sampler = NeighborSampler::new(SampleStrategy::Uniform, 5);
        for node in 0..stream.n_nodes() {
            if adj.degree(node) > 0 {
                continue;
            }
            let (picked, cost) = sampler.sample(&adj, node, stream.end_time() + 1.0, 6);
            assert!(picked.is_empty());
            assert_eq!(cost.ops, 0, "no history, nothing to bisect");
            assert_eq!(cost.irregular_bytes, 0);
        }
    }
}

#[test]
fn tbatch_partitions_without_node_repeats() {
    for stream in stream_cases(10, 80, 16) {
        let (batches, _) = TBatcher::new().build_stream(&stream);
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, stream.len());
        for b in &batches {
            let mut seen = HashSet::new();
            for &i in &b.event_indices {
                let e = stream.events()[i];
                assert!(seen.insert(e.src));
                assert!(seen.insert(e.dst));
            }
        }
    }
}

#[test]
fn tbatch_count_bounded_by_max_node_frequency() {
    for stream in stream_cases(8, 60, 16) {
        let (batches, _) = TBatcher::new().build_stream(&stream);
        let mut freq = vec![0usize; stream.n_nodes()];
        for e in stream.events() {
            freq[e.src] += 1;
            freq[e.dst] += 1;
        }
        let max_freq = freq.into_iter().max().unwrap_or(0);
        // The busiest node lower-bounds batches; batching never exceeds
        // the event count.
        assert!(batches.len() >= max_freq.min(stream.len()));
        assert!(batches.len() <= stream.len());
    }
}

#[test]
fn snapshots_cover_all_events_when_disjoint() {
    for stream in stream_cases(10, 60, 16) {
        let window = (stream.end_time() / 4.0).max(0.5);
        let seq = snapshots_from_events(&stream, window, window).unwrap();
        let total: usize = seq.iter().map(|s| s.graph.n_edges()).sum();
        assert_eq!(total, stream.len());
    }
}
