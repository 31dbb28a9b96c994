//! Batch contract of the CSR sampling engine: every sampling call draws
//! from an RNG stream derived from `(seed, node, time)`, so a batch
//! equals its roots' own samples. A k-hop batch is each root's own
//! `sample_khop_batch` output concatenated layer by layer, and
//! `sample_batch` is the per-root `sample` loop, in samples and in
//! summed `SampleCost` alike, across both strategies, on heavy-tailed
//! (power-law) interaction streams like the paper's datasets.

use dgnn_suite::datasets::PowerLawSampler;
use dgnn_suite::graph::sampler::{SampleCost, SampledNeighbor};
use dgnn_suite::graph::{EventStream, NeighborSampler, SampleStrategy, TemporalAdjacency};
use dgnn_suite::tensor::TensorRng;

/// Synthetic stream whose destination popularity is Zipf-distributed, so
/// adjacency rows span isolated nodes to heavy hubs.
fn power_law_stream(n_nodes: usize, n_events: usize, alpha: f64, seed: u64) -> EventStream {
    let mut rng = TensorRng::seed(seed);
    let zipf = PowerLawSampler::new(n_nodes, alpha);
    let mut t = 0.0f64;
    let events = (0..n_events)
        .map(|i| {
            t += rng.unit_f64();
            let src = rng.index(n_nodes);
            let mut dst = zipf.sample(&mut rng);
            if dst == src {
                dst = (dst + 1) % n_nodes;
            }
            dgnn_suite::graph::TemporalEvent {
                src,
                dst,
                time: t,
                feature_idx: i,
            }
        })
        .collect();
    EventStream::new(n_nodes, events).expect("generated stream is valid")
}

fn late_roots(stream: &EventStream, n: usize) -> Vec<(usize, f64)> {
    stream
        .events()
        .iter()
        .rev()
        .take(n)
        .map(|e| (e.src, e.time))
        .collect()
}

/// Each root's own k-hop sample, concatenated layer by layer, with the
/// costs summed.
fn per_root_khop(
    sampler: &NeighborSampler,
    adj: &TemporalAdjacency,
    roots: &[(usize, f64)],
    ks: &[usize],
) -> (Vec<Vec<SampledNeighbor>>, SampleCost) {
    let mut layers = vec![Vec::new(); ks.len() + 1];
    let mut cost = SampleCost::default();
    for root in roots {
        let (root_layers, c) = sampler.sample_khop_batch(adj, std::slice::from_ref(root), ks);
        cost.add(c);
        for (layer, mut part) in layers.iter_mut().zip(root_layers) {
            layer.append(&mut part);
        }
    }
    (layers, cost)
}

/// Asserts that a k-hop batch over `roots` equals the roots' own samples,
/// in layers and in cost, under both strategies.
fn assert_khop_batch_equals_per_root(
    adj: &TemporalAdjacency,
    roots: &[(usize, f64)],
    ks: &[usize],
    sampler_seed: u64,
) {
    for strategy in [SampleStrategy::MostRecent, SampleStrategy::Uniform] {
        let sampler = NeighborSampler::new(strategy, sampler_seed);
        let (layers, cost) = sampler.sample_khop_batch(adj, roots, ks);
        assert_eq!(layers.len(), ks.len() + 1);
        assert!(cost.ops > 0);
        let (per_root_layers, per_root_cost) = per_root_khop(&sampler, adj, roots, ks);
        assert_eq!(
            layers,
            per_root_layers,
            "samples diverge ({} roots, {strategy:?})",
            roots.len()
        );
        assert_eq!(
            cost,
            per_root_cost,
            "cost diverges ({} roots, {strategy:?})",
            roots.len()
        );
    }
}

#[test]
fn khop_batch_equals_per_root_samples_on_power_law_streams() {
    for (alpha, seed) in [(0.8, 0xa1), (1.3, 0xa2), (1.8, 0xa3)] {
        let stream = power_law_stream(500, 6_000, alpha, seed);
        let adj = TemporalAdjacency::from_stream(&stream);
        let roots = late_roots(&stream, 200);
        assert_khop_batch_equals_per_root(&adj, &roots, &[8, 4], seed ^ 0x5eed);
    }
}

#[test]
fn khop_batch_of_400_roots_equals_per_root_samples() {
    // 400 roots × (10 + 10·10) = 44,000 sampled neighbours: the largest
    // batch in this file.
    let stream = power_law_stream(1_000, 12_000, 1.2, 0xe4);
    let adj = TemporalAdjacency::from_stream(&stream);
    let roots = late_roots(&stream, 400);
    assert_khop_batch_equals_per_root(&adj, &roots, &[10, 10], 0xe5);
}

#[test]
fn single_hop_batch_matches_per_root_loop() {
    let stream = power_law_stream(300, 3_000, 1.2, 0xb7);
    let adj = TemporalAdjacency::from_stream(&stream);
    let roots = late_roots(&stream, 150);
    for strategy in [SampleStrategy::MostRecent, SampleStrategy::Uniform] {
        let sampler = NeighborSampler::new(strategy, 17);
        let mut per_root = Vec::new();
        let mut per_root_cost = SampleCost::default();
        for &(node, t) in &roots {
            let (picked, c) = sampler.sample(&adj, node, t, 10);
            per_root.push(picked);
            per_root_cost.add(c);
        }
        let (batch, cost) = sampler.sample_batch(&adj, &roots, 10);
        assert_eq!(batch, per_root, "{strategy:?}");
        assert_eq!(cost, per_root_cost, "{strategy:?}");
    }
}

#[test]
fn khop_roots_carry_no_feature_rows_and_hops_always_do() {
    let stream = power_law_stream(200, 2_000, 1.1, 0xc3);
    let adj = TemporalAdjacency::from_stream(&stream);
    let roots = late_roots(&stream, 64);
    let sampler = NeighborSampler::new(SampleStrategy::Uniform, 3);
    let (layers, _) = sampler.sample_khop_batch(&adj, &roots, &[6, 3]);
    assert!(layers[0].iter().all(|n| n.feature_idx.is_none()));
    for layer in &layers[1..] {
        assert!(layer.iter().all(|n| n.feature_idx.is_some()));
    }
    // Every sampled feature row must be a valid edge-feature index.
    let n_events = stream.len();
    for layer in &layers[1..] {
        assert!(layer
            .iter()
            .all(|n| n.feature_idx.expect("hop layer") < n_events));
    }
}

#[test]
fn most_recent_batch_windows_are_descending_in_time() {
    let stream = power_law_stream(200, 2_500, 1.4, 0xd9);
    let adj = TemporalAdjacency::from_stream(&stream);
    let roots = late_roots(&stream, 120);
    let sampler = NeighborSampler::new(SampleStrategy::MostRecent, 23);
    let (samples, _) = sampler.sample_batch(&adj, &roots, 12);
    assert_eq!(samples.len(), roots.len());
    let mut non_trivial = 0;
    for window in &samples {
        assert!(window.windows(2).all(|w| w[0].time >= w[1].time));
        if window.len() > 1 {
            non_trivial += 1;
        }
    }
    assert!(non_trivial > 10, "sweep should exercise real windows");
}
