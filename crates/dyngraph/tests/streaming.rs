//! Byte-identity property: sampling from (base CSR + delta log) equals
//! sampling from a frozen [`TemporalAdjacency`] built from the same
//! event prefix — for any event sequence, any split point, before and
//! after compaction, per node and through both batch APIs.
//!
//! This is the contract that makes the streaming refactor safe: the
//! two-tier [`StreamingAdjacency`] is *representationally* different
//! from the flat CSR but *observationally* identical, so every
//! downstream consumer (models, serving, benchmarks) keeps its bits.

use dgnn_graph::{
    EventStream, NeighborSampler, SampleStrategy, StreamingAdjacency, TemporalAdjacency,
    TemporalEvent,
};

/// Splitmix-style generator for reproducible random event sequences.
fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A random, time-sorted event sequence with repeated timestamps,
/// hub-skewed endpoints (hubs stress long adjacency rows) and
/// self-loops (`src == dst`, which the CSR lists twice on one row).
#[expect(
    clippy::cast_possible_truncation,
    reason = "test draws are reduced mod small n_nodes"
)]
fn random_events(seed: u64, n_nodes: usize, n_events: usize) -> Vec<TemporalEvent> {
    let mut state = seed;
    let mut t = 0.0f64;
    (0..n_events)
        .map(|i| {
            // ~1 in 4 events shares its predecessor's timestamp.
            if !splitmix(&mut state).is_multiple_of(4) {
                t += (splitmix(&mut state) % 7 + 1) as f64 * 0.25;
            }
            let src = if splitmix(&mut state).is_multiple_of(3) {
                0 // hub
            } else {
                (splitmix(&mut state) as usize) % n_nodes
            };
            let dst = (splitmix(&mut state) as usize) % n_nodes;
            TemporalEvent {
                src,
                dst,
                time: t,
                feature_idx: i,
            }
        })
        .collect()
}

/// Fails unless `events` holds a self-loop, so the property covers the
/// row that lists one event twice.
fn assert_has_self_loop(events: &[TemporalEvent]) {
    assert!(
        events.iter().any(|e| e.src == e.dst),
        "sequence has no self-loop"
    );
}

/// Query times that bracket, split, and exceed the event time range.
fn probe_times(events: &[TemporalEvent]) -> Vec<f64> {
    let end = events.last().map_or(1.0, |e| e.time);
    vec![
        0.0,
        end * 0.3 + 0.1,
        end * 0.7 + 0.1,
        end + 1.0,
        f64::INFINITY,
    ]
}

fn samplers() -> Vec<NeighborSampler> {
    vec![
        NeighborSampler::new(SampleStrategy::MostRecent, 99),
        NeighborSampler::new(SampleStrategy::Uniform, 99),
    ]
}

/// Asserts the streaming view at `visible` matches the frozen CSR of
/// the same prefix under every sampler, probe time and batch API.
fn assert_byte_identical(
    live: &StreamingAdjacency,
    events: &[TemporalEvent],
    n_nodes: usize,
    visible: usize,
) {
    let frozen = TemporalAdjacency::from_stream(
        &EventStream::new(n_nodes, events[..visible].to_vec()).expect("sorted prefix"),
    );
    let view = live.view_prefix(visible);
    for sampler in samplers() {
        for &t in &probe_times(&events[..visible]) {
            let roots: Vec<(usize, f64)> = (0..n_nodes).map(|v| (v, t)).collect();
            // Per-node single-hop samples and costs.
            for &(node, tt) in &roots {
                assert_eq!(
                    sampler.sample(&frozen, node, tt, 3),
                    sampler.sample(&view, node, tt, 3),
                    "visible={visible} node={node} t={tt}"
                );
            }
            // Both batch APIs through the view equal the frozen CSR.
            assert_eq!(
                sampler.sample_batch(&view, &roots, 2),
                sampler.sample_batch(&frozen, &roots, 2),
                "visible={visible} t={t}"
            );
            assert_eq!(
                sampler.sample_khop_batch(&view, &roots, &[2, 2]),
                sampler.sample_khop_batch(&frozen, &roots, &[2, 2]),
                "k-hop visible={visible} t={t}"
            );
        }
    }
}

#[test]
fn any_split_of_any_sequence_matches_the_frozen_graph() {
    let n_nodes = 10;
    let n_events = 48;
    for seed in [3u64, 17] {
        let events = random_events(seed, n_nodes, n_events);
        assert_has_self_loop(&events);
        // Threshold 7: compactions keep landing mid-sequence, so splits
        // probe every base/delta mix. Threshold 1000: pure delta log.
        for threshold in [7usize, 1000] {
            let mut live = StreamingAdjacency::new(n_nodes, threshold);
            assert_byte_identical(&live, &events, n_nodes, 0);
            for (i, ev) in events.iter().enumerate() {
                live.append(*ev).expect("valid event");
                assert_byte_identical(&live, &events, n_nodes, i + 1);
            }
            assert_eq!(live.total_events(), n_events);
            if threshold == 7 {
                assert!(live.compactions() > 0, "threshold 7 must compact");
            }
        }
    }
}

#[test]
fn explicit_compaction_preserves_every_visible_prefix() {
    let n_nodes = 8;
    let events = random_events(41, n_nodes, 40);
    assert_has_self_loop(&events);
    let mut live = StreamingAdjacency::new(n_nodes, 1000);
    for ev in &events {
        live.append(*ev).expect("valid event");
    }
    assert_eq!(live.compactions(), 0, "threshold 1000 never auto-compacts");
    // Every split must read identically before and after the physical
    // representation collapses into the base tier.
    for visible in 0..=events.len() {
        assert_byte_identical(&live, &events, n_nodes, visible);
    }
    live.compact();
    assert_eq!(live.delta_events(), 0);
    for visible in 0..=events.len() {
        assert_byte_identical(&live, &events, n_nodes, visible);
    }
}

#[test]
fn interleaved_appends_and_compactions_keep_view_identity() {
    let n_nodes = 6;
    let events = random_events(7, n_nodes, 36);
    assert_has_self_loop(&events);
    let mut live = StreamingAdjacency::new(n_nodes, 1000);
    for (i, ev) in events.iter().enumerate() {
        live.append(*ev).expect("valid event");
        if i % 5 == 4 {
            live.compact();
            // A view cut strictly inside the (now compacted) base tier.
            assert_byte_identical(&live, &events, n_nodes, i / 2);
        }
    }
    assert_byte_identical(&live, &events, n_nodes, events.len());
}
