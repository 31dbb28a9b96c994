//! Device-resident feature cache: hot rows skip the PCIe crossing.
//!
//! The paper's bottleneck #3 is data movement — MolDGNN spends 80–90%
//! of its GPU working time in memcpy, TGN 79% in message passing — and
//! transfer *coalescing* (PR 3) only reduced the per-transfer overhead,
//! not the bytes: every neighbor feature still crossed PCIe on every
//! batch. On power-law graphs that is enormously wasteful, because a
//! small set of hub nodes appears in almost every sampled neighborhood.
//! FAST (see `PAPERS.md`) shows the big wins come from co-optimizing
//! sampling with memory I/O so hot rows never leave the device.
//!
//! [`FeatureCache`] models exactly that mitigation: a
//! configurable-capacity LRU over device-resident rows keyed by
//! ([`TensorClass`], row id), with hit/miss/eviction statistics
//! overall and per class. A hit means the row is already in GPU
//! memory and its H2D transfer is *skipped entirely*; a miss prices the
//! fetch and inserts the row, evicting the least-recently-used entry
//! when full. Only *pricing* changes — model numerics are bit-identical
//! with the cache on or off, because the cached payloads are
//! pricing-level stand-ins (the functional tensors flow through
//! `adopt`).
//!
//! Determinism: lookups use a `HashMap` strictly for O(1) point access
//! (never iterated), and recency order lives in a `BTreeMap` keyed by a
//! monotone logical tick — eviction picks the smallest tick, which is a
//! deterministic choice independent of hasher state or thread count.

use std::collections::{BTreeMap, HashMap};

/// Logical class of rows a [`FeatureCache`] holds. Keys are only
/// meaningful within a class (node id 7's feature row and node id 7's
/// memory row are different cache lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TensorClass {
    /// Static per-node input features (TGAT/TGN neighbor features,
    /// MolDGNN per-frame adjacency/coordinate rows).
    NodeFeature,
    /// Per-edge features and timestamps.
    EdgeFeature,
    /// Recurrent per-node memory/embedding state (TGN memory rows).
    NodeMemory,
}

impl TensorClass {
    /// All classes, in a fixed order (the index order of
    /// [`TensorClass::index`]).
    pub const ALL: [TensorClass; 3] = [
        TensorClass::NodeFeature,
        TensorClass::EdgeFeature,
        TensorClass::NodeMemory,
    ];

    /// Stable lowercase name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            TensorClass::NodeFeature => "node_feature",
            TensorClass::EdgeFeature => "edge_feature",
            TensorClass::NodeMemory => "node_memory",
        }
    }

    /// Index into per-class tables ([`TensorClass::ALL`] order).
    pub fn index(self) -> usize {
        match self {
            TensorClass::NodeFeature => 0,
            TensorClass::EdgeFeature => 1,
            TensorClass::NodeMemory => 2,
        }
    }
}

/// Aggregate hit/miss/eviction counters of one cache (or a sum over
/// several — see [`CacheStats::accumulate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Probes that found their row resident (H2D skipped).
    pub hits: u64,
    /// Probes that missed and paid the fetch.
    pub misses: u64,
    /// Rows evicted to make room.
    pub evictions: u64,
    /// Bytes served from the device instead of crossing PCIe.
    pub hit_bytes: u64,
    /// Bytes fetched over PCIe on misses.
    pub miss_bytes: u64,
}

impl CacheStats {
    /// Total probes.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction (0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / lookups as f64
    }

    /// Adds another cache's counters (for fleet-wide aggregation).
    pub fn accumulate(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.hit_bytes += other.hit_bytes;
        self.miss_bytes += other.miss_bytes;
    }
}

/// Per-[`TensorClass`] [`CacheStats`], indexed by [`TensorClass::index`].
/// The per-class split is what exposes, e.g., MolDGNN's edge-feature
/// misses that a summed total hides.
pub type ClassCacheStats = [CacheStats; 3];

/// Sums two per-class stat tables element-wise (fleet aggregation).
pub fn accumulate_class_stats(into: &mut ClassCacheStats, other: &ClassCacheStats) {
    for (dst, src) in into.iter_mut().zip(other.iter()) {
        dst.accumulate(src);
    }
}

#[derive(Debug, Clone)]
struct Entry {
    /// Recency tick of the most recent touch (key into the LRU order).
    tick: u64,
    /// Device bytes the row occupies (freed on eviction).
    bytes: u64,
}

/// A deterministic LRU cache of device-resident rows.
///
/// Capacity is counted in *rows*, not bytes: the cached unit is one
/// feature/memory row, matching how the drivers key it (one row per
/// node or per frame slab). Byte accounting still flows to the GPU
/// [`crate::MemoryTracker`] via the executor, which charges the row's
/// size on insert and frees it on eviction.
///
/// ```
/// use dgnn_device::{FeatureCache, TensorClass};
///
/// let mut cache = FeatureCache::new(2);
/// assert!(!cache.probe_insert(TensorClass::NodeFeature, 7, 256).0); // miss
/// assert!(cache.probe_insert(TensorClass::NodeFeature, 7, 256).0); // hit
/// cache.probe_insert(TensorClass::NodeFeature, 8, 256);
/// // A third row evicts the least recently touched one (id 7).
/// let (_, evicted) = cache.probe_insert(TensorClass::NodeFeature, 9, 256);
/// assert_eq!(evicted, 256);
/// assert_eq!(cache.stats().evictions, 1);
/// ```
#[derive(Debug, Clone)]
pub struct FeatureCache {
    capacity: usize,
    /// Point lookups only — never iterated (hasher order would break
    /// bit-determinism).
    map: HashMap<(TensorClass, u64), Entry>,
    /// Recency order: tick → key. Ticks are unique (monotone counter),
    /// so `BTreeMap` iteration order is the deterministic LRU order.
    lru: BTreeMap<u64, (TensorClass, u64)>,
    tick: u64,
    /// Lifetime counters per row class ([`TensorClass::index`] order).
    class_stats: ClassCacheStats,
}

impl FeatureCache {
    /// Creates an empty cache holding at most `capacity` rows.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero — a zero-capacity cache cannot
    /// hold the row it just fetched; disable the cache instead.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "feature cache capacity must be >= 1 row");
        FeatureCache {
            capacity,
            map: HashMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
            class_stats: ClassCacheStats::default(),
        }
    }

    /// Currently resident rows.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no row is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime hit/miss/eviction counters: the sum of
    /// [`FeatureCache::class_stats`] over every class.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.class_stats {
            total.accumulate(s);
        }
        total
    }

    /// Lifetime counters broken down per row class
    /// ([`TensorClass::index`] order). Evictions are attributed to the
    /// class of the *victim* row, so the per-class eviction counts also
    /// sum to the aggregate.
    pub fn class_stats(&self) -> &ClassCacheStats {
        &self.class_stats
    }

    /// Whether a row is resident (does not touch recency or stats).
    pub fn contains(&self, class: TensorClass, key: u64) -> bool {
        self.map.contains_key(&(class, key))
    }

    /// Probes for `(class, key)` and, on a miss, inserts it as a
    /// `row_bytes`-byte resident row (evicting the LRU row if full).
    ///
    /// Returns `(hit, evicted_bytes)`: `hit` says whether the H2D fetch
    /// can be skipped, and `evicted_bytes` is how much device memory
    /// the eviction released (0 on hits and non-evicting misses) so the
    /// caller can balance its memory tracker.
    pub fn probe_insert(&mut self, class: TensorClass, key: u64, row_bytes: u64) -> (bool, u64) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.map.get_mut(&(class, key)) {
            self.lru.remove(&e.tick);
            self.lru.insert(tick, (class, key));
            e.tick = tick;
            self.class_stats[class.index()].hits += 1;
            self.class_stats[class.index()].hit_bytes += e.bytes;
            return (true, 0);
        }
        self.class_stats[class.index()].misses += 1;
        self.class_stats[class.index()].miss_bytes += row_bytes;
        let mut evicted = 0u64;
        if self.map.len() >= self.capacity {
            // The smallest tick is the least recently used row.
            let (&old_tick, &victim) = self.lru.iter().next().expect("full cache has entries");
            self.lru.remove(&old_tick);
            let gone = self.map.remove(&victim).expect("lru entry is mapped");
            evicted = gone.bytes;
            self.class_stats[victim.0.index()].evictions += 1;
        }
        self.map.insert(
            (class, key),
            Entry {
                tick,
                bytes: row_bytes,
            },
        );
        self.lru.insert(tick, (class, key));
        (false, evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hits() {
        let mut c = FeatureCache::new(4);
        assert!(!c.probe_insert(TensorClass::NodeFeature, 1, 64).0);
        assert!(c.probe_insert(TensorClass::NodeFeature, 1, 64).0);
        assert!(c.probe_insert(TensorClass::NodeFeature, 1, 64).0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert_eq!((s.hit_bytes, s.miss_bytes), (128, 64));
    }

    #[test]
    fn classes_do_not_collide() {
        let mut c = FeatureCache::new(4);
        c.probe_insert(TensorClass::NodeFeature, 9, 64);
        assert!(!c.probe_insert(TensorClass::NodeMemory, 9, 64).0);
        assert!(c.contains(TensorClass::NodeFeature, 9));
        assert!(c.contains(TensorClass::NodeMemory, 9));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_evicts_the_coldest_row() {
        let mut c = FeatureCache::new(2);
        c.probe_insert(TensorClass::NodeFeature, 1, 10);
        c.probe_insert(TensorClass::NodeFeature, 2, 20);
        c.probe_insert(TensorClass::NodeFeature, 1, 10); // refresh id 1
        let (hit, evicted) = c.probe_insert(TensorClass::NodeFeature, 3, 30);
        assert!(!hit);
        assert_eq!(evicted, 20, "id 2 was least recently used");
        assert!(!c.contains(TensorClass::NodeFeature, 2));
        assert!(c.contains(TensorClass::NodeFeature, 1));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn repeated_working_set_is_all_hits_after_warmup() {
        let mut c = FeatureCache::new(8);
        for round in 0..5 {
            for key in 0..8u64 {
                let (hit, _) = c.probe_insert(TensorClass::EdgeFeature, key, 16);
                assert_eq!(hit, round > 0);
            }
        }
        let s = c.stats();
        assert_eq!(s.misses, 8);
        assert_eq!(s.hits, 32);
        assert!((s.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn probe_sequence_is_deterministic() {
        let run = || {
            let mut c = FeatureCache::new(3);
            let keys = [5u64, 1, 9, 5, 2, 9, 7, 1, 5];
            let outcomes: Vec<(bool, u64)> = keys
                .iter()
                .map(|&k| c.probe_insert(TensorClass::NodeFeature, k, 32))
                .collect();
            (outcomes, c.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "capacity must be >= 1")]
    fn zero_capacity_is_rejected() {
        let _ = FeatureCache::new(0);
    }

    #[test]
    fn class_stats_partition_the_aggregate() {
        let mut c = FeatureCache::new(2);
        c.probe_insert(TensorClass::NodeFeature, 1, 10);
        c.probe_insert(TensorClass::NodeFeature, 1, 10); // hit
        c.probe_insert(TensorClass::EdgeFeature, 1, 20);
        // Evicts the NodeFeature row (coldest): the eviction is charged
        // to the victim's class.
        c.probe_insert(TensorClass::NodeMemory, 1, 30);
        let per = c.class_stats();
        let nf = per[TensorClass::NodeFeature.index()];
        let ef = per[TensorClass::EdgeFeature.index()];
        let nm = per[TensorClass::NodeMemory.index()];
        assert_eq!((nf.hits, nf.misses, nf.evictions), (1, 1, 1));
        assert_eq!((ef.hits, ef.misses, ef.evictions), (0, 1, 0));
        assert_eq!((nm.hits, nm.misses, nm.evictions), (0, 1, 0));
        // Per-class rows sum to the aggregate, every field.
        let mut summed = CacheStats::default();
        for s in per {
            summed.accumulate(s);
        }
        assert_eq!(summed, c.stats());
    }

    #[test]
    fn class_indices_are_stable() {
        for (i, class) in TensorClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }
}
