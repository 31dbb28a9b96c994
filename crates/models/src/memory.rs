//! Serving-path node memory: the state TGN mutates at ingest time.
//!
//! In the offline benchmarks, per-node memory lives inside the model
//! ([`crate::Tgn`] keeps an `EmbeddingTable` + GRU) and is touched once
//! per inference batch. Under *streaming* serving the same state must
//! also advance on the **ingest** path: when a live edge event lands,
//! the two endpoint rows are updated before the event becomes visible
//! to samplers — that host-side work races query sampling on the ingest
//! clock, which is exactly the contention the paper's §6 streaming
//! discussion predicts.
//!
//! [`IngestMemory`] is that serving-path state, deliberately decoupled
//! from the model structs: it owns a dense `f32` row table, applies a
//! deterministic per-event update (a cheap fixed-point stand-in for
//! TGN's GRU cell), and prices each update as an [`IngestCost`] so the
//! serving loop can charge it to the Host lane. Determinism is load-bearing: replaying the same event sequence yields
//! a bit-identical [`IngestMemory::checksum`], which the streaming
//! determinism tests assert.

use dgnn_graph::{IngestCost, TemporalEvent};

/// Gate stages of the TGN-style update: gate, candidate, blend.
const GATE_STAGES: u64 = 3;

/// Deterministic per-node memory table updated on the ingest path. Each
/// update is TGN-style: a sigmoid gate blends the old row with a
/// tanh-squashed message (the shape of a GRU cell collapsed to one
/// gate).
///
/// ```
/// use dgnn_models::IngestMemory;
/// use dgnn_graph::TemporalEvent;
///
/// let ev = TemporalEvent { src: 0, dst: 2, time: 1.5, feature_idx: 0 };
/// let mut a = IngestMemory::new(4, 8, 42);
/// let mut b = IngestMemory::new(4, 8, 42);
/// let cost = a.apply(&ev);
/// b.apply(&ev);
/// // Same seed + same events => bit-identical state; updates are priced.
/// assert_eq!(a.checksum(), b.checksum());
/// assert!(cost.ops > 0 && cost.irregular_bytes > 0);
/// ```
#[derive(Debug, Clone)]
pub struct IngestMemory {
    dim: usize,
    /// Row-major `n_nodes x dim` state.
    rows: Vec<f32>,
    updates: u64,
}

impl IngestMemory {
    /// Creates a table of `n_nodes` rows of width `dim`, seeded
    /// deterministically (small values in `[-0.5, 0.5)`).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero — a zero-width memory row can absorb no
    /// update and always checksums to the seed, hiding ingest bugs.
    pub fn new(n_nodes: usize, dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "IngestMemory: dim must be non-zero");
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut rows = Vec::with_capacity(n_nodes * dim);
        for _ in 0..n_nodes * dim {
            state = splitmix(state);
            // Top 24 bits -> [0, 1) -> [-0.5, 0.5).
            rows.push((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5);
        }
        IngestMemory {
            dim,
            rows,
            updates: 0,
        }
    }

    /// Number of rows.
    pub fn n_nodes(&self) -> usize {
        self.rows.len() / self.dim
    }

    /// Events applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// One node's memory row.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn row(&self, node: usize) -> &[f32] {
        &self.rows[node * self.dim..(node + 1) * self.dim]
    }

    /// Applies one edge event to both endpoint rows and returns the
    /// Host-lane cost of doing so: `2·dim` multiply-accumulate ops per
    /// gate stage, a streaming read+write of both rows, and an
    /// irregular gather/scatter charge for the two random row indexes.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of bounds.
    pub fn apply(&mut self, ev: &TemporalEvent) -> IngestCost {
        let n = self.n_nodes();
        assert!(
            ev.src < n && ev.dst < n,
            "IngestMemory: event touches node out of bounds ({}/{} vs {n} rows)",
            ev.src,
            ev.dst
        );
        // The "message" each endpoint receives: a time-and-partner
        // dependent scalar, matching the shape (not the weights) of the
        // real models' message functions.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "f32 message precision is the model's"
        )]
        let t = ev.time as f32;
        let msg_src = (t * 0.01 + ev.dst as f32 * 1e-3).sin();
        let msg_dst = (t * 0.01 + ev.src as f32 * 1e-3).cos();
        self.update_row(ev.src, msg_src);
        self.update_row(ev.dst, msg_dst);
        self.updates += 1;
        let dim = self.dim as u64;
        IngestCost {
            ops: 2 * dim * GATE_STAGES,
            // Read + write both touched rows, f32 each.
            seq_bytes: 2 * 2 * dim * 4,
            // Two random row lookups in a table too large to cache.
            irregular_bytes: 2 * dim * 4,
        }
    }

    fn update_row(&mut self, node: usize, msg: f32) {
        for h in &mut self.rows[node * self.dim..(node + 1) * self.dim] {
            let z = sigmoid(*h + msg);
            let cand = (msg - *h).tanh();
            *h = (1.0 - z) * *h + z * cand;
        }
    }

    /// Order-sensitive checksum over the full state: bit-identical iff
    /// the same events were applied in the same order to the same seed.
    pub fn checksum(&self) -> u64 {
        let mut acc = 0xcbf2_9ce4_8422_2325u64 ^ self.updates;
        for &v in &self.rows {
            acc = (acc ^ u64::from(v.to_bits())).wrapping_mul(0x100_0000_01b3);
        }
        acc
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: usize, dst: usize, time: f64) -> TemporalEvent {
        TemporalEvent {
            src,
            dst,
            time,
            feature_idx: 0,
        }
    }

    #[test]
    fn same_seed_same_events_same_checksum() {
        let mut a = IngestMemory::new(16, 8, 7);
        let mut b = IngestMemory::new(16, 8, 7);
        for i in 0..32 {
            let e = ev(i % 16, (i * 3 + 1) % 16, i as f64);
            assert_eq!(a.apply(&e), b.apply(&e));
        }
        assert_eq!(a.checksum(), b.checksum());
        assert_eq!(a.updates(), 32);
    }

    #[test]
    fn updates_change_state_and_order_matters() {
        let mut a = IngestMemory::new(8, 4, 1);
        let before = a.checksum();
        a.apply(&ev(0, 1, 1.0));
        let after_one = a.checksum();
        assert_ne!(before, after_one);
        a.apply(&ev(1, 2, 2.0));
        let ab = a.checksum();

        // Swapped order on a shared endpoint (node 1) must be visible.
        let mut b = IngestMemory::new(8, 4, 1);
        b.apply(&ev(1, 2, 2.0));
        b.apply(&ev(0, 1, 1.0));
        assert_ne!(ab, b.checksum(), "apply order must be observable");
    }

    #[test]
    fn costs_are_positive_and_rows_stay_bounded() {
        let mut g = IngestMemory::new(8, 4, 1);
        let c = g.apply(&ev(0, 1, 1.0));
        assert_eq!(c.ops, 2 * 4 * GATE_STAGES);
        assert!(c.seq_bytes > 0 && c.irregular_bytes > 0);
        // State stays finite under the squashing nonlinearities.
        assert!(g.row(0).iter().all(|v| v.is_finite() && v.abs() <= 1.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_event_panics() {
        let mut m = IngestMemory::new(4, 4, 1);
        m.apply(&ev(0, 9, 1.0));
    }
}
