//! Deterministic request routing across warm pools.
//!
//! The router is the fleet's placement brain: every arrival is assigned
//! to exactly one pool before it queues. Policies only see a
//! [`PoolLoad`] snapshot (queue depth + model residency) — never
//! replica internals — so placement composes with any pool
//! implementation, and every tie is broken by the lowest pool id so a
//! replayed seed reproduces the identical placement sequence.

use dgnn_tensor::TensorRng;

/// Snapshot of one routable pool, as seen by the router at an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PoolLoad {
    /// Fleet-wide pool id (stable across the pool's lifetime).
    pub pool: usize,
    /// Requests queued at the pool (all models, excluding in-flight).
    pub queued: usize,
    /// Whether the arriving request's model is resident on at least
    /// one of the pool's replicas.
    pub resident: bool,
}

/// Placement policy. All three are deterministic: ties fall to the
/// lowest pool id, and power-of-two-choices draws both probes from the
/// router's own seeded stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Prefer the least-loaded pool where the model is already
    /// resident; fall back to join-shortest-queue when no pool holds
    /// it. Converts per-model heterogeneity into warm-hit rate.
    AffinityFirst,
    /// Sample two pools from the seeded stream, send to the
    /// less-loaded of the two (lower id on a tie). O(1) per decision
    /// with near-JSQ tail behaviour.
    PowerOfTwoChoices,
    /// Scan all pools, send to the shortest queue (lower id on a tie).
    JoinShortestQueue,
}

impl RouterPolicy {
    /// Short stable label for report lines and BENCH records.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RouterPolicy::AffinityFirst => "affinity_first",
            RouterPolicy::PowerOfTwoChoices => "power_of_two",
            RouterPolicy::JoinShortestQueue => "shortest_queue",
        }
    }
}

/// Places requests across pools under a [`RouterPolicy`].
///
/// The router owns its RNG stream (seeded from the fleet seed), so
/// power-of-two probes consume randomness at a fixed two-draws-per-
/// arrival cadence regardless of outcome — replaying a seed replays
/// the exact probe sequence.
#[derive(Debug)]
pub(crate) struct Router {
    policy: RouterPolicy,
    rng: TensorRng,
}

impl Router {
    /// Builds a router; `seed` feeds the power-of-two probe stream.
    #[must_use]
    pub fn new(policy: RouterPolicy, seed: u64) -> Self {
        Router {
            policy,
            rng: TensorRng::seed(seed.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) ^ 0x2f17),
        }
    }

    /// Picks the destination pool id for one arrival.
    ///
    /// # Panics
    ///
    /// Panics when `loads` is empty — the fleet always keeps at least
    /// `min_pools ≥ 1` routable pools.
    pub fn place(&mut self, loads: &[PoolLoad]) -> usize {
        assert!(!loads.is_empty(), "router needs at least one routable pool");
        match self.policy {
            RouterPolicy::JoinShortestQueue => Self::shortest(loads),
            RouterPolicy::AffinityFirst => {
                let resident: Vec<PoolLoad> =
                    loads.iter().copied().filter(|l| l.resident).collect();
                if resident.is_empty() {
                    Self::shortest(loads)
                } else {
                    Self::shortest(&resident)
                }
            }
            RouterPolicy::PowerOfTwoChoices => {
                // Both draws always happen, keeping the stream cadence
                // independent of the loads.
                let a = self.draw(loads.len());
                let b = self.draw(loads.len());
                let (la, lb) = (loads[a], loads[b]);
                if (lb.queued, lb.pool) < (la.queued, la.pool) {
                    lb.pool
                } else {
                    la.pool
                }
            }
        }
    }

    /// Least-loaded pool, ties to the lowest id. `loads` arrives in
    /// ascending-id order from the fleet, so `min_by_key` on
    /// `(queued, pool)` is deterministic.
    fn shortest(loads: &[PoolLoad]) -> usize {
        loads
            .iter()
            .min_by_key(|l| (l.queued, l.pool))
            .expect("non-empty loads")
            .pool
    }

    fn draw(&mut self, n: usize) -> usize {
        #[expect(clippy::cast_possible_truncation, reason = "pool counts are tiny")]
        let idx = (self.rng.next_u64() % n as u64) as usize;
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads(queues: &[usize], resident: &[bool]) -> Vec<PoolLoad> {
        queues
            .iter()
            .zip(resident)
            .enumerate()
            .map(|(pool, (&queued, &resident))| PoolLoad {
                pool,
                queued,
                resident,
            })
            .collect()
    }

    #[test]
    fn jsq_picks_shortest_with_lowest_id_tiebreak() {
        let mut r = Router::new(RouterPolicy::JoinShortestQueue, 1);
        assert_eq!(r.place(&loads(&[4, 2, 2], &[false, false, false])), 1);
        assert_eq!(r.place(&loads(&[0, 0, 0], &[false, false, false])), 0);
    }

    #[test]
    fn affinity_prefers_resident_pools_then_falls_back() {
        let mut r = Router::new(RouterPolicy::AffinityFirst, 1);
        // Resident pool wins even with a deeper queue.
        assert_eq!(r.place(&loads(&[1, 7], &[false, true])), 1);
        // Two resident pools: least loaded among them.
        assert_eq!(r.place(&loads(&[3, 5, 4], &[false, true, true])), 2);
        // Nobody resident: plain JSQ.
        assert_eq!(r.place(&loads(&[3, 1, 4], &[false, false, false])), 1);
    }

    #[test]
    fn power_of_two_is_deterministic_and_prefers_lighter_probe() {
        let l = loads(&[10, 0, 10, 0], &[false; 4]);
        let mut a = Router::new(RouterPolicy::PowerOfTwoChoices, 7);
        let mut b = Router::new(RouterPolicy::PowerOfTwoChoices, 7);
        let seq_a: Vec<usize> = (0..64).map(|_| a.place(&l)).collect();
        let seq_b: Vec<usize> = (0..64).map(|_| b.place(&l)).collect();
        assert_eq!(seq_a, seq_b, "same seed must replay the same probes");
        // Whenever an empty pool is probed it wins over a depth-10 one,
        // so empty pools should dominate the sequence.
        let light = seq_a.iter().filter(|&&p| p == 1 || p == 3).count();
        assert!(light > 40, "light pools won only {light}/64 placements");
    }

    #[test]
    fn single_pool_always_wins() {
        for policy in [
            RouterPolicy::AffinityFirst,
            RouterPolicy::PowerOfTwoChoices,
            RouterPolicy::JoinShortestQueue,
        ] {
            let mut r = Router::new(policy, 3);
            assert_eq!(r.place(&loads(&[9], &[false])), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one routable pool")]
    fn empty_loads_panic() {
        let mut r = Router::new(RouterPolicy::JoinShortestQueue, 1);
        r.place(&[]);
    }
}
