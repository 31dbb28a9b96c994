//! Queue-driven pool autoscaling with explicit warm-up pricing.
//!
//! The autoscaler watches fleet-wide queue depth at every arrival and
//! decides to scale out (spawn a pool whose replicas each pay the full
//! context + model-init warm-up before serving their first request —
//! the paper's §4.4 cost, now a *scaling* penalty) or scale in (drain
//! the least-loaded pool and stop accruing its replica-seconds). The
//! decision function is pure: given the same virtual clock and queue
//! readings it always answers the same, so fleet runs replay
//! bit-identically.

use dgnn_device::DurationNs;

/// Autoscaler thresholds. All comparisons are against *per-pool
/// average* queue depth so the thresholds keep meaning as the fleet
/// grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscalerConfig {
    /// Lower bound on routable pools (≥ 1). Scale-in never goes below.
    pub min_pools: usize,
    /// Upper bound on pools ever spawned concurrently.
    pub max_pools: usize,
    /// Scale out when queued requests exceed `scale_out_queue` per
    /// active pool.
    pub scale_out_queue: usize,
    /// Scale in when the load would still sit at or under
    /// `scale_in_queue` per pool with one pool fewer.
    pub scale_in_queue: usize,
    /// How long the low-load condition must hold before scaling in.
    /// Guards against draining a pool in the trough of a burst cycle.
    pub idle_window: DurationNs,
    /// Minimum gap between any two scale decisions. Lets a freshly
    /// spawned pool finish provisioning (and absorb queue) before the
    /// next reading can trigger again.
    pub cooldown: DurationNs,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            min_pools: 1,
            max_pools: 8,
            scale_out_queue: 8,
            scale_in_queue: 2,
            idle_window: DurationNs::from_millis(500),
            cooldown: DurationNs::from_millis(250),
        }
    }
}

/// Direction of a scale decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleKind {
    /// Spawn one pool; its replicas pay provisioning warm-up.
    Out,
    /// Drain one pool; it serves its queue, then retires.
    In,
}

/// One scale decision, for the report's audit trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// Virtual time of the decision.
    pub at: DurationNs,
    /// Direction.
    pub kind: ScaleKind,
    /// Routable pools after the decision took effect.
    pub pools_after: usize,
    /// Fleet-wide queued requests that triggered it.
    pub trigger_queued: usize,
}

/// Deterministic queue-depth autoscaler.
///
/// Call [`Autoscaler::decide`] at every arrival with the current
/// virtual time, total queued requests, and routable pool count; it
/// returns the action to take, if any, and records it.
#[derive(Debug)]
pub(crate) struct Autoscaler {
    cfg: AutoscalerConfig,
    cooldown_until: DurationNs,
    low_since: Option<DurationNs>,
    events: Vec<ScaleEvent>,
}

impl Autoscaler {
    /// Builds an autoscaler.
    ///
    /// # Panics
    ///
    /// Panics when `min_pools` is zero or exceeds `max_pools`.
    #[must_use]
    pub fn new(cfg: AutoscalerConfig) -> Self {
        assert!(cfg.min_pools >= 1, "autoscaler needs min_pools >= 1");
        assert!(
            cfg.min_pools <= cfg.max_pools,
            "autoscaler needs min_pools <= max_pools"
        );
        Autoscaler {
            cfg,
            cooldown_until: DurationNs::ZERO,
            low_since: None,
            events: Vec::new(),
        }
    }

    /// Scale decisions taken so far, in virtual-time order.
    #[must_use]
    pub fn events(&self) -> &[ScaleEvent] {
        &self.events
    }

    /// Evaluates the thresholds at one arrival. `queued_total` counts
    /// requests waiting across all routable pools; `active_pools` is
    /// the routable pool count (draining pools excluded). Returns the
    /// action the fleet must apply, already recorded in [`events`].
    ///
    /// [`events`]: Autoscaler::events
    pub fn decide(
        &mut self,
        now: DurationNs,
        queued_total: usize,
        active_pools: usize,
    ) -> Option<ScaleKind> {
        // Scale out: queue pressure above threshold × pools.
        if queued_total > self.cfg.scale_out_queue * active_pools {
            self.low_since = None;
            if active_pools < self.cfg.max_pools && now >= self.cooldown_until {
                return Some(self.record(now, ScaleKind::Out, active_pools + 1, queued_total));
            }
            return None;
        }

        // Scale in: the remaining pools could absorb the load.
        let can_shrink = active_pools > self.cfg.min_pools
            && queued_total <= self.cfg.scale_in_queue * (active_pools - 1);
        if !can_shrink {
            self.low_since = None;
            return None;
        }
        let since = *self.low_since.get_or_insert(now);
        if now >= since + self.cfg.idle_window && now >= self.cooldown_until {
            self.low_since = None;
            return Some(self.record(now, ScaleKind::In, active_pools - 1, queued_total));
        }
        None
    }

    fn record(
        &mut self,
        at: DurationNs,
        kind: ScaleKind,
        pools_after: usize,
        trigger_queued: usize,
    ) -> ScaleKind {
        self.cooldown_until = at + self.cfg.cooldown;
        self.events.push(ScaleEvent {
            at,
            kind,
            pools_after,
            trigger_queued,
        });
        kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AutoscalerConfig {
        AutoscalerConfig {
            min_pools: 1,
            max_pools: 4,
            scale_out_queue: 4,
            scale_in_queue: 1,
            idle_window: DurationNs::from_millis(10),
            cooldown: DurationNs::from_millis(5),
        }
    }

    fn ms(v: u64) -> DurationNs {
        DurationNs::from_millis(v)
    }

    #[test]
    fn scales_out_under_queue_pressure() {
        let mut s = Autoscaler::new(cfg());
        assert_eq!(s.decide(ms(1), 9, 2), Some(ScaleKind::Out));
        let ev = s.events()[0];
        assert_eq!(ev.kind, ScaleKind::Out);
        assert_eq!(ev.pools_after, 3);
        assert_eq!(ev.trigger_queued, 9);
    }

    #[test]
    fn respects_max_pools_and_cooldown() {
        let mut s = Autoscaler::new(cfg());
        // At the ceiling: no scale-out no matter the pressure.
        assert_eq!(s.decide(ms(1), 100, 4), None);
        // Below the ceiling but inside cooldown after a decision.
        assert_eq!(s.decide(ms(2), 20, 2), Some(ScaleKind::Out));
        assert_eq!(s.decide(ms(3), 40, 3), None, "cooldown must gate");
        assert_eq!(s.decide(ms(8), 40, 3), Some(ScaleKind::Out));
    }

    #[test]
    fn scale_in_timer_resets_on_pressure() {
        let mut relaxed = cfg();
        relaxed.max_pools = 3; // pressure can't trigger Out at 3 pools
        let mut s = Autoscaler::new(relaxed);
        assert_eq!(s.decide(ms(0), 0, 3), None);
        assert_eq!(s.decide(ms(4), 50, 3), None, "at max_pools: no Out");
        // Timer restarted at the next low reading; 10 ms must elapse anew.
        assert_eq!(s.decide(ms(6), 0, 3), None);
        assert_eq!(s.decide(ms(12), 0, 3), None);
        assert_eq!(s.decide(ms(16), 0, 3), Some(ScaleKind::In));
        assert_eq!(s.events().last().unwrap().pools_after, 2);
    }

    #[test]
    fn never_drops_below_min_pools() {
        let mut s = Autoscaler::new(cfg());
        assert_eq!(s.decide(ms(0), 0, 1), None);
        assert_eq!(s.decide(ms(100), 0, 1), None, "min_pools floor holds");
    }

    #[test]
    #[should_panic(expected = "min_pools >= 1")]
    fn zero_min_pools_rejected() {
        let mut bad = cfg();
        bad.min_pools = 0;
        let _ = Autoscaler::new(bad);
    }
}
