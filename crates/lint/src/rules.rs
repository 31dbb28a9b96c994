//! The static rule catalogue: LINT1–LINT5, mirroring the sanitizer's
//! structured-diagnostic style (`dgnn-analysis` RULE1–8).
//!
//! Where the sanitizer replays *one executed trace*, these rules read
//! *all source code*, so they hold on every path before a trace ever
//! runs:
//!
//! * **LINT1 hash-iteration** — no iteration over `HashMap`/`HashSet`
//!   (`for` loops, `.iter()`, `.keys()`, `.values()`, `.drain()`,
//!   `.into_iter()`, `.retain()`, …) in decision-path crates
//!   ([`DECISION_PATH_CRATES`]). Hash iteration order depends on hasher
//!   state, so any decision derived from it breaks bit-determinism per
//!   seed. Point lookups (`get`/`insert`/`contains_key`/`remove`) and
//!   `BTreeMap` iteration stay legal.
//! * **LINT2 nondeterminism-source** — no wall-clock reads
//!   (`Instant::now`, `SystemTime`), OS randomness (`thread_rng`,
//!   `RandomState`) or environment-dependent entropy (`env::var`)
//!   anywhere except the bench-harness wall-time allowlist
//!   ([`WALLCLOCK_ALLOWLIST`]). Simulated pricing must never observe
//!   host time or entropy.
//! * **LINT3 pricing-discipline** — no direct [`Timeline`] event pushes,
//!   raw `TimelineEvent` construction or lane-clock mutation outside
//!   `dgnn-device` internals, so all priced work flows through
//!   `Dispatcher`/`Executor` (priced = computed).
//! * **LINT4 structural-coverage** — every sanitizer RULE1–8 must have
//!   ≥ 1 adversarial test and ≥ 1 clean-twin test, and every
//!   `InferenceConfig` knob must be exercised by at least one bench bin
//!   or ablation.
//! * **LINT5 float-reduction-order** — unordered `.sum::<f32>()` /
//!   `.fold(…)` float reductions in parallel modules (files that spawn
//!   threads): float addition is not associative, so reducing over an
//!   unordered source makes the result scheduling-dependent.
//!
//! [`Timeline`]: ../../dgnn_device/struct.Timeline.html

use std::fmt;

/// Crates whose control flow decides what gets priced and in which
/// order; hash iteration there is a determinism hazard (LINT1).
pub const DECISION_PATH_CRATES: [&str; 4] = ["serve", "device", "dyngraph", "models"];

/// Files allowed to read the wall clock (LINT2): the bench crate's
/// `harness` module, whose measurements are report-only and never feed
/// simulated pricing. Paths are workspace-relative.
pub const WALLCLOCK_ALLOWLIST: [&str; 1] = ["crates/bench/src/harness.rs"];

/// The five static rule classes `dgnn-lint` checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintRule {
    /// Iteration over a `HashMap`/`HashSet` in a decision-path crate.
    HashIteration,
    /// Wall-clock, RNG or environment entropy outside the allowlist.
    NondeterminismSource,
    /// Timeline pushes / lane-clock mutation outside `dgnn-device`.
    PricingDiscipline,
    /// Missing adversarial/clean-twin sanitizer test or unexercised
    /// `InferenceConfig` knob.
    StructuralCoverage,
    /// Unordered float reduction in a parallel module.
    FloatReductionOrder,
}

impl LintRule {
    /// All rules, in report order.
    pub const ALL: [LintRule; 5] = [
        LintRule::HashIteration,
        LintRule::NondeterminismSource,
        LintRule::PricingDiscipline,
        LintRule::StructuralCoverage,
        LintRule::FloatReductionOrder,
    ];

    /// Stable rule identifier (`LINT1`..`LINT5`).
    pub fn id(self) -> &'static str {
        match self {
            LintRule::HashIteration => "LINT1",
            LintRule::NondeterminismSource => "LINT2",
            LintRule::PricingDiscipline => "LINT3",
            LintRule::StructuralCoverage => "LINT4",
            LintRule::FloatReductionOrder => "LINT5",
        }
    }

    /// Human-readable rule slug (also the `lint: allow(<slug>)` key).
    pub fn slug(self) -> &'static str {
        match self {
            LintRule::HashIteration => "hash-iteration",
            LintRule::NondeterminismSource => "nondeterminism-source",
            LintRule::PricingDiscipline => "pricing-discipline",
            LintRule::StructuralCoverage => "structural-coverage",
            LintRule::FloatReductionOrder => "float-reduction-order",
        }
    }

    /// Suggested fix attached to every finding of this rule.
    pub fn suggestion(self) -> &'static str {
        match self {
            LintRule::HashIteration => {
                "iterate a BTreeMap/BTreeSet (or sort the keys first) so \
                 the order is independent of hasher state; keep HashMap \
                 only for point lookups, or justify the iteration with \
                 `// lint: allow(hash-iteration) — <why order cannot \
                 leak>`"
            }
            LintRule::NondeterminismSource => {
                "route wall-time through dgnn_bench::harness::walltime() \
                 (report-only), derive randomness from the seeded \
                 deterministic RNG streams, and pass configuration \
                 explicitly instead of reading the environment"
            }
            LintRule::PricingDiscipline => {
                "price the work through Dispatcher/Executor (launch, \
                 transfer, peer_transfer, record_event) so every timeline \
                 event stays paired with its computed work; never push \
                 events or mutate lane clocks by hand outside dgnn-device"
            }
            LintRule::StructuralCoverage => {
                "add the missing adversarial (flagged) or clean-twin test \
                 for the sanitizer rule in crates/analysis/tests, or \
                 exercise the InferenceConfig knob from at least one \
                 bench bin or ablation"
            }
            LintRule::FloatReductionOrder => {
                "reduce over an ordered source (slice, Vec, BTreeMap) or \
                 collect-then-sort before summing: float addition is not \
                 associative, so an unordered reduction makes the value \
                 depend on scheduling"
            }
        }
    }
}

impl fmt::Display for LintRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.id(), self.slug())
    }
}

/// Which rules a run checks (the fixture tests enable one at a time;
/// the CLI enables all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSet {
    enabled: Vec<LintRule>,
}

impl RuleSet {
    /// All five rules.
    pub fn all() -> Self {
        RuleSet {
            enabled: LintRule::ALL.to_vec(),
        }
    }

    /// Just the given rules.
    pub fn only(rules: &[LintRule]) -> Self {
        RuleSet {
            enabled: rules.to_vec(),
        }
    }

    /// Whether a rule is enabled.
    pub fn has(&self, rule: LintRule) -> bool {
        self.enabled.contains(&rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_stable_and_distinct() {
        let ids: Vec<&str> = LintRule::ALL.iter().map(|r| r.id()).collect();
        assert_eq!(ids, vec!["LINT1", "LINT2", "LINT3", "LINT4", "LINT5"]);
        let mut slugs: Vec<&str> = LintRule::ALL.iter().map(|r| r.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), 5, "slugs must be distinct");
    }

    #[test]
    fn rule_sets_filter() {
        let rs = RuleSet::only(&[LintRule::HashIteration]);
        assert!(rs.has(LintRule::HashIteration));
        assert!(!rs.has(LintRule::PricingDiscipline));
        assert!(RuleSet::all().has(LintRule::FloatReductionOrder));
    }
}
