//! Structured sanitizer diagnostics: rules, hazards, and the report.

use std::fmt;

use dgnn_device::TensorId;

/// The eight hazard classes the sanitizer checks (see `DESIGN.md` §3e
/// for RULE1–RULE6, §3g for RULE7 and §3i for RULE8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HazardRule {
    /// A device-side read of a tensor whose defining H2D upload (or
    /// adopt) has no happens-before edge to it — the copy may not have
    /// landed when the kernel runs.
    ReadBeforeTransfer,
    /// A device-side access after the buffer was downloaded or released,
    /// with no re-upload in between.
    UseAfterRelease,
    /// Conflicting cross-lane accesses to one buffer with no
    /// `record_event`/`wait_event` chain ordering them (or a wait on an
    /// event index the active fork never recorded).
    MissingWait,
    /// Per-lane virtual clocks moved backwards, lane events overlap on
    /// one lane, or a join's serial clock precedes a lane clock.
    ClockMonotonicity,
    /// Coalesce-staged bytes not conserved: staged ≠ flushed, priced
    /// transfers don't cover the crossings, or a priced record doesn't
    /// match its timeline event.
    ByteConservation,
    /// A claimed GPU busy fraction disagrees with the interval-union
    /// reference computed from the timeline (per-event sums double-count
    /// overlapping kernels).
    BusyFraction,
    /// A streaming-graph sample that reads a delta region not
    /// happens-before-ordered after the append that wrote it: the
    /// snapshot's visible prefix contains an append whose Host-lane
    /// work completes after the read begins (or was never logged at
    /// all), or the ingest watermark / visibility instants regressed
    /// across appends.
    SampleAfterAppend,
    /// Cross-device peer bytes not conserved: a dispatcher-logged peer
    /// crossing was never priced on an interconnect edge, a priced peer
    /// record doesn't match its timeline event (category, bytes, route,
    /// destination device), or a transfer was priced between a device
    /// and itself.
    PeerConservation,
}

impl HazardRule {
    /// All rules, in report order.
    pub const ALL: [HazardRule; 8] = [
        HazardRule::ReadBeforeTransfer,
        HazardRule::UseAfterRelease,
        HazardRule::MissingWait,
        HazardRule::ClockMonotonicity,
        HazardRule::ByteConservation,
        HazardRule::BusyFraction,
        HazardRule::SampleAfterAppend,
        HazardRule::PeerConservation,
    ];

    /// Stable rule identifier (`RULE1`..`RULE8`).
    pub fn id(self) -> &'static str {
        match self {
            HazardRule::ReadBeforeTransfer => "RULE1",
            HazardRule::UseAfterRelease => "RULE2",
            HazardRule::MissingWait => "RULE3",
            HazardRule::ClockMonotonicity => "RULE4",
            HazardRule::ByteConservation => "RULE5",
            HazardRule::BusyFraction => "RULE6",
            HazardRule::SampleAfterAppend => "RULE7",
            HazardRule::PeerConservation => "RULE8",
        }
    }

    /// Human-readable rule slug.
    pub fn slug(self) -> &'static str {
        match self {
            HazardRule::ReadBeforeTransfer => "read-before-transfer",
            HazardRule::UseAfterRelease => "use-after-release",
            HazardRule::MissingWait => "missing-wait",
            HazardRule::ClockMonotonicity => "clock-monotonicity",
            HazardRule::ByteConservation => "byte-conservation",
            HazardRule::BusyFraction => "busy-fraction",
            HazardRule::SampleAfterAppend => "sample-after-append",
            HazardRule::PeerConservation => "peer-conservation",
        }
    }

    /// Suggested fix attached to every hazard of this rule.
    pub fn suggestion(self) -> &'static str {
        match self {
            HazardRule::ReadBeforeTransfer => {
                "record an event on the uploading lane after the copy and \
                 wait on it from the consuming lane before the kernel \
                 reads the tensor"
            }
            HazardRule::UseAfterRelease => {
                "re-upload the tensor with ensure_resident before reusing \
                 it, or move the download/release after the last access"
            }
            HazardRule::MissingWait => {
                "order the two lanes with record_event/wait_event \
                 between the conflicting accesses, and only wait on \
                 events recorded by the active fork"
            }
            HazardRule::ClockMonotonicity => {
                "check fork/join pairing: lane clocks must never rewind, \
                 lane events must not overlap on one lane, and the joined \
                 serial clock must cover every lane"
            }
            HazardRule::ByteConservation => {
                "call flush_transfers before the dispatcher is dropped (and \
                 once per batch on the copy lane) so every staged byte is \
                 priced exactly once"
            }
            HazardRule::BusyFraction => {
                "compute busy fractions as an interval union over the \
                 window (gpu_busy_fraction), never as a per-event duration \
                 sum, which double-counts overlapping kernels"
            }
            HazardRule::SampleAfterAppend => {
                "cap the sampled snapshot at the events whose append work \
                 completed by the read's start (view_prefix over the \
                 visibility watermark), append in ingest order, and never \
                 let the watermark or visibility instants move backwards"
            }
            HazardRule::PeerConservation => {
                "price every cross-device fetch through Dispatcher::\
                 peer_transfer on the destination device so the crossing \
                 and its interconnect pricing stay paired, and never fetch \
                 from the device the work already runs on"
            }
        }
    }
}

impl fmt::Display for HazardRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.id(), self.slug())
    }
}

/// One detected hazard, with enough provenance to locate it.
#[derive(Debug, Clone)]
pub struct Hazard {
    /// Violated rule.
    pub rule: HazardRule,
    /// What happened, with byte counts / clock values where relevant.
    pub message: String,
    /// Components involved (e.g. `["copy", "compute"]`).
    pub lanes: Vec<&'static str>,
    /// Offending trace record indices, in program order.
    pub records: Vec<usize>,
    /// Related timeline event indices (best effort).
    pub events: Vec<usize>,
    /// Buffer the hazard concerns, when tensor-attributed.
    pub tensor: Option<TensorId>,
    /// Suggested fix (from [`HazardRule::suggestion`]).
    pub suggestion: &'static str,
}

impl fmt::Display for Hazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.message)?;
        if !self.lanes.is_empty() {
            write!(f, " (lanes: {})", self.lanes.join(" vs "))?;
        }
        if let Some(t) = self.tensor {
            write!(f, " (tensor #{t})")?;
        }
        if !self.records.is_empty() {
            write!(f, " (trace records {:?})", self.records)?;
        }
        if !self.events.is_empty() {
            write!(f, " (timeline events {:?})", self.events)?;
        }
        write!(f, "\n    fix: {}", self.suggestion)
    }
}

/// What the sanitizer looked at (for "zero hazards" to be meaningful).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanitizeStats {
    /// Trace records replayed.
    pub trace_records: usize,
    /// Timeline events checked.
    pub timeline_events: usize,
    /// Distinct tensors tracked.
    pub tensors: usize,
    /// Stream forks observed.
    pub forks: usize,
    /// Residence crossings observed (immediate + staged).
    pub crossings: usize,
    /// Priced PCIe bytes, indexed `[H2D, D2H]`.
    pub priced_bytes: [u64; 2],
    /// Streaming-graph appends replayed (RULE7 coverage).
    pub graph_appends: usize,
    /// Streaming-graph sample reads replayed (RULE7 coverage).
    pub graph_samples: usize,
    /// Rows served from the device-resident feature cache (legitimately
    /// unpriced — excluded from every byte-conservation ledger).
    pub cache_hit_rows: u64,
    /// Bytes those cache-served rows would otherwise have moved H2D.
    pub cache_hit_bytes: u64,
    /// Cross-device peer crossings replayed (RULE8 coverage).
    pub peer_crossings: usize,
    /// Bytes priced on interconnect edges (direct peer + host-staged).
    pub peer_bytes: u64,
}

/// The sanitizer's verdict over one recorded execution.
#[derive(Debug, Clone, Default)]
pub struct SanitizerReport {
    /// Detected hazards, in detection (program) order.
    pub hazards: Vec<Hazard>,
    /// Coverage statistics.
    pub stats: SanitizeStats,
}

impl SanitizerReport {
    /// Whether no hazard was detected.
    pub fn is_clean(&self) -> bool {
        self.hazards.is_empty()
    }

    /// Number of hazards of one rule.
    pub fn count(&self, rule: HazardRule) -> usize {
        self.hazards.iter().filter(|h| h.rule == rule).count()
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.stats;
        writeln!(
            f,
            "sanitizer: {} hazard(s) over {} trace records, {} timeline \
             events, {} tensors, {} fork(s), {} crossing(s), {} B H2D / {} B D2H priced, \
             {} graph append(s) / {} sample(s), {} cache-hit row(s) ({} B unpriced), \
             {} peer crossing(s) ({} B on interconnect)",
            self.hazards.len(),
            s.trace_records,
            s.timeline_events,
            s.tensors,
            s.forks,
            s.crossings,
            s.priced_bytes[0],
            s.priced_bytes[1],
            s.graph_appends,
            s.graph_samples,
            s.cache_hit_rows,
            s.cache_hit_bytes,
            s.peer_crossings,
            s.peer_bytes,
        )?;
        for h in &self.hazards {
            writeln!(f, "  {h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_stable_and_distinct() {
        let ids: Vec<&str> = HazardRule::ALL.iter().map(|r| r.id()).collect();
        assert_eq!(
            ids,
            vec!["RULE1", "RULE2", "RULE3", "RULE4", "RULE5", "RULE6", "RULE7", "RULE8"]
        );
        let slugs: Vec<&str> = HazardRule::ALL.iter().map(|r| r.slug()).collect();
        assert_eq!(slugs.len(), 8);
        assert!(slugs.contains(&"sample-after-append"));
        assert!(slugs.contains(&"peer-conservation"));
    }

    #[test]
    fn report_renders_hazards_and_counts() {
        let mut r = SanitizerReport::default();
        assert!(r.is_clean());
        r.hazards.push(Hazard {
            rule: HazardRule::MissingWait,
            message: "conflicting access".into(),
            lanes: vec!["copy", "compute"],
            records: vec![3, 7],
            events: vec![],
            tensor: Some(42),
            suggestion: HazardRule::MissingWait.suggestion(),
        });
        assert!(!r.is_clean());
        assert_eq!(r.count(HazardRule::MissingWait), 1);
        assert_eq!(r.count(HazardRule::BusyFraction), 0);
        let text = r.render();
        assert!(text.contains("RULE3 missing-wait"));
        assert!(text.contains("tensor #42"));
        assert!(text.contains("fix:"));
    }
}
