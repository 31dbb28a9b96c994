//! The workspace's one wall-clock read.
//!
//! Every number the experiment binaries print comes from the simulated
//! clock. Host wall time is measured only by the `perfbench` benchmark,
//! which times its runs and layers through [`walltime`].

use std::time::Instant;

/// The one sanctioned wall-clock read in the workspace.
///
/// Every other crate simulates time; host timings route through here so
/// `dgnn-lint`'s LINT2 allowlist stays a single file. Wall time is
/// **report-only**: it never feeds back into simulated pricing,
/// sampling or any other decision path.
pub fn walltime() -> Instant {
    Instant::now()
}
