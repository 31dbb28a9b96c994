//! `dgnn-analysis` — a compute-sanitizer-style hazard checker for the
//! simulated stream machine.
//!
//! The virtual platform in `dgnn-device` executes models on a three-lane
//! CUDA-style stream machine (host / copy / compute) with virtual
//! per-lane clocks, `record_event`/`wait_event` synchronization and
//! fork/join boundaries. Just like real asynchronous GPU code, a model
//! driver can be *numerically* correct while its recorded schedule is
//! racy: a kernel consuming a buffer whose H2D copy it never waited on,
//! a download racing a compute-lane producer, coalesce-staged bytes that
//! were never flushed into a priced transfer.
//!
//! This crate replays the causal provenance log
//! ([`ExecTrace`](dgnn_device::ExecTrace), recorded by
//! [`Executor::enable_tracing`](dgnn_device::Executor::enable_tracing))
//! together with the [`Timeline`](dgnn_device::Timeline) through a
//! vector-clock happens-before engine and checks eight hazard
//! rules (see [`HazardRule`]) — including RULE7, which guards the
//! streaming delta-log graph: a sample must never read an appended
//! region whose ingest work had not completed by the read's start,
//! and RULE8, which balances cross-device peer traffic per device
//! pair. It is entirely post-hoc: run the model,
//! then [`audit`] the executor. Tracing off means zero cost and nothing
//! to analyze.
//!
//! ```
//! use dgnn_device::{Executor, PlatformSpec, ExecMode};
//!
//! let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
//! ex.enable_tracing();
//! // ... drive a model ...
//! let report = dgnn_analysis::audit(&ex);
//! assert!(report.is_clean(), "{report}");
//! ```

#![forbid(unsafe_code)]

mod hb;
mod report;
mod rules;

pub use report::{Hazard, HazardRule, SanitizeStats, SanitizerReport};
pub use rules::{sanitize, BusyClaim};

use dgnn_device::{DurationNs, Executor};

/// Audits a finished (or in-flight) executor: replays its provenance
/// trace against its timeline and additionally cross-checks the
/// whole-run GPU busy fraction ([`Timeline::gpu_busy_fraction`]) against
/// an independently computed interval union (RULE6).
///
/// # Panics
///
/// Panics if tracing was never enabled on `ex` — auditing an empty trace
/// would vacuously pass, which is worse than failing loudly. Call
/// [`Executor::enable_tracing`] before running the model.
///
/// [`Timeline::gpu_busy_fraction`]: dgnn_device::Timeline::gpu_busy_fraction
/// [`Executor::enable_tracing`]: dgnn_device::Executor::enable_tracing
pub fn audit(ex: &Executor) -> SanitizerReport {
    let trace = ex.trace().expect(
        "sanitizer: provenance tracing is off — call Executor::enable_tracing() \
         before running the model so there is a trace to audit",
    );
    let timeline = ex.timeline();
    let span_end = timeline.span_end();
    let claim = BusyClaim {
        win_start: DurationNs::ZERO,
        win_end: span_end,
        fraction: timeline.gpu_busy_fraction(DurationNs::ZERO, span_end),
    };
    sanitize(timeline, trace, Some(&claim))
}
