//! Chrome-trace export: the simulated equivalent of an Nsight Systems
//! `.nsys-rep`, viewable in `chrome://tracing` / Perfetto.
//!
//! Events are emitted in the Trace Event Format ("X" complete events):
//! GPU kernels, PCIe transfers, host work and warm-up each get their own
//! track (`tid`), and profiler scopes are emitted as a separate process
//! so module nesting is visible above the hardware lanes.

use dgnn_device::{EventCategory, Executor, Place};

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn track(place: Place, category: EventCategory) -> (u32, &'static str) {
    match (place, category) {
        (_, c) if c.is_warmup() => (3, "warmup"),
        (Place::Gpu, _) => (0, "gpu"),
        (Place::Pcie, _) => (1, "pcie"),
        (Place::Cpu, _) => (2, "cpu"),
    }
}

/// Serializes an executor's timeline and scopes as a Chrome-trace JSON
/// string. Durations are microseconds of *simulated* time.
///
/// ```
/// use dgnn_device::{ExecMode, Executor, OpDescriptor, PlatformSpec};
/// use dgnn_profile::chrome_trace;
///
/// let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
/// ex.scope("inference", |ex| { ex.launch(OpDescriptor::gemm("mm", 8, 8, 8)); });
/// let json = chrome_trace(&ex);
/// assert!(json.contains("\"traceEvents\""));
/// assert!(json.contains("\"mm\""));
/// ```
pub fn chrome_trace(ex: &Executor) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |entry: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&entry);
    };

    for e in ex.timeline().events() {
        let (tid, lane) = track(e.place, e.category);
        let args = format!(
            "{{\"scope\":\"{}\",\"flops\":{},\"bytes\":{},\"occupancy\":{:.4}}}",
            escape(&e.scope),
            e.flops,
            e.bytes,
            e.occupancy
        );
        push(
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{lane}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{args}}}",
                escape(e.label),
                e.start.as_nanos() as f64 / 1e3,
                e.duration().as_nanos() as f64 / 1e3,
            ),
            &mut first,
        );
    }
    for s in ex.scopes() {
        push(
            format!(
                "{{\"name\":\"{}\",\"cat\":\"scope\",\"ph\":\"X\",\"pid\":2,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3}}}",
                escape(s.name()),
                s.depth,
                s.start.as_nanos() as f64 / 1e3,
                s.duration().as_nanos() as f64 / 1e3,
            ),
            &mut first,
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_device::{ExecMode, HostWork, OpDescriptor, PlatformSpec, TransferDir};

    fn sample_executor() -> Executor {
        let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
        ex.scope("inference", |ex| {
            ex.scope("sampling", |ex| {
                ex.host(HostWork::irregular("sample", 1_000, 2_048));
            });
            ex.transfer(TransferDir::H2D, 4_096);
            ex.launch(OpDescriptor::gemm("mm", 16, 16, 16));
        });
        ex
    }

    #[test]
    fn trace_is_valid_jsonish_and_complete() {
        let ex = sample_executor();
        let json = chrome_trace(&ex);
        assert!(json.starts_with('{') && json.ends_with('}'));
        // One entry per timeline event + per scope.
        let entries = json.matches("\"ph\":\"X\"").count();
        assert_eq!(entries, ex.timeline().len() + ex.scopes().len());
        assert!(json.contains("\"memcpy_h2d\""));
        assert!(json.contains("\"cuda_context_init\""));
        assert!(json.contains("\"cat\":\"scope\""));
        // Balanced braces (cheap structural sanity).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn lanes_separate_gpu_pcie_cpu_warmup() {
        let json = chrome_trace(&sample_executor());
        for lane in [
            "\"cat\":\"gpu\"",
            "\"cat\":\"pcie\"",
            "\"cat\":\"cpu\"",
            "\"cat\":\"warmup\"",
        ] {
            assert!(json.contains(lane), "missing lane {lane}");
        }
    }

    #[test]
    fn labels_are_escaped() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
