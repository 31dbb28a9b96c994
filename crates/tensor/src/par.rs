//! The process's worker-thread width.
//!
//! Every map in the workspace runs inline on the calling thread, so no
//! result depends on this number. [`max_threads`] reports it, read from
//! `RAYON_NUM_THREADS` when set and falling back to the machine's core
//! count, which is read once per process.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Worker threads the process should use: `RAYON_NUM_THREADS` when set
/// to a positive integer, otherwise the machine's available parallelism.
/// The variable is read on every call, so a program may change it while
/// it runs; the core count is read once.
pub fn max_threads() -> usize {
    // lint: allow(nondeterminism-source) — the width is only reported; every map runs inline, so no computed value reads it
    match std::env::var("RAYON_NUM_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

/// The machine's available parallelism, read once per process: each
/// read reaches the OS (cgroup files on Linux) and costs microseconds.
fn default_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
