//! Minimal deterministic fan-out over OS threads.
//!
//! The workspace builds offline with no external crates, so this module
//! stands in for rayon's `par_iter().map().collect()`: it splits a slice
//! into contiguous chunks, maps each chunk on a scoped thread, and
//! re-concatenates the per-chunk results **in chunk order**, so the
//! output is always identical to `items.iter().map(f).collect()`
//! regardless of thread count or scheduling.
//!
//! Callers pass the thread count. [`max_threads`] gives the process
//! default, read from `RAYON_NUM_THREADS` when set (the same knob rayon
//! honors, which is what CI uses to pin the suite to one thread) and
//! falling back to the machine's core count, which is read once per
//! process. [`workers_for`] sizes a fan-out by its work, so a call
//! spawns threads only when each worker gets about a millisecond of it:
//! spawning and joining a scoped thread costs tens of microseconds, more
//! than the small GEMMs and sampler batches of one inference step.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Fewest items worth shipping to a worker thread; below this the spawn
/// overhead dwarfs the work and the map runs inline.
const MIN_CHUNK: usize = 8;

/// Worker threads the process should use: `RAYON_NUM_THREADS` when set
/// to a positive integer, otherwise the machine's available parallelism.
/// The variable is read on every call, so a program may change it while
/// it runs; the core count is read once.
pub fn max_threads() -> usize {
    // lint: allow(nondeterminism-source) — thread count shapes pacing only; par_map_* output is chunk-ordered and identical at any width
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

/// Workers for `work` units when each worker should get at least
/// `per_worker` of them: `work / per_worker`, capped at [`max_threads`].
/// Below two workers' worth this is 1, without reading the environment.
pub fn workers_for(work: usize, per_worker: usize) -> usize {
    let wanted = work / per_worker.max(1);
    if wanted < 2 {
        1
    } else {
        wanted.min(max_threads())
    }
}

/// Maps `f` over `items` using up to `threads` worker threads.
///
/// Output order (and therefore content) is identical to the serial
/// `items.iter().map(f).collect()`, so tests can assert that any thread
/// count reproduces the serial result without touching the process
/// environment. Caps the workers so each gets at least `MIN_CHUNK`
/// items, then fans out as [`par_map_coarse`].
pub fn par_map_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_coarse(items, threads.min(items.len().div_ceil(MIN_CHUNK)), f)
}

/// [`par_map_threads`] for *coarse* items — each item is assumed to be a
/// substantial unit of work (a row block, a whole subgraph), so the
/// minimum-chunk heuristic is skipped: up to `threads` workers take one
/// contiguous run of items each, and results are concatenated in item
/// order, identical to the serial map.
pub fn par_map_coarse<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| scope.spawn(move || c.iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("par_map_coarse worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_map_matches_serial_for_every_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 5, 37, 64] {
            assert_eq!(
                par_map_coarse(&items, threads, |x| x * 3 + 1),
                serial,
                "threads={threads}"
            );
        }
        let empty: Vec<u64> = Vec::new();
        assert!(par_map_coarse(&empty, 4, |x| *x).is_empty());
    }

    #[test]
    fn matches_serial_map_for_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 7, 16, 64] {
            let par = par_map_threads(&items, threads, |x| x * x + 1);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_threads(&empty, 8, |x| *x).is_empty());
        assert_eq!(par_map_threads(&[41u32], 8, |x| x + 1), vec![42]);
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn workers_scale_with_work_and_stay_inline_below_two_shares() {
        assert_eq!(workers_for(0, 100), 1);
        assert_eq!(workers_for(199, 100), 1);
        assert_eq!(workers_for(200, 100), 2.min(max_threads()));
        assert_eq!(workers_for(usize::MAX, 100), max_threads());
        assert_eq!(workers_for(5, 0), 5.min(max_threads()));
    }
}
