//! Smoke-scale golden outputs of the paper-figure, sweep and sanitizer
//! binaries.
//!
//! Each test runs one bin at smoke scale — the paper-figure bins,
//! `sampling_throughput` and `sensitivity_sweep` at `--scale tiny
//! --seed 1`, the transfer and serving sweeps (`pipeline_overlap`,
//! `feature_cache`, `multi_gpu`, `serve_sweep`, `streaming_ingest`) at
//! `--smoke`, `serve_sweep` also at `--smoke --seed 2`, `sanitize` at
//! `--scale tiny --mode serial` — and compares its stdout byte for byte
//! with the file under `tests/golden/`. Every number those bins print
//! comes from the simulated clock, so a change that moves any priced
//! time, share, checksum or table row fails here; the sanitizer's
//! serial rows also pin each model's trace-record count. Debug and
//! release builds print the same bytes. `table2_warmup`, `sanitize`'s
//! other modes and a full `serve_sweep` are too slow in debug for this
//! file; CI diffs their release stdout against `table2_warmup.txt`,
//! `sanitize_all.txt` and `serve_sweep_full.txt` instead.
//!
//! To re-record after an intended change, run each bin with its
//! arguments at the parent commit and redirect its stdout to the golden
//! file, e.g. `target/release/fig7_breakdown --scale tiny --seed 1 >
//! crates/bench/tests/golden/fig7_breakdown.txt`.

use std::process::Command;

/// The paper-figure bins', `sampling_throughput`'s and
/// `sensitivity_sweep`'s smoke arguments.
const TINY: [&str; 4] = ["--scale", "tiny", "--seed", "1"];

fn check(bin: &str, args: &[&str], golden: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    assert!(out.status.success(), "{bin} failed: {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    if stdout != golden {
        let line = stdout
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(stdout.lines().count().min(golden.lines().count()));
        panic!(
            "{bin} stdout differs from its golden file from line {}:\n--- got ---\n{stdout}",
            line + 1
        );
    }
}

#[test]
fn table1_summary() {
    check(
        env!("CARGO_BIN_EXE_table1_summary"),
        &TINY,
        include_str!("golden/table1_summary.txt"),
    );
}

#[test]
fn fig6_mem_util() {
    check(
        env!("CARGO_BIN_EXE_fig6_mem_util"),
        &TINY,
        include_str!("golden/fig6_mem_util.txt"),
    );
}

#[test]
fn fig7_breakdown() {
    check(
        env!("CARGO_BIN_EXE_fig7_breakdown"),
        &TINY,
        include_str!("golden/fig7_breakdown.txt"),
    );
}

#[test]
fn fig8_cpu_gpu() {
    check(
        env!("CARGO_BIN_EXE_fig8_cpu_gpu"),
        &TINY,
        include_str!("golden/fig8_cpu_gpu.txt"),
    );
}

#[test]
fn fig9_astgnn_timeline() {
    check(
        env!("CARGO_BIN_EXE_fig9_astgnn_timeline"),
        &TINY,
        include_str!("golden/fig9_astgnn_timeline.txt"),
    );
}

#[test]
fn warmup_ratios() {
    check(
        env!("CARGO_BIN_EXE_warmup_ratios"),
        &TINY,
        include_str!("golden/warmup_ratios.txt"),
    );
}

#[test]
fn util_summary() {
    check(
        env!("CARGO_BIN_EXE_util_summary"),
        &TINY,
        include_str!("golden/util_summary.txt"),
    );
}

#[test]
fn ablation_optimizations() {
    check(
        env!("CARGO_BIN_EXE_ablation_optimizations"),
        &TINY,
        include_str!("golden/ablation_optimizations.txt"),
    );
}

#[test]
fn sampling_throughput() {
    check(
        env!("CARGO_BIN_EXE_sampling_throughput"),
        &TINY,
        include_str!("golden/sampling_throughput.txt"),
    );
}

#[test]
fn sensitivity_sweep() {
    check(
        env!("CARGO_BIN_EXE_sensitivity_sweep"),
        &TINY,
        include_str!("golden/sensitivity_sweep.txt"),
    );
}

#[test]
fn pipeline_overlap() {
    check(
        env!("CARGO_BIN_EXE_pipeline_overlap"),
        &["--smoke"],
        include_str!("golden/pipeline_overlap.txt"),
    );
}

#[test]
fn feature_cache() {
    check(
        env!("CARGO_BIN_EXE_feature_cache"),
        &["--smoke"],
        include_str!("golden/feature_cache.txt"),
    );
}

#[test]
fn multi_gpu() {
    check(
        env!("CARGO_BIN_EXE_multi_gpu"),
        &["--smoke"],
        include_str!("golden/multi_gpu.txt"),
    );
}

#[test]
fn serve_sweep() {
    check(
        env!("CARGO_BIN_EXE_serve_sweep"),
        &["--smoke"],
        include_str!("golden/serve_sweep.txt"),
    );
}

/// At a seed other than 1, so that `--seed` is seen to reach the
/// request stream as well as the datasets and weights.
#[test]
fn serve_sweep_seed2() {
    check(
        env!("CARGO_BIN_EXE_serve_sweep"),
        &["--smoke", "--seed", "2"],
        include_str!("golden/serve_sweep_seed2.txt"),
    );
}

#[test]
fn streaming_ingest() {
    check(
        env!("CARGO_BIN_EXE_streaming_ingest"),
        &["--smoke"],
        include_str!("golden/streaming_ingest.txt"),
    );
}

#[test]
fn sanitize_serial() {
    check(
        env!("CARGO_BIN_EXE_sanitize"),
        &["--scale", "tiny", "--mode", "serial"],
        include_str!("golden/sanitize_serial.txt"),
    );
}
