//! The bins' command line: an argument a bin does not read, or a value
//! it cannot run, stops it before it does any work, so a mistyped flag
//! can neither run the wrong sweep, pass a gate having checked nothing,
//! nor overwrite a committed `BENCH_*.json` baseline.

use std::path::PathBuf;
use std::process::Command;

/// Runs `bin` with `args` in an empty directory of its own, asserts it
/// exits non-zero naming `bad` on stderr, and that it wrote no file.
fn rejects(bin: &str, args: &[&str], bad: &str) {
    let name = PathBuf::from(bin);
    let name = name.file_name().expect("bin path has a file name");
    let dir = std::env::temp_dir().join(format!(
        "dgnn-bench-cli-{}-{}",
        std::process::id(),
        name.to_string_lossy()
    ));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("read the run directory")
        .map(|entry| entry.expect("directory entry").file_name())
        .collect();
    std::fs::remove_dir_all(&dir).expect("remove the run directory");

    assert!(!out.status.success(), "{bin} {args:?} exited 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("`{bad}`")),
        "{bin} {args:?} should name `{bad}`, printed: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{bin} {args:?} did work before failing"
    );
    assert!(written.is_empty(), "{bin} {args:?} wrote {written:?}");
}

#[test]
fn pipeline_overlap_rejects_a_mistyped_smoke() {
    rejects(
        env!("CARGO_BIN_EXE_pipeline_overlap"),
        &["--smok"],
        "--smok",
    );
}

#[test]
fn table1_summary_rejects_a_mistyped_scale() {
    rejects(
        env!("CARGO_BIN_EXE_table1_summary"),
        &["--scael", "tiny"],
        "--scael",
    );
}

#[test]
fn sanitize_rejects_a_model_it_cannot_run() {
    rejects(
        env!("CARGO_BIN_EXE_sanitize"),
        &["--scale", "tiny", "--model", "gpt"],
        "gpt",
    );
}

#[test]
fn fig6_mem_util_rejects_a_panel_it_does_not_have() {
    rejects(env!("CARGO_BIN_EXE_fig6_mem_util"), &["--panel", "e"], "e");
}
