//! `dgnn-lint` CLI: static determinism & pricing-discipline gate.
//!
//! ```text
//! dgnn-lint [--root DIR] [--json]
//! ```
//!
//! Exit status: `0` when the tree lints clean, `1` on any finding, `2`
//! on usage or I/O errors. CI runs `dgnn-lint --json`: the checked-in
//! tree must lint clean.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dgnn_lint::analyze_root;

struct Opts {
    root: Option<PathBuf>,
    json: bool,
}

fn usage() -> ! {
    eprintln!("usage: dgnn-lint [--root DIR] [--json]");
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        root: None,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => opts.root = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--json" => opts.json = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    opts
}

/// Nearest ancestor of the current directory holding a `[workspace]`
/// manifest (falls back to the current directory).
fn find_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        match dir.parent() {
            Some(p) => dir = p.to_path_buf(),
            None => return PathBuf::from("."),
        }
    }
}

fn main() -> ExitCode {
    let opts = parse_opts();
    let root = opts.root.unwrap_or_else(find_root);
    let report = match analyze_root(Path::new(&root)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dgnn-lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if opts.json {
        println!("{}", report.to_json());
    } else {
        print!("{report}");
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
