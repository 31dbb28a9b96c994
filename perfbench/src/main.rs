//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload, prints its metrics and checks, and ends with one
//! JSON result line. Exits 1 when any output check fails and 2 on bad
//! arguments. A traced run also writes its spans to
//! `.bench_out/spans-<workload>-seed<N>.tsv` under the current
//! directory.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use dgnn_datasets::Scale;
use dgnn_perfbench::{render, run, spans_tsv, workloads::Workload, Options};

const USAGE: &str = "usage: perfbench --workload fleet_flash|stream_ingest|zoo_audit \
                     --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = dgnn_perfbench::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale: Scale::Small,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    if opts.trace {
        let path = format!(
            ".bench_out/spans-{}-seed{}.tsv",
            opts.workload.name(),
            opts.seed
        );
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, spans_tsv(&report.spans)));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
    print!("{}", render(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
