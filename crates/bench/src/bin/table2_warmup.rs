//! Regenerates Table 2: per-batch GPU warm-up (activation allocation)
//! versus computation for TGN and MolDGNN, across batch sizes.
//!
//! The paper's shape: TGN's warm-up is roughly constant in absolute
//! terms while its share of GPU working time grows as computation per
//! batch shrinks; MolDGNN's warm-up grows with batch size and reaches
//! ~90% share.
//!
//! Usage: `table2_warmup [--scale ...]`

use dgnn_bench::{build_model, measure, parse_opts};
use dgnn_device::{ExecMode, PlatformSpec};
use dgnn_models::InferenceConfig;
use dgnn_profile::WarmupReport;

/// Fixed total workload (events for TGN, molecule-frames for MolDGNN):
/// Table 2 holds the dataset constant and varies only the batch size, so
/// computation amortizes with larger batches while warm-up does not.
const TOTAL_WORK: usize = 8_192;

fn main() {
    let opts = parse_opts(&[]);
    for name in ["tgn", "moldgnn"] {
        let mut rows = Vec::new();
        for bs in [8usize, 32, 128, 512, 2_048, 8_192] {
            let mut m = build_model(name, opts.scale, opts.seed);
            let units = (TOTAL_WORK / bs).clamp(1, 256);
            let cfg = InferenceConfig::default()
                .with_batch_size(bs)
                .with_neighbors(10)
                .with_max_units(units);
            let run = measure(m.as_mut(), PlatformSpec::default(), ExecMode::Gpu, &cfg);
            rows.push((bs, run.profile.warmup));
        }
        print!("{}", WarmupReport::render_table2(name, &rows));
    }
}
