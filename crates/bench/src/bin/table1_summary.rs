//! Regenerates Table 1: the taxonomy of the eight profiled DGNNs.

use dgnn_bench::parse_opts;
use dgnn_models::all_model_infos;
use dgnn_profile::TextTable;

fn main() {
    // The taxonomy reads no option; this only rejects unknown arguments.
    parse_opts(&[]);
    let mut t = TextTable::new(
        "Table 1 — Summary of the DGNNs profiled in this work",
        &[
            "DGNN",
            "type",
            "node feat",
            "edge feat",
            "topology",
            "weights",
            "time encoding",
            "tasks",
        ],
    );
    let check = |b: bool| if b { "yes" } else { "" }.to_string();
    for info in all_model_infos() {
        t.row(&[
            info.name.to_string(),
            info.kind.to_string(),
            check(info.evolving.node_features),
            check(info.evolving.edge_features),
            check(info.evolving.topology),
            check(info.evolving.weights),
            info.time_encoding.to_string(),
            info.tasks.to_string(),
        ]);
    }
    print!("{}", t.render());
}
