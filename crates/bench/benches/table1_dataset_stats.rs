//! Table 1: dataset statistics.
//!
//! Prints the split sizes of every generated dataset next to the paper's
//! numbers, plus generator-level statistics (primitive-domain size, class
//! balance, mean primitives per example) that characterize the synthetic
//! datasets.

use nemo_bench::{write_csv, BenchProtocol, Table};
use nemo_data::DatasetName;

fn main() {
    let protocol = BenchProtocol::from_env();
    println!(
        "Table 1 — dataset statistics (profile: {}; paper sizes in parentheses)",
        protocol.profile.name()
    );
    let mut table = Table::new(&[
        "Dataset", "#Train", "#Valid", "#Test", "Metric", "|Z|", "P(y=+1)", "prims/ex", "lexicon",
    ]);
    let mut csv = Vec::new();
    for name in DatasetName::ALL {
        let ds = protocol.dataset(name);
        let (pt, pv, pe) = name.paper_sizes();
        table.row(vec![
            ds.name.clone(),
            format!("{} ({pt})", ds.train.n()),
            format!("{} ({pv})", ds.valid.n()),
            format!("{} ({pe})", ds.test.n()),
            ds.metric.name().to_string(),
            ds.n_primitives.to_string(),
            format!("{:.3}", ds.train.pos_frac()),
            format!("{:.1}", ds.train.corpus.mean_primitives_per_example()),
            ds.lexicon.len().to_string(),
        ]);
        csv.push(vec![
            ds.name.clone(),
            ds.train.n().to_string(),
            ds.valid.n().to_string(),
            ds.test.n().to_string(),
            ds.metric.name().to_string(),
            ds.n_primitives.to_string(),
            format!("{:.4}", ds.train.pos_frac()),
        ]);
    }
    table.print("Generated vs paper split sizes:");
    write_csv(
        "table1_dataset_stats",
        &["dataset", "n_train", "n_valid", "n_test", "metric", "n_primitives", "pos_frac"],
        &csv,
    );
}
