//! Figure 6: the selection intuition on the toy dataset.
//!
//! Setup mirrors the paper's illustration: two dominant clusters already
//! have LFs (their labels are largely decided); two small clusters are
//! unlabeled. Random sampling mostly re-selects the big clusters (their
//! probability mass dominates); SEU should prefer the small, unlabeled
//! clusters whose examples lead to complementary LFs.

use nemo_bench::{write_csv, Table};
use nemo_core::config::IdpConfig;
use nemo_core::idp::{RandomSelector, Selector};
use nemo_core::oracle::SimulatedUser;
use nemo_core::pipeline::StandardPipeline;
use nemo_core::session::Session;
use nemo_core::seu::SeuSelector;
use nemo_data::catalog::toy_text;
use nemo_sparse::DetRng;

/// Fraction of next-selections landing in the small clusters (2 and 3),
/// measured after seeding LFs from the two dominant clusters.
fn small_cluster_rate(selector: &mut dyn Selector, seed: u64) -> f64 {
    let ds = toy_text(11);
    let config = IdpConfig { n_iterations: 0, eval_every: 5, seed, ..Default::default() };
    let mut session = Session::new(&ds, config);
    let mut random = RandomSelector;
    let (mut user, mut pipeline) = (SimulatedUser::default(), StandardPipeline);
    // Seed: 8 scripted steps whose dev examples come from clusters 0/1
    // only (mimicking the figure's starting state). We emulate this by
    // running the session until 8 LFs from big clusters are collected.
    let mut collected = 0;
    while collected < 8 {
        let rec = session.round(&mut random, &mut user, &mut pipeline).expect("round resolves");
        match rec.selected {
            Some(x) if ds.train.clusters[x] <= 1 && !rec.new_lfs.is_empty() => collected += 1,
            _ => {}
        }
        if session.iteration() > 200 {
            break;
        }
    }
    // Measure where the candidate selector would go next, over repeated
    // draws (without recording LFs).
    let mut rng = DetRng::new(seed ^ 0xf16);
    let mut small = 0usize;
    let n_draws = 200usize;
    let mut excluded = vec![false; ds.train.n()];
    for _ in 0..n_draws {
        let view = nemo_core::idp::SelectionView {
            ds: &ds,
            lineage: session.lineage(),
            matrix: session.matrix(),
            outputs: session.outputs(),
            excluded: &excluded,
            aggs: session.aggregates(),
        };
        if let Some(x) = selector.select(&view, &mut rng) {
            if ds.train.clusters[x] >= 2 {
                small += 1;
            }
            excluded[x] = true;
        }
    }
    small as f64 / n_draws as f64
}

fn main() {
    println!(
        "Figure 6 — selection intuition (toy: clusters 0/1 dominant+labeled, 2/3 small+unlabeled)"
    );
    let mut table = Table::new(&["Selector", "P(select small unlabeled cluster)"]);
    let mut csv = Vec::new();
    // The small clusters hold 20% of the probability mass, so random
    // selection lands there ~20% of the time.
    for (name, selector) in [
        ("Random", Box::new(RandomSelector) as Box<dyn Selector>),
        ("SEU", Box::new(SeuSelector::new())),
    ] {
        let mut rates = Vec::new();
        let mut sel = selector;
        for seed in 0..3u64 {
            rates.push(small_cluster_rate(sel.as_mut(), 900 + seed));
        }
        let rate = rates.iter().sum::<f64>() / rates.len() as f64;
        table.row(vec![name.to_string(), format!("{rate:.3}")]);
        csv.push(vec![name.to_string(), format!("{rate:.4}")]);
    }
    table.print("Paper Fig. 6: SEU should exceed Random's ~0.20 baseline rate:");
    write_csv("fig6_selection_intuition", &["selector", "small_cluster_rate"], &csv);
}
