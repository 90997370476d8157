//! The paper's running example (Example 1.1): sentiment classification on
//! product reviews from several categories, where keyword meaning shifts
//! across categories ("funny" is praise for a movie, suspicious for food).
//!
//! This example makes the two phenomena of Figure 2 concrete on generated
//! data — keyword LFs (a) cover mostly the category they were developed
//! in, and (b) lose accuracy away from it — then shows the contextualizer
//! exploiting exactly that structure.
//!
//! ```text
//! cargo run --release --example sentiment_products
//! ```

use nemo::core::contextualizer::Contextualizer;
use nemo::data::catalog;
use nemo::lf::{LabelMatrix, Lineage};
use nemo::prelude::*;

fn main() {
    let dataset = catalog::build(DatasetName::Amazon, Profile::Smoke, 11);
    let user = SimulatedUser::default();
    let n_clusters = 1 + *dataset.train.clusters.iter().max().unwrap() as usize;

    // Collect a handful of high-quality user LFs from distinct categories.
    let mut rng = nemo::sparse::DetRng::new(3);
    let mut lineage = Lineage::new();
    let mut per_cluster = vec![0usize; n_clusters];
    let mut x = 0usize;
    while lineage.len() < 6 && x < dataset.train.n() {
        let cluster = dataset.train.clusters[x] as usize;
        if per_cluster[cluster] < 2 {
            if let Some(lf) = {
                let mut u = user.clone();
                nemo::core::oracle::User::provide_lf(&mut u, x, &dataset, &mut rng)
            } {
                let acc = lf
                    .accuracy_against(&dataset.train.corpus, &dataset.train.labels)
                    .unwrap_or(0.0);
                if acc >= 0.7 {
                    lineage.record(lf, x as u32, lineage.len() as u32);
                    per_cluster[cluster] += 1;
                }
            }
        }
        x += 3;
    }

    // Phenomenon: per-category coverage and accuracy of each LF.
    println!("per-category behaviour of user keyword LFs (dev category marked *):\n");
    for (j, rec) in lineage.tracked().iter().enumerate() {
        let dev_cluster = dataset.train.clusters[rec.dev_example as usize];
        print!("  λ{}(\"{}\" → {}):", j, dataset.primitive_name(rec.lf.z), rec.lf.y);
        for k in 0..n_clusters as u32 {
            let members: Vec<usize> =
                (0..dataset.train.n()).filter(|&i| dataset.train.clusters[i] == k).collect();
            let covered: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&i| dataset.train.corpus.contains(i, rec.lf.z))
                .collect();
            let acc = if covered.is_empty() {
                f64::NAN
            } else {
                covered.iter().filter(|&&i| dataset.train.labels[i] == rec.lf.y).count() as f64
                    / covered.len() as f64
            };
            let marker = if k == dev_cluster { "*" } else { " " };
            if acc.is_nan() {
                print!("  cat{k}{marker}: —        ");
            } else {
                print!(
                    "  cat{k}{marker}: {:>4.0}%/{:>2.0}%",
                    100.0 * covered.len() as f64 / members.len() as f64,
                    100.0 * acc
                );
            }
        }
        println!();
    }
    println!("\n  (per category: coverage% / accuracy% — both are highest in the dev category)");

    // The contextualizer acting on this structure.
    let p_grid = vec![25.0, 50.0, 100.0];
    let mut ctx =
        Contextualizer::new(ContextualizerConfig { p_grid: p_grid.clone(), ..Default::default() });
    ctx.sync(&lineage, &dataset);
    let vote_acc = |m: &LabelMatrix| -> (usize, f64) {
        let (mut correct, mut total) = (0usize, 0usize);
        for col in m.columns() {
            for &(i, v) in col.entries() {
                total += 1;
                if Label::from_sign(v) == Some(dataset.train.labels[i as usize]) {
                    correct += 1;
                }
            }
        }
        (total, correct as f64 / total.max(1) as f64)
    };
    println!("\ncontextualizer refinement (radius = p-th percentile of distances to dev data):");
    for p in p_grid {
        let (refined, _) = ctx.refined(p).expect("p is on the grid");
        let (votes, acc) = vote_acc(refined);
        println!("  p = {p:>3}: {votes:>5} votes at {:.1}% accuracy", 100.0 * acc);
    }
    println!(
        "\nshrinking the radius trades coverage for vote accuracy — Nemo tunes p on validation."
    );
}
