//! Visual relation classification (the paper's Visual Genome task):
//! "is the image's relationship *carrying* or *riding*?" with the image's
//! object annotations as LF primitives and dense embeddings as features.
//!
//! This exercises the configuration where the primitive domain (discrete
//! object tags) is *decoupled* from the feature space (dense embeddings):
//! the contextualizer measures distances in a space it did not derive the
//! primitives from.
//!
//! ```text
//! cargo run --release --example visual_relations
//! ```

use nemo::baselines::{run_method, Method, RunSpec};
use nemo::data::catalog;
use nemo::prelude::*;

fn main() {
    let dataset = catalog::build(DatasetName::Vg, Profile::Smoke, 31);
    println!(
        "dataset: {} — {} scenes, {}-dim embeddings, {} object tags",
        dataset.name,
        dataset.train.n(),
        dataset.train.features.dim(),
        dataset.n_primitives
    );

    // Peek at a scene the way the paper's UI would show it.
    let scene = 0usize;
    let objects: Vec<&str> = dataset
        .train
        .corpus
        .primitives_of(scene)
        .iter()
        .map(|&z| dataset.primitive_name(z))
        .collect();
    println!("\nscene #{scene}: objects {objects:?}");

    // Run Nemo with a simulated annotator who picks relation-indicative
    // objects ("horse" → riding; "backpack" → carrying).
    let config = IdpConfig { n_iterations: 30, eval_every: 5, seed: 3, ..Default::default() };
    let mut nemo = NemoSystem::new(&dataset, config.clone());
    let mut user = SimulatedUser::default();
    // invariant: a fresh system holds no pending suggestion.
    let curve = nemo.run_with_user(&mut user).expect("fresh system");
    println!(
        "\nNemo on VG: curve accuracy {:.3}, final {:.3}",
        curve.summary(),
        curve.final_score()
    );

    println!("\nobject LFs collected:");
    for rec in nemo.lineage().tracked().iter().take(6) {
        let relation = match rec.lf.y {
            nemo::lf::Label::Pos => "carrying",
            nemo::lf::Label::Neg => "riding",
        };
        println!("  scene contains \"{}\" → {relation}", dataset.primitive_name(rec.lf.z));
    }

    // Table 9's distance question matters most here: embeddings are not
    // L2-normalized TF-IDF, so cosine and euclidean genuinely differ.
    for method in [Method::ClOnly, Method::ClEuclidean, Method::Snorkel] {
        let spec = RunSpec { idp: config.clone(), ..Default::default() };
        let c = run_method(method, &dataset, &spec);
        println!("  {:<26} curve accuracy {:.3}", method.name(), c.summary());
    }
}
