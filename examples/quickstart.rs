//! Quickstart: run Nemo's full interactive loop on a small sentiment task
//! with a simulated user, and compare against the prevailing Snorkel
//! workflow (random selection, no contextualization).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use nemo::baselines::{run_method, Method, RunSpec};
use nemo::data::catalog;
use nemo::prelude::*;

fn main() {
    // 1. A dataset. The catalog regenerates the paper's six evaluation
    //    datasets synthetically; `Profile::Smoke` keeps this example fast.
    let dataset = catalog::build(DatasetName::Amazon, Profile::Smoke, 42);
    println!(
        "dataset: {} — {} unlabeled training examples, {} primitives",
        dataset.name,
        dataset.train.n(),
        dataset.n_primitives
    );

    // 2. Nemo: SEU selection + contextualized learning, 30 interactive
    //    iterations, evaluating the end model every 5.
    let config = IdpConfig { n_iterations: 30, eval_every: 5, seed: 7, ..Default::default() };
    let mut nemo = NemoSystem::new(&dataset, config.clone());
    let mut user = SimulatedUser::default();
    // invariant: a fresh system holds no pending suggestion.
    let nemo_curve = nemo.run_with_user(&mut user).expect("fresh system");

    println!("\nNemo learning curve (iteration → test accuracy):");
    for &(iter, score) in nemo_curve.points() {
        println!("  {iter:>3} → {score:.3}");
    }
    println!("  curve score (mean): {:.3}", nemo_curve.summary());

    // 3. A few of the LFs the (simulated) user created, with lineage.
    println!("\nfirst LFs collected (with their development examples):");
    for rec in nemo.lineage().tracked().iter().take(5) {
        println!(
            "  iteration {:>2}: λ({:?} → {}) from example #{}",
            rec.iteration,
            dataset.primitive_name(rec.lf.z),
            rec.lf.y,
            rec.dev_example
        );
    }

    // 4. The same budget under the prevailing workflow (Snorkel).
    let spec = RunSpec { idp: config, ..Default::default() };
    let snorkel_curve = run_method(Method::Snorkel, &dataset, &spec);
    println!(
        "\nSnorkel (random selection, standard learning): curve score {:.3}",
        snorkel_curve.summary()
    );
    println!(
        "Nemo:                                           curve score {:.3}",
        nemo_curve.summary()
    );
}
