//! Extending the system: a custom `User` implementation and the multi-LF
//! mode of the paper's Sec. 7.
//!
//! The `User` trait is the integration point for real frontends — here a
//! scripted "domain expert" who only ever writes LFs over a fixed
//! vocabulary of trusted keywords, demonstrated in both the atomic
//! (one LF per iteration) and the multi-LF IDP settings.
//!
//! ```text
//! cargo run --release --example custom_user
//! ```

use nemo::core::multi_lf::multi_lf_selector;
use nemo::core::pipeline::ContextualizedPipeline;
use nemo::core::run_curve;
use nemo::data::catalog::toy_text;
use nemo::prelude::*;
use nemo::sparse::DetRng;

/// A scripted expert: writes an LF only when the shown example contains
/// one of their trusted keywords, with the keyword's fixed polarity.
struct KeywordExpert {
    trusted: Vec<(u32, nemo::lf::Label)>,
}

impl KeywordExpert {
    fn new(ds: &Dataset) -> Self {
        // Trust the five most frequent lexicon words, with the polarity
        // that maximizes training accuracy (an expert knows their domain).
        let mut lex: Vec<u32> = ds.lexicon.clone();
        lex.sort_by_key(|&z| std::cmp::Reverse(ds.train.corpus.index().df(z)));
        let trusted = lex
            .into_iter()
            .take(5)
            .map(|z| {
                let best = nemo::lf::Label::ALL
                    .into_iter()
                    .max_by(|&a, &b| {
                        let acc = |y| {
                            PrimitiveLf::new(z, y)
                                .accuracy_against(&ds.train.corpus, &ds.train.labels)
                                .unwrap_or(0.0)
                        };
                        acc(a).partial_cmp(&acc(b)).expect("finite accuracy")
                    })
                    .expect("two labels");
                (z, best)
            })
            .collect();
        Self { trusted }
    }
}

impl User for KeywordExpert {
    fn name(&self) -> &'static str {
        "keyword-expert"
    }

    fn provide_lf(&mut self, x: usize, ds: &Dataset, _rng: &mut DetRng) -> Option<PrimitiveLf> {
        self.trusted
            .iter()
            .find(|&&(z, _)| ds.train.corpus.contains(x, z))
            .map(|&(z, y)| PrimitiveLf::new(z, y))
    }
}

fn main() {
    let dataset = toy_text(5);

    // Atomic IDP with the custom user driving the full Nemo system.
    let config = IdpConfig { n_iterations: 12, eval_every: 4, seed: 1, ..Default::default() };
    let mut nemo = NemoSystem::new(&dataset, config.clone());
    let mut expert = KeywordExpert::new(&dataset);
    // invariant: a fresh system holds no pending suggestion.
    let curve = nemo.run_with_user(&mut expert).expect("fresh system");
    println!("scripted expert, atomic IDP:");
    for &(iter, score) in curve.points() {
        println!("  iteration {iter:>2} → test accuracy {score:.3}");
    }
    println!(
        "  {} LFs collected ({} iterations skipped: no trusted keyword in the shown example)",
        nemo.lineage().len(),
        nemo.iteration() - nemo.lineage().len()
    );

    // Multi-LF IDP (Sec. 7): up to 3 LFs per iteration with the Eq. 5–6
    // selector, driven through the generic session API.
    let multi_config = IdpConfig { lfs_per_iteration: 3, ..config };
    let mut session = Session::new(&dataset, multi_config);
    let multi_curve = run_curve(
        &mut session,
        &mut multi_lf_selector(),
        &mut SimulatedUser::default(),
        &mut ContextualizedPipeline::default(),
    )
    // invariant: a fresh session holds no pending suggestion.
    .expect("fresh session");
    println!(
        "\nmulti-LF IDP (simulated user, ≤3 LFs/iteration): {} LFs in {} iterations, curve score {:.3}",
        session.lineage().len(),
        session.iteration(),
        multi_curve.summary()
    );
}
