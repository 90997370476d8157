//! Integration tests for the statistical properties the reproduction
//! depends on — the planted structure of the generators (paper Figures
//! 2–3) and the qualitative behaviour of the core components on it.

use nemo::core::config::ContextualizerConfig;
use nemo::core::contextualizer::Contextualizer;
use nemo::core::oracle::SimulatedUser;
use nemo::data::catalog::{self, toy_text};
use nemo::data::{DatasetName, Profile, Rows};
use nemo::lf::{Label, LabelMatrix, LfColumn, Lineage};
use nemo::sparse::{DetRng, Distance};

/// Collect `n` simulated-user LFs with lineage from random dev points.
fn collect_lfs(ds: &nemo::data::Dataset, n: usize, seed: u64) -> (Lineage, LabelMatrix) {
    let user = SimulatedUser::default();
    let mut rng = DetRng::new(seed);
    let mut lineage = Lineage::new();
    let mut matrix = LabelMatrix::new(ds.train.n());
    let mut guard = 0;
    while lineage.len() < n && guard < 50 * n {
        guard += 1;
        let x = rng.index(ds.train.n());
        let cands = user.candidates(x, ds);
        // Mirror `SimulatedUser::pick`: threshold-passing lexicon keywords
        // first (the LF family real users write), any passing primitive
        // otherwise. Background/shared tokens carry no planted
        // label-accuracy structure, so without this preference the
        // collected LFs would dilute the Figure 2 signal.
        let lex_passing: Vec<_> =
            cands.iter().filter(|&&(lf, a)| a >= 0.5 && ds.in_lexicon(lf.z)).collect();
        let passing: Vec<_> = if lex_passing.is_empty() {
            cands.iter().filter(|&&(_, a)| a >= 0.5).collect()
        } else {
            lex_passing
        };
        if passing.is_empty() {
            continue;
        }
        let (lf, _) = *passing[rng.index(passing.len())];
        lineage.record(lf, x as u32, lineage.len() as u32);
        matrix.push(LfColumn::from_lf(&lf, &ds.train.corpus));
    }
    (lineage, matrix)
}

#[test]
fn figure2_property_coverage_and_accuracy_decay_with_distance() {
    let ds = catalog::build(DatasetName::Amazon, Profile::Smoke, 77);
    let (lineage, _) = collect_lfs(&ds, 40, 7);
    let n = ds.train.n();
    let (mut cov_near, mut cov_far) = (0.0, 0.0);
    let (mut acc_near_num, mut acc_near_den) = (0.0, 0.0);
    let (mut acc_far_num, mut acc_far_den) = (0.0, 0.0);
    for rec in lineage.tracked() {
        let pivot = rec.dev_example as usize;
        let dists =
            ds.train.features.distances(Distance::Cosine, pivot, &ds.train.features, Rows::All);

        // Coverage locality (Figure 2, left): the near half of the pool
        // (by distance from the dev example) holds most of the coverage.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| dists[a].partial_cmp(&dists[b]).expect("finite"));
        let (near, far) = order.split_at(n / 2);
        let cov_of = |seg: &[usize]| -> f64 {
            seg.iter().filter(|&&i| ds.train.corpus.contains(i, rec.lf.z)).count() as f64
                / seg.len() as f64
        };
        cov_near += cov_of(near);
        cov_far += cov_of(far);

        // Accuracy locality (Figure 2, right): *within* the LF's
        // coverage, the nearest covered half is more accurate than the
        // farthest — the structure the percentile contextualizer exploits.
        // (Splitting the whole pool in half instead leaves almost no
        // covered examples in the far half — sharing the rare LF keyword
        // already makes a document near under TF-IDF cosine — so the far
        // accuracy estimate would be noise.)
        let mut covered: Vec<usize> =
            (0..n).filter(|&i| ds.train.corpus.contains(i, rec.lf.z)).collect();
        covered.sort_by(|&a, &b| dists[a].partial_cmp(&dists[b]).expect("finite"));
        let (cov_near_half, cov_far_half) = covered.split_at(covered.len() / 2);
        let correct_of =
            |seg: &[usize]| seg.iter().filter(|&&i| ds.train.labels[i] == rec.lf.y).count() as f64;
        acc_near_num += correct_of(cov_near_half);
        acc_near_den += cov_near_half.len() as f64;
        acc_far_num += correct_of(cov_far_half);
        acc_far_den += cov_far_half.len() as f64;
    }
    assert!(
        cov_near > cov_far * 1.3,
        "coverage must concentrate near the dev data: near {cov_near:.3} vs far {cov_far:.3}"
    );
    let acc_near = acc_near_num / acc_near_den.max(1.0);
    let acc_far = acc_far_num / acc_far_den.max(1.0);
    assert!(
        acc_near > acc_far + 0.03,
        "accuracy must decay with distance: near {acc_near:.3} vs far {acc_far:.3}"
    );
}

#[test]
fn contextualizer_raises_vote_accuracy_on_catalog_data() {
    let ds = catalog::build(DatasetName::Amazon, Profile::Smoke, 78);
    let (lineage, matrix) = collect_lfs(&ds, 25, 9);
    let mut ctx = Contextualizer::new(ContextualizerConfig::default());
    ctx.sync(&lineage, &ds);
    let vote_acc = |m: &LabelMatrix| -> f64 {
        let (mut c, mut t) = (0usize, 0usize);
        for col in m.columns() {
            for &(i, v) in col.entries() {
                t += 1;
                if Label::from_sign(v) == Some(ds.train.labels[i as usize]) {
                    c += 1;
                }
            }
        }
        c as f64 / t.max(1) as f64
    };
    let raw = vote_acc(&matrix);
    let refined = vote_acc(ctx.refined(25.0).expect("default grid point").0);
    assert!(
        refined >= raw,
        "refinement must not lower vote accuracy: refined {refined:.3} vs raw {raw:.3}"
    );
}

#[test]
fn refinement_radius_transfers_to_validation_split() {
    let ds = toy_text(31);
    let (lineage, _) = collect_lfs(&ds, 10, 3);
    let mut ctx = Contextualizer::new(ContextualizerConfig::default());
    ctx.sync(&lineage, &ds);
    // At p=100 the validation matrix equals the raw application of LFs
    // to the validation corpus; at p=25 it is a subset.
    let (_, full) = ctx.refined(100.0).expect("default grid point");
    let (_, tight) = ctx.refined(25.0).expect("default grid point");
    for j in 0..lineage.len() {
        assert!(tight.column(j).coverage() <= full.column(j).coverage());
    }
}

#[test]
fn generated_catalog_matches_table1_scaling() {
    for name in DatasetName::ALL {
        let ds = catalog::build(name, Profile::Smoke, 3);
        let (paper_train, paper_valid, paper_test) = name.paper_sizes();
        // Ratios hold up to the smoke floor.
        assert!(ds.train.n() <= paper_train);
        assert!(ds.valid.n() <= paper_valid.max(100));
        assert!(ds.test.n() <= paper_test.max(100));
        ds.validate();
    }
}

#[test]
fn sms_is_imbalanced_and_spam_lfs_exist() {
    let ds = catalog::build(DatasetName::Sms, Profile::Smoke, 3);
    assert!(ds.train.pos_frac() < 0.25);
    // The simulated user can produce spam-polarity LFs from spam
    // examples (not necessarily from every one — some spam messages
    // contain no sufficiently precise keyword).
    let user = SimulatedUser::default();
    let usable = (0..ds.train.n())
        .filter(|&i| ds.train.labels[i] == Label::Pos)
        .take(20)
        .any(|i| user.candidates(i, &ds).iter().any(|&(lf, acc)| lf.y == Label::Pos && acc > 0.5));
    assert!(usable, "some spam example should yield a usable spam LF");
}

#[test]
fn oracle_never_returns_out_of_domain_primitives() {
    let ds = catalog::build(DatasetName::Yelp, Profile::Smoke, 4);
    let mut user = SimulatedUser::default();
    let mut rng = DetRng::new(6);
    for x in (0..ds.train.n()).step_by(37) {
        if let Some(lf) = nemo::core::oracle::User::provide_lf(&mut user, x, &ds, &mut rng) {
            assert!((lf.z as usize) < ds.n_primitives);
            assert!(ds.train.corpus.contains(x, lf.z));
        }
    }
}
