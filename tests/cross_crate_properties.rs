//! Cross-crate property-based tests: invariants that span the substrate
//! boundaries (generator → features → LFs → label model → end model),
//! checked with proptest over randomized configurations and seeds.

use nemo::core::oracle::SimulatedUser;
use nemo::data::catalog::toy_text;
use nemo::data::mixture::{MixtureConfig, MixtureModel};
use nemo::labelmodel::{LabelModel, MajorityVote, TripletModel};
use nemo::lf::{Label, LabelMatrix, LfColumn, PrimitiveLf};
use nemo::sparse::DetRng;
use proptest::prelude::*;

/// Random label matrix: n examples, m LFs with random accuracy/coverage.
fn random_matrix(n: usize, m: usize, seed: u64) -> (LabelMatrix, Vec<Label>) {
    let mut rng = DetRng::new(seed);
    let labels: Vec<Label> = (0..n).map(|_| Label::from_bool(rng.bernoulli(0.5))).collect();
    let mut matrix = LabelMatrix::new(n);
    for _ in 0..m {
        let acc = rng.uniform_in(0.55, 0.95);
        let cov = rng.uniform_in(0.05, 0.5);
        let mut entries = Vec::new();
        for (i, &y) in labels.iter().enumerate() {
            if rng.bernoulli(cov) {
                let vote = if rng.bernoulli(acc) { y.sign() } else { y.flip().sign() };
                entries.push((i as u32, vote));
            }
        }
        matrix.push(LfColumn::new(entries));
    }
    (matrix, labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every label model produces normalized posteriors with accuracies
    /// inside the clamp range, on arbitrary random matrices.
    #[test]
    fn label_models_produce_valid_posteriors(seed in 0u64..500, m in 0usize..8) {
        let (matrix, _) = random_matrix(200, m, seed);
        let models: Vec<Box<dyn LabelModel>> = vec![
            Box::new(MajorityVote::default()),
            Box::new(TripletModel::default()),
        ];
        for model in models {
            let fitted = model.fit(&matrix, [0.5, 0.5]);
            prop_assert_eq!(fitted.lf_accuracies().len(), m);
            for &a in fitted.lf_accuracies() {
                prop_assert!((0.05..=0.95).contains(&a), "{} acc {a}", model.name());
            }
            let post = fitted.predict(&matrix);
            prop_assert_eq!(post.len(), 200);
            for i in 0..200 {
                let [pn, pp] = post.probs(i);
                prop_assert!((pn + pp - 1.0).abs() < 1e-9);
                prop_assert!((0.0..=1.0).contains(&pp));
            }
        }
    }

    /// The mixture generator respects its configured class prior and
    /// produces tokens inside its vocabulary for arbitrary shapes.
    #[test]
    fn mixture_respects_domain(
        seed in 0u64..200,
        n_clusters in 1usize..5,
        n_ind in 4usize..24,
    ) {
        let cfg = MixtureConfig {
            n_clusters,
            n_shared: 30,
            n_background_per_cluster: 20,
            n_indicators: n_ind,
            ..MixtureConfig::default()
        };
        let vocab = cfg.vocab_size();
        let mut rng = DetRng::new(seed);
        let model = MixtureModel::new(cfg, &mut rng);
        for doc in model.sample_docs(50, &mut rng) {
            prop_assert!((doc.cluster as usize) < n_clusters);
            for &t in &doc.tokens {
                prop_assert!((t as usize) < vocab);
            }
        }
    }

    /// Oracle LFs always pass the configured threshold when any candidate
    /// does (the fallback only engages when nothing passes).
    #[test]
    fn oracle_respects_threshold_when_possible(seed in 0u64..100, x in 0usize..800) {
        let ds = toy_text(5);
        let x = x % ds.train.n();
        let threshold = 0.6;
        let mut user = SimulatedUser::with_threshold(threshold);
        let mut rng = DetRng::new(seed);
        let candidates = user.candidates(x, &ds);
        let any_passing = candidates.iter().any(|&(_, a)| a >= threshold);
        if let Some(lf) = nemo::core::oracle::User::provide_lf(&mut user, x, &ds, &mut rng) {
            let acc = lf
                .accuracy_against(&ds.train.corpus, &ds.train.labels)
                .expect("returned LF covers something");
            if any_passing {
                prop_assert!(acc >= threshold, "returned {acc} below threshold with passing candidates");
            }
        }
    }

    /// Applying then refining LFs never invents votes: the contextualized
    /// matrix is entrywise a sub-matrix of the raw one, at any percentile.
    #[test]
    fn refinement_is_entrywise_subset(seed in 0u64..50, p in 0.0f64..100.0) {
        use nemo::core::config::ContextualizerConfig;
        use nemo::core::contextualizer::Contextualizer;
        use nemo::lf::Lineage;
        let ds = toy_text(7);
        let mut rng = DetRng::new(seed);
        let mut lineage = Lineage::new();
        let mut matrix = LabelMatrix::new(ds.train.n());
        for _ in 0..5 {
            let x = rng.index(ds.train.n());
            let prims = ds.train.corpus.primitives_of(x);
            if prims.is_empty() {
                continue;
            }
            let z = prims[rng.index(prims.len())];
            let lf = PrimitiveLf::new(z, ds.train.labels[x]);
            lineage.record(lf, x as u32, lineage.len() as u32);
            matrix.push(LfColumn::from_lf(&lf, &ds.train.corpus));
        }
        let mut ctx =
            Contextualizer::new(ContextualizerConfig { p_grid: vec![p], ..Default::default() });
        ctx.sync(&lineage, &ds);
        let (refined, _) = ctx.refined(p).expect("p is the grid");
        for j in 0..matrix.n_lfs() {
            for &(i, v) in refined.column(j).entries() {
                prop_assert_eq!(matrix.column(j).vote(i), v);
            }
        }
    }

    /// End model training is invariant to the order of the index list:
    /// `fit` sorts the covered rows before its seeded shuffle, so the same
    /// seed over the same rows yields the same model, bit for bit.
    #[test]
    fn end_model_invariant_to_index_order(seed in 0u64..50) {
        use nemo::endmodel::{FittedLogReg, LogisticRegression};
        let ds = toy_text(7);
        let mut rng = DetRng::new(seed);
        let mut idx: Vec<u32> = (0..ds.train.n() as u32).filter(|_| rng.bernoulli(0.3)).collect();
        let targets: Vec<f64> =
            ds.train.labels.iter().map(|&l| if l == Label::Pos { 1.0 } else { 0.0 }).collect();
        let m1 = LogisticRegression::default().fit(ds.train.features.csr(), &targets, Some(&idx), 3);
        rng.shuffle(&mut idx);
        let m2 = LogisticRegression::default().fit(ds.train.features.csr(), &targets, Some(&idx), 3);
        let bits = |m: &FittedLogReg| m.weights().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&m1), bits(&m2));
        prop_assert_eq!(m1.bias().to_bits(), m2.bias().to_bits());
    }
}

#[test]
fn metal_moment_matches_gold_accuracies_on_dense_overlap() {
    // With large overlapping coverage the moment estimates must roughly
    // match each LF's accuracy measured against the gold labels.
    let (matrix, labels) = random_matrix(4000, 5, 99);
    let t = TripletModel::default().fit(&matrix, [0.5, 0.5]);
    for (j, a) in t.lf_accuracies().iter().enumerate() {
        let col = matrix.column(j);
        let correct =
            col.entries().iter().filter(|&&(i, v)| v == labels[i as usize].sign()).count();
        let gold = correct as f64 / col.coverage() as f64;
        assert!((a - gold).abs() < 0.12, "triplet {a:.3} vs gold {gold:.3}");
    }
}
