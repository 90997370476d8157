//! Differential property suite for the contextualizer's cross-round
//! refined-column cache.
//!
//! The cache serves each `(grid point, LF)` pair's filtered train/valid
//! columns keyed by the radius bits and the raw column's construction
//! token, so its correctness claim is **bitwise**: over any sequence of
//! rounds — lineage growth (new LFs), radius-unchanged rounds (repeat
//! tunes), radius-changed rounds (an edited percentile grid), and
//! raw-matrix replacement (token misses) — it must produce refined
//! matrices, tuned percentiles, validation scores, and dedup fit counts
//! identical to refiltering everything from scratch. The oracle is the
//! same contextualizer with its cache dropped before every call
//! (`invalidate_refined_cache_from(0)`), and, for the grid matrices, the
//! per-grid-point `refined_train_matrix` / `refined_valid_matrix`.
//! Non-vacuity is asserted through the cache counters: warm rounds must
//! actually hit, and a grown lineage must refilter only the new LFs.
//!
//! The suite also pins the empty-validation-split tie-break of `tune_p`:
//! with no validation signal the *largest* percentile in the grid wins
//! explicitly (widest coverage), not whatever the grid order would
//! accidentally select (the pre-fix `>=` scan kept the last grid point).

use nemo::core::config::{ContextualizerConfig, IdpConfig};
use nemo::core::contextualizer::Contextualizer;
use nemo::core::idp::ModelOutputs;
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::{ContextualizedPipeline, LearningPipeline};
use nemo::core::session::Session;
use nemo::core::seu::SeuSelector;
use nemo::data::catalog::toy_text;
use nemo::data::{Dataset, Features, Split};
use nemo::labelmodel::TripletModel;
use nemo::lf::{Label, LabelMatrix, LfColumn, Lineage, Metric, PrimitiveCorpus, PrimitiveLf};
use nemo::sparse::{CsrMatrix, DetRng, SparseVec};
use proptest::prelude::*;

/// Assert two label matrices are entry-for-entry identical (stronger than
/// `==`, which may short-circuit through construction tokens).
fn assert_matrices_bit_identical(a: &LabelMatrix, b: &LabelMatrix, what: &str) {
    assert_eq!(a.n_lfs(), b.n_lfs(), "{what}: LF count");
    assert_eq!(a.n_examples(), b.n_examples(), "{what}: example count");
    for j in 0..a.n_lfs() {
        assert_eq!(a.column(j).entries(), b.column(j).entries(), "{what}: column {j}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn prop_incremental_matches_rebuild_over_lineage_growth(
        seed in 0u64..1_000_000,
        rounds in 2usize..6,
        grid_mutation_prob in 0.0f64..0.6,
    ) {
        let ds = toy_text(2);
        let mut rng = DetRng::new(seed);
        let mut incr = Contextualizer::new(ContextualizerConfig::default());
        let mut oracle = Contextualizer::new(ContextualizerConfig::default());
        let model = TripletModel::default();
        let mut lineage = Lineage::new();
        let mut matrix = LabelMatrix::new(ds.train.n());
        for round in 0..rounds {
            // Lineage growth: 1 new LF on the first round (tune_p needs a
            // non-empty matrix), 0–2 afterwards, from random primitives
            // anchored at random development examples.
            let n_new = if round == 0 { 1 } else { rng.index(3) };
            for _ in 0..n_new {
                let z = rng.index(ds.n_primitives) as u32;
                let lf = PrimitiveLf::new(z, Label::from_bool(rng.bernoulli(0.5)));
                lineage.record(lf, rng.index(ds.train.n()) as u32, round as u32);
                matrix.push(LfColumn::from_lf(&lf, &ds.train.corpus));
            }
            // Radius-changed rounds: occasionally edit one grid
            // percentile (identically on both contextualizers), which
            // must invalidate exactly that grid slot through the radius
            // key while the other slots keep hitting.
            if round > 0 && rng.bernoulli(grid_mutation_prob) {
                let k = rng.index(incr.config.p_grid.len());
                let p = (rng.uniform() * 100.0).clamp(0.0, 100.0);
                incr.config.p_grid[k] = p;
                oracle.config.p_grid[k] = p;
            }
            incr.sync(&lineage, &ds);
            oracle.sync(&lineage, &ds);

            let p_grid = incr.config.p_grid.clone();
            let tr: Vec<_> = p_grid.iter().map(|&p| incr.refined_train_matrix(&matrix, p)).collect();
            let vr: Vec<_> =
                p_grid.iter().map(|&p| incr.refined_valid_matrix(p, ds.valid.n())).collect();
            let (ti, vi) = incr.refined_grid_matrices(&matrix, ds.valid.n());
            for (k, ((a, b), (c, d))) in ti.iter().zip(&tr).zip(vi.iter().zip(&vr)).enumerate() {
                assert_matrices_bit_identical(a, b, &format!("round {round} train k={k}"));
                assert_matrices_bit_identical(c, d, &format!("round {round} valid k={k}"));
            }

            let tuned_i = incr.tune_p(&matrix, &ds, &model, ds.prior());
            oracle.invalidate_refined_cache_from(0);
            let tuned_r = oracle.tune_p(&matrix, &ds, &model, ds.prior());
            prop_assert_eq!(tuned_i.p, tuned_r.p, "round {}: tuned percentile", round);
            prop_assert_eq!(
                tuned_i.valid_score.to_bits(),
                tuned_r.valid_score.to_bits(),
                "round {}: validation score", round
            );
            assert_matrices_bit_identical(
                &tuned_i.train_matrix,
                &tuned_r.train_matrix,
                &format!("round {round} tuned matrix"),
            );
            prop_assert_eq!(
                incr.tune_fits(), oracle.tune_fits(),
                "round {}: dedup resolved differently", round
            );
        }
        // Non-vacuity: the incremental run must have served at least one
        // warm column from the cache (every tune_p after the first reuses
        // the grid matrices built just above it).
        prop_assert!(incr.refine_cache_stats().hits > 0, "cache never hit");
        prop_assert_eq!(oracle.refine_cache_stats().hits, 0, "the oracle must not hit");
    }
}

/// Raw-matrix replacement: rebuilding the raw matrix from the same LFs
/// gives bitwise-equal columns with *fresh* construction tokens, so every
/// cache slot must miss (the token is the staleness guard, not a content
/// hash) — and the refiltered output must still be identical.
#[test]
fn raw_matrix_token_miss_refilters_without_staleness() {
    let ds = toy_text(1);
    let mut rng = DetRng::new(31);
    let mut lineage = Lineage::new();
    for round in 0..5u32 {
        let z = rng.index(ds.n_primitives) as u32;
        lineage.record(
            PrimitiveLf::new(z, Label::from_bool(rng.bernoulli(0.5))),
            rng.index(ds.train.n()) as u32,
            round,
        );
    }
    let mut ctx = Contextualizer::new(ContextualizerConfig::default());
    ctx.sync(&lineage, &ds);
    let grid = ctx.config.p_grid.len();
    let lfs: Vec<PrimitiveLf> = lineage.tracked().iter().map(|r| r.lf).collect();
    let first = LabelMatrix::from_lfs(&lfs, &ds.train.corpus);
    let (t1, v1) = ctx.refined_grid_matrices(&first, ds.valid.n());
    let (t1, v1): (Vec<LabelMatrix>, Vec<LabelMatrix>) =
        (t1.into_iter().cloned().collect(), v1.into_iter().cloned().collect());
    // Same content, new tokens: every slot re-keys.
    let second = LabelMatrix::from_lfs(&lfs, &ds.train.corpus);
    let (t2, v2) = ctx.refined_grid_matrices(&second, ds.valid.n());
    for (k, ((a, b), (c, d))) in t1.iter().zip(&t2).zip(v1.iter().zip(&v2)).enumerate() {
        assert_matrices_bit_identical(a, b, &format!("train k={k}"));
        assert_matrices_bit_identical(c, d, &format!("valid k={k}"));
    }
    let stats = ctx.refine_cache_stats();
    assert_eq!(stats.hits, 0, "token misses must never be served as hits");
    assert_eq!(stats.refilters, 2 * grid * 5, "both rounds refilter every slot");
    // Third round with a token-stable matrix: everything hits.
    ctx.refined_grid_matrices(&second, ds.valid.n());
    assert_eq!(ctx.refine_cache_stats().hits, grid * 5);
}

/// The contextualized pipeline, optionally dropping its refined-column
/// cache before every learning round (the refilter-everything oracle).
struct Pipeline {
    inner: ContextualizedPipeline,
    refilter: bool,
}

impl LearningPipeline for Pipeline {
    fn name(&self) -> &'static str {
        "contextualized"
    }

    fn learn(
        &mut self,
        lineage: &Lineage,
        raw_matrix: &LabelMatrix,
        ds: &Dataset,
        config: &IdpConfig,
        iter_seed: u64,
    ) -> ModelOutputs {
        if self.refilter {
            self.inner.contextualizer_mut().invalidate_refined_cache_from(0);
        }
        self.inner.learn(lineage, raw_matrix, ds, config, iter_seed)
    }
}

/// Full-session differential: an interactive `Session` (SEU selection +
/// simulated user + contextualized MeTaL learning) must make identical
/// decisions — same development example selected every round, same tuned
/// percentile — with the cache and with the refilter-everything oracle,
/// and the cached run must refilter each `(grid point, LF)` slot exactly
/// once (lineage is append-only and the session's raw matrix is
/// token-stable, so every later round serves cached columns).
#[test]
fn sessions_select_identically_under_both_refinement_paths() {
    let ds = toy_text(3);
    for seed in [2u64, 11] {
        let mut traces = Vec::new();
        let mut stats = Vec::new();
        for refilter in [false, true] {
            let config = IdpConfig { n_iterations: 10, eval_every: 5, seed, ..Default::default() };
            let mut session = Session::new(&ds, config);
            let mut selector = SeuSelector::new();
            let mut user = SimulatedUser::default();
            let mut pipeline = Pipeline { inner: ContextualizedPipeline::default(), refilter };
            let mut trace = Vec::new();
            for _ in 0..10 {
                let rec = session.round(&mut selector, &mut user, &mut pipeline).unwrap();
                trace.push((rec.selected, session.outputs().chosen_p));
            }
            trace.push((None, Some(session.test_score())));
            traces.push(trace);
            stats.push((
                pipeline.inner.contextualizer().refine_cache_stats(),
                session.lineage().len(),
            ));
        }
        assert_eq!(traces[0], traces[1], "seed {seed}: decisions diverged");
        let (incr_stats, n_lfs) = stats[0];
        let grid = ContextualizerConfig::default().p_grid.len();
        assert_eq!(
            incr_stats.refilters,
            grid * n_lfs,
            "seed {seed}: warm rounds refiltered cached columns"
        );
        assert!(incr_stats.hits > 0, "seed {seed}: cache never hit");
    }
}

/// A tiny hand-built dataset over 4 primitives whose validation split is
/// empty (the degenerate deployment where no labeled data exists yet).
fn dataset_with_empty_valid(p_grid: Vec<f64>) -> (Dataset, ContextualizerConfig) {
    let docs: Vec<Vec<u32>> =
        vec![vec![0], vec![0, 1], vec![1], vec![2], vec![0, 2], vec![1, 3], vec![3], vec![2, 3]];
    let n_primitives = 4;
    let features_of = |docs: &[Vec<u32>]| {
        let rows: Vec<SparseVec> = docs
            .iter()
            .map(|d| SparseVec::from_pairs(d.iter().map(|&z| (z, 1.0)).collect(), n_primitives))
            .collect();
        Features::from_csr(CsrMatrix::from_rows(&rows, n_primitives))
    };
    let labels: Vec<Label> =
        docs.iter().map(|d| Label::from_bool(d.contains(&0) || d.contains(&1))).collect();
    let split_of = |docs: &[Vec<u32>], labels: &[Label]| Split {
        labels: labels.to_vec(),
        features: features_of(docs),
        corpus: PrimitiveCorpus::new(docs.to_vec(), n_primitives),
        clusters: vec![0; docs.len()],
    };
    let train = split_of(&docs, &labels);
    let valid = split_of(&[], &[]);
    let test = split_of(&docs[..2], &labels[..2]);
    let ds = Dataset {
        name: "empty-valid".into(),
        metric: Metric::Accuracy,
        train,
        valid,
        test,
        n_primitives,
        primitive_names: (0..n_primitives).map(|z| format!("z{z}")).collect(),
        lexicon: Vec::new(),
        class_prior_pos: 0.5,
    };
    ds.validate();
    let config = ContextualizerConfig { p_grid, ..Default::default() };
    (ds, config)
}

/// Regression for the degenerate `tune_p` tie-break: with an empty
/// validation split every grid point scores a vacuous 0.0, and the
/// pre-fix `>=` scan silently kept whatever percentile sat *last* in the
/// grid. The fixed behaviour selects the *largest* percentile (widest
/// coverage) explicitly, with and without a warm refined-column cache,
/// with the vacuous score reported as exactly 0.0.
#[test]
fn empty_validation_split_selects_widest_coverage_explicitly() {
    // Deliberately unsorted grid with the largest percentile in the
    // middle: the pre-fix code returns 25.0 (last), the fix 100.0.
    let (ds, config) = dataset_with_empty_valid(vec![50.0, 100.0, 25.0]);
    let mut ctx = Contextualizer::new(config);
    let mut lineage = Lineage::new();
    for (z, dev) in [(0u32, 0u32), (1, 2), (2, 3)] {
        lineage.record(PrimitiveLf::new(z, Label::Pos), dev, 0);
    }
    ctx.sync(&lineage, &ds);
    let lfs: Vec<PrimitiveLf> = lineage.tracked().iter().map(|r| r.lf).collect();
    let matrix = LabelMatrix::from_lfs(&lfs, &ds.train.corpus);
    // A cold round, then a round served from the warm cache.
    for round in 0..2 {
        let tuned = ctx.tune_p(&matrix, &ds, &TripletModel::default(), ds.prior());
        assert_eq!(tuned.p, 100.0, "round {round}: widest coverage must win");
        assert_eq!(tuned.valid_score, 0.0, "round {round}: score is vacuously zero");
        // p = 100 keeps every raw vote: refinement must be the identity.
        assert_matrices_bit_identical(
            &tuned.train_matrix,
            &matrix,
            &format!("round {round} tuned matrix"),
        );
    }
    assert!(ctx.refine_cache_stats().hits > 0, "second round must be served from the cache");
}
