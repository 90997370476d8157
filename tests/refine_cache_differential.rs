//! Differential property suite for the contextualizer's refined columns.
//!
//! Refinement happens once per LF, at registration: every grid slot keeps
//! each LF's train and valid votes filtered at the LF's radius for that
//! grid point, and `tune_p` reads them from there. The claim is
//! **bitwise**: over random lineages grown round by round, on random grids
//! (unsorted, duplicated, with the endpoints 0 and 100), on the sparse
//! `toy_text`, on the dense `toy_scene_2d` and on a dataset whose
//! validation split is empty, every radius and every slot column equals a
//! naive refinement computed here — `Features::distances_naive`, then
//! `stats::percentile`, then `LfColumn::from_lf(..).filtered(..)` — and a
//! long-lived contextualizer tunes exactly like a fresh one registered
//! every round (what a restored session builds): the same percentile,
//! validation score, refined matrix, accuracies and fit count. The
//! counters are checked too: the long-lived contextualizer filters each
//! `(grid point, LF)` column once and serves the earlier ones as hits.
//!
//! An empty *train* split registers no LF at all (a development example
//! indexes the train split); its defined `+∞` radius is pinned by the unit
//! test `contextualizer::tests::radius_defined_for_empty_train_split`.
//!
//! The suite also pins the empty-validation-split tie-break of `tune_p`:
//! with no validation signal the *largest* percentile in the grid wins
//! explicitly (widest coverage), not whatever the grid order would
//! accidentally select (the pre-fix `>=` scan kept the last grid point).

use nemo::core::config::{ContextualizerConfig, IdpConfig};
use nemo::core::contextualizer::{Contextualizer, RefineCacheStats, TunedRefinement};
use nemo::core::idp::ModelOutputs;
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::{ContextualizedPipeline, LearningPipeline};
use nemo::core::session::Session;
use nemo::core::seu::SeuSelector;
use nemo::data::catalog::{toy_scene_2d, toy_text};
use nemo::data::{Dataset, Features, Split};
use nemo::labelmodel::TripletModel;
use nemo::lf::{Label, LabelMatrix, LfColumn, Lineage, Metric, PrimitiveCorpus, PrimitiveLf};
use nemo::sparse::stats::percentile;
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

/// Every registered LF's radius and refined train/valid column at every
/// grid point equal the naive refinement.
fn assert_matches_naive_refinement(ctx: &Contextualizer, lineage: &Lineage, ds: &Dataset) {
    let ContextualizerConfig { distance, p_grid } = ctx.config();
    assert_eq!(ctx.n_registered(), lineage.len(), "{}: registered LFs", ds.name);
    for (j, rec) in lineage.tracked().iter().enumerate() {
        let pivot = rec.dev_example as usize;
        let train_d = ds.train.features.distances_naive(*distance, pivot, &ds.train.features);
        let valid_d = ds.train.features.distances_naive(*distance, pivot, &ds.valid.features);
        let raw_train = LfColumn::from_lf(&rec.lf, &ds.train.corpus);
        let raw_valid = LfColumn::from_lf(&rec.lf, &ds.valid.corpus);
        for &p in p_grid {
            let r = percentile(&train_d, p);
            let what = format!("{}: LF {j} at p={p}", ds.name);
            assert_eq!(ctx.radius(j, p).map(f64::to_bits), Some(r.to_bits()), "{what}: radius");
            let (train, valid) = ctx.refined(p).expect("grid point");
            assert_eq!(
                train.column(j).entries(),
                raw_train.filtered(|i| train_d[i as usize] <= r).entries(),
                "{what}: train column"
            );
            assert_eq!(
                valid.column(j).entries(),
                raw_valid.filtered(|i| valid_d[i as usize] <= r).entries(),
                "{what}: valid column"
            );
        }
    }
}

/// Assert two tuning rounds decided identically, bit for bit.
fn assert_tuned_identical(a: &TunedRefinement, b: &TunedRefinement, what: &str) {
    assert_eq!(a.p.to_bits(), b.p.to_bits(), "{what}: tuned percentile");
    assert_eq!(a.valid_score.to_bits(), b.valid_score.to_bits(), "{what}: validation score");
    let bits = |t: &TunedRefinement| -> Vec<u64> {
        t.fitted.lf_accuracies().iter().map(|a| a.to_bits()).collect()
    };
    assert_eq!(bits(a), bits(b), "{what}: LF accuracies");
    assert_matrices_bit_identical(&a.train_matrix, &b.train_matrix, &format!("{what}: matrix"));
}

/// A random percentile grid of 1–5 points, each an endpoint (0 or 100),
/// a duplicate of an earlier point, or uniform in [0, 100], in random
/// order.
fn random_grid(rng: &mut DetRng) -> Vec<f64> {
    let mut grid: Vec<f64> = Vec::new();
    for _ in 0..1 + rng.index(5) {
        let p = match rng.index(4) {
            0 => 0.0,
            1 => 100.0,
            2 if !grid.is_empty() => grid[rng.index(grid.len())],
            _ => rng.uniform() * 100.0,
        };
        grid.push(p);
    }
    grid
}

/// Grow a lineage over `rounds` rounds (one LF in the first round, 0–2
/// after, random primitives at random development examples) and check
/// each round the long-lived contextualizer against the naive refinement
/// and against a fresh contextualizer.
fn check_lineage_growth(ds: &Dataset, p_grid: Vec<f64>, seed: u64, rounds: usize) {
    let mut rng = DetRng::new(seed);
    let config = ContextualizerConfig { p_grid, ..Default::default() };
    let grid = config.p_grid.len();
    let mut long_lived = Contextualizer::new(config.clone());
    let model = TripletModel::default();
    let mut lineage = Lineage::new();
    let mut matrix = LabelMatrix::new(ds.train.n());
    for round in 0..rounds {
        let n_new = if round == 0 { 1 } else { rng.index(3) };
        for _ in 0..n_new {
            let z = rng.index(ds.n_primitives) as u32;
            let lf = PrimitiveLf::new(z, Label::from_bool(rng.bernoulli(0.5)));
            lineage.record(lf, rng.index(ds.train.n()) as u32, round as u32);
            matrix.push(LfColumn::from_lf(&lf, &ds.train.corpus));
        }
        let what = format!("{} grid {:?} round {round}", ds.name, config.p_grid);
        let before = long_lived.refine_cache_stats();
        let fits_before = long_lived.tune_fits();
        long_lived.sync(&lineage, ds);
        assert_matches_naive_refinement(&long_lived, &lineage, ds);
        let kept = long_lived.tune_p(&matrix, ds, &model, ds.prior());

        let mut fresh = Contextualizer::new(config.clone());
        fresh.sync(&lineage, ds);
        let rebuilt = fresh.tune_p(&matrix, ds, &model, ds.prior());
        assert_tuned_identical(&kept, &rebuilt, &what);

        let after = long_lived.refine_cache_stats();
        let m = lineage.len();
        assert_eq!(after.refilters - before.refilters, grid * n_new, "{what}: refilters");
        assert_eq!(after.hits - before.hits, grid * (m - n_new), "{what}: hits");
        assert_eq!(fresh.refine_cache_stats(), RefineCacheStats { hits: 0, refilters: grid * m });
        assert_eq!(long_lived.tune_fits() - fits_before, fresh.tune_fits(), "{what}: fits");
    }
    assert_eq!(long_lived.refine_cache_stats().refilters, grid * lineage.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn prop_incremental_matches_rebuild_over_lineage_growth(
        seed in 0u64..1_000_000,
        rounds in 2usize..6,
        dataset in 0usize..3,
    ) {
        let ds = match dataset {
            0 => toy_text(2),
            1 => toy_scene_2d(2),
            _ => dataset_with_empty_valid(),
        };
        let mut rng = DetRng::new(seed ^ 0x9e37);
        let grid = random_grid(&mut rng);
        check_lineage_growth(&ds, grid, seed, rounds);
    }
}

/// The grid shapes the random ones only sometimes draw, on every dataset:
/// unsorted, with both endpoints and a duplicate.
#[test]
fn unsorted_duplicate_grid_with_endpoints_matches_naive_refinement() {
    for ds in [toy_text(2), toy_scene_2d(2), dataset_with_empty_valid()] {
        check_lineage_growth(&ds, vec![100.0, 0.0, 50.0, 50.0, 25.0], 5, 5);
    }
}

/// The contextualized pipeline, kept across rounds or built afresh
/// before every round (the restored-round path), recording each learning
/// round's LF count and served `(grid point, LF)` columns (hits plus
/// refilters).
struct Pipeline {
    inner: ContextualizedPipeline,
    fresh: bool,
    served: Vec<(usize, usize)>,
}

fn served(stats: RefineCacheStats) -> usize {
    stats.hits + stats.refilters
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
        if self.fresh {
            self.inner = ContextualizedPipeline::default();
        }
        let before = served(self.inner.contextualizer().refine_cache_stats());
        let out = self.inner.learn(lineage, raw_matrix, ds, config, iter_seed);
        let after = served(self.inner.contextualizer().refine_cache_stats());
        self.served.push((lineage.len(), after - before));
        out
    }
}

/// Full-session differential: an interactive `Session` (SEU selection +
/// simulated user + contextualized MeTaL learning) must make identical
/// decisions — same development example selected every round, same tuned
/// percentile — with a long-lived pipeline and with a fresh one every
/// round. Both serve `grid · lfs` columns a round; the long-lived one
/// filters each `(grid point, LF)` column exactly once.
#[test]
fn sessions_select_identically_under_both_refinement_paths() {
    let ds = toy_text(3);
    let grid = ContextualizerConfig::default().p_grid.len();
    for seed in [2u64, 11] {
        let mut traces = Vec::new();
        let mut served = Vec::new();
        let mut stats = Vec::new();
        let mut lfs = Vec::new();
        for fresh in [false, true] {
            let config = IdpConfig { n_iterations: 10, eval_every: 5, seed, ..Default::default() };
            let mut session = Session::new(&ds, config);
            let mut selector = SeuSelector::new();
            let mut user = SimulatedUser::default();
            let inner = ContextualizedPipeline::default();
            let mut pipeline = Pipeline { inner, fresh, served: Vec::new() };
            let mut trace = Vec::new();
            for _ in 0..10 {
                let rec = session.round(&mut selector, &mut user, &mut pipeline).unwrap();
                trace.push((rec.selected, session.outputs().chosen_p));
            }
            trace.push((None, Some(session.test_score())));
            traces.push(trace);
            served.push(pipeline.served);
            stats.push(pipeline.inner.contextualizer().refine_cache_stats());
            lfs.push(session.lineage().len());
        }
        assert_eq!(traces[0], traces[1], "seed {seed}: decisions diverged");
        assert_eq!(served[0], served[1], "seed {seed}: served columns diverged");
        let n_lfs = lfs[0];
        for (round, &(m, s)) in served[0].iter().enumerate() {
            assert_eq!(s, grid * m, "seed {seed} learning round {round}: served columns");
        }
        assert_eq!(stats[0].refilters, grid * n_lfs, "seed {seed}: a column was filtered twice");
        assert!(stats[0].hits > 0, "seed {seed}: no column was kept");
        assert_eq!(stats[1].hits, 0, "seed {seed}: a fresh pipeline kept a column");
    }
}

/// A tiny hand-built dataset over 4 primitives whose validation split is
/// empty (the degenerate deployment where no labeled data exists yet).
fn dataset_with_empty_valid() -> Dataset {
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
    ds
}

/// Regression for the degenerate `tune_p` tie-break: with an empty
/// validation split every grid point scores a vacuous 0.0, and the
/// pre-fix `>=` scan silently kept whatever percentile sat *last* in the
/// grid. The fixed behaviour selects the *largest* percentile (widest
/// coverage) explicitly, in the first round and in a round served from
/// kept columns, with the vacuous score reported as exactly 0.0.
#[test]
fn empty_validation_split_selects_widest_coverage_explicitly() {
    // Deliberately unsorted grid with the largest percentile in the
    // middle: the pre-fix code returns 25.0 (last), the fix 100.0.
    let ds = dataset_with_empty_valid();
    let config = ContextualizerConfig { p_grid: vec![50.0, 100.0, 25.0], ..Default::default() };
    let mut ctx = Contextualizer::new(config);
    let mut lineage = Lineage::new();
    for (z, dev) in [(0u32, 0u32), (1, 2), (2, 3)] {
        lineage.record(PrimitiveLf::new(z, Label::Pos), dev, 0);
    }
    ctx.sync(&lineage, &ds);
    let lfs: Vec<PrimitiveLf> = lineage.tracked().iter().map(|r| r.lf).collect();
    let matrix = LabelMatrix::from_lfs(&lfs, &ds.train.corpus);
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
    assert!(ctx.refine_cache_stats().hits > 0, "second round must read kept columns");
}
