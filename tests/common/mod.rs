//! Helpers shared by the contextualizer suites: the naive refinement
//! oracle, random lineage growth, random percentile grids, a dataset
//! whose validation split is empty, the session-level check that a
//! long-lived pipeline equals a fresh one, and the bitwise comparison of
//! SEU aggregates.

// Each suite uses a subset of the helpers.
#![allow(dead_code)]

use nemo::core::config::{ContextualizerConfig, IdpConfig};
use nemo::core::contextualizer::{Contextualizer, RefineCacheStats};
use nemo::core::idp::ModelOutputs;
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::{ContextualizedPipeline, LearningPipeline};
use nemo::core::session::Session;
use nemo::core::seu::{SeuAggregates, SeuSelector};
use nemo::core::utility::PrimAgg;
use nemo::data::{Dataset, Features, Split};
use nemo::lf::{Label, LabelMatrix, LfColumn, Lineage, Metric, PrimitiveCorpus, PrimitiveLf};
use nemo::sparse::stats::percentile;
use nemo::sparse::{CsrMatrix, DetRng, SparseVec};

/// Every registered LF's radius and refined train/valid column at every
/// grid point equal the naive refinement: `Features::distances_naive`,
/// then `stats::percentile`, then `LfColumn::from_lf(..).filtered(..)`.
/// Points off the grid have neither a radius nor a slot.
pub fn assert_slots_equal_naive_refinement(ctx: &Contextualizer, lineage: &Lineage, ds: &Dataset) {
    let ContextualizerConfig { distance, p_grid } = ctx.config();
    assert_eq!(ctx.n_registered(), lineage.len(), "{}: registered LFs", ds.name);
    let off_grid: Vec<f64> =
        [0.0, 10.0, 90.0, 100.0].into_iter().filter(|p| !p_grid.contains(p)).collect();
    for &p in &off_grid {
        assert!(ctx.refined(p).is_none(), "{}: a slot off the grid at p={p}", ds.name);
    }
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
        for &p in &off_grid {
            assert_eq!(ctx.radius(j, p), None, "{}: LF {j} radius off the grid at p={p}", ds.name);
        }
    }
}

/// Record one round of random LFs — one in round 0, 0–2 after — each a
/// random primitive and class at a random development example.
pub fn add_random_lfs(ds: &Dataset, rng: &mut DetRng, lineage: &mut Lineage, round: usize) {
    let n_new = if round == 0 { 1 } else { rng.index(3) };
    for _ in 0..n_new {
        let z = rng.index(ds.n_primitives) as u32;
        let lf = PrimitiveLf::new(z, Label::from_bool(rng.bernoulli(0.5)));
        lineage.record(lf, rng.index(ds.train.n()) as u32, round as u32);
    }
}

/// A random percentile grid of 1–5 points, each an endpoint (0 or 100),
/// a duplicate of an earlier point, or uniform in [0, 100], in random
/// order.
pub fn random_grid(rng: &mut DetRng) -> Vec<f64> {
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

/// A tiny hand-built dataset over 4 primitives whose validation split is
/// empty (the degenerate deployment where no labeled data exists yet).
/// An empty *train* split cannot register an LF at all (a development
/// example indexes the train split); its `+∞` radius is pinned by the
/// unit test `contextualizer::tests::radius_defined_for_empty_train_split`.
pub fn dataset_with_empty_valid() -> Dataset {
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

/// The counters added between `before` and `after`.
pub fn since(before: RefineCacheStats, after: RefineCacheStats) -> RefineCacheStats {
    RefineCacheStats {
        hits: after.hits - before.hits,
        refilters: after.refilters - before.refilters,
    }
}

/// The contextualized pipeline, kept across rounds or built afresh before
/// every learning round, recording each learning round's LF count and
/// counter deltas.
struct Pipeline {
    inner: ContextualizedPipeline,
    fresh: bool,
    rounds: Vec<(usize, RefineCacheStats)>,
}

impl Pipeline {
    fn new(fresh: bool) -> Self {
        Pipeline { inner: ContextualizedPipeline::default(), fresh, rounds: Vec::new() }
    }
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
        let before = self.inner.contextualizer().refine_cache_stats();
        let out = self.inner.learn(lineage, raw_matrix, ds, config, iter_seed);
        let delta = since(before, self.inner.contextualizer().refine_cache_stats());
        self.rounds.push((lineage.len(), delta));
        out
    }
}

/// One full session: per-round selections, tuned `p`, LF count and output
/// bits (train posterior and train probabilities), then the final test and
/// validation score bits.
type SessionTrace = (Vec<(Option<usize>, Option<u64>, usize, Vec<u64>)>, u64, u64);

fn run_session(ds: &Dataset, config: IdpConfig, pipeline: &mut Pipeline) -> SessionTrace {
    let rounds = config.n_iterations;
    let mut session = Session::new(ds, config);
    let mut selector = SeuSelector::new();
    let mut user = SimulatedUser::default();
    let mut trace = Vec::new();
    for _ in 0..rounds {
        let rec = session.round(&mut selector, &mut user, pipeline).unwrap();
        let out = session.outputs();
        let posterior = out.train_posterior.p_pos_slice().iter();
        let bits = posterior.chain(&out.train_probs).map(|p| p.to_bits()).collect();
        trace.push((rec.selected, out.chosen_p.map(f64::to_bits), session.lineage().len(), bits));
    }
    (trace, session.test_score().to_bits(), session.valid_score().to_bits())
}

/// Full interactive sessions (SEU selection + simulated user +
/// contextualized MeTaL learning), one per seed, with a long-lived
/// pipeline and with a fresh pipeline every learning round make identical
/// decisions and produce identical outputs. Both serve `grid · lfs`
/// columns a learning round; the long-lived one filters only the new LFs'
/// columns.
pub fn assert_long_lived_sessions_equal_fresh(
    ds: &Dataset,
    seeds: &[u64],
    n_iterations: usize,
    eval_every: usize,
) {
    let grid = ContextualizerConfig::default().p_grid.len();
    for &seed in seeds {
        let what = format!("{} seed {seed}", ds.name);
        let config = IdpConfig { n_iterations, eval_every, seed, ..Default::default() };
        let (mut fresh, mut kept) = (Pipeline::new(true), Pipeline::new(false));
        let reference = run_session(ds, config.clone(), &mut fresh);
        assert_eq!(run_session(ds, config, &mut kept), reference, "{what}: diverged");
        assert!(reference.0.iter().any(|r| r.1.is_some()), "{what}: p was never tuned");
        assert_eq!(kept.rounds.len(), fresh.rounds.len(), "{what}: learning rounds");
        let mut prev = 0;
        for (round, (&(m, k), &(_, f))) in kept.rounds.iter().zip(&fresh.rounds).enumerate() {
            let what = format!("{what} learning round {round}");
            assert_eq!(f, RefineCacheStats { hits: 0, refilters: grid * m }, "{what}: fresh");
            let served = RefineCacheStats { hits: grid * prev, refilters: grid * (m - prev) };
            assert_eq!(k, served, "{what}: long-lived");
            prev = m;
        }
        assert!(kept.rounds.iter().any(|r| r.1.hits > 0), "{what}: no column was kept");
    }
}

/// Every field of `agg`, the float sums as bits.
pub fn prim_agg_bits(agg: &PrimAgg) -> [u64; 5] {
    [
        agg.s_psi_yhat.to_bits(),
        agg.s_yhat.to_bits(),
        agg.s_psi.to_bits(),
        agg.n_pos as u64,
        agg.df as u64,
    ]
}

/// `got` and `want` hold the same aggregates for every primitive, every
/// field bit for bit.
pub fn assert_aggs_identical(got: &SeuAggregates, want: &SeuAggregates, what: &str) {
    assert_eq!(got.aggs().len(), want.aggs().len(), "{what}: primitive count");
    for (z, (g, w)) in got.aggs().iter().zip(want.aggs()).enumerate() {
        assert_eq!(prim_agg_bits(g), prim_agg_bits(w), "{what}: z {z}: {g:?} vs {w:?}");
    }
}
