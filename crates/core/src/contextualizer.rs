//! The LF contextualizer (paper Sec. 4.3, Eq. 4).
//!
//! Exploits the data-to-LF lineage: each LF `λ_j` is refined to abstain on
//! examples farther than a radius `r_j` from its development data point,
//!
//! ```text
//! λ'_j(x) = λ_j(x)  if dist(x, x_{λ_j}) ≤ r_j   else abstain
//! ```
//!
//! with `r_j` the `p`-th percentile of the distances from `x_{λ_j}` to the
//! unlabeled pool, and `p` selected on the validation accuracy of the
//! resulting soft labels. Distances from each development point to the
//! training and validation splits are computed once per LF and cached,
//! together with the LF's radius at every point of the percentile grid —
//! refinement at any grid `p` is then a cheap filter.
//!
//! All of a round's new LFs are registered by
//! [`Contextualizer::register_batch`], which maps their development points
//! through [`nemo_data::Features::distances`] against the train and the
//! valid split (the inverted-index kernel on sparse features). It is
//! bit-identical to the naive scan
//! ([`nemo_data::Features::distances_naive`]), which the differential
//! suites use as its oracle. The grid radii are found by selection
//! ([`nemo_sparse::stats::percentiles`]), not by sorting the distances;
//! each equals [`nemo_sparse::stats::percentile`] bit for bit.

use crate::config::ContextualizerConfig;
use nemo_data::Dataset;
use nemo_labelmodel::{FittedLabelModel, LabelModel, PairCounts};
use nemo_lf::{LabelMatrix, LfColumn, Lineage, TrackedLf};
use nemo_sparse::stats::{percentile, percentiles};

/// Result of percentile tuning: the chosen `p`, the refined training
/// matrix at that `p`, and the label model fitted to it.
pub struct TunedRefinement {
    /// Chosen percentile.
    pub p: f64,
    /// Refined training label matrix (a copy of the chosen grid slot's).
    pub train_matrix: LabelMatrix,
    /// Label model fitted on the refined matrix.
    pub fitted: Box<dyn FittedLabelModel>,
    /// Validation score (mean log-likelihood of the validation labels
    /// under the refined soft labels) achieved by the chosen `p`.
    pub valid_score: f64,
}

/// One point of the percentile grid: its refined train and valid
/// matrices, kept across rounds, and the label model's pair-count cache
/// of the train matrix.
///
/// Column `j` of both matrices was filtered under `keys[j]`: the radius
/// (bitwise) and the raw train column's construction token (the valid
/// column's raw source is owned by the contextualizer and immutable, so it
/// needs no key). Lineage is append-only and an existing LF's radius is
/// frozen at registration, so a warm round finds every key fresh except
/// the new LFs' and only appends; a stale key truncates the slot there.
#[derive(Default)]
struct GridSlot {
    keys: Vec<(u64, u64)>,
    train: LabelMatrix,
    valid: LabelMatrix,
    /// Pairwise co-vote counts of `train`, keyed by column token: a warm
    /// round recounts only the pairs touching the new LF's column. A
    /// cache, not a warm start — it never changes a bit of output — and
    /// not checkpointed: a restored contextualizer recounts every pair
    /// once, one dense scatter per column and one probe of each later
    /// column's entries, `O(m · Σ coverage)` per slot.
    pair_counts: PairCounts,
}

impl GridSlot {
    fn truncate(&mut self, m: usize) {
        self.keys.truncate(m);
        self.train.truncate(m);
        self.valid.truncate(m);
    }
}

/// Cumulative refined-column cache counters (bench accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineCacheStats {
    /// `(grid point, LF)` columns kept from an earlier round.
    pub hits: usize,
    /// `(grid point, LF)` columns filtered afresh (cold slots, radius
    /// changes, raw-column changes, and every column after one of those).
    pub refilters: usize,
}

/// The contextualizer with per-LF distance caches.
pub struct Contextualizer {
    /// Configuration (distance function and percentile grid).
    pub config: ContextualizerConfig,
    train_dists: Vec<Vec<f64>>,
    /// Per LF, `(p.to_bits(), radius)` for every point of `config.p_grid`
    /// at registration (empty for an empty training split).
    grid_radii: Vec<Vec<(u64, f64)>>,
    valid_dists: Vec<Vec<f64>>,
    raw_valid_cols: Vec<LfColumn>,
    /// Label-model fits run by `tune_p` so far: one per unique refined
    /// train matrix per round, so grid points that refine to the same
    /// matrix share one fit (bench accounting).
    tune_fits: usize,
    /// Validation posterior predicts run by [`Contextualizer::tune_p`] so
    /// far — one per grid point per round with a non-empty validation
    /// split (bench accounting).
    tune_predicts: usize,
    /// One slot per entry of `config.p_grid`, position-keyed, refreshed
    /// by [`Contextualizer::refined_grid_matrices`].
    slots: Vec<GridSlot>,
    cache_stats: RefineCacheStats,
}

impl Contextualizer {
    /// Create an empty contextualizer.
    pub fn new(config: ContextualizerConfig) -> Self {
        Self {
            config,
            train_dists: Vec::new(),
            grid_radii: Vec::new(),
            valid_dists: Vec::new(),
            raw_valid_cols: Vec::new(),
            tune_fits: 0,
            tune_predicts: 0,
            slots: Vec::new(),
            cache_stats: RefineCacheStats::default(),
        }
    }

    /// Label-model fits performed by [`Contextualizer::tune_p`] so far:
    /// one per unique refined train matrix per round.
    pub fn tune_fits(&self) -> usize {
        self.tune_fits
    }

    /// Validation posterior predicts performed by
    /// [`Contextualizer::tune_p`] so far: `p_grid.len()` per round, except
    /// that empty-validation rounds predict nothing.
    pub fn tune_predicts(&self) -> usize {
        self.tune_predicts
    }

    /// Cumulative refined-column cache hit/refilter counters.
    pub fn refine_cache_stats(&self) -> RefineCacheStats {
        self.cache_stats
    }

    /// Drop cached refined columns for LFs with index `≥ from` at every
    /// grid point. The cache self-invalidates through its keys, so
    /// ordinary sessions never need this; it exists for benches that
    /// re-measure the same warm round repeatedly and, with `from = 0`,
    /// gives tests the refilter-everything oracle of a tuning round.
    pub fn invalidate_refined_cache_from(&mut self, from: usize) {
        for slot in &mut self.slots {
            slot.truncate(from);
        }
    }

    /// Inert compatibility shim: always empty. No label model reads
    /// warm-start seeds; perfbench's round replay still calls this, and
    /// the shim goes with that replay.
    pub fn warm_seeds(&self) -> &[Vec<f64>] {
        &[]
    }

    /// Inert compatibility shim: ignores `seeds` (see
    /// [`Contextualizer::warm_seeds`]).
    pub fn set_warm_seeds(&mut self, seeds: Vec<Vec<f64>>) {
        let _ = seeds;
    }

    /// Number of LFs registered so far.
    pub fn n_registered(&self) -> usize {
        self.train_dists.len()
    }

    /// Register a round's worth of LFs: each LF's train and valid distance
    /// vectors come from [`nemo_data::Features::distances`], and its radius
    /// at every point of `config.p_grid` is frozen by [`percentiles`]
    /// (order-statistic selection, no sort and no sorted copy kept).
    pub fn register_batch(&mut self, recs: &[TrackedLf], ds: &Dataset) {
        let dist = self.config.distance;
        let features = &ds.train.features;
        // Distances are finite — both kernels compute sums/square roots of
        // finite feature values, and `Features` validates its buffers
        // (finite norms) on import — so `percentiles` never meets a NaN.
        let p_grid = &self.config.p_grid;
        for rec in recs {
            let pivot = rec.dev_example as usize;
            let train_d = features.distances(dist, pivot, features);
            let valid_d = features.distances(dist, pivot, &ds.valid.features);
            let radii_j = if train_d.is_empty() {
                Vec::new()
            } else {
                p_grid.iter().map(|p| p.to_bits()).zip(percentiles(&train_d, p_grid)).collect()
            };
            self.train_dists.push(train_d);
            self.grid_radii.push(radii_j);
            self.valid_dists.push(valid_d);
            self.raw_valid_cols.push(LfColumn::from_lf(&rec.lf, &ds.valid.corpus));
        }
    }

    /// Register any lineage entries not yet cached (lineage is
    /// append-only, so indices stay aligned) — the batch entry point
    /// `Session`/`NemoSystem` reach through `ContextualizedPipeline`.
    pub fn sync(&mut self, lineage: &Lineage, ds: &Dataset) {
        self.register_batch(&lineage.tracked()[self.n_registered()..], ds);
    }

    /// Refinement radius `r_j` at percentile `p`: the `p`-th percentile of
    /// LF `j`'s train distances ([`nemo_sparse::stats::percentile`]).
    ///
    /// A `p` of the grid the LF was registered under is a lookup in the
    /// radii frozen at registration. Any other `p` — an expert
    /// [`Contextualizer::refine_train`] call, or a grid edited after
    /// registration — is computed from the cached distances, to the same
    /// value bit for bit.
    ///
    /// An LF registered against an **empty training split** has no
    /// reference distances to take a percentile of (the stats crate
    /// asserts on empty input). The radius is *defined* as `+∞` there:
    /// with no distance information the contextualizer cannot justify
    /// shrinking coverage, so refinement degrades to the identity (every
    /// example is within radius) — consistent with the `p = 100` endpoint
    /// — instead of panicking deep inside the stats crate.
    pub fn radius(&self, j: usize, p: f64) -> f64 {
        let dists = &self.train_dists[j];
        if dists.is_empty() {
            return f64::INFINITY;
        }
        match self.grid_radii[j].iter().find(|&&(bits, _)| bits == p.to_bits()) {
            Some(&(_, r)) => r,
            None => percentile(dists, p),
        }
    }

    /// Refine LF `j`'s raw training column at percentile `p`.
    pub fn refine_train(&self, j: usize, p: f64, raw: &LfColumn) -> LfColumn {
        let r = self.radius(j, p);
        let d = &self.train_dists[j];
        raw.filtered(|i| d[i as usize] <= r)
    }

    /// Refine LF `j`'s validation column at percentile `p` (radius still
    /// computed from training distances, applied to validation examples).
    pub fn refine_valid(&self, j: usize, p: f64) -> LfColumn {
        let r = self.radius(j, p);
        let d = &self.valid_dists[j];
        self.raw_valid_cols[j].filtered(|i| d[i as usize] <= r)
    }

    /// Refined training matrix at percentile `p`, every column filtered
    /// afresh (the oracle of [`Contextualizer::refined_grid_matrices`]).
    pub fn refined_train_matrix(&self, raw: &LabelMatrix, p: f64) -> LabelMatrix {
        // invariant: callers pass the matrix aligned with the lineage this
        // contextualizer was synced against (documented expert API).
        assert_eq!(raw.n_lfs(), self.n_registered(), "matrix/lineage mismatch");
        let mut out = LabelMatrix::new(raw.n_examples());
        for (j, col) in raw.columns().enumerate() {
            out.push(self.refine_train(j, p, col));
        }
        out
    }

    /// Refined validation matrix at percentile `p`, every column filtered
    /// afresh.
    pub fn refined_valid_matrix(&self, p: f64, n_valid: usize) -> LabelMatrix {
        let mut out = LabelMatrix::new(n_valid);
        for j in 0..self.n_registered() {
            out.push(self.refine_valid(j, p));
        }
        out
    }

    /// The per-grid-point refined train and valid matrices `tune_p`
    /// consumes (one pair per entry of `config.p_grid`, in grid order),
    /// borrowed from the grid slots that own them.
    ///
    /// Each slot keeps its leading columns whose key — the radius bits and
    /// the raw train column's [`nemo_lf::LfColumn::token`] — still matches,
    /// drops the rest, and filters the dropped and new LFs' columns onto
    /// its matrices. Because lineage is append-only and an existing LF's
    /// distance table is frozen at registration, a warm round filters only
    /// the newly registered LFs' columns: `O(grid)` filters instead of
    /// `O(grid · lfs)`, and no column is copied. The result is
    /// bit-identical to filtering every column afresh with
    /// [`Contextualizer::refined_train_matrix`] /
    /// [`Contextualizer::refined_valid_matrix`] — the `refine_cache`
    /// differential suite and bench pin this.
    pub fn refined_grid_matrices(
        &mut self,
        raw_train: &LabelMatrix,
        n_valid: usize,
    ) -> (Vec<&LabelMatrix>, Vec<&LabelMatrix>) {
        self.refresh_slots(raw_train, n_valid);
        self.slots.iter().map(|slot| (&slot.train, &slot.valid)).unzip()
    }

    /// Bring every grid slot's matrices up to date with `raw_train`.
    fn refresh_slots(&mut self, raw_train: &LabelMatrix, n_valid: usize) {
        // invariant: same matrix/lineage alignment contract as
        // `refined_train_matrix`.
        assert_eq!(raw_train.n_lfs(), self.n_registered(), "matrix/lineage mismatch");
        // The grid is position-keyed: slot k holds whatever radius
        // p_grid[k] last produced, so a grown/shrunk grid resizes the
        // slots and an edited percentile invalidates through the radius
        // key alone.
        let mut slots = std::mem::take(&mut self.slots);
        slots.resize_with(self.config.p_grid.len(), GridSlot::default);
        for (slot, &p) in slots.iter_mut().zip(&self.config.p_grid) {
            if slot.train.n_examples() != raw_train.n_examples()
                || slot.valid.n_examples() != n_valid
            {
                *slot = GridSlot {
                    train: LabelMatrix::new(raw_train.n_examples()),
                    valid: LabelMatrix::new(n_valid),
                    ..GridSlot::default()
                };
            }
            let keys: Vec<(u64, u64)> = raw_train
                .columns()
                .enumerate()
                .map(|(j, raw)| (self.radius(j, p).to_bits(), raw.token()))
                .collect();
            let fresh = slot.keys.iter().zip(&keys).take_while(|(a, b)| a == b).count();
            slot.truncate(fresh);
            self.cache_stats.hits += fresh;
            self.cache_stats.refilters += keys.len() - fresh;
            for (j, &key) in keys.iter().enumerate().skip(fresh) {
                slot.train.push(self.refine_train(j, p, raw_train.column(j)));
                slot.valid.push(self.refine_valid(j, p));
                slot.keys.push(key);
            }
        }
        self.slots = slots;
    }

    /// Select `p` from the grid by the validation quality of the
    /// resulting soft labels (paper Sec. 4.3).
    ///
    /// Quality is the mean log-likelihood of the validation labels under
    /// the soft labels, over *all* validation examples (uncovered ones
    /// receive the class prior). A proper scoring rule is the right
    /// objective here because refinement trades coverage for precision:
    /// scoring only covered examples rewards ever-smaller, ever-purer
    /// coverage (over-refining), while hard-label accuracy over everything
    /// is swamped by the prior fill-in and degenerates to never refining.
    /// Log-likelihood credits exactly the quantity the downstream end
    /// model consumes — how much better than the prior the soft labels
    /// are, weighted by how many examples enjoy that improvement. The
    /// grid is scanned in order with `>=`, so among genuine ties the
    /// largest percentile (widest coverage) wins. When the validation
    /// split is **empty** every score is vacuously zero and no signal
    /// exists to certify any refinement, so the widest-coverage tie-break
    /// is applied explicitly: the largest percentile in the grid is
    /// selected regardless of grid order, with `valid_score = 0.0`.
    ///
    /// The unique grid points are fitted one after another via
    /// [`LabelModel::fit_from`], each with its own slot's [`PairCounts`]
    /// cache of the refined train matrix's pairwise co-vote counts.
    /// A warm round keeps each slot's earlier refined columns with
    /// unchanged tokens, so the MeTaL/triplet estimator recounts only the
    /// new LF's `m − 1` pairs per slot instead of all `m(m−1)/2`, by one
    /// scatter of the new column and one probe of each other column. The
    /// cache never changes a bit of output.
    pub fn tune_p(
        &mut self,
        raw_train: &LabelMatrix,
        ds: &Dataset,
        label_model: &dyn LabelModel,
        prior: [f64; 2],
    ) -> TunedRefinement {
        // invariant: an empty grid is a construction-time configuration
        // bug, not a runtime state; documented panic.
        assert!(!self.config.p_grid.is_empty(), "empty percentile grid");
        let p_grid = self.config.p_grid.clone();

        // Refined matrix per grid point — kept by the grid slots across
        // rounds — then dedup: when adjacent percentiles quantize to the same
        // refined matrix (no distance falls between the radii), the
        // representative's fit is rebuilt from its accuracies instead of
        // refitting — both a redundant-fit saving and the guarantee that
        // identical matrices score with *identical* parameters, so the
        // `>=` tie-break below resolves the same way however the grid
        // quantizes. (All estimators in this workspace aggregate through
        // `NaiveBayesFit`, whose construction from the clamped accuracies
        // is bitwise idempotent.)
        //
        // Equivalence classes are discovered by comparing **coverage
        // signatures**, not whole matrices. For a fixed LF `j` every grid
        // point filters the *same* raw column by `d_j(i) ≤ r`, and those
        // kept-sets are nested across radii (monotone in `r`), so two grid
        // points keep identical column content iff they keep the *same
        // number* of entries — the per-column `coverage()` (an O(1) stored
        // length) is a sound and complete equality witness. A slot's
        // signature is its per-LF coverage vector, and its representative
        // is the first slot with an equal signature. This is `O(grid² ·
        // lfs)` on a grid of a handful of points and — unlike comparing
        // the radius bits — still unifies *distinct* radii that quantize
        // to the same refined matrix, the common case the dedup exists for.
        self.refresh_slots(raw_train, ds.valid.n());
        let sigs: Vec<Vec<usize>> = self
            .slots
            .iter()
            .map(|slot| slot.train.columns().map(LfColumn::coverage).collect())
            .collect();
        let repr: Vec<usize> =
            (0..sigs.len()).map(|k| (0..k).find(|&e| sigs[e] == sigs[k]).unwrap_or(k)).collect();
        let unique: Vec<usize> =
            repr.iter().enumerate().filter(|&(k, &r)| r == k).map(|(k, _)| k).collect();
        self.tune_fits += unique.len();

        // Fit the unique grid points, each with its slot's pair-count
        // cache, so a moment estimator recounts only the new LF's pairs.
        let mut fitted: Vec<Option<Box<dyn FittedLabelModel>>> =
            (0..p_grid.len()).map(|_| None).collect();
        for &k in &unique {
            let GridSlot { train, pair_counts, .. } = &mut self.slots[k];
            fitted[k] = Some(label_model.fit_from(train, prior, pair_counts));
        }
        for k in 0..p_grid.len() {
            if repr[k] != k {
                // invariant: a representative precedes its aliases and was
                // fitted in the loop above.
                let accs = fitted[repr[k]].as_ref().expect("fitted").lf_accuracies().to_vec();
                fitted[k] = Some(Box::new(nemo_labelmodel::NaiveBayesFit::new(accs, prior)));
            }
        }

        // Degenerate case: with an **empty validation split** every grid
        // point's mean log-likelihood is vacuously zero, and the `>=`
        // scan would silently select whatever percentile happens to sit
        // last in the grid. With no validation signal the principled
        // choice is to not refine at all — refinement trades coverage for
        // a precision gain that nothing can certify — so the tie-break is
        // made explicit: the *largest* percentile in the grid (widest
        // coverage) wins regardless of grid order, with the vacuous score
        // of 0.0 reported. `tests/refine_cache_differential.rs` pins this
        // against a deliberately unsorted grid. No posterior is predicted
        // on an empty split.
        let widest_k = if ds.valid.n() == 0 {
            let mut k_best = 0;
            for (k, &p) in p_grid.iter().enumerate() {
                if p > p_grid[k_best] {
                    k_best = k;
                }
            }
            Some(k_best)
        } else {
            None
        };

        // Score every grid point, then select with the `>=` scan: among
        // genuine ties the largest grid index (and with a sorted grid, the
        // widest coverage) wins.
        let mut scores = vec![0.0f64; p_grid.len()];
        if widest_k.is_none() {
            for (k, score) in scores.iter_mut().enumerate() {
                // invariant: every grid point was fitted (or aliased to a
                // fitted representative) in the loop above.
                let fit = fitted[k].as_ref().expect("fitted");
                self.tune_predicts += 1;
                *score = fit.score_log_likelihood(&self.slots[k].valid, &ds.valid.labels);
            }
        }
        let best_k = match widest_k {
            Some(k_best) => k_best,
            None => {
                let mut k_best = 0;
                let mut best_score = f64::NEG_INFINITY;
                for (k, &s) in scores.iter().enumerate() {
                    if s >= best_score {
                        best_score = s;
                        k_best = k;
                    }
                }
                k_best
            }
        };
        TunedRefinement {
            p: p_grid[best_k],
            train_matrix: self.slots[best_k].train.clone(),
            // invariant: `best_k` indexes a fitted representative —
            // ties resolve to fitted slots and no take() precedes this.
            fitted: fitted[best_k].take().expect("fitted"),
            valid_score: scores[best_k],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ContextualizerConfig;
    use nemo_data::catalog::toy_text;
    use nemo_labelmodel::TripletModel;
    use nemo_lf::Label;
    use nemo_sparse::DetRng;

    /// Register a handful of simulated-user LFs on the toy dataset.
    fn setup(ds: &Dataset, n_lfs: usize, seed: u64) -> (Contextualizer, LabelMatrix, Lineage) {
        use crate::oracle::{SimulatedUser, User};
        let mut rng = DetRng::new(seed);
        let mut user = SimulatedUser::default();
        let mut lineage = Lineage::new();
        let mut matrix = LabelMatrix::new(ds.train.n());
        let mut x = 0usize;
        while lineage.len() < n_lfs {
            if let Some(lf) = user.provide_lf(x, ds, &mut rng) {
                lineage.record(lf, x as u32, lineage.len() as u32);
                matrix.push(LfColumn::from_lf(&lf, &ds.train.corpus));
            }
            x += 7; // stride through the pool
        }
        let mut ctx = Contextualizer::new(ContextualizerConfig::default());
        ctx.sync(&lineage, ds);
        (ctx, matrix, lineage)
    }

    #[test]
    fn refinement_is_subset_of_raw() {
        let ds = toy_text(1);
        let (ctx, matrix, _) = setup(&ds, 5, 1);
        for (j, raw) in matrix.columns().enumerate() {
            for &p in &[25.0, 50.0, 75.0] {
                let refined = ctx.refine_train(j, p, raw);
                assert!(refined.coverage() <= raw.coverage());
                for &(i, v) in refined.entries() {
                    assert_eq!(raw.vote(i), v, "refined entry must come from raw");
                }
            }
        }
    }

    #[test]
    fn coverage_monotone_in_p() {
        let ds = toy_text(1);
        let (ctx, matrix, _) = setup(&ds, 5, 2);
        for (j, raw) in matrix.columns().enumerate() {
            let mut prev = 0usize;
            for &p in &[10.0, 30.0, 50.0, 70.0, 90.0, 100.0] {
                let cov = ctx.refine_train(j, p, raw).coverage();
                assert!(cov >= prev, "coverage must grow with p");
                prev = cov;
            }
        }
    }

    #[test]
    fn p100_keeps_everything() {
        let ds = toy_text(1);
        let (ctx, matrix, _) = setup(&ds, 5, 3);
        for (j, raw) in matrix.columns().enumerate() {
            let refined = ctx.refine_train(j, 100.0, raw);
            assert_eq!(refined.coverage(), raw.coverage());
        }
    }

    #[test]
    fn refinement_improves_lf_accuracy_on_toy() {
        // The planted structure guarantees LFs are most accurate near
        // their dev point; refining at p=50 should (on average) raise
        // accuracy over the raw LF.
        let ds = toy_text(1);
        let (ctx, matrix, lineage) = setup(&ds, 12, 4);
        let acc_of = |col: &LfColumn| -> Option<f64> {
            if col.coverage() == 0 {
                return None;
            }
            let correct = col
                .entries()
                .iter()
                .filter(|&&(i, v)| Label::from_sign(v) == Some(ds.train.labels[i as usize]))
                .count();
            Some(correct as f64 / col.coverage() as f64)
        };
        let (mut raw_sum, mut ref_sum, mut n) = (0.0, 0.0, 0);
        for (j, raw) in matrix.columns().enumerate() {
            let refined = ctx.refine_train(j, 50.0, raw);
            if let (Some(ra), Some(fa)) = (acc_of(raw), acc_of(&refined)) {
                raw_sum += ra;
                ref_sum += fa;
                n += 1;
            }
        }
        assert!(n >= 8, "need enough refinable LFs, got {n}");
        let _ = lineage;
        assert!(
            ref_sum / n as f64 >= raw_sum / n as f64 - 0.02,
            "refined mean accuracy {:.3} should not fall below raw {:.3}",
            ref_sum / n as f64,
            raw_sum / n as f64
        );
    }

    #[test]
    fn tune_p_returns_grid_member() {
        let ds = toy_text(1);
        let (mut ctx, matrix, _) = setup(&ds, 8, 5);
        let tuned = ctx.tune_p(&matrix, &ds, &TripletModel::default(), ds.prior());
        assert!(ctx.config.p_grid.contains(&tuned.p));
        // Mean log-likelihood of binary labels is negative and finite.
        assert!(tuned.valid_score <= 0.0 && tuned.valid_score.is_finite());
        assert_eq!(tuned.train_matrix.n_lfs(), matrix.n_lfs());
        assert_eq!(ctx.tune_fits(), ctx.config.p_grid.len());
    }

    #[test]
    fn batched_indexed_and_per_lf_naive_backends_identical() {
        let ds = toy_text(1);
        let (_, _, lineage) = setup(&ds, 6, 9);
        let mut batched = Contextualizer::new(ContextualizerConfig::default());
        batched.sync(&lineage, &ds);
        let dist = batched.config.distance;
        assert_eq!(batched.n_registered(), lineage.len());
        for (j, rec) in lineage.tracked().iter().enumerate() {
            // Bit-identical caches, not just close: the indexed kernel
            // performs the same float operations as the row-major scan.
            let pivot = rec.dev_example as usize;
            let train = ds.train.features.distances_naive(dist, pivot, &ds.train.features);
            let valid = ds.train.features.distances_naive(dist, pivot, &ds.valid.features);
            assert_eq!(batched.train_dists[j], train, "train dists j={j}");
            assert_eq!(batched.valid_dists[j], valid, "valid dists j={j}");
            // Grid points read the radii frozen at registration; 0, 10 and
            // 90 are off the default grid and computed on demand.
            let grid = batched.config.p_grid.clone();
            for &p in grid.iter().chain(&[0.0, 10.0, 90.0]) {
                assert_eq!(
                    batched.radius(j, p).to_bits(),
                    percentile(&train, p).to_bits(),
                    "j={j} p={p}"
                );
            }
        }
    }

    #[test]
    fn radius_defined_for_empty_train_split() {
        // An LF whose training split is empty has no reference distances;
        // the radius must be a *defined* +∞ (refinement = identity), not
        // a panic inside the stats crate (the pre-fix behaviour).
        let mut ctx = Contextualizer::new(ContextualizerConfig::default());
        ctx.train_dists.push(Vec::new());
        ctx.grid_radii.push(Vec::new());
        ctx.valid_dists.push(vec![0.1, 0.7]);
        ctx.raw_valid_cols.push(LfColumn::new(vec![(0, 1), (1, -1)]));
        for &p in &[0.0, 50.0, 100.0] {
            assert_eq!(ctx.radius(0, p), f64::INFINITY, "p={p}");
        }
        // With the identity radius, validation refinement keeps the raw
        // column untouched and training refinement of the (necessarily
        // empty) raw column stays empty.
        assert_eq!(ctx.refine_valid(0, 50.0).entries(), ctx.raw_valid_cols[0].entries());
        assert_eq!(ctx.refine_train(0, 50.0, &LfColumn::empty()).coverage(), 0);
    }

    #[test]
    fn grid_edited_after_registration_tunes_like_a_fresh_registration() {
        // LFs registered under the default grid, then tuned under another:
        // every new grid point misses the frozen radii and is computed from
        // the cached distances, and must tune exactly like a contextualizer
        // registered under the new grid from the start.
        let ds = toy_text(1);
        let (mut edited, matrix, lineage) = setup(&ds, 8, 14);
        let new_grid = vec![10.0, 35.0, 60.0, 85.0, 100.0];
        assert!(new_grid.iter().any(|p| !edited.config.p_grid.contains(p)));
        edited.config.p_grid = new_grid.clone();
        let mut fresh =
            Contextualizer::new(ContextualizerConfig { p_grid: new_grid, ..Default::default() });
        fresh.sync(&lineage, &ds);
        let model = TripletModel::default();
        let a = edited.tune_p(&matrix, &ds, &model, ds.prior());
        let b = fresh.tune_p(&matrix, &ds, &model, ds.prior());
        assert_eq!(a.p.to_bits(), b.p.to_bits(), "tuned p");
        assert_eq!(a.valid_score.to_bits(), b.valid_score.to_bits(), "valid score");
        assert_eq!(a.train_matrix.n_lfs(), b.train_matrix.n_lfs());
        for j in 0..a.train_matrix.n_lfs() {
            assert_eq!(
                a.train_matrix.column(j).entries(),
                b.train_matrix.column(j).entries(),
                "refined column j={j}"
            );
        }
    }

    #[test]
    fn refined_grid_matrices_cache_is_bit_identical_to_rebuild() {
        let ds = toy_text(1);
        let (_, matrix, lineage) = setup(&ds, 6, 21);
        let mut incr = Contextualizer::new(ContextualizerConfig::default());
        incr.sync(&lineage, &ds);
        // Two rounds: a cold fill and a fully warm round, each against the
        // per-grid-point matrices filtered afresh.
        for round in 0..2 {
            let p_grid = incr.config.p_grid.clone();
            let tr: Vec<_> =
                p_grid.iter().map(|&p| incr.refined_train_matrix(&matrix, p)).collect();
            let vr: Vec<_> =
                p_grid.iter().map(|&p| incr.refined_valid_matrix(p, ds.valid.n())).collect();
            let (ti, vi) = incr.refined_grid_matrices(&matrix, ds.valid.n());
            for (k, ((a, b), (c, d))) in ti.iter().zip(&tr).zip(vi.iter().zip(&vr)).enumerate() {
                for j in 0..a.n_lfs() {
                    assert_eq!(
                        a.column(j).entries(),
                        b.column(j).entries(),
                        "train round {round} k={k} j={j}"
                    );
                    assert_eq!(
                        c.column(j).entries(),
                        d.column(j).entries(),
                        "valid round {round} k={k} j={j}"
                    );
                }
            }
        }
        let stats = incr.refine_cache_stats();
        let slots = incr.config.p_grid.len() * 6;
        assert_eq!(stats.refilters, slots, "cold round filters every slot exactly once");
        assert_eq!(stats.hits, slots, "warm round must serve every slot from the cache");
    }

    #[test]
    fn warm_round_refilters_only_new_lfs() {
        let ds = toy_text(1);
        let (_, matrix, lineage) = setup(&ds, 6, 22);
        let grid = ContextualizerConfig::default().p_grid.len();
        let mut ctx = Contextualizer::new(ContextualizerConfig::default());
        // Register and refine the first 5 LFs, then grow the lineage by
        // one: only the new LF's (grid) columns may be refiltered.
        ctx.register_batch(&lineage.tracked()[..5], &ds);
        let mut prefix = matrix.clone();
        prefix.truncate(5);
        ctx.refined_grid_matrices(&prefix, ds.valid.n());
        let cold = ctx.refine_cache_stats();
        assert_eq!(cold.refilters, grid * 5);
        ctx.sync(&lineage, &ds);
        ctx.refined_grid_matrices(&matrix, ds.valid.n());
        let warm = ctx.refine_cache_stats();
        assert_eq!(warm.refilters - cold.refilters, grid, "one refilter per grid point");
        assert_eq!(warm.hits, grid * 5, "all previously cached columns reused");
    }

    #[test]
    fn warm_round_recounts_only_the_new_lf_pairs() {
        use nemo_labelmodel::TripletModel;
        let ds = toy_text(1);
        let (_, matrix, lineage) = setup(&ds, 6, 41);
        let mut ctx = Contextualizer::new(ContextualizerConfig::default());
        ctx.register_batch(&lineage.tracked()[..5], &ds);
        let mut prefix = matrix.clone();
        prefix.truncate(5);
        ctx.tune_p(&prefix, &ds, &TripletModel::default(), ds.prior());
        // Every fitted slot holds the counts of its 5 refined columns; the
        // next round keeps those columns with unchanged tokens, so a sync
        // recounts only the new LF's 5 pairs.
        ctx.sync(&lineage, &ds);
        ctx.refresh_slots(&matrix, ds.valid.n());
        let mut fitted_slots = 0;
        for (k, slot) in ctx.slots.iter().enumerate() {
            let mut counts = slot.pair_counts.clone();
            if counts.n_columns() == 5 {
                fitted_slots += 1;
                assert_eq!(counts.sync(&slot.train), 5, "slot {k}");
            }
        }
        assert!(fitted_slots > 0, "no slot kept its pair counts");
    }

    #[test]
    fn duplicate_grid_points_share_one_fit() {
        // Duplicated percentiles refine to identical train matrices, so
        // they must collapse into one fit; every grid point is still
        // scored on the validation split.
        let ds = toy_text(1);
        let (_, matrix, lineage) = setup(&ds, 5, 33);
        let mut ctx = Contextualizer::new(ContextualizerConfig {
            p_grid: vec![50.0, 50.0, 100.0, 100.0],
            ..Default::default()
        });
        ctx.sync(&lineage, &ds);
        let tuned = ctx.tune_p(&matrix, &ds, &TripletModel::default(), ds.prior());
        assert_eq!(ctx.tune_fits(), 2, "duplicate grid points must share fits");
        assert_eq!(ctx.tune_predicts(), 4, "every grid point is predicted");
        assert!(ctx.config.p_grid.contains(&tuned.p));
    }

    #[test]
    fn invalidate_refined_cache_refilters_dropped_slots() {
        let ds = toy_text(1);
        let (mut ctx, matrix, _) = setup(&ds, 4, 23);
        let grid = ctx.config.p_grid.len();
        ctx.refined_grid_matrices(&matrix, ds.valid.n());
        ctx.invalidate_refined_cache_from(3);
        let before = ctx.refine_cache_stats();
        ctx.refined_grid_matrices(&matrix, ds.valid.n());
        let after = ctx.refine_cache_stats();
        assert_eq!(after.refilters - before.refilters, grid);
        assert_eq!(after.hits - before.hits, grid * 3);
    }

    #[test]
    fn sync_is_incremental_and_idempotent() {
        let ds = toy_text(1);
        let (mut ctx, _, lineage) = setup(&ds, 4, 6);
        assert_eq!(ctx.n_registered(), 4);
        ctx.sync(&lineage, &ds);
        assert_eq!(ctx.n_registered(), 4);
    }

    #[test]
    fn radius_monotone_in_p() {
        let ds = toy_text(1);
        let (ctx, _, _) = setup(&ds, 3, 7);
        for j in 0..3 {
            assert!(ctx.radius(j, 25.0) <= ctx.radius(j, 75.0));
            assert!(ctx.radius(j, 75.0) <= ctx.radius(j, 100.0));
        }
    }

    #[test]
    fn valid_refinement_uses_train_radius() {
        let ds = toy_text(1);
        let (ctx, _, _) = setup(&ds, 3, 8);
        // p = 0 gives the minimum train distance (0, the dev point itself),
        // so validation coverage at p=0 should be (near) empty.
        for j in 0..3 {
            let refined = ctx.refine_valid(j, 0.0);
            assert!(
                refined.coverage() <= ctx.raw_valid_cols[j].coverage(),
                "valid refinement must not grow coverage"
            );
        }
    }
}
