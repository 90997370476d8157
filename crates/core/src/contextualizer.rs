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
//! unlabeled pool, and `p` selected from a fixed grid on the validation
//! quality of the resulting soft labels.
//!
//! Refinement happens once per LF, at registration. [`Contextualizer::sync`]
//! registers the lineage's new LFs: it maps each one's development point
//! through [`nemo_data::Features::distances`] against the train and the
//! valid split (the inverted-index kernel on sparse features), freezes its
//! radius at every grid point by selection
//! ([`nemo_sparse::stats::percentiles`], each equal to
//! [`nemo_sparse::stats::percentile`] bit for bit), appends its votes
//! filtered at each radius to that grid point's slot, and drops the
//! distances. Lineage is append-only and the grid is fixed at construction,
//! so a refined column never goes stale: [`Contextualizer::tune_p`] fits
//! and scores straight from the slots.
//!
//! A restored session builds its contextualizer with
//! [`Contextualizer::restore`] from the radii its checkpoint carries
//! ([`Contextualizer::checkpoint_radii`]). It refines the lineage again,
//! but a refined column only needs the distances at the rows the LF's raw
//! column covers (about 3% of train rows on Amazon quick), so each LF queries
//! just those ([`Rows::Listed`]) and filters at its carried radii with the
//! same `<=`; no full query, no percentile selection. A checkpoint without
//! radii restores through the fresh registration.
//!
//! `tests/slots_equal_naive_refinement.rs` and
//! `tests/contextualizer_paths.rs` check every slot column
//! against the naive refinement ([`nemo_data::Features::distances_naive`],
//! `percentile`, [`nemo_lf::LfColumn::filtered`]);
//! `tests/long_lived_equals_fresh_and_restored.rs` checks a long-lived
//! contextualizer, and ones restored with and without radii, against a
//! fresh one built every round.

use crate::config::ContextualizerConfig;
use crate::error::RestoreError;
use nemo_data::{Dataset, Features, Rows};
use nemo_labelmodel::{CountedMatrix, FittedLabelModel, LabelModel};
use nemo_lf::{LabelMatrix, LfColumn, Lineage, TrackedLf};
use nemo_sparse::stats::percentiles;
use nemo_sparse::GatherScratch;

/// Result of percentile tuning: the chosen `p`, the refined training
/// matrix at that `p`, and the label model fitted to it.
pub struct TunedRefinement<'a> {
    /// Chosen percentile.
    pub p: f64,
    /// Refined training label matrix: the chosen grid slot's own.
    pub train_matrix: &'a LabelMatrix,
    /// Label model fitted on the refined matrix.
    pub fitted: Box<dyn FittedLabelModel>,
    /// Validation score (mean log-likelihood of the validation labels
    /// under the refined soft labels) achieved by the chosen `p`.
    pub valid_score: f64,
}

/// One point of the percentile grid: every registered LF's votes refined
/// at its radius for that point, over the train and the valid split
/// (column `j` is LF `j`). Columns are appended at registration and never
/// rewritten, so the train matrix is a [`CountedMatrix`]: its pair counts
/// are a cache of the MeTaL fit that a warm round extends by the new LF's
/// pairs only. A cache, not a warm start — it never changes a bit of
/// output — and not checkpointed: a restored contextualizer counts every
/// pair once, one dense scatter per column and one probe of each earlier
/// column's entries, `O(m · Σ coverage)` per slot.
#[derive(Default)]
struct GridSlot {
    train: CountedMatrix,
    valid: LabelMatrix,
}

/// Cumulative refined-column counters (bench accounting), in
/// `(grid point, LF)` columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineCacheStats {
    /// Columns a [`Contextualizer::tune_p`] round read that an earlier
    /// round had read already: kept in the slots, not filtered again.
    pub hits: usize,
    /// Columns filtered at registration: one per grid point per LF.
    pub refilters: usize,
}

/// The contextualizer: each registered LF's radii and refined columns at
/// every point of a percentile grid fixed at construction.
pub struct Contextualizer {
    config: ContextualizerConfig,
    /// Every LF's radius at each point of `config.p_grid`, LF-major in
    /// grid order (LF `j`'s at `j * grid..(j + 1) * grid`), frozen at
    /// registration. A restored contextualizer starts with its lineage's
    /// radii, so this may run ahead of the registered LFs.
    radii: Vec<f64>,
    /// Per LF, the coverage of its raw train column: `tune_p`'s check that
    /// the caller's raw matrix is the registered lineage's.
    raw_coverage: Vec<usize>,
    /// LFs registered when `tune_p` last ran; their columns are the next
    /// round's hits.
    tuned: usize,
    /// Label-model fits run by `tune_p` so far: one per unique refined
    /// train matrix per round, so grid points that refine to the same
    /// matrix share one fit (bench accounting).
    tune_fits: usize,
    /// Validation posterior predicts run by [`Contextualizer::tune_p`] so
    /// far — one per grid point per round with a non-empty validation
    /// split (bench accounting).
    tune_predicts: usize,
    /// One slot per entry of `config.p_grid`, in grid order.
    slots: Vec<GridSlot>,
    cache_stats: RefineCacheStats,
}

impl Contextualizer {
    /// Create an empty contextualizer.
    ///
    /// # Panics
    ///
    /// If `config.p_grid` is empty, or holds a point that is NaN or
    /// outside `[0, 100]`. The grid is fixed for the contextualizer's life,
    /// so a bad one is refused here rather than at the first registration
    /// or tuning round.
    pub fn new(config: ContextualizerConfig) -> Self {
        assert!(!config.p_grid.is_empty(), "empty percentile grid");
        for &p in &config.p_grid {
            assert!((0.0..=100.0).contains(&p), "percentile grid point {p} outside [0, 100]");
        }
        Self {
            slots: config.p_grid.iter().map(|_| GridSlot::default()).collect(),
            config,
            radii: Vec::new(),
            raw_coverage: Vec::new(),
            tuned: 0,
            tune_fits: 0,
            tune_predicts: 0,
            cache_stats: RefineCacheStats::default(),
        }
    }

    /// The configuration (distance function and percentile grid), fixed
    /// at construction.
    pub fn config(&self) -> &ContextualizerConfig {
        &self.config
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

    /// Cumulative refined-column counters.
    pub fn refine_cache_stats(&self) -> RefineCacheStats {
        self.cache_stats
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

    /// A contextualizer for a restored lineage of `n_lfs` LFs, starting
    /// from the radii a checkpoint carried: `radii` holds every LF's radius
    /// at each grid point, LF-major in grid order, as
    /// [`Contextualizer::checkpoint_radii`] wrote them. Its first
    /// [`Contextualizer::sync`] registers those LFs without a full distance
    /// query: each LF's distances are taken only to the train and valid
    /// rows its raw columns cover ([`Rows::Listed`]), and filtered at the
    /// carried radii with the same `<=`. The LFs after them register as in
    /// a fresh contextualizer. Every slot column, radius and output equals
    /// a fresh contextualizer's bit for bit
    /// (`tests/long_lived_equals_fresh_and_restored.rs`).
    ///
    /// The radii are checked for shape, not recomputed: a radius inside
    /// its range cannot be told from the LF's true radius without the full
    /// query this path exists to skip, so restore trusts it, as it trusts
    /// the checkpoint's RNG state.
    ///
    /// # Errors
    ///
    /// [`RestoreError::LengthMismatch`] (field `"radii"`) unless there are
    /// `n_lfs × p_grid.len()` radii; [`RestoreError::ValueOutOfRange`] for
    /// a radius that is not finite or is negative;
    /// [`RestoreError::DecreasingRadii`] for an LF whose radii decrease
    /// along the grid sorted by percentile, or differ at equal
    /// percentiles.
    ///
    /// # Panics
    ///
    /// On a bad percentile grid, as [`Contextualizer::new`] does.
    pub fn restore(
        config: ContextualizerConfig,
        radii: Vec<f64>,
        n_lfs: usize,
    ) -> Result<Self, RestoreError> {
        let mut ctx = Self::new(config);
        check_radii(&ctx.config.p_grid, &radii, n_lfs)?;
        ctx.radii = radii;
        Ok(ctx)
    }

    /// The radii a checkpoint of a lineage of `n_lfs` LFs carries, in
    /// [`Contextualizer::restore`]'s layout: every LF's, when this
    /// contextualizer holds exactly `n_lfs` LFs' radii and they pass
    /// restore's checks; otherwise none, and the restored session
    /// registers its lineage afresh. (Radii from [`percentiles`] can fail
    /// the order check: interpolating between tied distances can round up
    /// an ulp past a larger percentile's radius. A checkpoint must still
    /// restore.)
    pub fn checkpoint_radii(&self, n_lfs: usize) -> Vec<f64> {
        match check_radii(&self.config.p_grid, &self.radii, n_lfs) {
            Ok(()) => self.radii.clone(),
            Err(_) => Vec::new(),
        }
    }

    /// Number of LFs registered so far.
    pub fn n_registered(&self) -> usize {
        self.raw_coverage.len()
    }

    /// Register a batch of lineage entries. For each LF, its votes over the
    /// train and the valid corpus, filtered at each grid point's radius,
    /// are appended to the grid slots. A fresh LF's train and valid
    /// distances come from [`nemo_data::Features::distances`] over every
    /// row, and its radius at every grid point is frozen by
    /// [`percentiles`] (order-statistic selection, no sort). An LF whose
    /// radii were restored ([`Contextualizer::restore`]) needs distances
    /// only at the rows its raw columns cover, so it queries those
    /// ([`Rows::Listed`], one scatter buffer for the batch). Either way the
    /// distances are dropped once the LF is refined.
    fn register_batch(&mut self, recs: &[TrackedLf], ds: &Dataset) {
        self.size_slots(ds);
        let ContextualizerConfig { distance, p_grid } = &self.config;
        let grid = p_grid.len();
        let (train, valid) = (&ds.train.features, &ds.valid.features);
        let mut scratch = GatherScratch::default();
        for rec in recs {
            let j = self.raw_coverage.len();
            let pivot = rec.dev_example as usize;
            let raw_train = LfColumn::from_lf(&rec.lf, &ds.train.corpus);
            let raw_valid = LfColumn::from_lf(&rec.lf, &ds.valid.corpus);
            // Distances at each column's covered rows, in entry order.
            // They are finite — every kernel computes sums/square roots of
            // finite feature values, and `Features` validates its buffers
            // (finite norms) on import — so `percentiles` never meets a NaN.
            let (train_d, valid_d) = if self.radii.len() > j * grid {
                let mut covered = |target: &Features, col: &LfColumn| {
                    let rows: Vec<u32> = col.entries().iter().map(|&(i, _)| i).collect();
                    train.distances(*distance, pivot, target, Rows::Listed(&rows, &mut scratch))
                };
                (covered(train, &raw_train), covered(valid, &raw_valid))
            } else {
                let train_all = train.distances(*distance, pivot, train, Rows::All);
                let valid_all = train.distances(*distance, pivot, valid, Rows::All);
                self.radii.extend(grid_radii(&train_all, p_grid));
                (at_entries(&train_all, &raw_train), at_entries(&valid_all, &raw_valid))
            };
            let radii = &self.radii[j * grid..(j + 1) * grid];
            for (slot, &r) in self.slots.iter_mut().zip(radii) {
                slot.train.push(within(&raw_train, &train_d, r));
                slot.valid.push(within(&raw_valid, &valid_d, r));
            }
            self.cache_stats.refilters += grid;
            self.raw_coverage.push(raw_train.coverage());
        }
    }

    /// Register any lineage entries not yet registered (lineage is
    /// append-only, so indices stay aligned). The only way to register
    /// LFs, so the registered LFs are always a prefix of a lineage;
    /// `Session`/`NemoSystem` reach it through `ContextualizedPipeline`.
    pub fn sync(&mut self, lineage: &Lineage, ds: &Dataset) {
        self.register_batch(&lineage.tracked()[self.n_registered()..], ds);
    }

    /// Until the first LF is registered, size the (column-less) slots to
    /// `ds`'s train and valid splits.
    fn size_slots(&mut self, ds: &Dataset) {
        if self.n_registered() == 0 {
            for slot in &mut self.slots {
                *slot = GridSlot {
                    train: CountedMatrix::new(ds.train.n()),
                    valid: LabelMatrix::new(ds.valid.n()),
                };
            }
        }
    }

    /// Position of `p` in the grid (matched bitwise, first of duplicates).
    fn grid_index(&self, p: f64) -> Option<usize> {
        self.config.p_grid.iter().position(|q| q.to_bits() == p.to_bits())
    }

    /// LF `j`'s refinement radius at grid point `p` (matched bitwise): the
    /// `p`-th percentile of its train distances, frozen at registration.
    /// `None` when `p` is not on the grid.
    pub fn radius(&self, j: usize, p: f64) -> Option<f64> {
        self.grid_index(p).map(|k| self.radii[j * self.config.p_grid.len() + k])
    }

    /// The refined train and valid matrices at grid point `p` (matched
    /// bitwise), column `j` being LF `j`. `None` when `p` is not on the
    /// grid; to refine at another `p`, build a contextualizer whose grid
    /// contains it.
    pub fn refined(&self, p: f64) -> Option<(&LabelMatrix, &LabelMatrix)> {
        self.grid_index(p).map(|k| (self.slots[k].train.matrix(), &self.slots[k].valid))
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
    /// The refined matrices are the grid slots' own, filled at
    /// registration; `raw_train` is only checked to be the registered
    /// lineage's raw train matrix. The unique grid points are fitted one
    /// after another via [`LabelModel::fit_from`], each on its slot's
    /// refined train [`CountedMatrix`], which keeps the matrix's pairwise
    /// co-vote counts. A round after registering one LF counts only that
    /// LF's `m − 1` pairs per slot instead of all `m(m−1)/2`, by one
    /// scatter of the new column and one probe of each earlier column.
    /// The counts never change a bit of output.
    ///
    /// # Panics
    ///
    /// If `raw_train` is not aligned with the registered lineage: a
    /// different LF count, or a column whose coverage differs from that of
    /// the registered LF's votes over the train corpus.
    pub fn tune_p(
        &mut self,
        raw_train: &LabelMatrix,
        ds: &Dataset,
        label_model: &dyn LabelModel,
        prior: [f64; 2],
    ) -> TunedRefinement<'_> {
        // invariant: callers pass the raw matrix of the lineage this
        // contextualizer was synced against (documented panic).
        assert_eq!(raw_train.n_lfs(), self.n_registered(), "matrix/lineage mismatch");
        for (j, (col, &cov)) in raw_train.columns().zip(&self.raw_coverage).enumerate() {
            assert_eq!(col.coverage(), cov, "matrix/lineage mismatch at LF {j}");
        }
        self.size_slots(ds);
        self.cache_stats.hits += self.slots.len() * self.tuned;
        self.tuned = self.n_registered();
        let p_grid = &self.config.p_grid;

        // Dedup: when adjacent percentiles quantize to the same refined
        // matrix (no distance falls between the radii), the
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
        let sigs: Vec<Vec<usize>> = self
            .slots
            .iter()
            .map(|slot| slot.train.matrix().columns().map(LfColumn::coverage).collect())
            .collect();
        let repr: Vec<usize> =
            (0..sigs.len()).map(|k| (0..k).find(|&e| sigs[e] == sigs[k]).unwrap_or(k)).collect();
        let unique: Vec<usize> =
            repr.iter().enumerate().filter(|&(k, &r)| r == k).map(|(k, _)| k).collect();
        self.tune_fits += unique.len();

        // Fit the unique grid points, each on its slot's counted train
        // matrix, so a moment estimator counts only the new LF's pairs.
        let mut fitted: Vec<Option<Box<dyn FittedLabelModel>>> =
            (0..p_grid.len()).map(|_| None).collect();
        for &k in &unique {
            fitted[k] = Some(label_model.fit_from(&mut self.slots[k].train, prior));
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
        // of 0.0 reported. `tests/long_lived_equals_fresh_and_restored.rs`
        // pins this against a deliberately unsorted grid. No posterior is
        // predicted on an empty split.
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
            train_matrix: self.slots[best_k].train.matrix(),
            // invariant: `best_k` indexes a fitted representative —
            // ties resolve to fitted slots and no take() precedes this.
            fitted: fitted[best_k].take().expect("fitted"),
            valid_score: scores[best_k],
        }
    }
}

/// An LF's radius at every point of `p_grid`: the percentiles of its train
/// distances. Against an **empty training split** there is nothing to take
/// a percentile of (the stats crate asserts on empty input), so the radius
/// is *defined* as `+∞` at every point: with no distance information the
/// contextualizer cannot justify shrinking coverage, and refinement is the
/// identity, like the `p = 100` endpoint.
fn grid_radii(train_d: &[f64], p_grid: &[f64]) -> Vec<f64> {
    if train_d.is_empty() {
        vec![f64::INFINITY; p_grid.len()]
    } else {
        percentiles(train_d, p_grid)
    }
}

/// `col`'s votes at distance at most `r`: `d[k]` is the distance at its
/// `k`-th entry.
fn within(col: &LfColumn, d: &[f64], r: f64) -> LfColumn {
    let mut d = d.iter();
    // invariant: `d` holds one distance per entry, and `filtered` asks
    // about every entry once, in order.
    col.filtered(|_| *d.next().expect("one distance per entry") <= r)
}

/// The distances at `col`'s covered rows, in entry order, out of a full
/// query's answer `d` (indexed by row).
fn at_entries(d: &[f64], col: &LfColumn) -> Vec<f64> {
    col.entries().iter().map(|&(i, _)| d[i as usize]).collect()
}

/// Restore's checks on carried radii (see [`Contextualizer::restore`]):
/// `n_lfs × grid` of them, each finite and non-negative, and each LF's
/// non-decreasing along the grid sorted by percentile, equal at equal
/// percentiles (which select the same order statistics).
fn check_radii(p_grid: &[f64], radii: &[f64], n_lfs: usize) -> Result<(), RestoreError> {
    let grid = p_grid.len();
    if radii.len() != n_lfs * grid {
        return Err(RestoreError::LengthMismatch {
            field: "radii",
            expected: n_lfs * grid,
            actual: radii.len(),
        });
    }
    if radii.iter().any(|r| !r.is_finite() || *r < 0.0) {
        return Err(RestoreError::ValueOutOfRange { field: "radii" });
    }
    let mut order: Vec<usize> = (0..grid).collect();
    order.sort_by(|&a, &b| p_grid[a].total_cmp(&p_grid[b]));
    for (lf, lf_radii) in radii.chunks_exact(grid).enumerate() {
        let out_of_order = |w: &[usize]| {
            let (a, b) = (lf_radii[w[0]], lf_radii[w[1]]);
            a > b || (p_grid[w[0]] == p_grid[w[1]] && a != b)
        };
        if order.windows(2).any(out_of_order) {
            return Err(RestoreError::DecreasingRadii { lf });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ContextualizerConfig;
    use nemo_data::catalog::toy_text;
    use nemo_labelmodel::TripletModel;
    use nemo_lf::Label;
    use nemo_sparse::DetRng;

    fn with_grid(p_grid: &[f64]) -> Contextualizer {
        Contextualizer::new(ContextualizerConfig { p_grid: p_grid.to_vec(), ..Default::default() })
    }

    /// Register a handful of simulated-user LFs on the toy dataset under
    /// the percentile grid `p_grid`.
    fn setup(
        ds: &Dataset,
        n_lfs: usize,
        seed: u64,
        p_grid: &[f64],
    ) -> (Contextualizer, LabelMatrix, Lineage) {
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
        let mut ctx = with_grid(p_grid);
        ctx.sync(&lineage, ds);
        (ctx, matrix, lineage)
    }

    fn default_grid() -> Vec<f64> {
        ContextualizerConfig::default().p_grid
    }

    /// LF `j`'s refined train column at grid point `p`.
    fn train_col(ctx: &Contextualizer, p: f64, j: usize) -> &LfColumn {
        ctx.refined(p).expect("p on the grid").0.column(j)
    }

    #[test]
    fn refinement_is_subset_of_raw() {
        let ds = toy_text(1);
        let (ctx, matrix, _) = setup(&ds, 5, 1, &[25.0, 50.0, 75.0]);
        for (j, raw) in matrix.columns().enumerate() {
            for &p in &[25.0, 50.0, 75.0] {
                let refined = train_col(&ctx, p, j);
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
        let grid = [10.0, 30.0, 50.0, 70.0, 90.0, 100.0];
        let (ctx, matrix, _) = setup(&ds, 5, 2, &grid);
        for j in 0..matrix.n_lfs() {
            let mut prev = 0usize;
            for &p in &grid {
                let cov = train_col(&ctx, p, j).coverage();
                assert!(cov >= prev, "coverage must grow with p");
                prev = cov;
            }
        }
    }

    #[test]
    fn p100_keeps_everything() {
        let ds = toy_text(1);
        let (ctx, matrix, _) = setup(&ds, 5, 3, &default_grid());
        for (j, raw) in matrix.columns().enumerate() {
            assert_eq!(train_col(&ctx, 100.0, j).entries(), raw.entries());
        }
    }

    #[test]
    fn refinement_improves_lf_accuracy_on_toy() {
        // The planted structure guarantees LFs are most accurate near
        // their dev point; refining at p=50 should (on average) raise
        // accuracy over the raw LF.
        let ds = toy_text(1);
        let (ctx, matrix, _) = setup(&ds, 12, 4, &default_grid());
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
            if let (Some(ra), Some(fa)) = (acc_of(raw), acc_of(train_col(&ctx, 50.0, j))) {
                raw_sum += ra;
                ref_sum += fa;
                n += 1;
            }
        }
        assert!(n >= 8, "need enough refinable LFs, got {n}");
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
        let (mut ctx, matrix, _) = setup(&ds, 8, 5, &default_grid());
        let tuned = ctx.tune_p(&matrix, &ds, &TripletModel::default(), ds.prior());
        // Mean log-likelihood of binary labels is negative and finite.
        assert!(tuned.valid_score <= 0.0 && tuned.valid_score.is_finite());
        assert_eq!(tuned.train_matrix.n_lfs(), matrix.n_lfs());
        let p = tuned.p;
        assert!(ctx.config().p_grid.contains(&p));
        assert_eq!(ctx.tune_fits(), ctx.config().p_grid.len());
    }

    #[test]
    fn radius_defined_for_empty_train_split() {
        // An LF whose training split is empty has no reference distances;
        // the radius must be a *defined* +∞ (refinement = identity), not
        // a panic inside the stats crate.
        let grid = [0.0, 50.0, 100.0];
        assert_eq!(grid_radii(&[], &grid), vec![f64::INFINITY; 3]);
        let raw = LfColumn::new(vec![(0, 1), (1, -1)]);
        let valid_d = [0.1, 0.7];
        for r in grid_radii(&[], &grid) {
            assert_eq!(raw.filtered(|i| valid_d[i as usize] <= r).entries(), raw.entries());
        }
        // A non-empty split takes percentiles as usual.
        assert_eq!(grid_radii(&[0.0, 2.0], &grid), vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn warm_round_recounts_only_the_new_lf_pairs() {
        // The simulated user writes the same first five LFs whether asked
        // for five or six, so the six-LF lineage grows the five-LF one.
        let ds = toy_text(1);
        let (mut ctx, prefix, first_five) = setup(&ds, 5, 41, &default_grid());
        ctx.tune_p(&prefix, &ds, &TripletModel::default(), ds.prior());
        // Every fitted slot holds the counts of its 5 refined columns;
        // registering the sixth LF appends one column per slot, so a sync
        // counts only the new LF's 5 pairs.
        let (_, _, lineage) = setup(&ds, 6, 41, &default_grid());
        assert_eq!(&lineage.tracked()[..5], first_five.tracked());
        ctx.sync(&lineage, &ds);
        let mut fitted_slots = 0;
        for (k, slot) in ctx.slots.iter().enumerate() {
            let mut train = slot.train.clone();
            if train.n_counted() == 5 {
                fitted_slots += 1;
                assert_eq!(train.sync(), 5, "slot {k}");
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
        let (mut ctx, matrix, _) = setup(&ds, 5, 33, &[50.0, 50.0, 100.0, 100.0]);
        let p = ctx.tune_p(&matrix, &ds, &TripletModel::default(), ds.prior()).p;
        assert_eq!(ctx.tune_fits(), 2, "duplicate grid points must share fits");
        assert_eq!(ctx.tune_predicts(), 4, "every grid point is predicted");
        assert!(ctx.config().p_grid.contains(&p));
    }

    #[test]
    fn sync_is_incremental_and_idempotent() {
        let ds = toy_text(1);
        let (mut ctx, _, lineage) = setup(&ds, 4, 6, &default_grid());
        assert_eq!(ctx.n_registered(), 4);
        ctx.sync(&lineage, &ds);
        assert_eq!(ctx.n_registered(), 4);
        assert_eq!(ctx.refined(50.0).expect("grid").0.n_lfs(), 4);
    }

    #[test]
    fn radius_monotone_in_p() {
        let ds = toy_text(1);
        let (ctx, _, _) = setup(&ds, 3, 7, &default_grid());
        let r = |j, p| ctx.radius(j, p).expect("grid point");
        for j in 0..3 {
            assert!(r(j, 25.0) <= r(j, 75.0));
            assert!(r(j, 75.0) <= r(j, 100.0));
        }
    }

    #[test]
    fn valid_refinement_uses_train_radius() {
        let ds = toy_text(1);
        let (ctx, _, lineage) = setup(&ds, 3, 8, &[0.0, 100.0]);
        // p = 0 gives the minimum train distance (0, the dev point itself),
        // so validation coverage at p=0 is (near) empty, and p = 100 keeps
        // the LF's raw validation votes.
        for (j, rec) in lineage.tracked().iter().enumerate() {
            let raw_valid = LfColumn::from_lf(&rec.lf, &ds.valid.corpus);
            let tight = ctx.refined(0.0).expect("grid").1.column(j);
            let full = ctx.refined(100.0).expect("grid").1.column(j);
            assert!(tight.coverage() <= full.coverage(), "valid refinement must not grow");
            assert!(full.coverage() <= raw_valid.coverage());
        }
    }

    #[test]
    fn restore_checks_radii_along_the_sorted_grid() {
        let config =
            |p_grid: &[f64]| ContextualizerConfig { p_grid: p_grid.to_vec(), ..Default::default() };
        let restore = |p_grid: &[f64], radii: &[f64]| {
            Contextualizer::restore(config(p_grid), radii.to_vec(), 1).map(|c| c.radii)
        };
        // An unsorted grid is checked in percentile order: p = 0, 50, 100.
        let unsorted = [50.0, 0.0, 100.0];
        assert_eq!(restore(&unsorted, &[0.5, 0.2, 0.9]), Ok(vec![0.5, 0.2, 0.9]));
        assert_eq!(
            restore(&unsorted, &[0.5, 0.6, 0.9]),
            Err(RestoreError::DecreasingRadii { lf: 0 })
        );
        assert_eq!(
            restore(&unsorted, &[0.5, 0.2, 0.4]),
            Err(RestoreError::DecreasingRadii { lf: 0 })
        );
        // Equal percentiles select the same order statistics.
        assert!(restore(&[50.0, 50.0], &[0.5, 0.5]).is_ok());
        for radii in [[0.4, 0.5], [0.5, 0.4]] {
            assert_eq!(
                restore(&[50.0, 50.0], &radii),
                Err(RestoreError::DecreasingRadii { lf: 0 })
            );
        }
        let two = Contextualizer::restore(config(&[0.0, 100.0]), vec![0.0, 1.0, 0.3, 0.2], 2);
        assert_eq!(two.err(), Some(RestoreError::DecreasingRadii { lf: 1 }));
        // A fresh contextualizer's radii pass, and are carried only for the
        // lineage length they cover.
        let ds = toy_text(1);
        let (ctx, _, lineage) = setup(&ds, 4, 9, &unsorted);
        let radii = ctx.checkpoint_radii(lineage.len());
        assert_eq!(radii.len(), 4 * unsorted.len());
        assert!(ctx.checkpoint_radii(lineage.len() + 1).is_empty());
        assert!(Contextualizer::restore(config(&unsorted), radii, 4).is_ok());
    }

    #[test]
    fn checkpoint_drops_radii_that_restore_would_reject() {
        // Interpolating between two equal distances can round up past
        // them: with ties, a smaller percentile's radius can exceed a
        // larger one's by an ulp. Such radii are not carried, so the
        // restored session registers afresh instead of failing to restore.
        let grid = [10.0, 50.0];
        let radii = grid_radii(&[0.225; 3], &grid);
        assert!(radii[0] > radii[1], "{radii:?}");
        assert_eq!(check_radii(&grid, &radii, 1), Err(RestoreError::DecreasingRadii { lf: 0 }));
        let mut ctx = with_grid(&grid);
        ctx.radii = radii;
        assert!(ctx.checkpoint_radii(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside [0, 100]")]
    fn nan_grid_point_panics_at_construction() {
        with_grid(&[50.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 100]")]
    fn negative_grid_point_panics_at_construction() {
        with_grid(&[-1.0, 50.0]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 100]")]
    fn grid_point_above_100_panics_at_construction() {
        with_grid(&[50.0, 101.0]);
    }

    #[test]
    #[should_panic(expected = "empty percentile grid")]
    fn empty_grid_panics_at_construction() {
        with_grid(&[]);
    }
}
