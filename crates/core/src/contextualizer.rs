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
//! Registration is **batched**: all of a round's new LFs go through
//! [`Contextualizer::register_batch`], which computes every train/valid
//! distance vector in one pass over the feature matrices' inverted-index
//! engine ([`nemo_data::Features::point_to_all_many`]), one pivot after
//! another through a single scratch accumulator. It is bit-identical to
//! the per-LF naive scan ([`nemo_data::Features::point_to_all_naive`]),
//! which the differential suites use as its oracle. The grid radii are found by selection
//! ([`nemo_sparse::stats::percentiles`]), not by sorting the distances;
//! each equals [`nemo_sparse::stats::percentile`] bit for bit.

use crate::config::ContextualizerConfig;
use nemo_data::Dataset;
use nemo_labelmodel::{FittedLabelModel, LabelModel, PairCounts};
use nemo_lf::{LabelMatrix, LfColumn, Lineage, TrackedLf};
use nemo_sparse::stats::{percentile, percentiles};
// lint: allow(determinism/hash-collections): the dedup map below is
// lookup-only (entry/or_insert); its iteration order is never observed.
use std::collections::HashMap;
use std::sync::Arc;

/// Result of percentile tuning: the chosen `p`, the refined training
/// matrix at that `p`, and the label model fitted to it.
pub struct TunedRefinement {
    /// Chosen percentile.
    pub p: f64,
    /// Refined training label matrix.
    pub train_matrix: LabelMatrix,
    /// Label model fitted on the refined matrix.
    pub fitted: Box<dyn FittedLabelModel>,
    /// Validation score (mean log-likelihood of the validation labels
    /// under the refined soft labels) achieved by the chosen `p`.
    pub valid_score: f64,
}

/// One `(grid point, LF)` slot of the cross-round refined-column cache:
/// the filtered train and valid columns, plus the key they were filtered
/// under — the radius (bitwise) and the raw train column's construction
/// token. Lineage is append-only, so for an existing LF neither component
/// moves between rounds and the slot stays valid until the caller changes
/// the grid or swaps the raw matrix. Columns are held as shared
/// [`Arc<LfColumn>`] handles: serving a slot into a grid matrix is an
/// `Arc` clone ([`LabelMatrix::push_shared`]) — a refcount bump, never a
/// vote memcpy.
struct RefinedEntry {
    /// `radius(j, p).to_bits()` at filter time.
    radius_bits: u64,
    /// [`LfColumn::token`] of the raw train column the train column was
    /// filtered from (the valid column's raw source is owned by the
    /// contextualizer and immutable, so it needs no key).
    raw_token: u64,
    train: Arc<LfColumn>,
    valid: Arc<LfColumn>,
}

/// Cumulative refined-column cache counters (bench accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineCacheStats {
    /// `(grid point, LF)` slots served from the cache.
    pub hits: usize,
    /// Slots whose own-slot key missed (cold slots, radius changes,
    /// raw-column changes).
    pub refilters: usize,
    /// Of the `refilters`, slots recovered by sharing an *earlier grid
    /// slot's* cached columns (same LF, same radius bits, same raw token)
    /// instead of re-running the filter — duplicate grid percentiles and
    /// adjacent percentiles quantizing to the same radius cost a refcount
    /// bump, and equal columns across slots come out pointer-equal.
    pub cross_slot_reuses: usize,
    /// Columns handed to grid matrices as shared `Arc` clones (train and
    /// valid counted separately). **Every** served column is shared — a
    /// warm round's matrix assembly performs zero per-column vote
    /// memcpys, which the CoW differential tests pin via `Arc::ptr_eq`
    /// across rounds.
    pub shared_serves: usize,
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
    /// Cross-round refined-column cache, `[grid slot][lf]`, lazily grown
    /// and revalidated per slot (see
    /// [`Contextualizer::refined_grid_matrices`]).
    refined_cache: Vec<Vec<Option<RefinedEntry>>>,
    cache_stats: RefineCacheStats,
    /// Per-grid-slot pairwise co-vote counts of the refined train matrix,
    /// keyed by column token like `refined_cache`: a warm round recounts
    /// only the pairs touching the new LF's column. A cache, not a warm
    /// start — it never changes a bit of output — and not checkpointed: a
    /// restored contextualizer recounts every pair once, one dense scatter
    /// per column and one probe of each later column's entries, `O(m ·
    /// Σ coverage)` per slot.
    pair_counts: Vec<PairCounts>,
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
            refined_cache: Vec::new(),
            cache_stats: RefineCacheStats::default(),
            pair_counts: Vec::new(),
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
        for slot in &mut self.refined_cache {
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

    /// Register a round's worth of LFs in one pass: every train and valid
    /// distance vector is computed by a single batched call into the
    /// inverted-index distance engine, and each LF's radius at every point
    /// of `config.p_grid` is frozen by [`percentiles`] (order-statistic
    /// selection, no sort and no sorted copy kept).
    pub fn register_batch(&mut self, recs: &[TrackedLf], ds: &Dataset) {
        if recs.is_empty() {
            return;
        }
        let dist = self.config.distance;
        let pivots: Vec<usize> = recs.iter().map(|r| r.dev_example as usize).collect();
        let train_ds = ds.train.features.point_to_all_many(dist, &pivots);
        let valid_ds = ds.train.features.point_to_other_many(dist, &pivots, &ds.valid.features);
        // Distances are finite — both kernels compute sums/square roots of
        // finite feature values, and `Features` validates its buffers
        // (finite norms) on import — so `percentiles` never meets a NaN.
        let p_grid = &self.config.p_grid;
        for ((rec, train_d), valid_d) in recs.iter().zip(train_ds).zip(valid_ds) {
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
    /// consumes (one pair per entry of `config.p_grid`, in grid order).
    ///
    /// Each `(grid point, LF)` column pair is served from the cross-round
    /// cache when its key — the radius bits and the raw train column's
    /// [`nemo_lf::LfColumn::token`] — matches, and refiltered (then
    /// re-cached) otherwise. Because lineage is append-only and an
    /// existing LF's distance table is frozen at registration, a warm
    /// round refilters only the newly registered LFs' columns: `O(grid)`
    /// filters instead of `O(grid · lfs)`. Served columns are **shared
    /// handles** of the cached filter output (`Arc` clones via
    /// [`LabelMatrix::push_shared`] — `O(1)` per column, no vote memcpy),
    /// bit-identical to filtering every column afresh with
    /// [`Contextualizer::refined_train_matrix`] /
    /// [`Contextualizer::refined_valid_matrix`] — the `refine_cache`
    /// differential suite and bench gate pin this, and the CoW suite
    /// additionally pins pointer identity across warm rounds.
    pub fn refined_grid_matrices(
        &mut self,
        raw_train: &LabelMatrix,
        n_valid: usize,
    ) -> (Vec<LabelMatrix>, Vec<LabelMatrix>) {
        // invariant: same matrix/lineage alignment contract as
        // `refined_train_matrix`.
        assert_eq!(raw_train.n_lfs(), self.n_registered(), "matrix/lineage mismatch");
        let p_grid = self.config.p_grid.clone();
        // The grid is position-keyed: slot k caches whatever radius
        // p_grid[k] last produced, so a grown/shrunk grid resizes the
        // outer vec and an edited percentile invalidates through the
        // radius key alone.
        let n_lfs = self.n_registered();
        self.refined_cache.resize_with(p_grid.len(), Vec::new);
        let mut train_out = Vec::with_capacity(p_grid.len());
        let mut valid_out = Vec::with_capacity(p_grid.len());
        for (k, &p) in p_grid.iter().enumerate() {
            let mut train_m = LabelMatrix::new(raw_train.n_examples());
            let mut valid_m = LabelMatrix::new(n_valid);
            for j in 0..n_lfs {
                let r = self.radius(j, p);
                let raw = raw_train.column(j);
                if self.refined_cache[k].len() <= j {
                    self.refined_cache[k].resize_with(n_lfs, || None);
                }
                let fresh = matches!(
                    &self.refined_cache[k][j],
                    Some(e) if e.radius_bits == r.to_bits() && e.raw_token == raw.token()
                );
                if fresh {
                    self.cache_stats.hits += 1;
                } else {
                    self.cache_stats.refilters += 1;
                    // Cross-slot reuse: an earlier grid slot that filtered
                    // the same raw column at the same radius already holds
                    // exactly this slot's columns — share its handles
                    // instead of filtering again. Stale sibling entries
                    // are skipped by the same key check as the own-slot
                    // test above.
                    let reused = self.refined_cache[..k].iter().find_map(|slot| {
                        slot.get(j)
                            .and_then(Option::as_ref)
                            .filter(|e| e.radius_bits == r.to_bits() && e.raw_token == raw.token())
                            .map(|e| (Arc::clone(&e.train), Arc::clone(&e.valid)))
                    });
                    let (train, valid) = match reused {
                        Some(pair) => {
                            self.cache_stats.cross_slot_reuses += 1;
                            pair
                        }
                        None => {
                            let train = {
                                let d = &self.train_dists[j];
                                raw.filtered(|i| d[i as usize] <= r)
                            };
                            let valid = {
                                let d = &self.valid_dists[j];
                                self.raw_valid_cols[j].filtered(|i| d[i as usize] <= r)
                            };
                            (Arc::new(train), Arc::new(valid))
                        }
                    };
                    self.refined_cache[k][j] = Some(RefinedEntry {
                        radius_bits: r.to_bits(),
                        raw_token: raw.token(),
                        train,
                        valid,
                    });
                }
                // Serve by handle: a refcount bump per column, never a
                // vote memcpy — warm rounds assemble every grid matrix
                // in O(1) per column.
                // invariant: the miss branch directly above filled
                // this slot before falling through.
                let entry = self.refined_cache[k][j].as_ref().expect("slot populated above");
                train_m.push_shared(Arc::clone(&entry.train));
                valid_m.push_shared(Arc::clone(&entry.valid));
                self.cache_stats.shared_serves += 2;
            }
            train_out.push(train_m);
            valid_out.push(valid_m);
        }
        (train_out, valid_out)
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
    /// Refined columns are served from the refined-column cache with
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

        // Refined matrix per grid point — served from the cross-round
        // refined-column cache — then dedup: when adjacent percentiles quantize to the same
        // refined matrix (no distance falls between the radii), the
        // representative's fit is rebuilt from its accuracies instead of
        // refitting — both a redundant-fit saving and the guarantee that
        // identical matrices score with *identical* parameters, so the
        // `>=` tie-break below resolves the same way however the grid
        // quantizes. (All estimators in this workspace aggregate through
        // `NaiveBayesFit`, whose construction from the clamped accuracies
        // is bitwise idempotent.)
        //
        // Equivalence classes are discovered by **hashing coverage
        // signatures**, not by the historical pairwise
        // `O(grid² · coverage)` matrix compare. For a fixed LF `j` every
        // grid point filters the *same* raw column by `d_j(i) ≤ r`, and
        // those kept-sets are nested across radii (monotone in `r`), so
        // two grid points keep identical column content iff they keep the
        // *same number* of entries — the per-column `coverage()` (an O(1)
        // stored length) is a sound and complete equality witness. A
        // slot's signature is its per-LF coverage vector; first occurrence
        // in the hash map is the class representative, matching the old
        // scan's first-earlier-equal semantics. This is `O(grid · lfs)`
        // and — unlike hashing the radius bits — still unifies *distinct*
        // radii that quantize to the same refined matrix, the common case
        // the dedup exists for.
        let (mut matrices, valid_matrices) = self.refined_grid_matrices(raw_train, ds.valid.n());
        let repr: Vec<usize> = {
            // lint: allow(determinism/hash-collections): entry/or_insert
            // keyed dedup; results read via lookups in grid order, the
            // map itself is never iterated.
            let mut first_of: HashMap<Vec<usize>, usize> = HashMap::with_capacity(matrices.len());
            matrices
                .iter()
                .enumerate()
                .map(|(k, m)| {
                    let sig: Vec<usize> = m.columns().map(LfColumn::coverage).collect();
                    *first_of.entry(sig).or_insert(k)
                })
                .collect()
        };
        let unique: Vec<usize> =
            repr.iter().enumerate().filter(|&(k, &r)| r == k).map(|(k, _)| k).collect();
        self.tune_fits += unique.len();

        // Fit the unique grid points, each with its slot's pair-count
        // cache, so a moment estimator recounts only the new LF's pairs.
        self.pair_counts.resize_with(p_grid.len(), PairCounts::default);
        let mut fitted: Vec<Option<Box<dyn FittedLabelModel>>> =
            (0..p_grid.len()).map(|_| None).collect();
        for &k in &unique {
            fitted[k] = Some(label_model.fit_from(&matrices[k], prior, &mut self.pair_counts[k]));
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
                *score = fit.score_log_likelihood(&valid_matrices[k], &ds.valid.labels);
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
            train_matrix: matrices.swap_remove(best_k),
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
            let train = ds.train.features.point_to_all_naive(dist, pivot);
            let valid = ds.train.features.point_to_other_naive(dist, pivot, &ds.valid.features);
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
            let (ti, vi) = incr.refined_grid_matrices(&matrix, ds.valid.n());
            let p_grid = incr.config.p_grid.clone();
            let tr: Vec<_> =
                p_grid.iter().map(|&p| incr.refined_train_matrix(&matrix, p)).collect();
            let vr: Vec<_> =
                p_grid.iter().map(|&p| incr.refined_valid_matrix(p, ds.valid.n())).collect();
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
        let prefix = {
            let mut m = LabelMatrix::new(matrix.n_examples());
            for j in 0..5 {
                m.push(matrix.column(j).clone());
            }
            m
        };
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
        let mut prefix = LabelMatrix::new(matrix.n_examples());
        for j in 0..5 {
            prefix.push_shared(Arc::clone(matrix.shared_column(j)));
        }
        ctx.tune_p(&prefix, &ds, &TripletModel::default(), ds.prior());
        // Every fitted slot holds the counts of its 5 refined columns; the
        // next round's grid matrices serve those columns with unchanged
        // tokens, so a sync recounts only the new LF's 5 pairs.
        ctx.sync(&lineage, &ds);
        let (grid, _) = ctx.refined_grid_matrices(&matrix, ds.valid.n());
        let mut fitted_slots = 0;
        for (k, m) in grid.iter().enumerate() {
            let mut counts = ctx.pair_counts[k].clone();
            if counts.n_columns() == 5 {
                fitted_slots += 1;
                assert_eq!(counts.sync(m), 5, "slot {k}");
            }
        }
        assert!(fitted_slots > 0, "no slot kept its pair counts");
    }

    #[test]
    fn warm_round_grid_assembly_is_zero_copy() {
        // After the cold fill, a warm round must (a) refilter nothing,
        // (b) serve every column as a shared handle, and (c) hand out the
        // *same* vote buffers as the previous round — pointer identity is
        // the proof that assembly performed zero per-column memcpys.
        let ds = toy_text(1);
        let (mut ctx, matrix, _) = setup(&ds, 6, 31);
        let slots = ctx.config.p_grid.len() * 6;
        let (t1, v1) = ctx.refined_grid_matrices(&matrix, ds.valid.n());
        let cold = ctx.refine_cache_stats();
        assert_eq!(cold.refilters, slots);
        assert_eq!(cold.shared_serves, 2 * slots, "every serve is a shared handle");
        let (t2, v2) = ctx.refined_grid_matrices(&matrix, ds.valid.n());
        let warm = ctx.refine_cache_stats();
        assert_eq!(warm.refilters, cold.refilters, "warm round must not rebuild any column");
        assert_eq!(warm.shared_serves - cold.shared_serves, 2 * slots);
        for k in 0..t1.len() {
            assert_eq!(t1[k].shared_columns_with(&t2[k]), 6, "train k={k} must be pointer-shared");
            assert_eq!(v1[k].shared_columns_with(&v2[k]), 6, "valid k={k} must be pointer-shared");
            for j in 0..6 {
                assert!(
                    std::sync::Arc::ptr_eq(t1[k].shared_column(j), t2[k].shared_column(j)),
                    "train k={k} j={j} was deep-copied"
                );
            }
        }
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
    fn duplicate_grid_points_share_cached_columns() {
        // A duplicated percentile's slots miss their own-slot key on the
        // cold round (still counted as refilters) but must recover every
        // column from the earlier twin slot by handle — pointer-equal
        // columns, no second filter pass.
        let ds = toy_text(1);
        let (_, matrix, lineage) = setup(&ds, 5, 34);
        let mut ctx = Contextualizer::new(ContextualizerConfig {
            p_grid: vec![50.0, 50.0, 100.0],
            ..Default::default()
        });
        ctx.sync(&lineage, &ds);
        let (t, v) = ctx.refined_grid_matrices(&matrix, ds.valid.n());
        let stats = ctx.refine_cache_stats();
        assert_eq!(stats.refilters, 3 * 5, "cold round: every slot's own-slot key misses");
        assert!(
            stats.cross_slot_reuses >= 5,
            "duplicated grid point must reuse its sibling's columns, got {}",
            stats.cross_slot_reuses
        );
        for j in 0..5 {
            assert!(Arc::ptr_eq(t[0].shared_column(j), t[1].shared_column(j)), "train j={j}");
            assert!(Arc::ptr_eq(v[0].shared_column(j), v[1].shared_column(j)), "valid j={j}");
        }
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
