//! Select by Expected Utility (paper Sec. 4.2, Eq. 1).
//!
//! ```text
//! x* = argmax_{x ∈ U}  E_{P(λ|x)} [ Ψ_t(λ) ]
//! ```
//!
//! The expectation decomposes over the candidate LF family of `x` — all
//! `(z, y)` pairs with `z` contained in `x` (Eq. 2's denominator runs over
//! this *joint* set):
//!
//! ```text
//! EU(x) = [ Σ_{z∈x} Σ_y P(y) · w(acc_{z,y}) · Ψ_t(λ_{z,y}) ] / [ Σ_{z∈x} Σ_y w(acc_{z,y}) ]
//! ```
//!
//! Two structural consequences confirm this reading against the paper's
//! own numbers:
//!
//! 1. With accuracy weights, `acc_{z,+} + acc_{z,−} = 1`, so the
//!    denominator is exactly `|x|` and a *neutral* primitive
//!    (`acc ≈ 0.5` both ways) contributes `≈ 0` — junk keywords
//!    self-cancel instead of injecting noise.
//! 2. With uniform weights (the Table 6 ablation), `Ψ(λ_{z,−}) =
//!    −Ψ(λ_{z,+})` makes every example's score cancel to zero, so
//!    selection degenerates to random tie-breaking — which is precisely
//!    why the paper's Table 6 "Uniform" column equals its Table 2
//!    "Snorkel" (random) column on five of six datasets.
//!
//! **Fast path** (DESIGN.md §3): a single pass over the inverted index
//! accumulates per-primitive aggregates ([`PrimAgg`]) from which both
//! `Ψ_t(λ_{z,y})` and `acc(λ_{z,y})` are O(1); scoring all examples then
//! costs `O(nnz(U))` total. Inside a [`crate::session::Session`] the
//! aggregates are additionally maintained *incrementally* across rounds,
//! and scoring goes through a per-round [`ScoreTable`] (per-primitive
//! weight/utility products) evaluated in parallel over the pool. A naive
//! per-example reference implementation is kept for differential testing.
//!
//! **Dirty-set path** ([`SeuScoring::DirtySet`], the default): the
//! selector keeps the score table *and* every candidate's score
//! components (weighted-utility numerator, weight-mass denominator)
//! cached across rounds. A candidate's utility depends only on the table
//! rows of its primitives, so after a delta-sync the selector asks the
//! session's [`crate::session::SeuAggregates`] which primitives changed
//! ([`crate::session::SeuAggregates::dirty_prims_since`]), refills
//! exactly those rows, and applies each changed row to its covered
//! candidates as one fused `(Δnum, Δden)` update per posting —
//! `O(Σ_{z dirty} df(z) + n)` per round against the full rescore's
//! `O(nnz(U))`. Candidates touched by no dirty row keep their cached
//! components bitwise. The in-place updates drift by at most one
//! rounding step each; the cache re-anchors with an exact recompute
//! (bit-identical to [`SeuScoring::Full`]) on a fixed cadence, after
//! aggregate rebuilds, and when the dirty rows cover the entire posting
//! mass. Delta rounds — including real learning rounds, where the label
//! model moves most covered posteriors — agree with the full rescore
//! within the bounded drift, differential-tested to `1e-9` in
//! `tests/incremental_differential.rs` and end-to-end in
//! `tests/incremental_paths.rs`.

use crate::config::SeuScoring;
use crate::idp::{SelectionView, Selector};
use crate::user_model::UserModelKind;
use crate::utility::{PrimAgg, UtilityKind};
use nemo_lf::Label;
use nemo_sparse::stats::argmax_set;
use nemo_sparse::DetRng;

/// Cumulative accounting of the dirty-set score cache (speedup evidence
/// for `BENCH_kernel.json`'s `seu_dirty` section).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirtyScoreStats {
    /// Scoring rounds served by the cache (including the one that built
    /// it).
    pub rounds: u64,
    /// Rounds that recomputed the whole pool exactly (cache build,
    /// aggregate rebuild, dirty-majority bail, or periodic re-anchor).
    pub full_rescores: u64,
    /// Rounds served by incidence-level delta application.
    pub delta_rounds: u64,
    /// Score-table rows refilled by delta rounds.
    pub rows_refreshed: u64,
    /// Posting-level fused updates applied by delta rounds (the total
    /// delta-path work; compare against `full_rescores`-free rounds of
    /// `nnz(U)` each).
    pub incidence_updates: u64,
}

/// Delta rounds between forced exact recomputations of the cached
/// numerator/denominator sums: each in-place update adds at most one
/// rounding step per touched sum, so this bounds drift exactly the way
/// the session bounds its aggregate drift.
const SCORE_ANCHOR_ROUNDS: usize = 64;

/// The cross-round score cache behind [`SeuScoring::DirtySet`]: the last
/// round's table, per-example score components, and full-pool utilities,
/// keyed to one [`crate::session::SeuAggregates`] instance by `(id,
/// generation)` and to the selector configuration that produced it.
///
/// `num[i]`/`den[i]` hold `Σ_{z∈x_i} (π₋·wu[z][−] + π₊·wu[z][+])` and
/// `Σ_{z∈x_i} (w[z][−] + w[z][+])` — the two sums `tabled_score` folds —
/// so a changed table row can be applied to every covered candidate as a
/// single fused in-place update instead of a full rescore of that
/// candidate.
#[derive(Debug, Clone)]
struct ScoreCache {
    aggs_id: u64,
    generation: u64,
    lineage_len: usize,
    user_model: UserModelKind,
    utility: UtilityKind,
    table: ScoreTable,
    num: Vec<f64>,
    den: Vec<f64>,
    scores: Vec<f64>,
    /// `has_prims[i]` — candidate `i` has a non-empty primitive set
    /// (empty ones score `NEG_INFINITY` and never change).
    has_prims: Vec<bool>,
    delta_rounds_since_anchor: usize,
    stats: DirtyScoreStats,
}

/// The SEU development-data selector.
#[derive(Debug, Clone, Default)]
pub struct SeuSelector {
    /// User-model variant (accuracy-weighted by default; Table 6 ablation
    /// uses uniform).
    pub user_model: UserModelKind,
    /// Utility variant (full Eq. 3 by default; Table 7 ablations).
    pub utility: UtilityKind,
    /// Scoring mode: cached dirty-set rescoring (default) or full-pool
    /// rescore every round (the differential-test reference).
    pub scoring: SeuScoring,
    cache: Option<ScoreCache>,
}

impl SeuSelector {
    /// Construct the default (paper) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Construct with explicit user-model and utility variants (the
    /// Table 6/7 ablations).
    pub fn with(user_model: UserModelKind, utility: UtilityKind) -> Self {
        Self { user_model, utility, ..Self::default() }
    }

    /// Builder-style scoring-mode override.
    pub fn with_scoring(mut self, scoring: SeuScoring) -> Self {
        self.scoring = scoring;
        self
    }

    /// Accounting of the dirty-set score cache so far (zeros until the
    /// cache first builds).
    pub fn dirty_stats(&self) -> DirtyScoreStats {
        self.cache.as_ref().map(|c| c.stats).unwrap_or_default()
    }

    /// Per-primitive aggregates over the training pool: one pass over the
    /// inverted index postings.
    pub fn primitive_aggregates(view: &SelectionView<'_>) -> Vec<PrimAgg> {
        let index = view.ds.train.corpus.index();
        let psi = view.outputs.train_posterior.entropies();
        let yhat = view.outputs.yhat_signs();
        let mut aggs = vec![PrimAgg::default(); index.n_primitives()];
        for (z, postings) in index.iter_nonempty() {
            let agg = &mut aggs[z as usize];
            for &i in postings {
                agg.add(psi[i as usize], yhat[i as usize]);
            }
        }
        aggs
    }

    /// Expected utility of showing example `x`, given precomputed
    /// aggregates. Returns `NEG_INFINITY` for examples without candidate
    /// primitives (no LF can be extracted from them).
    pub fn expected_utility(&self, view: &SelectionView<'_>, aggs: &[PrimAgg], x: usize) -> f64 {
        let prims = view.ds.train.corpus.primitives_of(x);
        if prims.is_empty() {
            return f64::NEG_INFINITY;
        }
        let prior = view.ds.prior();
        let mut weighted = 0.0;
        let mut total_w = 0.0;
        for &z in prims {
            let agg = &aggs[z as usize];
            if agg.df == 0 {
                continue;
            }
            for y in Label::ALL {
                let w = self.user_model.weight(agg.accuracy(y));
                if w <= 0.0 {
                    continue;
                }
                // An LF already in the collection supplies zero *new*
                // supervision: its votes are duplicated, not added. The
                // sequential IDP setting exists precisely to let the
                // selector "avoid the user spending extra effort in
                // designing redundant LFs" (paper Sec. 3), so collected
                // (z, y) pairs carry zero utility. The weight still
                // enters the normalizer — the user may well re-pick that
                // primitive, wasting the iteration.
                let utility = if view.lineage.contains_lf(&nemo_lf::PrimitiveLf::new(z, y)) {
                    0.0
                } else {
                    self.utility.value(agg, y)
                };
                weighted += prior[y.index()] * w * utility;
                total_w += w;
            }
        }
        if self.user_model.normalized() {
            if total_w > 0.0 {
                weighted / total_w
            } else {
                0.0
            }
        } else {
            weighted
        }
    }

    /// Naive reference: recompute every LF's utility by scanning its
    /// coverage list directly (no shared aggregates). Used by tests to
    /// verify the fast path.
    pub fn expected_utility_naive(&self, view: &SelectionView<'_>, x: usize) -> f64 {
        let corpus = &view.ds.train.corpus;
        let prims = corpus.primitives_of(x);
        if prims.is_empty() {
            return f64::NEG_INFINITY;
        }
        let psi = view.outputs.train_posterior.entropies();
        let yhat = view.outputs.yhat_signs();
        let prior = view.ds.prior();
        let mut weighted = 0.0;
        let mut total_w = 0.0;
        for &z in prims {
            let cov = corpus.index().postings(z);
            if cov.is_empty() {
                continue;
            }
            for y in Label::ALL {
                let n_match = cov.iter().filter(|&&i| yhat[i as usize] == y.sign()).count();
                let acc = n_match as f64 / cov.len() as f64;
                let w = self.user_model.weight(acc);
                if w <= 0.0 {
                    continue;
                }
                let utility = if view.lineage.contains_lf(&nemo_lf::PrimitiveLf::new(z, y)) {
                    0.0
                } else {
                    self.utility.value_naive(y, cov, &psi, &yhat)
                };
                weighted += prior[y.index()] * w * utility;
                total_w += w;
            }
        }
        if self.user_model.normalized() {
            if total_w > 0.0 {
                weighted / total_w
            } else {
                0.0
            }
        } else {
            weighted
        }
    }
}

/// Per-primitive, per-label scoring tables derived from the aggregates:
/// `w[z][y]` is the user-model weight of `λ_{z,y}` and `wu[z][y]` its
/// weight × utility product (zero for collected or zero-weight LFs).
///
/// Building the table costs `O(|Z|)` once per selection round and moves
/// every per-candidate branch — accuracy, weight, collected-LF lookup,
/// utility variant — out of the per-occurrence scoring loop, which then
/// reduces to two fused multiply-adds per `(example, primitive)` slot.
/// Under [`SeuScoring::DirtySet`] the table survives across rounds and
/// only dirty rows are refilled.
#[derive(Debug, Clone)]
pub struct ScoreTable {
    w: Vec<[f64; 2]>,
    wu: Vec<[f64; 2]>,
}

impl ScoreTable {
    /// Number of primitive rows.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// The table row of one candidate LF `λ_{z,y}`: `(weight, weight ×
    /// utility)`. This is the batched-candidate-evaluation hook the IWS
    /// engine ([`crate::engines::IwsEngine`]) uses to fold SEU's
    /// model-improvement utility into its candidate ranking without
    /// re-deriving the aggregates.
    pub fn lf_row(&self, z: u32, y: Label) -> (f64, f64) {
        (self.w[z as usize][y.index()], self.wu[z as usize][y.index()])
    }
}

/// Expected utility of a candidate from its primitive rows — the shared
/// branch-free inner loop of the full and dirty-set paths (kept a free
/// function so the dirty-set revalidation can score under a split borrow
/// of the cache).
#[inline]
fn tabled_score(table: &ScoreTable, prior: [f64; 2], normalized: bool, prims: &[u32]) -> f64 {
    if prims.is_empty() {
        return f64::NEG_INFINITY;
    }
    let mut weighted = 0.0;
    let mut total_w = 0.0;
    for &z in prims {
        let zw = &table.w[z as usize];
        let zwu = &table.wu[z as usize];
        weighted += prior[0] * zwu[0] + prior[1] * zwu[1];
        total_w += zw[0] + zw[1];
    }
    if normalized {
        if total_w > 0.0 {
            weighted / total_w
        } else {
            0.0
        }
    } else {
        weighted
    }
}

/// Fill one table row from its aggregate (and the collected-LF set) — a
/// free function so the dirty-set revalidation can refill rows under a
/// mutable borrow of the score cache.
fn fill_table_row(
    user_model: UserModelKind,
    utility: UtilityKind,
    view: &SelectionView<'_>,
    aggs: &[PrimAgg],
    table: &mut ScoreTable,
    z: usize,
) {
    let agg = &aggs[z];
    let (mut w, mut wu) = ([0.0; 2], [0.0; 2]);
    if agg.df != 0 {
        for y in Label::ALL {
            let weight = user_model.weight(agg.accuracy(y));
            if weight <= 0.0 {
                continue;
            }
            // Collected (z, y) pairs carry zero utility (see
            // `expected_utility`); their weight still normalizes.
            let value = if view.lineage.contains_lf(&nemo_lf::PrimitiveLf::new(z as u32, y)) {
                0.0
            } else {
                utility.value(agg, y)
            };
            w[y.index()] = weight;
            wu[y.index()] = weight * value;
        }
    }
    table.w[z] = w;
    table.wu[z] = wu;
}

impl SeuSelector {
    /// Build the per-primitive scoring table for the current round.
    pub fn score_table(&self, view: &SelectionView<'_>, aggs: &[PrimAgg]) -> ScoreTable {
        let mut table =
            ScoreTable { w: vec![[0.0; 2]; aggs.len()], wu: vec![[0.0; 2]; aggs.len()] };
        for z in 0..aggs.len() {
            if aggs[z].df != 0 {
                fill_table_row(self.user_model, self.utility, view, aggs, &mut table, z);
            }
        }
        table
    }

    /// Expected utility of example `x` from a prebuilt [`ScoreTable`] —
    /// the branch-free inner loop of the fast path.
    pub fn expected_utility_tabled(
        &self,
        view: &SelectionView<'_>,
        table: &ScoreTable,
        x: usize,
    ) -> f64 {
        tabled_score(
            table,
            view.ds.prior(),
            self.user_model.normalized(),
            view.ds.train.corpus.primitives_of(x),
        )
    }

    /// Expected utility of every available example, in `avail` order.
    ///
    /// Scoring is embarrassingly parallel: each example reads only the
    /// shared table. [`nemo_sparse::parallel::par_map`] returns results
    /// in input order, so the parallel scores are bit-identical to a
    /// serial scan (differential-tested in
    /// `tests/session_differential.rs`).
    pub fn scores(&self, view: &SelectionView<'_>, aggs: &[PrimAgg], avail: &[usize]) -> Vec<f64> {
        let table = self.score_table(view, aggs);
        nemo_sparse::parallel::par_map(avail, |_, &x| self.expected_utility_tabled(view, &table, x))
    }

    /// Full-pool expected utilities served from the dirty-set cache, or
    /// `None` when the view carries no session aggregates (stand-alone
    /// views have no dirty log to revalidate against).
    ///
    /// The cache is keyed to the aggregate cache's `(id, generation)` and
    /// to this selector's configuration. On a hit, only the table rows of
    /// primitives reported dirty by [`crate::session::SeuAggregates::dirty_prims_since`]
    /// (plus those of LFs collected since the snapshot — a new LF zeroes
    /// its pair's utility) are refilled, and each changed row is applied
    /// to its covered candidates as one fused `(Δnum, Δden)` update per
    /// posting — `O(Σ_{z dirty} df(z) + n)` per round instead of the
    /// `O(nnz(U))` full rescore. Rows that refill to bitwise-identical
    /// values skip their postings entirely.
    ///
    /// The in-place sums pick up at most one rounding step per update, so
    /// delta-round scores match an exact recompute within fp-drift
    /// tolerance (differential-tested at `1e-9`); the cache re-anchors
    /// with an exact full recompute — bit-identical to
    /// [`SeuScoring::Full`] — every 64 (`SCORE_ANCHOR_ROUNDS`) delta
    /// rounds, after any aggregate rebuild, and when the dirty rows cover
    /// the entire posting mass (where delta application could only cost
    /// more than the rescore it avoids).
    pub fn scores_cached(&mut self, view: &SelectionView<'_>) -> Option<&[f64]> {
        let seu = view.aggs?;
        let aggs = seu.aggs();
        let n = view.ds.train.n();
        let prior = view.ds.prior();
        let normalized = self.user_model.normalized();
        let reusable = self.cache.as_ref().is_some_and(|c| {
            c.aggs_id == seu.id()
                && c.scores.len() == n
                && c.table.len() == aggs.len()
                && c.lineage_len <= view.lineage.len()
                && c.user_model == self.user_model
                && c.utility == self.utility
        });
        // Copy the snapshot keys out so the early-exit check below doesn't
        // pin an immutable borrow of the cache across the rebuild arm.
        let snapshot = self.cache.as_ref().map(|c| (c.generation, c.lineage_len));
        let unchanged = reusable && snapshot == Some((seu.generation(), view.lineage.len()));
        if unchanged {
            // Nothing moved since the snapshot (idempotent re-query, or a
            // learning round that left the model state untouched — e.g.
            // a skipped suggestion).
            return self.cache.as_ref().map(|c| c.scores.as_slice());
        }
        let dirty_prims = if reusable {
            // invariant: `reusable` is only true when `self.cache` is
            // Some and its snapshot matched this aggregate cache's id.
            seu.dirty_prims_since(snapshot.expect("reusable implies cache").0)
        } else {
            None
        };

        // Bail to the exact full recompute when the dirty rows cover the
        // entire posting mass (delta application walks one posting per
        // dirty slot, so at nnz the rescore is at least as cheap and free
        // of drift) or when the anchor cadence is due.
        let anchor_due =
            self.cache.as_ref().is_some_and(|c| c.delta_rounds_since_anchor >= SCORE_ANCHOR_ROUNDS);
        let dirty_prims = dirty_prims.filter(|dirty| {
            let dirty_slots: usize = dirty.iter().map(|&z| aggs[z as usize].df).sum();
            !anchor_due && dirty_slots < view.ds.train.corpus.total_postings()
        });

        match dirty_prims {
            Some(mut dirty) if reusable => {
                // invariant: same `reusable` ⇒ cache-present guarantee.
                let c = self.cache.as_mut().expect("reusable implies cache");
                // LFs collected since the snapshot dirty their primitive's
                // row even when its aggregate is clean.
                for rec in &view.lineage.tracked()[c.lineage_len..] {
                    dirty.push(rec.lf.z);
                }
                dirty.sort_unstable();
                dirty.dedup();
                let index = view.ds.train.corpus.index();
                let (user_model, utility) = (c.user_model, c.utility);
                let mut incidences = 0u64;
                for &z in &dirty {
                    let z = z as usize;
                    let (old_w, old_wu) = (c.table.w[z], c.table.wu[z]);
                    fill_table_row(user_model, utility, view, aggs, &mut c.table, z);
                    let (new_w, new_wu) = (c.table.w[z], c.table.wu[z]);
                    if (new_w, new_wu) == (old_w, old_wu) {
                        continue;
                    }
                    let d_num =
                        prior[0] * (new_wu[0] - old_wu[0]) + prior[1] * (new_wu[1] - old_wu[1]);
                    let d_den = (new_w[0] - old_w[0]) + (new_w[1] - old_w[1]);
                    let postings = index.postings(z as u32);
                    incidences += postings.len() as u64;
                    for &i in postings {
                        let i = i as usize;
                        c.num[i] += d_num;
                        c.den[i] += d_den;
                    }
                }
                derive_scores(&c.num, &c.den, &c.has_prims, normalized, &mut c.scores);
                c.generation = seu.generation();
                c.lineage_len = view.lineage.len();
                c.delta_rounds_since_anchor += 1;
                c.stats.rounds += 1;
                c.stats.delta_rounds += 1;
                c.stats.rows_refreshed += dirty.len() as u64;
                c.stats.incidence_updates += incidences;
            }
            _ => {
                // Cold build, aggregate rebuild, dirty-majority bail, or
                // anchor cadence: recompute everything exactly (stats
                // carry over on a same-cache refresh so the bench sees
                // the true reuse rate).
                let table = self.score_table(view, aggs);
                let corpus = &view.ds.train.corpus;
                let has_prims: Vec<bool> =
                    (0..n).map(|i| !corpus.primitives_of(i).is_empty()).collect();
                // Parallel like the `Full` reference path: each example's
                // sums fold its own primitive rows in index order, so the
                // partitioning cannot change a bit of the result.
                let sums = nemo_sparse::parallel::par_map_range(n, |i| {
                    let (mut num_i, mut den_i) = (0.0, 0.0);
                    for &z in corpus.primitives_of(i) {
                        let zw = &table.w[z as usize];
                        let zwu = &table.wu[z as usize];
                        num_i += prior[0] * zwu[0] + prior[1] * zwu[1];
                        den_i += zw[0] + zw[1];
                    }
                    (num_i, den_i)
                });
                let (num, den): (Vec<f64>, Vec<f64>) = sums.into_iter().unzip();
                let mut scores = vec![0.0; n];
                derive_scores(&num, &den, &has_prims, normalized, &mut scores);
                let mut stats = if reusable {
                    // invariant: same `reusable` ⇒ cache-present guarantee.
                    self.cache.as_ref().expect("reusable implies cache").stats
                } else {
                    DirtyScoreStats::default()
                };
                stats.rounds += 1;
                stats.full_rescores += 1;
                self.cache = Some(ScoreCache {
                    aggs_id: seu.id(),
                    generation: seu.generation(),
                    lineage_len: view.lineage.len(),
                    user_model: self.user_model,
                    utility: self.utility,
                    table,
                    num,
                    den,
                    scores,
                    has_prims,
                    delta_rounds_since_anchor: 0,
                    stats,
                });
            }
        }
        self.cache.as_ref().map(|c| c.scores.as_slice())
    }
}

/// Derive final utilities from the cached per-example sums: candidates
/// without primitives score `NEG_INFINITY`; normalized user models divide
/// by the weight mass (zero mass → 0, as in [`tabled_score`]).
fn derive_scores(num: &[f64], den: &[f64], has_prims: &[bool], normalized: bool, out: &mut [f64]) {
    for i in 0..num.len() {
        out[i] = if !has_prims[i] {
            f64::NEG_INFINITY
        } else if normalized {
            if den[i] > 0.0 {
                num[i] / den[i]
            } else {
                0.0
            }
        } else {
            num[i]
        };
    }
}

impl Selector for SeuSelector {
    fn name(&self) -> &'static str {
        "SEU"
    }

    fn select(&mut self, view: &SelectionView<'_>, rng: &mut DetRng) -> Option<usize> {
        let avail = view.available();
        if avail.is_empty() {
            return None;
        }
        // Before any LF exists the model state is the uninformative prior,
        // so SEU's scores carry no signal; start with a random probe (the
        // paper's loop equally has nothing to condition on at t = 0).
        if view.lineage.is_empty() {
            return Some(avail[rng.index(avail.len())]);
        }
        // Dirty-set fast path: serve full-pool utilities from the score
        // cache (rescoring only dirty candidates), then restrict to the
        // available pool. Falls through to the per-round rescore for
        // stand-alone views or `SeuScoring::Full`.
        let scores: Vec<f64> = if self.scoring == SeuScoring::DirtySet && view.aggs.is_some() {
            // invariant: guarded by `view.aggs.is_some()` on this branch,
            // and `scores_cached` returns None only for aggregate-less
            // views.
            let cached = self.scores_cached(view).expect("view carries aggregates");
            avail.iter().map(|&x| cached[x]).collect()
        } else {
            let rebuilt;
            let aggs: &[PrimAgg] = match view.aggs {
                Some(cached) => cached.aggs(),
                None => {
                    rebuilt = Self::primitive_aggregates(view);
                    &rebuilt
                }
            };
            self.scores(view, aggs, &avail)
        };
        if scores.iter().all(|s| s.is_infinite()) {
            return Some(avail[rng.index(avail.len())]);
        }
        let ties = argmax_set(&scores);
        Some(avail[ties[rng.index(ties.len())]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{ExampleEngine, SelectionEngine};
    use crate::idp::{ModelOutputs, RandomSelector};
    use crate::oracle::SimulatedUser;
    use crate::pipeline::StandardPipeline;
    use crate::session::Session;
    use crate::IdpConfig;
    use nemo_data::catalog::toy_text;
    use nemo_data::Dataset;
    use nemo_lf::{LabelMatrix, Lineage};

    /// Build a view over a session that has run a few iterations, then
    /// hand it to closures for testing.
    fn with_view<R>(ds: &Dataset, n_steps: usize, f: impl FnOnce(&SelectionView<'_>) -> R) -> R {
        let config =
            IdpConfig { n_iterations: n_steps, eval_every: 5, seed: 11, ..Default::default() };
        let mut session = Session::new(ds, config);
        let mut engine = ExampleEngine::new(RandomSelector);
        let (mut user, mut pipeline) = (SimulatedUser::default(), StandardPipeline);
        for _ in 0..n_steps {
            engine.round(&mut session, &mut user, &mut pipeline).unwrap();
        }
        let excluded = vec![false; ds.train.n()];
        let view = SelectionView {
            ds,
            lineage: session.lineage(),
            matrix: session.matrix(),
            outputs: session.outputs(),
            excluded: &excluded,
            iteration: n_steps,
            aggs: None,
        };
        f(&view)
    }

    #[test]
    fn fast_path_matches_naive_reference() {
        let ds = toy_text(1);
        with_view(&ds, 6, |view| {
            for um in [UserModelKind::AccuracyWeighted, UserModelKind::Uniform] {
                for ut in
                    [UtilityKind::Full, UtilityKind::NoInformativeness, UtilityKind::NoCorrectness]
                {
                    let sel = SeuSelector::with(um, ut);
                    let aggs = SeuSelector::primitive_aggregates(view);
                    for x in (0..ds.train.n()).step_by(37) {
                        let fast = sel.expected_utility(view, &aggs, x);
                        let naive = sel.expected_utility_naive(view, x);
                        if fast.is_finite() || naive.is_finite() {
                            assert!(
                                (fast - naive).abs() < 1e-9,
                                "x={x} um={um:?} ut={ut:?}: {fast} vs {naive}"
                            );
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn first_selection_is_random_probe() {
        let ds = toy_text(1);
        let lineage = Lineage::new();
        let matrix = LabelMatrix::new(ds.train.n());
        let outputs = ModelOutputs::initial(&ds);
        let excluded = vec![false; ds.train.n()];
        let view = SelectionView {
            ds: &ds,
            lineage: &lineage,
            matrix: &matrix,
            outputs: &outputs,
            excluded: &excluded,
            iteration: 0,
            aggs: None,
        };
        let mut sel = SeuSelector::new();
        let mut rng = DetRng::new(0);
        assert!(sel.select(&view, &mut rng).is_some());
    }

    #[test]
    fn respects_exclusions() {
        let ds = toy_text(1);
        with_view(&ds, 4, |view| {
            // Rebuild the view with everything but one example excluded.
            let mut excluded = vec![true; ds.train.n()];
            excluded[42] = false;
            let view2 = SelectionView {
                ds: view.ds,
                lineage: view.lineage,
                matrix: view.matrix,
                outputs: view.outputs,
                excluded: &excluded,
                iteration: view.iteration,
                aggs: None,
            };
            let mut sel = SeuSelector::new();
            let mut rng = DetRng::new(1);
            assert_eq!(sel.select(&view2, &mut rng), Some(42));
        });
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let ds = toy_text(1);
        with_view(&ds, 2, |view| {
            let excluded = vec![true; ds.train.n()];
            let view2 = SelectionView {
                ds: view.ds,
                lineage: view.lineage,
                matrix: view.matrix,
                outputs: view.outputs,
                excluded: &excluded,
                iteration: view.iteration,
                aggs: None,
            };
            let mut sel = SeuSelector::new();
            let mut rng = DetRng::new(1);
            assert_eq!(sel.select(&view2, &mut rng), None);
        });
    }

    #[test]
    fn prefers_uncertain_regions() {
        // Construct a view where examples containing primitive A are
        // highly uncertain and examples containing primitive B are
        // certain; SEU must pick an A-example.
        use nemo_labelmodel::Posterior;
        let ds = toy_text(5);
        with_view(&ds, 3, |view| {
            // Synthetic posterior: uncertainty 0.5 everywhere except
            // cluster 0, which is certain.
            let p_pos: Vec<f64> = (0..ds.train.n())
                .map(|i| if ds.train.clusters[i] == 0 { 0.999 } else { 0.5 })
                .collect();
            let outputs = ModelOutputs {
                train_posterior: Posterior::new(p_pos.clone()),
                train_probs: p_pos,
                valid_pred: view.outputs.valid_pred.clone(),
                test_pred: view.outputs.test_pred.clone(),
                chosen_p: None,
            };
            let excluded = vec![false; ds.train.n()];
            let view2 = SelectionView {
                ds: view.ds,
                lineage: view.lineage,
                matrix: view.matrix,
                outputs: &outputs,
                excluded: &excluded,
                iteration: view.iteration,
                aggs: None,
            };
            let mut sel = SeuSelector::new();
            let mut rng = DetRng::new(3);
            let chosen = sel.select(&view2, &mut rng).expect("pool non-empty");
            assert_ne!(ds.train.clusters[chosen], 0, "SEU should avoid the certain cluster");
        });
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = toy_text(1);
        with_view(&ds, 5, |view| {
            let mut s1 = SeuSelector::new();
            let mut s2 = SeuSelector::new();
            let mut r1 = DetRng::new(9);
            let mut r2 = DetRng::new(9);
            assert_eq!(s1.select(view, &mut r1), s2.select(view, &mut r2));
        });
    }
}
