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
//! and each round rescores the pool through a per-round [`ScoreTable`]
//! (per-primitive weight/utility products). A naive
//! per-example reference implementation is kept for differential testing.

use crate::idp::{SelectionView, Selector};
use crate::user_model::UserModelKind;
use crate::utility::{PrimAgg, UtilityKind};
use nemo_lf::Label;
use nemo_sparse::stats::argmax_set;
use nemo_sparse::DetRng;

/// The SEU development-data selector.
#[derive(Debug, Clone, Default)]
pub struct SeuSelector {
    /// User-model variant (accuracy-weighted by default; Table 6 ablation
    /// uses uniform).
    pub user_model: UserModelKind,
    /// Utility variant (full Eq. 3 by default; Table 7 ablations).
    pub utility: UtilityKind,
}

impl SeuSelector {
    /// Construct the default (paper) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Construct with explicit user-model and utility variants (the
    /// Table 6/7 ablations).
    pub fn with(user_model: UserModelKind, utility: UtilityKind) -> Self {
        Self { user_model, utility }
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
#[derive(Debug, Clone)]
pub struct ScoreTable {
    w: Vec<[f64; 2]>,
    wu: Vec<[f64; 2]>,
}

impl SeuSelector {
    /// Build the per-primitive scoring table for the current round.
    pub fn score_table(&self, view: &SelectionView<'_>, aggs: &[PrimAgg]) -> ScoreTable {
        let mut table =
            ScoreTable { w: vec![[0.0; 2]; aggs.len()], wu: vec![[0.0; 2]; aggs.len()] };
        for (z, agg) in aggs.iter().enumerate() {
            if agg.df == 0 {
                continue;
            }
            for y in Label::ALL {
                let weight = self.user_model.weight(agg.accuracy(y));
                if weight <= 0.0 {
                    continue;
                }
                // Collected (z, y) pairs carry zero utility (see
                // `expected_utility`); their weight still normalizes.
                let value = if view.lineage.contains_lf(&nemo_lf::PrimitiveLf::new(z as u32, y)) {
                    0.0
                } else {
                    self.utility.value(agg, y)
                };
                table.w[z][y.index()] = weight;
                table.wu[z][y.index()] = weight * value;
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
        let prims = view.ds.train.corpus.primitives_of(x);
        if prims.is_empty() {
            return f64::NEG_INFINITY;
        }
        let prior = view.ds.prior();
        let mut weighted = 0.0;
        let mut total_w = 0.0;
        for &z in prims {
            let zw = &table.w[z as usize];
            let zwu = &table.wu[z as usize];
            weighted += prior[0] * zwu[0] + prior[1] * zwu[1];
            total_w += zw[0] + zw[1];
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

    /// Expected utility of every available example, in `avail` order,
    /// each read off the shared table (differential-tested against the
    /// naive per-example scan in `tests/session_differential.rs`).
    pub fn scores(&self, view: &SelectionView<'_>, aggs: &[PrimAgg], avail: &[usize]) -> Vec<f64> {
        let table = self.score_table(view, aggs);
        avail.iter().map(|&x| self.expected_utility_tabled(view, &table, x)).collect()
    }
}

impl Selector for SeuSelector {
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
        // Session views carry the incrementally synced aggregates;
        // stand-alone views rebuild them.
        let rebuilt;
        let aggs: &[PrimAgg] = match view.aggs {
            Some(cached) => cached.aggs(),
            None => {
                rebuilt = Self::primitive_aggregates(view);
                &rebuilt
            }
        };
        let scores = self.scores(view, aggs, &avail);
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
        let mut selector = RandomSelector;
        let (mut user, mut pipeline) = (SimulatedUser::default(), StandardPipeline);
        for _ in 0..n_steps {
            session.round(&mut selector, &mut user, &mut pipeline).unwrap();
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
