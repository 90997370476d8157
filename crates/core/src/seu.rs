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
//! **One scorer, one oracle** (docs/ARCHITECTURE.md, "One interactive
//! round"): [`SeuAggregates`] folds the inverted index into per-primitive
//! aggregates ([`PrimAgg`]) from which both `Ψ_t(λ_{z,y})` and
//! `acc(λ_{z,y})` are O(1). A [`crate::session::Session`] folds them
//! again after every learning stage, and every
//! [`SelectionView`] carries them. [`SeuSelector::scores`] turns them into
//! per-primitive weight and weight × utility products once per round and
//! reads every example's score off those in `O(|prims(x)|)`. The
//! per-example scan [`SeuSelector::expected_utility_naive`] is the
//! reference it is differential-tested against.

use crate::idp::{ModelOutputs, SelectionView, Selector};
use crate::user_model::UserModelKind;
use crate::utility::{PrimAgg, UtilityKind};
use nemo_data::Dataset;
use nemo_lf::{Label, PrimitiveLf};
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

    /// Expected utility of every available example, in `avail` order, from
    /// the view's aggregates. `NEG_INFINITY` marks an example without
    /// candidate primitives (no LF can be extracted from it).
    ///
    /// One `O(|Z|)` pass first turns the aggregates into per-primitive,
    /// per-label tables: `w[z][y]` is the user-model weight of `λ_{z,y}`
    /// and `wu[z][y]` its weight × utility product. That moves every
    /// branch (accuracy, weight, collected-LF lookup, utility variant)
    /// out of the per-occurrence loop, which reduces to four multiply-adds
    /// per `(example, primitive)` slot. The collected `(z, y)` pairs are
    /// marked in one pass over the lineage.
    pub fn scores(&self, view: &SelectionView<'_>, avail: &[usize]) -> Vec<f64> {
        let aggs = view.aggs.aggs();
        // An LF already in the collection supplies zero *new*
        // supervision: its votes are duplicated, not added. The
        // sequential IDP setting exists precisely to let the selector
        // "avoid the user spending extra effort in designing redundant
        // LFs" (paper Sec. 3), so collected (z, y) pairs carry zero
        // utility. The weight still enters the normalizer — the user may
        // well re-pick that primitive, wasting the iteration.
        let mut collected = vec![[false; 2]; aggs.len()];
        for tracked in view.lineage.tracked() {
            if let Some(marks) = collected.get_mut(tracked.lf.z as usize) {
                marks[tracked.lf.y.index()] = true;
            }
        }
        let mut w = vec![[0.0; 2]; aggs.len()];
        let mut wu = vec![[0.0; 2]; aggs.len()];
        for (z, agg) in aggs.iter().enumerate() {
            if agg.df == 0 {
                continue;
            }
            for y in Label::ALL {
                let weight = self.user_model.weight(agg.accuracy(y));
                if weight <= 0.0 {
                    continue;
                }
                let value = if collected[z][y.index()] { 0.0 } else { self.utility.value(agg, y) };
                w[z][y.index()] = weight;
                wu[z][y.index()] = weight * value;
            }
        }
        let corpus = &view.ds.train.corpus;
        let prior = view.ds.prior();
        avail
            .iter()
            .map(|&x| {
                let prims = corpus.primitives_of(x);
                if prims.is_empty() {
                    return f64::NEG_INFINITY;
                }
                let mut weighted = 0.0;
                let mut total_w = 0.0;
                for &z in prims {
                    let (zw, zwu) = (&w[z as usize], &wu[z as usize]);
                    weighted += prior[0] * zwu[0] + prior[1] * zwu[1];
                    total_w += zw[0] + zw[1];
                }
                self.normalize(weighted, total_w)
            })
            .collect()
    }

    /// Naive reference for [`SeuSelector::scores`], in `avail` order: for
    /// each example, recompute every candidate LF's accuracy and utility by
    /// scanning its coverage list directly (no shared aggregates). `ψ` and
    /// `ŷ` are computed once per call. The oracle `scores` is tested
    /// against.
    pub fn expected_utility_naive(&self, view: &SelectionView<'_>, avail: &[usize]) -> Vec<f64> {
        let corpus = &view.ds.train.corpus;
        let psi = view.outputs.train_posterior.entropies();
        let yhat = view.outputs.yhat_signs();
        let prior = view.ds.prior();
        avail
            .iter()
            .map(|&x| {
                let prims = corpus.primitives_of(x);
                if prims.is_empty() {
                    return f64::NEG_INFINITY;
                }
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
                        let utility = if view.lineage.contains_lf(&PrimitiveLf::new(z, y)) {
                            0.0
                        } else {
                            self.utility.value_naive(y, cov, &psi, &yhat)
                        };
                        weighted += prior[y.index()] * w * utility;
                        total_w += w;
                    }
                }
                self.normalize(weighted, total_w)
            })
            .collect()
    }

    /// Eq. 2's expectation: divide by the total weight when the user
    /// model normalizes (0 when no candidate LF carries weight).
    fn normalize(&self, weighted: f64, total_w: f64) -> f64 {
        if !self.user_model.normalized() {
            weighted
        } else if total_w > 0.0 {
            weighted / total_w
        } else {
            0.0
        }
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
        let scores = self.scores(view, &avail);
        if scores.iter().all(|s| s.is_infinite()) {
            return Some(avail[rng.index(avail.len())]);
        }
        let ties = argmax_set(&scores);
        Some(avail[ties[rng.index(ties.len())]])
    }
}

/// Per-primitive SEU aggregates of the model outputs.
///
/// Invariant: `aggs[z]` is the fold of [`PrimAgg::add`], in posting
/// order, over the postings of `z` under the posterior entropies `ψ` and
/// end-model prediction signs `ŷ` of the `ModelOutputs` last passed to
/// [`SeuAggregates::new`] or [`SeuAggregates::sync`]. The aggregates are
/// a pure function of `(Dataset, ModelOutputs)`: a synced, a fresh and a
/// restored session's agree bit for bit.
#[derive(Debug, Clone)]
pub struct SeuAggregates {
    aggs: Vec<PrimAgg>,
    folds: usize,
}

impl SeuAggregates {
    /// The fold: one pass over the inverted index postings under the
    /// given model state.
    pub fn new(ds: &Dataset, outputs: &ModelOutputs) -> Self {
        let mut cache =
            Self { aggs: vec![PrimAgg::default(); ds.train.corpus.n_primitives()], folds: 0 };
        cache.sync(ds, outputs);
        cache
    }

    /// The aggregates, aligned with the primitive domain.
    pub fn aggs(&self) -> &[PrimAgg] {
        &self.aggs
    }

    /// `(folds, 0)`: the folds performed so far, construction included,
    /// and the delta syncs that no longer exist. An inert shim kept for
    /// perfbench's counters; ROADMAP item 4 deletes it.
    pub fn sync_counts(&self) -> (usize, usize) {
        (self.folds, 0)
    }

    /// Always 0: no sync updates slots in place any more. An inert shim
    /// kept for perfbench's counters; ROADMAP item 4 deletes it.
    pub fn delta_slots_updated(&self) -> u64 {
        0
    }

    /// Re-run the fold of [`SeuAggregates::new`] under `outputs`, into the
    /// existing buffer.
    pub fn sync(&mut self, ds: &Dataset, outputs: &ModelOutputs) {
        let psi = outputs.train_posterior.entropies();
        let yhat = outputs.yhat_signs();
        self.aggs.fill(PrimAgg::default());
        for (z, postings) in ds.train.corpus.index().iter_nonempty() {
            // Folded in a local, not through the slot, so the sums stay
            // in registers.
            let mut agg = PrimAgg::default();
            for &i in postings {
                agg.add(psi[i as usize], yhat[i as usize]);
            }
            self.aggs[z as usize] = agg;
        }
        self.folds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idp::RandomSelector;
    use crate::oracle::SimulatedUser;
    use crate::pipeline::StandardPipeline;
    use crate::session::Session;
    use crate::IdpConfig;
    use nemo_data::catalog::toy_text;
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
        f(&SelectionView { excluded: &excluded, ..session.view() })
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
                    let probes: Vec<usize> = (0..ds.train.n()).step_by(37).collect();
                    let naive_scores = sel.expected_utility_naive(view, &probes);
                    let pairs = sel.scores(view, &probes).into_iter().zip(naive_scores);
                    for (&x, (fast, naive)) in probes.iter().zip(pairs) {
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
    fn duplicated_lf_counts_as_collected_once() {
        let ds = toy_text(1);
        with_view(&ds, 6, |view| {
            let lf = view.lineage.tracked()[0].lf;
            let mut duplicated = view.lineage.clone();
            duplicated.record(lf, 0, duplicated.len() as u32);
            let empty = Lineage::new();
            let all: Vec<usize> = (0..ds.train.n()).collect();
            let sel = SeuSelector::new();
            let bits = |lineage: &Lineage| -> Vec<u64> {
                let v = SelectionView { lineage, ..*view };
                sel.scores(&v, &all).into_iter().map(f64::to_bits).collect()
            };
            let once = bits(view.lineage);
            assert_eq!(bits(&duplicated), once);
            // The collected pair does carry zero utility: without it, some
            // example containing its primitive scores differently.
            let fresh = bits(&empty);
            assert!(all.iter().any(|&x| ds.train.corpus.contains(x, lf.z) && fresh[x] != once[x]));
            let dup_view = SelectionView { lineage: &duplicated, ..*view };
            let naive = sel.expected_utility_naive(&dup_view, &all);
            for (x, (&fast, naive)) in once.iter().zip(naive).enumerate() {
                let fast = f64::from_bits(fast);
                if fast.is_finite() || naive.is_finite() {
                    assert!((fast - naive).abs() < 1e-9, "x={x}: {fast} vs {naive}");
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
        let aggs = SeuAggregates::new(&ds, &outputs);
        let excluded = vec![false; ds.train.n()];
        let view = SelectionView {
            ds: &ds,
            lineage: &lineage,
            matrix: &matrix,
            outputs: &outputs,
            excluded: &excluded,
            aggs: &aggs,
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
            let view2 = SelectionView { excluded: &excluded, ..*view };
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
            let view2 = SelectionView { excluded: &excluded, ..*view };
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
            let aggs = SeuAggregates::new(&ds, &outputs);
            let view2 = SelectionView { outputs: &outputs, aggs: &aggs, ..*view };
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
