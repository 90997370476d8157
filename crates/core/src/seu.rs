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
//! `acc(λ_{z,y})` are O(1). A [`crate::session::Session`] holds them
//! folded on first read after a learning stage, and every
//! [`SelectionView`] carries them. [`SeuSelector::scores`] turns them into
//! one prior-weighted utility sum and one weight sum per primitive once
//! per round and reads every example's score off those in
//! `O(|prims(x)|)`. The per-example scan
//! [`SeuSelector::expected_utility_naive`] is the reference it is
//! differential-tested against.

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
    /// One `O(|Z|)` pass first turns the aggregates into one pair per
    /// primitive: `Σ_y P(y) · w(λ_{z,y}) · Ψ_t(λ_{z,y})` and
    /// `Σ_y w(λ_{z,y})`. That moves every branch (accuracy, weight,
    /// collected-LF lookup, utility variant) and every product out of the
    /// per-occurrence loop, which reduces to two loads and two adds per
    /// `(example, primitive)` slot. The collected `(z, y)` pairs are
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
        let prior = view.ds.prior();
        // `sums[z]` = `[Σ_y P(y) · wu[y], Σ_y w[y]]`, the two sums a slot
        // of `z` adds, each evaluated in the order the per-slot form adds
        // its terms, so the scores keep their bits.
        let mut sums = vec![[0.0; 2]; aggs.len()];
        for (z, agg) in aggs.iter().enumerate() {
            if agg.df == 0 {
                continue;
            }
            let (mut w, mut wu) = ([0.0; 2], [0.0; 2]);
            for y in Label::ALL {
                let weight = self.user_model.weight(agg.accuracy(y));
                if weight <= 0.0 {
                    continue;
                }
                let value = if collected[z][y.index()] { 0.0 } else { self.utility.value(agg, y) };
                w[y.index()] = weight;
                wu[y.index()] = weight * value;
            }
            sums[z] = [prior[0] * wu[0] + prior[1] * wu[1], w[0] + w[1]];
        }
        let corpus = &view.ds.train.corpus;
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
                    let [zwu, zw] = sums[z as usize];
                    weighted += zwu;
                    total_w += zw;
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
/// Invariant: `aggs[z]` holds, bit for bit, the fold of [`PrimAgg::add`],
/// in posting order, over the postings of `z` under the posterior
/// entropies `ψ` and end-model prediction signs `ŷ` of the `ModelOutputs`
/// passed to [`SeuAggregates::new`]. The aggregates are a pure function
/// of `(Dataset, ModelOutputs)`: a session holds them folded on first
/// read after a learning stage, and a long-lived, a fresh and a restored
/// session's agree bit for bit.
#[derive(Debug, Clone)]
pub struct SeuAggregates {
    aggs: Vec<PrimAgg>,
}

/// One training row as the fold reads it.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// `ψ(x_i)`.
    psi: f64,
    /// `ψ(x_i) · sign(ŷ_i)`.
    psi_yhat: f64,
    /// `ŷ_i = +1`.
    pos: bool,
}

impl SeuAggregates {
    /// The fold: one pass over the rows builds a `(ψ, ψ·ŷ, ŷ > 0)` table,
    /// then one pass over the inverted index postings sums it per
    /// primitive.
    ///
    /// `s_yhat` is `2·n_pos − df`: [`PrimAgg::add`]'s partial sums of
    /// ±1.0 are integers below 2^53 and never −0.0, so the count gives
    /// their bits.
    pub fn new(ds: &Dataset, outputs: &ModelOutputs) -> Self {
        let rows: Vec<Row> = (0..outputs.train_probs.len())
            .map(|i| {
                let psi = outputs.train_posterior.entropy(i);
                let sign = outputs.yhat_sign(i);
                Row { psi, psi_yhat: psi * f64::from(sign), pos: sign > 0 }
            })
            .collect();
        let mut aggs = vec![PrimAgg::default(); ds.train.corpus.n_primitives()];
        for (z, postings) in ds.train.corpus.index().iter_nonempty() {
            let (mut s_psi_yhat, mut s_psi, mut n_pos) = (0.0, 0.0, 0);
            for &i in postings {
                let row = rows[i as usize];
                s_psi_yhat += row.psi_yhat;
                s_psi += row.psi;
                n_pos += usize::from(row.pos);
            }
            let df = postings.len();
            let s_yhat = (2 * n_pos) as f64 - df as f64;
            aggs[z as usize] = PrimAgg { s_psi_yhat, s_yhat, s_psi, n_pos, df };
        }
        Self { aggs }
    }

    /// The aggregates, aligned with the primitive domain.
    pub fn aggs(&self) -> &[PrimAgg] {
        &self.aggs
    }

    /// `(1, 0)`: the one fold every `SeuAggregates` is, and the delta
    /// syncs that no longer exist. An inert shim kept for perfbench's
    /// counters; ROADMAP item 4 deletes it.
    pub fn sync_counts(&self) -> (usize, usize) {
        (1, 0)
    }

    /// Always 0: no sync updates slots in place any more. An inert shim
    /// kept for perfbench's counters; ROADMAP item 4 deletes it.
    pub fn delta_slots_updated(&self) -> u64 {
        0
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
    use nemo_labelmodel::Posterior;
    use nemo_lf::{LabelMatrix, Lineage, PrimitiveCorpus};
    use proptest::prelude::*;
    use std::sync::OnceLock;

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

    /// The fold by definition: [`PrimAgg::add`] over each primitive's
    /// postings, in posting order, under `Posterior::entropies` and
    /// `ModelOutputs::yhat_signs`.
    fn fold_by_add(ds: &Dataset, outputs: &ModelOutputs) -> Vec<PrimAgg> {
        let psi = outputs.train_posterior.entropies();
        let yhat = outputs.yhat_signs();
        let index = ds.train.corpus.index();
        (0..ds.train.corpus.n_primitives() as u32)
            .map(|z| {
                let mut agg = PrimAgg::default();
                for &i in index.postings(z) {
                    agg.add(psi[i as usize], yhat[i as usize]);
                }
                agg
            })
            .collect()
    }

    /// Every field of `agg`, the float sums as bits.
    fn agg_bits(agg: &PrimAgg) -> [u64; 5] {
        [
            agg.s_psi_yhat.to_bits(),
            agg.s_yhat.to_bits(),
            agg.s_psi.to_bits(),
            agg.n_pos as u64,
            agg.df as u64,
        ]
    }

    /// Rows of the property below: `toy_text(1)`'s train split.
    const ROWS: usize = 800;

    fn toy() -> &'static Dataset {
        static TOY: OnceLock<Dataset> = OnceLock::new();
        TOY.get_or_init(|| toy_text(1))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `SeuAggregates::new` equals the fold over `PrimAgg::add`, every
        /// field bit for bit, on random corpora and outputs: rows none,
        /// all or some of which contain a primitive; a primitive that
        /// never occurs (the last) and others that happen not to;
        /// posteriors of exactly 0, 1 and 0.5, runs of equal posteriors,
        /// and every row at 0.5 (no LF covers it); `train_probs` of
        /// exactly 0.5 (`ŷ = +1`).
        #[test]
        fn prop_fold_bit_identical_to_prim_agg_add(
            n_prims in 2u32..40,
            docs in proptest::collection::vec(proptest::collection::vec(0u32..1000, 0..5), ROWS),
            cover in 0usize..3,
            p_mode in 0usize..3,
            p_draws in proptest::collection::vec((0usize..5, 0.0f64..1.0), ROWS),
            prob_draws in proptest::collection::vec((0usize..3, 0.0f64..1.0), ROWS),
        ) {
            let mut ds = toy().clone();
            prop_assert_eq!(ds.train.n(), ROWS);
            let docs: Vec<Vec<u32>> = docs
                .into_iter()
                .map(|d| {
                    let mut d: Vec<u32> = d.into_iter().map(|v| v % (n_prims - 1)).collect();
                    match cover {
                        0 => d.clear(),
                        1 if d.is_empty() => d.push(0),
                        _ => {}
                    }
                    d
                })
                .collect();
            ds.train.corpus = PrimitiveCorpus::new(docs, n_prims as usize);
            ds.n_primitives = n_prims as usize;

            let mut p_pos = Vec::with_capacity(ROWS);
            for &(code, u) in &p_draws {
                let last = p_pos.last().copied().unwrap_or(0.5);
                p_pos.push(match (p_mode, code) {
                    (0, _) => 0.5,
                    (1, 0) => 0.0,
                    (1, 1) => 1.0,
                    (1, 2) => 0.5,
                    (1, 3) => last,
                    _ => u,
                });
            }
            let train_probs: Vec<f64> = prob_draws
                .iter()
                .map(|&(code, u)| match code {
                    0 => 0.5,
                    1 => u,
                    _ => u.round(),
                })
                .collect();
            let outputs = ModelOutputs {
                train_posterior: Posterior::new(p_pos),
                train_probs,
                ..ModelOutputs::initial(&ds)
            };

            let fold = SeuAggregates::new(&ds, &outputs);
            let want = fold_by_add(&ds, &outputs);
            prop_assert_eq!(fold.aggs().len(), want.len());
            for (z, (got, want)) in fold.aggs().iter().zip(&want).enumerate() {
                prop_assert_eq!(agg_bits(got), agg_bits(want), "z {}: {:?} vs {:?}", z, got, want);
            }
            prop_assert!(want.last().is_some_and(|a| a.df == 0), "the last primitive never occurs");
        }
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
