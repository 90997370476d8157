//! Differential property suite for the two incremental paths this repo's
//! contextualized rounds run on:
//!
//! 1. **Dirty-set SEU scoring** (`SeuScoring::DirtySet`) — full-pool
//!    utilities served from the selector's score cache, which applies
//!    only the changed score-table rows' deltas to the affected
//!    candidates' cached components, must match rebuilding the score
//!    table and rescoring every example from the same aggregates: within
//!    `1e-9` on delta rounds (the in-place sums drift by rounding steps,
//!    re-anchored periodically) and **bit-identical** on exact rounds
//!    (cache builds, rebuild fallbacks, dense-change bails). The
//!    properties drive random `(ψ, ŷ)` perturbation sequences (sparse and
//!    dense, with and without newly collected LFs) through a
//!    [`SeuAggregates`] cache, exactly the traffic a learning loop
//!    produces.
//! 2. **Warm-started EM** (`WarmStart::Warm`) — `GenerativeModel::fit_em`
//!    seeded from a previous fit must converge to the same fixed point as
//!    a cold fit, within the EM tolerance (not bitwise — the iteration
//!    paths differ), over random planted label matrices and random seed
//!    sources (the same matrix's fit, and a perturbed matrix's fit).
//!
//! The full-session counterpart lives in `tests/incremental_paths.rs`.

use nemo::core::config::IdpConfig;
use nemo::core::engines::{ExampleEngine, SelectionEngine};
use nemo::core::idp::{ModelOutputs, SelectionView};
use nemo::core::session::{Session, SeuAggregates};
use nemo::core::seu::SeuSelector;
use nemo::core::user_model::UserModelKind;
use nemo::core::utility::UtilityKind;
use nemo::data::catalog::toy_text;
use nemo::data::Dataset;
use nemo::labelmodel::{FittedLabelModel, GenerativeModel, Posterior};
use nemo::lf::{Label, LabelMatrix, LfColumn, Lineage, PrimitiveLf};
use nemo::sparse::DetRng;
use proptest::prelude::*;

/// Random model outputs: perturb a fraction of examples' posterior and
/// end-model probability, leaving the rest bitwise untouched (the dirty
/// pattern `SeuAggregates::sync` keys on).
fn perturb_outputs(prev: &ModelOutputs, ds: &Dataset, frac: f64, rng: &mut DetRng) -> ModelOutputs {
    let n = ds.train.n();
    let mut p_pos: Vec<f64> = (0..n).map(|i| prev.train_posterior.p_pos(i)).collect();
    let mut probs = prev.train_probs.clone();
    for i in 0..n {
        if rng.bernoulli(frac) {
            p_pos[i] = 0.01 + 0.98 * rng.uniform();
            probs[i] = rng.uniform();
        }
    }
    ModelOutputs {
        train_posterior: Posterior::new(p_pos),
        train_probs: probs,
        valid_pred: prev.valid_pred.clone(),
        test_pred: prev.test_pred.clone(),
        chosen_p: None,
    }
}

/// Assert the dirty-set cache matches a cold table rebuild + rescore from
/// the same aggregates: infinities exactly, finite scores within fp-drift
/// tolerance (delta rounds accumulate one rounding step per in-place
/// update; exact rounds are bitwise equal, which the tolerance subsumes).
fn assert_scores_match(
    ds: &Dataset,
    cache: &SeuAggregates,
    lineage: &Lineage,
    matrix: &LabelMatrix,
    outputs: &ModelOutputs,
    dirty_sel: &mut SeuSelector,
    round: usize,
) -> Result<(), String> {
    let excluded = vec![false; ds.train.n()];
    let view = SelectionView {
        ds,
        lineage,
        matrix,
        outputs,
        excluded: &excluded,
        iteration: round,
        aggs: Some(cache),
    };
    let (um, ut) = (dirty_sel.user_model, dirty_sel.utility);
    let cold_sel = SeuSelector::with(um, ut);
    let all: Vec<usize> = (0..ds.train.n()).collect();
    let cold = cold_sel.scores(&view, cache.aggs(), &all);
    let cached = dirty_sel.scores_cached(&view).expect("view carries aggregates");
    for (x, (a, b)) in cached.iter().zip(&cold).enumerate() {
        if a.is_finite() || b.is_finite() {
            prop_assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "round {} x {} ({:?}/{:?}): dirty-set {} vs cold {}",
                round,
                x,
                um,
                ut,
                a,
                b
            );
        } else {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "round {} x {}: {} vs {}", round, x, a, b);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn prop_dirty_set_scores_bit_identical_to_full_rescore(
        seed in 0u64..1_000_000,
        rounds in 2usize..7,
        frac in 0.0f64..0.9,
        lf_prob in 0.0f64..1.0,
    ) {
        let ds = toy_text(2);
        let mut rng = DetRng::new(seed);
        let mut lineage = Lineage::new();
        let mut matrix = LabelMatrix::new(ds.train.n());
        let mut outputs = ModelOutputs::initial(&ds);
        let mut cache = SeuAggregates::new(&ds, &outputs);
        // Two selector configurations: the paper default (normalized) and
        // the multi-LF indicator (unnormalized, thresholded weights).
        let mut default_sel = SeuSelector::new();
        let mut multi_sel =
            SeuSelector::with(UserModelKind::MultiLfIndicator, UtilityKind::Full);
        for round in 0..rounds {
            // Occasionally collect an LF so the lineage-dirty path (a new
            // (z, y) zeroes its row's utility) is exercised too.
            if rng.bernoulli(lf_prob) {
                let z = rng.index(ds.n_primitives) as u32;
                let lf = PrimitiveLf::new(z, Label::from_bool(rng.bernoulli(0.5)));
                lineage.record(lf, rng.index(ds.train.n()) as u32, round as u32);
                matrix.push(LfColumn::from_lf(&lf, &ds.train.corpus));
            }
            outputs = perturb_outputs(&outputs, &ds, frac, &mut rng);
            cache.sync(&ds, &outputs);
            assert_scores_match(
                &ds, &cache, &lineage, &matrix, &outputs, &mut default_sel, round,
            )?;
            assert_scores_match(
                &ds, &cache, &lineage, &matrix, &outputs, &mut multi_sel, round,
            )?;
        }
    }
}

/// Non-vacuity: under *localized* perturbations (a handful of examples
/// per round — the paper's "few primitives perturbed per development
/// cycle" pattern) the dirty-set cache must actually reuse most cached
/// utilities, not silently fall back to full rescoring.
#[test]
fn localized_perturbations_reuse_cached_scores() {
    let ds = toy_text(2);
    let mut rng = DetRng::new(42);
    let lineage = Lineage::new();
    let matrix = LabelMatrix::new(ds.train.n());
    let mut outputs = ModelOutputs::initial(&ds);
    let mut cache = SeuAggregates::new(&ds, &outputs);
    let mut sel = SeuSelector::new();
    let excluded = vec![false; ds.train.n()];
    for round in 0..12 {
        // Perturb exactly 3 examples' model state.
        let n = ds.train.n();
        let mut p_pos: Vec<f64> = (0..n).map(|i| outputs.train_posterior.p_pos(i)).collect();
        let mut probs = outputs.train_probs.clone();
        for _ in 0..3 {
            let i = rng.index(n);
            p_pos[i] = 0.01 + 0.98 * rng.uniform();
            probs[i] = rng.uniform();
        }
        outputs = ModelOutputs {
            train_posterior: Posterior::new(p_pos),
            train_probs: probs,
            valid_pred: outputs.valid_pred.clone(),
            test_pred: outputs.test_pred.clone(),
            chosen_p: None,
        };
        cache.sync(&ds, &outputs);
        let view = SelectionView {
            ds: &ds,
            lineage: &lineage,
            matrix: &matrix,
            outputs: &outputs,
            excluded: &excluded,
            iteration: round,
            aggs: Some(&cache),
        };
        let cold = SeuSelector::new().scores(&view, cache.aggs(), &(0..n).collect::<Vec<usize>>());
        let cached = sel.scores_cached(&view).expect("aggregates present");
        for (x, (a, b)) in cached.iter().zip(&cold).enumerate() {
            if a.is_finite() || b.is_finite() {
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "round {round} x {x}: {a} vs {b}"
                );
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "round {round} x {x}");
            }
        }
    }
    let stats = sel.dirty_stats();
    assert_eq!(stats.full_rescores, 1, "only the cache build may recompute everything");
    assert_eq!(stats.delta_rounds, 11, "every later round must take the delta path");
    // The delta path's total posting-level work must undercut what full
    // rescoring would have spent (11 rounds x nnz).
    let nnz = ds.train.corpus.total_postings() as u64;
    assert!(
        stats.incidence_updates < 11 * nnz / 2,
        "delta work {} vs full-rescore work {} ({stats:?})",
        stats.incidence_updates,
        11 * nnz
    );
}

/// Random planted label matrix: `n` examples, per-LF accuracy/coverage.
fn planted_matrix(n: usize, specs: &[(f64, f64)], rng: &mut DetRng) -> LabelMatrix {
    let labels: Vec<Label> = (0..n).map(|_| Label::from_bool(rng.bernoulli(0.5))).collect();
    let mut matrix = LabelMatrix::new(n);
    for &(acc, cov) in specs {
        let mut entries = Vec::new();
        for (i, &y) in labels.iter().enumerate() {
            if rng.bernoulli(cov) {
                let vote = if rng.bernoulli(acc) { y.sign() } else { y.flip().sign() };
                entries.push((i as u32, vote));
            }
        }
        matrix.push(LfColumn::new(entries));
    }
    matrix
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_warm_em_parameters_match_cold_within_tolerance(
        seed in 0u64..1_000_000,
        n_lfs in 2usize..6,
        drop in 0.0f64..0.3,
    ) {
        let mut rng = DetRng::new(seed);
        let specs: Vec<(f64, f64)> = (0..n_lfs)
            .map(|_| (0.6 + 0.3 * rng.uniform(), 0.2 + 0.5 * rng.uniform()))
            .collect();
        let matrix = planted_matrix(600, &specs, &mut rng);
        // Uncapped model: warm/cold equivalence is a statement about the
        // shared fixed point, so both fits must actually reach it.
        let model = GenerativeModel { n_iters: 5000, ..Default::default() };
        let (cold, cold_iters) = model.fit_em(&matrix, [0.5, 0.5], None);
        prop_assert!(cold_iters < 5000, "cold fit never converged");

        // Seed source A: the cold fit itself (the within-round chaining
        // case — tune_p's adjacent grid points share most of the matrix).
        let (warm_same, same_iters) =
            model.fit_em(&matrix, [0.5, 0.5], Some(cold.lf_accuracies()));
        prop_assert!(
            same_iters <= 3,
            "re-fit from the fixed point took {} iterations",
            same_iters
        );

        // Seed source B: a fit of a *perturbed* matrix (the cross-round
        // case — the previous round's matrix differs by dropped votes).
        let perturbed = {
            let mut m = LabelMatrix::new(matrix.n_examples());
            for col in matrix.columns() {
                let kept: Vec<(u32, i8)> = col
                    .entries()
                    .iter()
                    .copied()
                    .filter(|_| !rng.bernoulli(drop))
                    .collect();
                m.push(LfColumn::new(kept));
            }
            m
        };
        let (seed_fit, _) = model.fit_em(&perturbed, [0.5, 0.5], None);
        let (warm_cross, _) =
            model.fit_em(&matrix, [0.5, 0.5], Some(seed_fit.lf_accuracies()));

        // The Aitken-accelerated iteration (the default) and the plain
        // fixed-point iteration must land on the same parameters.
        let plain_model = GenerativeModel { accel: false, ..model.clone() };
        let (plain, _) = plain_model.fit_em(&matrix, [0.5, 0.5], None);
        for (a, p) in cold.lf_accuracies().iter().zip(plain.lf_accuracies()) {
            prop_assert!(
                (a - p).abs() < 1e-3,
                "accelerated {} vs plain {} diverged", a, p
            );
        }

        for (j, &c) in cold.lf_accuracies().iter().enumerate() {
            let a = warm_same.lf_accuracies()[j];
            let b = warm_cross.lf_accuracies()[j];
            prop_assert!(
                (a - c).abs() < 1e-3,
                "LF {}: same-matrix warm {} vs cold {}", j, a, c
            );
            prop_assert!(
                (b - c).abs() < 1e-3,
                "LF {}: cross-matrix warm {} vs cold {}", j, b, c
            );
        }

        // The posteriors the downstream pipeline consumes agree too.
        let p_cold = cold.predict(&matrix);
        let p_warm = warm_cross.predict(&matrix);
        for i in 0..matrix.n_examples() {
            prop_assert!(
                (p_cold.p_pos(i) - p_warm.p_pos(i)).abs() < 1e-3,
                "posterior diverged at example {}", i
            );
        }
    }
}

/// The dirty-set cache must also track a real learning loop (not just
/// synthetic perturbations): one session drives selection + learning for
/// 10 rounds while every round cross-checks the cache against a cold
/// rescore (within the fp-drift tolerance of the delta rounds).
#[test]
fn dirty_set_tracks_real_session_traffic() {
    let ds = toy_text(3);
    for seed in [5u64, 17] {
        let config = IdpConfig { n_iterations: 10, eval_every: 5, seed, ..Default::default() };
        let mut session = Session::new(&ds, config);
        let mut engine = ExampleEngine::new(SeuSelector::new());
        let mut user = nemo::core::oracle::SimulatedUser::default();
        let mut pipeline = nemo::core::pipeline::StandardPipeline;
        let mut checker = SeuSelector::new();
        for round in 0..10 {
            engine.round(&mut session, &mut user, &mut pipeline).unwrap();
            let view = session.view();
            let cache = view.aggs.expect("session views carry aggregates");
            let all: Vec<usize> = (0..ds.train.n()).collect();
            let cold = SeuSelector::new().scores(&view, cache.aggs(), &all);
            let cached = checker.scores_cached(&view).expect("aggregates present");
            for (x, (a, b)) in cached.iter().zip(&cold).enumerate() {
                if a.is_finite() || b.is_finite() {
                    assert!(
                        (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                        "seed {seed} round {round} x {x}: {a} vs {b}"
                    );
                } else {
                    assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} round {round} x {x}");
                }
            }
        }
        let stats = checker.dirty_stats();
        assert!(stats.rounds == 10, "seed {seed}: cache skipped rounds ({stats:?})");
    }
}
