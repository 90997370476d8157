//! The multi-LF extension (paper Sec. 7, Eq. 5–6).
//!
//! In the general IDP setup the user may return a *set* of LFs per
//! iteration. The selection objective becomes
//!
//! ```text
//! x* = argmax_x  E_{P(Λ|x)} [ Σ_{λ∈Λ} Ψ_t(λ) ]
//! ```
//!
//! with the factorized user model `P(Λ|x) = Π_{λ∈Λ} P(λ|x)` and the
//! thresholded per-LF model of Eq. 6
//! (`P(λ_{z,y}|x) ∝ P(y) · acc · 1[acc > 0.5]`). By linearity of
//! expectation this reduces to an *unnormalized* accuracy-weighted sum of
//! utilities over the candidates of `x` — exactly
//! [`SeuSelector`] with [`UserModelKind::MultiLfIndicator`].

use crate::seu::SeuSelector;
use crate::user_model::UserModelKind;
use crate::utility::UtilityKind;

/// The Eq. 5–6 multi-LF SEU selector.
pub fn multi_lf_selector() -> SeuSelector {
    SeuSelector::with(UserModelKind::MultiLfIndicator, UtilityKind::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IdpConfig;
    use crate::idp::run_curve;
    use crate::oracle::SimulatedUser;
    use crate::pipeline::ContextualizedPipeline;
    use crate::session::Session;
    use nemo_data::catalog::toy_text;

    #[test]
    fn selector_uses_indicator_user_model() {
        let s = multi_lf_selector();
        assert_eq!(s.user_model, UserModelKind::MultiLfIndicator);
        assert!(!s.user_model.normalized());
    }

    #[test]
    fn multi_lf_session_collects_multiple_lfs_per_iteration() {
        let ds = toy_text(1);
        let config = IdpConfig {
            n_iterations: 6,
            eval_every: 3,
            lfs_per_iteration: 3,
            seed: 1,
            ..Default::default()
        };
        let mut session = Session::new(&ds, config);
        let mut selector = multi_lf_selector();
        let (mut user, mut pipeline) =
            (SimulatedUser::default(), ContextualizedPipeline::default());
        let mut total = 0;
        for _ in 0..6 {
            total += session.round(&mut selector, &mut user, &mut pipeline).unwrap().new_lfs.len();
        }
        assert_eq!(session.lineage().len(), total);
        assert!(total > 6, "multi-LF mode should exceed one LF per iteration, got {total}");
        // Lineage groups LFs of the same iteration on the same dev point.
        let tracked = session.lineage().tracked();
        let mut per_iter: std::collections::HashMap<u32, Vec<u32>> =
            std::collections::HashMap::new();
        for r in tracked {
            per_iter.entry(r.iteration).or_default().push(r.dev_example);
        }
        for (_, devs) in per_iter {
            assert!(devs.windows(2).all(|w| w[0] == w[1]), "same-iteration LFs share dev data");
        }
    }

    #[test]
    fn multi_lf_learns_at_least_as_fast_on_toy() {
        let ds = toy_text(2);
        let run = |k: usize, seed: u64| {
            let config = IdpConfig {
                n_iterations: 8,
                eval_every: 4,
                lfs_per_iteration: k,
                seed,
                ..Default::default()
            };
            run_curve(
                &mut Session::new(&ds, config),
                &mut multi_lf_selector(),
                &mut SimulatedUser::default(),
                &mut ContextualizedPipeline::default(),
            )
            .unwrap()
            .summary()
        };
        let n_seeds = 8;
        let mut single = 0.0;
        let mut multi = 0.0;
        for seed in 0..n_seeds {
            single += run(1, seed);
            multi += run(3, seed);
        }
        single /= n_seeds as f64;
        multi /= n_seeds as f64;
        // More supervision per iteration should not hurt (seed-averaged:
        // individual 8-iteration toy runs are high-variance).
        assert!(multi >= single - 0.05, "multi {multi:.3} vs single {single:.3}");
    }
}
