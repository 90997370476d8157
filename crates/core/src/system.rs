//! The Nemo system facade (paper Sec. 4, Figure 4).
//!
//! [`NemoSystem`] binds a [`Session`] to the SEU selector and the
//! contextualized learning pipeline. The facade exposes two frontends
//! over them:
//!
//! - the **round driver** ([`NemoSystem::step_with_user`] /
//!   [`NemoSystem::run_with_user`]): one [`Session::round`] per call, in
//!   which the user authors LFs for the chosen example;
//! - the **manual loop**: [`NemoSystem::suggest_example`], then
//!   [`NemoSystem::submit_lf`] or [`NemoSystem::skip`].
//!
//! The primitive-based example explorer of Sec. 7
//! ([`NemoSystem::explore_primitive`]) lets a user inspect a random sample
//! of other examples containing a candidate primitive before committing to
//! an LF.
//!
//! The paper's ablations and baselines (other selectors, user models,
//! utilities or pipelines) are not `NemoSystem` variants: they run on a
//! plain [`Session`] through [`crate::idp::run_curve`].

use crate::checkpoint::SessionCheckpoint;
use crate::config::IdpConfig;
use crate::error::{RestoreError, SessionError};
use crate::idp::{run_curve, LearningCurve, ModelOutputs, StepRecord};
use crate::oracle::User;
use crate::pipeline::ContextualizedPipeline;
use crate::session::Session;
use crate::seu::SeuSelector;
use nemo_data::Dataset;
use nemo_lf::{Lineage, PrimitiveLf};

/// The end-to-end Nemo system (SEU selection + contextualized
/// learning): a thin frontend driver over the [`Session`] state machine,
/// which owns the interactive state and the incrementally-maintained SEU
/// aggregates.
pub struct NemoSystem<'a> {
    session: Session<'a>,
    selector: SeuSelector,
    pipeline: ContextualizedPipeline,
}

impl<'a> NemoSystem<'a> {
    /// Create a Nemo instance over a dataset.
    pub fn new(ds: &'a Dataset, config: IdpConfig) -> Self {
        Self {
            session: Session::new(ds, config),
            selector: SeuSelector::new(),
            pipeline: ContextualizedPipeline::default(),
        }
    }

    /// The underlying session state.
    pub fn session(&self) -> &Session<'a> {
        &self.session
    }

    /// The dataset in use.
    pub fn dataset(&self) -> &Dataset {
        self.session.dataset()
    }

    /// Collected lineage.
    pub fn lineage(&self) -> &Lineage {
        self.session.lineage()
    }

    /// Latest model outputs.
    pub fn outputs(&self) -> &ModelOutputs {
        self.session.outputs()
    }

    /// Completed iterations.
    pub fn iteration(&self) -> usize {
        self.session.iteration()
    }

    /// IDP stage 1: suggest the next development example. Returns
    /// `Ok(None)` when the pool is exhausted. The example is reserved
    /// until [`NemoSystem::submit_lf`] or [`NemoSystem::skip`] is called.
    ///
    /// # Errors
    ///
    /// [`SessionError::SuggestionPending`] if the previous suggestion has
    /// not been resolved yet.
    pub fn suggest_example(&mut self) -> Result<Option<usize>, SessionError> {
        self.session.select_with(&mut self.selector)
    }

    /// IDP stages 2–3: record an LF written from the pending example and
    /// re-learn the models.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoPendingSuggestion`] without a prior
    /// [`NemoSystem::suggest_example`];
    /// [`SessionError::PrimitiveOutOfDomain`] for an LF outside the
    /// dataset's primitive domain. On error no state changes.
    pub fn submit_lf(&mut self, lf: PrimitiveLf) -> Result<(), SessionError> {
        self.session.submit(vec![lf], &mut self.pipeline)
    }

    /// Decline to write an LF for the pending example; models advance
    /// unchanged (the iteration is still consumed, as in the paper's
    /// fixed-budget protocol).
    ///
    /// # Errors
    ///
    /// [`SessionError::NoPendingSuggestion`] without a pending suggestion.
    pub fn skip(&mut self) -> Result<(), SessionError> {
        self.session.skip(&mut self.pipeline)
    }

    /// Sec. 7 example explorer: a random sample of up to `k` training
    /// examples containing primitive `z` (so the user can judge how well a
    /// candidate LF generalizes before creating it).
    ///
    /// # Errors
    ///
    /// [`SessionError::PrimitiveOutOfDomain`] for a primitive outside the
    /// dataset's domain. On error no state changes.
    pub fn explore_primitive(&mut self, z: u32, k: usize) -> Result<Vec<u32>, SessionError> {
        self.session.sample_covered(z, k)
    }

    /// Current test score under the dataset metric.
    pub fn test_score(&self) -> f64 {
        self.session.test_score()
    }

    /// Run one full interactive round ([`Session::round`]): SEU suggests
    /// an example and `user` develops LFs from it, then the round
    /// re-learns the models (or advances the frozen model once the pool
    /// is exhausted).
    /// [`NemoSystem::run_with_user`] is a loop over this; multi-tenant
    /// schedulers ([`crate::pool::SessionPool`]) call it directly so
    /// rounds from many sessions can interleave.
    ///
    /// # Errors
    ///
    /// [`SessionError::SuggestionPending`] if a suggestion made through
    /// [`NemoSystem::suggest_example`] is still unresolved; no state
    /// changes. [`SessionError::PrimitiveOutOfDomain`] if `user` returns
    /// an LF outside the dataset's primitive domain; nothing is recorded
    /// and the round's example stays pending until
    /// [`NemoSystem::skip`] resolves it.
    pub fn step_with_user(&mut self, user: &mut dyn User) -> Result<StepRecord, SessionError> {
        self.session.round(&mut self.selector, user, &mut self.pipeline)
    }

    /// Drive the full interactive loop with a (simulated) user for the
    /// configured number of iterations, evaluating on the paper's cadence
    /// ([`run_curve`]).
    ///
    /// # Errors
    ///
    /// [`SessionError::SuggestionPending`] if a suggestion made through
    /// [`NemoSystem::suggest_example`] is still unresolved; no state
    /// changes.
    pub fn run_with_user(&mut self, user: &mut dyn User) -> Result<LearningCurve, SessionError> {
        run_curve(&mut self.session, &mut self.selector, user, &mut self.pipeline)
    }

    /// Whether the configured checkpoint cadence
    /// ([`IdpConfig::checkpoint_every`]) says a snapshot is due now.
    pub fn checkpoint_due(&self) -> bool {
        self.session.checkpoint_due()
    }

    /// Snapshot the full system state. The session's state is
    /// authoritative: the selector and the contextualizer hold only caches
    /// that [`NemoSystem::restore`] rebuilds deterministically.
    ///
    /// A checkpoint taken mid-loop restores to a system that continues
    /// bit-identically to the uninterrupted run:
    ///
    /// ```
    /// use nemo_core::{IdpConfig, NemoSystem, SimulatedUser};
    /// use nemo_data::catalog::toy_text;
    ///
    /// let ds = toy_text(1);
    /// let config = IdpConfig { n_iterations: 6, seed: 7, ..Default::default() };
    /// let mut original = NemoSystem::new(&ds, config);
    /// let mut user = SimulatedUser::default();
    /// for _ in 0..3 {
    ///     original.step_with_user(&mut user).unwrap();
    /// }
    ///
    /// let ckpt = original.checkpoint();
    /// let mut resumed = NemoSystem::restore(&ds, &ckpt).unwrap();
    ///
    /// // Finish both runs; the resumed one retraces the original exactly.
    /// let mut fresh_user = SimulatedUser::default();
    /// for _ in 3..6 {
    ///     let a = original.step_with_user(&mut user).unwrap();
    ///     let b = resumed.step_with_user(&mut fresh_user).unwrap();
    ///     assert_eq!(a.selected, b.selected);
    /// }
    /// assert_eq!(original.test_score().to_bits(), resumed.test_score().to_bits());
    /// ```
    pub fn checkpoint(&self) -> SessionCheckpoint {
        self.session.checkpoint()
    }

    /// Restore a system from a checkpoint. The SEU selector starts cold;
    /// the contextualizer starts with empty distance caches — its next
    /// learning round re-registers the whole lineage in one batch, which
    /// is bit-identical to the incremental registrations of the original
    /// run — and with empty pair-count caches, which percentile tuning
    /// recounts to the same counts. Restored systems therefore make the
    /// same selections and produce the same model outputs as
    /// never-interrupted ones (`tests/session_checkpoint.rs`).
    /// [`SessionCheckpoint::warm_seeds`] is ignored: older files may carry
    /// seeds there, and no label model reads them.
    ///
    /// Restoration validates every checkpoint field against `ds` before
    /// touching any state — a checkpoint from the wrong dataset (or a
    /// corrupted one) is rejected, never half-applied:
    ///
    /// ```
    /// use nemo_core::{IdpConfig, NemoSystem, RestoreError};
    /// use nemo_data::catalog::toy_text;
    ///
    /// let ds = toy_text(1);
    /// let ckpt = NemoSystem::new(&ds, IdpConfig::default()).checkpoint();
    /// assert!(NemoSystem::restore(&ds, &ckpt).is_ok());
    ///
    /// let mut bad = ckpt.clone();
    /// bad.excluded.pop(); // now the wrong length for `ds`
    /// assert!(matches!(
    ///     NemoSystem::restore(&ds, &bad),
    ///     Err(RestoreError::LengthMismatch { field: "excluded", .. })
    /// ));
    /// ```
    ///
    /// # Errors
    ///
    /// Any [`RestoreError`] from validating the checkpoint against `ds`.
    pub fn restore(ds: &'a Dataset, ckpt: &SessionCheckpoint) -> Result<Self, RestoreError> {
        let session = Session::restore(ds, ckpt)?;
        Ok(Self {
            session,
            selector: SeuSelector::new(),
            pipeline: ContextualizedPipeline::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SimulatedUser;
    use nemo_data::catalog::toy_text;
    use nemo_lf::Label;

    fn cfg(n: usize, seed: u64) -> IdpConfig {
        IdpConfig { n_iterations: n, eval_every: 5, seed, ..Default::default() }
    }

    #[test]
    fn interactive_loop_suggest_submit() {
        let ds = toy_text(1);
        let mut nemo = NemoSystem::new(&ds, cfg(10, 1));
        let x = nemo.suggest_example().unwrap().expect("pool non-empty");
        let prims = ds.train.corpus.primitives_of(x);
        let lf = PrimitiveLf::new(prims[0], Label::Pos);
        nemo.submit_lf(lf).unwrap();
        assert_eq!(nemo.lineage().len(), 1);
        assert_eq!(nemo.iteration(), 1);
        assert_eq!(nemo.lineage().dev_example(0), x as u32);
    }

    #[test]
    fn skip_consumes_iteration() {
        let ds = toy_text(1);
        let mut nemo = NemoSystem::new(&ds, cfg(10, 2));
        nemo.suggest_example().unwrap();
        nemo.skip().unwrap();
        assert_eq!(nemo.lineage().len(), 0);
        assert_eq!(nemo.iteration(), 1);
    }

    #[test]
    fn submit_without_suggest_is_an_error() {
        use crate::error::SessionError;
        let ds = toy_text(1);
        let mut nemo = NemoSystem::new(&ds, cfg(10, 3));
        assert_eq!(
            nemo.submit_lf(PrimitiveLf::new(0, Label::Pos)),
            Err(SessionError::NoPendingSuggestion)
        );
        assert_eq!(nemo.skip(), Err(SessionError::NoPendingSuggestion));
        assert_eq!(nemo.iteration(), 0);
    }

    #[test]
    fn double_suggest_is_an_error() {
        use crate::error::SessionError;
        let ds = toy_text(1);
        let mut nemo = NemoSystem::new(&ds, cfg(10, 4));
        let x = nemo.suggest_example().unwrap().unwrap();
        assert_eq!(nemo.suggest_example(), Err(SessionError::SuggestionPending { pending: x }));
    }

    #[test]
    fn run_with_user_refuses_a_pending_suggestion() {
        use crate::error::SessionError;
        let ds = toy_text(1);
        let mut nemo = NemoSystem::new(&ds, cfg(10, 4));
        let x = nemo.suggest_example().unwrap().unwrap();
        let err = nemo.run_with_user(&mut SimulatedUser::default()).unwrap_err();
        assert_eq!(err, SessionError::SuggestionPending { pending: x });
        assert_eq!(nemo.iteration(), 0);
        assert_eq!(nemo.lineage().len(), 0);
        assert_eq!(nemo.session().pending(), Some(x));
    }

    #[test]
    fn checkpoint_restore_resumes_mid_loop() {
        let ds = toy_text(1);
        let mut nemo = NemoSystem::new(&ds, cfg(10, 7));
        let mut user = SimulatedUser::default();
        for _ in 0..3 {
            match nemo.suggest_example().unwrap() {
                Some(x) => {
                    let lfs = nemo.session.develop(x, &mut user);
                    nemo.session.submit(lfs, &mut nemo.pipeline).unwrap();
                }
                None => nemo.session.advance_frozen().unwrap(),
            }
        }
        let ckpt = nemo.checkpoint();
        let restored = NemoSystem::restore(&ds, &ckpt).expect("valid checkpoint restores");
        assert_eq!(restored.iteration(), nemo.iteration());
        assert_eq!(restored.lineage().tracked(), nemo.lineage().tracked());
    }

    #[test]
    fn explorer_returns_covered_examples() {
        let ds = toy_text(1);
        let mut nemo = NemoSystem::new(&ds, cfg(10, 5));
        // Find a reasonably common primitive.
        let z = (0..ds.n_primitives as u32).max_by_key(|&z| ds.train.corpus.index().df(z)).unwrap();
        let sample = nemo.explore_primitive(z, 5).unwrap();
        assert!(sample.len() <= 5);
        assert!(!sample.is_empty());
        for &i in &sample {
            assert!(ds.train.corpus.contains(i as usize, z));
        }
    }

    #[test]
    fn run_with_simulated_user_learns() {
        let ds = toy_text(1);
        let mut nemo = NemoSystem::new(&ds, cfg(15, 6));
        let mut user = SimulatedUser::default();
        let curve = nemo.run_with_user(&mut user).unwrap();
        assert_eq!(curve.points().len(), 3);
        assert!(curve.final_score() > 0.55, "final {}", curve.final_score());
        assert!(nemo.outputs().chosen_p.is_some());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = toy_text(1);
        let run = |seed| {
            let mut nemo = NemoSystem::new(&ds, cfg(8, seed));
            let mut user = SimulatedUser::default();
            nemo.run_with_user(&mut user).unwrap().points().to_vec()
        };
        assert_eq!(run(9), run(9));
    }
}
