//! The Nemo system facade (paper Sec. 4, Figure 4).
//!
//! [`NemoSystem`] binds a [`Session`] to a pluggable selection engine
//! ([`crate::engines`]) and the contextualized learning pipeline. The
//! engine — SEU by default, the learned IWS candidate ranker via
//! [`crate::config::SelectionStrategy::Iws`] — owns the interactive
//! protocol; the facade exposes two frontends over it:
//!
//! - the **round driver** ([`NemoSystem::step_with_user`] /
//!   [`NemoSystem::run_with_user`]): one engine round per call, whatever
//!   the engine's protocol asks of the user (author an LF for a chosen
//!   example, or judge a proposed candidate);
//! - the **manual loop** for engines that select examples:
//!   [`NemoSystem::suggest_example`], then [`NemoSystem::submit_lf`] or
//!   [`NemoSystem::skip`]. Engines that propose LF candidates themselves
//!   report [`SessionError::EngineDriven`] here.
//!
//! The primitive-based example explorer of Sec. 7
//! ([`NemoSystem::explore_primitive`]) lets a user inspect a random sample
//! of other examples containing a candidate primitive before committing to
//! an LF.

use crate::checkpoint::SessionCheckpoint;
use crate::config::{ContextualizerConfig, IdpConfig};
use crate::engines::{engine_for, SelectionEngine};
use crate::error::{RestoreError, SessionError};
use crate::idp::{run_curve, LearningCurve, ModelOutputs, StepRecord};
use crate::oracle::User;
use crate::pipeline::ContextualizedPipeline;
use crate::session::Session;
use nemo_data::Dataset;
use nemo_lf::{Lineage, PrimitiveLf};

/// The end-to-end Nemo system (selection engine + contextualized
/// learning): a thin frontend driver over the [`Session`] engine, which
/// owns the interactive state and the incrementally-maintained SEU
/// aggregates.
pub struct NemoSystem<'a> {
    session: Session<'a>,
    engine: Box<dyn SelectionEngine>,
    pipeline: ContextualizedPipeline,
}

impl<'a> NemoSystem<'a> {
    /// Create a Nemo instance over a dataset; the selection engine
    /// follows [`IdpConfig::selection`].
    pub fn new(ds: &'a Dataset, config: IdpConfig) -> Self {
        let engine = engine_for(&config);
        Self::with_components(ds, config, engine, ContextualizerConfig::default())
    }

    /// Create with an explicit engine and contextualizer settings
    /// (ablations: [`crate::engines::ExampleEngine`] over a configured
    /// [`crate::SeuSelector`] for the Table 6/7 user-model/utility
    /// variants, custom engines for new strategies).
    pub fn with_components(
        ds: &'a Dataset,
        config: IdpConfig,
        engine: Box<dyn SelectionEngine>,
        ctx_config: ContextualizerConfig,
    ) -> Self {
        Self {
            session: Session::new(ds, config),
            engine,
            pipeline: ContextualizedPipeline::new(ctx_config),
        }
    }

    /// The active selection engine.
    pub fn engine(&self) -> &dyn SelectionEngine {
        self.engine.as_ref()
    }

    /// The underlying engine state.
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
    /// not been resolved yet; [`SessionError::EngineDriven`] if the
    /// active engine proposes LF candidates itself (drive it with
    /// [`NemoSystem::step_with_user`] instead).
    pub fn suggest_example(&mut self) -> Result<Option<usize>, SessionError> {
        let name = self.engine.name();
        match self.engine.example_selector() {
            Some(selector) => self.session.select_with(selector),
            None => Err(SessionError::EngineDriven { engine: name }),
        }
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

    /// Run one full interactive round of the active engine's protocol:
    /// SEU suggests an example and lets `user` develop LFs from it; IWS
    /// proposes its top-ranked candidate LF for `user` to judge. Either
    /// way the round re-learns the models (or advances the frozen model
    /// once the pool / candidate family is exhausted).
    /// [`NemoSystem::run_with_user`] is a loop over this; multi-tenant
    /// schedulers ([`crate::pool::SessionPool`]) call it directly so
    /// rounds from many sessions can interleave.
    ///
    /// # Errors
    ///
    /// [`SessionError::SuggestionPending`] if a suggestion made through
    /// [`NemoSystem::suggest_example`] is still unresolved; the round
    /// itself always resolves the reservations it makes.
    pub fn step_with_user(&mut self, user: &mut dyn User) -> Result<StepRecord, SessionError> {
        self.engine.round(&mut self.session, user, &mut self.pipeline)
    }

    /// Drive the full interactive loop with a (simulated) user for the
    /// configured number of iterations, evaluating on the paper's cadence
    /// ([`run_curve`]).
    pub fn run_with_user(&mut self, user: &mut dyn User) -> LearningCurve {
        run_curve(&mut self.session, &mut *self.engine, user, &mut self.pipeline)
    }

    /// Whether the configured checkpoint cadence
    /// ([`IdpConfig::checkpoint_every`]) says a snapshot is due now.
    pub fn checkpoint_due(&self) -> bool {
        self.session.checkpoint_due()
    }

    /// Snapshot the full system state: the session's authoritative state
    /// plus the contextualizer's EM warm-start seeds (so restored tuning
    /// rounds seed their fits exactly like uninterrupted ones).
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
        let mut ckpt = self.session.checkpoint();
        ckpt.warm_seeds = self.pipeline.contextualizer().warm_seeds().to_vec();
        ckpt.engine = self.engine.checkpoint_state();
        ckpt
    }

    /// Restore a system from a checkpoint with default contextualizer
    /// settings; the engine follows the checkpointed
    /// [`IdpConfig::selection`] and resumes from the checkpoint's
    /// engine-state section.
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
        Self::restore_with(ds, ckpt, ContextualizerConfig::default())
    }

    /// Restore with explicit contextualizer settings (the counterpart of
    /// [`NemoSystem::with_components`]). The engine is rebuilt from the
    /// checkpointed [`IdpConfig::selection`] and handed the checkpoint's
    /// engine-state section. The contextualizer starts with empty
    /// distance caches — its next learning round re-registers the whole
    /// lineage in one batch, which is bit-identical to the incremental
    /// registrations of the original run — and with the checkpoint's
    /// warm-start seeds, so percentile tuning resumes from the same EM
    /// state. Restored sessions therefore make the same selections and
    /// produce the same model outputs as never-interrupted ones
    /// (`tests/session_checkpoint.rs`, `tests/iws_engine_differential.rs`).
    ///
    /// # Errors
    ///
    /// Any [`RestoreError`] from validating the checkpoint against `ds`;
    /// [`RestoreError::ValueOutOfRange`] if a warm seed is non-finite;
    /// [`RestoreError::EngineStateMismatch`] if the engine-state section
    /// does not fit the configured engine.
    pub fn restore_with(
        ds: &'a Dataset,
        ckpt: &SessionCheckpoint,
        ctx_config: ContextualizerConfig,
    ) -> Result<Self, RestoreError> {
        if ckpt.warm_seeds.iter().flatten().any(|s| !s.is_finite()) {
            return Err(RestoreError::ValueOutOfRange { field: "warm_seeds" });
        }
        let mut engine = engine_for(&ckpt.config);
        engine.restore_state(&ckpt.engine, ds)?;
        let session = Session::restore(ds, ckpt)?;
        let mut pipeline = ContextualizedPipeline::new(ctx_config);
        pipeline.contextualizer_mut().set_warm_seeds(ckpt.warm_seeds.clone());
        Ok(Self { session, engine, pipeline })
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
        assert_eq!(
            restored.pipeline.contextualizer().warm_seeds(),
            nemo.pipeline.contextualizer().warm_seeds()
        );
    }

    #[test]
    fn restore_rejects_non_finite_warm_seeds() {
        use crate::error::RestoreError;
        let ds = toy_text(1);
        let nemo = NemoSystem::new(&ds, cfg(10, 8));
        let mut ckpt = nemo.checkpoint();
        ckpt.warm_seeds = vec![vec![0.5, f64::NAN]];
        assert!(matches!(
            NemoSystem::restore(&ds, &ckpt),
            Err(RestoreError::ValueOutOfRange { field: "warm_seeds" })
        ));
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
        let curve = nemo.run_with_user(&mut user);
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
            nemo.run_with_user(&mut user).points().to_vec()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn iws_engine_rejects_the_manual_frontend() {
        use crate::config::SelectionStrategy;
        let ds = toy_text(1);
        let config = IdpConfig { selection: SelectionStrategy::Iws, ..cfg(10, 1) };
        let mut nemo = NemoSystem::new(&ds, config);
        assert_eq!(nemo.engine().name(), "iws-rank");
        assert_eq!(nemo.suggest_example(), Err(SessionError::EngineDriven { engine: "iws-rank" }));
        // The round driver still works — and the frontend error left no
        // reservation behind.
        let mut user = SimulatedUser::default();
        nemo.step_with_user(&mut user).expect("engine-driven round runs");
        assert_eq!(nemo.iteration(), 1);
    }

    #[test]
    fn iws_runs_end_to_end_and_restores_bit_identically() {
        use crate::config::SelectionStrategy;
        let ds = toy_text(1);
        let config = IdpConfig {
            selection: SelectionStrategy::Iws,
            n_iterations: 8,
            eval_every: 4,
            seed: 21,
            ..Default::default()
        };
        let mut original = NemoSystem::new(&ds, config);
        let mut user = SimulatedUser::with_threshold(0.5);
        for _ in 0..4 {
            original.step_with_user(&mut user).unwrap();
        }
        let ckpt = original.checkpoint();
        assert!(matches!(ckpt.engine, crate::checkpoint::EngineState::IwsV1 { .. }));
        let mut resumed = NemoSystem::restore(&ds, &ckpt).expect("valid checkpoint restores");
        assert_eq!(resumed.engine().name(), "iws-rank");
        let mut fresh_user = SimulatedUser::with_threshold(0.5);
        for _ in 4..8 {
            let a = original.step_with_user(&mut user).unwrap();
            let b = resumed.step_with_user(&mut fresh_user).unwrap();
            assert_eq!(a.selected, b.selected);
            assert_eq!(a.new_lfs, b.new_lfs);
        }
        assert_eq!(original.test_score().to_bits(), resumed.test_score().to_bits());
    }

    #[test]
    fn restore_rejects_engine_state_from_the_wrong_engine() {
        use crate::checkpoint::EngineState;
        use crate::error::RestoreError;
        let ds = toy_text(1);
        let nemo = NemoSystem::new(&ds, cfg(10, 9));
        let mut ckpt = nemo.checkpoint();
        ckpt.engine = EngineState::IwsV1 { answers: vec![(0, true)] };
        assert!(matches!(
            NemoSystem::restore(&ds, &ckpt),
            Err(RestoreError::EngineStateMismatch { engine: "seu", .. })
        ));
    }
}
