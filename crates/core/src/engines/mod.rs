//! Selection engines: pluggable strategies for what the user is asked
//! each interactive round.
//!
//! A [`SelectionEngine`] owns one *round* of its protocol against the
//! shared [`Session`] state machine, and every driver is engine-agnostic:
//! the curve loop [`crate::idp::run_curve`] (behind
//! `NemoSystem::run_with_user` and the benchmark's `run_method`), the
//! multi-tenant [`crate::pool::SessionPool`], and checkpoint/restore.
//!
//! Two engines ship today:
//!
//! - [`ExampleEngine`] — pick a development example with a [`Selector`]
//!   and ask the user to author LFs for it. Over [`SeuSelector`] it is
//!   the paper's protocol and the reference path of the
//!   [`SelectionStrategy`] switch on [`IdpConfig`]; every other IDP
//!   method of the paper's evaluation is the same engine over another
//!   selector.
//! - [`IwsEngine`] — Interactive Weak Supervision (Boecking et al.):
//!   enumerate keyword-LF candidates from the vocabulary, rank them with
//!   a bootstrap-committee usefulness model updated online from
//!   accept/reject feedback, and ask the user only to judge the
//!   top-ranked candidate.
//!
//! Both feed accepted LFs through the contextualizer identically (an
//! accepted IWS candidate is submitted with its anchor example as the
//! development context, exactly like a user-authored LF), draw all
//! randomness from the session's checkpointed RNG stream, and persist
//! their state through the versioned
//! [`EngineState`] checkpoint section —
//! so pooled, evicted, and restored sessions resume bit-identically
//! regardless of engine (`tests/iws_engine_differential.rs`).
//!
//! To add a strategy that picks examples, implement [`Selector`] and run
//! it in an [`ExampleEngine`]; nothing else changes. A strategy that asks
//! the user something else implements [`SelectionEngine`], gets a
//! [`SelectionStrategy`] variant (registered in nemo-lint's switch
//! registry with a differential test) and an [`EngineState`] variant if
//! it carries state, and is wired into [`engine_for`].

use crate::checkpoint::EngineState;
use crate::config::{IdpConfig, SelectionStrategy};
use crate::error::{RestoreError, SessionError};
use crate::idp::{Selector, StepRecord};
use crate::oracle::User;
use crate::pipeline::LearningPipeline;
use crate::session::Session;
use crate::seu::SeuSelector;
use nemo_data::Dataset;

mod iws;

pub use iws::{IwsEngine, IwsEngineConfig};

/// One selection strategy's interactive protocol over the shared
/// [`Session`] state machine.
///
/// The contract every implementation upholds:
///
/// - [`SelectionEngine::round`] consumes exactly one iteration (via
///   `submit`, `skip`, or `advance_frozen`) and never leaves a
///   suggestion pending;
/// - all randomness is drawn from the session's RNG
///   ([`Session::rng_mut`] / the `rng` handed to its [`Selector`]), so
///   the checkpointed stream covers every draw;
/// - [`SelectionEngine::checkpoint_state`] +
///   [`SelectionEngine::restore_state`] round-trip to a bit-identical
///   continuation: a restored engine makes the same proposals, in the
///   same order, as the uninterrupted one.
///
/// Engines are `Send` so [`crate::pool::SessionPool`] can run resident
/// sessions on its worker threads.
pub trait SelectionEngine: Send {
    /// Engine name for reports (matches
    /// [`SelectionStrategy::name`](crate::config::SelectionStrategy::name)).
    fn name(&self) -> &'static str;

    /// Run one full interactive round against `session`, asking `user`
    /// whatever this engine's protocol asks (author an LF / judge a
    /// candidate), and re-learn through `pipeline`.
    ///
    /// # Errors
    ///
    /// [`SessionError::SuggestionPending`] if a manual-frontend
    /// suggestion is still unresolved; the round itself always resolves
    /// the reservations it makes.
    fn round(
        &mut self,
        session: &mut Session<'_>,
        user: &mut dyn User,
        pipeline: &mut dyn LearningPipeline,
    ) -> Result<StepRecord, SessionError>;

    /// The example [`Selector`] backing the manual suggest/submit
    /// frontend, if this engine's protocol has one. Engines that propose
    /// LF candidates themselves (IWS) return `None`, and the frontend
    /// reports [`SessionError::EngineDriven`].
    fn example_selector(&mut self) -> Option<&mut dyn Selector>;

    /// Snapshot the engine's state for a
    /// [`crate::checkpoint::SessionCheckpoint`].
    fn checkpoint_state(&self) -> EngineState;

    /// Restore the engine from a checkpointed state, validating it
    /// against `ds`.
    ///
    /// # Errors
    ///
    /// [`RestoreError::EngineStateMismatch`] if the state belongs to a
    /// different engine or is inconsistent with the dataset's candidate
    /// family.
    fn restore_state(&mut self, state: &EngineState, ds: &Dataset) -> Result<(), RestoreError>;
}

/// Build the engine the config's
/// [`SelectionStrategy`] selects.
pub fn engine_for(config: &IdpConfig) -> Box<dyn SelectionEngine> {
    match config.selection {
        SelectionStrategy::Seu => Box::new(ExampleEngine::new(SeuSelector::new())),
        SelectionStrategy::Iws => Box::new(IwsEngine::new(IwsEngineConfig::default())),
    }
}

/// The example-selection engine: the protocol of every IDP method in the
/// paper. Each round its [`Selector`] picks a development example, the
/// user authors LFs for it, and the session re-learns through the
/// pipeline; once the pool is exhausted the round advances the frozen
/// model instead.
///
/// Over [`SeuSelector`] it is the paper's protocol and the reference path
/// of the `SelectionStrategy` switch. Snorkel's random selection, the
/// Abstain/Disagree heuristics, the SEU ablations and the multi-LF
/// selector are the same engine over another selector. Every example
/// engine reports the `seu` strategy name, since the strategy names the
/// protocol ([`Selector::name`] names the selector). All engine state
/// beyond the session is the selector's derived caches, rebuilt cold on
/// restore.
#[derive(Debug, Clone)]
pub struct ExampleEngine<S> {
    selector: S,
}

impl<S: Selector + Send> ExampleEngine<S> {
    /// An engine over `selector`.
    pub fn new(selector: S) -> Self {
        Self { selector }
    }
}

impl<S: Selector + Send> SelectionEngine for ExampleEngine<S> {
    fn name(&self) -> &'static str {
        SelectionStrategy::Seu.name()
    }

    fn round(
        &mut self,
        session: &mut Session<'_>,
        user: &mut dyn User,
        pipeline: &mut dyn LearningPipeline,
    ) -> Result<StepRecord, SessionError> {
        let iteration = session.iteration();
        let selected = session.select_with(&mut self.selector)?;
        let new_lfs = match selected {
            Some(x) => {
                // Multi-LF submissions share the pending example; an
                // empty answer consumes the iteration like a skip.
                let lfs = session.develop(x, user);
                session
                    .submit(lfs.clone(), pipeline)
                    // invariant: users develop LFs over real primitives,
                    // and `x` is the reservation this round just made.
                    .expect("round submits its own suggestion");
                lfs
            }
            None => {
                // Pool exhausted: keep evaluating the frozen model.
                // invariant: the selection above returned None, so no
                // reservation exists.
                session.advance_frozen().expect("no reservation outstanding");
                Vec::new()
            }
        };
        Ok(StepRecord { iteration, selected, new_lfs })
    }

    fn example_selector(&mut self) -> Option<&mut dyn Selector> {
        Some(&mut self.selector)
    }

    fn checkpoint_state(&self) -> EngineState {
        EngineState::Seu
    }

    fn restore_state(&mut self, state: &EngineState, _ds: &Dataset) -> Result<(), RestoreError> {
        match state {
            EngineState::Seu => Ok(()),
            _ => Err(RestoreError::EngineStateMismatch {
                engine: self.name(),
                reason: "checkpoint carries another engine's state",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SelectionStrategy;
    use nemo_data::catalog::toy_text;

    #[test]
    fn factory_follows_the_config_switch() {
        let seu = engine_for(&IdpConfig::default());
        assert_eq!(seu.name(), "seu");
        let iws =
            engine_for(&IdpConfig { selection: SelectionStrategy::Iws, ..Default::default() });
        assert_eq!(iws.name(), "iws-rank");
    }

    #[test]
    fn seu_engine_rejects_foreign_state() {
        let ds = toy_text(1);
        let mut engine = ExampleEngine::new(SeuSelector::new());
        assert!(engine.restore_state(&EngineState::Seu, &ds).is_ok());
        let iws_state = EngineState::IwsV1 { answers: vec![(0, true)] };
        assert!(matches!(
            engine.restore_state(&iws_state, &ds),
            Err(RestoreError::EngineStateMismatch { engine: "seu", .. })
        ));
    }

    #[test]
    fn seu_engine_exposes_the_manual_frontend() {
        let mut engine = ExampleEngine::new(SeuSelector::new());
        assert!(engine.example_selector().is_some());
        let mut iws = IwsEngine::new(IwsEngineConfig::default());
        assert!(iws.example_selector().is_none());
    }
}
