//! The selection engine: what the user is asked each interactive round.
//!
//! A [`SelectionEngine`] owns one *round* of its protocol against the
//! shared [`Session`] state machine, and every driver is engine-agnostic:
//! the curve loop [`crate::idp::run_curve`] (behind
//! `NemoSystem::run_with_user` and the benchmark's `run_method`) and the
//! multi-tenant [`crate::pool::SessionPool`].
//!
//! [`ExampleEngine`] is the one implementation: pick a development example
//! with a [`Selector`] and ask the user to author LFs for it. Over
//! [`SeuSelector`] it is the paper's protocol (Sec. 4); every other IDP
//! method of the paper's evaluation is the same engine over another
//! selector. To add a strategy that picks examples, implement
//! [`Selector`] and run it in an [`ExampleEngine`]; nothing else changes.
//! The selectors keep no state outside the session beyond derived
//! caches, so checkpoints carry no engine state and a restored engine
//! starts cold.

use crate::config::{IdpConfig, SelectionStrategy};
use crate::error::SessionError;
use crate::idp::{Selector, StepRecord};
use crate::oracle::User;
use crate::pipeline::LearningPipeline;
use crate::session::Session;
use crate::seu::SeuSelector;

/// One selection strategy's interactive protocol over the shared
/// [`Session`] state machine.
///
/// The contract every implementation upholds:
///
/// - [`SelectionEngine::round`] consumes exactly one iteration (via
///   `submit`, `skip`, or `advance_frozen`) and never leaves a
///   suggestion pending;
/// - all randomness is drawn from the `rng` the session hands its
///   [`Selector`], so the checkpointed stream covers every draw and a
///   restored session continues bit-identically.
///
/// Engines are `Send` so [`crate::pool::SessionPool`] can run resident
/// sessions on its worker threads.
pub trait SelectionEngine: Send {
    /// Engine name for reports (matches
    /// [`SelectionStrategy::name`](crate::config::SelectionStrategy::name)).
    fn name(&self) -> &'static str;

    /// Run one full interactive round against `session`, asking `user`
    /// to author LFs, and re-learn through `pipeline`.
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
    /// frontend.
    fn example_selector(&mut self) -> &mut dyn Selector;
}

/// Build the engine the config's [`SelectionStrategy`] selects.
pub fn engine_for(config: &IdpConfig) -> Box<dyn SelectionEngine> {
    match config.selection {
        SelectionStrategy::Seu => Box::new(ExampleEngine::new(SeuSelector::new())),
    }
}

/// The example-selection engine: the protocol of every IDP method in the
/// paper. Each round its [`Selector`] picks a development example, the
/// user authors LFs for it, and the session re-learns through the
/// pipeline; once the pool is exhausted the round advances the frozen
/// model instead.
///
/// Over [`SeuSelector`] it is the paper's protocol. Snorkel's random
/// selection, the Abstain/Disagree heuristics, the SEU ablations and the
/// multi-LF selector are the same engine over another selector. Every
/// example engine reports the `seu` strategy name, since the strategy
/// names the protocol ([`Selector::name`] names the selector).
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

    fn example_selector(&mut self) -> &mut dyn Selector {
        &mut self.selector
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_follows_the_config_switch() {
        let seu =
            engine_for(&IdpConfig { selection: SelectionStrategy::Seu, ..Default::default() });
        assert_eq!(seu.name(), "seu");
    }

    #[test]
    fn seu_engine_exposes_the_manual_frontend() {
        let mut engine = engine_for(&IdpConfig::default());
        assert_eq!(engine.example_selector().name(), "SEU");
    }
}
