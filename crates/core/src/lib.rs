//! # nemo-core
//!
//! The paper's primary contribution: the **Interactive Data Programming
//! (IDP)** formalism (Sec. 3) and the **Nemo** system (Sec. 4) built on two
//! novel components:
//!
//! - **Select by Expected Utility (SEU)** — the development-data selector
//!   (Eq. 1): pick the example maximizing `E_{P(λ|x)}[Ψ_t(λ)]`, where the
//!   [`user_model`] estimates which LF a user would write from an example
//!   (Eq. 2) and the [`utility`] function scores an LF's informativeness
//!   (Eq. 3).
//! - **LF contextualizer** — refine each LF to abstain outside a percentile
//!   radius of its development data point (Eq. 4), exploiting the
//!   data-to-LF lineage.
//!
//! Plus the machinery around them: the interactive [`session`] state
//! machine (incremental SEU aggregates, table-driven scoring) whose
//! `Session::round` runs one select → develop → learn round over any
//! [`idp::Selector`], the [`idp`] curve loop shared by all methods,
//! [`pipeline`]s (standard vs contextualized learning), the simulated user
//! [`oracle`] (Sec. 5.1), the ergonomic [`system`] facade, the multi-LF
//! extension of Sec. 7 ([`multi_lf`]), and the multi-tenant serving layer
//! — the immutable [`artifacts`] shared by every user and the [`pool`]
//! scheduling hundreds of sessions over them.

#![warn(missing_docs)]

pub mod artifacts;
pub mod checkpoint;
pub mod config;
pub mod contextualizer;
pub mod error;
pub mod idp;
pub mod multi_lf;
pub mod oracle;
pub mod pipeline;
pub mod pool;
pub mod session;
pub mod seu;
pub mod system;
pub mod user_model;
pub mod utility;

pub use artifacts::SharedArtifacts;
pub use checkpoint::SessionCheckpoint;
pub use config::{ContextualizerConfig, IdpConfig, LabelModelKind, SelectionStrategy};
pub use contextualizer::Contextualizer;
pub use error::{RestoreError, SessionError};
pub use idp::{
    run_curve, LearningCurve, ModelOutputs, RandomSelector, SelectionView, Selector, StepRecord,
};
pub use oracle::{FallbackPolicy, NoisyUser, SimulatedUser, User};
pub use pipeline::{ContextualizedPipeline, LearningPipeline, StandardPipeline};
pub use pool::{
    CheckpointStore, MemoryCheckpointStore, PoolConfig, PoolError, PoolStats, RoundJob,
    RoundOutcome, SessionId, SessionPool,
};
pub use session::Session;
pub use seu::{SeuAggregates, SeuSelector};
pub use system::NemoSystem;
pub use user_model::UserModelKind;
pub use utility::UtilityKind;
