//! One-import surface for driving Nemo: `use nemo::prelude::*;`.
//!
//! Re-exports the types every driver program touches — the system facade
//! and its config switches, the session state machine, the multi-tenant
//! pool, checkpointing, users, and the LF vocabulary — so examples and
//! downstream binaries don't need to memorize the crate map. Anything
//! deeper (selectors, pipelines, kernels) stays behind its module path.
//!
//! ```
//! use nemo::prelude::*;
//!
//! let dataset = nemo::data::catalog::toy_text(42);
//! let config = IdpConfig { n_iterations: 10, seed: 7, ..Default::default() };
//! let mut nemo = NemoSystem::new(&dataset, config);
//! let record = nemo.step_with_user(&mut SimulatedUser::default()).unwrap();
//! assert_eq!(nemo.iteration(), 1);
//! assert!(record.selected.is_some());
//! ```

pub use nemo_core::{
    ContextualizerConfig, IdpConfig, LearningCurve, NemoSystem, PoolConfig, RestoreError, RoundJob,
    SelectionStrategy, Session, SessionCheckpoint, SessionError, SessionId, SessionPool,
    SharedArtifacts, SimulatedUser, User,
};
pub use nemo_data::{Dataset, DatasetName, Profile};
pub use nemo_lf::{Label, PrimitiveLf};
pub use nemo_persist::FileCheckpointStore;
