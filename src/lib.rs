//! # nemo — Interactive Data Programming (VLDB 2022 reproduction)
//!
//! A from-scratch Rust implementation of **"Nemo: Guiding and
//! Contextualizing Weak Supervision for Interactive Data Programming"**
//! (Hsieh, Zhang, Ratner; PVLDB 15(13), 2022), including the complete
//! data-programming substrate it runs on and every baseline from the
//! paper's evaluation.
//!
//! ## Quick start
//!
//! ```
//! use nemo::data::catalog::toy_text;
//! use nemo::prelude::*;
//!
//! // A small 4-cluster sentiment dataset (Figure 3's toy setting).
//! let dataset = toy_text(42);
//!
//! // Nemo = SEU development-data selection + contextualized learning.
//! let config = IdpConfig { n_iterations: 10, eval_every: 5, ..Default::default() };
//! let mut nemo = NemoSystem::new(&dataset, config);
//!
//! // Drive the interactive loop with the paper's simulated user.
//! let mut user = SimulatedUser::default();
//! let curve = nemo.run_with_user(&mut user).unwrap();
//! assert!(curve.final_score() > 0.5);
//! ```
//!
//! Driving the loop with a *real* user instead:
//!
//! ```
//! use nemo::data::catalog::toy_text;
//! use nemo::prelude::*;
//!
//! let dataset = toy_text(42);
//! let mut nemo = NemoSystem::new(&dataset, IdpConfig::default());
//!
//! // 1. Nemo suggests the most useful development example (out-of-order
//! //    calls return a typed `SessionError` instead of panicking).
//! let x = nemo.suggest_example().unwrap().expect("pool is non-empty");
//!
//! // 2. Inspect it (here: its candidate primitives), optionally explore
//! //    other examples containing a primitive, then write an LF.
//! let z = dataset.train.corpus.primitives_of(x)[0];
//! let _similar = nemo.explore_primitive(z, 5).unwrap();
//! nemo.submit_lf(PrimitiveLf::new(z, Label::Pos)).unwrap();
//!
//! // 3. Models are re-learned with the LF's development context.
//! assert_eq!(nemo.lineage().len(), 1);
//! ```
//!
//! ## Selectors
//!
//! Each round is [`core::Session::round`]: a [`core::Selector`] picks a
//! development example, the user writes LFs for it, and a learning
//! pipeline re-learns the models. `NemoSystem` runs it with SEU and the
//! contextualized pipeline; the paper's ablations and baselines run the
//! same round on a plain `Session` with another selector or pipeline:
//!
//! ```
//! use nemo::core::pipeline::ContextualizedPipeline;
//! use nemo::core::{SeuSelector, UserModelKind, UtilityKind};
//! use nemo::data::catalog::toy_text;
//! use nemo::prelude::*;
//!
//! let dataset = toy_text(42);
//! let mut session = Session::new(&dataset, IdpConfig::default());
//! // Table 6's uniform user model in place of the accuracy-weighted one.
//! let mut selector = SeuSelector::with(UserModelKind::Uniform, UtilityKind::Full);
//! let mut pipeline = ContextualizedPipeline::default();
//! let mut user = SimulatedUser::default();
//! let record = session.round(&mut selector, &mut user, &mut pipeline).unwrap();
//! assert!(record.selected.is_some());
//! assert_eq!(session.iteration(), 1);
//! ```
//!
//! ## Multi-tenant serving
//!
//! Production deployments run many users against one immutable artifact
//! set: wrap it in [`core::SharedArtifacts`], share it behind an `Arc`,
//! and let a [`core::SessionPool`] admit, schedule, and checkpoint-evict
//! sessions (see `docs/ARCHITECTURE.md`):
//!
//! ```
//! use std::sync::Arc;
//! use nemo::data::catalog::toy_text;
//! use nemo::prelude::*;
//!
//! let artifacts = Arc::new(SharedArtifacts::new(toy_text(42)));
//! let mut pool = SessionPool::new(&artifacts, PoolConfig::default());
//! let id = pool.admit(IdpConfig::default()).unwrap();
//! pool.run_round(id, &mut SimulatedUser::default()).unwrap();
//! assert_eq!(pool.with_session(id, |nemo| nemo.iteration()).unwrap(), 1);
//! ```
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `nemo-core` | the paper's contribution: SEU selector, LF contextualizer, IDP loop, simulated users, `NemoSystem`, multi-tenant `SessionPool` over `SharedArtifacts` |
//! | [`baselines`] | `nemo-baselines` | Snorkel, Snorkel-Abs/Dis, ImplyLoss-L, US, BALD, IWS-LSE, Active WeaSuL, and the unified method runner |
//! | [`labelmodel`] | `nemo-labelmodel` | majority vote and moment-based (MeTaL-style) label models |
//! | [`endmodel`] | `nemo-endmodel` | logistic regression on soft labels, bootstrap ensembles |
//! | [`lf`] | `nemo-lf` | labels, primitive LFs, label matrix, lineage, metrics |
//! | [`data`] | `nemo-data` | dataset abstraction + the six synthetic catalog datasets |
//! | [`text`] | `nemo-text` | tokenizer, vocabulary, n-grams, TF-IDF |
//! | [`sparse`] | `nemo-sparse` | CSR matrices, distances, inverted index, deterministic RNG, stats |
//! | [`persist`] | `nemo-persist` | crash-safe session checkpoint files, durable pool checkpoint stores |

#![warn(missing_docs)]

pub mod prelude;

pub use nemo_baselines as baselines;
pub use nemo_core as core;
pub use nemo_data as data;
pub use nemo_endmodel as endmodel;
pub use nemo_labelmodel as labelmodel;
pub use nemo_lf as lf;
pub use nemo_persist as persist;
pub use nemo_sparse as sparse;
pub use nemo_text as text;
