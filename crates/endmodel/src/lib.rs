//! # nemo-endmodel
//!
//! The discriminative end model of the DP pipeline (paper Sec. 2, stage 3):
//! logistic regression trained on probabilistic soft labels, exactly the
//! configuration the paper fixes for all methods ("We fix the end model to
//! be logistic regression for all methods", Sec. 5.1).
//!
//! The crate is deliberately label-type-agnostic: it consumes `f64` soft
//! targets (`P(y=+1)`) and produces `f64` probabilities; callers convert
//! to/from [`nemo_lf::Label`]. Also provided: bootstrap ensembles with the
//! BALD mutual-information score for the Bayesian active-learning baseline.

#![warn(missing_docs)]

pub mod ensemble;
pub mod logreg;

pub use ensemble::{bald_scores, BootstrapEnsemble};
pub use logreg::{FittedLogReg, LogRegConfig, LogisticRegression};
