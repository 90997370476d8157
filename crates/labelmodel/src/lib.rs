//! # nemo-labelmodel
//!
//! Label-model substrate (paper Sec. 2, stage 2): learn per-LF accuracies
//! from the label matrix `L` and aggregate weak votes into probabilistic
//! soft labels `P(y_i | L)`.
//!
//! Three estimators are provided:
//!
//! - [`MajorityVote`] — the classic baseline aggregator.
//! - [`GenerativeModel`] — a conditionally-independent generative model
//!   with per-LF accuracy parameters fit by EM: the binary
//!   specialization of the MeTaL \[30\] model class, used as an
//!   alternative estimator.
//! - [`TripletModel`] — the closed-form method-of-moments estimator of
//!   FlyingSquid \[11\] with shrinkage, the binary equivalent of MeTaL's
//!   matrix-completion step and the default label model throughout the
//!   reproduction (the paper adopts MeTaL). Its pairwise co-vote counts
//!   live in a [`PairCounts`] cache that [`LabelModel::fit_from`] keeps in
//!   step with a growing matrix.
//!
//! All models share the [`LabelModel`] → [`FittedLabelModel`] interface:
//! fitting happens on the training label matrix; the fitted model can then
//! score *any* label matrix over the same LFs (e.g. the validation split,
//! which the contextualizer's percentile tuner uses).

#![warn(missing_docs)]

pub mod generative;
pub mod majority;
pub mod posterior;
pub mod traits;
pub mod triplet;

pub use generative::GenerativeModel;
pub use majority::MajorityVote;
pub use posterior::Posterior;
pub use traits::{FittedLabelModel, LabelModel, NaiveBayesFit};
pub use triplet::{PairCounts, TripletModel};
