//! # nemo-baselines
//!
//! Every method the paper compares Nemo against (Sec. 5.2). The IDP
//! baselines are the one example-selection round of `nemo-core` —
//! [`nemo_core::Session::round`] over their selector, looped by
//! [`nemo_core::run_curve`] — with their own parts. The others ask the
//! user for labels or candidate judgements rather than LFs, so they keep
//! their own loops.
//!
//! | Paper name | Here | Runs as |
//! |---|---|---|
//! | Snorkel \[28\] | [`methods::Method::Snorkel`] | `Session::round` over `RandomSelector`, standard learning |
//! | Snorkel-Abs \[9\] | [`selectors::AbstainSelector`] | `Session::round`, standard learning |
//! | Snorkel-Dis \[9\] | [`selectors::DisagreeSelector`] | `Session::round`, standard learning |
//! | ImplyLoss-L \[3\] | [`implyloss::ImplyLossPipeline`] | `Session::round` over `RandomSelector`, ImplyLoss learning |
//! | US \[20\] | [`active::UncertaintyAcquisition`] | own loop: one label query per iteration |
//! | BALD \[12, 17\] | [`active::BaldAcquisition`] | own loop: one label query per iteration |
//! | IWS-LSE \[6\] | [`iws::IwsLse`] | own loop: one candidate-LF judgement per iteration |
//! | Active WeaSuL \[5\] | [`weasul::ActiveWeasul`] | own loop: Snorkel warm-up, then label queries |
//!
//! [`methods::run_method`] is the one entry point: every method
//! (including Nemo itself and its ablation variants) runs under the same
//! evaluation protocol and returns a [`nemo_core::LearningCurve`].

#![warn(missing_docs)]

pub mod active;
pub mod implyloss;
pub mod iws;
pub mod methods;
pub mod selectors;
pub mod weasul;

pub use active::{ActiveLearning, BaldAcquisition, UncertaintyAcquisition};
pub use implyloss::ImplyLossPipeline;
pub use iws::IwsLse;
pub use methods::{run_method, Method, RunSpec};
pub use selectors::{AbstainSelector, DisagreeSelector};
pub use weasul::ActiveWeasul;
