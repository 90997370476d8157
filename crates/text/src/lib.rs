//! # nemo-text
//!
//! Text-processing substrate: tokenization, vocabulary construction, and
//! TF-IDF featurization.
//!
//! The paper featurizes text with TF-IDF over the training corpus and takes
//! the primitive domain `Z` to be the set of uni-grams in the training
//! examples (Sec. 5.1). This crate provides exactly that pipeline.

#![warn(missing_docs)]

pub mod tfidf;
pub mod tokenize;
pub mod vocab;

pub use tfidf::{TfIdf, TfIdfModel};
pub use tokenize::tokenize;
pub use vocab::Vocab;
