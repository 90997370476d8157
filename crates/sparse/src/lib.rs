//! # nemo-sparse
//!
//! Numeric substrate for the Nemo reproduction: sparse and dense vectors,
//! distance kernels, an inverted index, deterministic random-number helpers,
//! the work-stealing scheduler behind `SessionPool`'s worker waves, and the
//! small statistics toolbox (entropy, percentiles, softmax) that the rest of
//! the system is built on.
//!
//! Everything here is deliberately dependency-free and deterministic: all
//! randomness flows through [`rng::DetRng`], a self-contained xoshiro256++
//! generator, so that every experiment in the benchmark harness is exactly
//! reproducible from its seed; and the [`parallel`] scheduler runs each item
//! through exactly one call, so results never depend on the worker count.

#![warn(missing_docs)]

pub mod csc;
pub mod csr;
pub mod dense;
pub mod distance;
pub mod index;
pub mod parallel;
pub mod rng;
pub mod stats;

pub use csc::CscIndex;
pub use csr::{CsrMatrix, SparseVec};
pub use dense::DenseMatrix;
pub use distance::{Distance, GatherScratch};
pub use index::InvertedIndex;
pub use rng::{DetRng, WeightTable};
