//! # nemo-data
//!
//! Dataset substrate: the [`Dataset`]/[`Split`]/[`Features`] abstraction
//! plus the synthetic generators that substitute for the paper's six
//! evaluation datasets (Table 1). The generators plant exactly the
//! cluster-locality structure (Figures 2–3, Example 1.1) that the paper's
//! methods exploit.
//!
//! Layout:
//! - [`dataset`] — core types ([`Dataset`], [`Split`], [`Features`]).
//! - [`mixture`] — the shared cluster-mixture generative process.
//! - [`textgen`] — text datasets (sentiment & spam): a vocabulary built
//!   over the token names, each split encoded through a per-name id
//!   table (one lookup per distinct name, no `String` per token
//!   occurrence), then TF-IDF features. `tests/catalog_digests.rs` pins
//!   every catalog dataset bit for bit.
//! - [`scenegen`] — Visual-Genome-like scenes: object-annotation
//!   primitives with dense embedding features.
//! - [`catalog`] — named dataset specs matching Table 1, with scale
//!   profiles for fast benchmarking.

#![warn(missing_docs)]

pub mod catalog;
pub mod dataset;
pub mod mixture;
pub mod scenegen;
pub mod textgen;

pub use catalog::{DatasetName, Profile};
pub use dataset::{Dataset, Features, Rows, Split};
pub use mixture::MixtureConfig;
