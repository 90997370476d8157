//! Plain-data session snapshots for disconnect/resume.
//!
//! [`SessionCheckpoint`] captures the **authoritative** state of an
//! interactive session — configuration and seed, iteration count, lineage,
//! the collected label-matrix columns, the pool-exclusion set, the latest
//! model outputs, and the RNG's raw state. Everything else a live session
//! holds is *derived* cache state and is deterministically rebuilt on
//! restore:
//!
//! - the SEU aggregates are reconstructed with a full
//!   [`crate::session::SeuAggregates::new`] rebuild (exact integer fields,
//!   freshly-summed floats — the state a never-interrupted session is
//!   periodically re-anchored to);
//! - the contextualizer's per-LF distance tables are re-registered in one
//!   batch on the next learning round (batched registration is
//!   bit-identical to incremental registration, differential-tested);
//! - the refined-column and pair-count caches start cold and
//!   self-invalidate through their keys (fresh column tokens), then
//!   refill to the same values.
//!
//! `tests/session_checkpoint.rs` proves the resulting sessions make the
//! same selections, tune the same percentiles, and produce bit-identical
//! posteriors as never-interrupted ones.
//!
//! The struct is all-public plain data so the `nemo-persist` crate can
//! serialize it without reaching into session internals; restoration
//! re-validates every field against the target dataset
//! ([`crate::session::Session::restore`]), so a checkpoint arriving from a
//! hostile file can be rejected with a typed
//! [`crate::error::RestoreError`] instead of corrupting a session.

use crate::config::IdpConfig;
use nemo_lf::TrackedLf;

/// A complete, self-contained snapshot of one interactive session.
///
/// Produced by [`crate::session::Session::checkpoint`] or
/// [`crate::system::NemoSystem::checkpoint`] (the same snapshot);
/// consumed by the matching `restore` constructors. Labels and votes use
/// their signed (`±1`) encoding so the struct round-trips through
/// byte-level serialization without depending on enum layout.
#[derive(Debug, Clone)]
pub struct SessionCheckpoint {
    /// The session configuration (including the master seed).
    pub config: IdpConfig,
    /// Completed iterations.
    pub iteration: usize,
    /// The example reserved by an unresolved suggestion, if any.
    pub pending: Option<usize>,
    /// Lineage records in creation order.
    pub lineage: Vec<TrackedLf>,
    /// Raw label-matrix columns, aligned with `lineage`: per column the
    /// sorted `(example id, ±1 vote)` entries.
    pub columns: Vec<Vec<(u32, i8)>>,
    /// `excluded[i]` — training example `i` was already shown to the user.
    pub excluded: Vec<bool>,
    /// Label-model posterior `P(y_i = +1)` on the training split.
    pub train_p_pos: Vec<f64>,
    /// End-model probabilities on the training split.
    pub train_probs: Vec<f64>,
    /// End-model hard predictions on the validation split (`±1` signs).
    pub valid_pred: Vec<i8>,
    /// End-model hard predictions on the test split (`±1` signs).
    pub test_pred: Vec<i8>,
    /// The contextualizer percentile chosen by the last learning round.
    pub chosen_p: Option<f64>,
    /// Raw xoshiro256++ state of the session RNG.
    pub rng_state: [u64; 4],
    /// The RNG's banked second Gaussian draw, if any.
    pub rng_gauss_spare: Option<f64>,
    /// Inert compatibility field: written empty and ignored on restore.
    /// Files written before the EM label model was removed may carry
    /// per-grid-point seeds here; they decode and are dropped. Kept only
    /// while perfbench's round replay still names it.
    pub warm_seeds: Vec<Vec<f64>>,
}
