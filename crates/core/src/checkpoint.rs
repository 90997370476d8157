//! Plain-data session snapshots for disconnect/resume.
//!
//! [`SessionCheckpoint`] captures the **authoritative** state of an
//! interactive session — configuration and seed, iteration count, lineage,
//! the collected label-matrix columns, the pool-exclusion set, the latest
//! model outputs, and the RNG's raw state — plus, from
//! [`crate::system::NemoSystem::checkpoint`], every LF's contextualizer
//! radii, frozen when the LF was registered. Everything else a live
//! session holds is *derived* cache state and is deterministically rebuilt
//! on restore:
//!
//! - the SEU aggregates are folded on first read by
//!   [`crate::seu::SeuAggregates::new`] from the restored model outputs,
//!   equal to the never-interrupted session's bit for bit;
//! - the contextualizer's refined grid-slot columns are re-registered
//!   in one batch on the next learning round. With the radii carried, each
//!   LF's distances are queried only at the rows its raw columns cover
//!   and filtered at its carried radii; without them (older files, or
//!   [`crate::session::Session::checkpoint`]) every LF is registered
//!   afresh. Both are bit-identical to incremental registration
//!   (differential-tested). Restore checks the radii's count, range and
//!   order along the grid, but cannot check an in-range radius against the
//!   data without the full distance query it skips, so it trusts it, as
//!   it trusts the RNG state;
//! - the pair-count caches start cold and recount to the same values.
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
/// [`crate::system::NemoSystem::checkpoint`] (the same snapshot, plus
/// the contextualizer radii); consumed by the matching `restore`
/// constructors. Labels and votes use
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
    /// Every LF's contextualizer radius at each point of the default
    /// percentile grid, LF-major in grid order (`lineage.len() × grid`
    /// values), or empty when not carried.
    /// [`crate::system::NemoSystem::checkpoint`] fills it and
    /// [`crate::system::NemoSystem::restore`] reuses it, so the restored
    /// contextualizer queries distances only at each LF's covered rows;
    /// [`crate::session::Session::checkpoint`] leaves it empty, and
    /// [`crate::session::Session::restore`] ignores it.
    pub radii: Vec<f64>,
    /// Inert compatibility field: written empty and ignored on restore.
    /// Files written before the EM label model was removed may carry
    /// per-grid-point seeds here; they decode and are dropped. Kept only
    /// while perfbench's round replay still names it.
    pub warm_seeds: Vec<Vec<f64>>,
}
