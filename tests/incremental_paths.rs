//! Contract: a full session with a long-lived contextualized pipeline
//! equals one with a fresh pipeline built before every learning round.
//!
//! The fresh pipeline registers and refines the whole lineage again each
//! round, as a restored session does. An interactive `Session` (SEU
//! selection + simulated user + contextualized learning with the default
//! MeTaL label model) must make identical decisions either way, bit for
//! bit; the check itself is `common::assert_long_lived_sessions_equal_fresh`.
//! `tests/refine_cache_differential.rs` runs it on another dataset and
//! other seeds, and `tests/long_lived_equals_fresh_and_restored.rs` checks
//! the same contract one tuning round at a time.

mod common;

use common::assert_long_lived_sessions_equal_fresh;
use nemo::data::catalog::toy_text;

/// `toy_text(1)`, seeds 1 and 7, 12 rounds scored every 4.
#[test]
fn full_session_identical_refine_cache_vs_refilter() {
    assert_long_lived_sessions_equal_fresh(&toy_text(1), &[1, 7], 12, 4);
}
