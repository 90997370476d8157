//! Contract: a full session with a long-lived contextualized pipeline
//! equals one with a fresh pipeline built before every learning round,
//! on the three-cluster text dataset.
//!
//! The check is `common::assert_long_lived_sessions_equal_fresh`;
//! `tests/incremental_paths.rs` runs it on `toy_text(1)`.

mod common;

use common::assert_long_lived_sessions_equal_fresh;
use nemo::data::catalog::toy_text;

/// `toy_text(3)`, seeds 2 and 11, 10 rounds scored every 5.
#[test]
fn sessions_select_identically_under_both_refinement_paths() {
    assert_long_lived_sessions_equal_fresh(&toy_text(3), &[2, 11], 10, 5);
}
