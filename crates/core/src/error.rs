//! Typed errors for the interactive protocol and checkpoint restoration.
//!
//! The interactive suggest/submit/skip protocol used to enforce its state
//! machine with panics; those misuse modes are reachable from the public
//! API (any frontend driving [`crate::NemoSystem`] out of order), so they
//! are reported as [`SessionError`] values instead. Panics remain only for
//! *internal* invariants that no sequence of public calls can violate —
//! each such site carries an `// invariant:` comment.
//!
//! [`RestoreError`] covers the second hostile surface: a
//! [`crate::checkpoint::SessionCheckpoint`] arriving from outside the
//! process (a persisted file, a network peer) whose fields may disagree
//! with the dataset it is being restored against. Restoration validates
//! every field and reports the first inconsistency instead of panicking —
//! or worse, building a session whose state silently disagrees with its
//! invariants.

use std::fmt;

/// Misuse of the interactive suggest/submit/skip protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// A selection was requested while a previous suggestion is still
    /// unresolved (awaiting submit or skip).
    SuggestionPending {
        /// The example reserved by the unresolved suggestion.
        pending: usize,
    },
    /// Submit or skip was called without a pending suggestion.
    NoPendingSuggestion,
    /// A submitted LF references a primitive outside the dataset's domain.
    PrimitiveOutOfDomain {
        /// The offending primitive id.
        z: u32,
        /// The dataset's primitive-domain size.
        n_primitives: usize,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::SuggestionPending { pending } => {
                write!(f, "previous suggestion (example {pending}) not yet resolved")
            }
            SessionError::NoPendingSuggestion => {
                write!(f, "submit or skip without a pending suggestion")
            }
            SessionError::PrimitiveOutOfDomain { z, n_primitives } => {
                write!(f, "LF primitive {z} outside the domain (n_primitives = {n_primitives})")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// A checkpoint that cannot be restored against the given dataset.
///
/// Every variant names the first field found inconsistent; restoration
/// never partially applies a bad checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// A per-example vector's length disagrees with the dataset split.
    LengthMismatch {
        /// The checkpoint field.
        field: &'static str,
        /// Length required by the dataset.
        expected: usize,
        /// Length found in the checkpoint.
        actual: usize,
    },
    /// A numeric field is non-finite or outside its documented range.
    ValueOutOfRange {
        /// The checkpoint field.
        field: &'static str,
    },
    /// A lineage record references a primitive or development example
    /// outside the dataset.
    LineageOutOfDomain {
        /// Index of the offending lineage record.
        lf: usize,
    },
    /// The number of persisted matrix columns disagrees with the lineage.
    ColumnArity {
        /// Columns required (one per lineage record).
        expected: usize,
        /// Columns found.
        actual: usize,
    },
    /// A persisted matrix column differs from the column its LF produces
    /// over the dataset's training corpus: corrupt entries, or a
    /// checkpoint of another dataset.
    MalformedColumn {
        /// Index of the offending column.
        lf: usize,
        /// Which invariant failed.
        reason: &'static str,
    },
    /// An LF's carried contextualizer radii decrease along the percentile
    /// grid sorted by percentile: a larger percentile of the same
    /// distances cannot be smaller.
    DecreasingRadii {
        /// Index of the offending LF.
        lf: usize,
    },
    /// The pending suggestion is out of range or not marked excluded.
    InvalidPending,
    /// The persisted RNG state is the all-zero fixed point of
    /// xoshiro256++, which would freeze the generator.
    DegenerateRngState,
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::LengthMismatch { field, expected, actual } => {
                write!(
                    f,
                    "checkpoint field `{field}` has length {actual}, dataset requires {expected}"
                )
            }
            RestoreError::ValueOutOfRange { field } => {
                write!(f, "checkpoint field `{field}` holds a non-finite or out-of-range value")
            }
            RestoreError::LineageOutOfDomain { lf } => {
                write!(f, "lineage record {lf} references data outside the dataset")
            }
            RestoreError::ColumnArity { expected, actual } => {
                write!(f, "checkpoint has {actual} matrix columns for {expected} lineage records")
            }
            RestoreError::MalformedColumn { lf, reason } => {
                write!(f, "matrix column {lf} is malformed: {reason}")
            }
            RestoreError::DecreasingRadii { lf } => {
                write!(f, "radii of LF {lf} decrease along the percentile grid")
            }
            RestoreError::InvalidPending => {
                write!(f, "pending suggestion is out of range or not excluded from the pool")
            }
            RestoreError::DegenerateRngState => {
                write!(f, "persisted RNG state is the degenerate all-zero state")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_error_messages_name_the_misuse() {
        let s = SessionError::SuggestionPending { pending: 7 }.to_string();
        assert!(s.contains("not yet resolved"), "{s}");
        let s = SessionError::NoPendingSuggestion.to_string();
        assert!(s.contains("pending suggestion"), "{s}");
        let s = SessionError::PrimitiveOutOfDomain { z: 9, n_primitives: 4 }.to_string();
        assert!(s.contains("outside the domain"), "{s}");
    }

    #[test]
    fn restore_error_messages_name_the_field() {
        let e = RestoreError::LengthMismatch { field: "excluded", expected: 3, actual: 5 };
        assert!(e.to_string().contains("excluded"));
        assert!(RestoreError::DegenerateRngState.to_string().contains("all-zero"));
    }

    #[test]
    fn errors_implement_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SessionError::NoPendingSuggestion);
        takes_err(&RestoreError::InvalidPending);
    }
}
