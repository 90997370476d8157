//! Binary labels and weak-supervision votes.
//!
//! The paper focuses on binary classification with `Y = {−1, +1}` and the
//! abstain value `0` (Sec. 2 / "Paper Scope"). [`Label`] is the strongly
//! typed label; [`Vote`] (an `i8` in `{−1, 0, +1}`) is what LFs emit.

/// The abstain vote `λ(x) = 0`.
pub const ABSTAIN: Vote = 0;

/// A weak-supervision vote: `−1`, `+1`, or `0` (abstain).
pub type Vote = i8;

/// A binary class label, `Y = {−1, +1}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Label {
    /// The negative class (−1).
    Neg,
    /// The positive class (+1).
    Pos,
}

impl Label {
    /// Both labels, in index order (`Neg`, `Pos`).
    pub const ALL: [Label; 2] = [Label::Neg, Label::Pos];

    /// Signed representation: −1 or +1.
    #[inline]
    pub fn sign(self) -> i8 {
        match self {
            Label::Neg => -1,
            Label::Pos => 1,
        }
    }

    /// Dense index: `Neg → 0`, `Pos → 1` (used for probability arrays
    /// `[P(y=−1), P(y=+1)]`).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Label::Neg => 0,
            Label::Pos => 1,
        }
    }

    /// Parse from a signed value; `0` (abstain) and other values are `None`.
    #[inline]
    pub fn from_sign(v: i8) -> Option<Label> {
        match v {
            -1 => Some(Label::Neg),
            1 => Some(Label::Pos),
            _ => None,
        }
    }

    /// The opposite label.
    #[inline]
    pub fn flip(self) -> Label {
        match self {
            Label::Neg => Label::Pos,
            Label::Pos => Label::Neg,
        }
    }

    /// Construct from a boolean "is positive".
    #[inline]
    pub fn from_bool(is_pos: bool) -> Label {
        if is_pos {
            Label::Pos
        } else {
            Label::Neg
        }
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Label::Neg => write!(f, "-1"),
            Label::Pos => write!(f, "+1"),
        }
    }
}

/// Convert a posterior `P(y = +1)` into a hard label with 0.5 threshold
/// (ties go positive, deterministically).
#[inline]
pub fn label_from_prob(p_pos: f64) -> Label {
    Label::from_bool(p_pos >= 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_index_roundtrip() {
        for l in Label::ALL {
            assert_eq!(Label::from_sign(l.sign()), Some(l));
            assert_eq!(Label::ALL[l.index()], l);
        }
    }

    #[test]
    fn abstain_is_not_a_label() {
        assert_eq!(Label::from_sign(0), None);
        assert_eq!(Label::from_sign(2), None);
    }

    #[test]
    fn flip_is_involution() {
        for l in Label::ALL {
            assert_eq!(l.flip().flip(), l);
            assert_ne!(l.flip(), l);
        }
    }

    #[test]
    fn display_signed() {
        assert_eq!(Label::Pos.to_string(), "+1");
        assert_eq!(Label::Neg.to_string(), "-1");
    }

    #[test]
    fn prob_threshold() {
        assert_eq!(label_from_prob(0.49), Label::Neg);
        assert_eq!(label_from_prob(0.5), Label::Pos);
        assert_eq!(label_from_prob(0.51), Label::Pos);
    }

    #[test]
    fn from_bool_matches_sign() {
        assert_eq!(Label::from_bool(true).sign(), 1);
        assert_eq!(Label::from_bool(false).sign(), -1);
    }
}
