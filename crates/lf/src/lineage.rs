//! Data-to-LF lineage (paper Sec. 3, stage 2: "The lineage of these LFs to
//! the development data S_t is tracked and represented as a tuple
//! (Λ_t, S_t)").
//!
//! Nemo's contextualizer consumes this record: each LF is tied to the
//! development example the user was looking at when they wrote it, which
//! is the anchor point for the refinement radius (Eq. 4).

use crate::lf::PrimitiveLf;

/// An LF together with its development context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackedLf {
    /// The labeling function.
    pub lf: PrimitiveLf,
    /// The development example `x_λ` it was created from.
    pub dev_example: u32,
    /// The interactive iteration at which it was created.
    pub iteration: u32,
}

/// Append-only lineage log for an interactive session: the sequence
/// `{(Λ_1, S_1), …, (Λ_t, S_t)}`.
#[derive(Debug, Clone, Default)]
pub struct Lineage {
    records: Vec<TrackedLf>,
}

impl Lineage {
    /// Empty lineage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an LF developed from `dev_example` at `iteration`.
    pub fn record(&mut self, lf: PrimitiveLf, dev_example: u32, iteration: u32) {
        self.records.push(TrackedLf { lf, dev_example, iteration });
    }

    /// All tracked LFs in creation order.
    pub fn tracked(&self) -> &[TrackedLf] {
        &self.records
    }

    /// Just the LFs, in creation order.
    pub fn lfs(&self) -> Vec<PrimitiveLf> {
        self.records.iter().map(|r| r.lf).collect()
    }

    /// Development example of LF `j`.
    pub fn dev_example(&self, j: usize) -> u32 {
        self.records[j].dev_example
    }

    /// Number of recorded LFs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether any LFs have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether an identical LF `(z, y)` has already been recorded
    /// (duplicates are allowed — a user may rediscover the same heuristic —
    /// but callers can use this to report redundancy).
    pub fn contains_lf(&self, lf: &PrimitiveLf) -> bool {
        self.records.iter().any(|r| r.lf == *lf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;

    #[test]
    fn record_and_query() {
        let mut lin = Lineage::new();
        assert!(lin.is_empty());
        lin.record(PrimitiveLf::new(3, Label::Pos), 42, 0);
        lin.record(PrimitiveLf::new(5, Label::Neg), 7, 1);
        assert_eq!(lin.len(), 2);
        assert_eq!(lin.dev_example(0), 42);
        assert_eq!(lin.dev_example(1), 7);
        assert_eq!(
            lin.lfs(),
            vec![PrimitiveLf::new(3, Label::Pos), PrimitiveLf::new(5, Label::Neg)]
        );
    }

    #[test]
    fn contains_lf_checks_z_and_y() {
        let mut lin = Lineage::new();
        lin.record(PrimitiveLf::new(3, Label::Pos), 0, 0);
        assert!(lin.contains_lf(&PrimitiveLf::new(3, Label::Pos)));
        assert!(!lin.contains_lf(&PrimitiveLf::new(3, Label::Neg)));
        assert!(!lin.contains_lf(&PrimitiveLf::new(4, Label::Pos)));
    }

    #[test]
    fn creation_order_preserved() {
        let mut lin = Lineage::new();
        for i in 0..5u32 {
            lin.record(PrimitiveLf::new(i, Label::Pos), i * 10, i);
        }
        let iters: Vec<u32> = lin.tracked().iter().map(|r| r.iteration).collect();
        assert_eq!(iters, vec![0, 1, 2, 3, 4]);
    }
}
