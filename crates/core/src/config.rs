//! Configuration types for IDP sessions.

use nemo_endmodel::LogRegConfig;
use nemo_labelmodel::{LabelModel, MajorityVote, TripletModel};
use nemo_sparse::Distance;

/// Which label model aggregates the weak votes (the paper adopts MeTaL;
/// alternatives are provided for ablation).
// lint: allow(doctrine/unregistered-switch): an ablation axis (which
// estimator), not a fast path vs. reference path — no differential.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LabelModelKind {
    /// Moment-based accuracy estimation with shrinkage (the binary
    /// equivalent of MeTaL's matrix-completion step, implemented via the
    /// FlyingSquid triplet identities) — the paper's default label model.
    #[default]
    Metal,
    /// Majority vote.
    Majority,
}

impl LabelModelKind {
    /// Instantiate the estimator.
    pub fn build(self) -> Box<dyn LabelModel> {
        match self {
            LabelModelKind::Metal => Box::new(TripletModel::default()),
            LabelModelKind::Majority => Box::new(MajorityVote::default()),
        }
    }

    /// Name for reports.
    pub fn name(self) -> &'static str {
        match self {
            LabelModelKind::Metal => "metal-moment",
            LabelModelKind::Majority => "majority-vote",
        }
    }
}

/// The selection strategy a session records: SEU example selection, the
/// paper's protocol, is the only one. No code path builds anything from
/// it; only the persist CONFIG tag and perfbench's run stamp read it.
// lint: allow(doctrine/unregistered-switch): one variant, no dispatch;
// kept for the persist CONFIG tag and perfbench's run stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// SEU development-example selection: the selector picks the most
    /// useful unlabeled example and the user authors an LF for it.
    #[default]
    Seu,
}

impl SelectionStrategy {
    /// Name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SelectionStrategy::Seu => "seu",
        }
    }
}

/// Contextualizer settings (paper Sec. 4.3).
#[derive(Debug, Clone)]
pub struct ContextualizerConfig {
    /// Distance function (cosine by default; Table 9 compares euclidean).
    pub distance: Distance,
    /// Candidate percentile values for the refinement radius; the best is
    /// chosen per iteration by validation accuracy of the soft labels.
    pub p_grid: Vec<f64>,
}

impl Default for ContextualizerConfig {
    fn default() -> Self {
        Self { distance: Distance::Cosine, p_grid: vec![25.0, 50.0, 75.0, 100.0] }
    }
}

/// Configuration of one IDP run (paper Sec. 5.1 evaluation protocol).
#[derive(Debug, Clone)]
pub struct IdpConfig {
    /// Total interactive iterations (paper: 50).
    pub n_iterations: usize,
    /// Evaluate the end model on the test split every this many
    /// iterations (paper: 5); `0` records no evaluation points.
    pub eval_every: usize,
    /// Label model choice.
    pub label_model: LabelModelKind,
    /// End-model hyperparameters.
    pub end_model: LogRegConfig,
    /// LFs the user may return per iteration (1 = the paper's atomic
    /// setting; >1 enables the Sec. 7 multi-LF extension).
    pub lfs_per_iteration: usize,
    /// The recorded selection strategy (always SEU; see
    /// [`SelectionStrategy`]).
    pub selection: SelectionStrategy,
    /// Master seed for the run.
    pub seed: u64,
    /// Snapshot cadence for crash recovery: `Some(k)` asks the driver to
    /// persist a [`crate::checkpoint::SessionCheckpoint`] every `k`
    /// completed iterations ([`crate::Session::checkpoint_due`] reports
    /// when). `None` (the default) disables periodic checkpointing; the
    /// knob never affects learning behaviour, only when snapshots happen.
    pub checkpoint_every: Option<usize>,
}

impl Default for IdpConfig {
    fn default() -> Self {
        Self {
            n_iterations: 50,
            eval_every: 5,
            label_model: LabelModelKind::Metal,
            end_model: LogRegConfig::default(),
            lfs_per_iteration: 1,
            selection: SelectionStrategy::default(),
            seed: 0,
            checkpoint_every: None,
        }
    }
}

impl IdpConfig {
    /// Copy with a different seed (for multi-seed protocols).
    pub fn with_seed(&self, seed: u64) -> Self {
        Self { seed, ..self.clone() }
    }

    /// Whether a learning curve records a point once `iterations` rounds
    /// have completed: every `eval_every` rounds, never when it is `0`.
    pub fn evaluates_after(&self, iterations: usize) -> bool {
        self.eval_every > 0 && iterations % self.eval_every == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_model_kinds_build() {
        for kind in [LabelModelKind::Metal, LabelModelKind::Majority] {
            let _ = kind.build();
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn defaults_match_paper_protocol() {
        let cfg = IdpConfig::default();
        assert_eq!(cfg.n_iterations, 50);
        assert_eq!(cfg.eval_every, 5);
        assert_eq!(cfg.lfs_per_iteration, 1);
        assert_eq!(cfg.label_model, LabelModelKind::Metal);
        assert_eq!(cfg.checkpoint_every, None);
        assert_eq!(cfg.selection, SelectionStrategy::Seu);
    }

    #[test]
    fn selection_strategy_names_stable() {
        assert_eq!(SelectionStrategy::Seu.name(), "seu");
        assert_eq!(SelectionStrategy::default(), SelectionStrategy::Seu);
    }

    #[test]
    fn contextualizer_default_grid() {
        let c = ContextualizerConfig::default();
        assert_eq!(c.distance, Distance::Cosine);
        assert_eq!(c.p_grid, vec![25.0, 50.0, 75.0, 100.0]);
    }

    #[test]
    fn zero_eval_every_records_no_points() {
        let every = |eval_every| IdpConfig { eval_every, ..Default::default() };
        assert!((1..=20).all(|t| !every(0).evaluates_after(t)));
        let fives: Vec<usize> = (1..=20).filter(|&t| every(5).evaluates_after(t)).collect();
        assert_eq!(fives, vec![5, 10, 15, 20]);
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let a = IdpConfig::default();
        let b = a.with_seed(9);
        assert_eq!(b.seed, 9);
        assert_eq!(b.n_iterations, a.n_iterations);
    }
}
