//! Simulated users (paper Sec. 5.1, "Simulated User").
//!
//! Given a selected development example, the simulated user mirrors the
//! three-step workflow of Sec. 4.1: determine the example's (ground-truth)
//! label `y`, collect the candidate LFs `{λ_{z,y} : z ∈ x}`, filter out
//! candidates whose *true* accuracy on the unlabeled pool falls below a
//! threshold `t` (resembling human expertise; paper default `t = 0.5`),
//! and sample one of the survivors uniformly. When the dataset carries a
//! lexicon (sentiment tasks), candidates are restricted to lexicon
//! primitives first (paper footnote 1 / Appendix C).
//!
//! [`NoisyUser`] adds imperfection for the user-study simulation
//! (Table 3): occasional threshold lapses and per-user threshold jitter.

use nemo_data::Dataset;
use nemo_lf::PrimitiveLf;
use nemo_sparse::DetRng;

/// What the simulated user does when no candidate passes the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FallbackPolicy {
    /// Return the highest-accuracy candidate anyway (a determined user
    /// always writes *something*); the default, matching the paper's
    /// fixed iteration budget in which every iteration yields an LF.
    #[default]
    BestAvailable,
    /// Decline to write an LF this iteration.
    Abstain,
}

/// A user that can be queried with a development example.
pub trait User {
    /// Short name for reports.
    fn name(&self) -> &'static str {
        "user"
    }

    /// Inspect example `x` (train-split index) and return an LF, or `None`
    /// if the user declines.
    fn provide_lf(&mut self, x: usize, ds: &Dataset, rng: &mut DetRng) -> Option<PrimitiveLf>;

    /// Multi-LF variant (Sec. 7): return up to `k` distinct LFs. The
    /// default repeatedly queries `provide_lf` semantics over distinct
    /// primitives.
    fn provide_lfs(
        &mut self,
        x: usize,
        k: usize,
        ds: &Dataset,
        rng: &mut DetRng,
    ) -> Vec<PrimitiveLf> {
        let mut out = Vec::new();
        for _ in 0..k {
            match self.provide_lf(x, ds, rng) {
                Some(lf) if !out.contains(&lf) => out.push(lf),
                _ => {}
            }
        }
        out
    }
}

/// The accuracy-thresholded oracle user of the paper's experiments.
#[derive(Debug, Clone)]
pub struct SimulatedUser {
    /// Accuracy threshold `t` (paper default 0.5; Fig. 8 sweeps it).
    pub threshold: f64,
    /// Consult the dataset lexicon when available.
    pub use_lexicon: bool,
    /// Behaviour when no candidate passes the threshold.
    pub fallback: FallbackPolicy,
}

impl Default for SimulatedUser {
    fn default() -> Self {
        Self { threshold: 0.5, use_lexicon: true, fallback: FallbackPolicy::BestAvailable }
    }
}

impl SimulatedUser {
    /// Construct with a threshold, keeping other defaults.
    pub fn with_threshold(threshold: f64) -> Self {
        Self { threshold, ..Default::default() }
    }

    /// All candidate LFs for example `x` with their true accuracies, in
    /// primitive order. Lexicon membership is handled in `Self::pick`,
    /// which *prefers* threshold-passing lexicon candidates but may fall
    /// back to non-lexicon primitives (a real user is not limited to the
    /// lexicon; it only guides attention).
    pub fn candidates(&self, x: usize, ds: &Dataset) -> Vec<(PrimitiveLf, f64)> {
        let y = ds.train.labels[x];
        ds.train
            .corpus
            .primitives_of(x)
            .iter()
            .filter_map(|&z| {
                let lf = PrimitiveLf::new(z, y);
                lf.accuracy_against(&ds.train.corpus, &ds.train.labels).map(|acc| (lf, acc))
            })
            .collect()
    }

    fn pick(
        &self,
        candidates: &[(PrimitiveLf, f64)],
        threshold: f64,
        ds: &Dataset,
        rng: &mut DetRng,
    ) -> Option<PrimitiveLf> {
        // Preference order: threshold-passing lexicon candidates,
        // threshold-passing candidates of any kind, then the fallback.
        if self.use_lexicon && !ds.lexicon.is_empty() {
            let lex_passing: Vec<&(PrimitiveLf, f64)> = candidates
                .iter()
                .filter(|&&(lf, acc)| acc >= threshold && ds.in_lexicon(lf.z))
                .collect();
            if !lex_passing.is_empty() {
                return Some(lex_passing[rng.index(lex_passing.len())].0);
            }
        }
        let passing: Vec<&(PrimitiveLf, f64)> =
            candidates.iter().filter(|&&(_, acc)| acc >= threshold).collect();
        if !passing.is_empty() {
            return Some(passing[rng.index(passing.len())].0);
        }
        match self.fallback {
            FallbackPolicy::Abstain => None,
            FallbackPolicy::BestAvailable => candidates
                .iter()
                // invariant: accuracies are empirical ratios in [0, 1],
                // never NaN, so partial_cmp always succeeds.
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("accuracies are finite"))
                .map(|&(lf, _)| lf),
        }
    }
}

impl User for SimulatedUser {
    fn name(&self) -> &'static str {
        "simulated-user"
    }

    fn provide_lf(&mut self, x: usize, ds: &Dataset, rng: &mut DetRng) -> Option<PrimitiveLf> {
        let candidates = self.candidates(x, ds);
        if candidates.is_empty() {
            return None;
        }
        self.pick(&candidates, self.threshold, ds, rng)
    }

    fn provide_lfs(
        &mut self,
        x: usize,
        k: usize,
        ds: &Dataset,
        rng: &mut DetRng,
    ) -> Vec<PrimitiveLf> {
        let mut candidates = self.candidates(x, ds);
        let mut out = Vec::new();
        for _ in 0..k {
            let Some(lf) = self.pick(&candidates, self.threshold, ds, rng) else {
                break;
            };
            out.push(lf);
            candidates.retain(|&(c, _)| c != lf);
            if candidates.is_empty() {
                break;
            }
        }
        out
    }
}

/// An imperfect user for the simulated user study (Table 3; DESIGN.md §2
/// substitution 4): with probability `lapse` the accuracy filter is
/// skipped entirely, and the base threshold is jittered per user.
#[derive(Debug, Clone)]
pub struct NoisyUser {
    inner: SimulatedUser,
    /// Probability of skipping the accuracy filter on a query.
    pub lapse: f64,
}

impl NoisyUser {
    /// Create a noisy user whose personal threshold is jittered by
    /// `N(0, jitter)` around `base_threshold`.
    pub fn new(base_threshold: f64, jitter: f64, lapse: f64, rng: &mut DetRng) -> Self {
        let threshold = (base_threshold + rng.gaussian() * jitter).clamp(0.4, 0.9);
        Self { inner: SimulatedUser { threshold, ..Default::default() }, lapse }
    }
}

impl User for NoisyUser {
    fn name(&self) -> &'static str {
        "noisy-user"
    }

    fn provide_lf(&mut self, x: usize, ds: &Dataset, rng: &mut DetRng) -> Option<PrimitiveLf> {
        let candidates = self.inner.candidates(x, ds);
        if candidates.is_empty() {
            return None;
        }
        if rng.bernoulli(self.lapse) {
            // Lapse: pick any candidate, ignoring quality.
            return Some(candidates[rng.index(candidates.len())].0);
        }
        self.inner.pick(&candidates, self.inner.threshold, ds, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_data::catalog::toy_text;

    #[test]
    fn returns_lf_matching_true_label() {
        let ds = toy_text(1);
        let mut user = SimulatedUser::default();
        let mut rng = DetRng::new(1);
        for x in 0..20 {
            if let Some(lf) = user.provide_lf(x, &ds, &mut rng) {
                assert_eq!(lf.y, ds.train.labels[x], "LF label must be the example's label");
            }
        }
    }

    #[test]
    fn threshold_filters_low_accuracy() {
        let ds = toy_text(1);
        let mut rng = DetRng::new(2);
        let mut strict = SimulatedUser {
            threshold: 0.8,
            fallback: FallbackPolicy::Abstain,
            ..Default::default()
        };
        for x in 0..50 {
            if let Some(lf) = strict.provide_lf(x, &ds, &mut rng) {
                let acc = lf.accuracy_against(&ds.train.corpus, &ds.train.labels).unwrap();
                assert!(acc >= 0.8, "LF accuracy {acc} below strict threshold");
            }
        }
    }

    #[test]
    fn fallback_best_available_always_returns() {
        let ds = toy_text(1);
        let mut rng = DetRng::new(3);
        let mut user = SimulatedUser { threshold: 1.1, ..Default::default() }; // nothing passes
        let lf = user.provide_lf(0, &ds, &mut rng);
        assert!(lf.is_some(), "BestAvailable must return an LF");
        // And it must be the argmax-accuracy candidate.
        let cands = user.candidates(0, &ds);
        let best = cands.iter().map(|&(_, a)| a).fold(f64::NEG_INFINITY, f64::max);
        let got = lf.unwrap().accuracy_against(&ds.train.corpus, &ds.train.labels).unwrap();
        assert!((got - best).abs() < 1e-12);
    }

    #[test]
    fn fallback_abstain_returns_none() {
        let ds = toy_text(1);
        let mut rng = DetRng::new(4);
        let mut user = SimulatedUser {
            threshold: 1.1,
            fallback: FallbackPolicy::Abstain,
            ..Default::default()
        };
        assert!(user.provide_lf(0, &ds, &mut rng).is_none());
    }

    #[test]
    fn lexicon_candidates_preferred_when_passing() {
        let ds = toy_text(1);
        let mut user = SimulatedUser::default();
        let mut rng = DetRng::new(40);
        // Find an example with a threshold-passing lexicon candidate.
        let x = (0..ds.train.n())
            .find(|&i| {
                user.candidates(i, &ds).iter().any(|&(lf, acc)| ds.in_lexicon(lf.z) && acc >= 0.5)
            })
            .expect("toy data has passing lexicon words");
        // Every returned LF must then come from the lexicon.
        for _ in 0..10 {
            let lf = user.provide_lf(x, &ds, &mut rng).unwrap();
            assert!(ds.in_lexicon(lf.z), "expected a lexicon LF, got {lf}");
        }
    }

    #[test]
    fn without_lexicon_all_primitives_are_candidates() {
        let ds = toy_text(1);
        let user = SimulatedUser { use_lexicon: false, ..Default::default() };
        let x = 0;
        let cands = user.candidates(x, &ds);
        assert_eq!(cands.len(), ds.train.corpus.primitives_of(x).len());
    }

    #[test]
    fn multi_lf_returns_distinct() {
        let ds = toy_text(1);
        let mut user = SimulatedUser::default();
        let mut rng = DetRng::new(5);
        let lfs = user.provide_lfs(0, 3, &ds, &mut rng);
        let mut dedup = lfs.clone();
        dedup.dedup();
        assert_eq!(lfs.len(), dedup.len());
    }

    #[test]
    fn noisy_user_lapses_ignore_threshold() {
        let ds = toy_text(1);
        let mut seed_rng = DetRng::new(6);
        // lapse = 1.0 → always unfiltered choice; should sometimes pick
        // LFs below a strict threshold.
        let mut user = NoisyUser::new(0.9, 0.0, 1.0, &mut seed_rng);
        let mut rng = DetRng::new(7);
        let mut below = 0;
        for x in 0..60 {
            if let Some(lf) = user.provide_lf(x, &ds, &mut rng) {
                let acc = lf.accuracy_against(&ds.train.corpus, &ds.train.labels).unwrap();
                if acc < 0.9 {
                    below += 1;
                }
            }
        }
        assert!(below > 0, "lapsing user should sometimes return sub-threshold LFs");
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = toy_text(1);
        let mut u1 = SimulatedUser::default();
        let mut u2 = SimulatedUser::default();
        let mut r1 = DetRng::new(8);
        let mut r2 = DetRng::new(8);
        for x in 0..20 {
            assert_eq!(u1.provide_lf(x, &ds, &mut r1), u2.provide_lf(x, &ds, &mut r2));
        }
    }
}
