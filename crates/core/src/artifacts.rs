//! The shared read-only world of a multi-tenant deployment.
//!
//! Everything a learning round *reads* but never *writes* — the prepared
//! [`Dataset`]: feature matrices with their CSC companions and cached row
//! norms, primitive corpora, lexicon — is immutable after dataset
//! preparation. [`SharedArtifacts`] packages it so it can be built once
//! and handed out behind an [`Arc`](std::sync::Arc) to any number of
//! concurrent sessions: every per-user structure ([`crate::Session`],
//! [`crate::NemoSystem`], [`crate::pool::SessionPool`]) borrows the
//! artifacts, it never clones them.
//!
//! The split mirrors the paper's serving model: Nemo's interactive loop
//! (Hsieh et al., PVLDB 2022, Sec. 4) is per-user mutable state — lineage,
//! label matrix, selector aggregates, RNG — evolving over an immutable
//! example pool. Keeping the immutable side in one place is what makes a
//! session cheap enough to admit by the hundreds.

use std::ops::Deref;

use nemo_data::Dataset;

/// The immutable artifact set shared by every session of a deployment:
/// one prepared dataset.
///
/// Derefs to [`Dataset`], so any API taking `&Dataset` accepts
/// `&SharedArtifacts` unchanged:
///
/// ```
/// use std::sync::Arc;
/// use nemo_core::{IdpConfig, NemoSystem, SharedArtifacts, SimulatedUser};
/// use nemo_data::catalog::toy_text;
///
/// // Build the read-only world once...
/// let artifacts = Arc::new(SharedArtifacts::new(toy_text(1)));
///
/// // ...and run any number of independent sessions over one copy.
/// let mut curves = Vec::new();
/// for seed in [1u64, 2] {
///     let config = IdpConfig { n_iterations: 4, seed, ..Default::default() };
///     let mut nemo = NemoSystem::new(&artifacts, config);
///     curves.push(nemo.run_with_user(&mut SimulatedUser::default()));
/// }
/// assert_eq!(curves.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SharedArtifacts {
    dataset: Dataset,
}

impl SharedArtifacts {
    /// Wrap a prepared dataset.
    pub fn new(dataset: Dataset) -> Self {
        Self { dataset }
    }

    /// The prepared dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }
}

impl Deref for SharedArtifacts {
    type Target = Dataset;

    fn deref(&self) -> &Dataset {
        &self.dataset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IdpConfig;
    use crate::system::NemoSystem;
    use nemo_data::catalog::toy_text;

    #[test]
    fn derefs_to_dataset() {
        let artifacts = SharedArtifacts::new(toy_text(1));
        assert_eq!(artifacts.train.features.n(), artifacts.dataset().train.features.n());
        // Deref coercion lets `&SharedArtifacts` stand in for `&Dataset`.
        let nemo = NemoSystem::new(&artifacts, IdpConfig::default());
        assert_eq!(nemo.iteration(), 0);
    }
}
