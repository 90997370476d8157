//! The interactive session state machine: [`Session`] owns every piece of
//! long-lived IDP state and keeps the SEU scoring machinery **incremental**
//! across rounds.
//!
//! Before this cache existed, each selection round rebuilt the
//! per-primitive aggregates ([`PrimAgg`]) with a full `O(nnz(U))` pass over
//! the inverted index, even though consecutive rounds share almost all of
//! their model state. `Session` instead owns a [`SeuAggregates`] cache and
//! *delta-updates* it after every learning stage: only the examples whose
//! posterior entropy or end-model prediction actually changed replay
//! their contribution into the primitives that contain them —
//! `O(Σ_{i dirty} |prims(i)|)` work instead of `O(nnz(U))`. The integer
//! fields of every aggregate stay exact; the float sums pick up at most
//! one rounding step per update and are re-anchored by periodic full
//! rebuilds. `tests/session_differential.rs` proves the cache tracks a
//! from-scratch rebuild within `1e-9` and that selections driven by the
//! cache are identical to selections recomputed from scratch.
//!
//! Everything interactive is a thin driver over this type:
//! [`Session::round`] runs one select → develop → learn round over any
//! [`Selector`], [`crate::idp::run_curve`] loops those rounds for
//! [`crate::NemoSystem`] and every IDP method in `nemo-baselines`, and the
//! suggest/submit frontend calls the stage methods directly — so every
//! selector sees the same cached state.

use crate::checkpoint::SessionCheckpoint;
use crate::config::IdpConfig;
use crate::error::{RestoreError, SessionError};
use crate::idp::{ModelOutputs, SelectionView, Selector, StepRecord};
use crate::oracle::User;
use crate::pipeline::LearningPipeline;
use crate::utility::PrimAgg;
use nemo_data::Dataset;
use nemo_labelmodel::Posterior;
use nemo_lf::{Label, LabelMatrix, LfColumn, Lineage, PrimitiveLf};
use nemo_sparse::DetRng;

/// Why a [`SeuAggregates::sync`] fell back to a full rebuild instead of a
/// delta update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildReason {
    /// The constructor's initial population of the cache.
    Initial,
    /// The dirty set would touch more slots than the cost model allows
    /// (see [`SeuAggregates::sync`] for the threshold and its rationale).
    DirtyMajority,
    /// Periodic re-anchor bounding floating-point drift of the in-place
    /// sums.
    DriftBound,
}

impl RebuildReason {
    /// Name for logs and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            RebuildReason::Initial => "initial",
            RebuildReason::DirtyMajority => "dirty-majority",
            RebuildReason::DriftBound => "drift-bound",
        }
    }
}

/// What one [`SeuAggregates::sync`] call did — returned to the caller and
/// counted internally, so avoidable rebuilds are observable rather than
/// silent (`BENCH_kernel.json` records the per-reason totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOutcome {
    /// No example's `(ψ, ŷ)` changed; the cache was already consistent.
    Clean,
    /// In-place delta update of the dirty examples' contributions.
    Delta {
        /// Examples whose `(ψ, ŷ)` changed.
        dirty_examples: usize,
        /// Primitive-occurrence slots those examples replayed.
        dirty_slots: usize,
    },
    /// Full rebuild, with the reason it was forced.
    Rebuild(RebuildReason),
}

/// Per-primitive SEU aggregates, maintained incrementally across learning
/// rounds.
///
/// Invariant: `aggs[z]` equals the fold of [`PrimAgg::add`] over the
/// postings of `z` under the cached `psi` (posterior entropies) and `yhat`
/// (end-model prediction signs) vectors, and those vectors match the
/// `ModelOutputs` last passed to [`SeuAggregates::sync`].
#[derive(Debug, Clone)]
pub struct SeuAggregates {
    psi: Vec<f64>,
    yhat: Vec<i8>,
    aggs: Vec<PrimAgg>,
    full_rebuilds: usize,
    rebuilds_dirty_majority: usize,
    rebuilds_drift_bound: usize,
    delta_syncs: usize,
    delta_syncs_since_rebuild: usize,
    /// Primitive-occurrence slots updated by delta syncs (speedup
    /// accounting).
    delta_slots_updated: u64,
}

/// Delta syncs between forced full rebuilds: each in-place update adds at
/// most one rounding step to a float sum, so this bounds the drift of the
/// cached sums relative to a from-scratch rebuild.
const MAX_DELTA_SYNCS_BETWEEN_REBUILDS: usize = 64;

/// Dirty-majority fallback threshold, as a fraction of total postings:
/// fall back to a rebuild only when `dirty_slots > 7/8 · nnz(U)`.
///
/// A delta update costs ~2 adds per slot against 1 per slot for a
/// rebuild, so by cost alone the break-even sits near 1/2. The threshold
/// also decides when the float sums are re-anchored, so moving it can
/// change their low bits and with them SEU's selections; it stays at the
/// value the golden curves (`tests/golden_curves.rs`) were recorded with.
const DIRTY_MAJORITY_NUM: usize = 7;
const DIRTY_MAJORITY_DEN: usize = 8;

impl SeuAggregates {
    /// Build the cache from scratch for the given model state.
    pub fn new(ds: &Dataset, outputs: &ModelOutputs) -> Self {
        let n_primitives = ds.train.corpus.n_primitives();
        let mut cache = Self {
            psi: Vec::new(),
            yhat: Vec::new(),
            aggs: vec![PrimAgg::default(); n_primitives],
            full_rebuilds: 0,
            rebuilds_dirty_majority: 0,
            rebuilds_drift_bound: 0,
            delta_syncs: 0,
            delta_syncs_since_rebuild: 0,
            delta_slots_updated: 0,
        };
        cache.rebuild(ds, outputs);
        cache
    }

    /// The cached aggregates (aligned with the primitive domain).
    pub fn aggs(&self) -> &[PrimAgg] {
        &self.aggs
    }

    /// `(full rebuilds, delta syncs)` performed so far.
    pub fn sync_counts(&self) -> (usize, usize) {
        (self.full_rebuilds, self.delta_syncs)
    }

    /// Rebuilds forced after the initial build, by reason:
    /// `(dirty-majority, drift-bound)`.
    pub fn rebuild_fallback_counts(&self) -> (usize, usize) {
        (self.rebuilds_dirty_majority, self.rebuilds_drift_bound)
    }

    /// Primitive-occurrence slots updated in place by delta syncs so far.
    pub fn delta_slots_updated(&self) -> u64 {
        self.delta_slots_updated
    }

    fn rebuild(&mut self, ds: &Dataset, outputs: &ModelOutputs) {
        self.psi = outputs.train_posterior.entropies();
        self.yhat = outputs.yhat_signs();
        let index = ds.train.corpus.index();
        self.aggs.fill(PrimAgg::default());
        for (z, postings) in index.iter_nonempty() {
            let agg = &mut self.aggs[z as usize];
            for &i in postings {
                agg.add(self.psi[i as usize], self.yhat[i as usize]);
            }
        }
        self.full_rebuilds += 1;
        self.delta_syncs_since_rebuild = 0;
    }

    /// Bring the cache in line with `outputs` by applying, in place, the
    /// contribution delta of every example whose `(psi, yhat)` changed —
    /// `O(Σ_{i dirty} |prims(i)|)` instead of the `O(nnz(U))` rebuild.
    ///
    /// Falls back to a full rebuild when the dirty set covers nearly all
    /// slots (`dirty_slots > 7/8 · nnz(U)`; see the cost model on the
    /// threshold constants) and forces
    /// one every 64 delta syncs (`MAX_DELTA_SYNCS_BETWEEN_REBUILDS`) to
    /// bound floating-point drift of the in-place sums. The returned
    /// [`SyncOutcome`] says which path ran and, for rebuilds, why.
    pub fn sync(&mut self, ds: &Dataset, outputs: &ModelOutputs) -> SyncOutcome {
        let new_psi = outputs.train_posterior.entropies();
        let new_yhat = outputs.yhat_signs();
        debug_assert_eq!(new_psi.len(), self.psi.len());
        let n = new_psi.len();
        let corpus = &ds.train.corpus;
        let dirty: Vec<u32> = (0..n)
            .filter(|&i| {
                self.psi[i].to_bits() != new_psi[i].to_bits() || self.yhat[i] != new_yhat[i]
            })
            .map(|i| i as u32)
            .collect();
        if dirty.is_empty() {
            return SyncOutcome::Clean;
        }
        let dirty_slots: usize =
            dirty.iter().map(|&i| corpus.primitives_of(i as usize).len()).sum();
        let reason =
            if dirty_slots * DIRTY_MAJORITY_DEN >= corpus.total_postings() * DIRTY_MAJORITY_NUM {
                Some(RebuildReason::DirtyMajority)
            } else if self.delta_syncs_since_rebuild >= MAX_DELTA_SYNCS_BETWEEN_REBUILDS {
                Some(RebuildReason::DriftBound)
            } else {
                None
            };
        if let Some(reason) = reason {
            match reason {
                RebuildReason::DirtyMajority => self.rebuilds_dirty_majority += 1,
                RebuildReason::DriftBound => self.rebuilds_drift_bound += 1,
                // invariant: `reason` is built just above from the two
                // sync triggers; Initial is constructor-only.
                RebuildReason::Initial => unreachable!("sync never reports Initial"),
            }
            self.rebuild(ds, outputs);
            return SyncOutcome::Rebuild(reason);
        }

        for &i in &dirty {
            let i = i as usize;
            let (old_psi, old_sign) = (self.psi[i], self.yhat[i]);
            let (np, ns) = (new_psi[i], new_yhat[i]);
            for &z in corpus.primitives_of(i) {
                self.aggs[z as usize].apply_delta(old_psi, old_sign, np, ns);
            }
        }
        self.psi = new_psi;
        self.yhat = new_yhat;
        self.delta_slots_updated += dirty_slots as u64;
        self.delta_syncs += 1;
        self.delta_syncs_since_rebuild += 1;
        SyncOutcome::Delta { dirty_examples: dirty.len(), dirty_slots }
    }
}

/// One interactive IDP session: dataset binding, collected LFs with
/// lineage, the pool-exclusion set, the latest model outputs, and the
/// incrementally-maintained SEU aggregates.
///
/// `Session` is component-agnostic: selectors, users, and learning
/// pipelines are passed *into* the methods that need them, so a single
/// session can be driven interactively ([`Session::select_with`] /
/// [`Session::submit`] / [`Session::skip`]) or round by round through
/// [`Session::round`].
pub struct Session<'a> {
    ds: &'a Dataset,
    config: IdpConfig,
    lineage: Lineage,
    matrix: LabelMatrix,
    excluded: Vec<bool>,
    outputs: ModelOutputs,
    cache: SeuAggregates,
    rng: DetRng,
    iteration: usize,
    pending: Option<usize>,
}

impl<'a> Session<'a> {
    /// Create a session at iteration 0 with prior-level model outputs.
    ///
    /// The inverted index over the training corpus is built once by the
    /// dataset; the session only ever reads it.
    pub fn new(ds: &'a Dataset, config: IdpConfig) -> Self {
        let outputs = ModelOutputs::initial(ds);
        let cache = SeuAggregates::new(ds, &outputs);
        Self {
            rng: DetRng::new(config.seed ^ 0x005e_5510),
            lineage: Lineage::new(),
            matrix: LabelMatrix::new(ds.train.n()),
            excluded: vec![false; ds.train.n()],
            iteration: 0,
            pending: None,
            outputs,
            cache,
            ds,
            config,
        }
    }

    /// The dataset this session runs on. Returned at the dataset's own
    /// lifetime (not the borrow's), so callers can hold it across
    /// mutable session calls.
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// The session configuration.
    pub fn config(&self) -> &IdpConfig {
        &self.config
    }

    /// Collected lineage so far.
    pub fn lineage(&self) -> &Lineage {
        &self.lineage
    }

    /// Raw train label matrix of collected LFs.
    ///
    /// Columns are `Arc`-shared ([`nemo_lf::LabelMatrix`]'s
    /// copy-on-write storage), so cloning the returned matrix — per-round
    /// trajectory recording, checkpoints, the replay benches — copies `m`
    /// handles, not `m` vote vectors.
    pub fn matrix(&self) -> &LabelMatrix {
        &self.matrix
    }

    /// Latest model outputs.
    pub fn outputs(&self) -> &ModelOutputs {
        &self.outputs
    }

    /// Completed iterations.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// The example reserved by the last [`Session::select_with`], if any.
    pub fn pending(&self) -> Option<usize> {
        self.pending
    }

    /// The incrementally-maintained SEU aggregates.
    pub fn aggregates(&self) -> &SeuAggregates {
        &self.cache
    }

    /// A read-only selection view over the current state, exposing the
    /// cached aggregates to selectors.
    pub fn view(&self) -> SelectionView<'_> {
        SelectionView {
            ds: self.ds,
            lineage: &self.lineage,
            matrix: &self.matrix,
            outputs: &self.outputs,
            excluded: &self.excluded,
            iteration: self.iteration,
            aggs: Some(&self.cache),
        }
    }

    /// IDP stage 1: run a selector over the current view. The returned
    /// example is excluded from the pool and reserved until
    /// [`Session::submit`] or [`Session::skip`] resolves it
    /// (`Ok(None)` when the pool is exhausted).
    ///
    /// # Errors
    ///
    /// [`SessionError::SuggestionPending`] if a previous suggestion has
    /// not been resolved yet.
    pub fn select_with(
        &mut self,
        selector: &mut dyn Selector,
    ) -> Result<Option<usize>, SessionError> {
        if let Some(pending) = self.pending {
            return Err(SessionError::SuggestionPending { pending });
        }
        // Field-level borrows (rather than `self.view()`) so the selector
        // can take the RNG mutably alongside the read-only view.
        let view = SelectionView {
            ds: self.ds,
            lineage: &self.lineage,
            matrix: &self.matrix,
            outputs: &self.outputs,
            excluded: &self.excluded,
            iteration: self.iteration,
            aggs: Some(&self.cache),
        };
        let Some(x) = selector.select(&view, &mut self.rng) else {
            return Ok(None);
        };
        self.excluded[x] = true;
        self.pending = Some(x);
        Ok(Some(x))
    }

    /// IDP stage 2: query a user for LF(s) on example `x`, honoring the
    /// configured `lfs_per_iteration`.
    pub fn develop(&mut self, x: usize, user: &mut dyn User) -> Vec<PrimitiveLf> {
        if self.config.lfs_per_iteration <= 1 {
            user.provide_lf(x, self.ds, &mut self.rng).into_iter().collect()
        } else {
            user.provide_lfs(x, self.config.lfs_per_iteration, self.ds, &mut self.rng)
        }
    }

    /// IDP stages 2–3: record LFs written from the pending example, then
    /// re-learn and re-sync the aggregates. An empty `lfs` behaves like
    /// [`Session::skip`] (the iteration is still consumed).
    ///
    /// # Errors
    ///
    /// [`SessionError::NoPendingSuggestion`] without a pending suggestion;
    /// [`SessionError::PrimitiveOutOfDomain`] if any LF references a
    /// primitive outside the dataset's domain. On error no state changes:
    /// the pending suggestion stays reserved and nothing is recorded.
    pub fn submit(
        &mut self,
        lfs: Vec<PrimitiveLf>,
        pipeline: &mut dyn LearningPipeline,
    ) -> Result<(), SessionError> {
        if self.pending.is_none() {
            return Err(SessionError::NoPendingSuggestion);
        }
        // Validate every LF before touching any state, so a rejected
        // submission leaves the session exactly as it was.
        for lf in &lfs {
            if lf.z as usize >= self.ds.n_primitives {
                return Err(SessionError::PrimitiveOutOfDomain {
                    z: lf.z,
                    n_primitives: self.ds.n_primitives,
                });
            }
        }
        // invariant: checked Some above.
        let dev = self.pending.take().expect("pending checked above") as u32;
        for lf in lfs {
            self.lineage.record(lf, dev, self.iteration as u32);
            self.matrix.push(LfColumn::from_lf(&lf, &self.ds.train.corpus));
        }
        self.relearn(pipeline);
        Ok(())
    }

    /// Decline to write an LF for the pending example; models advance
    /// unchanged (the iteration is still consumed, as in the paper's
    /// fixed-budget protocol).
    ///
    /// # Errors
    ///
    /// [`SessionError::NoPendingSuggestion`] without a pending suggestion.
    pub fn skip(&mut self, pipeline: &mut dyn LearningPipeline) -> Result<(), SessionError> {
        if self.pending.take().is_none() {
            return Err(SessionError::NoPendingSuggestion);
        }
        self.relearn(pipeline);
        Ok(())
    }

    /// Consume one iteration with the pool exhausted and the model frozen
    /// ([`Session::round`] once no example is left).
    ///
    /// # Errors
    ///
    /// [`SessionError::SuggestionPending`] if a suggestion is unresolved.
    pub fn advance_frozen(&mut self) -> Result<(), SessionError> {
        if let Some(pending) = self.pending {
            return Err(SessionError::SuggestionPending { pending });
        }
        self.iteration += 1;
        Ok(())
    }

    /// One full interactive round — the protocol of every IDP method in
    /// the paper: `selector` picks a development example, `user` authors
    /// LFs for it, and the session re-learns through `pipeline`; once the
    /// pool is exhausted the round advances the frozen model instead.
    ///
    /// A successful round consumes exactly one iteration and leaves no
    /// suggestion pending. All randomness comes from the session's
    /// checkpointed stream, so a restored session continues
    /// bit-identically.
    ///
    /// # Errors
    ///
    /// [`SessionError::SuggestionPending`] if a manual-frontend
    /// suggestion is still unresolved; no state changes.
    /// [`SessionError::PrimitiveOutOfDomain`] if `user` returns an LF
    /// over a primitive outside the dataset's domain. The round's
    /// selection and the user's draws from the session stream stand, but
    /// nothing is recorded and no iteration is consumed: the example
    /// stays pending, as a rejected [`Session::submit`] leaves it, and
    /// [`Session::skip`] resolves it.
    pub fn round(
        &mut self,
        selector: &mut dyn Selector,
        user: &mut dyn User,
        pipeline: &mut dyn LearningPipeline,
    ) -> Result<StepRecord, SessionError> {
        let iteration = self.iteration;
        let selected = self.select_with(selector)?;
        let new_lfs = match selected {
            Some(x) => {
                // Multi-LF submissions share the pending example; an
                // empty answer consumes the iteration like a skip.
                let lfs = self.develop(x, user);
                self.submit(lfs.clone(), pipeline)?;
                lfs
            }
            None => {
                // Pool exhausted: keep evaluating the frozen model.
                // invariant: the selection above returned None, so no
                // reservation exists.
                self.advance_frozen().expect("no reservation outstanding");
                Vec::new()
            }
        };
        Ok(StepRecord { iteration, selected, new_lfs })
    }

    /// IDP stage 3: re-learn from the collected LFs, advance the
    /// iteration, and delta-sync the SEU aggregates.
    fn relearn(&mut self, pipeline: &mut dyn LearningPipeline) {
        let iter_seed = self
            .config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.iteration as u64);
        self.outputs =
            pipeline.learn(&self.lineage, &self.matrix, self.ds, &self.config, iter_seed);
        self.cache.sync(self.ds, &self.outputs);
        self.iteration += 1;
    }

    /// Sec. 7 example explorer: a random sample of up to `k` training
    /// examples containing primitive `z`.
    ///
    /// # Errors
    ///
    /// [`SessionError::PrimitiveOutOfDomain`] if `z` lies outside the
    /// dataset's primitive domain. On error no state changes.
    pub fn sample_covered(&mut self, z: u32, k: usize) -> Result<Vec<u32>, SessionError> {
        if z as usize >= self.ds.n_primitives {
            return Err(SessionError::PrimitiveOutOfDomain {
                z,
                n_primitives: self.ds.n_primitives,
            });
        }
        let postings = self.ds.train.corpus.index().postings(z);
        if postings.len() <= k {
            return Ok(postings.to_vec());
        }
        let picks = self.rng.sample_indices(postings.len(), k);
        Ok(picks.into_iter().map(|i| postings[i]).collect())
    }

    /// Current test-split score under the dataset metric.
    pub fn test_score(&self) -> f64 {
        self.ds.metric.score(&self.outputs.test_pred, &self.ds.test.labels)
    }

    /// Current validation-split score under the dataset metric.
    pub fn valid_score(&self) -> f64 {
        self.ds.metric.score(&self.outputs.valid_pred, &self.ds.valid.labels)
    }

    /// Whether the configured checkpoint cadence says a snapshot is due
    /// now (`checkpoint_every` iterations completed since the last
    /// multiple; never due at iteration 0 or when the knob is unset).
    pub fn checkpoint_due(&self) -> bool {
        match self.config.checkpoint_every {
            Some(k) if k > 0 => self.iteration > 0 && self.iteration % k == 0,
            _ => false,
        }
    }

    /// Snapshot the session's authoritative state (see
    /// [`crate::checkpoint::SessionCheckpoint`] for what is captured vs
    /// deterministically rebuilt on restore). `warm_seeds` is written
    /// empty.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        let (rng_state, rng_gauss_spare) = self.rng.raw_state();
        SessionCheckpoint {
            config: self.config.clone(),
            iteration: self.iteration,
            pending: self.pending,
            lineage: self.lineage.tracked().to_vec(),
            columns: self.matrix.columns().map(|c| c.entries().to_vec()).collect(),
            excluded: self.excluded.clone(),
            train_p_pos: self.outputs.train_posterior.p_pos_slice().to_vec(),
            train_probs: self.outputs.train_probs.clone(),
            valid_pred: self.outputs.valid_pred.iter().map(|l| l.sign()).collect(),
            test_pred: self.outputs.test_pred.iter().map(|l| l.sign()).collect(),
            chosen_p: self.outputs.chosen_p,
            rng_state,
            rng_gauss_spare,
            warm_seeds: Vec::new(),
        }
    }

    /// Rebuild a session from a checkpoint against `ds`.
    ///
    /// Every field is validated against the dataset before any state is
    /// built, so a checkpoint from an untrusted file is rejected with a
    /// typed [`RestoreError`] rather than panicking or producing a
    /// session that violates its invariants. On success the session's
    /// observable behaviour is identical to the one that produced the
    /// checkpoint: same lineage and matrix, bit-identical model outputs
    /// and RNG stream, and a freshly rebuilt (exact) SEU aggregate cache.
    pub fn restore(ds: &'a Dataset, ckpt: &SessionCheckpoint) -> Result<Self, RestoreError> {
        let n_train = ds.train.n();
        let expect_len = |field, expected: usize, actual: usize| {
            if expected == actual {
                Ok(())
            } else {
                Err(RestoreError::LengthMismatch { field, expected, actual })
            }
        };
        expect_len("excluded", n_train, ckpt.excluded.len())?;
        expect_len("train_p_pos", n_train, ckpt.train_p_pos.len())?;
        expect_len("train_probs", n_train, ckpt.train_probs.len())?;
        expect_len("valid_pred", ds.valid.n(), ckpt.valid_pred.len())?;
        expect_len("test_pred", ds.test.n(), ckpt.test_pred.len())?;

        let unit_interval = |field, values: &[f64]| {
            if values.iter().all(|p| p.is_finite() && (0.0..=1.0).contains(p)) {
                Ok(())
            } else {
                Err(RestoreError::ValueOutOfRange { field })
            }
        };
        unit_interval("train_p_pos", &ckpt.train_p_pos)?;
        unit_interval("train_probs", &ckpt.train_probs)?;
        if let Some(p) = ckpt.chosen_p {
            if !p.is_finite() {
                return Err(RestoreError::ValueOutOfRange { field: "chosen_p" });
            }
        }
        let signs_to_labels = |field, signs: &[i8]| {
            signs
                .iter()
                .map(|&s| Label::from_sign(s).ok_or(RestoreError::ValueOutOfRange { field }))
                .collect::<Result<Vec<Label>, RestoreError>>()
        };
        let valid_pred = signs_to_labels("valid_pred", &ckpt.valid_pred)?;
        let test_pred = signs_to_labels("test_pred", &ckpt.test_pred)?;

        for (j, rec) in ckpt.lineage.iter().enumerate() {
            if rec.lf.z as usize >= ds.n_primitives || rec.dev_example as usize >= n_train {
                return Err(RestoreError::LineageOutOfDomain { lf: j });
            }
        }
        if ckpt.columns.len() != ckpt.lineage.len() {
            return Err(RestoreError::ColumnArity {
                expected: ckpt.lineage.len(),
                actual: ckpt.columns.len(),
            });
        }
        let mut matrix = LabelMatrix::new(n_train);
        for (j, entries) in ckpt.columns.iter().enumerate() {
            if entries.iter().any(|&(i, _)| i as usize >= n_train) {
                return Err(RestoreError::MalformedColumn {
                    lf: j,
                    reason: "entry references an example outside the training split",
                });
            }
            let col = LfColumn::try_new(entries.clone())
                .map_err(|reason| RestoreError::MalformedColumn { lf: j, reason })?;
            matrix.push(col);
        }

        if let Some(x) = ckpt.pending {
            if x >= n_train || !ckpt.excluded[x] {
                return Err(RestoreError::InvalidPending);
            }
        }
        let rng = DetRng::from_raw_state(ckpt.rng_state, ckpt.rng_gauss_spare)
            .ok_or(RestoreError::DegenerateRngState)?;

        let mut lineage = Lineage::new();
        for rec in &ckpt.lineage {
            lineage.record(rec.lf, rec.dev_example, rec.iteration);
        }
        // `Posterior::new` clamps to [0, 1]; the range check above makes
        // the clamp an identity, so the persisted bits survive intact.
        let outputs = ModelOutputs {
            train_posterior: Posterior::new(ckpt.train_p_pos.clone()),
            train_probs: ckpt.train_probs.clone(),
            valid_pred,
            test_pred,
            chosen_p: ckpt.chosen_p,
        };
        let cache = SeuAggregates::new(ds, &outputs);
        Ok(Self {
            rng,
            lineage,
            matrix,
            excluded: ckpt.excluded.clone(),
            iteration: ckpt.iteration,
            pending: ckpt.pending,
            outputs,
            cache,
            ds,
            config: ckpt.config.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idp::RandomSelector;
    use crate::oracle::SimulatedUser;
    use crate::pipeline::StandardPipeline;
    use crate::seu::SeuSelector;
    use nemo_data::catalog::toy_text;

    fn cfg(n: usize, seed: u64) -> IdpConfig {
        IdpConfig { n_iterations: n, eval_every: 5, seed, ..Default::default() }
    }

    #[test]
    fn select_submit_cycle_updates_state() {
        let ds = toy_text(1);
        let mut s = Session::new(&ds, cfg(10, 1));
        let mut selector = RandomSelector;
        let mut pipeline = StandardPipeline;
        let x = s.select_with(&mut selector).unwrap().expect("pool non-empty");
        assert_eq!(s.pending(), Some(x));
        let z = ds.train.corpus.primitives_of(x)[0];
        s.submit(vec![PrimitiveLf::new(z, nemo_lf::Label::Pos)], &mut pipeline).unwrap();
        assert_eq!(s.lineage().len(), 1);
        assert_eq!(s.iteration(), 1);
        assert_eq!(s.pending(), None);
    }

    #[test]
    fn double_select_is_an_error() {
        let ds = toy_text(1);
        let mut s = Session::new(&ds, cfg(10, 2));
        let mut selector = RandomSelector;
        let x = s.select_with(&mut selector).unwrap().unwrap();
        assert_eq!(
            s.select_with(&mut selector),
            Err(crate::error::SessionError::SuggestionPending { pending: x })
        );
        // The reservation survives the failed call.
        assert_eq!(s.pending(), Some(x));
    }

    #[test]
    fn submit_without_select_is_an_error() {
        let ds = toy_text(1);
        let mut s = Session::new(&ds, cfg(10, 3));
        let mut pipeline = StandardPipeline;
        assert_eq!(
            s.submit(vec![PrimitiveLf::new(0, nemo_lf::Label::Pos)], &mut pipeline),
            Err(crate::error::SessionError::NoPendingSuggestion)
        );
        assert_eq!(s.skip(&mut pipeline), Err(crate::error::SessionError::NoPendingSuggestion));
        assert_eq!(s.iteration(), 0);
    }

    #[test]
    fn out_of_domain_submit_rejected_without_state_change() {
        let ds = toy_text(1);
        let mut s = Session::new(&ds, cfg(10, 3));
        let mut selector = RandomSelector;
        let mut pipeline = StandardPipeline;
        let x = s.select_with(&mut selector).unwrap().unwrap();
        let bad = PrimitiveLf::new(ds.n_primitives as u32, nemo_lf::Label::Pos);
        assert_eq!(
            s.submit(vec![bad], &mut pipeline),
            Err(crate::error::SessionError::PrimitiveOutOfDomain {
                z: ds.n_primitives as u32,
                n_primitives: ds.n_primitives
            })
        );
        // Nothing recorded, suggestion still pending and resolvable.
        assert_eq!(s.lineage().len(), 0);
        assert_eq!(s.pending(), Some(x));
        s.skip(&mut pipeline).unwrap();
        assert_eq!(s.iteration(), 1);
    }

    #[test]
    fn cached_aggregates_track_full_rebuild_over_a_run() {
        let ds = toy_text(1);
        let mut s = Session::new(&ds, cfg(12, 4));
        let mut selector = SeuSelector::new();
        let mut user = SimulatedUser::default();
        let mut pipeline = StandardPipeline;
        for _ in 0..12 {
            s.round(&mut selector, &mut user, &mut pipeline).unwrap();
            let rebuilt = SeuSelector::primitive_aggregates(&s.view());
            for (z, (cached, fresh)) in s.aggregates().aggs().iter().zip(&rebuilt).enumerate() {
                assert_eq!(cached.df, fresh.df, "z={z}");
                assert_eq!(cached.n_pos, fresh.n_pos, "z={z}");
                assert!((cached.s_psi - fresh.s_psi).abs() < 1e-9, "z={z}");
                assert!((cached.s_yhat - fresh.s_yhat).abs() < 1e-9, "z={z}");
                assert!((cached.s_psi_yhat - fresh.s_psi_yhat).abs() < 1e-9, "z={z}");
            }
        }
        let (rebuilds, deltas) = s.aggregates().sync_counts();
        assert!(deltas > 0, "delta path never exercised ({rebuilds} rebuilds)");
    }

    #[test]
    fn matrix_snapshots_share_vote_buffers() {
        // Per-round trajectory recording clones the session matrix; with
        // Arc-backed storage every snapshot must share the collected
        // columns' vote buffers instead of memcpying them.
        let ds = toy_text(1);
        let mut s = Session::new(&ds, cfg(6, 9));
        let mut selector = SeuSelector::new();
        let mut user = SimulatedUser::default();
        let mut pipeline = StandardPipeline;
        for _ in 0..6 {
            s.round(&mut selector, &mut user, &mut pipeline).unwrap();
        }
        let n_lfs = s.matrix().n_lfs();
        assert!(n_lfs > 0, "session collected no LFs");
        let snapshot = s.matrix().clone();
        assert_eq!(snapshot.shared_columns_with(s.matrix()), n_lfs);
        assert_eq!(&snapshot, s.matrix());
    }

    #[test]
    fn empty_submit_consumes_iteration_like_skip() {
        let ds = toy_text(1);
        let mut s = Session::new(&ds, cfg(10, 5));
        let mut selector = RandomSelector;
        let mut pipeline = StandardPipeline;
        s.select_with(&mut selector).unwrap();
        s.submit(Vec::new(), &mut pipeline).unwrap();
        assert_eq!(s.lineage().len(), 0);
        assert_eq!(s.iteration(), 1);
    }

    #[test]
    fn advance_frozen_only_bumps_iteration() {
        let ds = toy_text(1);
        let mut s = Session::new(&ds, cfg(10, 6));
        s.advance_frozen().unwrap();
        assert_eq!(s.iteration(), 1);
        assert_eq!(s.lineage().len(), 0);
    }

    #[test]
    fn checkpoint_roundtrips_through_restore() {
        let ds = toy_text(1);
        let mut s = Session::new(&ds, cfg(12, 7));
        let mut selector = SeuSelector::new();
        let mut user = SimulatedUser::default();
        let mut pipeline = StandardPipeline;
        for _ in 0..4 {
            s.round(&mut selector, &mut user, &mut pipeline).unwrap();
        }
        let ckpt = s.checkpoint();
        let r = Session::restore(&ds, &ckpt).expect("valid checkpoint restores");
        assert_eq!(r.iteration(), s.iteration());
        assert_eq!(r.lineage().tracked(), s.lineage().tracked());
        assert_eq!(r.matrix(), s.matrix());
        assert_eq!(
            r.outputs().train_posterior.p_pos_slice(),
            s.outputs().train_posterior.p_pos_slice()
        );
        assert_eq!(r.outputs().train_probs, s.outputs().train_probs);
        assert_eq!(r.outputs().valid_pred, s.outputs().valid_pred);
        assert_eq!(r.outputs().chosen_p, s.outputs().chosen_p);
        // The restored cache is an exact full rebuild of the same state.
        assert_eq!(r.aggregates().aggs().len(), s.aggregates().aggs().len());
        for (a, b) in r.aggregates().aggs().iter().zip(s.aggregates().aggs()) {
            assert_eq!(a.df, b.df);
            assert_eq!(a.n_pos, b.n_pos);
        }
    }

    #[test]
    fn checkpoint_preserves_pending_reservation() {
        let ds = toy_text(1);
        let mut s = Session::new(&ds, cfg(10, 8));
        let mut selector = RandomSelector;
        let mut pipeline = StandardPipeline;
        let x = s.select_with(&mut selector).unwrap().unwrap();
        let ckpt = s.checkpoint();
        let mut r = Session::restore(&ds, &ckpt).unwrap();
        assert_eq!(r.pending(), Some(x));
        r.skip(&mut pipeline).unwrap();
        assert_eq!(r.iteration(), 1);
    }

    #[test]
    fn restore_rejects_inconsistent_checkpoints() {
        use crate::error::RestoreError;
        let ds = toy_text(1);
        let mut s = Session::new(&ds, cfg(12, 9));
        let mut selector = SeuSelector::new();
        let mut user = SimulatedUser::default();
        let mut pipeline = StandardPipeline;
        for _ in 0..3 {
            s.round(&mut selector, &mut user, &mut pipeline).unwrap();
        }
        let good = s.checkpoint();
        assert!(Session::restore(&ds, &good).is_ok());

        let mut bad = good.clone();
        bad.excluded.pop();
        assert!(matches!(
            Session::restore(&ds, &bad),
            Err(RestoreError::LengthMismatch { field: "excluded", .. })
        ));

        let mut bad = good.clone();
        bad.train_p_pos[0] = f64::NAN;
        assert!(matches!(
            Session::restore(&ds, &bad),
            Err(RestoreError::ValueOutOfRange { field: "train_p_pos" })
        ));

        let mut bad = good.clone();
        bad.valid_pred[0] = 0;
        assert!(matches!(
            Session::restore(&ds, &bad),
            Err(RestoreError::ValueOutOfRange { field: "valid_pred" })
        ));

        let mut bad = good.clone();
        bad.lineage[0].lf.z = ds.n_primitives as u32;
        assert!(matches!(
            Session::restore(&ds, &bad),
            Err(RestoreError::LineageOutOfDomain { lf: 0 })
        ));

        let mut bad = good.clone();
        bad.columns.pop();
        assert!(matches!(Session::restore(&ds, &bad), Err(RestoreError::ColumnArity { .. })));

        let mut bad = good.clone();
        bad.columns[0] = vec![(0, 2)];
        assert!(matches!(
            Session::restore(&ds, &bad),
            Err(RestoreError::MalformedColumn { lf: 0, .. })
        ));

        let mut bad = good.clone();
        bad.columns[0] = vec![(ds.train.n() as u32, 1)];
        assert!(matches!(
            Session::restore(&ds, &bad),
            Err(RestoreError::MalformedColumn { lf: 0, .. })
        ));

        let mut bad = good.clone();
        bad.pending = Some(ds.train.n());
        assert!(matches!(Session::restore(&ds, &bad), Err(RestoreError::InvalidPending)));

        let mut bad = good.clone();
        bad.rng_state = [0; 4];
        assert!(matches!(Session::restore(&ds, &bad), Err(RestoreError::DegenerateRngState)));
    }

    #[test]
    fn round_refuses_a_pending_suggestion_without_touching_state() {
        let ds = toy_text(1);
        let mut s = Session::new(&ds, cfg(10, 12));
        let (mut selector, mut user, mut pipeline) =
            (SeuSelector::new(), SimulatedUser::default(), StandardPipeline);
        s.round(&mut selector, &mut user, &mut pipeline).unwrap();
        let x = s.select_with(&mut selector).unwrap().expect("pool non-empty");
        let before = s.checkpoint();

        let err = s.round(&mut selector, &mut user, &mut pipeline).unwrap_err();
        assert_eq!(err, SessionError::SuggestionPending { pending: x });
        let after = s.checkpoint();
        assert_eq!(after.iteration, before.iteration);
        assert_eq!(after.pending, Some(x));
        assert_eq!(after.lineage.len(), before.lineage.len());
        assert_eq!(after.excluded, before.excluded);
        assert_eq!(after.rng_state, before.rng_state);
        assert_eq!(after.train_probs, before.train_probs);

        s.skip(&mut pipeline).unwrap();
        let record = s.round(&mut selector, &mut user, &mut pipeline).unwrap();
        assert_eq!(record.iteration, 2);
        assert_ne!(record.selected, Some(x), "the skipped example stays excluded");
        assert_eq!(s.iteration(), 3);
        assert_eq!(s.pending(), None);
    }

    #[test]
    fn checkpoint_due_follows_cadence() {
        let ds = toy_text(1);
        let mut config = cfg(10, 10);
        config.checkpoint_every = Some(2);
        let mut s = Session::new(&ds, config);
        let mut selector = RandomSelector;
        let mut user = SimulatedUser::default();
        let mut pipeline = StandardPipeline;
        assert!(!s.checkpoint_due(), "never due at iteration 0");
        let mut due = Vec::new();
        for _ in 0..5 {
            s.round(&mut selector, &mut user, &mut pipeline).unwrap();
            due.push(s.checkpoint_due());
        }
        assert_eq!(due, vec![false, true, false, true, false]);
        let unset = Session::new(&ds, cfg(10, 11));
        assert!(!unset.checkpoint_due());
    }
}
