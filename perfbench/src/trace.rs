//! Bench-side tracing: spans around the calls into each layer's public
//! functions, plus the work counters the crates already expose.
//!
//! [`TracedSession`] replays the SEU engine's round (`SeuEngine::round`)
//! over a plain [`Session`], and [`TracedPipeline`] makes the same public
//! calls, in the same order, as `ContextualizedPipeline::learn`. Both are
//! checked against an untraced `NemoSystem` twin bit for bit, so the spans
//! time exactly the work a user's round does.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nemo_core::pipeline::{end_model_outputs, LearningPipeline, UNIFORM_BALANCE};
use nemo_core::pool::CheckpointStore;
use nemo_core::{
    Contextualizer, ContextualizerConfig, IdpConfig, ModelOutputs, RestoreError, Session,
    SessionCheckpoint, SessionError, SeuSelector, StepRecord, User,
};
use nemo_data::Dataset;
use nemo_lf::{LabelMatrix, Lineage};
use nemo_persist::EncodedCheckpointStore;

use crate::measure::ns_since;

/// Nanoseconds spent per traced layer, summed over rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// Traced rounds.
    pub rounds: u64,
    /// Whole rounds as the user waits for them.
    pub round: u64,
    /// `Session::select_with` (SEU scoring and selection).
    pub select: u64,
    /// `Session::develop` (the simulated user).
    pub develop: u64,
    /// `Session::submit` as a whole; the learn spans below nest in it.
    pub submit: u64,
    /// `Contextualizer::sync` (LF registration and distance caching).
    pub register: u64,
    /// `Contextualizer::tune_p` (label-model fits over the percentile grid).
    pub tune_p: u64,
    /// `FittedLabelModel::predict_with_coverage` on the tuned matrix.
    pub predict: u64,
    /// `pipeline::end_model_outputs`.
    pub end_model: u64,
    /// Checkpoint plus persist encode (replayed pool rounds only).
    pub checkpoint: u64,
    /// Persist decode plus `Session::restore` (replayed pool rounds only).
    pub restore: u64,
}

impl Spans {
    /// Add another trace's spans to this one.
    pub fn add(&mut self, o: &Spans) {
        self.rounds += o.rounds;
        self.round += o.round;
        self.select += o.select;
        self.develop += o.develop;
        self.submit += o.submit;
        self.register += o.register;
        self.tune_p += o.tune_p;
        self.predict += o.predict;
        self.end_model += o.end_model;
        self.checkpoint += o.checkpoint;
        self.restore += o.restore;
    }

    /// `Session::submit` time outside the learn spans: building the LF's
    /// label column and `SeuAggregates::sync`.
    pub fn session_sync(&self) -> u64 {
        self.submit.saturating_sub(self.register + self.tune_p + self.predict + self.end_model)
    }

    /// Round time no span covers.
    pub fn residual(&self) -> i64 {
        let covered = self.select + self.develop + self.submit + self.checkpoint + self.restore;
        self.round as i64 - covered as i64
    }
}

/// Deterministic work counters, summed over rounds. Equal inputs must
/// give equal counters, on every run and at every worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Rounds counted.
    pub rounds: u64,
    /// LFs the user submitted.
    pub new_lfs: u64,
    /// LFs the contextualizer registered (a restored session re-registers
    /// its whole lineage).
    pub lfs_registered: u64,
    /// `Contextualizer::tune_fits` deltas.
    pub tune_fits: u64,
    /// `Contextualizer::tune_predicts` deltas.
    pub tune_predicts: u64,
    /// Refined-column cache hits.
    pub refine_hits: u64,
    /// Refined-column cache refilters.
    pub refine_refilters: u64,
    /// SEU aggregate syncs done as in-place deltas.
    pub delta_syncs: u64,
    /// SEU aggregate syncs that fell back to a full rebuild.
    pub rebuild_syncs: u64,
    /// Primitive slots the delta syncs updated.
    pub delta_slots: u64,
}

impl Counters {
    /// Add another trace's counters to these.
    pub fn add(&mut self, o: &Counters) {
        self.rounds += o.rounds;
        self.new_lfs += o.new_lfs;
        self.lfs_registered += o.lfs_registered;
        self.tune_fits += o.tune_fits;
        self.tune_predicts += o.tune_predicts;
        self.refine_hits += o.refine_hits;
        self.refine_refilters += o.refine_refilters;
        self.delta_syncs += o.delta_syncs;
        self.rebuild_syncs += o.rebuild_syncs;
        self.delta_slots += o.delta_slots;
    }
}

/// Cumulative counter readings of one session, diffed around a round.
fn snapshot(session: &Session<'_>, ctx: &Contextualizer) -> Counters {
    let aggs = session.aggregates();
    let (rebuilds, deltas) = aggs.sync_counts();
    let cache = ctx.refine_cache_stats();
    Counters {
        rounds: 0,
        new_lfs: 0,
        lfs_registered: ctx.n_registered() as u64,
        tune_fits: ctx.tune_fits() as u64,
        tune_predicts: ctx.tune_predicts() as u64,
        refine_hits: cache.hits as u64,
        refine_refilters: cache.refilters as u64,
        delta_syncs: deltas as u64,
        rebuild_syncs: rebuilds as u64,
        delta_slots: aggs.delta_slots_updated(),
    }
}

/// Per-round learn spans, filled by [`TracedPipeline::learn`].
#[derive(Debug, Clone, Copy, Default)]
struct LearnSpans {
    register: u64,
    tune_p: u64,
    predict: u64,
    end_model: u64,
}

/// The contextualized learning stage with a span around each layer call.
pub struct TracedPipeline {
    ctx: Contextualizer,
    spans: LearnSpans,
}

impl TracedPipeline {
    fn new(ctx: Contextualizer) -> Self {
        Self { ctx, spans: LearnSpans::default() }
    }
}

impl LearningPipeline for TracedPipeline {
    fn name(&self) -> &'static str {
        "contextualized"
    }

    fn learn(
        &mut self,
        lineage: &Lineage,
        raw_matrix: &LabelMatrix,
        ds: &Dataset,
        config: &IdpConfig,
        iter_seed: u64,
    ) -> ModelOutputs {
        let t = Instant::now();
        self.ctx.sync(lineage, ds);
        self.spans.register += ns_since(t);
        if lineage.is_empty() {
            return ModelOutputs::initial(ds);
        }
        let t = Instant::now();
        let label_model = config.label_model.build();
        let tuned = self.ctx.tune_p(raw_matrix, ds, &*label_model, UNIFORM_BALANCE);
        self.spans.tune_p += ns_since(t);
        let t = Instant::now();
        let (posterior, covered) = tuned.fitted.predict_with_coverage(&tuned.train_matrix);
        self.spans.predict += ns_since(t);
        let t = Instant::now();
        let outputs = end_model_outputs(posterior, &covered, ds, config, iter_seed, Some(tuned.p));
        self.spans.end_model += ns_since(t);
        outputs
    }
}

/// A session driven round by round with every layer call timed.
pub struct TracedSession<'a> {
    session: Session<'a>,
    selector: SeuSelector,
    pipeline: TracedPipeline,
    /// Spans accumulated over this session's rounds.
    pub spans: Spans,
    /// Counters accumulated over this session's rounds.
    pub counters: Counters,
}

impl<'a> TracedSession<'a> {
    /// A fresh session with the default contextualizer, as `NemoSystem::new`.
    pub fn new(ds: &'a Dataset, config: IdpConfig) -> Self {
        Self::from_parts(
            Session::new(ds, config),
            Contextualizer::new(ContextualizerConfig::default()),
        )
    }

    /// Rebuild from a checkpoint as `NemoSystem::restore` does: the session
    /// from its state, a fresh contextualizer seeded with the checkpoint's
    /// warm seeds, and a cold SEU selector.
    pub fn restore(ds: &'a Dataset, ckpt: &SessionCheckpoint) -> Result<Self, RestoreError> {
        let session = Session::restore(ds, ckpt)?;
        let mut ctx = Contextualizer::new(ContextualizerConfig::default());
        ctx.set_warm_seeds(ckpt.warm_seeds.clone());
        Ok(Self::from_parts(session, ctx))
    }

    fn from_parts(session: Session<'a>, ctx: Contextualizer) -> Self {
        Self {
            session,
            selector: SeuSelector::new(),
            pipeline: TracedPipeline::new(ctx),
            spans: Spans::default(),
            counters: Counters::default(),
        }
    }

    /// The state a `NemoSystem` checkpoint of this session would hold.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        let mut ckpt = self.session.checkpoint();
        ckpt.warm_seeds = self.pipeline.ctx.warm_seeds().to_vec();
        ckpt
    }

    /// The underlying session.
    pub fn session(&self) -> &Session<'a> {
        &self.session
    }

    /// One round of the SEU engine's protocol, with spans and counters.
    pub fn round(&mut self, user: &mut dyn User) -> Result<StepRecord, SessionError> {
        let before = snapshot(&self.session, &self.pipeline.ctx);
        self.pipeline.spans = LearnSpans::default();
        let start = Instant::now();
        let iteration = self.session.iteration();
        let selected = self.session.select_with(&mut self.selector)?;
        self.spans.select += ns_since(start);
        let new_lfs = match selected {
            Some(x) => {
                let t = Instant::now();
                let lfs = self.session.develop(x, user);
                self.spans.develop += ns_since(t);
                let t = Instant::now();
                self.session.submit(lfs.clone(), &mut self.pipeline)?;
                self.spans.submit += ns_since(t);
                lfs
            }
            None => {
                self.session.advance_frozen()?;
                Vec::new()
            }
        };
        self.spans.round += ns_since(start);
        self.spans.rounds += 1;
        let learn = self.pipeline.spans;
        self.spans.register += learn.register;
        self.spans.tune_p += learn.tune_p;
        self.spans.predict += learn.predict;
        self.spans.end_model += learn.end_model;

        let after = snapshot(&self.session, &self.pipeline.ctx);
        self.counters.add(&Counters {
            rounds: 1,
            new_lfs: new_lfs.len() as u64,
            lfs_registered: after.lfs_registered - before.lfs_registered,
            tune_fits: after.tune_fits - before.tune_fits,
            tune_predicts: after.tune_predicts - before.tune_predicts,
            refine_hits: after.refine_hits - before.refine_hits,
            refine_refilters: after.refine_refilters - before.refine_refilters,
            delta_syncs: after.delta_syncs - before.delta_syncs,
            rebuild_syncs: after.rebuild_syncs - before.rebuild_syncs,
            delta_slots: after.delta_slots - before.delta_slots,
        });
        Ok(StepRecord { iteration, selected, new_lfs })
    }
}

/// Calls and time spent in the persist codec by a [`TimedStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Checkpoints saved (encoded).
    pub saves: u64,
    /// Checkpoints loaded (decoded and validated).
    pub loads: u64,
    /// Nanoseconds in `save`.
    pub save_ns: u64,
    /// Nanoseconds in `load`.
    pub load_ns: u64,
    /// Sum over saves of the mean parked checkpoint size in bytes.
    pub bytes: u64,
}

/// A [`CheckpointStore`] that times the `EncodedCheckpointStore` it wraps.
pub struct TimedStore {
    inner: EncodedCheckpointStore,
    parked: BTreeSet<u64>,
    stats: Arc<Mutex<StoreStats>>,
}

impl TimedStore {
    /// A store and the handle its statistics can be read through after
    /// the pool that owns it is gone.
    pub fn new() -> (Self, Arc<Mutex<StoreStats>>) {
        let stats = Arc::new(Mutex::new(StoreStats::default()));
        let store = Self { inner: EncodedCheckpointStore::new(), parked: BTreeSet::new(), stats };
        let handle = Arc::clone(&store.stats);
        (store, handle)
    }

    fn record(&self, f: impl FnOnce(&mut StoreStats)) {
        f(&mut self.stats.lock().expect("store stats lock is never held across a panic"));
    }
}

impl CheckpointStore for TimedStore {
    fn save(&mut self, id: u64, ckpt: &SessionCheckpoint) -> Result<(), String> {
        let t = Instant::now();
        let result = self.inner.save(id, ckpt);
        let ns = ns_since(t);
        self.parked.insert(id);
        let mean_bytes = self.inner.stored_bytes() / self.parked.len();
        self.record(|s| {
            s.saves += 1;
            s.save_ns += ns;
            s.bytes += mean_bytes as u64;
        });
        result
    }

    fn load(&mut self, id: u64) -> Result<SessionCheckpoint, String> {
        let t = Instant::now();
        let result = self.inner.load(id);
        let ns = ns_since(t);
        self.record(|s| {
            s.loads += 1;
            s.load_ns += ns;
        });
        result
    }

    fn remove(&mut self, id: u64) -> Result<(), String> {
        self.parked.remove(&id);
        self.inner.remove(id)
    }
}
