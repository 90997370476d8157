//! Multi-tenant session service: hundreds of interactive sessions over
//! one shared artifact set.
//!
//! The paper's serving model (Sec. 3) is many users, each running their
//! own select → develop → learn loop against the *same* immutable example
//! pool. [`SessionPool`] is that deployment shape: it borrows one
//! [`SharedArtifacts`] (typically held behind an `Arc`) and multiplexes
//! any number of per-user sessions over it, keeping at most
//! [`PoolConfig::max_resident`] of them materialized in memory. The rest
//! live as checkpoints in a pluggable [`CheckpointStore`] — the in-memory
//! [`MemoryCheckpointStore`] here, or the durable file-backed store in
//! `nemo-persist` — and are restored transparently when their next round
//! arrives.
//!
//! # Scheduling
//!
//! [`SessionPool::run_round`] serves one session; [`SessionPool::run_rounds`]
//! serves a batch, fanning the rounds out over `nemo_sparse::parallel`
//! workers with work stealing (rounds are coarse and heterogeneous — a
//! cold session pays restore + full re-registration, a warm one only an
//! incremental update — so dynamic scheduling beats fixed partitioning).
//! Batches are processed in waves of `max_resident.max(workers)` jobs so
//! the transient memory footprint stays bounded by the pool's capacity,
//! not the batch size. These waves are the library's only parallel
//! section: each round itself runs serially on its worker.
//!
//! # Determinism
//!
//! A session's trajectory is a pure function of its own state: rounds of
//! different sessions share nothing mutable, eviction/restore is
//! bit-identical (`tests/session_checkpoint.rs`), and the work-stealing
//! scheduler only changes *when* a round runs, never *what* it computes.
//! Every pooled session therefore reproduces its standalone
//! [`NemoSystem`] run exactly — same selections, same percentiles, same
//! posterior bits — under any worker count and any eviction pattern
//! (`tests/session_pool_differential.rs`).

// lint: allow(determinism/hash-collections): pool maps are keyed stores
// and membership sets; iteration order is never observed.
use std::collections::{HashMap, HashSet};
use std::fmt;
// lint: allow(determinism/wall-clock): round_ns telemetry only; eviction
// uses the logical `clock: u64`, never wall time.
use std::time::Instant;

use crate::artifacts::SharedArtifacts;
use crate::checkpoint::SessionCheckpoint;
use crate::config::IdpConfig;
use crate::error::{RestoreError, SessionError};
use crate::idp::StepRecord;
use crate::oracle::User;
use crate::system::NemoSystem;
use nemo_sparse::parallel;

/// Opaque handle of a session admitted to a [`SessionPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw id, as used for [`CheckpointStore`] keys.
    pub fn raw(self) -> u64 {
        self.0
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session {}", self.0)
    }
}

/// Where evicted sessions park their checkpoints.
///
/// Implementations are keyed by [`SessionId::raw`]. The pool guarantees
/// `load(id)` is only called for ids it previously `save(id, _)`-ed, and
/// treats every method as fallible — a failing store never corrupts pool
/// state (a failed eviction leaves the session resident, a failed load
/// leaves it evicted).
pub trait CheckpointStore: Send {
    /// Persist `ckpt` under `id`, replacing any previous snapshot.
    fn save(&mut self, id: u64, ckpt: &SessionCheckpoint) -> Result<(), String>;
    /// Fetch the snapshot saved under `id`.
    fn load(&mut self, id: u64) -> Result<SessionCheckpoint, String>;
    /// Drop the snapshot saved under `id`, if any.
    fn remove(&mut self, id: u64) -> Result<(), String>;
}

/// The default [`CheckpointStore`]: checkpoints held in process memory.
///
/// Suited to pools whose eviction exists to bound *working* memory
/// (resident sessions carry rebuilt caches and aggregates; a checkpoint
/// is just the compact authoritative state). For durability across
/// processes use `nemo_persist::FileCheckpointStore`.
#[derive(Debug, Default)]
pub struct MemoryCheckpointStore {
    // lint: allow(determinism/hash-collections): keyed store, accessed
    // only by session id; never iterated.
    slots: HashMap<u64, SessionCheckpoint>,
}

impl MemoryCheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn save(&mut self, id: u64, ckpt: &SessionCheckpoint) -> Result<(), String> {
        self.slots.insert(id, ckpt.clone());
        Ok(())
    }

    fn load(&mut self, id: u64) -> Result<SessionCheckpoint, String> {
        self.slots.get(&id).cloned().ok_or_else(|| format!("no checkpoint stored for id {id}"))
    }

    fn remove(&mut self, id: u64) -> Result<(), String> {
        self.slots.remove(&id);
        Ok(())
    }
}

/// Knobs of a [`SessionPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum number of sessions kept materialized in memory; beyond it
    /// the least-recently-used session is checkpointed to the store.
    /// Values below 1 are treated as 1. Default: 64.
    pub max_resident: usize,
    /// Worker threads for [`SessionPool::run_rounds`], the library's only
    /// multi-threaded code (a round runs serially on one worker). `None`
    /// (the default) takes [`parallel::num_threads`]: the `NEMO_THREADS`
    /// environment variable if set, else the machine's available
    /// parallelism. `Some(n)` pins the count, which determinism tests use
    /// to compare fixed worker budgets without touching the process
    /// environment.
    pub workers: Option<usize>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self { max_resident: 64, workers: None }
    }
}

/// Counters describing a pool's lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Sessions ever admitted.
    pub admitted: u64,
    /// Checkpoint-on-evict events (capacity pressure or explicit).
    pub evictions: u64,
    /// Restores of evicted sessions back to residency.
    pub restores: u64,
    /// Interactive rounds served.
    pub rounds: u64,
}

/// One unit of work for [`SessionPool::run_rounds`]: which session to
/// advance and the user answering its suggestion.
pub struct RoundJob<'u> {
    /// The session to run one round of.
    pub id: SessionId,
    /// The (simulated) user developing LFs for this round. `Send` because
    /// the round may execute on a worker thread.
    pub user: &'u mut (dyn User + Send),
}

impl<'u> RoundJob<'u> {
    /// Pair a session with its user.
    pub fn new(id: SessionId, user: &'u mut (dyn User + Send)) -> Self {
        Self { id, user }
    }
}

/// What one scheduled round did.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// The session the round belonged to.
    pub id: SessionId,
    /// The round's interactive record (iteration, selection, new LFs).
    pub record: StepRecord,
    /// Wall-clock latency of the round as the tenant experienced it,
    /// including the restore for sessions that were evicted.
    pub round_ns: u64,
    /// Whether this round had to restore the session from the store.
    pub restored: bool,
}

/// A pool operation that could not be served.
#[derive(Debug)]
pub enum PoolError {
    /// The id was never issued by this pool, or its session was closed.
    UnknownSession {
        /// The offending raw id.
        id: u64,
    },
    /// A [`SessionPool::run_rounds`] batch names the same session twice;
    /// a session cannot run two rounds of one batch concurrently.
    DuplicateJob {
        /// The raw id that appeared more than once.
        id: u64,
    },
    /// The session's interactive protocol reported an error.
    Session {
        /// The raw id of the session.
        id: u64,
        /// The underlying protocol error.
        source: SessionError,
    },
    /// A stored checkpoint failed validation on restore.
    Restore {
        /// The raw id of the session.
        id: u64,
        /// The underlying validation error.
        source: RestoreError,
    },
    /// The [`CheckpointStore`] failed.
    Store {
        /// The raw id of the session.
        id: u64,
        /// Which store operation failed (`"save"`, `"load"`, `"remove"`).
        op: &'static str,
        /// The store's description of the failure.
        reason: String,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::UnknownSession { id } => {
                write!(f, "session {id} is unknown to this pool (never admitted, or closed)")
            }
            PoolError::DuplicateJob { id } => {
                write!(f, "batch names session {id} more than once")
            }
            PoolError::Session { id, source } => {
                write!(f, "session {id}: {source}")
            }
            PoolError::Restore { id, source } => {
                write!(f, "session {id} failed to restore: {source}")
            }
            PoolError::Store { id, op, reason } => {
                write!(f, "checkpoint store failed to {op} session {id}: {reason}")
            }
        }
    }
}

impl std::error::Error for PoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolError::Session { source, .. } => Some(source),
            PoolError::Restore { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Residency state of one admitted session. The live system is boxed so
/// an evicted or closed slot costs one pointer, not a `NemoSystem`-sized
/// hole in the slot table.
enum Slot<'a> {
    /// Materialized: live system state, ready to serve a round.
    Resident {
        system: Box<NemoSystem<'a>>,
        /// LRU clock stamp of the last access.
        touch: u64,
    },
    /// Checkpointed to the store; restored on the next access.
    Evicted,
}

/// A multi-tenant scheduler of interactive sessions over one shared
/// artifact set.
///
/// Admission hands out [`SessionId`]s; rounds are served one at a time
/// ([`SessionPool::run_round`]) or as work-stealing batches
/// ([`SessionPool::run_rounds`]). When more than
/// [`PoolConfig::max_resident`] sessions are materialized, the
/// least-recently-used one is checkpointed to the [`CheckpointStore`] and
/// transparently restored on its next round — with no effect on its
/// trajectory.
///
/// ```
/// use std::sync::Arc;
/// use nemo_core::pool::{PoolConfig, SessionPool};
/// use nemo_core::{IdpConfig, SharedArtifacts, SimulatedUser};
/// use nemo_data::catalog::toy_text;
///
/// let artifacts = Arc::new(SharedArtifacts::new(toy_text(1)));
/// // Keep at most 2 of the 4 sessions materialized at a time.
/// let config = PoolConfig { max_resident: 2, ..Default::default() };
/// let mut pool = SessionPool::new(&artifacts, config);
///
/// let ids: Vec<_> = (0..4)
///     .map(|i| {
///         let cfg = IdpConfig { n_iterations: 4, seed: 40 + i, ..Default::default() };
///         pool.admit(cfg).unwrap()
///     })
///     .collect();
///
/// // Interleave rounds; evicted sessions restore transparently.
/// let mut user = SimulatedUser::default();
/// for _ in 0..2 {
///     for &id in &ids {
///         pool.run_round(id, &mut user).unwrap();
///     }
/// }
/// assert!(pool.stats().evictions > 0);
/// for &id in &ids {
///     assert_eq!(pool.with_session(id, |nemo| nemo.iteration()).unwrap(), 2);
/// }
/// ```
pub struct SessionPool<'a> {
    artifacts: &'a SharedArtifacts,
    config: PoolConfig,
    /// One entry per ever-admitted session; `None` marks a closed one.
    slots: Vec<Option<Slot<'a>>>,
    store: Box<dyn CheckpointStore>,
    clock: u64,
    stats: PoolStats,
}

impl<'a> SessionPool<'a> {
    /// A pool over `artifacts` with the in-memory checkpoint store.
    pub fn new(artifacts: &'a SharedArtifacts, config: PoolConfig) -> Self {
        Self::with_store(artifacts, config, Box::new(MemoryCheckpointStore::new()))
    }

    /// A pool with an explicit [`CheckpointStore`] (e.g. the durable
    /// `nemo_persist::FileCheckpointStore`).
    pub fn with_store(
        artifacts: &'a SharedArtifacts,
        mut config: PoolConfig,
        store: Box<dyn CheckpointStore>,
    ) -> Self {
        config.max_resident = config.max_resident.max(1);
        Self { artifacts, config, slots: Vec::new(), store, clock: 0, stats: PoolStats::default() }
    }

    /// Admit a new session with its own per-user `config`, evicting the
    /// least-recently-used resident first if the pool is at capacity.
    ///
    /// # Errors
    ///
    /// [`PoolError::Store`] if making room requires an eviction and the
    /// store rejects the checkpoint.
    pub fn admit(&mut self, config: IdpConfig) -> Result<SessionId, PoolError> {
        self.make_room(1)?;
        let system = Box::new(NemoSystem::new(self.artifacts.dataset(), config));
        let id = SessionId(self.slots.len() as u64);
        self.clock += 1;
        self.slots.push(Some(Slot::Resident { system, touch: self.clock }));
        self.stats.admitted += 1;
        Ok(id)
    }

    /// Serve one interactive round of session `id`, restoring it from the
    /// store first if it was evicted.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownSession`] for an id this pool never issued (or
    /// already closed); [`PoolError::Store`] / [`PoolError::Restore`] if
    /// an eviction or restore on the way fails; [`PoolError::Session`] if
    /// the session's protocol state rejects the round.
    pub fn run_round(
        &mut self,
        id: SessionId,
        user: &mut dyn User,
    ) -> Result<StepRecord, PoolError> {
        self.ensure_resident(id)?;
        self.clock += 1;
        let clock = self.clock;
        // invariant: ensure_resident left the slot materialized.
        let Some(Slot::Resident { system, touch }) = self.slots[id.index()].as_mut() else {
            unreachable!("ensure_resident materializes the slot")
        };
        *touch = clock;
        let record = system
            .step_with_user(user)
            .map_err(|source| PoolError::Session { id: id.raw(), source })?;
        self.stats.rounds += 1;
        Ok(record)
    }

    /// Serve one round for every job in the batch, fanning the rounds out
    /// over work-stealing workers (see the module docs for the wave
    /// discipline bounding transient memory). Outcomes are returned in
    /// job order regardless of scheduling.
    ///
    /// # Errors
    ///
    /// The batch is validated up front: [`PoolError::UnknownSession`] or
    /// [`PoolError::DuplicateJob`] reject it before any round runs. A
    /// failure mid-batch ([`PoolError::Store`], [`PoolError::Restore`],
    /// [`PoolError::Session`]) reports the first error; the pool itself
    /// stays consistent — every session remains either resident or safely
    /// checkpointed — but the batch's outcomes are discarded.
    pub fn run_rounds(
        &mut self,
        jobs: &mut [RoundJob<'_>],
    ) -> Result<Vec<RoundOutcome>, PoolError> {
        // lint: allow(determinism/hash-collections): membership-only
        // duplicate check; never iterated.
        let mut seen = HashSet::new();
        for job in jobs.iter() {
            self.check_open(job.id)?;
            if !seen.insert(job.id) {
                return Err(PoolError::DuplicateJob { id: job.id.raw() });
            }
        }
        let workers = self.workers();
        let wave_len = self.config.max_resident.max(workers).max(1);
        let mut outcomes = Vec::with_capacity(jobs.len());
        let mut start = 0;
        while start < jobs.len() {
            let end = (start + wave_len).min(jobs.len());
            let wave_outcomes = self.run_wave(&mut jobs[start..end], workers)?;
            outcomes.extend(wave_outcomes);
            start = end;
        }
        Ok(outcomes)
    }

    /// Run one wave of at most `max_resident.max(workers)` jobs.
    fn run_wave(
        &mut self,
        jobs: &mut [RoundJob<'_>],
        workers: usize,
    ) -> Result<Vec<RoundOutcome>, PoolError> {
        // Pass 1: fetch checkpoints for the wave's evicted members. This
        // can fail without having touched any slot.
        let mut staged: Vec<Option<SessionCheckpoint>> = Vec::with_capacity(jobs.len());
        for job in jobs.iter() {
            match self.slots[job.id.index()] {
                Some(Slot::Resident { .. }) => staged.push(None),
                Some(Slot::Evicted) => {
                    let ckpt = self.store.load(job.id.raw()).map_err(|reason| {
                        PoolError::Store { id: job.id.raw(), op: "load", reason }
                    })?;
                    staged.push(Some(ckpt));
                }
                // invariant: run_rounds validated every id as open.
                None => unreachable!("batch ids validated as open"),
            }
        }

        // Pass 2 (infallible): move each job's session state into a work
        // cell, leaving its slot empty while the round is in flight.
        let mut cells: Vec<WorkCell<'a, '_>> = jobs
            .iter_mut()
            .zip(staged)
            .map(|(job, ckpt)| {
                // invariant: validated open above.
                let state = match self.slots[job.id.index()].take().expect("slot open") {
                    Slot::Resident { system, .. } => CellState::Live(system),
                    Slot::Evicted => {
                        // invariant: pass 1 staged a checkpoint for every
                        // evicted job before this infallible pass began.
                        CellState::Stored(Box::new(ckpt.expect("pass 1 staged a checkpoint")))
                    }
                };
                WorkCell {
                    id: job.id,
                    user: &mut *job.user,
                    restored: matches!(state, CellState::Stored(_)),
                    state,
                    outcome: None,
                    round_ns: 0,
                    error: None,
                }
            })
            .collect();

        // The rounds themselves: independent per-session work, dynamically
        // scheduled. Each cell is touched by exactly one worker.
        let artifacts = self.artifacts;
        parallel::par_for_each_stealing_with(&mut cells, workers, |_, cell| {
            // lint: allow(determinism/wall-clock): round_ns telemetry
            // only; it never feeds a result-affecting path.
            let timer = Instant::now();
            let mut system = match std::mem::replace(&mut cell.state, CellState::Failed) {
                CellState::Live(system) => system,
                CellState::Stored(ckpt) => match NemoSystem::restore(artifacts.dataset(), &ckpt) {
                    Ok(system) => Box::new(system),
                    Err(source) => {
                        cell.error = Some(PoolError::Restore { id: cell.id.raw(), source });
                        return;
                    }
                },
                // invariant: cells start Live or Stored and are visited once.
                CellState::Failed => unreachable!("cell visited twice"),
            };
            match system.step_with_user(cell.user) {
                Ok(record) => cell.outcome = Some(record),
                Err(source) => cell.error = Some(PoolError::Session { id: cell.id.raw(), source }),
            }
            cell.round_ns = timer.elapsed().as_nanos() as u64;
            cell.state = CellState::Live(system);
        });

        // Reinsert every session before reporting anything, so an error
        // cannot leave slots empty.
        let mut outcomes = Vec::with_capacity(cells.len());
        let mut first_error = None;
        for cell in cells {
            let idx = cell.id.index();
            match cell.state {
                CellState::Live(system) => {
                    self.clock += 1;
                    if cell.restored {
                        self.stats.restores += 1;
                    }
                    self.slots[idx] = Some(Slot::Resident { system, touch: self.clock });
                }
                // Restore failed: the checkpoint is still in the store.
                CellState::Stored(_) | CellState::Failed => {
                    self.slots[idx] = Some(Slot::Evicted);
                }
            }
            match (cell.outcome, cell.error) {
                (Some(record), None) => {
                    self.stats.rounds += 1;
                    outcomes.push(RoundOutcome {
                        id: cell.id,
                        record,
                        round_ns: cell.round_ns,
                        restored: cell.restored,
                    });
                }
                (_, Some(error)) => {
                    if first_error.is_none() {
                        first_error = Some(error);
                    }
                }
                // invariant: a visited cell has an outcome or an error.
                (None, None) => unreachable!("cell finished without outcome or error"),
            }
        }
        // The wave may have materialized more sessions than capacity;
        // shed the least-recently-used surplus.
        self.make_room(0)?;
        match first_error {
            Some(error) => Err(error),
            None => Ok(outcomes),
        }
    }

    /// Checkpoint session `id` to the store and drop its materialized
    /// state. A no-op for sessions already evicted.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownSession`]; [`PoolError::Store`] if the store
    /// rejects the checkpoint (the session then stays resident).
    pub fn evict(&mut self, id: SessionId) -> Result<(), PoolError> {
        self.check_open(id)?;
        self.evict_index(id.index())
    }

    /// Read session `id`'s live state (restoring it first if needed).
    ///
    /// # Errors
    ///
    /// As for [`SessionPool::run_round`], minus the protocol errors.
    pub fn with_session<R>(
        &mut self,
        id: SessionId,
        f: impl FnOnce(&NemoSystem<'a>) -> R,
    ) -> Result<R, PoolError> {
        self.ensure_resident(id)?;
        self.clock += 1;
        let clock = self.clock;
        // invariant: ensure_resident left the slot materialized.
        let Some(Slot::Resident { system, touch }) = self.slots[id.index()].as_mut() else {
            unreachable!("ensure_resident materializes the slot")
        };
        *touch = clock;
        Ok(f(system))
    }

    /// A point-in-time checkpoint of session `id`, wherever it resides.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownSession`]; [`PoolError::Store`] if the session
    /// is evicted and the store cannot produce its checkpoint.
    pub fn checkpoint_of(&mut self, id: SessionId) -> Result<SessionCheckpoint, PoolError> {
        self.check_open(id)?;
        match &self.slots[id.index()] {
            Some(Slot::Resident { system, .. }) => Ok(system.checkpoint()),
            Some(Slot::Evicted) => self.store.load(id.raw()).map_err(|reason| PoolError::Store {
                id: id.raw(),
                op: "load",
                reason,
            }),
            // invariant: check_open guarantees the slot exists.
            None => unreachable!("checked open"),
        }
    }

    /// Retire session `id` from the pool, returning its final checkpoint
    /// (so the caller can persist or hand it elsewhere). The id becomes
    /// permanently unknown.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownSession`]; [`PoolError::Store`] if the session
    /// was evicted and its checkpoint cannot be loaded (the session stays
    /// open in that case).
    pub fn close(&mut self, id: SessionId) -> Result<SessionCheckpoint, PoolError> {
        self.check_open(id)?;
        let idx = id.index();
        let ckpt = match &self.slots[idx] {
            Some(Slot::Resident { system, .. }) => system.checkpoint(),
            Some(Slot::Evicted) => self
                .store
                .load(id.raw())
                .map_err(|reason| PoolError::Store { id: id.raw(), op: "load", reason })?,
            // invariant: check_open guarantees the slot exists.
            None => unreachable!("checked open"),
        };
        self.slots[idx] = None;
        // Best-effort: a store that cannot forget a closed session is not
        // an error the caller can act on.
        let _ = self.store.remove(id.raw());
        Ok(ckpt)
    }

    /// Whether session `id` is currently materialized in memory.
    pub fn is_resident(&self, id: SessionId) -> bool {
        matches!(self.slots.get(id.index()), Some(Some(Slot::Resident { .. })))
    }

    /// Number of open (admitted, not closed) sessions.
    pub fn session_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Number of sessions currently materialized in memory.
    pub fn resident_count(&self) -> usize {
        self.slots.iter().flatten().filter(|s| matches!(s, Slot::Resident { .. })).count()
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    fn workers(&self) -> usize {
        self.config.workers.unwrap_or_else(parallel::num_threads)
    }

    fn check_open(&self, id: SessionId) -> Result<(), PoolError> {
        match self.slots.get(id.index()) {
            Some(Some(_)) => Ok(()),
            _ => Err(PoolError::UnknownSession { id: id.raw() }),
        }
    }

    /// Evict least-recently-used residents until `incoming` more sessions
    /// fit within [`PoolConfig::max_resident`].
    fn make_room(&mut self, incoming: usize) -> Result<(), PoolError> {
        while self.resident_count() + incoming > self.config.max_resident {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| match slot {
                    Some(Slot::Resident { touch, .. }) => Some((i, *touch)),
                    _ => None,
                })
                .min_by_key(|&(_, touch)| touch);
            match victim {
                Some((idx, _)) => self.evict_index(idx)?,
                None => break,
            }
        }
        Ok(())
    }

    fn evict_index(&mut self, idx: usize) -> Result<(), PoolError> {
        if let Some(Slot::Resident { system, .. }) = &self.slots[idx] {
            let ckpt = system.checkpoint();
            // Save first: if the store fails, the session stays resident.
            self.store.save(idx as u64, &ckpt).map_err(|reason| PoolError::Store {
                id: idx as u64,
                op: "save",
                reason,
            })?;
            self.slots[idx] = Some(Slot::Evicted);
            self.stats.evictions += 1;
        }
        Ok(())
    }

    /// Materialize session `id` if it is evicted.
    fn ensure_resident(&mut self, id: SessionId) -> Result<(), PoolError> {
        self.check_open(id)?;
        if self.is_resident(id) {
            return Ok(());
        }
        self.make_room(1)?;
        let ckpt = self.store.load(id.raw()).map_err(|reason| PoolError::Store {
            id: id.raw(),
            op: "load",
            reason,
        })?;
        let system = NemoSystem::restore(self.artifacts.dataset(), &ckpt)
            .map(Box::new)
            .map_err(|source| PoolError::Restore { id: id.raw(), source })?;
        self.clock += 1;
        self.slots[id.index()] = Some(Slot::Resident { system, touch: self.clock });
        self.stats.restores += 1;
        Ok(())
    }
}

/// In-flight state of one batch job.
struct WorkCell<'a, 'u> {
    id: SessionId,
    user: &'u mut (dyn User + Send),
    state: CellState<'a>,
    restored: bool,
    outcome: Option<StepRecord>,
    round_ns: u64,
    error: Option<PoolError>,
}

enum CellState<'a> {
    Live(Box<NemoSystem<'a>>),
    Stored(Box<SessionCheckpoint>),
    Failed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SimulatedUser;
    use nemo_data::catalog::toy_text;

    fn idp(n: usize, seed: u64) -> IdpConfig {
        IdpConfig { n_iterations: n, eval_every: 2, seed, ..Default::default() }
    }

    fn artifacts() -> SharedArtifacts {
        SharedArtifacts::new(toy_text(1))
    }

    /// Standalone reference trajectory: selections then final posterior.
    fn standalone(
        arts: &SharedArtifacts,
        cfg: IdpConfig,
        rounds: usize,
    ) -> (Vec<Option<usize>>, Vec<u64>) {
        let mut nemo = NemoSystem::new(arts.dataset(), cfg);
        let mut user = SimulatedUser::default();
        let mut selections = Vec::new();
        for _ in 0..rounds {
            selections.push(nemo.step_with_user(&mut user).unwrap().selected);
        }
        let bits =
            nemo.outputs().train_posterior.p_pos_slice().iter().map(|p| p.to_bits()).collect();
        (selections, bits)
    }

    #[test]
    fn pooled_sessions_match_standalone_under_churn() {
        let arts = artifacts();
        // Capacity 1 forces an evict/restore between every pair of rounds.
        let config = PoolConfig { max_resident: 1, workers: Some(1) };
        let mut pool = SessionPool::new(&arts, config);
        let cfgs: Vec<IdpConfig> = (0..3).map(|i| idp(6, 100 + i)).collect();
        let ids: Vec<SessionId> = cfgs.iter().map(|c| pool.admit(c.clone()).unwrap()).collect();

        let mut users: Vec<SimulatedUser> = ids.iter().map(|_| SimulatedUser::default()).collect();
        let mut selections: Vec<Vec<Option<usize>>> = vec![Vec::new(); ids.len()];
        for _round in 0..4 {
            for (k, &id) in ids.iter().enumerate() {
                let rec = pool.run_round(id, &mut users[k]).unwrap();
                selections[k].push(rec.selected);
            }
        }
        assert!(pool.stats().evictions >= 8, "capacity 1 must thrash: {:?}", pool.stats());
        for (k, cfg) in cfgs.iter().enumerate() {
            let (want_sel, want_bits) = standalone(&arts, cfg.clone(), 4);
            assert_eq!(selections[k], want_sel, "session {k} selections diverged");
            let got_bits: Vec<u64> = pool
                .with_session(ids[k], |nemo| {
                    nemo.outputs()
                        .train_posterior
                        .p_pos_slice()
                        .iter()
                        .map(|p| p.to_bits())
                        .collect()
                })
                .unwrap();
            assert_eq!(got_bits, want_bits, "session {k} posterior diverged");
        }
    }

    #[test]
    fn batch_rounds_match_serial_rounds() {
        let arts = artifacts();
        let mk_pool = |workers: usize| {
            let config = PoolConfig { max_resident: 2, workers: Some(workers) };
            SessionPool::new(&arts, config)
        };

        let run = |mut pool: SessionPool<'_>, batched: bool| -> Vec<Vec<Option<usize>>> {
            let ids: Vec<SessionId> =
                (0..4).map(|i| pool.admit(idp(6, 300 + i)).unwrap()).collect();
            let mut users: Vec<SimulatedUser> =
                ids.iter().map(|_| SimulatedUser::default()).collect();
            let mut selections: Vec<Vec<Option<usize>>> = vec![Vec::new(); ids.len()];
            for _round in 0..3 {
                if batched {
                    let mut jobs: Vec<RoundJob<'_>> = ids
                        .iter()
                        .zip(users.iter_mut())
                        .map(|(&id, u)| RoundJob::new(id, u))
                        .collect();
                    let outcomes = pool.run_rounds(&mut jobs).unwrap();
                    assert_eq!(outcomes.len(), ids.len());
                    for (k, outcome) in outcomes.iter().enumerate() {
                        assert_eq!(outcome.id, ids[k], "outcomes must keep job order");
                        selections[k].push(outcome.record.selected);
                    }
                } else {
                    for (k, &id) in ids.iter().enumerate() {
                        selections[k].push(pool.run_round(id, &mut users[k]).unwrap().selected);
                    }
                }
            }
            selections
        };

        let serial = run(mk_pool(1), false);
        for workers in [1usize, 4] {
            assert_eq!(run(mk_pool(workers), true), serial, "workers={workers}");
        }
    }

    #[test]
    fn batch_validation_rejects_bad_jobs() {
        let arts = artifacts();
        let mut pool = SessionPool::new(&arts, PoolConfig::default());
        let id = pool.admit(idp(4, 1)).unwrap();
        let mut u1 = SimulatedUser::default();
        let mut u2 = SimulatedUser::default();
        let mut dup = vec![RoundJob::new(id, &mut u1), RoundJob::new(id, &mut u2)];
        assert!(matches!(pool.run_rounds(&mut dup), Err(PoolError::DuplicateJob { .. })));
        let ghost = SessionId(99);
        let mut unknown = vec![RoundJob::new(ghost, &mut u1)];
        assert!(matches!(pool.run_rounds(&mut unknown), Err(PoolError::UnknownSession { id: 99 })));
        // The failed batches ran no rounds.
        assert_eq!(pool.stats().rounds, 0);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let arts = artifacts();
        let config = PoolConfig { max_resident: 2, workers: Some(1) };
        let mut pool = SessionPool::new(&arts, config);
        let a = pool.admit(idp(4, 1)).unwrap();
        let b = pool.admit(idp(4, 2)).unwrap();
        let mut user = SimulatedUser::default();
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        pool.run_round(a, &mut user).unwrap();
        let c = pool.admit(idp(4, 3)).unwrap();
        assert!(pool.is_resident(a));
        assert!(!pool.is_resident(b));
        assert!(pool.is_resident(c));
        assert_eq!(pool.resident_count(), 2);
        assert_eq!(pool.session_count(), 3);
    }

    #[test]
    fn close_retires_the_id() {
        let arts = artifacts();
        let mut pool = SessionPool::new(&arts, PoolConfig::default());
        let id = pool.admit(idp(4, 9)).unwrap();
        let mut user = SimulatedUser::default();
        pool.run_round(id, &mut user).unwrap();
        let ckpt = pool.close(id).unwrap();
        assert_eq!(ckpt.iteration, 1);
        assert!(matches!(pool.run_round(id, &mut user), Err(PoolError::UnknownSession { .. })));
        assert_eq!(pool.session_count(), 0);
        // New admissions still work and get a fresh id.
        let id2 = pool.admit(idp(4, 10)).unwrap();
        assert_ne!(id, id2);
    }

    #[test]
    fn stats_count_the_lifecycle() {
        let arts = artifacts();
        let config = PoolConfig { max_resident: 1, workers: Some(1) };
        let mut pool = SessionPool::new(&arts, config);
        let a = pool.admit(idp(4, 5)).unwrap();
        let b = pool.admit(idp(4, 6)).unwrap(); // evicts a
        let mut user = SimulatedUser::default();
        pool.run_round(a, &mut user).unwrap(); // restores a, evicts b
        pool.run_round(b, &mut user).unwrap(); // restores b, evicts a
        let stats = pool.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.evictions, 3);
        assert_eq!(stats.restores, 2);
    }

    #[test]
    fn failing_store_keeps_sessions_resident() {
        struct RejectingStore;
        impl CheckpointStore for RejectingStore {
            fn save(&mut self, _: u64, _: &SessionCheckpoint) -> Result<(), String> {
                Err("disk full".into())
            }
            fn load(&mut self, id: u64) -> Result<SessionCheckpoint, String> {
                Err(format!("no checkpoint for {id}"))
            }
            fn remove(&mut self, _: u64) -> Result<(), String> {
                Ok(())
            }
        }
        let arts = artifacts();
        let config = PoolConfig { max_resident: 1, workers: Some(1) };
        let mut pool = SessionPool::with_store(&arts, config, Box::new(RejectingStore));
        let a = pool.admit(idp(4, 1)).unwrap();
        // Admitting a second session needs an eviction, which the store
        // rejects; the first session must remain live and servable.
        assert!(matches!(pool.admit(idp(4, 2)), Err(PoolError::Store { op: "save", .. })));
        assert!(pool.is_resident(a));
        let mut user = SimulatedUser::default();
        pool.run_round(a, &mut user).unwrap();
    }
}
