//! The three workloads, each as a timed run (end-to-end metrics) and a
//! traced run (per-layer metrics).
//!
//! Every workload is a closed loop: one simulated user per session at
//! threshold `t = 0.5`, the default configuration (SEU engine, MeTaL label
//! model, contextualized pipeline), 50 rounds per session with a test
//! evaluation every 5, and the machine's default worker count, except in
//! the timed runs of `catalog-quick` and `pool-churn` (see [`run`]).

use std::collections::BTreeSet;
use std::time::Instant;

use nemo_core::pool::{CheckpointStore, PoolConfig, PoolStats, RoundJob, SessionPool};
use nemo_core::{IdpConfig, NemoSystem, SharedArtifacts, SimulatedUser, StepRecord};
use nemo_data::catalog::{self, DatasetName};
use nemo_data::{Dataset, Profile};
use nemo_lf::{Label, PrimitiveLf};
use nemo_persist::{session_from_bytes, session_to_bytes, EncodedCheckpointStore};

use crate::measure::{
    calibrate, host_speed, median, ms, ns_since, peak_rss_mb, percentile, ratio, Metrics,
};
use crate::trace::{Counters, Spans, StoreStats, TimedStore, TracedSession};

/// Rounds per session (the paper's Sec. 5.1 budget).
pub const ROUNDS: usize = 50;
/// Test evaluation cadence in rounds.
pub const EVAL_EVERY: usize = 5;
/// The simulated user's accuracy threshold.
pub const USER_THRESHOLD: f64 = 0.5;
/// Datasets are fixed across seeds; `--seed` picks the sessions run on them.
pub const DATASET_SEED: u64 = 42;
/// Tenants of the `pool-churn` pool.
const POOL_TENANTS: usize = 16;
/// Resident capacity of the `pool-churn` pool: half the tenants, so the
/// round-robin batches evict and restore on every round.
const POOL_MAX_RESIDENT: usize = 8;
/// Pooled tenants compared with standalone runs per run.
const POOL_TWINS: usize = 2;
/// Untimed rounds run on every dataset before timing starts.
const WARMUP_ROUNDS: usize = 5;
/// Segments a timed run measures at least, whatever its budget, so that
/// the median over segments has a middle.
const MIN_SEGMENTS: usize = 3;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One session per catalog dataset at the quick profile, several seeds.
    CatalogQuick,
    /// Sessions on Amazon at the full profile (above the sharding threshold).
    AmazonFull,
    /// Amazon-quick tenants in a `SessionPool` that evicts every round.
    PoolChurn,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "catalog-quick" => Some(Self::CatalogQuick),
            "amazon-full" => Some(Self::AmazonFull),
            "pool-churn" => Some(Self::PoolChurn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::CatalogQuick => "catalog-quick",
            Self::AmazonFull => "amazon-full",
            Self::PoolChurn => "pool-churn",
        }
    }

    /// The dataset scale profile.
    pub fn profile(self) -> Profile {
        match self {
            Self::AmazonFull => Profile::Full,
            Self::CatalogQuick | Self::PoolChurn => Profile::Quick,
        }
    }

    fn datasets(self) -> Vec<DatasetName> {
        match self {
            Self::CatalogQuick => DatasetName::ALL.to_vec(),
            Self::AmazonFull | Self::PoolChurn => vec![DatasetName::Amazon],
        }
    }

    /// The sessions of one pass, each `(dataset index, session seed)`. A
    /// timed run repeats whole passes, and each pass is one measurement
    /// segment with at least 200 rounds on each dataset, so a p95 has ten
    /// samples beyond it.
    fn pass(self, seed: u64) -> Vec<(usize, u64)> {
        let session_seed = |k: usize| seed.wrapping_mul(1_000).wrapping_add(k as u64);
        match self {
            Self::CatalogQuick => (0..24).map(|k| (k % 6, session_seed(k))).collect(),
            Self::AmazonFull => (0..4).map(|k| (0, session_seed(k))).collect(),
            Self::PoolChurn => (0..POOL_TENANTS).map(|k| (0, session_seed(k))).collect(),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the sessions' inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Rounds attempted.
    pub attempted: u64,
    /// Rounds that returned an error or failed a correctness check.
    pub failed: u64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Median host speed of the timed segments (see [`host_speed`]).
    pub host_speed: f64,
    /// The metrics, in report order.
    pub metrics: Metrics,
    /// Why a check failed, one line each.
    pub problems: Vec<String>,
}

impl Report {
    fn problem(&mut self, msg: String) {
        eprintln!("perfbench: check failed: {msg}");
        self.problems.push(msg);
    }
}

/// The configuration every session runs with.
pub fn idp_config(seed: u64) -> IdpConfig {
    IdpConfig { n_iterations: ROUNDS, eval_every: EVAL_EVERY, seed, ..IdpConfig::default() }
}

fn user() -> SimulatedUser {
    SimulatedUser::with_threshold(USER_THRESHOLD)
}

// ---------------------------------------------------------------- set-up

/// The workload's artifacts, built `reps` times; reports the median
/// set-up time, each scaled by the host speed measured just before it,
/// and the median time inside `catalog::build` as measured.
fn setup(w: Workload, reps: usize, report: &mut Report) -> (Vec<SharedArtifacts>, f64, f64) {
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut fingerprints = Vec::new();
    let mut artifacts = Vec::new();
    for _ in 0..reps.max(1) {
        drop(std::mem::take(&mut artifacts));
        let cal: Vec<u64> = (0..9).map(|_| calibrate()).collect();
        let start = Instant::now();
        let mut build = 0;
        for name in w.datasets() {
            let t = Instant::now();
            let ds = catalog::build(name, w.profile(), DATASET_SEED);
            build += ns_since(t);
            artifacts.push(SharedArtifacts::new(ds));
        }
        setup_s.push(ns_since(start) as f64 / 1e9 * host_speed(&cal));
        build_s.push(build as f64 / 1e9);
        fingerprints.push(artifacts.iter().map(|a| fingerprint(a)).collect::<Vec<_>>());
    }
    if fingerprints.windows(2).any(|w| w[0] != w[1]) {
        report.problem("repeated set-up built different datasets".into());
    }
    (artifacts, median(&setup_s), median(&build_s))
}

/// A cheap digest of a dataset's sizes and labels.
fn fingerprint(ds: &Dataset) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    for split in [&ds.train, &ds.valid, &ds.test] {
        mix(split.n() as u64);
        split.labels.iter().for_each(|l| mix(l.sign() as u64));
    }
    mix(ds.n_primitives as u64);
    mix(ds.train.corpus.total_postings() as u64);
    h
}

// ----------------------------------------------------------- trajectories

/// What one session did, for bit-for-bit comparison: each round's
/// selection and LFs (`None` for a round that errored) and the test
/// score bits at every evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
struct Trajectory {
    rounds: Vec<Option<(Option<usize>, Vec<PrimitiveLf>)>>,
    scores: Vec<Option<u64>>,
}

impl Trajectory {
    fn push(&mut self, record: Option<StepRecord>) {
        self.rounds.push(record.map(|r| (r.selected, r.new_lfs)));
    }

    fn eval_due(&self) -> bool {
        self.rounds.len() % EVAL_EVERY == 0
    }

    /// Mean evaluated test score: the paper's area-under-curve summary.
    fn auc(&self) -> f64 {
        let scores: Vec<f64> = self.scores.iter().flatten().map(|&b| f64::from_bits(b)).collect();
        ratio(scores.iter().sum(), scores.len() as f64)
    }

    /// The evaluation taken after round `r`, if one was due then.
    fn score_after(&self, r: usize) -> Option<Option<u64>> {
        ((r + 1) % EVAL_EVERY == 0).then(|| self.scores.get(r / EVAL_EVERY).copied().flatten())
    }

    /// Rounds that errored, broke the protocol (a repeated selection, a
    /// missing score or one outside `[0, 1]`), or differ from `reference`.
    fn failed_rounds(&self, reference: Option<&Trajectory>) -> u64 {
        let mut seen = BTreeSet::new();
        let mut failed = 0;
        for r in 0..ROUNDS {
            let broken = match self.rounds.get(r) {
                Some(Some((selected, _))) => selected.is_some_and(|x| !seen.insert(x)),
                _ => true,
            };
            let score = self.score_after(r);
            let bad_score = score.is_some_and(|bits| {
                !bits.is_some_and(|b| (0.0..=1.0).contains(&f64::from_bits(b)))
            });
            let differs = reference.is_some_and(|t| {
                t.rounds.get(r) != self.rounds.get(r) || t.score_after(r) != score
            });
            failed += u64::from(broken || bad_score || differs);
        }
        failed
    }
}

/// Run one session through `NemoSystem::step_with_user`, timing each
/// round. Returns the trajectory and the busy time.
fn run_system(ds: &Dataset, seed: u64, rounds: usize, lat: &mut Vec<u64>) -> (Trajectory, u64) {
    let start = Instant::now();
    let mut system = NemoSystem::new(ds, idp_config(seed));
    let mut busy = ns_since(start);
    let mut user = user();
    let mut traj = Trajectory::default();
    for _ in 0..rounds {
        let t = Instant::now();
        let record = system.step_with_user(&mut user);
        let ns = ns_since(t);
        busy += ns;
        lat.push(ns);
        traj.push(record.ok());
        if traj.eval_due() {
            traj.scores.push(Some(system.test_score().to_bits()));
        }
    }
    (traj, busy)
}

/// Run one session through [`TracedSession`], timing each round.
fn run_traced(ds: &Dataset, seed: u64, lat: &mut Vec<u64>) -> (Trajectory, Spans, Counters) {
    let mut session = TracedSession::new(ds, idp_config(seed));
    let mut user = user();
    let mut traj = Trajectory::default();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let record = session.round(&mut user);
        lat.push(ns_since(t));
        traj.push(record.ok());
        if traj.eval_due() {
            traj.scores.push(Some(session.session().test_score().to_bits()));
        }
    }
    (traj, session.spans, session.counters)
}

/// Untimed rounds on every dataset, so lazy set-up and allocator growth
/// are done before timing starts.
fn warm_up(artifacts: &[SharedArtifacts]) {
    for a in artifacts {
        run_system(a, 0, WARMUP_ROUNDS, &mut Vec::new());
    }
}

// ------------------------------------------------- single-session runs

/// One measurement segment of a timed run: a whole pass of sessions, or
/// one pool lifetime.
#[derive(Default)]
struct Segment {
    /// Time spent in the system's calls (`NemoSystem::new` and each round,
    /// or each `run_rounds` batch).
    busy_ns: u64,
    /// Latency of every round.
    lat: Vec<u64>,
    /// Calibration timings taken between the calls.
    cal: Vec<u64>,
}

/// Timed run of `catalog-quick` / `amazon-full`: whole passes over the
/// workload's sessions until the budget is spent.
fn sessions_timed(args: &Args, report: &mut Report) {
    let (artifacts, setup_s, _) = setup(args.workload, 7, report);
    warm_up(&artifacts);
    let pass = args.workload.pass(args.seed);
    let datasets: Vec<usize> =
        pass.iter().flat_map(|&(d, _)| std::iter::repeat(d).take(ROUNDS)).collect();
    let mut reference: Vec<Trajectory> = Vec::new();
    let mut segments = Vec::new();
    let start = Instant::now();
    while segments.len() < MIN_SEGMENTS || start.elapsed().as_secs_f64() < args.seconds {
        let mut seg = Segment::default();
        for (slot, &(d, seed)) in pass.iter().enumerate() {
            seg.cal.extend((0..3).map(|_| calibrate()));
            let (traj, busy_ns) = run_system(&artifacts[d], seed, ROUNDS, &mut seg.lat);
            seg.busy_ns += busy_ns;
            report.attempted += ROUNDS as u64;
            report.failed += traj.failed_rounds(reference.get(slot));
            if reference.len() == slot {
                reference.push(traj);
            }
        }
        segments.push(seg);
    }
    let auc = ratio(reference.iter().map(Trajectory::auc).sum(), reference.len() as f64);
    timed_metrics(report, setup_s, &segments, &datasets, auc);
}

/// Geometric mean over datasets of each dataset's latency percentile `q`
/// in ms; `datasets[k]` is the dataset of round `k`.
fn per_dataset_percentile(lat: &[u64], datasets: &[usize], q: f64) -> f64 {
    let groups: BTreeSet<usize> = datasets.iter().copied().collect();
    let log_sum: f64 = groups
        .iter()
        .map(|&g| {
            let own: Vec<u64> =
                lat.iter().zip(datasets).filter(|&(_, &d)| d == g).map(|(&ns, _)| ns).collect();
            ms(percentile(&own, q)).ln()
        })
        .sum();
    (log_sum / groups.len().max(1) as f64).exp()
}

/// The end-to-end metrics. Each segment's timings are scaled to the
/// reference core by the host speed measured during that segment, and
/// each metric is the median over segments of that segment's figure.
fn timed_metrics(
    report: &mut Report,
    setup_s: f64,
    segments: &[Segment],
    datasets: &[usize],
    auc: f64,
) {
    report.samples = segments.iter().map(|s| s.lat.len()).sum();
    let figures: Vec<[f64; 4]> = segments
        .iter()
        .map(|s| {
            let speed = host_speed(&s.cal);
            let rounds_per_s = ratio(s.lat.len() as f64, s.busy_ns as f64 / 1e9);
            [
                speed,
                rounds_per_s / speed,
                per_dataset_percentile(&s.lat, datasets, 0.50) * speed,
                per_dataset_percentile(&s.lat, datasets, 0.95) * speed,
            ]
        })
        .collect();
    for (k, (s, f)) in segments.iter().zip(&figures).enumerate() {
        eprintln!(
            "segment {k}: {} rounds, host speed {:.3}, scaled {:.3} rounds/s, p50 {:.4} ms, \
             p95 {:.4} ms",
            s.lat.len(),
            f[0],
            f[1],
            f[2],
            f[3]
        );
    }
    let per_segment = |i: usize| median(&figures.iter().map(|f| f[i]).collect::<Vec<_>>());
    report.host_speed = per_segment(0);
    let m = &mut report.metrics;
    m.push("setup_s", setup_s, "s");
    m.push("rounds_per_s", per_segment(1), "1/s");
    m.push("round_ms_p50", per_segment(2), "ms");
    m.push("round_ms_p95", per_segment(3), "ms");
    m.push("test_auc", auc, "score");
    m.push("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// Traced run of `catalog-quick` / `amazon-full`. Each session runs
/// twice, untraced (`NemoSystem`) and traced, and the two must agree bit
/// for bit; `catalog-quick` repeats the whole phase at one worker.
fn sessions_traced(args: &Args, report: &mut Report) {
    let (artifacts, _, build_s) = setup(args.workload, 1, report);
    warm_up(&artifacts);
    // Every session runs twice per pass, at two worker counts on
    // `catalog-quick`; two sessions per dataset keep that within budget.
    let mut pass = args.workload.pass(args.seed);
    pass.truncate(12);
    let mut phases = vec![None];
    if args.workload == Workload::CatalogQuick {
        phases.push(Some("1"));
    }
    let budget = args.seconds / phases.len() as f64;
    let ambient = std::env::var("NEMO_THREADS").ok();

    let mut reference: Vec<(Trajectory, Counters)> = Vec::new();
    let mut layer = Layers::default();
    let mut p50s = Vec::new();
    for threads in &phases {
        if let Some(n) = threads {
            // Safe: the benchmark is single-threaded between phases; the
            // worker threads of the previous phase have all been joined.
            std::env::set_var("NEMO_THREADS", n);
        }
        let (mut traced_lat, mut twin_lat) = (Vec::new(), Vec::new());
        let start = Instant::now();
        for p in 0.. {
            if p >= 2 && start.elapsed().as_secs_f64() >= budget {
                break;
            }
            for (slot, &(d, seed)) in pass.iter().enumerate() {
                let (twin, _) = run_system(&artifacts[d], seed, ROUNDS, &mut twin_lat);
                let (traced, spans, counters) = run_traced(&artifacts[d], seed, &mut traced_lat);
                report.attempted += 2 * ROUNDS as u64;
                let expected = reference.get(slot);
                report.failed += twin.failed_rounds(expected.map(|(t, _)| t));
                report.failed += traced.failed_rounds(Some(&twin));
                match expected {
                    None => reference.push((twin, counters)),
                    Some((_, c)) if *c != counters => report.problem(format!(
                        "work counters of session {slot} did not repeat: {c:?} vs {counters:?}"
                    )),
                    Some(_) => {}
                }
                if threads.is_none() {
                    layer.spans.add(&spans);
                    if p == 0 {
                        layer.counters.add(&counters);
                    }
                }
            }
        }
        if threads.is_none() {
            report.samples = traced_lat.len();
        }
        p50s.push((percentile(&traced_lat, 0.5), percentile(&twin_lat, 0.5)));
    }
    match ambient {
        Some(v) => std::env::set_var("NEMO_THREADS", v),
        None => std::env::remove_var("NEMO_THREADS"),
    }
    layer.build_s = build_s;
    layer.traced_p50 = p50s[0].0;
    layer.untraced_p50 = p50s[0].1;
    if let Some(&(traced, untraced)) = p50s.get(1) {
        layer.traced_p50_1w = traced;
        layer.untraced_p50_1w = untraced;
    }
    layer.emit(&mut report.metrics);
}

// ------------------------------------------------------------ pool runs

/// One pool lifetime: every tenant runs all its rounds, one round per
/// tenant per `run_rounds` batch.
struct PoolEpoch {
    trajectories: Vec<Trajectory>,
    stats: PoolStats,
    busy_ns: u64,
    /// Calibration timings, one before each batch.
    cal: Vec<u64>,
    /// `(round_ns, restored)` per pooled round.
    rounds: Vec<(u64, bool)>,
}

fn pool_epoch(
    artifacts: &SharedArtifacts,
    seeds: &[u64],
    max_resident: usize,
    store: Box<dyn CheckpointStore>,
) -> PoolEpoch {
    let config = PoolConfig { max_resident, ..PoolConfig::default() };
    let mut pool = SessionPool::with_store(artifacts, config, store);
    let mut epoch = PoolEpoch {
        trajectories: vec![Trajectory::default(); seeds.len()],
        stats: PoolStats::default(),
        busy_ns: 0,
        cal: Vec::new(),
        rounds: Vec::new(),
    };
    let ids: Vec<_> = seeds.iter().map(|&s| pool.admit(idp_config(s))).collect();
    let Ok(ids) = ids.into_iter().collect::<Result<Vec<_>, _>>() else {
        eprintln!("perfbench: pool admission failed");
        return epoch;
    };
    let mut users: Vec<SimulatedUser> = seeds.iter().map(|_| user()).collect();
    for _ in 0..ROUNDS {
        let mut jobs: Vec<RoundJob<'_>> =
            ids.iter().zip(users.iter_mut()).map(|(&id, u)| RoundJob::new(id, u)).collect();
        epoch.cal.push(calibrate());
        let t = Instant::now();
        let outcomes = pool.run_rounds(&mut jobs);
        epoch.busy_ns += ns_since(t);
        match outcomes {
            Ok(outcomes) => {
                for (traj, o) in epoch.trajectories.iter_mut().zip(outcomes) {
                    epoch.rounds.push((o.round_ns, o.restored));
                    traj.push(Some(o.record));
                }
            }
            Err(e) => {
                eprintln!("perfbench: pooled batch failed: {e}");
                epoch.trajectories.iter_mut().for_each(|t| t.push(None));
            }
        }
        if epoch.trajectories[0].eval_due() {
            for (traj, &id) in epoch.trajectories.iter_mut().zip(&ids) {
                let score = pool.checkpoint_of(id).ok().and_then(|c| test_score(artifacts, &c));
                traj.scores.push(score.map(f64::to_bits));
            }
        }
    }
    epoch.stats = pool.stats();
    epoch
}

/// The test score a checkpointed session reports.
fn test_score(ds: &Dataset, ckpt: &nemo_core::SessionCheckpoint) -> Option<f64> {
    let pred: Option<Vec<Label>> = ckpt.test_pred.iter().map(|&s| Label::from_sign(s)).collect();
    Some(ds.metric.score(&pred?, &ds.test.labels))
}

fn tenant_seeds(args: &Args) -> Vec<u64> {
    args.workload.pass(args.seed).into_iter().map(|(_, s)| s).collect()
}

/// Tenants compared with standalone runs this run (rotating with the seed).
fn twin_tenants(args: &Args) -> Vec<usize> {
    (0..POOL_TWINS)
        .map(|k| (args.seed as usize + k * POOL_TENANTS / POOL_TWINS) % POOL_TENANTS)
        .collect()
}

/// Timed run of `pool-churn`: whole pool lifetimes until the budget is
/// spent, then standalone twins of a sample of tenants.
fn pool_timed(args: &Args, report: &mut Report) {
    let (artifacts, setup_s, _) = setup(args.workload, 15, report);
    let ds = &artifacts[0];
    warm_up(&artifacts);
    let seeds = tenant_seeds(args);
    let mut first: Option<PoolEpoch> = None;
    let mut segments = Vec::new();
    let start = Instant::now();
    while segments.len() < MIN_SEGMENTS || start.elapsed().as_secs_f64() < args.seconds {
        let epoch =
            pool_epoch(ds, &seeds, POOL_MAX_RESIDENT, Box::new(EncodedCheckpointStore::new()));
        segments.push(Segment {
            busy_ns: epoch.busy_ns,
            lat: epoch.rounds.iter().map(|&(ns, _)| ns).collect(),
            cal: epoch.cal.clone(),
        });
        report.attempted += (seeds.len() * ROUNDS) as u64;
        let reference = first.as_ref();
        for (k, traj) in epoch.trajectories.iter().enumerate() {
            report.failed += traj.failed_rounds(reference.map(|e| &e.trajectories[k]));
        }
        match reference {
            None => first = Some(epoch),
            Some(f) if f.stats != epoch.stats => report.problem(format!(
                "pool counters did not repeat: {:?} vs {:?}",
                f.stats, epoch.stats
            )),
            Some(_) => {}
        }
    }
    // invariant: the loop above runs at least one epoch.
    let first = first.expect("at least one epoch ran");
    if first.stats.restores != first.stats.rounds {
        report.problem(format!(
            "pool-churn must restore on every round: {} restores in {} rounds",
            first.stats.restores, first.stats.rounds
        ));
    }
    for k in twin_tenants(args) {
        let (twin, _) = run_system(ds, seeds[k], ROUNDS, &mut Vec::new());
        report.attempted += ROUNDS as u64;
        report.failed += twin.failed_rounds(Some(&first.trajectories[k]));
    }
    let auc = ratio(first.trajectories.iter().map(Trajectory::auc).sum(), seeds.len() as f64);
    let datasets = vec![0; seeds.len() * ROUNDS];
    timed_metrics(report, setup_s, &segments, &datasets, auc);
}

/// Replay one tenant's churned rounds untraced: before every round the
/// session is checkpointed, encoded, decoded and restored, as an evicted
/// tenant is.
fn replay_system(ds: &Dataset, seed: u64, lat: &mut Vec<u64>) -> Trajectory {
    let mut traj = Trajectory::default();
    let mut user = user();
    let mut bytes = session_to_bytes(&NemoSystem::new(ds, idp_config(seed)).checkpoint());
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let restored = session_from_bytes(&bytes)
            .map_err(|e| e.to_string())
            .and_then(|c| NemoSystem::restore(ds, &c).map_err(|e| e.to_string()));
        let Ok(mut system) = restored else {
            traj.push(None);
            continue;
        };
        let record = system.step_with_user(&mut user);
        bytes = session_to_bytes(&system.checkpoint());
        lat.push(ns_since(t));
        traj.push(record.ok());
        if traj.eval_due() {
            traj.scores.push(Some(system.test_score().to_bits()));
        }
    }
    traj
}

/// [`replay_system`] with every layer call traced.
fn replay_traced(ds: &Dataset, seed: u64, lat: &mut Vec<u64>) -> (Trajectory, Spans, Counters) {
    let mut traj = Trajectory::default();
    let (mut spans, mut counters) = (Spans::default(), Counters::default());
    let mut user = user();
    let mut bytes = session_to_bytes(&TracedSession::new(ds, idp_config(seed)).checkpoint());
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let restored = session_from_bytes(&bytes)
            .map_err(|e| e.to_string())
            .and_then(|c| TracedSession::restore(ds, &c).map_err(|e| e.to_string()));
        let Ok(mut session) = restored else {
            traj.push(None);
            continue;
        };
        let restore_ns = ns_since(t);
        let record = session.round(&mut user);
        let c = Instant::now();
        bytes = session_to_bytes(&session.checkpoint());
        let mut s = session.spans;
        s.checkpoint = ns_since(c);
        s.restore = restore_ns;
        s.round = ns_since(t);
        lat.push(s.round);
        spans.add(&s);
        counters.add(&session.counters);
        traj.push(record.ok());
        if traj.eval_due() {
            traj.scores.push(Some(session.session().test_score().to_bits()));
        }
    }
    (traj, spans, counters)
}

/// Traced run of `pool-churn`: the churning pool over a timed store, the
/// same tenants all resident, then traced replays of sample tenants'
/// churned rounds beside untraced replays.
fn pool_traced(args: &Args, report: &mut Report) {
    let start = Instant::now();
    let (artifacts, _, build_s) = setup(args.workload, 1, report);
    let ds = &artifacts[0];
    warm_up(&artifacts);
    let seeds = tenant_seeds(args);
    let (store, store_stats) = TimedStore::new();
    let churn = pool_epoch(ds, &seeds, POOL_MAX_RESIDENT, Box::new(store));
    let resident = pool_epoch(ds, &seeds, seeds.len(), Box::new(EncodedCheckpointStore::new()));
    report.attempted += 2 * (seeds.len() * ROUNDS) as u64;
    for (churned, warm) in churn.trajectories.iter().zip(&resident.trajectories) {
        report.failed += churned.failed_rounds(None);
        report.failed += warm.failed_rounds(Some(churned));
    }

    let mut layer = Layers::default();
    let mut reference: Vec<Counters> = Vec::new();
    let (mut traced_lat, mut twin_lat) = (Vec::new(), Vec::new());
    for p in 0.. {
        if p >= 2 && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        for (slot, k) in twin_tenants(args).into_iter().enumerate() {
            let twin = replay_system(ds, seeds[k], &mut twin_lat);
            let (traced, spans, counters) = replay_traced(ds, seeds[k], &mut traced_lat);
            report.attempted += 2 * ROUNDS as u64;
            report.failed += twin.failed_rounds(Some(&churn.trajectories[k]));
            report.failed += traced.failed_rounds(Some(&churn.trajectories[k]));
            layer.spans.add(&spans);
            match reference.get(slot) {
                None => {
                    reference.push(counters);
                    layer.counters.add(&counters);
                }
                Some(c) if *c != counters => report.problem(format!(
                    "work counters of tenant {k} did not repeat: {c:?} vs {counters:?}"
                )),
                Some(_) => {}
            }
        }
    }
    report.samples = traced_lat.len();
    layer.build_s = build_s;
    layer.traced_p50 = percentile(&traced_lat, 0.5);
    layer.untraced_p50 = percentile(&twin_lat, 0.5);
    let restored: Vec<u64> = churn.rounds.iter().filter(|r| r.1).map(|r| r.0).collect();
    let warm: Vec<u64> = resident.rounds.iter().filter(|r| !r.1).map(|r| r.0).collect();
    layer.pool = Some(PoolLayer {
        warm_p50: percentile(&warm, 0.5),
        restored_p50: percentile(&restored, 0.5),
        stats: churn.stats,
        store: *store_stats.lock().expect("store stats lock is never held across a panic"),
    });
    layer.emit(&mut report.metrics);
}

// -------------------------------------------------------- per-layer report

/// Pool and persist measurements of the churning pool.
struct PoolLayer {
    warm_p50: u64,
    restored_p50: u64,
    stats: PoolStats,
    store: StoreStats,
}

/// Everything a traced run measures, turned into the per-layer metrics.
#[derive(Default)]
struct Layers {
    spans: Spans,
    counters: Counters,
    build_s: f64,
    traced_p50: u64,
    untraced_p50: u64,
    traced_p50_1w: u64,
    untraced_p50_1w: u64,
    pool: Option<PoolLayer>,
}

impl Layers {
    fn emit(&self, m: &mut Metrics) {
        let s = &self.spans;
        let c = &self.counters;
        let rounds = s.rounds as f64;
        let per_round = |ns: u64| ms(ns) / rounds.max(1.0);
        let share = |ns: f64| ratio(ns, s.round as f64);
        let counted_rounds = c.rounds as f64;
        m.push("seu.select_ms", per_round(s.select), "ms");
        m.push("seu.select_share", share(s.select as f64), "ratio");
        m.push("contextualizer.register_ms", per_round(s.register), "ms");
        m.push("contextualizer.register_share", share(s.register as f64), "ratio");
        m.push(
            "contextualizer.lfs_registered_per_new_lf",
            ratio(c.lfs_registered as f64, c.new_lfs as f64),
            "ratio",
        );
        m.push("contextualizer.tune_p_ms", per_round(s.tune_p), "ms");
        m.push("contextualizer.tune_p_share", share(s.tune_p as f64), "ratio");
        m.push(
            "contextualizer.tune_fits_per_round",
            ratio(c.tune_fits as f64, counted_rounds),
            "count",
        );
        m.push(
            "contextualizer.tune_predicts_per_round",
            ratio(c.tune_predicts as f64, counted_rounds),
            "count",
        );
        m.push(
            "contextualizer.refine_hit_rate",
            ratio(c.refine_hits as f64, (c.refine_hits + c.refine_refilters) as f64),
            "ratio",
        );
        m.push("labelmodel.predict_ms", per_round(s.predict), "ms");
        m.push("labelmodel.predict_share", share(s.predict as f64), "ratio");
        m.push("endmodel.ms", per_round(s.end_model), "ms");
        m.push("endmodel.share", share(s.end_model as f64), "ratio");
        m.push("session.sync_ms", per_round(s.session_sync()), "ms");
        m.push("session.sync_share", share(s.session_sync() as f64), "ratio");
        m.push(
            "session.delta_sync_share",
            ratio(c.delta_syncs as f64, (c.delta_syncs + c.rebuild_syncs) as f64),
            "ratio",
        );
        m.push(
            "session.delta_slots_per_round",
            ratio(c.delta_slots as f64, counted_rounds),
            "count",
        );
        m.push("session.checkpoint_ms", per_round(s.checkpoint), "ms");
        m.push("session.restore_ms", per_round(s.restore), "ms");
        m.push("oracle.develop_ms", per_round(s.develop), "ms");
        m.push("oracle.develop_share", share(s.develop as f64), "ratio");
        m.push("trace.residual_ms", s.residual() as f64 / 1e6 / rounds.max(1.0), "ms");
        m.push("trace.residual_share", share(s.residual() as f64), "ratio");
        m.push("trace.round_ms_p50", ms(self.traced_p50), "ms");
        m.push("trace.untraced_round_ms_p50", ms(self.untraced_p50), "ms");
        m.push("trace.overhead_ms", ms(self.traced_p50) - ms(self.untraced_p50), "ms");
        m.push("trace.round_ms_p50_1worker", ms(self.traced_p50_1w), "ms");
        m.push("trace.untraced_round_ms_p50_1worker", ms(self.untraced_p50_1w), "ms");
        let pool = self.pool.as_ref();
        let stats = pool.map(|p| p.stats).unwrap_or_default();
        let store = pool.map(|p| p.store).unwrap_or_default();
        m.push("pool.warm_round_ms", ms(pool.map_or(0, |p| p.warm_p50)), "ms");
        m.push("pool.restored_round_ms", ms(pool.map_or(0, |p| p.restored_p50)), "ms");
        m.push(
            "pool.restores_per_round",
            ratio(stats.restores as f64, stats.rounds as f64),
            "count",
        );
        m.push(
            "pool.evictions_per_round",
            ratio(stats.evictions as f64, stats.rounds as f64),
            "count",
        );
        m.push("persist.save_ms", ratio(ms(store.save_ns), store.saves as f64), "ms");
        m.push("persist.load_ms", ratio(ms(store.load_ns), store.loads as f64), "ms");
        m.push("persist.checkpoint_bytes", ratio(store.bytes as f64, store.saves as f64), "bytes");
        m.push("data.build_s", self.build_s, "s");
        m.push("counters.rounds", c.rounds as f64, "count");
        m.push("counters.tune_fits", c.tune_fits as f64, "count");
        m.push("counters.tune_predicts", c.tune_predicts as f64, "count");
        m.push("counters.refine_hits", c.refine_hits as f64, "count");
        m.push("counters.refine_refilters", c.refine_refilters as f64, "count");
        m.push("counters.delta_syncs", c.delta_syncs as f64, "count");
        m.push("counters.rebuild_syncs", c.rebuild_syncs as f64, "count");
        m.push("counters.delta_slots", c.delta_slots as f64, "count");
        m.push("counters.evictions", stats.evictions as f64, "count");
        m.push("counters.restores", stats.restores as f64, "count");
    }
}

/// Run the workload in the mode `args` asks for.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    if !args.trace
        && args.workload != Workload::AmazonFull
        && std::env::var("NEMO_THREADS").is_err()
    {
        // One worker, unless the caller sets one. The quick datasets sit
        // below the parallel break-even, and a parallel section or pool wave
        // waits for the slowest of the host's cores, so with a worker on
        // every core these timings follow the host more than the program.
        // `amazon-full` keeps the default: its sharded queries need workers.
        std::env::set_var("NEMO_THREADS", "1");
    }
    match (args.workload, args.trace) {
        (Workload::PoolChurn, false) => pool_timed(args, &mut report),
        (Workload::PoolChurn, true) => pool_traced(args, &mut report),
        (_, false) => sessions_timed(args, &mut report),
        (_, true) => sessions_traced(args, &mut report),
    }
    report.correct = report.problems.is_empty()
        && report.failed == 0
        && report.attempted > 0
        && report.metrics.all_finite();
    report
}
