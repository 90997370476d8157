//! Microbenchmarks of the hot kernels (DESIGN.md §4), harness-free and
//! machine-readable.
//!
//! Two kinds of measurement:
//!
//! - **Kernel timings** — SEU scoring (fast path vs naive reference),
//!   label-model fitting, TF-IDF transformation, distance point-to-all,
//!   and LF application.
//! - **The interactive-loop headline** — a recorded 25-round SEU
//!   trajectory is replayed twice: once rebuilding the per-primitive
//!   aggregates from scratch every round (the pre-`Session` behaviour)
//!   and once delta-syncing a single [`SeuAggregates`] cache (what
//!   `Session` does). Scores are asserted identical; the speedup is the
//!   number the `Session` refactor claims.
//!
//! Results are printed as a table and written to `BENCH_kernel.json` so
//! successive PRs can track the perf trajectory.

use std::sync::Arc;
use std::time::Instant;

use nemo_core::config::{ContextualizerConfig, IdpConfig};
use nemo_core::contextualizer::Contextualizer;
use nemo_core::idp::{run_curve, ModelOutputs, RandomSelector, SelectionView};
use nemo_core::oracle::{SimulatedUser, User};
use nemo_core::pipeline::StandardPipeline;
use nemo_core::session::{Session, SeuAggregates};
use nemo_core::seu::SeuSelector;
use nemo_core::{NemoSystem, PoolConfig, RoundJob, SessionPool, SharedArtifacts};
use nemo_data::catalog::{build, DatasetName, Profile};
use nemo_data::Dataset;
use nemo_labelmodel::{LabelModel, TripletModel};
use nemo_lf::{LabelMatrix, Lineage, PrimitiveLf};
use nemo_persist::{
    artifact_to_bytes, load_artifact, save_artifact, ArtifactBundle, EncodedCheckpointStore,
};
use nemo_sparse::stats::percentiles;
use nemo_sparse::{CscIndex, DetRng, Distance, DistanceScratch};
use nemo_text::TfIdf;

/// One timed kernel: the mean and min per-call time of one adaptively
/// sized batch of calls (one run, no repeated trials).
struct BenchResult {
    name: &'static str,
    iters: u32,
    mean_ns: f64,
    min_ns: f64,
}

/// Time `f` adaptively: warm up, then run batches until ~80ms of samples
/// (capped) and report mean/min per-call time.
fn bench<R>(name: &'static str, mut f: impl FnMut() -> R) -> BenchResult {
    // Warmup + calibration: how many calls fit in a batch.
    let start = Instant::now();
    std::hint::black_box(f());
    let once_ns = start.elapsed().as_nanos().max(1) as f64;
    let target_total_ns = 80_000_000.0;
    let iters = (target_total_ns / once_ns).clamp(3.0, 3000.0) as u32;

    let mut min_ns = f64::INFINITY;
    let mut total_ns = 0.0;
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        let ns = t.elapsed().as_nanos() as f64;
        total_ns += ns;
        min_ns = min_ns.min(ns);
    }
    BenchResult { name, iters, mean_ns: total_ns / iters as f64, min_ns }
}

fn human(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn prepared_session(ds: &Dataset) -> Session<'_> {
    let config = IdpConfig { n_iterations: 25, eval_every: 25, seed: 1, ..Default::default() };
    let mut session = Session::new(ds, config);
    run_curve(
        &mut session,
        &mut RandomSelector,
        &mut SimulatedUser::default(),
        &mut StandardPipeline,
    )
    // invariant: a fresh session holds no pending suggestion.
    .expect("fresh session");
    session
}

fn kernel_benches(ds: &Dataset, results: &mut Vec<BenchResult>) {
    let session = prepared_session(ds);
    let excluded = vec![false; ds.train.n()];
    let view = SelectionView {
        ds,
        lineage: session.lineage(),
        matrix: session.matrix(),
        outputs: session.outputs(),
        excluded: &excluded,
        iteration: 25,
        aggs: None,
    };
    let selector = SeuSelector::new();

    results.push(bench("seu_fast_path_full_pool", || {
        let aggs = SeuSelector::primitive_aggregates(&view);
        let mut best = f64::NEG_INFINITY;
        for x in 0..ds.train.n() {
            best = best.max(selector.expected_utility(&view, &aggs, x));
        }
        best
    }));

    results.push(bench("seu_naive_100_examples", || {
        let mut best = f64::NEG_INFINITY;
        for x in 0..100.min(ds.train.n()) {
            best = best.max(selector.expected_utility_naive(&view, x));
        }
        best
    }));

    let matrix = session.matrix().clone();
    results
        .push(bench("labelmodel_triplet_fit", || TripletModel::default().fit(&matrix, [0.5, 0.5])));

    // Distance engine: naive row-major scan vs the inverted-index kernel,
    // both with reused output buffers so only kernel work is timed.
    let norms = ds.train.features.sq_norms().to_vec();
    let mut out = Vec::new();
    let mut pivot = 0usize;
    results.push(bench("distance_point_to_all_cosine", || {
        pivot = (pivot + 1) % ds.train.n();
        Distance::Cosine.sparse_point_to_all_into(ds.train.features.csr(), pivot, &norms, &mut out);
        out[pivot]
    }));

    let csc = CscIndex::from_csr(ds.train.features.csr());
    let mut scratch = DistanceScratch::new();
    results.push(bench("distance_point_to_all_indexed", || {
        pivot = (pivot + 1) % ds.train.n();
        Distance::Cosine.sparse_point_to_all_indexed_into(
            ds.train.features.csr(),
            &csc,
            pivot,
            &norms,
            &mut scratch,
            &mut out,
        );
        out[pivot]
    }));

    // Contextualizer registration: 32 simulated-user LFs' train and valid
    // distances computed one LF at a time by the naive scan, with the grid
    // radii selected from each train vector as registration does (the
    // pre-index behaviour, now the oracle), vs one batched pass through
    // the indexed engine. Both sides select the same radii, so the ratio
    // measures batching and indexing alone.
    let mut rng = DetRng::new(13);
    let mut user = SimulatedUser::default();
    let mut lineage = Lineage::new();
    let mut x = 0usize;
    let mut guard = 0usize;
    while lineage.len() < 32 && guard < 10_000 {
        guard += 1;
        if let Some(lf) = user.provide_lf(x, ds, &mut rng) {
            lineage.record(lf, x as u32, lineage.len() as u32);
        }
        x = (x + 7) % ds.train.n();
    }
    let ContextualizerConfig { distance: dist, p_grid } = ContextualizerConfig::default();
    results.push(bench("contextualizer_register_per_lf", || {
        let mut lens = 0;
        for rec in lineage.tracked() {
            let pivot = rec.dev_example as usize;
            let train = ds.train.features.point_to_all_naive(dist, pivot);
            let valid = ds.train.features.point_to_other_naive(dist, pivot, &ds.valid.features);
            lens += train.len() + valid.len() + percentiles(&train, &p_grid).len();
        }
        lens
    }));
    results.push(bench("contextualizer_register_batch", || {
        let mut ctx = Contextualizer::new(ContextualizerConfig::default());
        ctx.sync(&lineage, ds);
        ctx.n_registered()
    }));

    // TF-IDF transform over synthetic id-sequences.
    let mut rng = DetRng::new(9);
    let docs: Vec<Vec<u32>> =
        (0..500).map(|_| (0..30).map(|_| rng.index(800) as u32).collect()).collect();
    let model = TfIdf::default().fit(&docs, 800);
    results.push(bench("tfidf_transform_500_docs", || model.transform(&docs)));

    let mut rng = DetRng::new(11);
    let lfs: Vec<PrimitiveLf> = (0..50)
        .map(|_| {
            PrimitiveLf::new(
                rng.index(ds.n_primitives) as u32,
                nemo_lf::Label::from_bool(rng.bernoulli(0.5)),
            )
        })
        .collect();
    results
        .push(bench("label_matrix_from_50_lfs", || LabelMatrix::from_lfs(&lfs, &ds.train.corpus)));

    results.push(bench("model_outputs_initial", || ModelOutputs::initial(ds)));
}

/// Replay statistics for one aggregate-maintenance mode.
struct LoopStats {
    total_ns: f64,
    rounds: usize,
    checksum: f64,
}

/// Replay a recorded trajectory of model outputs, performing each round's
/// selection work in one of two modes:
///
/// - **naive** (`incremental = false`): the pre-`Session` path — rebuild
///   the per-primitive aggregates from scratch and score every example
///   through the per-occurrence `expected_utility` loop.
/// - **incremental**: the `Session` engine path — delta-sync the
///   [`SeuAggregates`] cache and score through the per-round
///   [`SeuSelector::score_table`].
fn replay(
    ds: &Dataset,
    trajectory: &[ModelOutputs],
    incremental: bool,
) -> (LoopStats, SeuAggregates) {
    let selector = SeuSelector::new();
    let excluded = vec![false; ds.train.n()];
    let avail: Vec<usize> = (0..ds.train.n()).collect();
    let lineage = nemo_lf::Lineage::new();
    let matrix = LabelMatrix::new(ds.train.n());
    let mut cache = SeuAggregates::new(ds, &trajectory[0]);
    let mut checksum = 0.0;
    let start = Instant::now();
    for outputs in &trajectory[1..] {
        let view = SelectionView {
            ds,
            lineage: &lineage,
            matrix: &matrix,
            outputs,
            excluded: &excluded,
            iteration: 0,
            aggs: None,
        };
        let scores = if incremental {
            cache.sync(ds, outputs);
            selector.scores(&view, cache.aggs(), &avail)
        } else {
            let aggs = SeuSelector::primitive_aggregates(&view);
            avail.iter().map(|&x| selector.expected_utility(&view, &aggs, x)).collect()
        };
        checksum += scores.iter().copied().filter(|s| s.is_finite()).sum::<f64>();
    }
    let total_ns = start.elapsed().as_nanos() as f64;
    (LoopStats { total_ns, rounds: trajectory.len() - 1, checksum }, cache)
}

/// Record a real 25-round SEU trajectory (and its lineage) with the
/// session engine.
fn record_trajectory(ds: &Dataset) -> (Vec<ModelOutputs>, Lineage) {
    let config = IdpConfig { n_iterations: 25, eval_every: 25, seed: 7, ..Default::default() };
    let mut session = Session::new(ds, config);
    let mut selector = SeuSelector::new();
    let mut user = SimulatedUser::default();
    let mut pipeline = StandardPipeline;
    let mut trajectory = vec![session.outputs().clone()];
    for _ in 0..25 {
        session.round(&mut selector, &mut user, &mut pipeline).expect("round resolves");
        trajectory.push(session.outputs().clone());
    }
    (trajectory, session.lineage().clone())
}

/// Measure aggregate maintenance + full-pool scoring under both modes
/// over a recorded real trajectory.
fn seu_loop_bench(ds: &Dataset, trajectory: &[ModelOutputs]) -> String {
    // Warm both paths once, then measure.
    let _ = replay(ds, trajectory, false);
    let _ = replay(ds, trajectory, true);
    let (naive, _) = replay(ds, trajectory, false);
    let (incr, cache) = replay(ds, trajectory, true);
    assert!(
        (naive.checksum - incr.checksum).abs() <= 1e-9 * naive.checksum.abs().max(1.0),
        "incremental replay diverged: {} vs {}",
        naive.checksum,
        incr.checksum
    );

    let speedup = naive.total_ns / incr.total_ns;
    let (_, deltas) = cache.sync_counts();
    let (dirty_majority, drift_bound) = cache.rebuild_fallback_counts();
    println!(
        "\nSEU interactive-loop aggregate maintenance ({} rounds, full-pool scoring):",
        naive.rounds
    );
    println!("  full rebuild per round : {}", human(naive.total_ns / naive.rounds as f64));
    println!("  incremental delta-sync : {}", human(incr.total_ns / incr.rounds as f64));
    println!(
        "  speedup                : {speedup:.2}x  ({deltas} delta syncs, \
         {} rebuild fallbacks: {dirty_majority} dirty-majority, {drift_bound} drift-bound)",
        dirty_majority + drift_bound,
    );
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        // Committed numbers show ~4x; gate only the sign so single-core
        // CI noise cannot flake the build.
        assert!(
            incr.total_ns <= naive.total_ns,
            "regression: incremental aggregate sync ({}) slower than full rebuild ({})",
            human(incr.total_ns),
            human(naive.total_ns)
        );
    }

    format!(
        concat!(
            "{{\"rounds\": {}, \"full_rebuild_ns\": {:.0}, \"incremental_ns\": {:.0}, ",
            "\"speedup\": {:.4}, \"delta_syncs\": {}, \"rebuild_fallbacks\": {}, ",
            "\"fallbacks_dirty_majority\": {}, \"fallbacks_drift_bound\": {}}}"
        ),
        naive.rounds,
        naive.total_ns,
        incr.total_ns,
        speedup,
        deltas,
        dirty_majority + drift_bound,
        dirty_majority,
        drift_bound,
    )
}

/// Warm-round refined-matrix construction: the per-grid-point refined
/// train/valid matrices `tune_p` consumes, built for a lineage whose last
/// LF is new this round — the exact refinement workload of every
/// contextualized round after the first.
///
/// - **rebuild**: refilter every LF column at every grid point through
///   the per-grid-point `refined_train_matrix` / `refined_valid_matrix`
///   (the pre-cache behaviour, now the oracle).
/// - **incremental**: serve the `n−1` previously cached LFs' columns from
///   the cross-round refined-column cache and filter only the new LF's —
///   each timed call first drops the last LF's slots
///   (`invalidate_refined_cache_from`) so it measures a genuine warm
///   round, not a fully cached replay.
///
/// Outputs are asserted bit-identical before timing; with
/// `NEMO_BENCH_ENFORCE` set, an incremental path slower than half the
/// rebuild cost aborts the run (the CI regression guard — the committed
/// numbers show well above the 3× the ROADMAP item claims).
fn refine_cache_bench(ds: &Dataset, lineage: &Lineage, results: &mut Vec<BenchResult>) -> String {
    let n_lfs = lineage.len();
    let lfs: Vec<PrimitiveLf> = lineage.tracked().iter().map(|r| r.lf).collect();
    let matrix = LabelMatrix::from_lfs(&lfs, &ds.train.corpus);
    let p_grid = ContextualizerConfig::default().p_grid;
    let grid = p_grid.len();

    let mut incr_ctx = Contextualizer::new(ContextualizerConfig::default());
    incr_ctx.sync(lineage, ds);
    let rebuild_grid = |ctx: &Contextualizer| -> (Vec<LabelMatrix>, Vec<LabelMatrix>) {
        let train = p_grid.iter().map(|&p| ctx.refined_train_matrix(&matrix, p)).collect();
        let valid = p_grid.iter().map(|&p| ctx.refined_valid_matrix(p, ds.valid.n())).collect();
        (train, valid)
    };

    // Bit-identity check (and cache warm-up for LFs 0..n−1).
    let (rb_train, rb_valid) = rebuild_grid(&incr_ctx);
    let (in_train, in_valid) = incr_ctx.refined_grid_matrices(&matrix, ds.valid.n());
    for (k, ((a, b), (c, d))) in
        in_train.iter().zip(&rb_train).zip(in_valid.iter().zip(&rb_valid)).enumerate()
    {
        for j in 0..a.n_lfs() {
            assert_eq!(a.column(j).entries(), b.column(j).entries(), "train k={k} j={j}");
            assert_eq!(c.column(j).entries(), d.column(j).entries(), "valid k={k} j={j}");
        }
    }

    let rebuild = bench("refine_grid_rebuild", || rebuild_grid(&incr_ctx).0.len());
    let warm = bench("refine_grid_warm", || {
        incr_ctx.invalidate_refined_cache_from(n_lfs - 1);
        incr_ctx.refined_grid_matrices(&matrix, ds.valid.n()).0.len()
    });
    let stats = incr_ctx.refine_cache_stats();
    let speedup = rebuild.mean_ns / warm.mean_ns;
    println!(
        "\nWarm-round refined-matrix construction ({n_lfs} LFs, {grid} grid points, 1 new LF):"
    );
    println!("  full rebuild           : {} per round", human(rebuild.mean_ns));
    println!("  incremental cache      : {} per round", human(warm.mean_ns));
    println!(
        "  speedup                : {speedup:.2}x  ({} hits, {} refilters recorded)",
        stats.hits, stats.refilters
    );
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        assert!(
            warm.mean_ns * 2.0 <= rebuild.mean_ns,
            "regression: incremental refined-matrix cache ({}) not ≥2x faster than rebuild ({})",
            human(warm.mean_ns),
            human(rebuild.mean_ns)
        );
    }
    let json = format!(
        concat!(
            "{{\"lfs\": {}, \"grid_points\": {}, \"rebuild_ns\": {:.0}, ",
            "\"incremental_ns\": {:.0}, \"speedup\": {:.4}, ",
            "\"cache_hits\": {}, \"cache_refilters\": {}}}"
        ),
        n_lfs, grid, rebuild.mean_ns, warm.mean_ns, speedup, stats.hits, stats.refilters,
    );
    results.push(rebuild);
    results.push(warm);
    json
}

/// Copy-on-write matrix assembly: build every grid point's refined
/// train/valid `LabelMatrix` from the contextualizer's cached columns —
/// the serve step of each warm `tune_p` round — two ways:
///
/// - **deep copy**: clone each column's vote vector into the matrix (the
///   pre-CoW `Vec<LfColumn>` storage paid this `O(coverage)` memcpy per
///   `(grid point, LF)` slot, every round);
/// - **shared**: append an `Arc` clone of the cached column
///   ([`LabelMatrix::push_shared`]) — a refcount bump, `O(1)` per slot.
///
/// Outputs are asserted equal (and the shared path pointer-identical to
/// its source) before timing; with `NEMO_BENCH_ENFORCE` set, a shared
/// path slower than half the deep-copy cost aborts the run.
fn matrix_cow_bench(ds: &Dataset, lineage: &Lineage, results: &mut Vec<BenchResult>) -> String {
    let lfs: Vec<PrimitiveLf> = lineage.tracked().iter().map(|r| r.lf).collect();
    let matrix = LabelMatrix::from_lfs(&lfs, &ds.train.corpus);
    let mut ctx = Contextualizer::new(ContextualizerConfig::default());
    ctx.sync(lineage, ds);
    // Fill the refined-column cache once; the sources below then play the
    // cache's role of handing out columns for assembly.
    let (grid_train, grid_valid) = ctx.refined_grid_matrices(&matrix, ds.valid.n());
    let sources: Vec<&LabelMatrix> = grid_train.iter().chain(&grid_valid).collect();
    let n_columns: usize = sources.iter().map(|m| m.n_lfs()).sum();
    let n_votes: usize =
        sources.iter().flat_map(|m| m.columns().map(nemo_lf::LfColumn::coverage)).sum();

    let assemble_shared = |srcs: &[&LabelMatrix]| {
        let mut total = 0usize;
        for m in srcs {
            let mut out = LabelMatrix::new(m.n_examples());
            for j in 0..m.n_lfs() {
                out.push_shared(Arc::clone(m.shared_column(j)));
            }
            total += out.n_lfs();
        }
        total
    };
    let assemble_deep = |srcs: &[&LabelMatrix]| {
        let mut total = 0usize;
        for m in srcs {
            let mut out = LabelMatrix::new(m.n_examples());
            for j in 0..m.n_lfs() {
                out.push(m.column(j).clone());
            }
            total += out.n_lfs();
        }
        total
    };
    assert_eq!(assemble_shared(&sources), assemble_deep(&sources));
    {
        // Shared assembly must be pointer-identical to its source.
        let mut out = LabelMatrix::new(grid_train[0].n_examples());
        for j in 0..grid_train[0].n_lfs() {
            out.push_shared(Arc::clone(grid_train[0].shared_column(j)));
        }
        assert_eq!(out.shared_columns_with(&grid_train[0]), grid_train[0].n_lfs());
    }

    let deep = bench("matrix_assemble_deep_copy", || assemble_deep(&sources));
    let shared = bench("matrix_assemble_shared", || assemble_shared(&sources));
    let speedup = deep.mean_ns / shared.mean_ns;
    println!(
        "\nCoW matrix assembly ({} grid matrices, {} columns, {} votes):",
        sources.len(),
        n_columns,
        n_votes
    );
    println!("  deep-copied columns    : {} per round", human(deep.mean_ns));
    println!("  shared Arc handles     : {} per round", human(shared.mean_ns));
    println!("  speedup                : {speedup:.2}x");
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        assert!(
            shared.mean_ns * 2.0 <= deep.mean_ns,
            "regression: shared matrix assembly ({}) not ≥2x faster than deep copies ({})",
            human(shared.mean_ns),
            human(deep.mean_ns)
        );
    }
    let json = format!(
        concat!(
            "{{\"grid_matrices\": {}, \"columns\": {}, \"votes\": {}, ",
            "\"deep_copy_ns\": {:.0}, \"shared_ns\": {:.0}, \"speedup\": {:.4}}}"
        ),
        sources.len(),
        n_columns,
        n_votes,
        deep.mean_ns,
        shared.mean_ns,
        speedup,
    );
    results.push(deep);
    results.push(shared);
    json
}

/// Worker threads the host can actually run concurrently (stamped into
/// the `session_pool` section).
fn effective_cores() -> usize {
    std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1)
}

/// Dataset artifact store: cold catalog rebuild (tokenize, featurize,
/// index, norm — everything `catalog::build` does) vs reloading the same
/// immutable artifact set from a checkpoint file written once by
/// `nemo-persist`. The loaded bundle is asserted byte-identical to the
/// saved one before timing; with `NEMO_BENCH_ENFORCE` set, the checkpoint
/// load must be ≥5× faster than the cold build — the number that makes
/// disconnect/resume sessions feel instant.
fn artifact_load_bench(profile: Profile, results: &mut Vec<BenchResult>) -> String {
    let cold = bench("artifact_cold_build", || build(DatasetName::Amazon, profile, 3).train.n());

    let bundle = ArtifactBundle {
        dataset: build(DatasetName::Amazon, profile, 3),
        vocab: None,
        tfidf: None,
    };
    let dir = std::env::temp_dir().join(format!("nemo-bench-artifact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create artifact scratch dir");
    let path = dir.join("amazon.nemo");
    save_artifact(&path, &bundle).expect("save dataset artifact");
    let file_bytes = std::fs::metadata(&path).expect("stat artifact file").len();

    // The reloaded bundle must be bit-identical to what was saved (the
    // canonical-form fixed point `persist_roundtrip.rs` proves in general).
    let reloaded = load_artifact(&path).expect("load dataset artifact");
    assert_eq!(
        artifact_to_bytes(&reloaded),
        artifact_to_bytes(&bundle),
        "artifact load not bit-identical to the saved bundle"
    );

    let load = bench("artifact_checkpoint_load", || {
        load_artifact(&path).expect("load artifact").dataset.train.n()
    });
    std::fs::remove_dir_all(&dir).ok();

    let speedup = cold.mean_ns / load.mean_ns;
    println!(
        "\nDataset artifact store ({} {}, {:.1} KiB on disk):",
        bundle.dataset.name,
        profile.name(),
        file_bytes as f64 / 1024.0
    );
    println!("  cold catalog build     : {} per build", human(cold.mean_ns));
    println!("  checkpoint load        : {} per load", human(load.mean_ns));
    println!("  speedup                : {speedup:.2}x");
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        // Gate on min (steady-state) times like the other sections.
        assert!(
            load.min_ns * 5.0 <= cold.min_ns,
            "regression: artifact checkpoint load ({}) not ≥5x faster than cold build ({})",
            human(load.min_ns),
            human(cold.min_ns)
        );
    }
    let json = format!(
        concat!(
            "{{\"dataset\": \"{}\", \"file_bytes\": {}, \"cold_build_ns\": {:.0}, ",
            "\"checkpoint_load_ns\": {:.0}, \"speedup\": {:.4}, \"bit_identical\": true}}"
        ),
        bundle.dataset.name, file_bytes, cold.mean_ns, load.mean_ns, speedup,
    );
    results.push(cold);
    results.push(load);
    json
}

/// Per-level measurements of the session-pool throughput sweep.
struct PoolLevel {
    sessions: usize,
    reps: usize,
    latencies: Vec<u64>,
    total_secs: f64,
    evictions: u64,
    restores: u64,
}

/// Value at quantile `q` of an ascending-sorted sample (nearest rank).
fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Multi-tenant `SessionPool` throughput: K concurrent sessions over one
/// shared `SharedArtifacts` set, three interleaved batched rounds each, at
/// K ∈ {1, 8, 64, 256}. The pool caps residency at 64 sessions over an
/// in-memory *encoded* checkpoint store, so the 256-session level pays the
/// real persist-container serialization cost on every eviction/restore
/// cycle. Sessions/sec and p50/p99 round latencies are recorded per level.
///
/// Correctness is asserted unconditionally: the first eight sessions of
/// every level (including the eviction-churned 256-session level) must
/// retrace a standalone `NemoSystem` run bit-for-bit — same selections,
/// same posterior bits. With `NEMO_BENCH_ENFORCE`, pool scheduling
/// overhead for a single session must stay within 1.5x of driving a bare
/// `NemoSystem` directly (min-over-min, like the other gates).
fn session_pool_bench(ds: &Dataset, results: &mut Vec<BenchResult>) -> String {
    const ROUNDS: usize = 3;
    const MAX_RESIDENT: usize = 64;
    let seed_of = |rep: usize, j: usize| 40_000 + (rep * 1_000 + j) as u64;
    let session_cfg = |seed: u64| IdpConfig {
        n_iterations: ROUNDS,
        eval_every: ROUNDS,
        seed,
        ..IdpConfig::default()
    };
    let arts = SharedArtifacts::new(ds.clone());

    // Direct baseline: the same rounds driven on bare `NemoSystem`s.
    let mut direct_lat: Vec<u64> = Vec::new();
    for rep in 0..8 {
        let mut nemo = NemoSystem::new(arts.dataset(), session_cfg(seed_of(rep, 0)));
        let mut user = SimulatedUser::default();
        for _ in 0..ROUNDS {
            let t = Instant::now();
            nemo.step_with_user(&mut user).expect("direct round");
            direct_lat.push(t.elapsed().as_nanos() as u64);
        }
    }

    let mut levels: Vec<PoolLevel> = Vec::new();
    for &(k, reps) in &[(1usize, 8usize), (8, 3), (64, 1), (256, 1)] {
        let mut lv = PoolLevel {
            sessions: k,
            reps,
            latencies: Vec::new(),
            total_secs: 0.0,
            evictions: 0,
            restores: 0,
        };
        for rep in 0..reps {
            let config = PoolConfig { max_resident: MAX_RESIDENT, ..PoolConfig::default() };
            let mut pool =
                SessionPool::with_store(&arts, config, Box::new(EncodedCheckpointStore::new()));
            let ids: Vec<_> = (0..k)
                .map(|j| pool.admit(session_cfg(seed_of(rep, j))).expect("admit session"))
                .collect();
            let mut users: Vec<SimulatedUser> = (0..k).map(|_| SimulatedUser::default()).collect();
            let mut selections: Vec<Vec<Option<usize>>> = vec![Vec::new(); k];
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                let mut jobs: Vec<RoundJob<'_>> =
                    ids.iter().zip(users.iter_mut()).map(|(&id, u)| RoundJob::new(id, u)).collect();
                let outcomes = pool.run_rounds(&mut jobs).expect("pooled rounds");
                for (j, o) in outcomes.iter().enumerate() {
                    selections[j].push(o.record.selected);
                    lv.latencies.push(o.round_ns);
                }
            }
            lv.total_secs += t0.elapsed().as_secs_f64();
            lv.evictions += pool.stats().evictions;
            lv.restores += pool.stats().restores;

            if rep == 0 {
                for (j, &id) in ids.iter().enumerate().take(8) {
                    let mut nemo = NemoSystem::new(arts.dataset(), session_cfg(seed_of(rep, j)));
                    let mut user = SimulatedUser::default();
                    let solo: Vec<Option<usize>> = (0..ROUNDS)
                        .map(|_| nemo.step_with_user(&mut user).expect("solo round").selected)
                        .collect();
                    assert_eq!(
                        selections[j], solo,
                        "pooled session {id} diverged from standalone (selections, k={k})"
                    );
                    let pooled_bits = pool
                        .with_session(id, |n| {
                            n.outputs()
                                .train_posterior
                                .p_pos_slice()
                                .iter()
                                .map(|p| p.to_bits())
                                .collect::<Vec<u64>>()
                        })
                        .expect("inspect pooled session");
                    let solo_bits: Vec<u64> = nemo
                        .outputs()
                        .train_posterior
                        .p_pos_slice()
                        .iter()
                        .map(|p| p.to_bits())
                        .collect();
                    assert_eq!(
                        pooled_bits, solo_bits,
                        "pooled session {id} diverged from standalone (posterior bits, k={k})"
                    );
                }
            }
        }
        lv.latencies.sort_unstable();
        levels.push(lv);
    }

    let direct_mean = direct_lat.iter().sum::<u64>() as f64 / direct_lat.len() as f64;
    let direct_min = *direct_lat.iter().min().expect("direct samples") as f64;
    let pool1_mean =
        levels[0].latencies.iter().sum::<u64>() as f64 / levels[0].latencies.len() as f64;
    let pool1_min = levels[0].latencies[0] as f64;
    let overhead = pool1_min / direct_min;
    let workers = nemo_sparse::parallel::num_threads();
    println!(
        "\nSession pool ({} train={}, {ROUNDS} rounds/session, max_resident {MAX_RESIDENT}, \
         {workers} worker(s)):",
        ds.name,
        ds.train.n()
    );
    for lv in &levels {
        println!(
            "  {:>4} sessions x{}: {:>8.1} sessions/s  {:>8.1} rounds/s  p50 {:>10}  p99 {:>10}  \
             evict {:>4}  restore {:>4}",
            lv.sessions,
            lv.reps,
            (lv.sessions * lv.reps) as f64 / lv.total_secs,
            lv.latencies.len() as f64 / lv.total_secs,
            human(percentile_ns(&lv.latencies, 0.50) as f64),
            human(percentile_ns(&lv.latencies, 0.99) as f64),
            lv.evictions,
            lv.restores,
        );
    }
    println!(
        "  single-session pool overhead: {overhead:.2}x vs bare NemoSystem ({} vs {})",
        human(pool1_min),
        human(direct_min)
    );
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        assert!(
            pool1_min <= direct_min * 1.5,
            "regression: pooled single-session round ({}) exceeds 1.5x a bare NemoSystem \
             round ({})",
            human(pool1_min),
            human(direct_min)
        );
    }

    let mut levels_json = String::from("[");
    for (i, lv) in levels.iter().enumerate() {
        levels_json.push_str(&format!(
            concat!(
                "{}{{\"sessions\": {}, \"reps\": {}, \"sessions_per_sec\": {:.2}, ",
                "\"rounds_per_sec\": {:.2}, \"p50_round_ns\": {}, \"p99_round_ns\": {}, ",
                "\"evictions\": {}, \"restores\": {}}}"
            ),
            if i == 0 { "" } else { ", " },
            lv.sessions,
            lv.reps,
            (lv.sessions * lv.reps) as f64 / lv.total_secs,
            lv.latencies.len() as f64 / lv.total_secs,
            percentile_ns(&lv.latencies, 0.50),
            percentile_ns(&lv.latencies, 0.99),
            lv.evictions,
            lv.restores,
        ));
    }
    levels_json.push(']');
    let json = format!(
        concat!(
            "{{\"rounds_per_session\": {}, \"max_resident\": {}, \"workers\": {}, ",
            "\"effective_cores\": {}, \"direct_round_ns\": {:.0}, \"pool_round_ns\": {:.0}, ",
            "\"pool_overhead\": {:.4}, \"bit_identical\": true, \"levels\": {}}}"
        ),
        ROUNDS,
        MAX_RESIDENT,
        workers,
        effective_cores(),
        direct_mean,
        pool1_mean,
        overhead,
        levels_json,
    );
    results.push(BenchResult {
        name: "session_round_direct",
        iters: direct_lat.len() as u32,
        mean_ns: direct_mean,
        min_ns: direct_min,
    });
    results.push(BenchResult {
        name: "session_round_pooled_k1",
        iters: levels[0].latencies.len() as u32,
        mean_ns: pool1_mean,
        min_ns: pool1_min,
    });
    json
}

/// Mean time of a named kernel result (panics if the kernel wasn't run).
fn mean_of(results: &[BenchResult], name: &str) -> f64 {
    results.iter().find(|r| r.name == name).map(|r| r.mean_ns).expect("kernel benched")
}

/// Summarize the sparse-distance engine: indexed vs naive point-to-all and
/// batched vs per-LF contextualizer registration. Returns the JSON
/// fragment; with `NEMO_BENCH_ENFORCE` set, a slower indexed/batched path
/// aborts the run (the CI regression guard).
fn distance_engine_summary(results: &[BenchResult]) -> String {
    let naive = mean_of(results, "distance_point_to_all_cosine");
    let indexed = mean_of(results, "distance_point_to_all_indexed");
    let per_lf = mean_of(results, "contextualizer_register_per_lf");
    let batch = mean_of(results, "contextualizer_register_batch");
    let kernel_speedup = naive / indexed;
    let register_speedup = per_lf / batch;
    println!("\nSparse distance engine (inverted-index kernel vs naive row-major scan):");
    println!(
        "  point-to-all  naive {} → indexed {}  ({kernel_speedup:.2}x)",
        human(naive),
        human(indexed)
    );
    println!(
        "  register 32 LFs  per-LF {} → batched {}  ({register_speedup:.2}x)",
        human(per_lf),
        human(batch)
    );
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        assert!(
            indexed <= naive,
            "regression: indexed point-to-all ({}) slower than naive ({})",
            human(indexed),
            human(naive)
        );
        assert!(
            batch <= per_lf,
            "regression: batched registration ({}) slower than per-LF ({})",
            human(batch),
            human(per_lf)
        );
    }
    format!(
        concat!(
            "{{\"naive_point_to_all_ns\": {:.0}, \"indexed_point_to_all_ns\": {:.0}, ",
            "\"indexed_speedup\": {:.4}, \"register_per_lf_ns\": {:.0}, ",
            "\"register_batch_ns\": {:.0}, \"register_speedup\": {:.4}}}"
        ),
        naive, indexed, kernel_speedup, per_lf, batch, register_speedup,
    )
}

fn main() {
    let profile = Profile::from_env();
    let ds = build(DatasetName::Amazon, profile, 3);
    println!(
        "Kernel microbenchmarks (profile: {}, dataset: {} train={} |Z|={})",
        profile.name(),
        ds.name,
        ds.train.n(),
        ds.n_primitives
    );

    let mut results = Vec::new();
    kernel_benches(&ds, &mut results);
    println!("\n{:<36} {:>8} {:>12} {:>12}", "kernel", "iters", "mean", "min");
    for r in &results {
        println!("{:<36} {:>8} {:>12} {:>12}", r.name, r.iters, human(r.mean_ns), human(r.min_ns));
    }

    let (trajectory, session_lineage) = record_trajectory(&ds);
    let engine_json = distance_engine_summary(&results);
    let artifact_json = artifact_load_bench(profile, &mut results);
    let pool_json = session_pool_bench(&ds, &mut results);
    let loop_json = seu_loop_bench(&ds, &trajectory);
    let refine_json = refine_cache_bench(&ds, &session_lineage, &mut results);
    let cow_json = matrix_cow_bench(&ds, &session_lineage, &mut results);

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"profile\": \"{}\",\n", profile.name()));
    json.push_str(&format!("  \"dataset\": \"{}\",\n", ds.name));
    json.push_str(&format!("  \"train_n\": {},\n", ds.train.n()));
    json.push_str("  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"mean_ns\": {:.0}, \"min_ns\": {:.0}}}{}\n",
            r.name,
            r.iters,
            r.mean_ns,
            r.min_ns,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"distance_engine\": {engine_json},\n"));
    json.push_str(&format!("  \"artifact_load\": {artifact_json},\n"));
    json.push_str(&format!("  \"session_pool\": {pool_json},\n"));
    json.push_str(&format!("  \"seu_loop\": {loop_json},\n"));
    json.push_str(&format!("  \"refine_cache\": {refine_json},\n"));
    json.push_str(&format!("  \"matrix_cow\": {cow_json}\n"));
    json.push_str("}\n");

    // Anchor to the workspace root (cargo bench sets CWD to the package).
    let out =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_kernel.json");
    std::fs::write(&out, &json).expect("write BENCH_kernel.json");
    println!("\nwrote {}", out.display());
}
