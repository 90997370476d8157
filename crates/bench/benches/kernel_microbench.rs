//! Microbenchmarks of the hot kernels (docs/ARCHITECTURE.md, "The bench /
//! CI gate contract"), harness-free and machine-readable.
//!
//! One timing protocol: every row is a closure that does the same work on
//! every call. [`trials`] sizes each row's batch once, then runs all rows
//! round-robin for [`TRIALS`] interleaved trials (alternating direction),
//! and records each row's per-call median and quartiles over the trials.
//! Every gate is the median of a per-trial ratio between two rows; both
//! rows of a pair run in the same round-robin pass, so a host that slows
//! down between passes slows both sides of the ratio.
//!
//! A correctness check runs unconditionally before timing: a pooled
//! session retraces a direct one bit for bit. `NEMO_BENCH_ENFORCE` arms
//! the perf gates.
//!
//! Results are printed as a table and written to `BENCH_kernel.json` at
//! the repo root.

use std::time::Instant;

use nemo_core::config::{ContextualizerConfig, IdpConfig};
use nemo_core::contextualizer::Contextualizer;
use nemo_core::idp::{run_curve, ModelOutputs, RandomSelector, SelectionView};
use nemo_core::oracle::{SimulatedUser, User};
use nemo_core::pipeline::StandardPipeline;
use nemo_core::session::Session;
use nemo_core::seu::{SeuAggregates, SeuSelector};
use nemo_core::{NemoSystem, PoolConfig, RoundJob, SessionPool, SharedArtifacts};
use nemo_data::catalog::{build, DatasetName, Profile};
use nemo_data::mixture::{MixtureConfig, MixtureModel};
use nemo_data::{Dataset, Rows};
use nemo_endmodel::LogisticRegression;
use nemo_labelmodel::{LabelModel, TripletModel};
use nemo_lf::{LfColumn, Lineage, PrimitiveLf};
use nemo_sparse::stats::percentiles;
use nemo_sparse::DetRng;
use nemo_text::TfIdf;

/// Interleaved trials per row.
const TRIALS: usize = 15;
/// Time target of one row's batch in one trial.
const TRIAL_NS: f64 = 20e6;
/// Rounds each `session_pool` row drives.
const POOL_ROUNDS: usize = 3;

/// One timed kernel: a closure doing the same work on every call.
struct Row<'a> {
    name: &'static str,
    run: Box<dyn FnMut() + 'a>,
}

/// A row timing `f`, whose result goes through `black_box`.
fn row<'a, R>(name: &'static str, mut f: impl FnMut() -> R + 'a) -> Row<'a> {
    Row {
        name,
        run: Box::new(move || {
            std::hint::black_box(f());
        }),
    }
}

/// A row's per-call time in each trial.
struct Timed {
    name: &'static str,
    iters: u32,
    per_call_ns: Vec<f64>,
}

/// Median and quartiles of a sample.
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

fn spread(sample: &[f64]) -> Spread {
    let q = percentiles(sample, &[25.0, 50.0, 75.0]);
    Spread { q1: q[0], median: q[1], q3: q[2] }
}

/// The one timing function: warm and calibrate each row once (a batch of
/// `iters` calls fills about [`TRIAL_NS`]), then time every row's batch in
/// each of [`TRIALS`] round-robin passes, reversing the row order after
/// every pass so no row always follows the same neighbour.
fn trials(mut rows: Vec<Row<'_>>) -> Vec<Timed> {
    let iters: Vec<u32> = rows
        .iter_mut()
        .map(|r| {
            (r.run)();
            let t = Instant::now();
            (r.run)();
            let once_ns = t.elapsed().as_nanos().max(1) as f64;
            (TRIAL_NS / once_ns).clamp(1.0, 10_000.0) as u32
        })
        .collect();
    let mut per_call_ns = vec![Vec::with_capacity(TRIALS); rows.len()];
    let mut order: Vec<usize> = (0..rows.len()).collect();
    for _ in 0..TRIALS {
        for &i in &order {
            let t = Instant::now();
            for _ in 0..iters[i] {
                (rows[i].run)();
            }
            per_call_ns[i].push(t.elapsed().as_nanos() as f64 / iters[i] as f64);
        }
        order.reverse();
    }
    rows.iter()
        .zip(iters)
        .zip(per_call_ns)
        .map(|((r, iters), per_call_ns)| Timed { name: r.name, iters, per_call_ns })
        .collect()
}

fn timed<'t>(timings: &'t [Timed], name: &str) -> &'t Timed {
    timings.iter().find(|t| t.name == name).expect("row timed")
}

/// The median and quartiles of `numer`'s per-trial time over `denom`'s,
/// printed.
fn paired_ratio(timings: &[Timed], numer: &str, denom: &str) -> Spread {
    let (a, b) = (timed(timings, numer), timed(timings, denom));
    let r =
        spread(&a.per_call_ns.iter().zip(&b.per_call_ns).map(|(x, y)| x / y).collect::<Vec<_>>());
    println!("  {numer} / {denom}: {:.2} ({:.2}–{:.2})", r.median, r.q1, r.q3);
    r
}

fn ratio_json(r: &Spread) -> String {
    format!("{{\"median\": {:.4}, \"q1\": {:.4}, \"q3\": {:.4}}}", r.median, r.q1, r.q3)
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

/// 32 simulated-user LFs, developed on every seventh example.
fn simulated_lineage(ds: &Dataset) -> Lineage {
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
    lineage
}

/// Amazon's mixture, copied from its `catalog.rs` literal.
fn amazon_mixture() -> MixtureConfig {
    MixtureConfig {
        n_clusters: 4,
        n_shared: 400,
        n_background_per_cluster: 220,
        n_indicators: 160,
        home_affinity: 3.0,
        agreement_home: 0.90,
        agreement_away: 0.65,
        flip_prob: 0.15,
        pos_prior: 0.5,
        indicator_tokens: (2, 5, 9),
        background_tokens: (8, 16, 28),
        shared_tokens: (5, 12, 22),
        ..MixtureConfig::default()
    }
}

/// Selections and final train-posterior bits of one session.
type Trace = (Vec<Option<usize>>, Vec<u64>);

fn posterior_bits(nemo: &NemoSystem<'_>) -> Vec<u64> {
    nemo.outputs().train_posterior.p_pos_slice().iter().map(|p| p.to_bits()).collect()
}

/// [`POOL_ROUNDS`] rounds driven on a bare `NemoSystem`.
fn direct_session(arts: &SharedArtifacts, config: &IdpConfig) -> Trace {
    let mut nemo = NemoSystem::new(arts.dataset(), config.clone());
    let mut user = SimulatedUser::default();
    let selections = (0..POOL_ROUNDS)
        .map(|_| nemo.step_with_user(&mut user).expect("direct round").selected)
        .collect();
    (selections, posterior_bits(&nemo))
}

/// The same rounds driven through a `SessionPool` holding one session.
fn pooled_session(arts: &SharedArtifacts, config: &IdpConfig) -> Trace {
    let mut pool = SessionPool::new(arts, PoolConfig::default());
    let id = pool.admit(config.clone()).expect("admit session");
    let mut user = SimulatedUser::default();
    let selections = (0..POOL_ROUNDS)
        .map(|_| {
            let outcomes = pool.run_rounds(&mut [RoundJob::new(id, &mut user)]).expect("round");
            outcomes[0].record.selected
        })
        .collect();
    (selections, pool.with_session(id, posterior_bits).expect("inspect pooled session"))
}

/// The sparse-distance engine: the indexed distance query vs the naive
/// row-major scan over 16 fixed pivots, and `Contextualizer::sync`
/// registering 32 LFs vs the naive registration oracle.
fn distance_engine_summary(timings: &[Timed]) -> String {
    let indexed = paired_ratio(timings, "distance_naive_16_pivots", "distance_indexed_16_pivots");
    let register = paired_ratio(timings, "register_naive_32_lfs", "register_batch_32_lfs");
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        assert!(
            indexed.median >= 1.0,
            "regression: indexed distances slower than naive ({:.2}x)",
            indexed.median
        );
        assert!(
            register.median >= 1.0,
            "regression: batched registration slower than naive ({:.2}x)",
            register.median
        );
    }
    format!(
        "{{\"indexed_speedup\": {}, \"register_speedup\": {}}}",
        ratio_json(&indexed),
        ratio_json(&register)
    )
}

/// Pool scheduling overhead: a session pooled alone may cost at most
/// 1.5× the same session on a bare `NemoSystem`.
fn session_pool_summary(timings: &[Timed]) -> String {
    let overhead = paired_ratio(timings, "session_3_rounds_pooled_k1", "session_3_rounds_direct");
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        assert!(
            overhead.median <= 1.5,
            "regression: a pooled session costs {:.2}x a direct one",
            overhead.median
        );
    }
    format!(
        "{{\"rounds\": {POOL_ROUNDS}, \"pool_overhead\": {}, \"bit_identical\": true}}",
        ratio_json(&overhead)
    )
}

/// The commit the numbers were recorded on, `-dirty` if the tree had
/// uncommitted changes.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let profile = Profile::from_env();
    let ds = build(DatasetName::Amazon, profile, 3);
    let nproc = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    println!(
        "Kernel microbenchmarks (profile: {}, dataset: {} train={} |Z|={}, nproc {nproc}, \
         {TRIALS} trials)",
        profile.name(),
        ds.name,
        ds.train.n(),
        ds.n_primitives
    );

    let session = prepared_session(&ds);
    let excluded = vec![false; ds.train.n()];
    let view = SelectionView { excluded: &excluded, ..session.view() };
    let selector = SeuSelector::new();
    let all: Vec<usize> = (0..ds.train.n()).collect();
    let first_100: Vec<usize> = (0..100.min(ds.train.n())).collect();
    let matrix = session.matrix().clone();
    let covered = session.matrix().covered_examples();
    let targets = session.outputs().train_posterior.p_pos_slice();
    let features = &ds.train.features;
    let pivots: Vec<usize> = (0..16).map(|i| i * ds.train.n() / 16).collect();
    let lineage = simulated_lineage(&ds);
    let ContextualizerConfig { distance: dist, p_grid } = ContextualizerConfig::default();

    let mut rng = DetRng::new(9);
    let docs: Vec<Vec<u32>> =
        (0..500).map(|_| (0..30).map(|_| rng.index(800) as u32).collect()).collect();
    let tfidf = TfIdf::default().fit(&docs, 800);
    let mut rng = DetRng::new(11);
    let lfs: Vec<PrimitiveLf> = (0..50)
        .map(|_| {
            PrimitiveLf::new(
                rng.index(ds.n_primitives) as u32,
                nemo_lf::Label::from_bool(rng.bernoulli(0.5)),
            )
        })
        .collect();

    let mixture = MixtureModel::new(amazon_mixture(), &mut DetRng::new(5));

    let arts = SharedArtifacts::new(ds.clone());
    let pool_cfg = IdpConfig {
        n_iterations: POOL_ROUNDS,
        eval_every: POOL_ROUNDS,
        seed: 40_000,
        ..IdpConfig::default()
    };
    assert_eq!(
        pooled_session(&arts, &pool_cfg),
        direct_session(&arts, &pool_cfg),
        "pooled session diverged from direct"
    );

    let timings = trials(vec![
        // What a round pays for SEU: the session's fold of the aggregates
        // on first read, then every example scored through the per-round
        // table.
        row("seu_fast_path_full_pool", || {
            let aggs = SeuAggregates::new(&ds, view.outputs);
            selector.scores(&SelectionView { aggs: &aggs, ..view }, &all)
        }),
        row("seu_naive_100_examples", || selector.expected_utility_naive(&view, &first_100)),
        row("labelmodel_triplet_fit", || TripletModel::default().fit(&matrix, [0.5, 0.5])),
        // The end-model fit each round runs: SGD over the covered rows.
        row("endmodel_fit", || {
            LogisticRegression::default().fit(features.csr(), targets, Some(&covered), 1)
        }),
        row("distance_naive_16_pivots", || {
            pivots.iter().map(|&p| features.distances_naive(dist, p, features)[p]).sum::<f64>()
        }),
        row("distance_indexed_16_pivots", || {
            pivots.iter().map(|&p| features.distances(dist, p, features, Rows::All)[p]).sum::<f64>()
        }),
        // The naive registration oracle (train and valid distances by the
        // naive scan, grid radii selected from the train vector) vs
        // `Contextualizer::sync` registering the same LFs.
        row("register_naive_32_lfs", || {
            let mut lens = 0;
            for rec in lineage.tracked() {
                let pivot = rec.dev_example as usize;
                let train = features.distances_naive(dist, pivot, features);
                let valid = features.distances_naive(dist, pivot, &ds.valid.features);
                lens += train.len() + valid.len() + percentiles(&train, &p_grid).len();
            }
            lens
        }),
        row("register_batch_32_lfs", || {
            let mut ctx = Contextualizer::new(ContextualizerConfig::default());
            ctx.sync(&lineage, &ds);
            ctx.n_registered()
        }),
        row("tfidf_transform_500_docs", || tfidf.transform(&docs)),
        // The per-document draw catalog set-up repeats for every row.
        row("mixture_sample_1000_docs", || {
            let mut rng = DetRng::new(7);
            (0..1000).map(|_| mixture.sample_doc(&mut rng).tokens.len()).sum::<usize>()
        }),
        // What every submit and registration pays per LF.
        row("lf_columns_from_50_lfs", || {
            lfs.iter().map(|lf| LfColumn::from_lf(lf, &ds.train.corpus).coverage()).sum::<usize>()
        }),
        row("model_outputs_initial", || ModelOutputs::initial(&ds)),
        row("session_3_rounds_direct", || direct_session(&arts, &pool_cfg)),
        row("session_3_rounds_pooled_k1", || pooled_session(&arts, &pool_cfg)),
    ]);

    println!("\n{:<30} {:>6} {:>12} {:>26}", "kernel", "iters", "median", "quartiles");
    let mut rows_json = Vec::new();
    for t in &timings {
        let s = spread(&t.per_call_ns);
        println!(
            "{:<30} {:>6} {:>12} {:>26}",
            t.name,
            t.iters,
            human(s.median),
            format!("{} – {}", human(s.q1), human(s.q3))
        );
        rows_json.push(format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"trials\": {}, \"median_ns\": {:.0}, \
             \"q1_ns\": {:.0}, \"q3_ns\": {:.0}}}",
            t.name,
            t.iters,
            t.per_call_ns.len(),
            s.median,
            s.q1,
            s.q3
        ));
    }

    println!("\nPaired ratios, median (quartiles):");
    let sections = [
        ("distance_engine", distance_engine_summary(&timings)),
        ("session_pool", session_pool_summary(&timings)),
    ];
    let mut json = format!(
        "{{\n  \"profile\": \"{}\",\n  \"dataset\": \"{}\",\n  \"train_n\": {},\n  \
         \"nproc\": {nproc},\n  \"commit\": \"{}\",\n  \"trials\": {TRIALS},\n  \
         \"benchmarks\": [\n{}\n  ]",
        profile.name(),
        ds.name,
        ds.train.n(),
        commit(),
        rows_json.join(",\n")
    );
    for (key, section) in &sections {
        json.push_str(&format!(",\n  \"{key}\": {section}"));
    }
    json.push_str("\n}\n");

    // Anchor to the workspace root (cargo bench sets CWD to the package).
    let out =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_kernel.json");
    std::fs::write(&out, &json).expect("write BENCH_kernel.json");
    println!("\nwrote {}", out.display());
}
