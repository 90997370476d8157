//! Golden learning curves: every method's `run_method` curve on
//! `toy_text` seeds 1 and 2, plus the multi-LF configuration of
//! `examples/custom_user.rs`, pinned bit for bit (`f64::to_bits`).
//!
//! The curves are the behaviour contract for refactors of the round
//! driver: a change that moves code around must reproduce them exactly.
//! On a mismatch the test prints the full regenerated table, so an
//! intended behaviour change re-records it in one paste.

use nemo::baselines::{run_method, Method, RunSpec};
use nemo::core::multi_lf::multi_lf_selector;
use nemo::core::pipeline::ContextualizedPipeline;
use nemo::core::{run_curve, IdpConfig, LearningCurve, Session, SimulatedUser};
use nemo::data::catalog::toy_text;

const METHODS: [Method; 15] = [
    Method::Nemo,
    Method::Snorkel,
    Method::SnorkelAbs,
    Method::SnorkelDis,
    Method::ImplyLossL,
    Method::Us,
    Method::Bald,
    Method::IwsLse,
    Method::ActiveWeasul,
    Method::SeuOnly,
    Method::ClOnly,
    Method::SeuUniformUserModel,
    Method::SeuNoInformativeness,
    Method::SeuNoCorrectness,
    Method::ClEuclidean,
];

/// `examples/custom_user.rs`'s multi-LF run: up to 3 LFs per iteration
/// with the Eq. 5–6 selector and the contextualized pipeline.
fn multi_lf_curve(dataset_seed: u64, seed: u64) -> LearningCurve {
    let ds = toy_text(dataset_seed);
    let config = IdpConfig {
        n_iterations: 12,
        eval_every: 4,
        lfs_per_iteration: 3,
        seed,
        ..Default::default()
    };
    run_curve(
        &mut Session::new(&ds, config),
        &mut multi_lf_selector(),
        &mut SimulatedUser::default(),
        &mut ContextualizedPipeline::default(),
    )
    .unwrap()
}

fn row(name: &str, seed: u64, curve: &LearningCurve) -> String {
    let points: Vec<String> =
        curve.points().iter().map(|&(t, s)| format!("({t}, {:#018x})", s.to_bits())).collect();
    format!("    ({name:?}, {seed}, &[{}]),", points.join(", "))
}

#[test]
fn curves_match_the_recorded_golden_bits() {
    let mut rows = Vec::new();
    for seed in [1, 2] {
        let ds = toy_text(seed);
        let spec = RunSpec::default().with_seed(seed);
        for method in METHODS {
            rows.push(row(method.name(), seed, &run_method(method, &ds, &spec)));
        }
        rows.push(row("multi-lf", seed, &multi_lf_curve(seed, seed)));
    }
    // The example itself: toy_text(5), seed 1.
    rows.push(row("multi-lf", 5, &multi_lf_curve(5, 1)));

    let golden: Vec<String> = GOLDEN
        .iter()
        .map(|&(name, seed, points)| {
            let curve = points.iter().fold(LearningCurve::default(), |mut c, &(t, bits)| {
                c.push(t, f64::from_bits(bits));
                c
            });
            row(name, seed, &curve)
        })
        .collect();
    assert!(
        rows == golden,
        "curves differ from the golden table; regenerated table:\n{}",
        rows.join("\n")
    );
}

/// `(iteration, test score bits)` points of one curve.
type Bits = &'static [(usize, u64)];

/// `(method, seed, curve)`. Multi-LF seed 5 is the example's own run
/// (`toy_text(5)`, config seed 1).
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, Bits)] = &[
    ("Nemo", 1, &[(5, 0x3fe2222222222222), (10, 0x3fe962fc962fc963), (15, 0x3fe92c5f92c5f92c), (20, 0x3fe999999999999a), (25, 0x3fe8f5c28f5c28f6), (30, 0x3fe962fc962fc963), (35, 0x3fea740da740da74), (40, 0x3fea740da740da74), (45, 0x3fe8f5c28f5c28f6), (50, 0x3fe999999999999a)]),
    ("Snorkel", 1, &[(5, 0x3fdf92c5f92c5f93), (10, 0x3fe17e4b17e4b17e), (15, 0x3fe47ae147ae147b), (20, 0x3fe7777777777777), (25, 0x3fe6d3a06d3a06d4), (30, 0x3fe7e4b17e4b17e5), (35, 0x3fe7777777777777), (40, 0x3fe70a3d70a3d70a), (45, 0x3fe962fc962fc963), (50, 0x3fe962fc962fc963)]),
    ("Snorkel-Abs", 1, &[(5, 0x3fe40da740da740e), (10, 0x3fe6d3a06d3a06d4), (15, 0x3fe7777777777777), (20, 0x3fe92c5f92c5f92c), (25, 0x3fe8bf258bf258bf), (30, 0x3fe92c5f92c5f92c), (35, 0x3fe8888888888889), (40, 0x3fea06d3a06d3a07), (45, 0x3fe999999999999a), (50, 0x3fe8f5c28f5c28f6)]),
    ("Snorkel-Dis", 1, &[(5, 0x3fdf92c5f92c5f93), (10, 0x3fe28f5c28f5c28f), (15, 0x3fe3d70a3d70a3d7), (20, 0x3fe40da740da740e), (25, 0x3fe3d70a3d70a3d7), (30, 0x3fe740da740da741), (35, 0x3fe851eb851eb852), (40, 0x3fe81b4e81b4e81b), (45, 0x3fe81b4e81b4e81b), (50, 0x3fe7e4b17e4b17e5)]),
    ("ImplyLoss-L", 1, &[(5, 0x3fe1b4e81b4e81b5), (10, 0x3fe40da740da740e), (15, 0x3fe4e81b4e81b4e8), (20, 0x3fe7777777777777), (25, 0x3fe6d3a06d3a06d4), (30, 0x3fe6d3a06d3a06d4), (35, 0x3fe7ae147ae147ae), (40, 0x3fe7777777777777), (45, 0x3fe8bf258bf258bf), (50, 0x3fe8bf258bf258bf)]),
    ("US", 1, &[(5, 0x3fdbbbbbbbbbbbbc), (10, 0x3fdbbbbbbbbbbbbc), (15, 0x3fdc28f5c28f5c29), (20, 0x3fdd0369d0369d03), (25, 0x3fdc28f5c28f5c29), (30, 0x3fdc962fc962fc96), (35, 0x3fdc28f5c28f5c29), (40, 0x3fdc28f5c28f5c29), (45, 0x3fe0a3d70a3d70a4), (50, 0x3fe4444444444444)]),
    ("BALD", 1, &[(5, 0x3fdbbbbbbbbbbbbc), (10, 0x3fdbbbbbbbbbbbbc), (15, 0x3fde4b17e4b17e4b), (20, 0x3fe0000000000000), (25, 0x3fe0da740da740da), (30, 0x3fe1b4e81b4e81b5), (35, 0x3fe2222222222222), (40, 0x3fe28f5c28f5c28f), (45, 0x3fe4e81b4e81b4e8), (50, 0x3fe40da740da740e)]),
    ("IWS-LSE", 1, &[(5, 0x3fdbbbbbbbbbbbbc), (10, 0x3fde4b17e4b17e4b), (15, 0x3fdbbbbbbbbbbbbc), (20, 0x3fe28f5c28f5c28f), (25, 0x3fe2222222222222), (30, 0x3fe28f5c28f5c28f), (35, 0x3fe2fc962fc962fd), (40, 0x3fe2fc962fc962fd), (45, 0x3fe5555555555555), (50, 0x3fe4b17e4b17e4b1)]),
    ("AW", 1, &[(5, 0x3fe4444444444444), (10, 0x3fe851eb851eb852), (15, 0x3fe81b4e81b4e81b), (20, 0x3fe851eb851eb852), (25, 0x3fe7ae147ae147ae), (30, 0x3fe8888888888889), (35, 0x3fe8888888888889), (40, 0x3fe851eb851eb852), (45, 0x3fe851eb851eb852), (50, 0x3fe962fc962fc963)]),
    ("SEU", 1, &[(5, 0x3fe0369d0369d037), (10, 0x3fe7777777777777), (15, 0x3fe92c5f92c5f92c), (20, 0x3fe9d0369d0369d0), (25, 0x3feaaaaaaaaaaaab), (30, 0x3fe999999999999a), (35, 0x3fea740da740da74), (40, 0x3feae147ae147ae1), (45, 0x3fea740da740da74), (50, 0x3feaaaaaaaaaaaab)]),
    ("Contextualized", 1, &[(5, 0x3fe0000000000000), (10, 0x3fe2c5f92c5f92c6), (15, 0x3fe7ae147ae147ae), (20, 0x3fe69d0369d0369d), (25, 0x3fe70a3d70a3d70a), (30, 0x3fe69d0369d0369d), (35, 0x3fe6d3a06d3a06d4), (40, 0x3fe62fc962fc9630), (45, 0x3fe8bf258bf258bf), (50, 0x3fe8f5c28f5c28f6)]),
    ("SEU-Uniform", 1, &[(5, 0x3fe6666666666666), (10, 0x3fe5f92c5f92c5f9), (15, 0x3fe6d3a06d3a06d4), (20, 0x3fe70a3d70a3d70a), (25, 0x3fe740da740da741), (30, 0x3fe8888888888889), (35, 0x3fe81b4e81b4e81b), (40, 0x3fe8bf258bf258bf), (45, 0x3fe8f5c28f5c28f6), (50, 0x3fe8f5c28f5c28f6)]),
    ("SEU-NoInfo", 1, &[(5, 0x3fe0369d0369d037), (10, 0x3fe58bf258bf258c), (15, 0x3fe7ae147ae147ae), (20, 0x3fe81b4e81b4e81b), (25, 0x3fe851eb851eb852), (30, 0x3fe8888888888889), (35, 0x3fe7e4b17e4b17e5), (40, 0x3fe8bf258bf258bf), (45, 0x3fe92c5f92c5f92c), (50, 0x3fe8f5c28f5c28f6)]),
    ("SEU-NoCorrect", 1, &[(5, 0x3fe6666666666666), (10, 0x3fe8bf258bf258bf), (15, 0x3fea740da740da74), (20, 0x3fea06d3a06d3a07), (25, 0x3fea3d70a3d70a3d), (30, 0x3fe92c5f92c5f92c), (35, 0x3feaaaaaaaaaaaab), (40, 0x3fea06d3a06d3a07), (45, 0x3feaaaaaaaaaaaab), (50, 0x3fe9d0369d0369d0)]),
    ("Contextualized-Euclidean", 1, &[(5, 0x3fe0000000000000), (10, 0x3fe2c5f92c5f92c6), (15, 0x3fe7ae147ae147ae), (20, 0x3fe69d0369d0369d), (25, 0x3fe70a3d70a3d70a), (30, 0x3fe69d0369d0369d), (35, 0x3fe6d3a06d3a06d4), (40, 0x3fe62fc962fc9630), (45, 0x3fe8bf258bf258bf), (50, 0x3fe8f5c28f5c28f6)]),
    ("multi-lf", 1, &[(4, 0x3fe258bf258bf259), (8, 0x3fe4444444444444), (12, 0x3fe5555555555555)]),
    ("Nemo", 2, &[(5, 0x3fe4e81b4e81b4e8), (10, 0x3fe62fc962fc9630), (15, 0x3fe5c28f5c28f5c3), (20, 0x3fe6666666666666), (25, 0x3fe6666666666666), (30, 0x3fe6d3a06d3a06d4), (35, 0x3fe6666666666666), (40, 0x3fe740da740da741), (45, 0x3fe740da740da741), (50, 0x3fe70a3d70a3d70a)]),
    ("Snorkel", 2, &[(5, 0x3fe0da740da740da), (10, 0x3fe58bf258bf258c), (15, 0x3fe58bf258bf258c), (20, 0x3fe5c28f5c28f5c3), (25, 0x3fe70a3d70a3d70a), (30, 0x3fe70a3d70a3d70a), (35, 0x3fe7e4b17e4b17e5), (40, 0x3fe8888888888889), (45, 0x3fe8888888888889), (50, 0x3fe851eb851eb852)]),
    ("Snorkel-Abs", 2, &[(5, 0x3fe369d0369d036a), (10, 0x3fe5f92c5f92c5f9), (15, 0x3fe6d3a06d3a06d4), (20, 0x3fe851eb851eb852), (25, 0x3fe8bf258bf258bf), (30, 0x3fe851eb851eb852), (35, 0x3fe8bf258bf258bf), (40, 0x3fe999999999999a), (45, 0x3fe8bf258bf258bf), (50, 0x3fe8bf258bf258bf)]),
    ("Snorkel-Dis", 2, &[(5, 0x3fe147ae147ae148), (10, 0x3fe5555555555555), (15, 0x3fe3a06d3a06d3a0), (20, 0x3fe58bf258bf258c), (25, 0x3fe51eb851eb851f), (30, 0x3fe5555555555555), (35, 0x3fe58bf258bf258c), (40, 0x3fe70a3d70a3d70a), (45, 0x3fe740da740da741), (50, 0x3fe7ae147ae147ae)]),
    ("ImplyLoss-L", 2, &[(5, 0x3fddddddddddddde), (10, 0x3fe369d0369d036a), (15, 0x3fe47ae147ae147b), (20, 0x3fe40da740da740e), (25, 0x3fe69d0369d0369d), (30, 0x3fe7ae147ae147ae), (35, 0x3fe962fc962fc963), (40, 0x3fe8f5c28f5c28f6), (45, 0x3fe92c5f92c5f92c), (50, 0x3fe8f5c28f5c28f6)]),
    ("US", 2, &[(5, 0x3fe147ae147ae148), (10, 0x3fe28f5c28f5c28f), (15, 0x3fe17e4b17e4b17e), (20, 0x3fe2222222222222), (25, 0x3fe258bf258bf259), (30, 0x3fe2fc962fc962fd), (35, 0x3fe3333333333333), (40, 0x3fe1eb851eb851ec), (45, 0x3fe1eb851eb851ec), (50, 0x3fe2222222222222)]),
    ("BALD", 2, &[(5, 0x3fe06d3a06d3a06d), (10, 0x3fe28f5c28f5c28f), (15, 0x3fe369d0369d036a), (20, 0x3fe1b4e81b4e81b5), (25, 0x3fe0da740da740da), (30, 0x3fe258bf258bf259), (35, 0x3fe1b4e81b4e81b5), (40, 0x3fe2222222222222), (45, 0x3fe2fc962fc962fd), (50, 0x3fe3333333333333)]),
    ("IWS-LSE", 2, &[(5, 0x3fdf92c5f92c5f93), (10, 0x3fdeb851eb851eb8), (15, 0x3fdf258bf258bf26), (20, 0x3fdf92c5f92c5f93), (25, 0x3fe1b4e81b4e81b5), (30, 0x3fe2c5f92c5f92c6), (35, 0x3fe1b4e81b4e81b5), (40, 0x3fe2222222222222), (45, 0x3fe1111111111111), (50, 0x3fe1111111111111)]),
    ("AW", 2, &[(5, 0x3fe5c28f5c28f5c3), (10, 0x3fe70a3d70a3d70a), (15, 0x3fe70a3d70a3d70a), (20, 0x3fe70a3d70a3d70a), (25, 0x3fe70a3d70a3d70a), (30, 0x3fe6666666666666), (35, 0x3fe6d3a06d3a06d4), (40, 0x3fe62fc962fc9630), (45, 0x3fe6666666666666), (50, 0x3fe6666666666666)]),
    ("SEU", 2, &[(5, 0x3fe2c5f92c5f92c6), (10, 0x3fe5f92c5f92c5f9), (15, 0x3fe7ae147ae147ae), (20, 0x3fe6666666666666), (25, 0x3fe70a3d70a3d70a), (30, 0x3fe7777777777777), (35, 0x3fe81b4e81b4e81b), (40, 0x3fe81b4e81b4e81b), (45, 0x3fe7777777777777), (50, 0x3fe81b4e81b4e81b)]),
    ("Contextualized", 2, &[(5, 0x3fe1eb851eb851ec), (10, 0x3fe6666666666666), (15, 0x3fe69d0369d0369d), (20, 0x3fe4444444444444), (25, 0x3fe6666666666666), (30, 0x3fe7e4b17e4b17e5), (35, 0x3fe8f5c28f5c28f6), (40, 0x3fe8f5c28f5c28f6), (45, 0x3fe851eb851eb852), (50, 0x3fe8888888888889)]),
    ("SEU-Uniform", 2, &[(5, 0x3fe369d0369d036a), (10, 0x3fe4b17e4b17e4b1), (15, 0x3fe3d70a3d70a3d7), (20, 0x3fe7777777777777), (25, 0x3fe81b4e81b4e81b), (30, 0x3fe7ae147ae147ae), (35, 0x3fe7777777777777), (40, 0x3fe8bf258bf258bf), (45, 0x3fe7e4b17e4b17e5), (50, 0x3fe851eb851eb852)]),
    ("SEU-NoInfo", 2, &[(5, 0x3fe2c5f92c5f92c6), (10, 0x3fe6666666666666), (15, 0x3fea06d3a06d3a07), (20, 0x3fe8bf258bf258bf), (25, 0x3fe8bf258bf258bf), (30, 0x3fe851eb851eb852), (35, 0x3fe8bf258bf258bf), (40, 0x3fe851eb851eb852), (45, 0x3fe8bf258bf258bf), (50, 0x3fe8f5c28f5c28f6)]),
    ("SEU-NoCorrect", 2, &[(5, 0x3fe3a06d3a06d3a0), (10, 0x3fe7777777777777), (15, 0x3fe962fc962fc963), (20, 0x3fe8bf258bf258bf), (25, 0x3fe81b4e81b4e81b), (30, 0x3fe8f5c28f5c28f6), (35, 0x3fe8888888888889), (40, 0x3fe81b4e81b4e81b), (45, 0x3fe7ae147ae147ae), (50, 0x3fe8888888888889)]),
    ("Contextualized-Euclidean", 2, &[(5, 0x3fe1eb851eb851ec), (10, 0x3fe6666666666666), (15, 0x3fe69d0369d0369d), (20, 0x3fe4444444444444), (25, 0x3fe6666666666666), (30, 0x3fe7e4b17e4b17e5), (35, 0x3fe8f5c28f5c28f6), (40, 0x3fe8f5c28f5c28f6), (45, 0x3fe851eb851eb852), (50, 0x3fe8888888888889)]),
    ("multi-lf", 2, &[(4, 0x3fe2c5f92c5f92c6), (8, 0x3fe5f92c5f92c5f9), (12, 0x3fe6d3a06d3a06d4)]),
    ("multi-lf", 5, &[(4, 0x3fe4e81b4e81b4e8), (8, 0x3fe5555555555555), (12, 0x3fe3d70a3d70a3d7)]),
];
