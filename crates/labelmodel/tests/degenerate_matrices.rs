//! Degenerate label matrices: the weakly identifiable inputs the Data
//! Programming paper warns about, plus an empty split. Every estimator
//! must still fit and predict without panicking, keep its accuracies
//! finite and inside [`NaiveBayesFit::ACC_CLAMP`], and return finite
//! posteriors in `[0, 1]`, under a balanced prior and both one-class
//! priors — and return the fallback accuracies documented on its type.

use nemo_labelmodel::{LabelModel, MajorityVote, NaiveBayesFit, TripletModel};
use nemo_lf::{LabelMatrix, LfColumn, Vote};

const N: usize = 12;

const PRIORS: [[f64; 2]; 3] = [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]];

fn models() -> Vec<Box<dyn LabelModel>> {
    vec![Box::new(TripletModel::default()), Box::new(MajorityVote::default())]
}

/// A column voting `vote` on every one of `n` examples.
fn constant(n: usize, vote: Vote) -> LfColumn {
    LfColumn::new((0..n as u32).map(|i| (i, vote)).collect())
}

/// A column with mixed votes on two thirds of the examples.
fn mixed() -> LfColumn {
    LfColumn::new(
        (0..N as u32)
            .filter(|i| i % 3 != 2)
            .map(|i| (i, if i % 2 == 0 { 1 } else { -1 }))
            .collect(),
    )
}

fn matrix(n: usize, cols: Vec<LfColumn>) -> LabelMatrix {
    let mut m = LabelMatrix::new(n);
    for col in cols {
        m.push(col);
    }
    m
}

/// The degenerate cases, by name.
fn cases() -> Vec<(&'static str, LabelMatrix)> {
    vec![
        ("all-abstain columns", matrix(N, vec![LfColumn::new(Vec::new()); 3])),
        ("single LF", matrix(N, vec![mixed()])),
        ("four duplicated LFs", matrix(N, vec![mixed(), mixed(), mixed(), mixed()])),
        (
            "two LF pairs voting opposite classes everywhere",
            matrix(N, vec![constant(N, 1), constant(N, 1), constant(N, -1), constant(N, -1)]),
        ),
        ("0-example matrix", matrix(0, vec![LfColumn::new(Vec::new()); 2])),
    ]
}

#[test]
fn degenerate_matrices_fit_finite_clamped_accuracies_and_posteriors() {
    let (lo, hi) = NaiveBayesFit::ACC_CLAMP;
    for model in models() {
        for (case, m) in cases() {
            for prior in PRIORS {
                let what = format!("{} on {case} with prior {prior:?}", model.name());
                let fitted = model.fit(&m, prior);
                let accs = fitted.lf_accuracies();
                assert_eq!(accs.len(), m.n_lfs(), "{what}: one accuracy per LF");
                for &a in accs {
                    assert!(a.is_finite() && (lo..=hi).contains(&a), "{what}: accuracy {a}");
                }
                let posterior = fitted.predict(&m);
                assert_eq!(posterior.len(), m.n_examples(), "{what}: one posterior per example");
                for &p in posterior.p_pos_slice() {
                    assert!(p.is_finite() && (0.0..=1.0).contains(&p), "{what}: posterior {p}");
                }
            }
        }
    }
}

/// The fallbacks documented on each estimator, on the cases above.
#[test]
fn degenerate_matrices_return_the_documented_fallbacks() {
    let triplet = TripletModel::default();
    let majority = MajorityVote::default();
    let accuracies =
        |model: &dyn LabelModel, m: &LabelMatrix| model.fit(m, [0.5, 0.5]).lf_accuracies().to_vec();
    let all_near = |accs: &[f64], want: f64| accs.iter().all(|&a| (a - want).abs() < 1e-12);
    for (case, m) in cases() {
        let (t, v) = (accuracies(&triplet, &m), accuracies(&majority, &m));
        assert!(all_near(&v, majority.assumed_accuracy), "majority vote on {case}: {v:?}");
        match case {
            "four duplicated LFs" => {
                assert!(all_near(&t, 0.947_058_823_529_411_8), "triplet on {case}: {t:?}");
            }
            "two LF pairs voting opposite classes everywhere" => {
                assert!(all_near(&t, NaiveBayesFit::ACC_CLAMP.1), "triplet on {case}: {t:?}");
            }
            _ => {
                assert!(all_near(&t, triplet.fallback_accuracy), "triplet on {case}: {t:?}");
            }
        }
    }
}
