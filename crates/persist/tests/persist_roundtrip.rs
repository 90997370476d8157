//! Serialize → deserialize identity for every persisted type.
//!
//! The canonical-form property checked throughout: re-serializing a loaded
//! value reproduces the original file image byte-for-byte. Because the
//! file image contains the exact bit patterns of every float, offset, and
//! index, byte equality of images is bit-level equality of everything the
//! store persists — stronger than any field-by-field comparison.

use nemo_data::catalog::toy_text;
use nemo_data::{Dataset, Features, Split};
use nemo_lf::{Label, Metric, PrimitiveCorpus, PrimitiveLf, TrackedLf};
use nemo_persist::{
    artifact_from_bytes, artifact_to_bytes, load_artifact, load_session, save_artifact,
    save_session, session_from_bytes, session_to_bytes, ArtifactBundle,
};
use nemo_sparse::{CsrMatrix, DenseMatrix, SparseVec};
use nemo_text::{TfIdf, Vocab};
use proptest::prelude::*;
use proptest::TestRunner;

fn artifact_roundtrips(bundle: &ArtifactBundle) {
    let bytes = artifact_to_bytes(bundle);
    let loaded = artifact_from_bytes(&bytes).expect("valid image must load");
    assert_eq!(artifact_to_bytes(&loaded), bytes, "canonical form must be a fixed point");
}

fn session_roundtrips(ckpt: &nemo_core::SessionCheckpoint) {
    let bytes = session_to_bytes(ckpt);
    let loaded = session_from_bytes(&bytes).expect("valid image must load");
    assert_eq!(session_to_bytes(&loaded), bytes, "canonical form must be a fixed point");
}

/// A split with `n` examples over `n_primitives`, sparse- or dense-backed,
/// with shapes drawn from `rng` (including empty rows, hence zero norms).
fn random_split(
    rng: &mut TestRunner,
    n: usize,
    dim: usize,
    n_primitives: usize,
    dense: bool,
) -> Split {
    let labels: Vec<Label> =
        (0..n).map(|_| if rng.next_u64() & 1 == 0 { Label::Pos } else { Label::Neg }).collect();
    let clusters: Vec<u32> = (0..n).map(|_| (rng.next_u64() % 4) as u32).collect();
    let docs: Vec<Vec<u32>> = (0..n)
        .map(|_| {
            let len = (rng.next_u64() % 4) as usize;
            (0..len).map(|_| (rng.next_u64() % n_primitives as u64) as u32).collect()
        })
        .collect();
    let corpus = PrimitiveCorpus::new(docs, n_primitives);
    let features = if dense {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| {
                        // Mix zeros in so the CSR mirror has gaps.
                        if rng.next_u64() % 3 == 0 {
                            0.0
                        } else {
                            (rng.next_f64() * 2.0 - 1.0) as f32
                        }
                    })
                    .collect()
            })
            .collect();
        let mut m = DenseMatrix::zeros(n, dim);
        for (r, row) in rows.iter().enumerate() {
            m.row_mut(r).copy_from_slice(row);
        }
        Features::from_dense(m)
    } else {
        let rows: Vec<SparseVec> = (0..n)
            .map(|_| {
                if dim == 0 {
                    return SparseVec::zeros(0);
                }
                let nnz = (rng.next_u64() % (dim as u64 + 1)) as usize;
                let pairs: Vec<(u32, f32)> = (0..nnz)
                    .map(|_| {
                        ((rng.next_u64() % dim as u64) as u32, (rng.next_f64() * 4.0 - 2.0) as f32)
                    })
                    .collect();
                SparseVec::from_pairs(pairs, dim)
            })
            .collect();
        Features::from_csr(CsrMatrix::from_rows(&rows, dim))
    };
    Split { labels, features, corpus, clusters }
}

fn random_dataset(seed: u64, dense: bool) -> Dataset {
    let mut rng = TestRunner::new(seed);
    let n_primitives = 1 + (rng.next_u64() % 6) as usize;
    let dim = (rng.next_u64() % 5) as usize;
    let n_train = (rng.next_u64() % 7) as usize;
    let n_valid = (rng.next_u64() % 4) as usize;
    let n_test = (rng.next_u64() % 4) as usize;
    let lexicon: Vec<u32> = (0..n_primitives as u32).filter(|_| rng.next_u64() & 1 == 0).collect();
    let ds = Dataset {
        name: format!("random-{seed}"),
        metric: if rng.next_u64() & 1 == 0 { Metric::Accuracy } else { Metric::F1 },
        train: random_split(&mut rng, n_train, dim, n_primitives, dense),
        valid: random_split(&mut rng, n_valid, dim, n_primitives, dense),
        test: random_split(&mut rng, n_test, dim, n_primitives, dense),
        n_primitives,
        primitive_names: (0..n_primitives).map(|z| format!("z{z}")).collect(),
        lexicon,
        class_prior_pos: rng.next_f64(),
    };
    ds.validate();
    ds
}

#[test]
fn toy_text_artifact_roundtrips_with_text_state() {
    let dataset = toy_text(42);
    let vocab = Vocab::from_tokens(vec!["good".into(), "bad".into(), "meh".into()]).unwrap();
    let tfidf = TfIdf::default().fit(&[vec![0, 1], vec![1, 2], vec![0]], 3);
    artifact_roundtrips(&ArtifactBundle { dataset, vocab: Some(vocab), tfidf: Some(tfidf) });
}

#[test]
fn artifact_file_roundtrips_on_disk() {
    let dir = std::env::temp_dir().join(format!("nemo-rt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("toy.artifact");
    let bundle = ArtifactBundle { dataset: toy_text(7), vocab: None, tfidf: None };
    save_artifact(&path, &bundle).unwrap();
    let loaded = load_artifact(&path).unwrap();
    assert_eq!(artifact_to_bytes(&loaded), artifact_to_bytes(&bundle));
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_sparse_artifacts_roundtrip(seed in 0u64..1_000_000) {
        let ds = random_dataset(seed, false);
        artifact_roundtrips(&ArtifactBundle { dataset: ds, vocab: None, tfidf: None });
    }

    #[test]
    fn random_dense_artifacts_roundtrip(seed in 0u64..1_000_000) {
        let ds = random_dataset(seed, true);
        artifact_roundtrips(&ArtifactBundle { dataset: ds, vocab: None, tfidf: None });
    }
}

/// Empty splits (0 examples), zero-width features (n×0), and all-zero rows
/// (zero norms) all survive the round trip.
#[test]
fn degenerate_shapes_roundtrip() {
    let empty_split = |dim: usize| Split {
        labels: vec![],
        features: Features::from_csr(CsrMatrix::from_rows(&[], dim)),
        corpus: PrimitiveCorpus::new(vec![], 1),
        clusters: vec![],
    };
    let zero_norm_split = |n: usize, dim: usize| Split {
        labels: vec![Label::Pos; n],
        features: {
            let rows: Vec<SparseVec> = (0..n).map(|_| SparseVec::zeros(dim)).collect();
            Features::from_csr(CsrMatrix::from_rows(&rows, dim))
        },
        corpus: PrimitiveCorpus::new(vec![vec![]; n], 1),
        clusters: vec![0; n],
    };
    for (train, valid, test) in [
        (empty_split(0), empty_split(0), empty_split(0)), // 0×0 everywhere
        (zero_norm_split(3, 0), empty_split(0), zero_norm_split(1, 0)), // n×0
        (zero_norm_split(2, 4), zero_norm_split(1, 4), zero_norm_split(2, 4)), // zero norms
    ] {
        let ds = Dataset {
            name: "degenerate".into(),
            metric: Metric::Accuracy,
            train,
            valid,
            test,
            n_primitives: 1,
            primitive_names: vec!["z0".into()],
            lexicon: vec![],
            class_prior_pos: 0.5,
        };
        ds.validate();
        artifact_roundtrips(&ArtifactBundle { dataset: ds, vocab: None, tfidf: None });
    }
}

fn random_checkpoint(seed: u64) -> nemo_core::SessionCheckpoint {
    let mut rng = TestRunner::new(seed);
    let n_train = 2 + (rng.next_u64() % 8) as usize;
    let n_lfs = (rng.next_u64() % 5) as usize;
    // Include floats whose bit patterns are easy to lose (−0.0, ±∞, NaN):
    // the codec persists raw bits, so all of them must survive.
    let weird = [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MIN_POSITIVE];
    let mut f = move || weird[(rng.next_u64() % weird.len() as u64) as usize];
    let mut rng = TestRunner::new(seed ^ 0xABCD);
    nemo_core::SessionCheckpoint {
        config: nemo_core::IdpConfig {
            n_iterations: (rng.next_u64() % 50) as usize,
            eval_every: 1 + (rng.next_u64() % 10) as usize,
            label_model: if rng.next_u64() & 1 == 0 {
                nemo_core::LabelModelKind::Metal
            } else {
                nemo_core::LabelModelKind::Majority
            },
            end_model: nemo_endmodel::LogRegConfig {
                lr: rng.next_f64(),
                epochs: (rng.next_u64() % 30) as usize,
                l2: rng.next_f64() * 1e-3,
                fit_intercept: rng.next_u64() & 1 == 0,
            },
            lfs_per_iteration: 1 + (rng.next_u64() % 3) as usize,
            seed: rng.next_u64(),
            checkpoint_every: if rng.next_u64() & 1 == 0 {
                Some(1 + (rng.next_u64() % 5) as usize)
            } else {
                None
            },
            selection: nemo_core::SelectionStrategy::Seu,
        },
        iteration: (rng.next_u64() % 40) as usize,
        pending: if rng.next_u64() & 1 == 0 {
            Some((rng.next_u64() % n_train as u64) as usize)
        } else {
            None
        },
        lineage: (0..n_lfs)
            .map(|k| TrackedLf {
                lf: PrimitiveLf::new(
                    (rng.next_u64() % 6) as u32,
                    if rng.next_u64() & 1 == 0 { Label::Pos } else { Label::Neg },
                ),
                dev_example: (rng.next_u64() % n_train as u64) as u32,
                iteration: k as u32,
            })
            .collect(),
        columns: (0..n_lfs)
            .map(|_| {
                let n_entries = (rng.next_u64() % n_train as u64) as usize;
                (0..n_entries)
                    .map(|i| (i as u32, if rng.next_u64() & 1 == 0 { 1i8 } else { -1i8 }))
                    .collect()
            })
            .collect(),
        excluded: (0..n_train).map(|_| rng.next_u64() & 1 == 0).collect(),
        train_p_pos: (0..n_train).map(|_| f()).collect(),
        train_probs: (0..n_train).map(|_| f()).collect(),
        valid_pred: (0..3).map(|_| if rng.next_u64() & 1 == 0 { 1 } else { -1 }).collect(),
        test_pred: (0..3).map(|_| if rng.next_u64() & 1 == 0 { 1 } else { -1 }).collect(),
        chosen_p: if rng.next_u64() & 1 == 0 { Some(f()) } else { None },
        rng_state: [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()],
        rng_gauss_spare: if rng.next_u64() & 1 == 0 { Some(f()) } else { None },
        warm_seeds: (0..(rng.next_u64() % 4) as usize)
            .map(|_| (0..4).map(|_| f()).collect())
            .collect(),
        // Carried (RADII section present) or not (the 7-section layout).
        radii: (0..(rng.next_u64() % 2) as usize * n_lfs * 4).map(|_| f()).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn random_checkpoints_roundtrip(seed in 0u64..1_000_000) {
        session_roundtrips(&random_checkpoint(seed));
    }
}

#[test]
fn empty_checkpoint_roundtrips() {
    // A brand-new session: no lineage, no columns, nothing pending.
    let ckpt = nemo_core::SessionCheckpoint {
        config: nemo_core::IdpConfig::default(),
        iteration: 0,
        pending: None,
        lineage: vec![],
        columns: vec![],
        excluded: vec![],
        train_p_pos: vec![],
        train_probs: vec![],
        valid_pred: vec![],
        test_pred: vec![],
        chosen_p: None,
        rng_state: [1, 2, 3, 4],
        rng_gauss_spare: None,
        radii: vec![],
        warm_seeds: vec![],
    };
    session_roundtrips(&ckpt);
}

#[test]
fn session_file_roundtrips_on_disk() {
    let dir = std::env::temp_dir().join(format!("nemo-rt-s-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.ckpt");
    let ckpt = random_checkpoint(99);
    save_session(&path, &ckpt).unwrap();
    let loaded = load_session(&path).unwrap();
    assert_eq!(session_to_bytes(&loaded), session_to_bytes(&ckpt));
    std::fs::remove_dir_all(&dir).unwrap();
}
