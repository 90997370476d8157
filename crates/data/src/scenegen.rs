//! Visual-Genome-style scene generation.
//!
//! The paper's VG task classifies whether an image contains the visual
//! relationship "carrying" (here: positive) or "riding" (negative), using
//! the image's *object annotations* as LF primitives and pre-trained ResNet
//! embeddings as features. The substitute generates scenes as object-tag
//! sets drawn from the same cluster-mixture process the text generator uses
//! (clusters = scene contexts such as street/park/beach; indicators =
//! relation-correlated objects such as "horse" or "backpack"), and dense
//! "embedding-like" features = context-cluster centroid + small
//! label-direction offset + isotropic Gaussian noise.
//!
//! The decisive structural property is preserved: the primitive domain is
//! *decoupled* from the feature space (objects vs embeddings), so the
//! contextualizer must work with distances in a space it did not derive
//! the primitives from — exactly the VG configuration in the paper.

use crate::dataset::{Dataset, Features, Split};
use crate::mixture::{MixDoc, MixtureConfig, MixtureModel};
use nemo_lf::{Metric, PrimitiveCorpus};
use nemo_sparse::{DenseMatrix, DetRng};

/// Curated object names for relation-indicative objects (positive class =
/// "carrying").
pub const CARRY_OBJECTS: &[&str] = &[
    "bag",
    "backpack",
    "suitcase",
    "box",
    "tray",
    "basket",
    "umbrella",
    "groceries",
    "luggage",
    "purse",
    "bundle",
    "bucket",
    "jug",
    "crate",
    "parcel",
    "folder",
];

/// Curated object names for "riding"-indicative objects (negative class).
pub const RIDE_OBJECTS: &[&str] = &[
    "horse",
    "bicycle",
    "motorcycle",
    "skateboard",
    "surfboard",
    "elephant",
    "scooter",
    "wave",
    "saddle",
    "helmet",
    "carriage",
    "snowboard",
    "bus",
    "train",
    "camel",
    "wagon",
];

/// Specification of a synthetic scene dataset.
#[derive(Debug, Clone)]
pub struct SceneGenSpec {
    /// Display name.
    pub name: String,
    /// The object-mixture process (indicators = relation-correlated
    /// objects, backgrounds = context objects, shared = ubiquitous objects
    /// such as "person", "sky").
    pub mixture: MixtureConfig,
    /// Embedding dimensionality (the paper uses ResNet features; any
    /// moderate dimension preserves the geometry).
    pub feature_dim: usize,
    /// Scale of the label-direction offset relative to unit centroids.
    pub label_offset: f64,
    /// Isotropic noise standard deviation.
    pub noise_sigma: f64,
    /// Split sizes.
    pub n_train: usize,
    /// Validation size.
    pub n_valid: usize,
    /// Test size.
    pub n_test: usize,
    /// Primitive-domain df bounds `(min_df, max_df_frac)` over object
    /// tags (ubiquitous objects such as "person" make degenerate LFs).
    pub primitive_df_bounds: (usize, f64),
}

/// Generate a scene dataset. Deterministic in `seed`.
pub fn generate_scenes(spec: &SceneGenSpec, seed: u64) -> Dataset {
    let mut rng = DetRng::new(seed ^ 0x5ce9_e01d_83af_2b17);
    let model = MixtureModel::new(spec.mixture.clone(), &mut rng);
    let dim = spec.feature_dim;
    let k = spec.mixture.n_clusters;

    // Random unit centroid per context cluster + one global label direction.
    let mut geom_rng = rng.fork(0xfeed);
    let mut centroids = Vec::with_capacity(k);
    for _ in 0..k {
        let mut c: Vec<f32> = (0..dim).map(|_| geom_rng.gaussian() as f32).collect();
        let norm = (c.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>()).sqrt().max(1e-9);
        for v in &mut c {
            *v = (*v as f64 / norm) as f32;
        }
        centroids.push(c);
    }
    let mut label_dir: Vec<f32> = (0..dim).map(|_| geom_rng.gaussian() as f32).collect();
    let norm = (label_dir.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>()).sqrt().max(1e-9);
    for v in &mut label_dir {
        *v = (*v as f64 / norm) as f32;
    }

    let embed = |doc: &MixDoc, rng: &mut DetRng| -> Vec<f32> {
        let c = &centroids[doc.cluster as usize];
        let sign = doc.label.sign() as f64 * spec.label_offset;
        (0..dim)
            .map(|j| {
                (c[j] as f64 + sign * label_dir[j] as f64 + rng.gaussian() * spec.noise_sigma)
                    as f32
            })
            .collect()
    };

    let mut build = |n: usize, salt: u64| -> Split {
        let mut doc_rng = rng.fork(salt);
        let docs = model.sample_docs(n, &mut doc_rng);
        let mut feat_rng = rng.fork(salt ^ 0xabcd);
        let rows: Vec<Vec<f32>> = docs.iter().map(|d| embed(d, &mut feat_rng)).collect();
        let features = Features::from_dense(DenseMatrix::from_rows(&rows));
        let sets: Vec<Vec<u32>> = docs.iter().map(|d| d.tokens.clone()).collect();
        let corpus = PrimitiveCorpus::new(sets, model.vocab_size());
        Split {
            labels: docs.iter().map(|d| d.label).collect(),
            features,
            corpus,
            clusters: docs.iter().map(|d| d.cluster).collect(),
        }
    };

    let mut train = build(spec.n_train, 1);
    let mut valid = build(spec.n_valid, 2);
    let mut test = build(spec.n_test, 3);

    // Primitive-domain df filter computed on the training split.
    let mut df = vec![0usize; model.vocab_size()];
    for i in 0..train.n() {
        for &t in train.corpus.primitives_of(i) {
            df[t as usize] += 1;
        }
    }
    let (min_df, max_df_frac) = spec.primitive_df_bounds;
    let max_df = ((spec.n_train as f64) * max_df_frac).ceil() as usize;
    let refilter = |split: &mut Split| {
        let sets: Vec<Vec<u32>> = (0..split.n())
            .map(|i| {
                split
                    .corpus
                    .primitives_of(i)
                    .iter()
                    .copied()
                    .filter(|&t| df[t as usize] >= min_df && df[t as usize] <= max_df)
                    .collect()
            })
            .collect();
        split.corpus = PrimitiveCorpus::new(sets, model.vocab_size());
    };
    refilter(&mut train);
    refilter(&mut valid);
    refilter(&mut test);

    // Object display names: curated for indicators, synthetic otherwise.
    let mut names = Vec::with_capacity(model.vocab_size());
    let (mut n_pos, mut n_neg) = (0usize, 0usize);
    for t in 0..model.vocab_size() as u32 {
        if model.is_indicator(t) {
            let name = match model.indicator_base(t) {
                nemo_lf::Label::Pos => {
                    let i = n_pos;
                    n_pos += 1;
                    pick_name(CARRY_OBJECTS, i)
                }
                nemo_lf::Label::Neg => {
                    let i = n_neg;
                    n_neg += 1;
                    pick_name(RIDE_OBJECTS, i)
                }
            };
            names.push(name);
        } else {
            names.push(format!("obj_{}", model.token_name(t)));
        }
    }

    let class_prior_pos = valid.pos_frac();
    let ds = Dataset {
        name: spec.name.clone(),
        metric: Metric::Accuracy,
        train,
        valid,
        test,
        n_primitives: model.vocab_size(),
        primitive_names: names,
        // The paper uses no lexicon for VG; the primitive domain is the
        // object annotations themselves.
        lexicon: Vec::new(),
        class_prior_pos,
    };
    ds.validate();
    ds
}

fn pick_name(list: &[&str], idx: usize) -> String {
    if idx < list.len() {
        list[idx].to_string()
    } else {
        format!("{}{}", list[idx % list.len()], idx / list.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Rows;
    use nemo_sparse::Distance;

    fn tiny_spec() -> SceneGenSpec {
        SceneGenSpec {
            name: "TinyVG".into(),
            mixture: MixtureConfig {
                n_clusters: 3,
                n_shared: 25,
                n_background_per_cluster: 15,
                n_indicators: 12,
                indicator_tokens: (1, 2, 4),
                background_tokens: (2, 5, 9),
                shared_tokens: (1, 3, 6),
                ..MixtureConfig::default()
            },
            feature_dim: 16,
            label_offset: 0.25,
            noise_sigma: 0.35,
            n_train: 300,
            n_valid: 60,
            n_test: 60,
            primitive_df_bounds: (2, 0.5),
        }
    }

    #[test]
    fn builds_valid_dataset() {
        let ds = generate_scenes(&tiny_spec(), 5);
        ds.validate();
        assert_eq!(ds.train.n(), 300);
        assert!(ds.train.features.dense().is_some());
        assert_eq!(ds.train.features.dim(), 16);
        assert!(ds.lexicon.is_empty());
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate_scenes(&tiny_spec(), 9);
        let b = generate_scenes(&tiny_spec(), 9);
        assert_eq!(a.train.labels, b.train.labels);
        let ra = a.train.features.dense().unwrap().row(0);
        let rb = b.train.features.dense().unwrap().row(0);
        assert_eq!(ra, rb);
    }

    #[test]
    fn same_cluster_scenes_are_closer_in_embedding_space() {
        let ds = generate_scenes(&tiny_spec(), 5);
        let d = ds.train.features.distances(Distance::Euclidean, 0, &ds.train.features, Rows::All);
        let c0 = ds.train.clusters[0];
        let (mut same, mut diff) = (Vec::new(), Vec::new());
        for (i, &di) in d.iter().enumerate().skip(1) {
            if ds.train.clusters[i] == c0 {
                same.push(di);
            } else {
                diff.push(di);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&same) < mean(&diff));
    }

    #[test]
    fn object_names_curated_for_indicators() {
        let ds = generate_scenes(&tiny_spec(), 5);
        let model_like_curated =
            ds.primitive_names.iter().filter(|n| !n.starts_with("obj_")).count();
        assert_eq!(model_like_curated, 12); // n_indicators
    }

    #[test]
    fn label_signal_present_in_features() {
        // The mean projection onto (mu_pos - mu_neg) should separate
        // classes; verify class-conditional means differ.
        let ds = generate_scenes(&tiny_spec(), 5);
        let dense = ds.train.features.dense().unwrap();
        let dim = dense.n_cols();
        let mut mu = [vec![0.0f64; dim], vec![0.0f64; dim]];
        let mut counts = [0usize; 2];
        for i in 0..ds.train.n() {
            let li = ds.train.labels[i].index();
            counts[li] += 1;
            for (j, &v) in dense.row(i).iter().enumerate() {
                mu[li][j] += v as f64;
            }
        }
        let mut gap = 0.0;
        for (m1, m0) in mu[1].iter().zip(&mu[0]).take(dim) {
            let d = m1 / counts[1] as f64 - m0 / counts[0] as f64;
            gap += d * d;
        }
        assert!(gap.sqrt() > 0.2, "class-mean gap {}", gap.sqrt());
    }
}
