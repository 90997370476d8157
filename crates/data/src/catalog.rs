//! Named dataset catalog matching the paper's Table 1.
//!
//! | Task          | Dataset | #Train | #Valid | #Test |
//! |---------------|---------|--------|--------|-------|
//! | Sentiment     | Amazon  | 14,400 | 1,800  | 1,800 |
//! | Sentiment     | Yelp    | 20,000 | 2,500  | 2,500 |
//! | Sentiment     | IMDB    | 20,000 | 2,500  | 2,500 |
//! | Spam          | Youtube | 1,566  | 195    | 195   |
//! | Spam          | SMS     | 4,458  | 557    | 557   |
//! | Visual Rel.   | VG      | 5,084  | 635    | 635   |
//!
//! Every dataset is generated synthetically; sizes, class balance, and
//! metric follow the paper. [`Profile`] scales the split sizes down for
//! fast smoke/bench runs without changing the vocabulary or the
//! statistical structure.

use crate::dataset::Dataset;
use crate::mixture::MixtureConfig;
use crate::scenegen::{generate_scenes, SceneGenSpec};
use crate::textgen::{generate_text, TextGenSpec, HAM_WORDS, NEG_WORDS, POS_WORDS, SPAM_WORDS};
use nemo_lf::Metric;

/// The six evaluation datasets of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetName {
    /// Amazon product reviews (sentiment; 4 product categories).
    Amazon,
    /// Yelp reviews (sentiment; 5 venue categories).
    Yelp,
    /// IMDB movie reviews (sentiment; 3 genre clusters, longer docs).
    Imdb,
    /// Youtube comment spam.
    Youtube,
    /// SMS spam (imbalanced, F1 metric).
    Sms,
    /// Visual Genome "carrying vs riding" relation classification.
    Vg,
}

impl DatasetName {
    /// All datasets, in the paper's table order.
    pub const ALL: [DatasetName; 6] = [
        DatasetName::Amazon,
        DatasetName::Yelp,
        DatasetName::Imdb,
        DatasetName::Youtube,
        DatasetName::Sms,
        DatasetName::Vg,
    ];

    /// Display name.
    pub fn as_str(self) -> &'static str {
        match self {
            DatasetName::Amazon => "Amazon",
            DatasetName::Yelp => "Yelp",
            DatasetName::Imdb => "IMDB",
            DatasetName::Youtube => "Youtube",
            DatasetName::Sms => "SMS",
            DatasetName::Vg => "VG",
        }
    }

    /// Table 1 split sizes `(train, valid, test)`.
    pub fn paper_sizes(self) -> (usize, usize, usize) {
        match self {
            DatasetName::Amazon => (14_400, 1_800, 1_800),
            DatasetName::Yelp => (20_000, 2_500, 2_500),
            DatasetName::Imdb => (20_000, 2_500, 2_500),
            DatasetName::Youtube => (1_566, 195, 195),
            DatasetName::Sms => (4_458, 557, 557),
            DatasetName::Vg => (5_084, 635, 635),
        }
    }

    /// Parse from a (case-insensitive) name.
    pub fn parse(s: &str) -> Option<DatasetName> {
        match s.to_ascii_lowercase().as_str() {
            "amazon" => Some(DatasetName::Amazon),
            "yelp" => Some(DatasetName::Yelp),
            "imdb" => Some(DatasetName::Imdb),
            "youtube" => Some(DatasetName::Youtube),
            "sms" => Some(DatasetName::Sms),
            "vg" => Some(DatasetName::Vg),
            _ => None,
        }
    }
}

/// Scale profile for experiment runs.
///
/// `Full` reproduces Table 1 sizes; `Quick` (the default for `cargo bench`)
/// uses 1/5-size splits; `Smoke` 1/20-size for CI-style runs. Vocabulary
/// and generator structure are unchanged, so the qualitative behaviour is
/// profile-invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Profile {
    /// ~1/20 split sizes.
    Smoke,
    /// ~1/5 split sizes.
    #[default]
    Quick,
    /// Paper (Table 1) split sizes.
    Full,
}

impl Profile {
    /// Read from the `NEMO_BENCH_PROFILE` environment variable
    /// (`smoke` / `quick` / `full`), defaulting to `Quick`.
    pub fn from_env() -> Profile {
        match std::env::var("NEMO_BENCH_PROFILE").ok().as_deref() {
            Some("smoke") => Profile::Smoke,
            Some("full") => Profile::Full,
            Some("quick") | None => Profile::Quick,
            Some(other) => {
                eprintln!("unknown NEMO_BENCH_PROFILE `{other}`; using quick");
                Profile::Quick
            }
        }
    }

    /// Profile display name.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Smoke => "smoke",
            Profile::Quick => "quick",
            Profile::Full => "full",
        }
    }

    /// Scale a paper split size down (with floors so tiny datasets stay
    /// usable).
    pub fn scale(self, n: usize, floor: usize) -> usize {
        let f = match self {
            Profile::Smoke => 0.05,
            Profile::Quick => 0.2,
            Profile::Full => 1.0,
        };
        ((n as f64 * f).round() as usize).max(floor.min(n))
    }
}

fn sized(name: DatasetName, profile: Profile) -> (usize, usize, usize) {
    let (tr, va, te) = name.paper_sizes();
    (profile.scale(tr, 400), profile.scale(va, 100), profile.scale(te, 100))
}

/// Build a catalog dataset at a scale profile. Deterministic in `seed`.
pub fn build(name: DatasetName, profile: Profile, seed: u64) -> Dataset {
    match text_spec(name, profile) {
        Some(spec) => generate_text(&spec, seed),
        None => generate_scenes(&vg_spec(profile), seed),
    }
}

/// The generator spec of a text dataset at a scale profile; `None` for
/// VG, the one scene dataset.
pub(crate) fn text_spec(name: DatasetName, profile: Profile) -> Option<TextGenSpec> {
    let (n_train, n_valid, n_test) = sized(name, profile);
    let spec = match name {
        DatasetName::Amazon => TextGenSpec {
            name: "Amazon".into(),
            metric: Metric::Accuracy,
            mixture: MixtureConfig {
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
            },
            n_train,
            n_valid,
            n_test,
            expose_lexicon: true,
            primitive_df_bounds: (3, 0.15),
            pos_words: POS_WORDS,
            neg_words: NEG_WORDS,
        },
        DatasetName::Yelp => TextGenSpec {
            name: "Yelp".into(),
            metric: Metric::Accuracy,
            mixture: MixtureConfig {
                n_clusters: 5,
                n_shared: 450,
                n_background_per_cluster: 200,
                n_indicators: 180,
                home_affinity: 2.5,
                agreement_home: 0.88,
                agreement_away: 0.63,
                flip_prob: 0.18,
                pos_prior: 0.5,
                indicator_tokens: (2, 5, 9),
                background_tokens: (8, 16, 30),
                shared_tokens: (5, 12, 22),
                ..MixtureConfig::default()
            },
            n_train,
            n_valid,
            n_test,
            expose_lexicon: true,
            primitive_df_bounds: (3, 0.15),
            pos_words: POS_WORDS,
            neg_words: NEG_WORDS,
        },
        DatasetName::Imdb => TextGenSpec {
            name: "IMDB".into(),
            metric: Metric::Accuracy,
            mixture: MixtureConfig {
                n_clusters: 3,
                n_shared: 550,
                n_background_per_cluster: 280,
                n_indicators: 150,
                home_affinity: 2.5,
                agreement_home: 0.88,
                agreement_away: 0.68,
                flip_prob: 0.12,
                pos_prior: 0.5,
                indicator_tokens: (2, 5, 10),
                background_tokens: (10, 20, 36),
                shared_tokens: (6, 14, 26),
                ..MixtureConfig::default()
            },
            n_train,
            n_valid,
            n_test,
            expose_lexicon: true,
            primitive_df_bounds: (3, 0.15),
            pos_words: POS_WORDS,
            neg_words: NEG_WORDS,
        },
        DatasetName::Youtube => TextGenSpec {
            name: "Youtube".into(),
            metric: Metric::Accuracy,
            mixture: MixtureConfig {
                n_clusters: 3,
                n_shared: 250,
                n_background_per_cluster: 120,
                n_indicators: 80,
                home_affinity: 2.5,
                agreement_home: 0.92,
                agreement_away: 0.68,
                flip_prob: 0.10,
                pos_prior: 0.48,
                indicator_tokens: (2, 3, 6),
                background_tokens: (5, 9, 16),
                shared_tokens: (3, 8, 14),
                ..MixtureConfig::default()
            },
            n_train,
            n_valid,
            n_test,
            // Spam tasks have no external opinion lexicon in the paper.
            expose_lexicon: false,
            primitive_df_bounds: (3, 0.15),
            pos_words: SPAM_WORDS,
            neg_words: HAM_WORDS,
        },
        DatasetName::Sms => TextGenSpec {
            name: "SMS".into(),
            metric: Metric::F1,
            mixture: MixtureConfig {
                n_clusters: 2,
                n_shared: 280,
                n_background_per_cluster: 140,
                n_indicators: 70,
                home_affinity: 2.5,
                agreement_home: 0.95,
                agreement_away: 0.72,
                flip_prob: 0.08,
                // SMS spam is heavily imbalanced (~13% spam).
                pos_prior: 0.13,
                indicator_tokens: (2, 3, 5),
                background_tokens: (4, 7, 13),
                shared_tokens: (3, 6, 11),
                ..MixtureConfig::default()
            },
            n_train,
            n_valid,
            n_test,
            expose_lexicon: false,
            primitive_df_bounds: (3, 0.15),
            pos_words: SPAM_WORDS,
            neg_words: HAM_WORDS,
        },
        DatasetName::Vg => return None,
    };
    Some(spec)
}

/// The VG scene spec at a scale profile.
fn vg_spec(profile: Profile) -> SceneGenSpec {
    let (n_train, n_valid, n_test) = sized(DatasetName::Vg, profile);
    SceneGenSpec {
        name: "VG".into(),
        mixture: MixtureConfig {
            n_clusters: 4,
            n_shared: 100,
            n_background_per_cluster: 70,
            n_indicators: 64,
            home_affinity: 2.5,
            agreement_home: 0.85,
            agreement_away: 0.62,
            flip_prob: 0.15,
            pos_prior: 0.5,
            indicator_tokens: (2, 3, 6),
            background_tokens: (4, 8, 14),
            shared_tokens: (3, 6, 11),
            ..MixtureConfig::default()
        },
        feature_dim: 64,
        label_offset: 0.20,
        noise_sigma: 0.38,
        n_train,
        n_valid,
        n_test,
        primitive_df_bounds: (3, 0.15),
    }
}

/// The toy 4-cluster sentiment dataset of Figures 3, 6, and 7: four
/// "product categories", tiny vocabulary, strongly localized indicators.
pub fn toy_text(seed: u64) -> Dataset {
    generate_text(&toy_text_spec(), seed)
}

/// The generator spec behind [`toy_text`].
pub(crate) fn toy_text_spec() -> TextGenSpec {
    TextGenSpec {
        name: "Toy".into(),
        metric: Metric::Accuracy,
        mixture: MixtureConfig {
            n_clusters: 4,
            // Two dominant clusters + two small ones (the Fig. 6 setup).
            cluster_weights: vec![0.4, 0.4, 0.1, 0.1],
            n_shared: 40,
            n_background_per_cluster: 30,
            n_indicators: 24,
            home_affinity: 3.0,
            agreement_home: 0.92,
            agreement_away: 0.64,
            flip_prob: 0.2,
            pos_prior: 0.5,
            indicator_tokens: (2, 3, 5),
            background_tokens: (4, 8, 14),
            shared_tokens: (3, 6, 10),
            ..MixtureConfig::default()
        },
        n_train: 800,
        n_valid: 150,
        n_test: 150,
        expose_lexicon: true,
        primitive_df_bounds: (3, 0.25),
        pos_words: POS_WORDS,
        neg_words: NEG_WORDS,
    }
}

/// A 2-D toy scene dataset for the Figure 3 scatter illustration.
pub fn toy_scene_2d(seed: u64) -> Dataset {
    generate_scenes(
        &SceneGenSpec {
            name: "Toy2D".into(),
            mixture: MixtureConfig {
                n_clusters: 4,
                n_shared: 20,
                n_background_per_cluster: 15,
                n_indicators: 16,
                home_affinity: 8.0,
                agreement_home: 0.92,
                agreement_away: 0.70,
                flip_prob: 0.3,
                pos_prior: 0.5,
                indicator_tokens: (1, 2, 3),
                background_tokens: (2, 4, 8),
                shared_tokens: (1, 3, 6),
                ..MixtureConfig::default()
            },
            feature_dim: 2,
            label_offset: 0.10,
            noise_sigma: 0.18,
            n_train: 400,
            n_valid: 80,
            n_test: 80,
            primitive_df_bounds: (2, 0.3),
        },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_match_table1() {
        assert_eq!(DatasetName::Amazon.paper_sizes(), (14_400, 1_800, 1_800));
        assert_eq!(DatasetName::Yelp.paper_sizes(), (20_000, 2_500, 2_500));
        assert_eq!(DatasetName::Imdb.paper_sizes(), (20_000, 2_500, 2_500));
        assert_eq!(DatasetName::Youtube.paper_sizes(), (1_566, 195, 195));
        assert_eq!(DatasetName::Sms.paper_sizes(), (4_458, 557, 557));
        assert_eq!(DatasetName::Vg.paper_sizes(), (5_084, 635, 635));
    }

    #[test]
    fn parse_names() {
        assert_eq!(DatasetName::parse("amazon"), Some(DatasetName::Amazon));
        assert_eq!(DatasetName::parse("VG"), Some(DatasetName::Vg));
        assert_eq!(DatasetName::parse("nope"), None);
    }

    #[test]
    fn full_profile_is_identity() {
        assert_eq!(Profile::Full.scale(14_400, 400), 14_400);
    }

    #[test]
    fn smoke_profile_floors() {
        // Youtube train (1566) at 5% = 78 → floored to 400.
        assert_eq!(Profile::Smoke.scale(1_566, 400), 400);
        // Floor never exceeds the paper size.
        assert_eq!(Profile::Smoke.scale(150, 400), 150);
    }

    #[test]
    fn builds_every_dataset_at_smoke_scale() {
        for name in DatasetName::ALL {
            let ds = build(name, Profile::Smoke, 3);
            ds.validate();
            assert_eq!(ds.name, name.as_str());
            assert!(ds.train.n() >= 150, "{:?} too small", name);
        }
    }

    #[test]
    fn sms_is_imbalanced_and_f1() {
        let ds = build(DatasetName::Sms, Profile::Smoke, 3);
        assert_eq!(ds.metric, Metric::F1);
        assert!(ds.train.pos_frac() < 0.25, "pos frac {}", ds.train.pos_frac());
    }

    #[test]
    fn vg_is_dense_without_lexicon() {
        let ds = build(DatasetName::Vg, Profile::Smoke, 3);
        assert!(ds.train.features.dense().is_some());
        assert!(ds.lexicon.is_empty());
    }

    #[test]
    fn sentiment_datasets_have_lexicons() {
        for name in [DatasetName::Amazon, DatasetName::Yelp, DatasetName::Imdb] {
            let ds = build(name, Profile::Smoke, 3);
            assert!(!ds.lexicon.is_empty(), "{name:?}");
        }
    }

    #[test]
    fn toy_datasets_build() {
        let t = toy_text(1);
        t.validate();
        assert_eq!(t.train.n(), 800);
        let s = toy_scene_2d(1);
        s.validate();
        assert_eq!(s.train.features.dim(), 2);
    }

    #[test]
    fn profile_from_env_default() {
        // Without the env var set, the default is Quick.
        std::env::remove_var("NEMO_BENCH_PROFILE");
        assert_eq!(Profile::from_env(), Profile::Quick);
    }
}
