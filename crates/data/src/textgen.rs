//! Text dataset generation: cluster-mixture process → readable token
//! streams → vocabulary and TF-IDF featurization → [`Dataset`].
//!
//! Indicator tokens are given curated human-readable names ("great",
//! "terrible", "delicious", …) so examples and LF printouts look like the
//! paper's keyword LFs; background/shared tokens keep synthetic names.
//!
//! The vocabulary is the one [`Vocab::build`] makes over the train
//! documents' names, but no name is compared per token occurrence: the
//! names are ranked once in sorted order, each train document's distinct
//! ranks are visited in ascending order, and the first sighting of a rank
//! adds its name to the vocabulary. Every split's token stream is then
//! mapped through the resulting `id_of[t]` table. Those are the ids
//! [`Vocab::encode_seq`] gives one materialized `String` per occurrence;
//! that string path is the tests' oracle. TF-IDF featurization then runs
//! on the ids as it would for any corpus, and the primitive-domain filter
//! reads the document frequencies the TF-IDF fit counted.

use crate::dataset::{Dataset, Features, Split};
use crate::mixture::{MixDoc, MixtureConfig, MixtureModel};
use nemo_lf::{Label, Metric, PrimitiveCorpus};
use nemo_sparse::DetRng;
use nemo_text::{TfIdf, Vocab};

/// Curated positive-sentiment indicator names.
pub const POS_WORDS: &[&str] = &[
    "great",
    "perfect",
    "delicious",
    "funny",
    "excellent",
    "amazing",
    "love",
    "wonderful",
    "fantastic",
    "awesome",
    "best",
    "enjoyable",
    "fresh",
    "crisp",
    "reliable",
    "fast",
    "beautiful",
    "comfy",
    "tasty",
    "brilliant",
    "smooth",
    "sturdy",
    "charming",
    "gripping",
    "vivid",
    "generous",
    "friendly",
    "cozy",
    "superb",
    "flawless",
];

/// Curated negative-sentiment indicator names.
pub const NEG_WORDS: &[&str] = &[
    "terrible",
    "awful",
    "bland",
    "boring",
    "broken",
    "horrible",
    "worst",
    "disappointing",
    "stale",
    "slow",
    "cheap",
    "flimsy",
    "rude",
    "dirty",
    "noisy",
    "predictable",
    "soggy",
    "defective",
    "useless",
    "annoying",
    "greasy",
    "dull",
    "clunky",
    "cramped",
    "leaky",
    "tasteless",
    "sloppy",
    "shallow",
    "overpriced",
    "buggy",
];

/// Curated spam-indicator names (positive class = spam).
pub const SPAM_WORDS: &[&str] = &[
    "free",
    "win",
    "winner",
    "prize",
    "cash",
    "claim",
    "urgent",
    "offer",
    "click",
    "subscribe",
    "txt",
    "congratulations",
    "guaranteed",
    "bonus",
    "discount",
    "deal",
    "unlock",
    "reward",
    "exclusive",
    "limited",
];

/// Curated ham-indicator names (negative class = legitimate message).
pub const HAM_WORDS: &[&str] = &[
    "meeting", "tomorrow", "thanks", "dinner", "home", "love", "later", "sorry", "call", "lunch",
    "okay", "morning", "night", "week", "friend", "family", "work", "school", "movie", "game",
];

/// Specification of a synthetic text dataset.
#[derive(Debug, Clone)]
pub struct TextGenSpec {
    /// Display name.
    pub name: String,
    /// Evaluation metric.
    pub metric: Metric,
    /// The underlying mixture process.
    pub mixture: MixtureConfig,
    /// Split sizes.
    pub n_train: usize,
    /// Validation size.
    pub n_valid: usize,
    /// Test size.
    pub n_test: usize,
    /// Whether the simulated user has a lexicon for this task (the paper
    /// uses an opinion lexicon for sentiment; none for spam/VG).
    pub expose_lexicon: bool,
    /// Primitive-domain document-frequency bounds `(min_df, max_df_frac)`:
    /// tokens outside them stay in the TF-IDF features but are excluded
    /// from the LF primitive domain `Z`. Standard practice for keyword-LF
    /// families — stopword-frequency tokens make degenerate LFs (huge
    /// coverage, chance accuracy) and rare tokens make useless ones.
    pub primitive_df_bounds: (usize, f64),
    /// Curated names for positive-polarity indicators.
    pub pos_words: &'static [&'static str],
    /// Curated names for negative-polarity indicators.
    pub neg_words: &'static [&'static str],
}

impl TextGenSpec {
    /// Total examples across splits.
    pub fn total(&self) -> usize {
        self.n_train + self.n_valid + self.n_test
    }
}

/// Assign a readable, unique name to every mixture token id.
fn token_names(model: &MixtureModel) -> Vec<String> {
    let vocab_size = model.vocab_size();
    let mut names = Vec::with_capacity(vocab_size);
    let (mut n_pos, mut n_neg) = (0usize, 0usize);
    for t in 0..vocab_size as u32 {
        if model.is_indicator(t) {
            let (list, idx): (&[&str], usize) = match model.indicator_base(t) {
                Label::Pos => {
                    let i = n_pos;
                    n_pos += 1;
                    (POS_WORDS, i)
                }
                Label::Neg => {
                    let i = n_neg;
                    n_neg += 1;
                    (NEG_WORDS, i)
                }
            };
            names.push(curated_name(list, idx));
        } else {
            names.push(model.token_name(t));
        }
    }
    names
}

/// `idx`-th unique name from a curated list (numeric suffix past the end).
fn curated_name(list: &[&str], idx: usize) -> String {
    if idx < list.len() {
        list[idx].to_string()
    } else {
        format!("{}{}", list[idx % list.len()], idx / list.len())
    }
}

/// The spec's mixture draw: the model, one readable name per mixture
/// token id, and the sampled train, valid and test documents.
fn draw(spec: &TextGenSpec, seed: u64) -> (MixtureModel, Vec<String>, [Vec<MixDoc>; 3]) {
    let mut rng = DetRng::new(seed ^ 0x7e87_9e0a_11b3_52cd);
    let model = MixtureModel::new(spec.mixture.clone(), &mut rng);

    // Curated naming for sentiment-style specs; spam specs substitute
    // their own lists through `pos_words`/`neg_words`.
    let mut names = token_names(&model);
    if spec.pos_words.as_ptr() != POS_WORDS.as_ptr()
        || spec.neg_words.as_ptr() != NEG_WORDS.as_ptr()
    {
        let (mut n_pos, mut n_neg) = (0usize, 0usize);
        for t in 0..model.vocab_size() as u32 {
            if model.is_indicator(t) {
                names[t as usize] = match model.indicator_base(t) {
                    Label::Pos => {
                        let i = n_pos;
                        n_pos += 1;
                        curated_name(spec.pos_words, i)
                    }
                    Label::Neg => {
                        let i = n_neg;
                        n_neg += 1;
                        curated_name(spec.neg_words, i)
                    }
                };
            }
        }
    }

    let mut train_rng = rng.fork(1);
    let mut valid_rng = rng.fork(2);
    let mut test_rng = rng.fork(3);
    let docs = [
        model.sample_docs(spec.n_train, &mut train_rng),
        model.sample_docs(spec.n_valid, &mut valid_rng),
        model.sample_docs(spec.n_test, &mut test_rng),
    ];
    (model, names, docs)
}

/// The corpus vocabulary, built over the train documents' token names,
/// and every split encoded as vocabulary ids (out-of-vocabulary tokens
/// dropped).
///
/// Names are compared once, to rank them: `rank[t]` is the position of
/// `names[t]` among the distinct names in sorted order. Each train
/// document's ranks, sorted and deduplicated, are its distinct names in
/// sorted `&str` order, so assigning ids to ranks in first-seen order
/// gives [`Vocab::build`]`(…, 1)` over the names, with one
/// [`Vocab::add`] per distinct name.
fn encode_splits(names: &[String], docs: &[Vec<MixDoc>; 3]) -> (Vocab, [Vec<Vec<u32>>; 3]) {
    let mut by_name: Vec<usize> = (0..names.len()).collect();
    by_name.sort_unstable_by(|&a, &b| names[a].cmp(&names[b]));
    let mut rank = vec![0u32; names.len()];
    let mut rank_name: Vec<&str> = Vec::new();
    for &t in &by_name {
        if rank_name.last() != Some(&names[t].as_str()) {
            rank_name.push(&names[t]);
        }
        rank[t] = (rank_name.len() - 1) as u32;
    }

    let mut vocab = Vocab::new();
    let mut id_of_rank: Vec<Option<u32>> = vec![None; rank_name.len()];
    let mut seen: Vec<u32> = Vec::new();
    for doc in &docs[0] {
        seen.clear();
        seen.extend(doc.tokens.iter().map(|&t| rank[t as usize]));
        seen.sort_unstable();
        seen.dedup();
        for &r in &seen {
            id_of_rank[r as usize].get_or_insert_with(|| vocab.add(rank_name[r as usize]));
        }
    }
    let id_of: Vec<Option<u32>> = rank.iter().map(|&r| id_of_rank[r as usize]).collect();
    let ids = docs.each_ref().map(|split| {
        split.iter().map(|d| d.tokens.iter().filter_map(|&t| id_of[t as usize]).collect()).collect()
    });
    (vocab, ids)
}

/// Generate a text dataset from a spec. Deterministic in `seed`.
pub fn generate_text(spec: &TextGenSpec, seed: u64) -> Dataset {
    let (model, names, docs) = draw(spec, seed);
    let (vocab, mut ids) = encode_splits(&names, &docs);
    // Token order within a document means nothing past this point: the
    // TF-IDF fit and transform and the primitive corpus each sort their
    // input, and already-sorted input makes those sorts cheap.
    for doc in ids.iter_mut().flatten() {
        doc.sort_unstable();
    }
    let [train_ids, valid_ids, test_ids] = ids;
    let [train_docs, valid_docs, test_docs] = docs;

    let tfidf = TfIdf::default().fit(&train_ids, vocab.len());

    // Primitive-domain df filter (on the training split's document
    // frequencies, which the TF-IDF fit counted).
    let (min_df, max_df_frac) = spec.primitive_df_bounds;
    let max_df = ((spec.n_train as f64) * max_df_frac).ceil() as usize;
    let in_domain = |t: u32| -> bool {
        let d = tfidf.df(t) as usize;
        d >= min_df && d <= max_df
    };

    let build_split = |ids: &[Vec<u32>], docs: &[MixDoc]| -> Split {
        let features = Features::from_csr(tfidf.transform(ids));
        let sets: Vec<Vec<u32>> =
            ids.iter().map(|doc| doc.iter().copied().filter(|&t| in_domain(t)).collect()).collect();
        let corpus = PrimitiveCorpus::new(sets, vocab.len());
        Split {
            labels: docs.iter().map(|d| d.label).collect(),
            features,
            corpus,
            clusters: docs.iter().map(|d| d.cluster).collect(),
        }
    };

    let train = build_split(&train_ids, &train_docs);
    let valid = build_split(&valid_ids, &valid_docs);
    let test = build_split(&test_ids, &test_docs);

    // Lexicon: vocabulary ids of indicator tokens (sorted), restricted to
    // the primitive domain.
    let lexicon = if spec.expose_lexicon {
        let mut lex: Vec<u32> = model
            .lexicon()
            .iter()
            .filter_map(|&t| vocab.id(&names[t as usize]))
            .filter(|&t| in_domain(t))
            .collect();
        lex.sort_unstable();
        lex.dedup();
        lex
    } else {
        Vec::new()
    };

    let class_prior_pos = valid.pos_frac();
    let primitive_names = vocab.tokens().to_vec();
    let n_primitives = vocab.len();

    let ds = Dataset {
        name: spec.name.clone(),
        metric: spec.metric,
        train,
        valid,
        test,
        n_primitives,
        primitive_names,
        lexicon,
        class_prior_pos,
    };
    ds.validate();
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> TextGenSpec {
        TextGenSpec {
            name: "Tiny".into(),
            metric: Metric::Accuracy,
            mixture: MixtureConfig {
                n_clusters: 2,
                n_shared: 30,
                n_background_per_cluster: 20,
                n_indicators: 10,
                ..MixtureConfig::default()
            },
            n_train: 200,
            n_valid: 40,
            n_test: 40,
            expose_lexicon: true,
            primitive_df_bounds: (2, 0.5),
            pos_words: POS_WORDS,
            neg_words: NEG_WORDS,
        }
    }

    #[test]
    fn generates_consistent_dataset() {
        let ds = generate_text(&tiny_spec(), 42);
        assert_eq!(ds.train.n(), 200);
        assert_eq!(ds.valid.n(), 40);
        assert_eq!(ds.test.n(), 40);
        assert!(ds.n_primitives > 0);
        assert!(!ds.lexicon.is_empty());
        ds.validate();
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate_text(&tiny_spec(), 7);
        let b = generate_text(&tiny_spec(), 7);
        assert_eq!(a.n_primitives, b.n_primitives);
        assert_eq!(a.train.labels, b.train.labels);
        assert_eq!(a.lexicon, b.lexicon);
        for i in 0..a.train.n() {
            assert_eq!(a.train.corpus.primitives_of(i), b.train.corpus.primitives_of(i));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_text(&tiny_spec(), 1);
        let b = generate_text(&tiny_spec(), 2);
        assert_ne!(a.train.labels, b.train.labels);
    }

    #[test]
    fn lexicon_words_are_readable() {
        let ds = generate_text(&tiny_spec(), 42);
        for &z in &ds.lexicon {
            let name = ds.primitive_name(z);
            assert!(
                !name.starts_with("sh") && !name.starts_with("bg"),
                "lexicon word {name} should be curated"
            );
        }
    }

    #[test]
    fn lexicon_lfs_beat_chance() {
        use nemo_lf::PrimitiveLf;
        let ds = generate_text(&tiny_spec(), 42);
        // For every lexicon word, the better-polarity LF should exceed 50%
        // accuracy on average (indicators are class-correlated).
        let mut accs = Vec::new();
        for &z in &ds.lexicon {
            let best = Label::ALL
                .iter()
                .filter_map(|&y| {
                    PrimitiveLf::new(z, y).accuracy_against(&ds.train.corpus, &ds.train.labels)
                })
                .fold(0.0f64, f64::max);
            if best > 0.0 {
                accs.push(best);
            }
        }
        let mean = accs.iter().sum::<f64>() / accs.len() as f64;
        assert!(mean > 0.65, "mean best-polarity lexicon LF accuracy {mean}");
    }

    #[test]
    fn features_unit_norm() {
        let ds = generate_text(&tiny_spec(), 42);
        for row in ds.train.features.csr().rows().take(20) {
            if row.nnz() > 0 {
                assert!((row.l2_norm() - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn no_lexicon_when_disabled() {
        let spec = TextGenSpec { expose_lexicon: false, ..tiny_spec() };
        let ds = generate_text(&spec, 42);
        assert!(ds.lexicon.is_empty());
    }

    /// Reference for [`encode_splits`]: the materialized string path, one
    /// `String` per token occurrence, [`Vocab::build`] over the train
    /// strings and [`Vocab::encode_seq`] per document.
    fn encode_splits_via_strings(
        names: &[String],
        docs: &[Vec<MixDoc>; 3],
    ) -> (Vocab, [Vec<Vec<u32>>; 3]) {
        let strs: [Vec<Vec<String>>; 3] = docs.each_ref().map(|split| {
            split
                .iter()
                .map(|d| d.tokens.iter().map(|&t| names[t as usize].clone()).collect())
                .collect()
        });
        let vocab = Vocab::build(strs[0].iter().map(|d| d.iter().map(String::as_str)), 1);
        let ids = strs.each_ref().map(|split| split.iter().map(|d| vocab.encode_seq(d)).collect());
        (vocab, ids)
    }

    #[test]
    fn encoding_equals_materialized_string_path() {
        use crate::catalog::{text_spec, toy_text_spec, DatasetName, Profile};
        let specs = [toy_text_spec(), text_spec(DatasetName::Amazon, Profile::Smoke).unwrap()];
        let mut dropped = 0;
        for (spec, seed) in specs.iter().zip([1, 2]) {
            let (_, names, docs) = draw(spec, seed);
            let (vocab, ids) = encode_splits(&names, &docs);
            let (want_vocab, want_ids) = encode_splits_via_strings(&names, &docs);
            assert_eq!(vocab.tokens(), want_vocab.tokens(), "{}", spec.name);
            assert_eq!(ids, want_ids, "{}", spec.name);
            let occurrences: usize = docs.iter().flatten().map(|d| d.tokens.len()).sum();
            dropped += occurrences - ids.iter().flatten().map(Vec::len).sum::<usize>();
        }
        // Valid/test tokens unseen in train are dropped on both paths.
        assert!(dropped > 0, "no out-of-vocabulary token exercised");
    }

    #[test]
    fn curated_name_suffixes_past_list_end() {
        assert_eq!(curated_name(&["a", "b"], 0), "a");
        assert_eq!(curated_name(&["a", "b"], 2), "a1");
        assert_eq!(curated_name(&["a", "b"], 5), "b2");
    }

    #[test]
    fn same_cluster_docs_are_closer() {
        use crate::dataset::Rows;
        use nemo_sparse::Distance;
        let ds = generate_text(&tiny_spec(), 42);
        let dists = ds.train.features.distances(Distance::Cosine, 0, &ds.train.features, Rows::All);
        let c0 = ds.train.clusters[0];
        let (mut same, mut diff) = (Vec::new(), Vec::new());
        for (i, &di) in dists.iter().enumerate().skip(1) {
            if ds.train.clusters[i] == c0 {
                same.push(di);
            } else {
                diff.push(di);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&same) < mean(&diff),
            "same-cluster mean {} should be below cross-cluster mean {}",
            mean(&same),
            mean(&diff)
        );
    }
}
