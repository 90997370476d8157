//! The shared cluster-mixture generative process.
//!
//! This is the statistical heart of the synthetic datasets: examples
//! belong to latent clusters (product categories / topics / scene
//! contexts), and three token populations compose each example:
//!
//! 1. **Shared neutral tokens** — common across clusters, label-independent.
//! 2. **Cluster background tokens** — cluster-specific, label-independent.
//!    These give same-cluster examples small feature distance (the locality
//!    that Figure 2 measures and the contextualizer exploits).
//! 3. **Indicator tokens** — class-indicative, each with a *base polarity*
//!    and a *home cluster*. In its home cluster an indicator agrees with
//!    the example label with probability `agreement_home`; away from home
//!    it either attenuates (`agreement_away`) or — with probability
//!    `flip_prob` per (indicator, cluster) pair — *flips* ("funny" is
//!    positive for Movies, negative for Food; Example 1.1).
//!
//! Indicator sampling also favors home-cluster indicators by a factor of
//! `home_affinity`, giving keyword LFs the coverage locality of Figure 2
//! (left panel) in addition to the accuracy locality (right panel).

use nemo_lf::Label;
use nemo_sparse::{DetRng, WeightTable};

/// Configuration of the cluster-mixture process.
#[derive(Debug, Clone)]
pub struct MixtureConfig {
    /// Number of latent clusters.
    pub n_clusters: usize,
    /// Cluster sampling weights; empty means uniform.
    pub cluster_weights: Vec<f64>,
    /// Shared neutral vocabulary size.
    pub n_shared: usize,
    /// Cluster-specific background vocabulary size (per cluster).
    pub n_background_per_cluster: usize,
    /// Number of class-indicative tokens.
    pub n_indicators: usize,
    /// Sampling-weight multiplier for indicators in their home cluster.
    pub home_affinity: f64,
    /// P(indicator agrees with example label) in its home cluster.
    pub agreement_home: f64,
    /// Agreement in non-home, non-flipped clusters.
    pub agreement_away: f64,
    /// Probability an (indicator, away-cluster) pair is polarity-flipped,
    /// i.e. agreement becomes `1 − agreement_home` there.
    pub flip_prob: f64,
    /// Class prior `P(y = +1)`.
    pub pos_prior: f64,
    /// (min, mean, max) indicator tokens per example.
    pub indicator_tokens: (usize, usize, usize),
    /// (min, mean, max) background tokens per example.
    pub background_tokens: (usize, usize, usize),
    /// (min, mean, max) shared tokens per example.
    pub shared_tokens: (usize, usize, usize),
    /// Probability of flipping the recorded label (irreducible noise).
    pub label_noise: f64,
    /// Zipf exponent for background/shared token draws (0 = uniform).
    ///
    /// Real text is Zipfian: a few frequent words appear in most
    /// documents, giving document pairs graded TF-IDF overlap. Uniform
    /// draws over a large vocabulary make almost every pair share *zero*
    /// tokens, which degenerates all cosine distances to exactly 1.0 and
    /// with them every distance-percentile the contextualizer relies on.
    pub zipf_exponent: f64,
}

impl Default for MixtureConfig {
    fn default() -> Self {
        Self {
            n_clusters: 4,
            cluster_weights: Vec::new(),
            n_shared: 400,
            n_background_per_cluster: 250,
            n_indicators: 120,
            home_affinity: 6.0,
            agreement_home: 0.9,
            agreement_away: 0.75,
            flip_prob: 0.25,
            pos_prior: 0.5,
            indicator_tokens: (1, 3, 6),
            background_tokens: (4, 10, 20),
            shared_tokens: (3, 8, 16),
            label_noise: 0.0,
            zipf_exponent: 1.0,
        }
    }
}

/// Cumulative Zipf weights over `n` ranks: weight of rank `r` is
/// `1 / (r + 1)^s`. Sampling is a uniform draw located by binary search.
fn zipf_cumulative(n: usize, s: f64) -> Vec<f64> {
    let mut cum = Vec::with_capacity(n);
    let mut total = 0.0;
    for r in 0..n {
        total += 1.0 / ((r + 1) as f64).powf(s);
        cum.push(total);
    }
    cum
}

fn sample_cumulative(cum: &[f64], rng: &mut DetRng) -> usize {
    // invariant: callers build `cum` with at least one weight.
    let total = *cum.last().expect("non-empty cumulative table");
    let u = rng.uniform() * total;
    cum.partition_point(|&c| c < u).min(cum.len() - 1)
}

impl MixtureConfig {
    /// Total vocabulary size (shared + backgrounds + indicators).
    pub fn vocab_size(&self) -> usize {
        self.n_shared + self.n_clusters * self.n_background_per_cluster + self.n_indicators
    }

    /// First token id of the indicator block.
    pub fn indicator_offset(&self) -> usize {
        self.n_shared + self.n_clusters * self.n_background_per_cluster
    }
}

/// One generated example.
#[derive(Debug, Clone)]
pub struct MixDoc {
    /// Token ids (with multiplicity, shuffled).
    pub tokens: Vec<u32>,
    /// Ground-truth label.
    pub label: Label,
    /// Latent cluster.
    pub cluster: u32,
}

/// A materialized mixture model: config plus the sampled indicator table
/// (home clusters, base polarities, per-cluster effective agreements).
#[derive(Debug, Clone)]
pub struct MixtureModel {
    cfg: MixtureConfig,
    /// `home[i]` — home cluster of indicator `i`.
    home: Vec<u32>,
    /// `base[i]` — base polarity of indicator `i`.
    base: Vec<Label>,
    /// Indicator sampling weights per (cluster, label), at
    /// `indicator_weights[2 k + y.index()]`, each a [`WeightTable`] that
    /// [`DetRng::choose_from`] draws from by binary search: weight `i` is
    /// the home affinity of indicator `i` in cluster `k` times P(it
    /// matches label `y` there).
    indicator_weights: Vec<WeightTable>,
    /// Cumulative Zipf table for one background block.
    bg_cum: Vec<f64>,
    /// Cumulative Zipf table for the shared block.
    sh_cum: Vec<f64>,
}

impl MixtureModel {
    /// Materialize the indicator table from the config. Uses a dedicated
    /// RNG fork so that document sampling and table construction have
    /// independent streams.
    pub fn new(cfg: MixtureConfig, rng: &mut DetRng) -> Self {
        assert!(cfg.n_clusters >= 1, "need at least one cluster");
        assert!(
            cfg.cluster_weights.is_empty() || cfg.cluster_weights.len() == cfg.n_clusters,
            "cluster_weights length mismatch"
        );
        assert!((0.5..=1.0).contains(&cfg.agreement_home), "agreement_home in [0.5, 1]");
        assert!((0.0..=1.0).contains(&cfg.flip_prob));
        let mut table_rng = rng.fork(0x7A11);
        let n = cfg.n_indicators;
        let mut home = Vec::with_capacity(n);
        let mut base = Vec::with_capacity(n);
        // `agreement[i][k]` — P(indicator i agrees with label | cluster k).
        let mut agreement = Vec::with_capacity(n);
        for i in 0..n {
            // Round-robin home clusters and alternating base polarity keep
            // the design balanced across clusters and classes.
            let h = (i % cfg.n_clusters) as u32;
            let b = if (i / cfg.n_clusters) % 2 == 0 { Label::Pos } else { Label::Neg };
            let mut agr = Vec::with_capacity(cfg.n_clusters);
            for k in 0..cfg.n_clusters {
                if k as u32 == h {
                    agr.push(cfg.agreement_home);
                } else if table_rng.bernoulli(cfg.flip_prob) {
                    agr.push(1.0 - cfg.agreement_home);
                } else {
                    agr.push(cfg.agreement_away);
                }
            }
            home.push(h);
            base.push(b);
            agreement.push(agr);
        }
        let indicator_weights = (0..cfg.n_clusters as u32)
            .flat_map(|k| Label::ALL.map(|y| (k, y)))
            .map(|(k, y)| {
                let weights: Vec<f64> = (0..n)
                    .map(|i| {
                        let aff = if home[i] == k { cfg.home_affinity } else { 1.0 };
                        let agr = agreement[i][k as usize];
                        let match_prob = if base[i] == y { agr } else { 1.0 - agr };
                        aff * match_prob
                    })
                    .collect();
                WeightTable::new(&weights)
            })
            .collect();
        let bg_cum = zipf_cumulative(cfg.n_background_per_cluster, cfg.zipf_exponent);
        let sh_cum = zipf_cumulative(cfg.n_shared, cfg.zipf_exponent);
        Self { cfg, home, base, indicator_weights, bg_cum, sh_cum }
    }

    /// The configuration.
    pub fn config(&self) -> &MixtureConfig {
        &self.cfg
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.cfg.vocab_size()
    }

    /// Whether token id `t` is an indicator.
    pub fn is_indicator(&self, t: u32) -> bool {
        (t as usize) >= self.cfg.indicator_offset()
    }

    /// Indicator index of token `t` (panics if not an indicator).
    fn indicator_idx(&self, t: u32) -> usize {
        let off = self.cfg.indicator_offset();
        assert!((t as usize) >= off, "token {t} is not an indicator");
        t as usize - off
    }

    /// Token id of indicator `i`.
    pub fn indicator_token(&self, i: usize) -> u32 {
        (self.cfg.indicator_offset() + i) as u32
    }

    /// Base polarity of indicator token `t`.
    pub fn indicator_base(&self, t: u32) -> Label {
        self.base[self.indicator_idx(t)]
    }

    /// Home cluster of indicator token `t`.
    pub fn indicator_home(&self, t: u32) -> u32 {
        self.home[self.indicator_idx(t)]
    }

    /// All indicator token ids (sorted): the dataset "lexicon".
    pub fn lexicon(&self) -> Vec<u32> {
        (0..self.cfg.n_indicators).map(|i| self.indicator_token(i)).collect()
    }

    /// Canonical synthetic name for a token id.
    pub fn token_name(&self, t: u32) -> String {
        let t = t as usize;
        let cfg = &self.cfg;
        if t < cfg.n_shared {
            format!("sh{t}")
        } else if t < cfg.indicator_offset() {
            let rel = t - cfg.n_shared;
            let k = rel / cfg.n_background_per_cluster;
            let i = rel % cfg.n_background_per_cluster;
            format!("bg{k}_{i}")
        } else {
            format!("ind{}", t - cfg.indicator_offset())
        }
    }

    /// The indicator weight table of a document in `cluster` with `label`.
    fn indicator_table(&self, cluster: u32, label: Label) -> &WeightTable {
        &self.indicator_weights[2 * cluster as usize + label.index()]
    }

    /// Sample one example.
    pub fn sample_doc(&self, rng: &mut DetRng) -> MixDoc {
        let cfg = &self.cfg;
        let cluster = if cfg.cluster_weights.is_empty() {
            rng.index(cfg.n_clusters)
        } else {
            rng.choose_weighted(&cfg.cluster_weights)
        } as u32;
        let mut label = Label::from_bool(rng.bernoulli(cfg.pos_prior));

        let n_ind =
            rng.length(cfg.indicator_tokens.0, cfg.indicator_tokens.1, cfg.indicator_tokens.2);
        let n_bg =
            rng.length(cfg.background_tokens.0, cfg.background_tokens.1, cfg.background_tokens.2);
        let n_sh = rng.length(cfg.shared_tokens.0, cfg.shared_tokens.1, cfg.shared_tokens.2);

        let mut tokens: Vec<u32> = Vec::with_capacity(n_ind + n_bg + n_sh);

        // Indicator tokens: weight = affinity(home) × label-agreement factor.
        if cfg.n_indicators > 0 && n_ind > 0 {
            let table = self.indicator_table(cluster, label);
            for _ in 0..n_ind {
                let i = rng.choose_from(table);
                tokens.push(self.indicator_token(i));
            }
        }

        // Cluster background tokens (Zipf-weighted ranks).
        if cfg.n_background_per_cluster > 0 {
            let bg_off = cfg.n_shared + cluster as usize * cfg.n_background_per_cluster;
            for _ in 0..n_bg {
                tokens.push((bg_off + sample_cumulative(&self.bg_cum, rng)) as u32);
            }
        }

        // Shared tokens (Zipf-weighted ranks).
        if cfg.n_shared > 0 {
            for _ in 0..n_sh {
                tokens.push(sample_cumulative(&self.sh_cum, rng) as u32);
            }
        }

        rng.shuffle(&mut tokens);

        if cfg.label_noise > 0.0 && rng.bernoulli(cfg.label_noise) {
            label = label.flip();
        }

        MixDoc { tokens, label, cluster }
    }

    /// Sample `n` examples.
    pub fn sample_docs(&self, n: usize, rng: &mut DetRng) -> Vec<MixDoc> {
        (0..n).map(|_| self.sample_doc(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MixtureConfig {
        MixtureConfig {
            n_clusters: 3,
            n_shared: 20,
            n_background_per_cluster: 15,
            n_indicators: 12,
            ..MixtureConfig::default()
        }
    }

    #[test]
    fn vocab_layout() {
        let cfg = small_cfg();
        assert_eq!(cfg.vocab_size(), 20 + 45 + 12);
        assert_eq!(cfg.indicator_offset(), 65);
        let mut rng = DetRng::new(1);
        let m = MixtureModel::new(cfg, &mut rng);
        assert!(!m.is_indicator(64));
        assert!(m.is_indicator(65));
        assert_eq!(m.token_name(0), "sh0");
        assert_eq!(m.token_name(20), "bg0_0");
        assert_eq!(m.token_name(35), "bg1_0");
        assert_eq!(m.token_name(65), "ind0");
    }

    #[test]
    fn indicator_table_balanced() {
        let mut rng = DetRng::new(2);
        let m = MixtureModel::new(small_cfg(), &mut rng);
        // Round-robin homes.
        assert_eq!(m.indicator_home(m.indicator_token(0)), 0);
        assert_eq!(m.indicator_home(m.indicator_token(1)), 1);
        assert_eq!(m.indicator_home(m.indicator_token(3)), 0);
        // Both polarities occur.
        let lex = m.lexicon();
        let pos = lex.iter().filter(|&&t| m.indicator_base(t) == Label::Pos).count();
        assert!(pos > 0 && pos < lex.len());
        // Indicator 0 (home cluster 0, base Pos) is weighted by the home
        // affinity times the configured home agreement.
        let (aff, agr) = (m.cfg.home_affinity, m.cfg.agreement_home);
        assert_eq!(m.indicator_table(0, Label::Pos).weights()[0], aff * agr);
        assert_eq!(m.indicator_table(0, Label::Neg).weights()[0], aff * (1.0 - agr));
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = small_cfg();
        let mut r1 = DetRng::new(33);
        let mut r2 = DetRng::new(33);
        let m1 = MixtureModel::new(cfg.clone(), &mut r1);
        let m2 = MixtureModel::new(cfg, &mut r2);
        let d1 = m1.sample_docs(20, &mut r1);
        let d2 = m2.sample_docs(20, &mut r2);
        for (a, b) in d1.iter().zip(&d2) {
            assert_eq!(a.tokens, b.tokens);
            assert_eq!(a.label, b.label);
            assert_eq!(a.cluster, b.cluster);
        }
    }

    #[test]
    fn class_prior_respected() {
        let cfg = MixtureConfig { pos_prior: 0.2, ..small_cfg() };
        let mut rng = DetRng::new(5);
        let m = MixtureModel::new(cfg, &mut rng);
        let docs = m.sample_docs(5000, &mut rng);
        let pos = docs.iter().filter(|d| d.label == Label::Pos).count() as f64 / 5000.0;
        assert!((pos - 0.2).abs() < 0.03, "pos frac {pos}");
    }

    #[test]
    fn indicator_accuracy_matches_home_agreement() {
        let mut rng = DetRng::new(7);
        let m = MixtureModel::new(small_cfg(), &mut rng);
        let docs = m.sample_docs(30_000, &mut rng);
        // Average empirical accuracy of home-cluster coverage over all
        // indicators should approach agreement_home (0.9).
        let (mut correct, mut covered) = (0usize, 0usize);
        for d in &docs {
            for &t in &d.tokens {
                if m.is_indicator(t) && m.indicator_home(t) == d.cluster {
                    covered += 1;
                    if m.indicator_base(t) == d.label {
                        correct += 1;
                    }
                }
            }
        }
        let acc = correct as f64 / covered as f64;
        assert!((acc - 0.9).abs() < 0.03, "home accuracy {acc}");
    }

    #[test]
    fn indicator_coverage_localized_to_home() {
        let mut rng = DetRng::new(9);
        let m = MixtureModel::new(small_cfg(), &mut rng);
        let docs = m.sample_docs(20_000, &mut rng);
        // Indicators should appear in their home cluster far more often
        // than chance (1/3 of docs are in any given cluster).
        let (mut home_hits, mut total_hits) = (0usize, 0usize);
        for d in &docs {
            for &t in &d.tokens {
                if m.is_indicator(t) {
                    total_hits += 1;
                    if m.indicator_home(t) == d.cluster {
                        home_hits += 1;
                    }
                }
            }
        }
        let home_frac = home_hits as f64 / total_hits as f64;
        assert!(home_frac > 0.55, "home coverage fraction {home_frac} should exceed chance 0.33");
    }

    #[test]
    fn label_noise_flips_labels() {
        let cfg = MixtureConfig { label_noise: 1.0, pos_prior: 1.0, ..small_cfg() };
        let mut rng = DetRng::new(11);
        let m = MixtureModel::new(cfg, &mut rng);
        let docs = m.sample_docs(50, &mut rng);
        assert!(docs.iter().all(|d| d.label == Label::Neg));
    }

    #[test]
    fn cluster_weights_respected() {
        let cfg = MixtureConfig { cluster_weights: vec![0.8, 0.1, 0.1], ..small_cfg() };
        let mut rng = DetRng::new(13);
        let m = MixtureModel::new(cfg, &mut rng);
        let docs = m.sample_docs(5000, &mut rng);
        let c0 = docs.iter().filter(|d| d.cluster == 0).count() as f64 / 5000.0;
        assert!((c0 - 0.8).abs() < 0.03, "cluster-0 frac {c0}");
    }

    #[test]
    fn doc_lengths_in_bounds() {
        let cfg = small_cfg();
        let (lo, hi) = (
            cfg.indicator_tokens.0 + cfg.background_tokens.0 + cfg.shared_tokens.0,
            cfg.indicator_tokens.2 + cfg.background_tokens.2 + cfg.shared_tokens.2,
        );
        let mut rng = DetRng::new(17);
        let m = MixtureModel::new(cfg, &mut rng);
        for d in m.sample_docs(500, &mut rng) {
            assert!((lo..=hi).contains(&d.tokens.len()), "len {}", d.tokens.len());
        }
    }
}
