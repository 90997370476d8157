//! Triplet (method-of-moments) label model — FlyingSquid \[11\].
//!
//! Under the conditionally-independent binary model with symmetric
//! accuracies and balanced classes, the pairwise agreement moment between
//! two LFs on their jointly-covered examples factorizes:
//!
//! ```text
//! M_jk := E[λ_j λ_k | λ_j ≠ 0, λ_k ≠ 0] = (2a_j − 1)(2a_k − 1)
//! ```
//!
//! so any *triplet* `(j, k, l)` identifies LF `j`'s accuracy in closed form:
//!
//! ```text
//! |2a_j − 1| = sqrt(|M_jk · M_jl / M_kl|)
//! ```
//!
//! with the sign fixed by the better-than-random assumption `a_j > 0.5`.
//! The estimator averages over all informative triplets and falls back to a
//! default accuracy for LFs without enough overlap signal. Aggregation then
//! uses the shared naive-Bayes rule.

use crate::traits::{FittedLabelModel, LabelModel, NaiveBayesFit};
use nemo_lf::{LabelMatrix, LfColumn};

/// Index of the column pair `(j, k)`, `j < k`, in [`PairCounts`]'
/// triangular storage. Pairs are grouped by their larger column, so
/// appending column `m` appends its `m` pairs at the end and truncating
/// to `m` columns truncates the storage to `m(m−1)/2` entries.
fn tri(j: usize, k: usize) -> usize {
    debug_assert!(j < k);
    k * (k - 1) / 2 + j
}

/// Number of column pairs among `m` columns.
fn n_pairs(m: usize) -> usize {
    m * m.saturating_sub(1) / 2
}

/// Pairwise co-vote counts of a label matrix, kept in step with it by
/// [`PairCounts::sync`].
///
/// For every column pair `j < k` it stores how many examples both columns
/// vote on (`total`) and on how many of those they agree (`agree`) —
/// integers, in triangular storage (8 bytes per pair). These are all the
/// data the triplet moments read, so a fit from synced counts equals a fit
/// from scratch bit for bit.
///
/// Counts are keyed by each column's [`LfColumn::token`]: equal tokens
/// guarantee equal votes, so a sync recounts only the pairs touching a
/// column whose token changed, that was appended, or that was truncated
/// away. Each stale column is scattered once into a dense vote scratch,
/// and each of its pairs is counted by probing the other column's entries
/// against it, so a stale column costs `O(Σ coverage)` over the columns
/// it pairs with, with no per-pair merge. In an interactive session a
/// round appends one LF and serves every other refined column from the
/// contextualizer's cache with its token unchanged, so a sync recounts
/// `m − 1` pairs in one scatter and `m − 1` probes. The counts are `u32`:
/// an overlap is bounded by the number of examples, whose ids are `u32`.
/// [`PairCounts::default`] holds no columns, so its first sync counts
/// every pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairCounts {
    /// Token of each counted column, in column order.
    tokens: Vec<u64>,
    /// Examples on which the pair votes alike, at [`tri`]`(j, k)`.
    agree: Vec<u32>,
    /// Examples both columns of the pair cover, at [`tri`]`(j, k)`.
    total: Vec<u32>,
}

impl PairCounts {
    /// Number of columns the counts were last synced against.
    pub fn n_columns(&self) -> usize {
        self.tokens.len()
    }

    /// Bring the counts in step with `matrix`, returning the number of
    /// column pairs recounted: every pair touching a column whose token
    /// differs from the last sync or that is new. Columns past
    /// `matrix.n_lfs()` are dropped. An unchanged matrix costs `O(m)`
    /// token compares and recounts nothing; otherwise each stale column
    /// costs one scatter into an `n_examples` scratch plus one probe of
    /// every column it pairs with, `O(Σ coverage)` in all.
    pub fn sync(&mut self, matrix: &LabelMatrix) -> usize {
        let m = matrix.n_lfs();
        self.tokens.truncate(m);
        self.agree.truncate(n_pairs(m));
        self.total.truncate(n_pairs(m));
        let stale: Vec<bool> = matrix
            .columns()
            .enumerate()
            .map(|(j, col)| self.tokens.get(j) != Some(&col.token()))
            .collect();
        if !stale.contains(&true) {
            return 0;
        }
        self.tokens = matrix.columns().map(LfColumn::token).collect();
        self.agree.resize(n_pairs(m), 0);
        self.total.resize(n_pairs(m), 0);
        // Dense votes of the scattered column (0 = abstain); every other
        // entry is 0 between scatters.
        let mut dense = vec![0i8; matrix.n_examples()];
        let mut recounted = 0;
        for s in (0..m).filter(|&s| stale[s]) {
            let col = matrix.column(s).entries();
            for &(i, v) in col {
                dense[i as usize] = v;
            }
            // Each stale pair is counted once, at the scatter of its
            // first stale column: `s` pairs with every later column and
            // with every earlier column that is not stale (`s` itself is).
            for c in (0..m).filter(|&c| c > s || !stale[c]) {
                let (mut agree, mut total) = (0u32, 0u32);
                // Votes are ±1, so `d == v` implies `d != 0`.
                for &(i, v) in matrix.column(c).entries() {
                    let d = dense[i as usize];
                    total += u32::from(d != 0);
                    agree += u32::from(d == v);
                }
                let idx = if s < c { tri(s, c) } else { tri(c, s) };
                self.agree[idx] = agree;
                self.total[idx] = total;
                recounted += 1;
            }
            for &(i, _) in col {
                dense[i as usize] = 0;
            }
        }
        recounted
    }

    /// Agreement moment `E[λ_j λ_k | both vote]` of every pair, in
    /// triangular order (`0` for pairs with no overlap).
    fn moments(&self) -> Vec<f64> {
        self.agree
            .iter()
            .zip(&self.total)
            .map(|(&agree, &total)| {
                if total > 0 {
                    // Agreements minus disagreements, exact in i64.
                    (2 * i64::from(agree) - i64::from(total)) as f64 / f64::from(total)
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// Closed-form triplet label model.
///
/// # Degenerate inputs
///
/// Every LF without an informative triplet gets exactly
/// [`TripletModel::fallback_accuracy`] (the shrinkage anchor with no
/// evidence added). A triplet `(j, k, l)` is informative when all three
/// pairs overlap on at least [`TripletModel::min_overlap`] examples and
/// `|M_kl| ≥` [`TripletModel::min_moment`]. Hence:
///
/// - **fewer than 3 LFs**, **0 examples** and **all-abstain columns**:
///   every accuracy is `fallback_accuracy` (0.82 by default);
/// - **zero-overlap pairs** contribute nothing, and an LF all of whose
///   pairs are disjoint gets `fallback_accuracy`;
/// - **duplicated LFs** have moments of exactly 1, so each of their
///   triplet estimates is 1.0 and the shrunk average lies between the
///   anchor and 1.0 (0.947 for four copies of one 8-vote column);
/// - **LF pairs voting opposite classes everywhere** have moments of ±1
///   whose triplet products are again 1.0 under the better-than-random
///   sign convention, so they are estimated the same way (0.95 for two
///   such pairs on 12 examples, after the clamp).
///
/// Accuracies are clamped to [`NaiveBayesFit::ACC_CLAMP`] before
/// aggregation, so posteriors are finite in every case; uncovered
/// examples get the class prior.
#[derive(Debug, Clone)]
pub struct TripletModel {
    /// Minimum jointly-covered examples for a pair moment to be used.
    pub min_overlap: usize,
    /// Minimum |moment| in the denominator (avoids blow-up).
    pub min_moment: f64,
    /// Accuracy assigned when no informative triplet exists for an LF,
    /// and the shrinkage target for weakly-supported estimates.
    pub fallback_accuracy: f64,
    /// Pseudo-count strength of shrinkage toward `fallback_accuracy`.
    /// Triplet estimates are weighted by their minimum pairwise overlap
    /// (the moment's effective sample size), so estimates from a handful
    /// of co-covered examples barely move the anchor while estimates from
    /// hundreds dominate it — the role regularization plays in MeTaL's
    /// matrix-completion step.
    pub shrinkage: f64,
}

impl Default for TripletModel {
    fn default() -> Self {
        Self { min_overlap: 5, min_moment: 0.05, fallback_accuracy: 0.82, shrinkage: 10.0 }
    }
}

impl TripletModel {
    /// Per-LF accuracies from synced pair counts.
    fn accuracies(&self, counts: &PairCounts) -> Vec<f64> {
        let m = counts.n_columns();
        if m < 3 {
            return vec![self.fallback_accuracy; m];
        }
        let moments = counts.moments();
        let overlaps = &counts.total;
        let informative = |overlap: u32| overlap as usize >= self.min_overlap;
        // LF j's moments and overlaps against every other LF, gathered
        // once per j from the triangular storage.
        let mut moment_j = vec![0.0f64; m];
        let mut overlap_j = vec![0u32; m];
        let mut accuracies = Vec::with_capacity(m);
        for j in 0..m {
            for k in (0..m).filter(|&k| k != j) {
                let idx = if j < k { tri(j, k) } else { tri(k, j) };
                moment_j[k] = moments[idx];
                overlap_j[k] = overlaps[idx];
            }
            // Overlap-weighted average of triplet estimates, shrunk toward
            // the anchor by a pseudo-count.
            let mut weighted_sum = self.shrinkage * self.fallback_accuracy;
            let mut total_weight = self.shrinkage;
            for k in 0..m {
                if k == j || !informative(overlap_j[k]) {
                    continue;
                }
                for l in (k + 1)..m {
                    let kl = tri(k, l);
                    if l == j
                        || !informative(overlap_j[l])
                        || !informative(overlaps[kl])
                        || moments[kl].abs() < self.min_moment
                    {
                        continue;
                    }
                    let sq = (moment_j[k] * moment_j[l] / moments[kl]).abs();
                    let centered = sq.sqrt().min(1.0);
                    let estimate = 0.5 + centered / 2.0;
                    let w = f64::from(overlap_j[k].min(overlap_j[l]).min(overlaps[kl]));
                    weighted_sum += w * estimate;
                    total_weight += w;
                }
            }
            accuracies.push(weighted_sum / total_weight);
        }
        accuracies
    }
}

impl LabelModel for TripletModel {
    fn name(&self) -> &'static str {
        "triplet"
    }

    /// A fit from empty [`PairCounts`], which counts every pair once.
    fn fit(&self, matrix: &LabelMatrix, prior: [f64; 2]) -> Box<dyn FittedLabelModel> {
        self.fit_from(matrix, prior, &mut PairCounts::default())
    }

    /// Syncs `counts` to `matrix` (recounting only pairs whose columns
    /// changed) and estimates from them.
    fn fit_from(
        &self,
        matrix: &LabelMatrix,
        prior: [f64; 2],
        counts: &mut PairCounts,
    ) -> Box<dyn FittedLabelModel> {
        counts.sync(matrix);
        Box::new(NaiveBayesFit::new(self.accuracies(counts), prior))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_lf::{Label, LfColumn};
    use nemo_sparse::DetRng;
    use proptest::prelude::*;

    /// Co-vote counts of two sorted columns by merge join: `(agreements,
    /// overlap)` over the examples both cover. The oracle of
    /// [`PairCounts::sync`]'s scatter-and-probe counting.
    fn co_votes(a: &LfColumn, b: &LfColumn) -> (u32, u32) {
        let (a, b) = (a.entries(), b.entries());
        let (mut agree, mut total) = (0u32, 0u32);
        let (mut p, mut q) = (0usize, 0usize);
        while p < a.len() && q < b.len() {
            match a[p].0.cmp(&b[q].0) {
                std::cmp::Ordering::Less => p += 1,
                std::cmp::Ordering::Greater => q += 1,
                std::cmp::Ordering::Equal => {
                    total += 1;
                    agree += u32::from(a[p].1 == b[q].1);
                    p += 1;
                    q += 1;
                }
            }
        }
        (agree, total)
    }

    /// A column over `n` examples of the given shape: `0` empty, `1` a
    /// single entry, `2` about half coverage, `3` full coverage; votes are
    /// random ±1.
    fn shaped_column(n: usize, kind: u8, seed: u64) -> LfColumn {
        let mut rng = DetRng::new(seed);
        let vote = |rng: &mut DetRng| if rng.bernoulli(0.5) { 1 } else { -1 };
        let entries = match kind {
            0 => Vec::new(),
            1 if n > 0 => vec![((seed % n as u64) as u32, vote(&mut rng))],
            1 => Vec::new(),
            2 => {
                let mut entries = Vec::new();
                for i in 0..n as u32 {
                    if rng.bernoulli(0.5) {
                        entries.push((i, vote(&mut rng)));
                    }
                }
                entries
            }
            _ => (0..n as u32).map(|i| (i, vote(&mut rng))).collect(),
        };
        LfColumn::new(entries)
    }

    /// Every pair's synced counts equal the merge-join oracle's.
    fn check_oracle(counts: &PairCounts, matrix: &LabelMatrix) -> Result<(), String> {
        let m = matrix.n_lfs();
        prop_assert_eq!(counts.n_columns(), m);
        prop_assert_eq!(counts.agree.len(), n_pairs(m));
        prop_assert_eq!(counts.total.len(), n_pairs(m));
        for k in 1..m {
            for j in 0..k {
                let want = co_votes(matrix.column(j), matrix.column(k));
                let got = (counts.agree[tri(j, k)], counts.total[tri(j, k)]);
                prop_assert_eq!(got, want, "pair ({}, {}) of {} columns", j, k, m);
            }
        }
        Ok(())
    }

    fn matrix_of(n: usize, cols: &[LfColumn]) -> LabelMatrix {
        let mut matrix = LabelMatrix::new(n);
        for col in cols {
            matrix.push(col.clone());
        }
        matrix
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_synced_counts_equal_merge_join(
            drawn_n in 2usize..80,
            initial in proptest::collection::vec((0u8..4, 0u64..1_000_000), 0..9),
            appended in proptest::collection::vec((0u8..4, 0u64..1_000_000), 1..5),
            replacement in (0u8..4, 0u64..1_000_000),
        ) {
            // Every case also runs at 0 examples (all columns empty) and 1.
            for n in [0, 1, drawn_n] {
                let shape = |&(kind, seed): &(u8, u64)| shaped_column(n, kind, seed);
                let mut cols: Vec<LfColumn> = initial.iter().map(shape).collect();
                let mut counts = PairCounts::default();

                // Cold: every pair counted.
                let matrix = matrix_of(n, &cols);
                prop_assert_eq!(counts.sync(&matrix), n_pairs(cols.len()));
                check_oracle(&counts, &matrix)?;

                // Appends: only the new columns' pairs are recounted.
                let before = cols.len();
                cols.extend(appended.iter().map(shape));
                let matrix = matrix_of(n, &cols);
                prop_assert_eq!(counts.sync(&matrix), n_pairs(cols.len()) - n_pairs(before));
                check_oracle(&counts, &matrix)?;

                // A fresh-token replacement of a middle column.
                let mid = cols.len() / 2;
                cols[mid] = shape(&replacement);
                let matrix = matrix_of(n, &cols);
                prop_assert_eq!(counts.sync(&matrix), cols.len() - 1);
                check_oracle(&counts, &matrix)?;

                // Truncation to 2, 1 and 0 columns recounts nothing.
                for keep in [2, 1, 0] {
                    cols.truncate(keep);
                    let matrix = matrix_of(n, &cols);
                    prop_assert_eq!(counts.sync(&matrix), 0);
                    check_oracle(&counts, &matrix)?;
                }
            }
        }
    }

    fn planted(n: usize, specs: &[(f64, f64)], seed: u64) -> (LabelMatrix, Vec<Label>) {
        let mut rng = DetRng::new(seed);
        let labels: Vec<Label> = (0..n).map(|_| Label::from_bool(rng.bernoulli(0.5))).collect();
        let mut matrix = LabelMatrix::new(n);
        for &(acc, cov) in specs {
            let mut entries = Vec::new();
            for (i, &y) in labels.iter().enumerate() {
                if rng.bernoulli(cov) {
                    let vote = if rng.bernoulli(acc) { y.sign() } else { y.flip().sign() };
                    entries.push((i as u32, vote));
                }
            }
            matrix.push(LfColumn::new(entries));
        }
        (matrix, labels)
    }

    #[test]
    fn recovers_planted_accuracies() {
        let specs = [(0.9, 0.5), (0.75, 0.5), (0.6, 0.5), (0.85, 0.5)];
        let (matrix, _) = planted(20_000, &specs, 1);
        let fitted = TripletModel::default().fit(&matrix, [0.5, 0.5]);
        for (est, &(want, _)) in fitted.lf_accuracies().iter().zip(&specs) {
            assert!((est - want).abs() < 0.05, "estimated {est:.3} vs planted {want:.3}");
        }
    }

    /// Each column's accuracy measured against the gold labels.
    fn gold_accuracies(matrix: &LabelMatrix, labels: &[Label]) -> Vec<f64> {
        matrix
            .columns()
            .map(|col| {
                let correct =
                    col.entries().iter().filter(|&&(i, v)| v == labels[i as usize].sign()).count();
                correct as f64 / col.coverage() as f64
            })
            .collect()
    }

    #[test]
    fn agrees_with_gold_accuracies_on_planted_data() {
        let specs = [(0.85, 0.4), (0.7, 0.4), (0.8, 0.4)];
        let (matrix, labels) = planted(10_000, &specs, 2);
        let t = TripletModel::default().fit(&matrix, [0.5, 0.5]);
        for (a, b) in t.lf_accuracies().iter().zip(gold_accuracies(&matrix, &labels)) {
            assert!((a - b).abs() < 0.08, "triplet {a:.3} vs gold {b:.3}");
        }
    }

    #[test]
    fn fallback_for_fewer_than_three_lfs() {
        let (matrix, _) = planted(500, &[(0.9, 0.5), (0.6, 0.5)], 3);
        let model = TripletModel::default();
        let fitted = model.fit(&matrix, [0.5, 0.5]);
        assert!(fitted
            .lf_accuracies()
            .iter()
            .all(|&a| (a - model.fallback_accuracy).abs() < 1e-12));
    }

    #[test]
    fn fallback_for_disjoint_coverage() {
        // Three LFs with disjoint coverage: no overlap moments.
        let mut matrix = LabelMatrix::new(30);
        matrix.push(LfColumn::new((0..10).map(|i| (i, 1)).collect()));
        matrix.push(LfColumn::new((10..20).map(|i| (i, 1)).collect()));
        matrix.push(LfColumn::new((20..30).map(|i| (i, -1)).collect()));
        let model = TripletModel::default();
        let fitted = model.fit(&matrix, [0.5, 0.5]);
        assert!(fitted
            .lf_accuracies()
            .iter()
            .all(|&a| (a - model.fallback_accuracy).abs() < 1e-12));
    }

    #[test]
    fn aggregation_denoises() {
        let specs = [(0.85, 0.6), (0.75, 0.6), (0.7, 0.6), (0.65, 0.6)];
        let (matrix, labels) = planted(5_000, &specs, 4);
        let fitted = TripletModel::default().fit(&matrix, [0.5, 0.5]);
        let post = fitted.predict(&matrix);
        let pred = post.hard_labels();
        let summaries = matrix.vote_summaries();
        let (mut correct, mut covered) = (0usize, 0usize);
        for i in 0..labels.len() {
            if summaries[i].total() > 0 {
                covered += 1;
                if pred[i] == labels[i] {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / covered as f64;
        // Mean LF accuracy is ~0.74; aggregation must beat it on covered.
        assert!(acc > 0.78, "covered aggregated accuracy {acc}");
    }
}
