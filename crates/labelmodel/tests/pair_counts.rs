//! Differential property test for the MeTaL/triplet pair-count cache.
//!
//! One long-lived [`PairCounts`] follows random sequences of column
//! operations on two label matrices that share columns (clones keep their
//! construction token): append a column, replace one with a fresh-token
//! column (sometimes with the very same votes), truncate (down to 0, 1 and
//! 2 LFs), push a clone of a sibling matrix's column, and switch to the
//! sibling. After every step the
//! fit from the cached counts must be bitwise the fit from scratch, and
//! the cache must equal counts synced from empty.

use nemo_labelmodel::{LabelModel, PairCounts, TripletModel};
use nemo_lf::{Label, LabelMatrix, LfColumn};
use nemo_sparse::DetRng;
use proptest::prelude::*;

/// A column voting on about half of `labels`, correct with probability
/// 0.6–0.95, so pair moments are informative.
fn random_column(labels: &[Label], seed: u64) -> LfColumn {
    let mut rng = DetRng::new(seed);
    let acc = rng.uniform_in(0.6, 0.95);
    let mut entries = Vec::new();
    for (i, &y) in labels.iter().enumerate() {
        if rng.bernoulli(0.5) {
            entries.push((i as u32, if rng.bernoulli(acc) { y.sign() } else { y.flip().sign() }));
        }
    }
    LfColumn::new(entries)
}

fn matrix(n: usize, cols: &[LfColumn]) -> LabelMatrix {
    let mut m = LabelMatrix::new(n);
    for col in cols {
        m.push(col.clone());
    }
    m
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Fit through the cache and from scratch; both must agree bit for bit,
/// and the cache must hold exactly the counts of a fresh sync.
fn check_against_scratch(
    m: &LabelMatrix,
    counts: &mut PairCounts,
    prior: [f64; 2],
) -> Result<(), String> {
    let model = TripletModel::default();
    let cached = model.fit_from(m, prior, counts);
    let scratch = model.fit(m, prior);
    prop_assert_eq!(bits(cached.lf_accuracies()), bits(scratch.lf_accuracies()));
    prop_assert_eq!(bits(cached.predict(m).p_pos_slice()), bits(scratch.predict(m).p_pos_slice()));
    let mut fresh = PairCounts::default();
    fresh.sync(m);
    prop_assert!(*counts == fresh, "cached counts differ from a fresh sync");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn cached_fits_equal_scratch_fits(
        n in 0usize..60,
        seed in 0u64..1_000_000,
        prior_pos in 0.1f64..0.9,
        ops in proptest::collection::vec((0u8..6, 0u64..1_000_000), 1..40),
    ) {
        let mut rng = DetRng::new(seed);
        let labels: Vec<Label> = (0..n).map(|_| Label::from_bool(rng.bernoulli(0.5))).collect();
        let prior = [1.0 - prior_pos, prior_pos];
        let mut lists: [Vec<LfColumn>; 2] = [Vec::new(), Vec::new()];
        let mut active = 0usize;
        let mut counts = PairCounts::default();

        // Start from the 0-LF matrix.
        let empty = matrix(n, &lists[active]);
        prop_assert_eq!(counts.sync(&empty), 0);
        check_against_scratch(&empty, &mut counts, prior)?;

        for (op, param) in ops {
            let mut appended = false;
            let cols = &mut lists[active];
            match op {
                // Append a new column.
                0 | 1 => {
                    cols.push(random_column(&labels, param));
                    appended = true;
                }
                // Replace a column with a fresh-token column; odd params
                // keep the votes, so only the token says it changed.
                2 if !cols.is_empty() => {
                    let j = param as usize % cols.len();
                    cols[j] = if param % 2 == 1 {
                        LfColumn::new(cols[j].entries().to_vec())
                    } else {
                        random_column(&labels, param)
                    };
                }
                // Truncate, often to 0, 1 or 2 LFs.
                3 => {
                    let keep = param as usize % (cols.len().min(3) + 1);
                    cols.truncate(keep);
                }
                // Append a clone of a sibling matrix's column.
                4 => {
                    let other = &lists[1 - active];
                    if let Some(col) = other.get(param as usize % other.len().max(1)) {
                        let col = col.clone();
                        lists[active].push(col);
                    }
                }
                // Switch to the sibling matrix.
                _ => active = 1 - active,
            }
            let m = matrix(n, &lists[active]);
            let recounted = counts.sync(&m);
            if appended {
                prop_assert_eq!(recounted, m.n_lfs() - 1, "an append recounts only its pairs");
            }
            prop_assert_eq!(counts.sync(&m), 0, "an unchanged matrix recounts nothing");
            check_against_scratch(&m, &mut counts, prior)?;
        }
    }
}

#[test]
fn append_recounts_only_the_new_column_pairs() {
    let labels: Vec<Label> = (0..40).map(|i| Label::from_bool(i % 3 != 0)).collect();
    let mut cols = Vec::new();
    let mut counts = PairCounts::default();
    for m in 1..=8u64 {
        cols.push(random_column(&labels, m));
        let mat = matrix(labels.len(), &cols);
        assert_eq!(counts.sync(&mat), m as usize - 1, "append to {m} LFs");
        assert_eq!(counts.sync(&mat), 0, "unchanged {m}-LF matrix");
        assert_eq!(counts.n_columns(), m as usize);
    }
    // Replacing one column of eight recounts its seven pairs.
    cols[3] = random_column(&labels, 99);
    assert_eq!(counts.sync(&matrix(labels.len(), &cols)), 7);
    // Truncating recounts nothing; re-appending the old column recounts
    // its pairs, since the counts for it were dropped.
    let last = cols.pop().unwrap();
    assert_eq!(counts.sync(&matrix(labels.len(), &cols)), 0);
    cols.push(last);
    assert_eq!(counts.sync(&matrix(labels.len(), &cols)), 7);
}
