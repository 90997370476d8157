//! Differential property test for the MeTaL/triplet pair-count cache.
//!
//! One long-lived [`CountedMatrix`] follows random sequences of the two
//! things a grid slot's refined train matrix meets: appends (one or two
//! columns between fits, the shape of a slot whose fit a round skipped)
//! and restores (a fresh counted matrix built from the current columns,
//! the shape of a restored session, followed by more appends). After
//! every step the fit from the cached counts must be bitwise the fit from
//! scratch, and the cache must equal counts synced from empty.

use nemo_labelmodel::{CountedMatrix, LabelModel, TripletModel};
use nemo_lf::{Label, LfColumn};
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

/// A counted matrix holding `cols`, nothing counted yet.
fn counted(n: usize, cols: &[LfColumn]) -> CountedMatrix {
    let mut m = CountedMatrix::new(n);
    for col in cols {
        m.push(col.clone());
    }
    m
}

fn n_pairs(m: usize) -> usize {
    m * m.saturating_sub(1) / 2
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Fit through the cache and from scratch; both must agree bit for bit,
/// and the cache must hold exactly the counts of a fresh sync.
fn check_against_scratch(m: &mut CountedMatrix, prior: [f64; 2]) -> Result<(), String> {
    let model = TripletModel::default();
    let cached = model.fit_from(m, prior);
    let scratch = model.fit(m.matrix(), prior);
    prop_assert_eq!(bits(cached.lf_accuracies()), bits(scratch.lf_accuracies()));
    let (cached, scratch) = (cached.predict(m.matrix()), scratch.predict(m.matrix()));
    prop_assert_eq!(bits(cached.p_pos_slice()), bits(scratch.p_pos_slice()));
    let cols: Vec<LfColumn> = m.matrix().columns().cloned().collect();
    let mut fresh = counted(m.matrix().n_examples(), &cols);
    fresh.sync();
    prop_assert!(*m == fresh, "cached counts differ from a fresh sync");
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
        let mut cache = CountedMatrix::new(n);

        // Start from the 0-LF matrix.
        prop_assert_eq!(cache.sync(), 0);
        check_against_scratch(&mut cache, prior)?;

        for (op, param) in ops {
            let before = cache.matrix().n_lfs();
            match op {
                // Append one column.
                0..=2 => cache.push(random_column(&labels, param)),
                // Append two columns before the next fit.
                3 | 4 => {
                    cache.push(random_column(&labels, param));
                    cache.push(random_column(&labels, param ^ 0x5a5a));
                }
                // Restore: a fresh counted matrix of the current columns,
                // then one more append.
                _ => {
                    let cols: Vec<LfColumn> = cache.matrix().columns().cloned().collect();
                    cache = counted(n, &cols);
                    cache.push(random_column(&labels, param));
                }
            }
            let m = cache.matrix().n_lfs();
            // An append counts only the new columns' pairs; a restored
            // matrix counts every pair once.
            let pending = if op == 5 { n_pairs(m) } else { n_pairs(m) - n_pairs(before) };
            // Odd params sync before the fit; even ones let the fit sync.
            if param % 2 == 1 {
                prop_assert_eq!(cache.sync(), pending);
            }
            check_against_scratch(&mut cache, prior)?;
            prop_assert_eq!(cache.n_counted(), m);
            prop_assert_eq!(cache.sync(), 0, "an unchanged matrix counts nothing");
        }
    }
}

#[test]
fn append_recounts_only_the_new_column_pairs() {
    let labels: Vec<Label> = (0..40).map(|i| Label::from_bool(i % 3 != 0)).collect();
    let mut cache = CountedMatrix::new(labels.len());
    for m in 1..=8u64 {
        cache.push(random_column(&labels, m));
        assert_eq!(cache.sync(), m as usize - 1, "append to {m} LFs");
        assert_eq!(cache.sync(), 0, "unchanged {m}-LF matrix");
        assert_eq!(cache.n_counted(), m as usize);
    }
}
