//! Serialize → deserialize identity for session checkpoints.
//!
//! The canonical-form property checked throughout: re-serializing a loaded
//! value reproduces the original file image byte-for-byte. Because the
//! file image contains the exact bit patterns of every float, offset, and
//! index, byte equality of images is bit-level equality of everything the
//! store persists — stronger than any field-by-field comparison.

use nemo_lf::{Label, PrimitiveLf, TrackedLf};
use nemo_persist::{load_session, save_session, session_from_bytes, session_to_bytes};
use proptest::prelude::*;
use proptest::TestRunner;

fn session_roundtrips(ckpt: &nemo_core::SessionCheckpoint) {
    let bytes = session_to_bytes(ckpt);
    let loaded = session_from_bytes(&bytes).expect("valid image must load");
    assert_eq!(session_to_bytes(&loaded), bytes, "canonical form must be a fixed point");
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
