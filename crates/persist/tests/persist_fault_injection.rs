//! Fault injection: every way a persisted file can be damaged must
//! surface as a typed [`PersistError`] — never a panic, never a
//! successfully-loaded corrupted value.
//!
//! Three attack surfaces are exercised:
//!
//! 1. **Random damage** — single-byte corruption at *every* offset (three
//!    flip patterns per byte) and truncation at *every* length, applied to
//!    a valid session file. CRC-32 detects all single-byte errors, so
//!    every such load must fail.
//! 2. **Header lies** — wrong magic, unsupported version, byte-swapped
//!    endianness canary, wrong file kind, and a section count that
//!    disagrees with the body, each with a *recomputed* header CRC so only
//!    the lie itself can be detected.
//! 3. **Payload lies** — structurally valid framing (correct CRCs) whose
//!    payload content lies: length prefixes larger than the payload,
//!    truncated field sequences, trailing bytes, and out-of-range tags.

use std::panic::{catch_unwind, AssertUnwindSafe};

use nemo_lf::{Label, PrimitiveLf, TrackedLf};
use nemo_persist::format::{crc32, Enc, FileBuilder, KIND_SESSION};
use nemo_persist::{session_from_bytes, session_to_bytes, PersistError};

/// A small checkpoint exercising every session section, including the
/// optional fields in both states.
fn tiny_session_bytes() -> Vec<u8> {
    let ckpt = nemo_core::SessionCheckpoint {
        config: nemo_core::IdpConfig { n_iterations: 4, seed: 9, ..Default::default() },
        iteration: 2,
        pending: Some(1),
        lineage: vec![
            TrackedLf { lf: PrimitiveLf::new(0, Label::Pos), dev_example: 0, iteration: 0 },
            TrackedLf { lf: PrimitiveLf::new(2, Label::Neg), dev_example: 2, iteration: 1 },
        ],
        columns: vec![vec![(0, 1), (2, 1)], vec![(1, -1)]],
        excluded: vec![true, true, false],
        train_p_pos: vec![0.75, 0.25, 0.5],
        train_probs: vec![0.9, 0.1, 0.5],
        valid_pred: vec![1],
        test_pred: vec![-1],
        chosen_p: Some(50.0),
        rng_state: [1, 2, 3, 4],
        rng_gauss_spare: None,
        radii: vec![0.0, 0.5, 0.75, 1.0, 0.25, 0.25, 0.5, 2.0],
        warm_seeds: vec![vec![0.25, 0.5]],
    };
    session_to_bytes(&ckpt)
}

/// Run a loader over damaged bytes; the only acceptable outcome is a
/// returned `Err`.
fn assert_typed_failure<T: std::fmt::Debug>(
    what: &str,
    load: impl Fn() -> Result<T, PersistError>,
) {
    match catch_unwind(AssertUnwindSafe(load)) {
        Ok(Err(_)) => {}
        Ok(Ok(_)) => panic!("{what}: corrupted file loaded successfully"),
        Err(_) => panic!("{what}: loader panicked"),
    }
}

fn corrupt_every_byte<T: std::fmt::Debug>(
    good: &[u8],
    load: impl Fn(&[u8]) -> Result<T, PersistError>,
) {
    for i in 0..good.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut bad = good.to_vec();
            bad[i] ^= flip;
            assert_typed_failure(&format!("byte {i} ^ {flip:#04x}"), || load(&bad));
        }
    }
}

fn truncate_every_length<T: std::fmt::Debug>(
    good: &[u8],
    load: impl Fn(&[u8]) -> Result<T, PersistError>,
) {
    for len in 0..good.len() {
        assert_typed_failure(&format!("truncated to {len} bytes"), || load(&good[..len]));
    }
}

#[test]
fn session_single_byte_corruption_at_every_offset_fails_typed() {
    let good = tiny_session_bytes();
    assert!(session_from_bytes(&good).is_ok(), "baseline must load");
    corrupt_every_byte(&good, session_from_bytes);
}

#[test]
fn session_truncation_at_every_length_fails_typed() {
    let good = tiny_session_bytes();
    truncate_every_length(&good, session_from_bytes);
}

/// Patch a header word and recompute the header CRC, so only the patched
/// lie itself can trip the loader.
fn patch_header_word(bytes: &[u8], at: usize, value: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + 4].copy_from_slice(&value.to_le_bytes());
    let crc = crc32(&out[..24]);
    out[24..28].copy_from_slice(&crc.to_le_bytes());
    out
}

#[test]
fn header_lies_with_valid_crc_fail_typed() {
    let good = tiny_session_bytes();

    let v9 = patch_header_word(&good, 8, 9);
    assert!(matches!(session_from_bytes(&v9), Err(PersistError::UnsupportedVersion(9))));

    let swapped = patch_header_word(&good, 12, 0x0403_0201);
    assert!(matches!(session_from_bytes(&swapped), Err(PersistError::EndiannessMismatch)));

    // Kind 1 is retired: it marked dataset artifact files, so an old
    // artifact file opened as a checkpoint fails here.
    let retired_kind = patch_header_word(&good, 16, 1);
    assert!(matches!(
        session_from_bytes(&retired_kind),
        Err(PersistError::WrongKind { expected: KIND_SESSION, found: 1 })
    ));

    let mut bad_magic = good.clone();
    bad_magic[..8].copy_from_slice(b"NOTNEMO!");
    assert!(matches!(session_from_bytes(&bad_magic), Err(PersistError::BadMagic)));
}

#[test]
fn section_count_lies_with_valid_crc_fail_typed() {
    let good = tiny_session_bytes();
    let declared = u32::from_le_bytes(good[20..24].try_into().unwrap());

    // Declares one more section than the body holds: the reader consumes
    // all real sections, then finish() sees one still owed.
    let over = patch_header_word(&good, 20, declared + 1);
    assert!(matches!(session_from_bytes(&over), Err(PersistError::SectionCount { .. })));

    // Declares one fewer: the reader runs out of budget before the last
    // section it needs.
    let under = patch_header_word(&good, 20, declared - 1);
    assert!(matches!(session_from_bytes(&under), Err(PersistError::SectionCount { .. })));

    // Declares zero sections over an intact body.
    let zero = patch_header_word(&good, 20, 0);
    assert!(matches!(session_from_bytes(&zero), Err(PersistError::SectionCount { .. })));
}

/// Section frames that lie under a valid header: a flipped payload byte
/// is caught by its section's CRC, a wrong section id by its position.
#[test]
fn section_frame_lies_fail_typed() {
    let good = tiny_session_bytes();
    let first_payload = 28 + 16;
    let mut flipped = good.clone();
    flipped[first_payload] ^= 0x01;
    assert!(matches!(
        session_from_bytes(&flipped),
        Err(PersistError::ChecksumMismatch { what: "CONFIG" })
    ));

    let mut renumbered = good.clone();
    renumbered[28..32].copy_from_slice(&9u32.to_le_bytes());
    assert!(matches!(
        session_from_bytes(&renumbered),
        Err(PersistError::UnexpectedSection { expected: 1, found: 9 })
    ));
}

/// Structurally valid session files (consistent CRCs, correct section
/// order) whose length prefixes lie about the bytes that follow: the
/// element-count bound (count × element size vs remaining bytes, with
/// overflow-checked multiplication) must trip before any allocation.
#[test]
fn lying_length_prefixes_with_valid_crc_fail_typed() {
    // LINEAGE declares u64::MAX records.
    let mut lineage = Enc::new();
    lineage.u64(u64::MAX);
    let bytes = hand_encoded_with_section(3, lineage.into_bytes());
    assert!(matches!(session_from_bytes(&bytes), Err(PersistError::LengthOverflow)));

    // An OUTPUTS vector whose element count times 8 overflows usize (and
    // wraps to 8, the bytes that follow)…
    let mut outputs = Enc::new();
    outputs.u64((1 << 61) + 1);
    outputs.f64(0.5);
    let bytes = hand_encoded_with_section(5, outputs.into_bytes());
    assert!(matches!(session_from_bytes(&bytes), Err(PersistError::LengthOverflow)));

    // …and one whose byte size fits but overruns the payload.
    let mut outputs = Enc::new();
    outputs.u64(1 << 40);
    outputs.f64(0.5);
    let bytes = hand_encoded_with_section(5, outputs.into_bytes());
    assert!(matches!(session_from_bytes(&bytes), Err(PersistError::LengthOverflow)));
}

#[test]
fn short_and_padded_payloads_with_valid_crc_fail_typed() {
    // CONFIG payload ends mid-field: Truncated from inside the section.
    let mut cfg = Enc::new();
    cfg.usize(10); // n_iterations, then nothing else
    let mut b = FileBuilder::new(KIND_SESSION);
    b.section(1, cfg.into_bytes());
    let bytes = b.into_bytes();
    assert!(matches!(session_from_bytes(&bytes), Err(PersistError::Truncated)));

    // A fully valid file with extra bytes appended after the last section
    // (outside every CRC's coverage): TrailingBytes.
    let mut padded = tiny_session_bytes();
    padded.extend_from_slice(&[0xAA; 3]);
    assert!(matches!(session_from_bytes(&padded), Err(PersistError::TrailingBytes)));

    // A section payload with valid fields followed by padding inside the
    // checksummed region: the per-section finish() rejects it.
    let good = tiny_session_bytes();
    let ckpt = session_from_bytes(&good).unwrap();
    let mut cfg = Enc::new();
    cfg.usize(ckpt.config.n_iterations);
    cfg.usize(ckpt.config.eval_every);
    cfg.u8(0);
    cfg.f64(0.5);
    cfg.usize(20);
    cfg.f64(2e-5);
    cfg.u8(1);
    cfg.usize(1);
    cfg.u64(0);
    cfg.u8(0); // checkpoint_every: None
    cfg.u8(0); // selection: Seu
    cfg.u8(0xEE); // padding byte inside the payload
    let mut b = FileBuilder::new(KIND_SESSION);
    b.section(1, cfg.into_bytes());
    let bytes = b.into_bytes();
    assert!(matches!(session_from_bytes(&bytes), Err(PersistError::TrailingBytes)));
}

/// A minimal valid CONFIG payload (defaults), for crafting session files
/// whose *later* sections carry the lie under test.
fn valid_config_payload() -> Vec<u8> {
    config_payload(0, 0)
}

/// A CONFIG payload (defaults) with the given label-model and
/// selection-strategy tags.
fn config_payload(label_model: u8, selection: u8) -> Vec<u8> {
    let mut cfg = Enc::new();
    cfg.usize(1); // n_iterations
    cfg.usize(1); // eval_every
    cfg.u8(label_model);
    cfg.f64(0.5); // lr
    cfg.usize(20); // epochs
    cfg.f64(2e-5); // l2
    cfg.u8(1); // fit_intercept
    cfg.usize(1); // lfs_per_iteration
    cfg.u64(0); // seed
    cfg.u8(0); // checkpoint_every: None
    cfg.u8(selection);
    cfg.into_bytes()
}

/// The seven section payloads of a fresh session, encoded by hand, with
/// the given CONFIG payload and ENGINE state tag.
fn hand_encoded_sections(config: Vec<u8>, engine: u8) -> [Vec<u8>; 7] {
    let mut state = Enc::new();
    state.usize(0); // iteration
    state.opt_u64(None); // pending
    state.vec_bool(&[]); // excluded
    for w in [1u64, 2, 3, 4] {
        state.u64(w); // rng_state
    }
    state.opt_f64(None); // gauss spare
    state.opt_f64(None); // chosen_p
    let mut empty = Enc::new();
    empty.usize(0);
    let empty = empty.into_bytes();
    let mut outputs = Enc::new();
    outputs.vec_f64(&[]);
    outputs.vec_f64(&[]);
    outputs.vec_i8(&[]);
    outputs.vec_i8(&[]);
    let mut eng = Enc::new();
    eng.u32(1); // ENGINE section version
    eng.u8(engine);
    [
        config,
        state.into_bytes(),
        empty.clone(), // lineage
        empty.clone(), // matrix
        outputs.into_bytes(),
        empty, // warm seeds
        eng.into_bytes(),
    ]
}

/// A session file over `payloads`, section ids 1, 2, … in order.
fn session_file(payloads: impl IntoIterator<Item = Vec<u8>>) -> Vec<u8> {
    let mut b = FileBuilder::new(KIND_SESSION);
    for (id, payload) in (1..).zip(payloads) {
        b.section(id, payload);
    }
    b.into_bytes()
}

/// A complete session file for a fresh session, with the given CONFIG
/// payload and ENGINE state tag.
fn hand_encoded_session(config: Vec<u8>, engine: u8) -> Vec<u8> {
    session_file(hand_encoded_sections(config, engine))
}

/// The fresh session of [`hand_encoded_session`] with section `id`'s
/// payload replaced by `payload` (CRCs consistent).
fn hand_encoded_with_section(id: u32, payload: Vec<u8>) -> Vec<u8> {
    let mut payloads = hand_encoded_sections(valid_config_payload(), 0);
    payloads[id as usize - 1] = payload;
    session_file(payloads)
}

#[test]
fn retired_iws_tags_fail_typed() {
    // The hand encoding matches the codec: the SEU file loads and
    // re-encodes to the same bytes.
    let seu = hand_encoded_session(valid_config_payload(), 0);
    let ckpt = session_from_bytes(&seu).expect("hand-encoded SEU session loads");
    assert_eq!(session_to_bytes(&ckpt), seu);

    // Tag 1 was the retired IWS engine, in either section.
    for (what, bytes) in [
        ("CONFIG selection", hand_encoded_session(config_payload(0, 1), 0)),
        ("ENGINE state", hand_encoded_session(valid_config_payload(), 1)),
    ] {
        match catch_unwind(AssertUnwindSafe(|| session_from_bytes(&bytes))) {
            Ok(Err(PersistError::InvalidValue(_))) => {}
            Ok(other) => panic!("{what} tag 1: expected InvalidValue, got {other:?}"),
            Err(_) => panic!("{what} tag 1: loader panicked"),
        }
    }
}

#[test]
fn retired_em_label_model_tag_fails_typed() {
    // Tags 0 (MeTaL) and 2 (majority vote) load; tag 1 was the retired
    // EM label model.
    for tag in [0u8, 2] {
        let bytes = hand_encoded_session(config_payload(tag, 0), 0);
        assert!(session_from_bytes(&bytes).is_ok(), "label-model tag {tag} must load");
    }
    let bytes = hand_encoded_session(config_payload(1, 0), 0);
    match catch_unwind(AssertUnwindSafe(|| session_from_bytes(&bytes))) {
        Ok(Err(PersistError::InvalidValue(_))) => {}
        Ok(other) => panic!("label-model tag 1: expected InvalidValue, got {other:?}"),
        Err(_) => panic!("label-model tag 1: loader panicked"),
    }
}

/// Files written while the EM label model existed carry per-grid-point
/// seeds in the WARM section. They still decode, and restoring one
/// ignores the seeds: the resumed system retraces the uninterrupted run
/// bit for bit.
#[test]
fn non_empty_warm_section_decodes_and_restores_identically() {
    use nemo_core::{IdpConfig, NemoSystem, SimulatedUser};

    let ds = nemo_data::catalog::toy_text(1);
    let config = IdpConfig { n_iterations: 8, seed: 7, ..Default::default() };
    let mut original = NemoSystem::new(&ds, config);
    let mut user = SimulatedUser::default();
    for _ in 0..3 {
        original.step_with_user(&mut user).unwrap();
    }
    let mut ckpt = original.checkpoint();
    assert!(ckpt.warm_seeds.is_empty(), "checkpoints write the WARM section empty");
    let n_lfs = ckpt.lineage.len();
    ckpt.warm_seeds = (0..4).map(|k| vec![0.6 + 0.05 * k as f64; n_lfs]).collect();

    let decoded = session_from_bytes(&session_to_bytes(&ckpt)).expect("non-empty WARM decodes");
    assert_eq!(decoded.warm_seeds, ckpt.warm_seeds);
    let mut resumed = NemoSystem::restore(&ds, &decoded).expect("seeds are ignored on restore");

    let mut fresh_user = SimulatedUser::default();
    for _ in 3..8 {
        let a = original.step_with_user(&mut user).unwrap();
        let b = resumed.step_with_user(&mut fresh_user).unwrap();
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.new_lfs, b.new_lfs);
    }
    let bits = |nemo: &NemoSystem<'_>| -> Vec<u64> {
        nemo.outputs().train_posterior.p_pos_slice().iter().map(|p| p.to_bits()).collect()
    };
    assert_eq!(bits(&original), bits(&resumed));
    assert_eq!(original.outputs().chosen_p, resumed.outputs().chosen_p);
    assert_eq!(original.test_score().to_bits(), resumed.test_score().to_bits());
}

#[test]
fn out_of_range_values_with_valid_crc_fail_typed() {
    // Label-model tag 7 in an otherwise-valid CONFIG section.
    let bytes = hand_encoded_session(config_payload(7, 0), 0);
    assert!(matches!(
        session_from_bytes(&bytes),
        Err(PersistError::InvalidValue("label-model tag must be 0 or 2"))
    ));

    // A presence byte that is neither 0 nor 1 (STATE's `pending`).
    let mut state = Enc::new();
    state.usize(0); // iteration
    state.u8(2); // pending: not a presence byte
    let bytes = hand_encoded_with_section(2, state.into_bytes());
    assert!(matches!(
        session_from_bytes(&bytes),
        Err(PersistError::InvalidValue("presence byte must be 0 or 1"))
    ));

    // An exclusion flag that is neither 0 nor 1.
    let mut state = Enc::new();
    state.usize(0); // iteration
    state.u8(0); // pending: None
    state.usize(2); // excluded: 2 flags…
    state.u8(1);
    state.u8(9); // …the second of which is not a boolean
    let mut b = FileBuilder::new(KIND_SESSION);
    b.section(1, valid_config_payload());
    b.section(2, state.into_bytes());
    let bytes = b.into_bytes();
    assert!(matches!(session_from_bytes(&bytes), Err(PersistError::InvalidValue(_))));

    // An LF label sign of 0 (abstain is not a valid lineage label).
    let mut state = Enc::new();
    state.usize(0);
    state.u8(0);
    state.usize(0); // excluded: empty
    for w in [1u64, 2, 3, 4] {
        state.u64(w); // rng_state
    }
    state.u8(0); // gauss spare: None
    state.u8(0); // chosen_p: None
    let mut lineage = Enc::new();
    lineage.usize(1);
    lineage.u32(0); // z
    lineage.i8(0); // sign 0 — invalid
    lineage.u32(0); // dev_example
    lineage.u32(0); // iteration
    let mut b = FileBuilder::new(KIND_SESSION);
    b.section(1, valid_config_payload());
    b.section(2, state.into_bytes());
    b.section(3, lineage.into_bytes());
    let bytes = b.into_bytes();
    assert!(matches!(
        session_from_bytes(&bytes),
        Err(PersistError::InvalidValue("LF label sign must be ±1"))
    ));
}

/// `bytes` cut back to the 7-section layout of files written before the
/// RADII section existed: the body ends after ENGINE (section 7) and the
/// header declares 7 sections (its CRC recomputed).
fn without_radii_section(bytes: &[u8]) -> Vec<u8> {
    let mut pos = 28;
    loop {
        let id = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        if id == 8 {
            break;
        }
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        pos += 16 + len as usize;
    }
    patch_header_word(&bytes[..pos], 20, 7)
}

/// A session checkpoint in the 7-section layout (no RADII section)
/// decodes with empty radii and restores through full registration; the
/// same session restored with radii, and the uninterrupted run, make the
/// same selections and produce the same output bits every round. The
/// checkpoint writer emits that layout for a checkpoint without radii.
#[test]
fn seven_section_checkpoint_restores_like_one_with_radii() {
    use nemo_core::{IdpConfig, NemoSystem, SimulatedUser};

    let ds = nemo_data::catalog::toy_text(1);
    let config = IdpConfig { n_iterations: 10, seed: 5, ..Default::default() };
    let mut original = NemoSystem::new(&ds, config);
    let mut user = SimulatedUser::default();
    for _ in 0..4 {
        original.step_with_user(&mut user).unwrap();
    }
    let with = original.checkpoint();
    assert!(!with.lineage.is_empty(), "the session wrote LFs");
    assert_eq!(with.radii.len(), 4 * with.lineage.len(), "every LF's radii are carried");
    let bytes = session_to_bytes(&with);
    let old = without_radii_section(&bytes);
    assert_eq!(u32::from_le_bytes(bytes[20..24].try_into().unwrap()), 8);
    let mut bare = with.clone();
    bare.radii.clear();
    assert_eq!(session_to_bytes(&bare), old, "no radii, no RADII section");

    let decoded = session_from_bytes(&old).expect("the 7-section layout decodes");
    assert!(decoded.radii.is_empty());
    let mut full = NemoSystem::restore(&ds, &decoded).expect("restores without radii");
    let decoded = session_from_bytes(&bytes).expect("the 8-section layout decodes");
    assert_eq!(decoded.radii, with.radii);
    let mut reused = NemoSystem::restore(&ds, &decoded).expect("restores with radii");

    let bits = |nemo: &NemoSystem<'_>| -> (Vec<u64>, Option<u64>, u64) {
        let o = nemo.outputs();
        (
            o.train_posterior.p_pos_slice().iter().map(|p| p.to_bits()).collect(),
            o.chosen_p.map(f64::to_bits),
            nemo.test_score().to_bits(),
        )
    };
    let mut users = (SimulatedUser::default(), SimulatedUser::default());
    for round in 4..10 {
        let a = original.step_with_user(&mut user).unwrap();
        let b = full.step_with_user(&mut users.0).unwrap();
        let c = reused.step_with_user(&mut users.1).unwrap();
        assert_eq!((a.selected, &a.new_lfs), (b.selected, &b.new_lfs), "round {round}");
        assert_eq!((a.selected, &a.new_lfs), (c.selected, &c.new_lfs), "round {round}");
        assert_eq!(bits(&full), bits(&original), "round {round}: full registration");
        assert_eq!(bits(&reused), bits(&original), "round {round}: reused radii");
    }

    // A header declaring the missing eighth section over the 7-section
    // body is a section-count lie, not a truncation.
    let over = patch_header_word(&old, 20, 8);
    assert!(matches!(session_from_bytes(&over), Err(PersistError::SectionCount { .. })));
}

/// Radii that decode but fail restore's checks: a count other than
/// grid × lineage, a non-finite or negative radius, and an LF whose radii
/// decrease along the sorted grid each restore to a typed error. Restore
/// cannot check an in-range radius against the data without the full
/// distance query, so it trusts one that passes, as it trusts the RNG
/// state.
#[test]
fn bad_radii_fail_restore_typed() {
    use nemo_core::{IdpConfig, NemoSystem, RestoreError, SimulatedUser};

    let ds = nemo_data::catalog::toy_text(1);
    let config = IdpConfig { n_iterations: 6, seed: 11, ..Default::default() };
    let mut nemo = NemoSystem::new(&ds, config);
    let mut user = SimulatedUser::default();
    for _ in 0..3 {
        nemo.step_with_user(&mut user).unwrap();
    }
    let good = nemo.checkpoint();
    let n_lfs = good.lineage.len();
    assert!(n_lfs > 0 && good.radii.len() == 4 * n_lfs);
    // The default grid is sorted, so LF 0's radii run from index 0 to 3;
    // the largest exceeds the smallest for an LF that does not cover
    // every row at one distance.
    assert!(good.radii[0] < good.radii[3], "LF 0's radii must spread");
    let restore = |radii: Vec<f64>| {
        let ckpt = nemo_core::SessionCheckpoint { radii, ..good.clone() };
        let decoded = session_from_bytes(&session_to_bytes(&ckpt)).expect("radii decode");
        NemoSystem::restore(&ds, &decoded).map(|_| ())
    };
    assert_eq!(restore(good.radii.clone()), Ok(()));

    let mut short = good.radii.clone();
    short.pop();
    assert_eq!(
        restore(short),
        Err(RestoreError::LengthMismatch {
            field: "radii",
            expected: 4 * n_lfs,
            actual: 4 * n_lfs - 1
        })
    );
    let mut long = good.radii.clone();
    long.extend_from_slice(&[1.0; 4]);
    assert!(matches!(restore(long), Err(RestoreError::LengthMismatch { field: "radii", .. })));
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
        let mut radii = good.radii.clone();
        radii[1] = bad;
        assert_eq!(
            restore(radii),
            Err(RestoreError::ValueOutOfRange { field: "radii" }),
            "radius {bad}"
        );
    }
    let mut swapped = good.radii.clone();
    swapped.swap(0, 3);
    assert_eq!(restore(swapped), Err(RestoreError::DecreasingRadii { lf: 0 }));
}
