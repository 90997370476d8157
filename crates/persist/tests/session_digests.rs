//! The exact bytes of a session file, hashed: `session_to_bytes` of a
//! `toy_text` `NemoSystem` checkpoint after a few rounds, once with the
//! RADII section and once without it (the 7-section layout). The round
//! trip suites check that a file decodes to what was encoded; these
//! digests check that the encoding itself does not move, so an edit to the
//! container or the session codec that changes a single byte of a file
//! users already hold shows here.

use nemo_core::{IdpConfig, NemoSystem, SimulatedUser};
use nemo_data::catalog::toy_text;
use nemo_persist::session_to_bytes;

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn toy_text_checkpoint_bytes_match_recorded_digests() {
    const EXPECTED: [(&str, u64); 2] =
        [("with radii", 0xfa3d8652f1b06633), ("without radii", 0xff591806d504e6c7)];
    let ds = toy_text(3);
    let config = IdpConfig { n_iterations: 10, seed: 4, ..Default::default() };
    let mut nemo = NemoSystem::new(&ds, config);
    let mut user = SimulatedUser::default();
    for _ in 0..5 {
        nemo.step_with_user(&mut user).unwrap();
    }
    let with = nemo.checkpoint();
    assert!(!with.lineage.is_empty() && !with.radii.is_empty(), "the session wrote LFs");
    let mut without = with.clone();
    without.radii.clear();

    let got = [
        ("with radii", fnv1a(&session_to_bytes(&with))),
        ("without radii", fnv1a(&session_to_bytes(&without))),
    ];
    let table: String =
        got.iter().map(|(what, d)| format!("        ({what:?}, {d:#018x}),\n")).collect();
    assert_eq!(got, EXPECTED, "session file digests changed; regenerated table:\n{table}");
}
