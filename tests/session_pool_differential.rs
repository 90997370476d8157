//! Differential and stress tests for the multi-tenant `SessionPool`.
//!
//! The pool's contract is that multiplexing changes *scheduling only*:
//! every admitted session must retrace its standalone `NemoSystem` run
//! bit-for-bit — same selections, same chosen percentiles, same posterior
//! and test-score bits — no matter how rounds interleave, how often the
//! session is checkpoint-evicted and restored (in memory or through a
//! real `nemo-persist` file store), how large a batch is, or how many
//! work-stealing workers serve it.
//!
//! The pool's waves are the library's only parallel code (a round runs
//! serially on its worker), so these worker counts are its whole
//! thread-count surface. They are exercised two ways: explicitly via
//! `PoolConfig::workers` (pinning {1, 4} inside one process), and
//! implicitly via the default `None`, the one place `NEMO_THREADS` is
//! read — the CI `test-serial` (`NEMO_THREADS=1`) and `test-multicore`
//! (`NEMO_THREADS=4`) legs re-run this whole suite under both settings.

use std::sync::Arc;

use nemo::core::pool::{
    CheckpointStore, MemoryCheckpointStore, PoolConfig, PoolStats, RoundJob, SessionPool,
};
use nemo::core::{IdpConfig, NemoSystem, SharedArtifacts, SimulatedUser};
use nemo::data::catalog::toy_text;
use nemo::persist::{EncodedCheckpointStore, FileCheckpointStore};
use proptest::prelude::*;

/// Everything a run of one session observably produces.
#[derive(Debug, Clone, PartialEq)]
struct Trace {
    /// Development example selected each round (`None` = pool exhausted).
    selections: Vec<Option<usize>>,
    /// Contextualizer percentile chosen each round, as bits.
    percentiles: Vec<Option<u64>>,
    /// Final train-posterior bits.
    posterior_bits: Vec<u64>,
    /// Final test score bits.
    test_bits: u64,
}

fn session_cfg(rounds: usize, seed: u64) -> IdpConfig {
    IdpConfig { n_iterations: rounds.max(2), eval_every: 2, seed, ..Default::default() }
}

/// The reference: one session, one `NemoSystem`, serial rounds.
fn standalone_trace(arts: &SharedArtifacts, cfg: &IdpConfig, rounds: usize) -> Trace {
    let mut nemo = NemoSystem::new(arts.dataset(), cfg.clone());
    let mut user = SimulatedUser::default();
    let mut selections = Vec::new();
    let mut percentiles = Vec::new();
    for _ in 0..rounds {
        let rec = nemo.step_with_user(&mut user).expect("standalone loop resolves suggestions");
        selections.push(rec.selected);
        percentiles.push(nemo.outputs().chosen_p.map(f64::to_bits));
    }
    Trace {
        selections,
        percentiles,
        posterior_bits: nemo
            .outputs()
            .train_posterior
            .p_pos_slice()
            .iter()
            .map(|p| p.to_bits())
            .collect(),
        test_bits: nemo.test_score().to_bits(),
    }
}

/// Run `rounds` interleaved rounds of `cfgs.len()` pooled sessions and
/// collect each session's trace. The interleaving rotates by one session
/// per round (and reverses on odd `twist`), so every session experiences
/// different neighbors and different LRU pressure across cases.
fn pooled_traces(
    arts: &SharedArtifacts,
    cfgs: &[IdpConfig],
    rounds: usize,
    pool_config: PoolConfig,
    batched: bool,
    twist: u64,
) -> (Vec<Trace>, PoolStats) {
    let mut pool = SessionPool::new(arts, pool_config);
    let ids: Vec<_> = cfgs.iter().map(|c| pool.admit(c.clone()).expect("admit")).collect();
    let k = ids.len();
    let mut users: Vec<SimulatedUser> = (0..k).map(|_| SimulatedUser::default()).collect();
    let mut selections: Vec<Vec<Option<usize>>> = vec![Vec::new(); k];
    let mut percentiles: Vec<Vec<Option<u64>>> = vec![Vec::new(); k];

    for round in 0..rounds {
        // Deterministic but varied visit order.
        let mut order: Vec<usize> = (0..k).map(|j| (j + round) % k).collect();
        if (twist + round as u64) % 2 == 1 {
            order.reverse();
        }
        if batched {
            // Session j keeps its own user; jobs are laid out in visit
            // order, so sort the (j, user) handles by position in `order`.
            let mut handles: Vec<(usize, &mut SimulatedUser)> =
                users.iter_mut().enumerate().collect();
            handles.sort_by_key(|(j, _)| order.iter().position(|o| o == j).unwrap());
            let mut jobs: Vec<RoundJob<'_>> =
                handles.into_iter().map(|(j, u)| RoundJob::new(ids[j], u)).collect();
            let outcomes = pool.run_rounds(&mut jobs).expect("batch runs");
            for (pos, outcome) in outcomes.iter().enumerate() {
                let j = order[pos];
                assert_eq!(outcome.id, ids[j], "outcomes keep job order");
                selections[j].push(outcome.record.selected);
            }
        } else {
            for &j in &order {
                let rec = pool.run_round(ids[j], &mut users[j]).expect("round runs");
                selections[j].push(rec.selected);
            }
        }
        for j in 0..k {
            let p = pool
                .with_session(ids[j], |nemo| nemo.outputs().chosen_p.map(f64::to_bits))
                .expect("session readable");
            percentiles[j].push(p);
        }
    }

    let stats = pool.stats();
    let traces = (0..k)
        .map(|j| {
            let (posterior_bits, test_bits) = pool
                .with_session(ids[j], |nemo| {
                    (
                        nemo.outputs()
                            .train_posterior
                            .p_pos_slice()
                            .iter()
                            .map(|p| p.to_bits())
                            .collect::<Vec<_>>(),
                        nemo.test_score().to_bits(),
                    )
                })
                .expect("session readable");
            Trace {
                selections: selections[j].clone(),
                percentiles: percentiles[j].clone(),
                posterior_bits,
                test_bits,
            }
        })
        .collect();
    (traces, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interleaved pooled rounds — serial or work-stealing batches, under
    /// heavy eviction churn — reproduce K isolated serial runs exactly.
    #[test]
    fn pooled_rounds_are_bit_identical_to_isolated_runs(
        seed in 0u64..200,
        k in 2usize..=4,
        rounds in 3usize..=5,
        max_resident in 1usize..=3,
        wide in proptest::bool::ANY,
        batched in proptest::bool::ANY,
    ) {
        let workers = if wide { 4usize } else { 1 };
        let arts = Arc::new(SharedArtifacts::new(toy_text(2)));
        let cfgs: Vec<IdpConfig> =
            (0..k as u64).map(|j| session_cfg(rounds, 1000 + seed * 17 + j)).collect();
        let pool_config = PoolConfig { max_resident, workers: Some(workers) };
        let (traces, stats) =
            pooled_traces(&arts, &cfgs, rounds, pool_config, batched, seed);
        prop_assert_eq!(stats.rounds as usize, k * rounds);
        if max_resident < k {
            prop_assert!(stats.evictions > 0, "undersized pool must evict: {:?}", stats);
            prop_assert!(stats.restores > 0, "undersized pool must restore: {:?}", stats);
        }
        for (j, cfg) in cfgs.iter().enumerate() {
            let want = standalone_trace(&arts, cfg, rounds);
            prop_assert_eq!(
                &traces[j], &want,
                "session {} diverged (seed {} k {} rounds {} cap {} workers {} batched {})",
                j, seed, k, rounds, max_resident, workers, batched
            );
        }
    }
}

/// Default worker count (`PoolConfig::workers = None`) follows the
/// ambient `NEMO_THREADS`; the CI serial/multicore legs re-run this under
/// 1 and 4 threads and the traces must not move.
#[test]
fn ambient_thread_count_does_not_change_traces() {
    let arts = Arc::new(SharedArtifacts::new(toy_text(5)));
    let cfgs: Vec<IdpConfig> = (0..3u64).map(|j| session_cfg(4, 500 + j)).collect();
    let pool_config = PoolConfig { max_resident: 2, workers: None };
    let (traces, _) = pooled_traces(&arts, &cfgs, 4, pool_config, true, 0);
    for (j, cfg) in cfgs.iter().enumerate() {
        assert_eq!(traces[j], standalone_trace(&arts, cfg, 4), "session {j} diverged");
    }
}

/// Checkpoint-evict through a real `nemo-persist` file store mid-stream:
/// sessions bounce through disk between rounds (explicitly and under LRU
/// pressure) and still retrace their standalone runs bit-for-bit.
#[test]
fn file_store_evict_restore_mid_stream_is_bit_identical() {
    let dir = std::env::temp_dir().join(format!("nemo-pool-difftest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let arts = Arc::new(SharedArtifacts::new(toy_text(3)));
    let cfgs: Vec<IdpConfig> = (0..3u64).map(|j| session_cfg(5, 700 + j)).collect();
    let rounds = 5;

    let pool_config = PoolConfig { max_resident: 2, workers: Some(2) };
    let store = Box::new(FileCheckpointStore::new(&dir));
    let mut pool = SessionPool::with_store(&arts, pool_config, store);
    let ids: Vec<_> = cfgs.iter().map(|c| pool.admit(c.clone()).unwrap()).collect();
    let mut users: Vec<SimulatedUser> = (0..3).map(|_| SimulatedUser::default()).collect();
    let mut selections: Vec<Vec<Option<usize>>> = vec![Vec::new(); 3];

    for round in 0..rounds {
        for (j, &id) in ids.iter().enumerate() {
            let rec = pool.run_round(id, &mut users[j]).unwrap();
            selections[j].push(rec.selected);
        }
        // Mid-stream: force every session through the file store.
        let victim = ids[round % ids.len()];
        pool.evict(victim).unwrap();
        assert!(!pool.is_resident(victim));
        assert!(
            dir.join(format!("session-{}.nemo", victim.raw())).exists(),
            "eviction must write a checkpoint file"
        );
    }
    assert!(pool.stats().evictions >= rounds as u64);
    assert!(pool.stats().restores > 0);

    for (j, cfg) in cfgs.iter().enumerate() {
        let want = standalone_trace(&arts, cfg, rounds);
        assert_eq!(selections[j], want.selections, "session {j} selections diverged");
        let got_bits: Vec<u64> = pool
            .with_session(ids[j], |nemo| {
                nemo.outputs().train_posterior.p_pos_slice().iter().map(|p| p.to_bits()).collect()
            })
            .unwrap();
        assert_eq!(got_bits, want.posterior_bits, "session {j} posterior diverged");
        let got_test = pool.with_session(ids[j], |nemo| nemo.test_score().to_bits()).unwrap();
        assert_eq!(got_test, want.test_bits, "session {j} test score diverged");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The acceptance-scale stress case: 64 concurrent sessions over one
/// `Arc<SharedArtifacts>`, scheduled as work-stealing batches through an
/// undersized pool over the in-memory and the encoded checkpoint store,
/// every one bit-identical to its standalone run.
#[test]
fn sixty_four_sessions_share_one_artifact_set() {
    let arts = Arc::new(SharedArtifacts::new(toy_text(4)));
    let k = 64;
    let rounds = 2;
    let cfgs: Vec<IdpConfig> = (0..k as u64).map(|j| session_cfg(rounds, 9000 + j)).collect();
    let pool_config = PoolConfig { max_resident: 16, workers: Some(4) };
    let wants: Vec<Trace> = cfgs.iter().map(|cfg| standalone_trace(&arts, cfg, rounds)).collect();

    // The in-memory store, then the persist codec's encode/decode/validate
    // round trip on every eviction and restore.
    let stores: [(&str, Box<dyn CheckpointStore>); 2] = [
        ("memory", Box::new(MemoryCheckpointStore::new())),
        ("encoded", Box::new(EncodedCheckpointStore::new())),
    ];
    for (store_name, store) in stores {
        let mut pool = SessionPool::with_store(&arts, pool_config.clone(), store);
        let ids: Vec<_> = cfgs.iter().map(|c| pool.admit(c.clone()).unwrap()).collect();
        let mut users: Vec<SimulatedUser> = (0..k).map(|_| SimulatedUser::default()).collect();
        let mut selections: Vec<Vec<Option<usize>>> = vec![Vec::new(); k];

        for _round in 0..rounds {
            let mut jobs: Vec<RoundJob<'_>> =
                ids.iter().zip(users.iter_mut()).map(|(&id, u)| RoundJob::new(id, u)).collect();
            let outcomes = pool.run_rounds(&mut jobs).unwrap();
            assert_eq!(outcomes.len(), k);
            for (j, outcome) in outcomes.iter().enumerate() {
                selections[j].push(outcome.record.selected);
            }
        }
        assert_eq!(pool.session_count(), k);
        assert!(pool.resident_count() <= 16);
        assert!(pool.stats().evictions > 0, "undersized pool must churn ({store_name} store)");

        for (j, want) in wants.iter().enumerate() {
            assert_eq!(
                selections[j], want.selections,
                "session {j} selections diverged ({store_name} store)"
            );
            let got: Vec<u64> = pool
                .with_session(ids[j], |nemo| {
                    nemo.outputs()
                        .train_posterior
                        .p_pos_slice()
                        .iter()
                        .map(|p| p.to_bits())
                        .collect()
                })
                .unwrap();
            assert_eq!(
                got, want.posterior_bits,
                "session {j} posterior diverged ({store_name} store)"
            );
        }
    }
}
