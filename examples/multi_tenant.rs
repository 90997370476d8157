//! Multi-tenant serving: many interactive sessions over one shared,
//! immutable artifact set.
//!
//! A `SessionPool` admits sessions against a single `SharedArtifacts`
//! (here wrapped in an `Arc`, as a server would hold it), caps how many
//! are resident at once, spills the least-recently-used ones through a
//! checkpoint store when the cap is hit, and batches rounds across
//! worker threads with work stealing. Evicted sessions restore
//! bit-identically, so tenants never observe the pool's residency
//! management.
//!
//! ```text
//! cargo run --release --example multi_tenant
//! ```

use std::sync::Arc;

use nemo::data::catalog;
use nemo::prelude::*;

fn main() {
    // 1. One immutable artifact set for every tenant: the dataset, built
    //    once from the catalog and shared behind an Arc.
    let artifacts =
        Arc::new(SharedArtifacts::new(catalog::build(DatasetName::Amazon, Profile::Smoke, 42)));
    println!(
        "artifacts: {} — {} unlabeled examples, shared by every session\n",
        artifacts.name,
        artifacts.train.n()
    );

    // 2. A pool with a deliberately tiny residency cap, so eviction is
    //    visible: at most 4 of the 12 sessions are materialized at any
    //    moment; the rest live as checkpoints in the (default in-memory)
    //    store. `workers: None` follows NEMO_THREADS.
    let config = PoolConfig { max_resident: 4, ..PoolConfig::default() };
    let mut pool = SessionPool::new(&artifacts, config);

    // 3. Admit 12 tenants, each with its own config and seed.
    let rounds = 5;
    let ids: Vec<_> = (0..12)
        .map(|tenant| {
            let cfg = IdpConfig {
                n_iterations: rounds,
                eval_every: rounds,
                seed: 100 + tenant as u64,
                ..IdpConfig::default()
            };
            pool.admit(cfg).expect("admit tenant")
        })
        .collect();

    // 4. Serve interleaved rounds: every tenant advances one round per
    //    wave. `run_rounds` schedules each wave across the parallel
    //    workers with work stealing and transparently restores evicted
    //    members first.
    let mut users: Vec<SimulatedUser> = (0..ids.len()).map(|_| SimulatedUser::default()).collect();
    for round in 0..rounds {
        let mut jobs: Vec<RoundJob<'_>> =
            ids.iter().zip(users.iter_mut()).map(|(&id, user)| RoundJob::new(id, user)).collect();
        let outcomes = pool.run_rounds(&mut jobs).expect("batched round");
        let restored = outcomes.iter().filter(|o| o.restored).count();
        println!(
            "round {round}: served {} sessions ({restored} restored from checkpoint)",
            outcomes.len()
        );
    }

    // 5. Tenants are inspectable wherever they reside (an evicted one is
    //    restored on demand), and the trajectory each one took is exactly
    //    what a standalone `NemoSystem` with the same config would have
    //    produced — the pool only schedules, it never perturbs.
    println!();
    for &id in &ids {
        let (lfs, score) = pool
            .with_session(id, |nemo| (nemo.lineage().len(), nemo.test_score()))
            .expect("inspect tenant");
        println!("{id}: {lfs} LFs collected, test score {score:.3}");
    }

    let stats = pool.stats();
    println!(
        "\npool stats: {} admitted, {} rounds served, {} evictions, {} restores",
        stats.admitted, stats.rounds, stats.evictions, stats.restores
    );

    // 6. Closing a tenant hands back its final checkpoint — the caller
    //    can archive it with `nemo::persist::save_session` and re-admit
    //    it into any future pool over the same artifacts.
    let ckpt = pool.close(ids[0]).expect("close tenant");
    println!("closed {}: final checkpoint at iteration {}", ids[0], ckpt.iteration);
}
