//! The work-stealing scheduler behind `SessionPool`'s worker waves.
//!
//! The hermetic build environment has no `rayon`, so this module provides
//! the one parallel primitive the workspace uses: a scoped work-stealing
//! loop over a slice ([`par_for_each_stealing_with`]). Everything inside a
//! session round runs serially; only the pool fans rounds out over
//! workers.
//!
//! Design rules:
//!
//! - **Determinism:** every element is processed by exactly one call of
//!   the supplied closure, so results are bit-identical to the serial
//!   loop under any worker count.
//! - **Bounded threads:** the default worker count ([`num_threads`]) is
//!   `available_parallelism` clamped to [`MAX_THREADS`], overridable with
//!   the `NEMO_THREADS` environment variable.

use std::num::NonZeroUsize;

/// Hard cap on worker threads.
pub const MAX_THREADS: usize = 16;

/// Default worker count: `NEMO_THREADS` if set, else the machine's
/// available parallelism, clamped to `1..=`[`MAX_THREADS`].
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("NEMO_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.clamp(1, MAX_THREADS);
        }
    }
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1).min(MAX_THREADS)
}

/// Apply `f(i, &mut items[i])` to every element on `workers` threads
/// (clamped to `1..=`[`MAX_THREADS`]), distributing items dynamically
/// through a shared work queue (work stealing).
///
/// Items are coarse and heterogeneous — one interactive session round
/// each, where a cold session (restore + relearn) can cost 10× a warm
/// one — so a fixed partition would suffer head-of-line blocking. Here
/// idle workers keep pulling the next unclaimed item, so stragglers do
/// not serialize the batch, and per-item work dwarfs the queue lock.
///
/// Every item is processed by exactly one pure `f` call, so results are
/// bit-identical to the serial loop under any worker count.
pub fn par_for_each_stealing_with<T, F>(items: &mut [T], workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = workers.clamp(1, MAX_THREADS).min(items.len());
    if threads <= 1 {
        for (i, x) in items.iter_mut().enumerate() {
            f(i, x);
        }
        return;
    }
    // The queue is the iterator itself: each `next()` hands a worker an
    // exclusive `&mut` to one item, so items never race and the lock is
    // held only for the handoff, not the work.
    let queue = std::sync::Mutex::new(items.iter_mut().enumerate());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let queue = &queue;
                let f = &f;
                scope.spawn(move || loop {
                    // A worker panic poisons the queue; fellow workers
                    // then stop pulling and the panic is re-raised below.
                    let next = match queue.lock() {
                        Ok(mut guard) => guard.next(),
                        Err(_) => None,
                    };
                    match next {
                        Some((i, x)) => f(i, x),
                        None => break,
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                // Re-raise with the original payload so assertion
                // messages from worker closures survive.
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stealing_touches_every_element_once() {
        for workers in [1usize, 2, 4, 16] {
            for n in [0usize, 1, 5, 100, 3000] {
                let mut items: Vec<usize> = vec![0; n];
                par_for_each_stealing_with(&mut items, workers, |i, x| *x += i + 1);
                for (i, &x) in items.iter().enumerate() {
                    assert_eq!(x, i + 1, "workers={workers} n={n}");
                }
            }
        }
    }

    #[test]
    fn stealing_drains_heterogeneous_queue() {
        // Items with wildly uneven costs must all complete exactly once.
        let mut items: Vec<(u64, u64)> = (0..64).map(|i| (i, 0)).collect();
        par_for_each_stealing_with(&mut items, 4, |_, item| {
            let spins = if item.0 % 7 == 0 { 20_000 } else { 10 };
            let mut acc = item.0;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            item.1 = acc | 1;
        });
        assert!(items.iter().all(|&(_, done)| done != 0));
    }

    #[test]
    fn stealing_default_matches_serial() {
        let mut a: Vec<u32> = (0..500).collect();
        let mut b = a.clone();
        par_for_each_stealing_with(&mut a, num_threads(), |i, x| {
            *x = x.wrapping_mul(3).wrapping_add(i as u32)
        });
        for (i, x) in b.iter_mut().enumerate() {
            *x = x.wrapping_mul(3).wrapping_add(i as u32);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_is_bounded() {
        let n = num_threads();
        assert!((1..=MAX_THREADS).contains(&n));
    }
}
