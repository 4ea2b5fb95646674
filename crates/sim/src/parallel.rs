//! Parallel replication of independent simulations.
//!
//! The study runs many *independent* simulations (replications with
//! different seeds, parameter sweeps, the three curves of each figure).
//! These are embarrassingly parallel, so a small scoped-thread fan-out is
//! all the parallelism the workspace needs — no work stealing, no shared
//! mutable state, results delivered in input order regardless of which
//! thread finished first. One primitive, [`try_map_ordered`], carries every
//! level of it: the figures of a `repro` invocation and, through
//! [`map_replications`], the replications of a figure.

#![expect(
    clippy::disallowed_types,
    reason = "shard-local-state: the replication fan-out is one of the two designated \
              parallel drivers; its queues and stop flag carry no simulation state"
)]

use crossbeam::channel;
use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};

/// A sensible worker count: the machine's available parallelism, capped by
/// the job count.
pub fn default_threads(jobs: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(jobs).max(1)
}

/// The one fan-out primitive: an ordered work-queue map.
///
/// `f(index, item)` runs on `threads` scoped workers pulling from one queue
/// in input order; `emit(index, result)` runs on the *calling* thread, in
/// input order, as soon as the completed prefix grows — so a caller can
/// stream results while later tasks are still computing, with no barrier
/// between tasks. `threads == 1` (after clamping to the task count) runs
/// `f` inline on the caller too: no thread, no channel.
///
/// Results land keyed by input index, so emission order is input order no
/// matter which worker finished first — this (plus callers deriving all
/// per-task randomness from the index alone) is the worker-count
/// determinism invariant: any `threads` value yields bit-identical output.
/// A result that finished ahead of its turn waits in the slot table.
///
/// The first `Err` — from `f` or from `emit` — stops new tasks from being
/// handed out; tasks already running finish and every worker is joined.
/// The queue is FIFO, so every task before a failed one did run: the
/// successful prefix is emitted and the *first error in input order* is
/// returned. Panics in workers propagate once the queue has drained.
#[expect(
    clippy::disallowed_methods,
    reason = "shard-local-state: the fan-out's task and result queues carry no simulation state"
)]
pub fn try_map_ordered<T, R, E, F, G>(
    items: Vec<T>,
    threads: usize,
    f: F,
    mut emit: G,
) -> Result<(), E>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(usize, T) -> Result<R, E> + Sync,
    G: FnMut(usize, R) -> Result<(), E>,
{
    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 {
        for (i, item) in items.into_iter().enumerate() {
            emit(i, f(i, item)?)?;
        }
        return Ok(());
    }

    let (task_tx, task_rx) = channel::unbounded::<(usize, T)>();
    let (res_tx, res_rx) = channel::unbounded::<(usize, Result<R, E>)>();
    for pair in items.into_iter().enumerate() {
        task_tx.send(pair).expect("queue open");
    }
    drop(task_tx);

    // Publishes no data of its own (results travel through the channel),
    // so relaxed loads and stores are enough.
    let stop = AtomicBool::new(false);
    let (f, stop) = (&f, &stop);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let task_rx = task_rx.clone();
            let res_tx = res_tx.clone();
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let Ok((i, item)) = task_rx.recv() else { break };
                    let r = f(i, item);
                    if r.is_err() {
                        stop.store(true, Ordering::Relaxed);
                    }
                    if res_tx.send((i, r)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(res_tx);
        drop(task_rx);

        // Preallocate the full slot table up front; results arrive in
        // arbitrary order, so there is no growth pattern an incremental
        // push could exploit.
        let mut slots: Vec<Option<Result<R, E>>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let mut next = 0;
        let mut outcome = Ok(());
        for (i, r) in res_rx {
            slots[i] = Some(r);
            while outcome.is_ok() && next < n {
                let Some(r) = slots[next].take() else { break };
                outcome = r.and_then(|r| emit(next, r));
                next += 1;
            }
            if outcome.is_err() {
                stop.store(true, Ordering::Relaxed);
            }
        }
        outcome
    })
}

/// [`try_map_ordered`] for tasks that cannot fail.
pub fn map_ordered<T, R, F, G>(items: Vec<T>, threads: usize, f: F, mut emit: G)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    G: FnMut(usize, R),
{
    let Ok(()) = try_map_ordered(
        items,
        threads,
        |i, item| Ok::<R, Infallible>(f(i, item)),
        |i, r| {
            emit(i, r);
            Ok(())
        },
    );
}

/// Runs `f(replication_index, seed)` for `replications` independent seeds
/// derived from `master_seed` on `threads` workers, each result reaching
/// `emit` in replication order as soon as its prefix is complete — the
/// single home of the per-replication seed-derivation convention
/// ([`replication_seeds`](crate::rng::replication_seeds)), so no caller's
/// thread policy can diverge from it.
pub fn map_replications<R, F, G>(
    threads: usize,
    master_seed: u64,
    replications: usize,
    f: F,
    emit: G,
) where
    R: Send,
    F: Fn(usize, u64) -> R + Sync,
    G: FnMut(usize, R),
{
    let seeds: Vec<u64> = crate::rng::replication_seeds(master_seed, replications).collect();
    map_ordered(seeds, threads, f, emit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// `map_ordered`, collecting.
    fn collect<T: Send, R: Send>(
        items: Vec<T>,
        threads: usize,
        f: impl Fn(usize, T) -> R + Sync,
    ) -> Vec<R> {
        let mut out = Vec::new();
        map_ordered(items, threads, f, |_, r| out.push(r));
        out
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = collect(items, 8, |_, x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let out = collect(vec![1, 2, 3], 1, |i, x| i as i32 + x);
        assert_eq!(out, vec![1, 3, 5]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u8> = collect(Vec::<u8>::new(), 4, |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = collect(vec![10], 64, |_, x| x + 1);
        assert_eq!(out, vec![11]);
    }

    #[test]
    fn indices_match_items() {
        let items: Vec<usize> = (0..50).collect();
        let out = collect(items, 4, |i, x| (i, x));
        for (i, (idx, val)) in out.into_iter().enumerate() {
            assert_eq!(i, idx);
            assert_eq!(i, val);
        }
    }

    #[test]
    fn replications_are_deterministic_and_distinct() {
        let run = || {
            let mut seeds = Vec::new();
            map_replications(8, 42, 8, |_, seed| seed, |_, seed| seeds.push(seed));
            seeds
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same master seed, same seeds");
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "per-replication seeds must differ");
    }

    /// Completion orders to force on `n` tasks that are all in flight at
    /// once: task 0 last, fully reversed, and a seeded shuffle.
    fn adversarial_orders(n: usize) -> Vec<Vec<usize>> {
        use rand::seq::SliceRandom;
        let mut shuffled: Vec<usize> = (0..n).collect();
        shuffled.shuffle(&mut crate::rng::small_rng(n as u64));
        vec![
            (1..n).chain([0]).collect(),
            (0..n).rev().collect(),
            shuffled,
        ]
    }

    #[test]
    fn emission_order_is_input_order_under_forced_completion_orders() {
        for threads in [2, 3, 8] {
            for order in adversarial_orders(threads) {
                // Task `order[k]` may finish only after `k` others have:
                // with one task per worker, that pins the completion order.
                let finished = AtomicUsize::new(0);
                let mut emitted = Vec::new();
                map_ordered(
                    (0..threads).collect(),
                    threads,
                    |i, item: usize| {
                        let turn = order.iter().position(|&t| t == i).expect("a permutation");
                        while finished.load(Ordering::SeqCst) != turn {
                            std::thread::yield_now();
                        }
                        finished.store(turn + 1, Ordering::SeqCst);
                        item * 10
                    },
                    |i, r| emitted.push((i, r)),
                );
                let want: Vec<_> = (0..threads).map(|i| (i, i * 10)).collect();
                assert_eq!(
                    emitted, want,
                    "threads={threads}, completion order {order:?}"
                );
            }
        }
    }

    #[test]
    fn every_task_runs_once_and_emit_stays_on_the_caller() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 3, 8] {
            let runs: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            let mut next = 0;
            map_ordered(
                (0..100).collect(),
                threads,
                |i, _: usize| {
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    std::thread::current().id()
                },
                |i, worker| {
                    assert_eq!(i, next, "threads={threads}");
                    next += 1;
                    assert_eq!(std::thread::current().id(), caller);
                    // One worker means no worker: `f` runs inline.
                    assert_eq!(worker == caller, threads == 1, "threads={threads}");
                },
            );
            assert_eq!(next, 100);
            assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
        }
        // A single task is the one-worker case whatever was asked for.
        map_ordered(
            vec![()],
            64,
            |_, ()| std::thread::current().id(),
            |_, worker| assert_eq!(worker, caller),
        );
    }

    #[test]
    fn first_error_in_input_order_wins_and_stops_the_hand_out() {
        for threads in [1, 2, 3, 8] {
            let ran = AtomicUsize::new(0);
            let mut emitted = Vec::new();
            let got = try_map_ordered(
                (0..50).collect(),
                threads,
                |i, _: usize| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i >= 5 {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                },
                |i, r| {
                    emitted.push((i, r));
                    Ok(())
                },
            );
            assert_eq!(got, Err(5), "threads={threads}");
            let want: Vec<_> = (0..5).map(|i| (i, i)).collect();
            assert_eq!(emitted, want, "the successful prefix is still emitted");
            // A worker pulls nothing after its own failure, so at most one
            // failing task per worker ever starts.
            let ran = ran.load(Ordering::SeqCst);
            assert!(ran <= 5 + threads, "threads={threads}: {ran} tasks ran");
        }
    }

    #[test]
    fn an_emit_error_ends_the_map() {
        for threads in [1, 4] {
            let mut calls = 0;
            let got = try_map_ordered(
                (0..20).collect(),
                threads,
                |_, x: usize| Ok(x),
                |i, _| {
                    calls += 1;
                    if i == 3 {
                        Err("sink closed")
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(got, Err("sink closed"));
            assert_eq!(calls, 4, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn worker_panics_propagate() {
        collect((0..16).collect(), 3, |i, x: usize| {
            assert!(i != 7, "task 7 failed");
            x
        });
    }

    #[test]
    fn default_threads_bounds() {
        assert!(default_threads(0) >= 1);
        assert!(default_threads(1) == 1);
        assert!(default_threads(1_000) >= 1);
    }
}
