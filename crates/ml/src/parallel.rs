//! Deterministic fork/join helpers over std's scoped threads.
//!
//! Every parallel site in the workspace (forest fitting, classifier-bank
//! training, cross-validation folds, and the fleet's homes) funnels
//! through [`map_indexed`] or
//! [`map_indexed_init`]: work items are claimed from an atomic
//! counter and results are merged back *by index*, so the output is
//! identical for every thread count — parallelism only changes who
//! computes each item, never what is computed or in which order results
//! are consumed.
//!
//! Thread counts are resolved by [`effective_threads`]: `0` means auto
//! (the `SENTINEL_THREADS` environment variable if set, otherwise the
//! machine's available parallelism) and `1` forces the exact sequential
//! code path.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding auto thread-count resolution.
pub const THREADS_ENV: &str = "SENTINEL_THREADS";

/// Resolves a configured thread count: any nonzero value is taken as
/// is; `0` means auto — `SENTINEL_THREADS` if set to a positive
/// integer, otherwise [`std::thread::available_parallelism`].
pub fn effective_threads(configured: usize) -> usize {
    if configured != 0 {
        return configured;
    }
    if let Ok(value) = std::env::var(THREADS_ENV) {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Computes `f(0), f(1), …, f(n - 1)` on up to `threads` worker threads
/// and returns the results in index order.
///
/// With `threads <= 1` (or `n <= 1`) this is a plain sequential loop —
/// byte-for-byte the pre-parallelism behaviour. Workers claim indices
/// from a shared atomic counter (cheap dynamic load balancing) and tag
/// each result with its index, so the merged output never depends on
/// scheduling.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_indexed_init(n, threads, || (), |(), index| f(index))
}

/// [`map_indexed`] with per-worker state: each worker thread calls
/// `init()` once and threads the resulting value through every item it
/// claims. Made for reusable scratch (e.g. a
/// [`crate::tree::FitArena`]) — one warm arena per worker instead of
/// one allocation storm per item.
///
/// The state must be pure scratch: which worker computes which item is
/// scheduling-dependent, so any state that influenced results would
/// break the "identical output for every thread count" contract.
///
/// # Panics
///
/// Propagates a panic from any invocation of `init` or `f`.
pub fn map_indexed_init<S, T, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = threads.min(n);
    if threads <= 1 {
        let mut state = init();
        return (0..n).map(|index| f(&mut state, index)).collect();
    }
    let next = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let init = &init;
                let f = &f;
                scope.spawn(move || {
                    let mut state = init();
                    let mut produced = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            break;
                        }
                        produced.push((index, f(&mut state, index)));
                    }
                    produced
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("parallel worker panicked"))
            .collect()
    });
    // Ordered merge: scatter each tagged result into its slot.
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for bucket in buckets {
        for (index, value) in bucket {
            slots[index] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index produced exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order() {
        for threads in [1, 2, 8] {
            let out = map_indexed(100, threads, |i| i * i);
            assert_eq!(
                out,
                (0..100).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(map_indexed(3, 64, |i| i), vec![0, 1, 2]);
        assert_eq!(map_indexed(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn per_worker_state_is_reused_within_a_worker() {
        for threads in [1, 2, 8] {
            // Each worker counts how many items it processed; the sum
            // over all results must be n regardless of scheduling.
            let out = map_indexed_init(
                64,
                threads,
                || 0usize,
                |seen, i| {
                    *seen += 1;
                    (i, *seen)
                },
            );
            assert_eq!(out.len(), 64);
            assert!(out.iter().enumerate().all(|(k, &(i, _))| k == i));
            let total: usize = out.iter().filter(|&&(_, seen)| seen == 1).count();
            // Exactly one "first item" per participating worker.
            assert!(total >= 1 && total <= threads.min(64), "threads={threads}");
        }
    }

    #[test]
    fn nonzero_thread_count_is_taken_verbatim() {
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(7), 7);
        assert!(effective_threads(0) >= 1);
    }
}
