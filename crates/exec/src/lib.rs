//! A minimal scoped work-stealing thread pool (the container has no
//! third-party crates, so this stands in for `rayon`, the way
//! `specslice_corpus::rng` stands in for `rand` and `specslice_bench::timer`
//! for Criterion).
//!
//! The only shape of parallelism the slicer needs is a *parallel map over a
//! borrowed slice*: a batch of independent slicing criteria, each answered
//! against shared read-only session state. [`Pool::map`] provides exactly
//! that, built on [`std::thread::scope`] so the items, the closure, and any
//! captured session state are plain borrows — no `'static` bounds, no
//! channels, no reference counting.
//!
//! Scheduling is classic work stealing: the input index space is dealt into
//! one deque per worker, each worker drains its own deque from the front,
//! and a worker that runs dry steals from the *back* of a victim's deque
//! (back-stealing keeps the contended ends apart). Items cost wildly
//! different amounts in slicing workloads — one criterion can saturate a
//! whole recursion web while its neighbors touch three vertices — so static
//! chunking alone would leave workers idle exactly when it hurts.
//!
//! Results are returned **in input order** regardless of which worker
//! answered which item, and [`Pool::new`]`(1)` degenerates to a plain
//! sequential loop on the calling thread (no threads spawned), so callers
//! get bit-for-bit reproducibility across thread counts for free as long as
//! their closure is a pure function of the item.
//!
//! ```
//! let pool = specslice_exec::Pool::new(4);
//! let (squares, workers) = pool.map(&[1u64, 2, 3, 4, 5], || (), |(), _, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! assert!(workers.len() <= 4);
//! ```

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of hardware threads available to this process (1 when the query
/// fails). The conventional default for [`Pool::new`].
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A rejected worker-thread count: the value given and why it was
/// rejected (see [`parse_thread_count`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadConfigError {
    /// The rejected value, verbatim.
    pub value: String,
    /// Why it was rejected.
    pub reason: String,
}

impl std::fmt::Display for ThreadConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid thread count {:?}: {}", self.value, self.reason)
    }
}

impl std::error::Error for ThreadConfigError {}

/// Strictly parses a worker-thread count: a positive integer (surrounding
/// whitespace tolerated). `0` is rejected — a zero-width pool is always a
/// configuration mistake, even though downstream layers would clamp it.
pub fn parse_thread_count(value: &str) -> Result<usize, ThreadConfigError> {
    let reason = match value.trim().parse::<usize>() {
        Ok(0) => "thread count must be at least 1".to_string(),
        Ok(n) => return Ok(n),
        Err(e) => format!("not a positive integer ({e})"),
    };
    Err(ThreadConfigError {
        value: value.to_string(),
        reason,
    })
}

/// What one worker did during a [`Pool::map`] call — how many
/// items it answered, how many it had to steal, and how long it was busy.
/// Exposed so callers (e.g. `specslice`'s batch slicer) can report
/// per-thread utilization.
#[derive(Clone, Debug)]
pub struct WorkerStats {
    /// Worker index in `0..threads`.
    pub worker: usize,
    /// Items this worker processed.
    pub items: usize,
    /// Of those, how many were stolen from another worker's deque.
    pub steals: usize,
    /// Wall-clock from the worker's start to its last item retired.
    pub busy: Duration,
}

/// A fixed-width scoped thread pool. Creating one is free — threads are
/// spawned per call inside a [`std::thread::scope`], which is what lets the
/// mapped closure borrow from the caller's stack.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `threads` workers. `0` and `1` both mean "run on the
    /// calling thread, sequentially".
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool sized to [`available_parallelism`].
    pub fn with_available_parallelism() -> Pool {
        Pool::new(available_parallelism())
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f(&mut state, index, &item)` to every item, in parallel,
    /// returning the results in input order plus, for each worker that ran,
    /// its final state and its [`WorkerStats`].
    ///
    /// `init` runs once on each worker thread, and the resulting state is
    /// passed (mutably) to every item that worker answers. This is how
    /// callers thread scratch buffers through the hot loop without sharing
    /// or locking them — and, because the states come back, recycle them
    /// across calls.
    pub fn map<S, T, R, I, F>(&self, items: &[T], init: I, f: F) -> (Vec<R>, Vec<(S, WorkerStats)>)
    where
        S: Send,
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        let n = self.threads.min(items.len()).max(1);
        if n == 1 {
            // Sequential fast path: no threads, no queues, no locks. This is
            // also the semantics anchor — the parallel path must produce
            // exactly what this loop produces.
            let start = Instant::now();
            let mut state = init();
            let out: Vec<R> = items
                .iter()
                .enumerate()
                .map(|(i, item)| f(&mut state, i, item))
                .collect();
            let stats = WorkerStats {
                worker: 0,
                items: items.len(),
                steals: 0,
                busy: start.elapsed(),
            };
            return (out, vec![(state, stats)]);
        }

        // Deal the index space into contiguous per-worker deques. Contiguity
        // keeps each worker's initial run cache-friendly; stealing handles
        // whatever imbalance the deal leaves behind.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..n)
            .map(|w| {
                let lo = w * items.len() / n;
                let hi = (w + 1) * items.len() / n;
                Mutex::new((lo..hi).collect())
            })
            .collect();

        let (slots, stats) = std::thread::scope(|scope| {
            let queues = &queues;
            let init = &init;
            let f = &f;
            let handles: Vec<_> = (0..n)
                .map(|w| {
                    scope.spawn(move || {
                        let start = Instant::now();
                        let mut state = init();
                        let mut local: Vec<(usize, R)> = Vec::new();
                        let mut done = 0usize;
                        let mut steals = 0usize;
                        loop {
                            // Own deque first (front); then scan the other
                            // workers round-robin and steal from the back.
                            let mut next = lock(&queues[w]).pop_front();
                            let mut stolen = false;
                            if next.is_none() {
                                for off in 1..n {
                                    if let Some(i) = lock(&queues[(w + off) % n]).pop_back() {
                                        stolen = true;
                                        next = Some(i);
                                        break;
                                    }
                                }
                            }
                            // All deques empty means all work is claimed;
                            // no new items are ever enqueued, so exit.
                            let Some(i) = next else { break };
                            done += 1;
                            if stolen {
                                steals += 1;
                            }
                            local.push((i, f(&mut state, i, &items[i])));
                        }
                        let stats = WorkerStats {
                            worker: w,
                            items: done,
                            steals,
                            busy: start.elapsed(),
                        };
                        (local, (state, stats))
                    })
                })
                .collect();

            let mut slots: Vec<Option<R>> =
                std::iter::repeat_with(|| None).take(items.len()).collect();
            let mut stats = Vec::with_capacity(n);
            for handle in handles {
                // Re-raise a worker's panic with its original payload, so
                // the caller sees the real message/location instead of a
                // generic "worker panicked".
                let (local, worker) = match handle.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                };
                for (i, r) in local {
                    debug_assert!(slots[i].is_none(), "index {i} claimed twice");
                    slots[i] = Some(r);
                }
                stats.push(worker);
            }
            (slots, stats)
        });

        let out = slots
            .into_iter()
            .map(|slot| slot.expect("every index claimed exactly once"))
            .collect();
        (out, stats)
    }
}

/// Locks a queue, shrugging off poisoning: a poisoned deque of indices is
/// still valid (the panic that poisoned it propagates via the scope anyway).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The results of a stateless [`Pool::map`].
    fn map<T: Sync, R: Send>(pool: Pool, items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
        pool.map(items, || (), |(), i, item| f(i, item)).0
    }

    #[test]
    fn map_preserves_input_order() {
        for threads in [1, 2, 3, 8] {
            let items: Vec<usize> = (0..100).collect();
            let out = map(Pool::new(threads), &items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = Pool::new(8);
        let none: Vec<usize> = map(pool, &[] as &[usize], |_, &x| x);
        assert!(none.is_empty());
        assert_eq!(map(pool, &[7usize], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..257).collect();
        let out = map(Pool::new(4), &items, |_, &x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), items.len());
        assert_eq!(out, items);
    }

    #[test]
    fn per_worker_state_is_isolated() {
        // Each worker's state counts only its own items. If `init` were
        // shared (one state aliased across workers), some item would observe
        // a count larger than its worker's total; if a worker's counter were
        // reset or skipped, the multiset of observed counts would not be
        // exactly 1..=items for each worker.
        let items: Vec<usize> = (0..64).collect();
        let (out, workers) = Pool::new(4).map(
            &items,
            || 0usize,
            |seen, _, _| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(out.len(), items.len());
        assert_eq!(
            workers.iter().map(|(_, s)| s.items).sum::<usize>(),
            items.len()
        );
        // The returned state is the worker's final one.
        for (seen, stats) in &workers {
            assert_eq!(*seen, stats.items);
        }
        let mut observed = out;
        observed.sort_unstable();
        let mut expected: Vec<usize> = workers.iter().flat_map(|(_, s)| 1..=s.items).collect();
        expected.sort_unstable();
        assert_eq!(observed, expected);
    }

    #[test]
    fn imbalanced_work_gets_stolen() {
        // Index 0 is enormously more expensive than the rest; with static
        // chunking worker 0 would finish last while the others idle. The
        // pool must let other workers drain worker 0's remaining chunk.
        let items: Vec<usize> = (0..64).collect();
        let (out, workers) = Pool::new(4).map(
            &items,
            || (),
            |(), _, &x| {
                if x == 0 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                x
            },
        );
        assert_eq!(out, items);
        let total: usize = workers.iter().map(|(_, s)| s.items).sum();
        assert_eq!(total, items.len());
    }

    #[test]
    fn thread_count_parsing_is_strict() {
        // Valid widths parse (whitespace tolerated).
        assert_eq!(parse_thread_count("4"), Ok(4));
        assert_eq!(parse_thread_count(" 2 "), Ok(2));
        // `0` is rejected with a structured error.
        let zero = parse_thread_count("0").unwrap_err();
        assert!(zero.reason.contains("at least 1"), "{zero}");
        // Unparsable text is rejected, and the rendering names the value.
        for bad in ["abc", "-1", "2.5", ""] {
            let err = parse_thread_count(bad).unwrap_err();
            assert_eq!(err.value, bad);
            let msg = err.to_string();
            assert!(msg.contains(&format!("{bad:?}")), "{msg}");
            assert!(msg.contains("not a positive integer"), "{msg}");
        }
    }

    #[test]
    fn zero_threads_means_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(
            map(Pool::new(0), &[1, 2, 3], |_, &x: &i32| x),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..321).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(2_654_435_761).rotate_left(7);
        let seq = map(Pool::new(1), &items, f);
        for threads in [2, 5, 16] {
            assert_eq!(map(Pool::new(threads), &items, f), seq, "{threads} threads");
        }
    }
}
