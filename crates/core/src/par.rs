//! The one in-process worker pool.
//!
//! Every in-process fan-out of the workspace — gate-set resolution and
//! the local candidate run of the
//! [`Evaluator`](crate::explore::Evaluator), multiplier-cache fills,
//! catalog training and the area-proxy study — runs on [`try_map`]:
//! scoped workers take runs of `chunk` consecutive items from a shared
//! counter, each worker keeps its own state across the runs it takes,
//! results come back in item order whatever the thread count, and the
//! first error stops the map. Callers choose only the work shape
//! (thread count and run length); ordering, error and panic handling
//! live here.
//!
//! ```
//! use pax_core::par;
//!
//! let squares = par::map(&[1, 2, 3, 4, 5], 2, 2, |x| x * x);
//! assert_eq!(squares, [1, 4, 9, 16, 25]);
//!
//! let parsed: Result<Vec<i32>, _> =
//!     par::try_map(&["1", "x", "3"], 2, 1, || (), |(), s| s.parse::<i32>());
//! assert!(parsed.is_err());
//! ```

use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicUsize};

/// Worker threads an in-process fan-out uses: the available
/// parallelism, capped at 16.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(4, NonZeroUsize::get).min(16)
}

/// [`try_map`] for infallible work that keeps no per-worker state.
pub fn map<T, R>(items: &[T], threads: usize, chunk: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    match try_map(items, threads, chunk, || (), |(), item| Ok::<R, Infallible>(f(item))) {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

/// Maps `f` over `items` on up to `threads` scoped workers and returns
/// the results in item order.
///
/// Workers take runs of `chunk` consecutive items (`0` counts as `1`)
/// from a shared counter, so uneven item costs balance across workers.
/// Each worker builds its state with `init` once, before its first run,
/// and hands it to every `f` call it makes — rolling caches that pay
/// off between neighbouring items live there. With one worker, or when
/// every item fits one run, the map runs on the calling thread and
/// spawns nothing.
///
/// # Errors
///
/// Returns the error of the lowest-indexed item that failed. The first
/// error stops the map: every worker checks for it before each item,
/// so no worker starts another item, let alone another run, once it is
/// seen.
///
/// # Panics
///
/// A panicking `f` stops the map like an error; once every worker has
/// stopped, the panic resumes on the calling thread with its original
/// payload.
pub fn try_map<T, S, R, E>(
    items: &[T],
    threads: usize,
    chunk: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
{
    let chunk = chunk.max(1);
    let n_runs = items.len().div_ceil(chunk);
    if n_runs == 0 {
        return Ok(Vec::new());
    }
    if threads.min(n_runs) <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    // Relaxed suffices for both: neither publishes data, and results
    // reach the caller through `join`.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let worker = || -> WorkerOutcome<R, E> {
        let mut state = init();
        let _stop_on_panic = StopOnPanic(&stop);
        let mut runs = Vec::new();
        while !stop.load(Relaxed) {
            let run = next.fetch_add(1, Relaxed);
            if run >= n_runs {
                break;
            }
            let start = run * chunk;
            let end = (start + chunk).min(items.len());
            let mut out = Vec::with_capacity(end - start);
            for (i, item) in items[start..end].iter().enumerate() {
                if stop.load(Relaxed) {
                    break;
                }
                match f(&mut state, item) {
                    Ok(r) => out.push(r),
                    Err(e) => {
                        stop.store(true, Relaxed);
                        return Err((start + i, e));
                    }
                }
            }
            runs.push((run, out));
        }
        Ok(runs)
    };
    let joined: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.min(n_runs)).map(|_| s.spawn(worker)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut runs = Vec::with_capacity(n_runs);
    let mut first_err: Option<(usize, E)> = None;
    for outcome in joined {
        match outcome {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(Ok(done)) => runs.extend(done),
            Ok(Err((at, e))) => {
                if first_err.as_ref().is_none_or(|(seen, _)| at < *seen) {
                    first_err = Some((at, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    runs.sort_unstable_by_key(|&(run, _)| run);
    Ok(runs.into_iter().flat_map(|(_, out)| out).collect())
}

/// One worker's finished runs as `(run index, results)`, or the index
/// and error of the item that stopped it.
type WorkerOutcome<R, E> = Result<Vec<(usize, Vec<R>)>, (usize, E)>;

/// Raises the map's stop flag when its worker unwinds, so a panic ends
/// the map as promptly as an error does.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::Barrier;

    #[test]
    fn results_come_back_in_item_order() {
        for threads in [1, 2, 8] {
            for chunk in [1, 3, 64] {
                // n = 0 is the empty input; n < threads leaves some
                // workers nothing to take.
                for n in [0usize, 1, 2, 7, 100] {
                    let items: Vec<usize> = (0..n).collect();
                    let got = map(&items, threads, chunk, |&i| i * 10);
                    let want: Vec<usize> = items.iter().map(|&i| i * 10).collect();
                    assert_eq!(got, want, "threads={threads} chunk={chunk} n={n}");
                }
            }
        }
    }

    #[test]
    fn first_error_stops_a_single_worker_at_that_item() {
        for chunk in [1, 3, 64] {
            for fail_at in [0usize, 4, 99] {
                let ran = AtomicUsize::new(0);
                let items: Vec<usize> = (0..100).collect();
                let got = try_map(
                    &items,
                    1,
                    chunk,
                    || (),
                    |(), &i| {
                        ran.fetch_add(1, Relaxed);
                        (i < fail_at).then_some(i).ok_or(i)
                    },
                );
                assert_eq!(got, Err(fail_at), "chunk={chunk}");
                assert_eq!(
                    ran.load(Relaxed),
                    fail_at + 1,
                    "chunk={chunk}: items ran past the error"
                );
            }
        }
    }

    #[test]
    fn failing_workers_stop_and_the_lowest_failing_item_wins() {
        for threads in [2usize, 8] {
            for chunk in [1, 3] {
                // The first `threads` items meet at a barrier, so each
                // worker holds one of them and all fail together. Any
                // item started after that would count past `threads`.
                let gate = Barrier::new(threads);
                let ran = AtomicUsize::new(0);
                let items: Vec<usize> = (0..1000).collect();
                let got: Result<Vec<usize>, usize> = try_map(
                    &items,
                    threads,
                    chunk,
                    || (),
                    |(), &i| {
                        if ran.fetch_add(1, Relaxed) < threads {
                            gate.wait();
                        }
                        Err(i)
                    },
                );
                assert_eq!(got, Err(0), "threads={threads} chunk={chunk}");
                assert_eq!(ran.load(Relaxed), threads, "threads={threads} chunk={chunk}");
            }
        }
    }

    #[test]
    fn an_error_or_panic_stops_the_other_workers_before_their_next_item() {
        /// Worker state that reports, when dropped, whether its worker
        /// ran the failing item: by then the map has seen the failure.
        struct Probe<'a> {
            failed: bool,
            gone: &'a AtomicBool,
        }
        impl Drop for Probe<'_> {
            fn drop(&mut self) {
                if self.failed {
                    self.gone.store(true, SeqCst);
                }
            }
        }
        for panics in [false, true] {
            for threads in [2usize, 8] {
                for chunk in [1, 3] {
                    let what = format!("panics={panics} threads={threads} chunk={chunk}");
                    let failer_gone = AtomicBool::new(false);
                    let ran = AtomicUsize::new(0);
                    let items: Vec<usize> = (0..1000).collect();
                    let run = || {
                        try_map(
                            &items,
                            threads,
                            chunk,
                            || Probe { failed: false, gone: &failer_gone },
                            |probe, &i| {
                                ran.fetch_add(1, SeqCst);
                                if i == 0 {
                                    probe.failed = true;
                                    assert!(!panics, "item 0 panicked");
                                    return Err(i);
                                }
                                // Hold every other item until the failing
                                // worker has stopped, so the failure lands
                                // while each worker is inside an item.
                                while !failer_gone.load(SeqCst) {
                                    std::thread::yield_now();
                                }
                                Ok(i)
                            },
                        )
                    };
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                        Ok(got) => assert_eq!(got, Err(0), "{what}"),
                        Err(payload) => {
                            // The original payload reaches the caller.
                            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
                            assert!(panics && msg == "item 0 panicked", "{what}: {msg:?}");
                        }
                    }
                    // Each worker finished at most the item it held.
                    let ran = ran.load(SeqCst);
                    assert!(ran <= threads, "{what}: {ran} items ran");
                }
            }
        }
    }

    #[test]
    fn each_worker_builds_its_state_once() {
        for threads in [1usize, 2, 8] {
            for chunk in [1, 3, 64] {
                let inits = AtomicUsize::new(0);
                let items: Vec<usize> = (0..50).collect();
                // A state is (worker id, items run so far); each item
                // reports its worker's state as it finds it.
                let got = try_map(
                    &items,
                    threads,
                    chunk,
                    || (inits.fetch_add(1, Relaxed), 0usize),
                    |(id, count), _| {
                        *count += 1;
                        Ok::<_, ()>((*id, *count))
                    },
                )
                .unwrap();
                let workers = threads.min(items.len().div_ceil(chunk));
                assert_eq!(inits.load(Relaxed), workers, "threads={threads} chunk={chunk}");
                // Per worker the counts run 1, 2, 3, … in item order; a
                // state rebuilt mid-map would restart at 1.
                let mut last = vec![0usize; workers];
                for (id, count) in got {
                    assert_eq!(count, last[id] + 1, "threads={threads} chunk={chunk}");
                    last[id] = count;
                }
                assert_eq!(last.iter().sum::<usize>(), items.len());
            }
        }
    }
}
