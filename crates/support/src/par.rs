//! Scoped-thread fan-out (replacing the `crossbeam` dependency).
//!
//! `std::thread::scope` (stable since 1.63) already provides what the
//! workspace used crossbeam for: spawning borrowing worker threads. This
//! module wraps it in the one shape the experiment harness needs — map a
//! function over a work list on a bounded pool, preserving input order.

use std::sync::Mutex;

/// Resolves a worker-thread count from the `AJI_THREADS` environment
/// variable.
///
/// Unset, empty or non-numeric values resolve to `0`, which [`map`] treats
/// as "use available parallelism" (capped at 8). The experiment binaries
/// feed this into their `--threads` default, so
/// `AJI_THREADS=4 cargo run --release -p aji-bench --bin fig4_7` pins the
/// pool without touching the command line.
///
/// ```
/// // With AJI_THREADS unset the default is 0 = auto.
/// std::env::remove_var("AJI_THREADS");
/// assert_eq!(aji_support::par::threads_from_env(), 0);
/// ```
pub fn threads_from_env() -> usize {
    std::env::var("AJI_THREADS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Applies `f` to every item on up to `max_threads` scoped worker threads,
/// returning results in input order.
///
/// `max_threads == 0` means "use available parallelism" (capped at 8, like
/// the experiment binaries always did). Panics in `f` propagate once all
/// workers have stopped.
///
/// Results come back in **input order** regardless of which worker finished
/// first — this is what makes `aji-bench`'s parallel corpus runs
/// byte-identical to serial ones. Because the threads are scoped, `f` may
/// borrow from the caller's stack:
///
/// ```
/// let base = 10u64;
/// let out = aji_support::par::map(vec![1u64, 2, 3], 2, |x| base + x);
/// assert_eq!(out, vec![11, 12, 13]);
/// ```
pub fn map<T, R, F>(items: Vec<T>, max_threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = if max_threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(4)
    } else {
        max_threads
    };
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.min(n);
    // Work queue and an order-restoring result buffer.
    let work = Mutex::new(items.into_iter().enumerate().collect::<Vec<_>>());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let item = work.lock().unwrap().pop();
                let Some((i, x)) = item else { break };
                let r = f(x);
                results.lock().unwrap()[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("worker completed every claimed item"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = map((0..100).collect::<Vec<u32>>(), 4, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = map(Vec::<u32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_and_zero_means_auto() {
        let out = map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        let out = map(vec![1, 2, 3], 0, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn borrows_environment() {
        // The whole point of scoped threads: `f` may borrow locals.
        let factor = 3u64;
        let out = map(vec![1u64, 2, 3], 2, |x| x * factor);
        assert_eq!(out, vec![3, 6, 9]);
    }
}
