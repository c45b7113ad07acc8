//! Minimal scoped-thread fan-out over the cells of an experiment grid.
//!
//! The build environment has no network access, so `rayon` is not
//! available; this module provides the one parallelism primitive the
//! workspace uses — an order-preserving parallel map over a slice — on
//! plain `std::thread::scope` with an atomic work index. Results come
//! back in input order regardless of completion order, so callers that
//! fold them sequentially stay deterministic. Compute fans out at one
//! level only: the two cell executors map it over cells or compile
//! units, and those run their suite's kernels serially, so fan-outs
//! never nest.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on worker threads: the cell fan-out width. Set
/// `DISTVLIW_THREADS` to override the detected parallelism (e.g.
/// `DISTVLIW_THREADS=1` forces serial runs for timing comparisons).
fn worker_count(items: usize) -> usize {
    let detected = std::env::var("DISTVLIW_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    detected.min(items)
}

/// Applies `f` to every item of `items` concurrently, returning the
/// results in input order. Falls back to a serial loop for a single item
/// or a single worker.
///
/// # Panics
///
/// Re-raises the original payload of the first worker (in spawn order)
/// whose `f` panicked, after every worker has finished.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_on(worker_count(items.len()), items, f)
}

/// [`par_map`] on exactly `workers` threads (the serial loop when
/// `workers <= 1`), so tests can drive the parallel branch whatever the
/// host's CPU count.
fn par_map_on<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    // Worker threads inherit the caller's trace context so spans opened
    // inside `f` (compile, sim, direct units) stay attached to the
    // requesting trace; this is the single propagation point for every
    // fan-out in the workspace.
    let ctx = distvliw_obs::trace::current_ctx();
    let next = AtomicUsize::new(0);
    let joined: Vec<std::thread::Result<Vec<(usize, R)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (ctx, next, f) = (ctx.clone(), &next, &f);
                scope.spawn(move || {
                    distvliw_obs::trace::with_ctx(ctx, || {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break done };
                            done.push((i, f(item)));
                        }
                    })
                })
            })
            .collect();
        // Joining the handles here, rather than letting the scope join
        // them, keeps a worker's own panic payload: the scope would
        // replace it with a generic "a scoped thread panicked".
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for done in joined {
        let done = done.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        for (i, r) in done {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("worker produced every index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Worker counts every fan-out test runs at: the serial path, the
    /// smallest parallel one and more workers than most hosts have CPUs.
    const WORKERS: [usize; 3] = [1, 2, 8];

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let want: Vec<u64> = items.iter().map(|x| x * 2).collect();
        for workers in WORKERS {
            assert_eq!(par_map_on(workers, &items, |&x| x * 2), want, "{workers}");
        }
        assert_eq!(par_map(&items, |&x| x * 2), want);
    }

    #[test]
    fn empty_and_single_item_work() {
        let empty: Vec<u32> = vec![];
        for workers in WORKERS {
            assert!(par_map_on(workers, &empty, |&x| x).is_empty());
            assert_eq!(par_map_on(workers, &[7u32], |&x| x + 1), vec![8]);
        }
    }

    #[test]
    fn uneven_work_still_orders() {
        let items: Vec<u64> = (0..32).collect();
        for workers in WORKERS {
            let out = par_map_on(workers, &items, |&x| {
                // Early items take longest: exercises out-of-order
                // completion.
                std::thread::sleep(std::time::Duration::from_micros(320 - x * 10));
                x
            });
            assert_eq!(out, items, "{workers} workers");
        }
    }

    #[test]
    fn worker_panic_message_propagates() {
        let items = vec![1u32, 2, 3, 4];
        for workers in WORKERS {
            let result = std::panic::catch_unwind(|| {
                par_map_on(workers, &items, |&x| {
                    assert!(x != 3, "kernel exploded");
                    x
                })
            });
            let err = result.unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or("");
            assert!(
                msg.contains("kernel exploded"),
                "{workers} workers: masked panic: {msg:?}"
            );
        }
    }

    #[test]
    fn errors_pass_through_as_values() {
        let items = vec![1u32, 0, 3];
        for workers in WORKERS {
            let out = par_map_on(
                workers,
                &items,
                |&x| if x == 0 { Err("zero") } else { Ok(x) },
            );
            assert_eq!(out, vec![Ok(1), Err("zero"), Ok(3)]);
        }
    }
}
