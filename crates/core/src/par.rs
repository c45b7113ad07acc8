//! The one parallelism primitive of the workspace: one process-wide
//! pool of resident threads ([`global`]), which runs submitted jobs
//! ([`Pool::spawn`]) and the order-preserving parallel map over the
//! cells of an experiment grid ([`par_map`]).
//!
//! The build environment has no network access, so `rayon` is not
//! available. The pool starts on first use and is sized once, to the
//! fan-out width (`DISTVLIW_THREADS`, or the CPU count). Jobs are owned
//! `'static` closures, so no borrowed data crosses a thread and the
//! crate stays free of `unsafe`. [`par_map`] returns results in input order
//! regardless of completion order, so callers that fold them
//! sequentially stay deterministic.
//!
//! A fan-out of width `w` queues at most `w − 1` runner jobs. Each
//! runner installs the caller's trace context and claims unclaimed
//! items until none is left. The caller claims items the same way,
//! then blocks until the items the runners claimed have finished; it
//! never runs queued jobs. Nobody ever waits on an unclaimed item, and
//! a claimed item is always running, so a map called from inside a job
//! cannot deadlock, whatever the pool's size: a served request is a
//! job that is the caller of its own fan-out. In practice compute fans
//! out at one level: the two cell executors map over cells or compile
//! units, and those run their suite's kernels serially.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

use distvliw_obs::trace::{self, TraceCtx};
use distvliw_obs::Counter;

/// The fan-out width callers ask for. `DISTVLIW_THREADS` overrides the
/// CPU count (e.g. `DISTVLIW_THREADS=1` forces serial runs for timing
/// comparisons). The variable is read on every call, so a process can
/// switch to a serial fan-out mid-run; the CPU count is detected once.
fn requested_width() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    std::env::var("DISTVLIW_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        })
}

/// Applies `f` to every item of `items` concurrently on the resident
/// pool, returning the results in input order. A single item or a
/// width of one runs serially on the caller and never starts the pool.
///
/// # Panics
///
/// Re-raises the original payload of the lowest-index item whose `f`
/// panicked, after every item has finished. The pool's threads survive.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Clone + Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&T) -> R + Send + Sync + 'static,
{
    let width = requested_width();
    if width.min(items.len()) <= 1 {
        return items.iter().map(f).collect();
    }
    global().map(width, items, f)
}

/// The process-wide pool, started on first use with one thread per
/// unit of fan-out width.
pub fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut pool = Pool::new(requested_width());
        pool.jobs = jobs_counter();
        pool
    })
}

/// The pool's counter in the global registry.
pub(crate) fn jobs_counter() -> Counter {
    distvliw_obs::global().counter(
        "par_pool_jobs_total",
        "Fan-out items run by the resident pool's jobs, off the calling thread",
    )
}

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send>;

/// Resident threads running queued jobs, first in first out, until the
/// pool drops.
pub struct Pool {
    queue: Arc<Queue>,
    threads: Vec<JoinHandle<()>>,
    /// Items run by runner jobs rather than by their caller.
    jobs: Counter,
}

/// The job queue the pool's threads serve.
#[derive(Default)]
struct Queue {
    state: Mutex<QueueState>,
    /// Signalled on a push and on close.
    wake: Condvar,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl Queue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().expect("queue lock")
    }

    fn push(&self, job: Job) {
        self.lock().jobs.push_back(job);
        self.wake.notify_one();
    }

    /// A pool thread's loop: runs queued jobs, sleeping while the queue
    /// is empty, until the queue is closed and drained. A panicking job
    /// is dropped; the thread lives on.
    fn serve(&self) {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                drop(state);
                let _ = panic::catch_unwind(AssertUnwindSafe(job));
                state = self.lock();
            } else if state.closed {
                return;
            } else {
                state = self.wake.wait(state).expect("queue lock");
            }
        }
    }
}

/// One fan-out: its items, their results and the claim cursor.
struct Batch<T, R, F> {
    items: Vec<T>,
    f: F,
    /// The caller's trace context, installed around every runner.
    ctx: TraceCtx,
    next: AtomicUsize,
    results: Mutex<Results<R>>,
    /// Signalled when the last item finishes.
    done: Condvar,
}

struct Results<R> {
    slots: Vec<Option<R>>,
    /// Items not yet finished; the caller returns at zero.
    remaining: usize,
    /// The lowest-index panic payload.
    panic: Option<(usize, Box<dyn Any + Send>)>,
}

impl<T, R, F: Fn(&T) -> R> Batch<T, R, F> {
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.items.len()).then_some(i)
    }

    /// Runs item `i` and files its result or panic; the last item wakes
    /// the caller.
    fn run(&self, i: usize) {
        let out = panic::catch_unwind(AssertUnwindSafe(|| (self.f)(&self.items[i])));
        let mut results = self.results.lock().expect("results lock");
        match out {
            Ok(r) => results.slots[i] = Some(r),
            Err(payload) => {
                if results.panic.as_ref().is_none_or(|&(j, _)| i < j) {
                    results.panic = Some((i, payload));
                }
            }
        }
        results.remaining -= 1;
        if results.remaining == 0 {
            self.done.notify_one();
        }
    }
}

impl Pool {
    /// A pool of `threads` resident threads (at least one).
    #[must_use]
    pub fn new(threads: usize) -> Pool {
        let queue = Arc::new(Queue::default());
        let threads = (0..threads.max(1))
            .map(|i| {
                let queue = queue.clone();
                std::thread::Builder::new()
                    .name(format!("par-{i}"))
                    .spawn(move || queue.serve())
                    .expect("spawn a pool thread")
            })
            .collect();
        Pool {
            queue,
            threads,
            jobs: Counter::new(),
        }
    }

    /// Queues `job` behind every job submitted before it; the first
    /// free thread runs it.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.queue.push(Box::new(job));
    }

    /// [`par_map`] at fan-out `width`: at most `width − 1` runner jobs
    /// (capped by the pool's size) beside the caller, so at most `width`
    /// items run at once.
    fn map<T, R, F>(&self, width: usize, items: &[T], f: F) -> Vec<R>
    where
        T: Clone + Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        let runners = width
            .saturating_sub(1)
            .min(self.threads.len())
            .min(items.len().saturating_sub(1));
        if runners == 0 {
            return items.iter().map(f).collect();
        }
        let batch = Arc::new(Batch {
            items: items.to_vec(),
            f,
            ctx: trace::current_ctx(),
            next: AtomicUsize::new(0),
            results: Mutex::new(Results {
                slots: std::iter::repeat_with(|| None).take(items.len()).collect(),
                remaining: items.len(),
                panic: None,
            }),
            done: Condvar::new(),
        });
        for _ in 0..runners {
            let (batch, jobs) = (batch.clone(), self.jobs.clone());
            self.queue.push(Box::new(move || {
                trace::with_ctx(batch.ctx.clone(), || {
                    while let Some(i) = batch.claim() {
                        batch.run(i);
                        jobs.inc();
                    }
                });
            }));
        }
        while let Some(i) = batch.claim() {
            batch.run(i);
        }
        let mut results = batch.results.lock().expect("results lock");
        while results.remaining > 0 {
            results = batch.done.wait(results).expect("results lock");
        }
        let (slots, panicked) = (std::mem::take(&mut results.slots), results.panic.take());
        drop(results);
        if let Some((_, payload)) = panicked {
            panic::resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every item ran"))
            .collect()
    }
}

impl Drop for Pool {
    /// Closes the queue: each thread exits once the queue has drained.
    fn drop(&mut self) {
        self.queue.lock().closed = true;
        self.queue.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    /// Fan-out widths every pool test runs at: the serial path, the
    /// smallest parallel one and more runners than most hosts have CPUs.
    const WIDTHS: [usize; 3] = [1, 2, 8];

    /// A local pool for fan-outs of `width`.
    fn pool(width: usize) -> Pool {
        Pool::new(width)
    }

    fn panic_message(err: &(dyn Any + Send)) -> &str {
        err.downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or("")
    }

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let want: Vec<u64> = items.iter().map(|x| x * 2).collect();
        for width in WIDTHS {
            assert_eq!(pool(width).map(width, &items, |&x| x * 2), want, "{width}");
        }
        assert_eq!(par_map(&items, |&x| x * 2), want);
    }

    #[test]
    fn concurrency_never_exceeds_the_width() {
        // A pool sized for eight, asked for narrower fan-outs.
        let pool = pool(8);
        let items: Vec<u64> = (0..24).collect();
        for width in WIDTHS {
            let active = Arc::new(AtomicUsize::new(0));
            let peak = Arc::new(AtomicUsize::new(0));
            let (a, p) = (active.clone(), peak.clone());
            pool.map(width, &items, move |_| {
                p.fetch_max(a.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(200));
                a.fetch_sub(1, Ordering::SeqCst);
            });
            assert!(peak.load(Ordering::SeqCst) <= width, "{width}");
        }
    }

    #[test]
    fn empty_and_single_item_work() {
        for width in WIDTHS {
            let pool = pool(width);
            assert!(pool.map(width, &Vec::<u32>::new(), |&x| x).is_empty());
            assert_eq!(pool.map(width, &[7u32], |&x| x + 1), vec![8]);
            assert_eq!(pool.jobs.get(), 0, "{width}: nothing to hand off");
        }
    }

    #[test]
    fn uneven_work_still_orders() {
        let items: Vec<u64> = (0..32).collect();
        for width in WIDTHS {
            let pool = pool(width);
            let out = pool.map(width, &items, |&x| {
                // Early items take longest: exercises out-of-order
                // completion.
                std::thread::sleep(std::time::Duration::from_micros(320 - x * 10));
                x
            });
            assert_eq!(out, items, "{width}");
            if width == 1 {
                assert_eq!(pool.jobs.get(), 0, "a serial map stays on the caller");
            }
        }
    }

    #[test]
    fn worker_panic_message_propagates() {
        let items: Vec<u32> = (0..16).collect();
        for width in WIDTHS {
            let pool = pool(width);
            let err = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.map(width, &items, |&x| {
                    assert!(x != 3, "kernel exploded");
                    x
                })
            }))
            .unwrap_err();
            assert!(
                panic_message(err.as_ref()).contains("kernel exploded"),
                "{width}: masked panic: {:?}",
                panic_message(err.as_ref())
            );
            // The next map completes, on the caller and the same resident
            // threads.
            let ids = pool.map(width, &items, |_| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                std::thread::current().id()
            });
            let mut known: Vec<ThreadId> = pool.threads.iter().map(|h| h.thread().id()).collect();
            known.push(std::thread::current().id());
            assert!(ids.iter().all(|id| known.contains(id)), "{width}");
            assert!(pool.threads.iter().all(|h| !h.is_finished()), "{width}");
        }
    }

    #[test]
    fn a_map_inside_a_job_completes() {
        for width in WIDTHS {
            let pool = Arc::new(pool(width));
            let inner = pool.clone();
            let items: Vec<u64> = (0..8).collect();
            let out = pool.map(width, &items, move |&x| {
                let row: Vec<u64> = (0..8).collect();
                inner
                    .map(width, &row, move |&y| x * 8 + y)
                    .iter()
                    .sum::<u64>()
            });
            let want: Vec<u64> = items.iter().map(|x| x * 64 + 28).collect();
            assert_eq!(out, want, "{width}");
        }
    }

    #[test]
    fn job_spans_land_in_the_callers_sink() {
        for width in WIDTHS {
            let pool = pool(width);
            let sink = trace::TraceSink::new();
            let items: Vec<u64> = (0..24).collect();
            trace::with_ctx(TraceCtx::for_sink(&sink), || {
                pool.map(width, &items, |&x| {
                    let _span = distvliw_obs::Span::enter("par.test_item");
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    x
                })
            });
            let (records, dropped) = sink.take();
            assert_eq!(dropped, 0, "{width}");
            let spans: Vec<_> = records
                .iter()
                .filter(|r| r.name == "par.test_item")
                .collect();
            assert_eq!(spans.len(), items.len(), "{width}");
            assert!(spans.iter().all(|r| r.trace == sink.trace_id()), "{width}");
        }
    }

    #[test]
    fn spawned_jobs_run_in_order_and_a_panic_spares_the_thread() {
        let pool = Pool::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn(|| panic!("request exploded"));
        for i in 0..4 {
            let tx = tx.clone();
            pool.spawn(move || tx.send((i, std::thread::current().id())).unwrap());
        }
        let ran: Vec<(i32, ThreadId)> = rx.iter().take(4).collect();
        assert_eq!(ran.iter().map(|r| r.0).collect::<Vec<_>>(), [0, 1, 2, 3]);
        let thread = pool.threads[0].thread().id();
        assert!(ran.iter().all(|r| r.1 == thread));
        assert!(!pool.threads[0].is_finished());
    }

    #[test]
    fn errors_pass_through_as_values() {
        let items = vec![1u32, 0, 3];
        for width in WIDTHS {
            let out = pool(width).map(width, &items, |&x| if x == 0 { Err("zero") } else { Ok(x) });
            assert_eq!(out, vec![Ok(1), Err("zero"), Ok(3)]);
        }
    }
}
