//! # mcpat-par — pooled fan-out for the modeling stack
//!
//! The modeling layers are trivially parallel at three levels (array
//! partition sweeps, per-unit core builds, per-candidate chip builds),
//! but the build environment vendors every dependency, so this crate
//! provides the minimal primitives instead of rayon: [`par_map`] over a
//! fixed worker count plus heterogeneous joins ([`join2`] … [`join6`]),
//! all running on one lazily-started, process-wide work-stealing
//! thread pool ([`pool`]: per-worker deques plus an injector queue).
//! Nested fan-outs are **nesting-aware**: a call made from a pool
//! worker pushes onto that worker's own deque and the worker helps
//! drain the queues while it waits, so a candidate sweep over N chips
//! saturates the machine exactly once instead of N × depth times.
//! Joins are **quiet**: their branches wait on the queue for the
//! calling thread unless expensive work calls [`wake`], so a join over
//! cheap branches never pays for waking a worker.
//!
//! Three properties every helper guarantees:
//!
//! * **Determinism** — results come back in input order; callers that
//!   reduce must use an order-independent (totally ordered) merge, and
//!   then serial and parallel execution are bit-identical.
//! * **Panic containment** — a panicking worker never unwinds across
//!   the pool (which would poison shared state or abort): every closure
//!   runs under `catch_unwind` and a panic surfaces as a typed
//!   [`ParError`] carrying the payload text. The pool itself stays
//!   usable after any number of contained panics.
//! * **Serial fallback** — with one thread (or inputs below the caller's
//!   threshold) the pool is never touched; the closures run inline on
//!   the calling thread.
//!
//! The worker count is resolved per call by [`threads`]: an in-process
//! override (tests, benchmarks), else the `MCPAT_THREADS` environment
//! variable (read through [`knobs`], the workspace's single env-read
//! seam), else [`std::thread::available_parallelism`].

pub mod knobs;
pub mod pool;

pub use pool::{wake, PoolStats};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Hard ceiling on the worker count, however it is requested.
pub(crate) const MAX_THREADS: usize = 64;

/// A failure inside a fanned-out worker.
///
/// The modeling core is panic-free by policy, so this is defense in
/// depth: if a worker does panic (a bug), the caller receives this typed
/// error instead of an unwinding thread or a poisoned lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// A worker closure panicked; `detail` is the panic payload when it
    /// was a string, or a placeholder otherwise.
    WorkerPanicked {
        /// Panic payload text.
        detail: String,
    },
}

impl ParError {
    fn from_payload(payload: &(dyn std::any::Any + Send)) -> ParError {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| String::from("<non-string panic payload>"));
        ParError::WorkerPanicked { detail }
    }

    pub(crate) fn vanished() -> ParError {
        ParError::WorkerPanicked {
            detail: String::from("worker terminated without producing a result"),
        }
    }
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::WorkerPanicked { detail } => {
                write!(f, "worker thread panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for ParError {}

/// In-process thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for this process (0 clears the override,
/// falling back to `MCPAT_THREADS` / the detected parallelism).
///
/// Intended for tests and benchmarks that compare serial against
/// parallel execution without mutating the process environment.
pub fn set_thread_override(n: usize) {
    THREAD_OVERRIDE.store(n.min(MAX_THREADS), Ordering::SeqCst);
}

fn detected_parallelism() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The `MCPAT_THREADS` knob, resolved once per process. `threads()` is
/// called by every `join*`/`par_map` — hundreds of times inside one
/// chip build — and `std::env::var` takes a process-global lock and
/// allocates per call, which on a single-lane host made the
/// override-free "parallel" mode measurably slower than the pinned
/// serial mode while executing the exact same inline code (the
/// `explore_parallel_vs_serial < 1` anomaly on the 1-CPU benchline
/// baseline). The documented knob contract already directs in-process
/// callers to [`set_thread_override`] rather than mutating the
/// environment mid-run, so a one-shot read observes every supported
/// configuration.
fn env_threads() -> Option<usize> {
    static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();
    *ENV_THREADS.get_or_init(knobs::threads)
}

/// The worker count used by every helper in this crate, resolved as:
/// [`set_thread_override`] if set, else a positive integer
/// `MCPAT_THREADS` environment variable (read once per process), else
/// the machine's available parallelism. Always ≥ 1 and ≤ 64.
#[must_use]
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Some(n) = env_threads() {
        return n.min(MAX_THREADS);
    }
    detected_parallelism().min(MAX_THREADS)
}

/// Runs a closure with panics converted into [`ParError`].
///
/// # Errors
///
/// [`ParError::WorkerPanicked`] if the closure panicked.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, ParError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        // The chaos-testing worker-kill marker must keep unwinding on
        // pool workers (it exists to kill the thread); everything else
        // is contained as a typed error.
        if pool::is_kill_payload(p.as_ref()) {
            std::panic::resume_unwind(p);
        }
        ParError::from_payload(p.as_ref())
    })
}

/// Maps `f` over `items`, fanning out across [`threads`] workers when
/// there are at least `min_parallel` items. Results are returned in
/// input order; `f` receives `(index, &item)`.
///
/// # Errors
///
/// [`ParError::WorkerPanicked`] if any invocation of `f` panicked (the
/// first failing index in input order wins).
pub fn par_map<I, T, F>(items: &[I], min_parallel: usize, f: F) -> Result<Vec<T>, ParError>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let workers = threads().min(items.len());
    if workers <= 1 || items.len() < min_parallel.max(2) {
        pool::note_inline(items.len() as u64);
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            out.push(catch(|| f(i, item))?);
        }
        return Ok(out);
    }
    pool::par_map_pooled(items, &f)
}

/// Runs two independent closures, in parallel when [`threads`] > 1.
///
/// # Errors
///
/// [`ParError::WorkerPanicked`] if either closure panicked.
pub fn join2<A, B, FA, FB>(fa: FA, fb: FB) -> Result<(A, B), ParError>
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if threads() <= 1 {
        pool::note_inline(2);
        return Ok((catch(fa)?, catch(fb)?));
    }
    pool::join2_pooled(fa, fb)
}

/// Runs four independent closures, in parallel when [`threads`] > 1.
///
/// # Errors
///
/// [`ParError::WorkerPanicked`] if any closure panicked.
pub fn join4<A, B, C, D, FA, FB, FC, FD>(
    fa: FA,
    fb: FB,
    fc: FC,
    fd: FD,
) -> Result<(A, B, C, D), ParError>
where
    A: Send,
    B: Send,
    C: Send,
    D: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
    FC: FnOnce() -> C + Send,
    FD: FnOnce() -> D + Send,
{
    if threads() <= 1 {
        pool::note_inline(4);
        return Ok((catch(fa)?, catch(fb)?, catch(fc)?, catch(fd)?));
    }
    pool::join4_pooled(fa, fb, fc, fd)
}

/// Runs six independent closures, in parallel when [`threads`] > 1.
///
/// # Errors
///
/// [`ParError::WorkerPanicked`] if any closure panicked.
#[allow(clippy::many_single_char_names)]
pub fn join6<A, B, C, D, E, G, FA, FB, FC, FD, FE, FG>(
    fa: FA,
    fb: FB,
    fc: FC,
    fd: FD,
    fe: FE,
    fg: FG,
) -> Result<(A, B, C, D, E, G), ParError>
where
    A: Send,
    B: Send,
    C: Send,
    D: Send,
    E: Send,
    G: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
    FC: FnOnce() -> C + Send,
    FD: FnOnce() -> D + Send,
    FE: FnOnce() -> E + Send,
    FG: FnOnce() -> G + Send,
{
    if threads() <= 1 {
        pool::note_inline(6);
        return Ok((
            catch(fa)?,
            catch(fb)?,
            catch(fc)?,
            catch(fd)?,
            catch(fe)?,
            catch(fg)?,
        ));
    }
    pool::join6_pooled(fa, fb, fc, fd, fe, fg)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the process-global thread override.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn with_override<T>(n: usize, f: impl FnOnce() -> T) -> T {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_thread_override(n);
        let out = f();
        set_thread_override(0);
        out
    }

    #[test]
    fn par_map_preserves_input_order() {
        for n in [1usize, 2, 3, 8] {
            let got = with_override(n, || {
                let items: Vec<usize> = (0..100).collect();
                par_map(&items, 2, |i, &x| {
                    assert_eq!(i, x);
                    x * x
                })
                .unwrap()
            });
            let want: Vec<usize> = (0..100).map(|x| x * x).collect();
            assert_eq!(got, want, "threads = {n}");
        }
    }

    #[test]
    fn par_map_small_inputs_stay_serial_and_correct() {
        let items = [7usize];
        let got = par_map(&items, 8, |_, &x| x + 1).unwrap();
        assert_eq!(got, vec![8]);
        let empty: [usize; 0] = [];
        assert!(par_map(&empty, 2, |_, &x: &usize| x).unwrap().is_empty());
    }

    #[test]
    fn worker_panic_becomes_typed_error() {
        for n in [1usize, 4] {
            let err = with_override(n, || {
                let items: Vec<usize> = (0..16).collect();
                par_map(&items, 2, |_, &x| {
                    assert!(x != 11, "boom at {x}");
                    x
                })
                .unwrap_err()
            });
            let ParError::WorkerPanicked { detail } = err;
            assert!(detail.contains("boom at 11"), "{detail}");
        }
    }

    #[test]
    fn join_helpers_return_everything() {
        for n in [1usize, 4] {
            with_override(n, || {
                let (a, b) = join2(|| 1, || "two").unwrap();
                assert_eq!((a, b), (1, "two"));
                let (a, b, c, d) = join4(|| 1, || 2, || 3, || 4).unwrap();
                assert_eq!((a, b, c, d), (1, 2, 3, 4));
                let (a, b, c, d, e, g) = join6(|| 1, || 2, || 3, || 4, || 5, || 6).unwrap();
                assert_eq!((a, b, c, d, e, g), (1, 2, 3, 4, 5, 6));
            });
        }
    }

    #[test]
    fn join_panic_is_contained() {
        let err = with_override(4, || {
            join2(|| 1, || -> i32 { panic!("join boom") }).unwrap_err()
        });
        assert!(err.to_string().contains("join boom"), "{err}");
    }

    #[test]
    fn nested_fanout_runs_on_the_pool_without_oversubscription() {
        let got = with_override(4, || {
            let items: Vec<usize> = (0..8).collect();
            par_map(&items, 2, |_, &x| {
                let (a, b, c, d) = join4(|| x, || x + 1, || x + 2, || x + 3).unwrap();
                let (e, f, g, h, i, j) =
                    join6(|| a, || b, || c, || d, || x * 10, || x * 100).unwrap();
                e + f + g + h + i + j
            })
            .unwrap()
        });
        let want: Vec<usize> = (0..8).map(|x| 4 * x + 6 + 10 * x + 100 * x).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn nested_join_panic_is_contained_and_pool_stays_usable() {
        let err = with_override(4, || {
            let items: Vec<usize> = (0..6).collect();
            par_map(&items, 2, |_, &x| {
                join6(
                    || x,
                    || x,
                    || x,
                    || x,
                    || x,
                    || {
                        assert!(x != 3, "inner boom {x}");
                        x
                    },
                )
                .unwrap()
                .0
            })
            .unwrap_err()
        });
        assert!(err.to_string().contains("inner boom 3"), "{err}");
        // The pool must remain fully usable after the contained panic.
        let ok = with_override(4, || {
            let items: Vec<usize> = (0..32).collect();
            par_map(&items, 2, |_, &x| x + 1).unwrap()
        });
        assert_eq!(ok, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn pooled_calls_submit_tasks_and_report_stats() {
        let before = pool::stats();
        let _ = with_override(4, || {
            let items: Vec<usize> = (0..16).collect();
            par_map(&items, 2, |_, &x| x).unwrap()
        });
        let after = pool::stats();
        assert!(after.submitted >= before.submitted + 16, "{after:?}");
        assert!(after.workers >= 1);
    }

    #[test]
    fn single_worker_fanout_is_pure_inline_with_zero_steals() {
        // The 1-CPU regression mode: with one worker every fan-out —
        // including nesting shaped like a chip build (par_map over
        // join4 over join6) — must run inline without ever touching
        // the pool queues. Submitting with no second lane to drain
        // the queue is pure overhead (the `clock_bisection_full`
        // parallel-slower-than-serial anomaly).
        let (before, after, got) = with_override(1, || {
            let before = pool::stats();
            let items: Vec<usize> = (0..12).collect();
            let got = par_map(&items, 2, |_, &x| {
                let (a, b, c, d) = join4(|| x, || x + 1, || x + 2, || x + 3).unwrap();
                let (e, f, ..) = join6(|| a + b, || c + d, || 0, || 0, || 0, || 0).unwrap();
                e + f
            })
            .unwrap();
            (before, pool::stats(), got)
        });
        let want: Vec<usize> = (0..12).map(|x| 4 * x + 6).collect();
        assert_eq!(got, want);
        assert_eq!(after.steals, before.steals, "one worker must never steal");
        assert_eq!(
            after.submitted, before.submitted,
            "one worker must never submit to the pool queues"
        );
        // Every closure (12 map items + 3 + 5 join arms each) billed
        // as inline execution.
        assert!(
            after.inline_execs >= before.inline_execs + 12 * (1 + 4 + 6),
            "{after:?} vs {before:?}"
        );
    }

    /// Spawns the pool's workers and lets them park, so the wake-up
    /// counter sees every later announcement.
    fn park_workers() {
        let items: Vec<usize> = (0..8).collect();
        par_map(&items, 2, |_, &x| x).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    #[test]
    fn quiet_join_runs_on_the_caller_without_waking() {
        with_override(4, || {
            park_workers();
            let me = std::thread::current().id();
            let here = || std::thread::current().id();
            let before = pool::stats();
            let (a, b, c, d) = join4(here, here, here, here).unwrap();
            let (e, f) = join2(here, here).unwrap();
            let after = pool::stats();
            assert!(after.submitted > before.submitted, "the join used the pool");
            assert_eq!(after.wakeups, before.wakeups, "a quiet join wakes nobody");
            assert!([a, b, c, d, e, f].iter().all(|&t| t == me));
        });
    }

    #[test]
    fn wake_in_the_lead_branch_hands_a_branch_to_a_worker() {
        with_override(2, || {
            park_workers();
            let me = std::thread::current().id();
            let ran = std::sync::atomic::AtomicBool::new(false);
            let before = pool::stats();
            let (_, other) = join2(
                || {
                    wake();
                    // Hold the caller until a worker has taken the branch
                    // (bounded, so a lost wake fails instead of hanging).
                    let start = std::time::Instant::now();
                    while !ran.load(Ordering::SeqCst)
                        && start.elapsed() < std::time::Duration::from_secs(5)
                    {
                        std::thread::yield_now();
                    }
                },
                || {
                    ran.store(true, Ordering::SeqCst);
                    std::thread::current().id()
                },
            )
            .unwrap();
            assert_ne!(other, me, "the woken worker ran the queued branch");
            assert!(pool::stats().wakeups > before.wakeups);
        });
    }

    #[test]
    fn nested_quiet_joins_with_random_wakes_complete_1000_rounds() {
        /// A leaf that wakes the pool when its pseudo-random draw says so.
        fn leaf(seed: u64, v: u64) -> u64 {
            let mut x = seed ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(3) {
                wake();
            }
            v
        }
        fn tree(seed: u64, depth: u32, v: u64) -> u64 {
            if depth == 0 {
                return leaf(seed, v);
            }
            let go = |k: u64| move || tree(seed.rotate_left(k as u32 + 1), depth - 1, v * 6 + k);
            if leaf(seed, depth.into()).is_multiple_of(2) {
                let (a, b) = join2(go(0), go(1)).unwrap();
                a + b
            } else {
                let (a, b, c, d, e, f) = join6(go(0), go(1), go(2), go(3), go(4), go(5)).unwrap();
                a + b + c + d + e + f
            }
        }
        with_override(4, || {
            for round in 0..1000u64 {
                let items: Vec<u64> = (0..4).collect();
                let got = par_map(&items, 2, |_, &x| tree(round * 7 + x, 2, x)).unwrap();
                let serial: Vec<u64> = items.iter().map(|&x| tree(round * 7 + x, 2, x)).collect();
                assert_eq!(got, serial, "round {round}");
            }
        });
    }

    #[test]
    fn override_beats_env_and_detection() {
        with_override(3, || assert_eq!(threads(), 3));
    }

    #[test]
    fn threads_is_at_least_one() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_thread_override(0);
        assert!(threads() >= 1);
    }
}
