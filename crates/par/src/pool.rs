//! The persistent work-stealing pool behind the fan-out helpers.
//!
//! PR 2 fanned work out with `std::thread::scope`, spawning fresh OS
//! threads on every `par_map`/`join*` call. That is correct but
//! catastrophic under nesting: `explore` → `join4` (chip units) →
//! `join6` (core units) → partition sweeps spawns `N × depth` threads
//! and oversubscribes the machine (the committed baseline measured
//! 0.78× *slow-down* for parallel explore). This module replaces the
//! spawning with one process-wide pool:
//!
//! * **Injector + per-worker deques.** External callers push task
//!   batches onto a shared injector queue; pool workers push nested
//!   fan-outs onto their own deque. A worker pops its own deque LIFO
//!   (locality), then the injector FIFO, then *steals* FIFO from a
//!   sibling's deque. All queues live under one short-hold mutex —
//!   tasks here are microseconds to milliseconds of modeling work, so
//!   queue transfer cost is noise.
//! * **Help-while-wait.** A caller that submitted a batch does not
//!   block: it executes queued tasks (its own, or anyone's) until its
//!   batch latch opens. Workers blocked on a *nested* fan-out do the
//!   same, so every OS thread stays busy and nested joins can never
//!   deadlock the pool.
//! * **Quiet joins, eager maps.** A `join*` queues its branches without
//!   waking anyone: the caller drains them itself after its lead
//!   branch, so a join over microsecond branches (solve-cache hits in a
//!   warm build) costs no wake-up. Work known to be expensive announces
//!   itself: `par_map` wakes idle lanes on submission, and the array
//!   optimizer calls [`wake`] on entry, which announces every
//!   quietly queued branch so a cold build still fans out.
//! * **Two condvars.** Idle workers park on a work condvar, helpers
//!   waiting for a latch on a latch condvar. Both parked counts live
//!   under the queue lock, so a finished task notifies the latch
//!   condvar only when a helper is parked on it, and an announcement
//!   notifies only condvars that have a parked thread.
//! * **Lazy, growable sizing.** No thread is spawned until the first
//!   parallel call. The pool grows to `threads() - 1` resident workers
//!   (the submitting thread is the final lane) and honors the same
//!   resolution as [`crate::threads`]: override, then `MCPAT_THREADS`
//!   (read once per process via [`crate::knobs`] — this module reads
//!   no environment), then detected parallelism. The lane count is
//!   mirrored in an atomic, so a fan-out checks it without the lock.
//!
//! # Safety
//!
//! Tasks are type-erased pointers to stack frames of the submitting
//! caller (`TaskRef`). This is sound because every submission path
//! blocks (helping) until its batch latch reports completion, and a
//! task's final touch of batch memory is the latch update itself; the
//! wake-up signal afterwards only touches the pool's `'static` state.
//! Panics never unwind through the pool: user closures run under
//! [`crate::catch`], latches open via drop guards, and the worker loop
//! carries a defense-in-depth `catch_unwind` so a buggy task can never
//! kill or poison a worker.

use crate::ParError;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Upper bound on resident workers (one below [`crate::MAX_THREADS`]:
/// the submitting thread is always the extra lane).
const MAX_WORKERS: usize = crate::MAX_THREADS - 1;

/// Heartbeat for idle waits. Wake-ups are edge-triggered through the
/// condvars; the timeout is pure defense in depth so a (hypothetical)
/// missed notification degrades to slow polling instead of a hang.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Snapshot of the pool's monotonic activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Resident worker threads (0 until the first parallel call).
    pub workers: usize,
    /// Tasks pushed onto the injector or a worker deque.
    pub submitted: u64,
    /// Tasks executed by a thread other than their queue's owner.
    pub steals: u64,
    /// Closures run inline on the calling thread without submission
    /// (serial fallback and the leading closure of each join).
    pub inline_execs: u64,
    /// Worker threads respawned after dying mid-task (a task that
    /// unwinds through the defense-in-depth catch — see
    /// [`chaos_kill_worker`] — kills its worker; a drop guard respawns
    /// a replacement up to a capped respawn budget).
    pub workers_respawned: u64,
    /// Announcements of queued work that reached a parked thread: a
    /// notify of the work condvar (idle workers), plus the latch
    /// condvar when a helper was parked there. Quiet joins make none.
    pub wakeups: u64,
}

/// A type-erased pointer to a task living on a submitting caller's
/// stack. See the module-level safety argument. `exec` receives
/// "this execution was a steal" so the task can bill the steal to the
/// scope chain it captured at submission time (see `mcpat-obs`).
#[derive(Clone, Copy)]
pub(crate) struct TaskRef {
    data: *const (),
    exec: unsafe fn(*const (), bool),
}

// SAFETY: the pointee is a `Sync` batch structure owned by a caller
// that outlives execution (it blocks on the batch latch), so handing
// the pointer to another thread is sound.
unsafe impl Send for TaskRef {}

struct Queues {
    injector: VecDeque<TaskRef>,
    locals: Vec<VecDeque<TaskRef>>,
    /// Resident workers parked on [`Shared::work`].
    idle: usize,
    /// Helpers parked on [`Shared::latch`].
    parked: usize,
}

impl Queues {
    fn has_work(&self) -> bool {
        !self.injector.is_empty() || self.locals.iter().any(|d| !d.is_empty())
    }
}

struct Shared {
    queues: Mutex<Queues>,
    /// Idle workers wait here for announced work.
    work: Condvar,
    /// Helpers wait here for their batch latch to open.
    latch: Condvar,
    /// `queues.locals.len()`, written under the lock and read without
    /// it by every fan-out.
    lanes: AtomicUsize,
    submitted: AtomicU64,
    steals: AtomicU64,
    inline_execs: AtomicU64,
    respawned: AtomicU64,
    wakeups: AtomicU64,
}

thread_local! {
    /// Index of the pool worker running on this thread, if any.
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        queues: Mutex::new(Queues {
            injector: VecDeque::new(),
            locals: Vec::new(),
            idle: 0,
            parked: 0,
        }),
        work: Condvar::new(),
        latch: Condvar::new(),
        lanes: AtomicUsize::new(0),
        submitted: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        inline_execs: AtomicU64::new(0),
        respawned: AtomicU64::new(0),
        wakeups: AtomicU64::new(0),
    })
}

/// Locks the queue mutex, shrugging off poisoning: no user code ever
/// runs while the guard is held, so the protected state cannot be
/// mid-mutation even after a panic elsewhere.
fn lock(shared: &Shared) -> MutexGuard<'_, Queues> {
    shared.queues.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Current counter snapshot. Counters are process-global and
/// monotonic; callers measure phases by differencing two snapshots.
#[must_use]
pub fn stats() -> PoolStats {
    let shared = shared();
    PoolStats {
        workers: shared.lanes.load(Ordering::Acquire),
        submitted: shared.submitted.load(Ordering::Relaxed),
        steals: shared.steals.load(Ordering::Relaxed),
        inline_execs: shared.inline_execs.load(Ordering::Relaxed),
        workers_respawned: shared.respawned.load(Ordering::Relaxed),
        wakeups: shared.wakeups.load(Ordering::Relaxed),
    }
}

/// Records `n` closures executed inline without pool submission, both
/// globally and against the caller's active scope chain.
pub(crate) fn note_inline(n: u64) {
    shared().inline_execs.fetch_add(n, Ordering::Relaxed);
    mcpat_obs::record_pool_inline(n);
}

/// True when the calling thread is a resident pool worker (used by
/// tests; nested submission routing keys off the same thread-local).
#[must_use]
pub fn is_pool_worker() -> bool {
    WORKER.with(Cell::get).is_some()
}

/// True when a fan-out from this thread would have no second lane to
/// run on: the pool holds no resident worker besides (possibly) the
/// calling thread itself — either worker spawning failed, or the sole
/// resident worker is the caller of a nested fan-out. Submitting in
/// that state only round-trips every task through the queue mutex and
/// condvar back to this same thread (the `clock_bisection_full`
/// parallel-slower-than-serial anomaly on a 1-CPU host), so the pooled
/// paths fall back to inline execution instead.
fn no_second_lane(shared: &Shared) -> bool {
    let workers = shared.lanes.load(Ordering::Acquire);
    workers == 0 || (workers == 1 && is_pool_worker())
}

/// Grows the pool to `want` resident workers (capped, never shrinks).
/// Spawn failures degrade gracefully: submitting threads always help
/// drain the queues, so fewer workers costs throughput, not progress.
fn ensure_workers(shared: &'static Shared, want: usize) {
    let want = want.min(MAX_WORKERS);
    if shared.lanes.load(Ordering::Acquire) >= want {
        return;
    }
    let mut q = lock(shared);
    while q.locals.len() < want {
        let index = q.locals.len();
        q.locals.push(VecDeque::new());
        let spawned = std::thread::Builder::new()
            .name(format!("mcpat-par-{index}"))
            .spawn(move || worker_main(shared, index));
        if spawned.is_err() {
            q.locals.pop();
            break;
        }
    }
    shared.lanes.store(q.locals.len(), Ordering::Release);
}

/// Lifetime cap on worker respawns: generous against any plausible bug
/// rate, but bounded so a pathological kill loop cannot fork-bomb.
const MAX_RESPAWNS: u64 = 256;

/// Respawns worker lane `me` when its thread dies by panic. The lane's
/// deque stays registered (and stealable) while the lane is dead, so
/// queued tasks are never lost either way; the respawn restores
/// steady-state throughput.
struct RespawnGuard {
    shared: &'static Shared,
    me: usize,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        if self.shared.respawned.load(Ordering::SeqCst) >= MAX_RESPAWNS {
            return;
        }
        let shared = self.shared;
        let me = self.me;
        let spawned = std::thread::Builder::new()
            .name(format!("mcpat-par-{me}"))
            .spawn(move || worker_main(shared, me));
        if spawned.is_ok() {
            shared.respawned.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Marker panic payload used by [`chaos_kill_worker`]. Both unwind
/// catches on the worker path re-raise it instead of converting it to
/// a [`ParError`], so the carrying worker thread genuinely dies.
#[doc(hidden)]
#[derive(Debug)]
pub struct WorkerKill;

/// Chaos-testing hook: when called from a task running on a resident
/// pool worker, kills that worker thread mid-task (the task's latch
/// still opens via its drop guard, so the submitter observes a typed
/// error instead of a hang, and [`RespawnGuard`] brings a replacement
/// lane up). A no-op on non-worker threads — external helpers must
/// never die.
#[doc(hidden)]
#[allow(clippy::panic)] // the panic IS the chaos injection: it must unwind the worker
                        // lint: allow(L013, the chaos tests kill pool workers mid-task with it)
pub fn chaos_kill_worker() {
    if is_pool_worker() {
        std::panic::panic_any(WorkerKill);
    }
}

/// True when an unwind payload is the chaos kill marker and the
/// current thread is a pool worker that should die from it.
pub(crate) fn is_kill_payload(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.downcast_ref::<WorkerKill>().is_some() && is_pool_worker()
}

/// Pops the best task for `me`: own deque LIFO, injector (FIFO for
/// workers, LIFO for external helpers — their own batch is on top),
/// then steal FIFO from a sibling. The bool is "this was a steal".
fn pop_task(q: &mut Queues, me: Option<usize>) -> Option<(TaskRef, bool)> {
    if let Some(i) = me {
        if let Some(t) = q.locals.get_mut(i).and_then(VecDeque::pop_back) {
            return Some((t, false));
        }
        if let Some(t) = q.injector.pop_front() {
            return Some((t, false));
        }
    } else if let Some(t) = q.injector.pop_back() {
        return Some((t, false));
    }
    for (j, deque) in q.locals.iter_mut().enumerate() {
        if Some(j) == me {
            continue;
        }
        if let Some(t) = deque.pop_front() {
            return Some((t, true));
        }
    }
    None
}

/// Runs one task. The task's own `exec` already routes user panics
/// into [`ParError`] slots and opens its latch via a drop guard; the
/// outer catch is defense in depth so a worker thread never unwinds.
fn run_task(task: TaskRef, stolen: bool) {
    // SAFETY: see the module-level argument — the submitting caller
    // keeps the pointee alive until the batch latch opens.
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| unsafe {
        (task.exec)(task.data, stolen)
    })) {
        // The chaos kill marker must actually kill the worker thread;
        // every other panic is contained here (defense in depth).
        if is_kill_payload(payload.as_ref()) {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Wakes the helpers parked on a latch after one opened. Reading the
/// parked count under the lock orders the wake against a helper that
/// checked its latch under the lock and is about to park; with no
/// helper parked, the notify (a syscall) is skipped.
fn signal(shared: &Shared) {
    if lock(shared).parked > 0 {
        shared.latch.notify_all();
    }
}

/// Announces queued work to every parked thread: idle workers, and
/// helpers parked on a latch (an idle lane too). Takes the guard under
/// which the caller saw or pushed the work, so a thread that parks
/// after the guard drops has already seen that work.
fn announce(shared: &Shared, q: MutexGuard<'_, Queues>) {
    let (idle, parked) = (q.idle, q.parked);
    drop(q);
    if idle > 0 {
        shared.work.notify_all();
    }
    if parked > 0 {
        shared.latch.notify_all();
    }
    if idle + parked > 0 {
        shared.wakeups.fetch_add(1, Ordering::Relaxed);
    }
}

/// Announces every quietly queued join branch to the pool's idle
/// lanes, so they can run it alongside the caller.
///
/// Joins queue their branches without waking anyone, because most
/// branches are too cheap to be worth a thread wake-up (a warm chip
/// build's are solve-cache hits). Code about to do expensive work calls
/// this first: the array optimizer does on entry, so a cold build
/// still fans out from its first solve. A no-op when nothing is queued
/// or the pool has no worker.
pub fn wake() {
    let shared = shared();
    if shared.lanes.load(Ordering::Acquire) == 0 {
        return;
    }
    let q = lock(shared);
    if q.has_work() {
        announce(shared, q);
    }
}

/// Worker-thread entry point: installs the respawn guard, then runs
/// the task loop forever (the loop only exits by unwinding, which
/// triggers the guard).
fn worker_main(shared: &'static Shared, me: usize) {
    let _respawn = RespawnGuard { shared, me };
    worker_loop(shared, me);
}

fn worker_loop(shared: &'static Shared, me: usize) {
    WORKER.with(|w| w.set(Some(me)));
    loop {
        let (task, stolen) = {
            let mut q = lock(shared);
            loop {
                if let Some(found) = pop_task(&mut q, Some(me)) {
                    break found;
                }
                q.idle += 1;
                let (guard, _) = shared
                    .work
                    .wait_timeout(q, IDLE_POLL)
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
                q.idle = q.idle.saturating_sub(1);
            }
        };
        if stolen {
            shared.steals.fetch_add(1, Ordering::Relaxed);
        }
        // The task's latch guard wakes its waiting owner.
        run_task(task, stolen);
    }
}

/// Pushes a batch of tasks: nested submissions (from a pool worker) go
/// to that worker's own deque, external ones to the injector. An
/// `eager` batch is announced to the parked lanes at once; a quiet one
/// waits for its submitter to drain it or for a [`wake`].
fn submit(shared: &'static Shared, tasks: impl IntoIterator<Item = TaskRef>, eager: bool) {
    let me = WORKER.with(Cell::get);
    let mut pushed = 0u64;
    let mut q = lock(shared);
    match me.and_then(|i| q.locals.get_mut(i)) {
        Some(local) => {
            for t in tasks {
                local.push_back(t);
                pushed += 1;
            }
        }
        None => {
            for t in tasks {
                q.injector.push_back(t);
                pushed += 1;
            }
        }
    }
    if eager {
        announce(shared, q);
    } else {
        drop(q);
    }
    shared.submitted.fetch_add(pushed, Ordering::Relaxed);
    mcpat_obs::record_pool_submitted(pushed);
}

/// Executes queued tasks until `done` reports the caller's batch
/// latch open. This is what makes nested fan-out safe: a blocked
/// submitter is indistinguishable from a worker.
fn help_until(shared: &'static Shared, done: &dyn Fn() -> bool) {
    let me = WORKER.with(Cell::get);
    loop {
        if done() {
            return;
        }
        let popped = {
            let mut q = lock(shared);
            let popped = pop_task(&mut q, me);
            if popped.is_none() {
                // Re-check under the lock: a completion signal reads
                // the parked count under this same lock, so parking
                // here cannot lose it.
                if done() {
                    return;
                }
                q.parked += 1;
                let (mut q, _) = shared
                    .latch
                    .wait_timeout(q, IDLE_POLL)
                    .unwrap_or_else(PoisonError::into_inner);
                q.parked = q.parked.saturating_sub(1);
            }
            popped
        };
        if let Some((task, stolen)) = popped {
            if stolen {
                shared.steals.fetch_add(1, Ordering::Relaxed);
            }
            run_task(task, stolen);
        }
    }
}

/// One result slot of a `par_map` batch. Each slot is written by
/// exactly one task and read by the owner only after the batch latch
/// opens, so the unsynchronized cell is race-free.
struct Slot<T>(UnsafeCell<Option<Result<T, ParError>>>);

// SAFETY: disjoint single-writer access before the latch, owner-only
// access after (ordered by the Acquire/Release latch counter).
unsafe impl<T: Send> Sync for Slot<T> {}

/// Shared state of one `par_map` call, borrowed by its tasks. The
/// submitter's scope chain rides along so that a task executed (or
/// stolen) by any thread still bills the submitting scope and honors
/// its budgets.
struct MapCall<'a, I, T, F> {
    items: &'a [I],
    f: &'a F,
    slots: &'a [Slot<T>],
    remaining: &'a AtomicUsize,
    chain: mcpat_obs::ScopeChain,
}

/// One item-task of a `par_map` call.
struct MapTask<'a, I, T, F> {
    call: &'a MapCall<'a, I, T, F>,
    index: usize,
}

/// Opens a counting latch on drop, then wakes parked threads. Runs
/// even if the slot write path has a bug that panics, so the owner can
/// never hang on a lost decrement.
struct OpenLatch<'a> {
    remaining: &'a AtomicUsize,
}

impl Drop for OpenLatch<'_> {
    fn drop(&mut self) {
        // The decrement is the task's final touch of caller memory;
        // `signal` below only touches the pool's 'static state.
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        signal(shared());
    }
}

unsafe fn exec_map_task<I, T, F>(data: *const (), stolen: bool)
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    // SAFETY: `data` points at a live `MapTask` per the submission
    // contract (owner helps until `remaining` reaches zero).
    let task = unsafe { &*data.cast::<MapTask<'_, I, T, F>>() };
    let call = task.call;
    // Declared before the latch so the latch (the final touch of
    // caller memory) drops first; the chain guard owns only Arcs and
    // thread-local state, so its later drop never touches the caller.
    let _chain = call.chain.activate();
    if stolen {
        mcpat_obs::record_pool_steal();
    }
    let _latch = OpenLatch {
        remaining: call.remaining,
    };
    if let (Some(item), Some(slot)) = (call.items.get(task.index), call.slots.get(task.index)) {
        let result = crate::catch(|| (call.f)(task.index, item));
        // SAFETY: this task is the slot's only writer (disjoint
        // indices), and the owner reads only after the latch opens.
        unsafe { *slot.0.get() = Some(result) };
    }
}

/// The pooled backend of [`crate::par_map`]: one task per item, input
/// order restored through indexed slots, serial-order error priority.
pub(crate) fn par_map_pooled<I, T, F>(items: &[I], f: &F) -> Result<Vec<T>, ParError>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let shared = shared();
    ensure_workers(shared, crate::threads().saturating_sub(1));
    if no_second_lane(shared) {
        note_inline(items.len() as u64);
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            out.push(crate::catch(|| f(i, item))?);
        }
        return Ok(out);
    }
    let slots: Vec<Slot<T>> = (0..items.len())
        .map(|_| Slot(UnsafeCell::new(None)))
        .collect();
    let remaining = AtomicUsize::new(items.len());
    let call = MapCall {
        items,
        f,
        slots: &slots,
        remaining: &remaining,
        chain: mcpat_obs::current_chain(),
    };
    let tasks: Vec<MapTask<'_, I, T, F>> = (0..items.len())
        .map(|index| MapTask { call: &call, index })
        .collect();
    submit(
        shared,
        tasks.iter().map(|t| TaskRef {
            data: std::ptr::from_ref(t).cast(),
            exec: exec_map_task::<I, T, F>,
        }),
        true,
    );
    help_until(shared, &|| remaining.load(Ordering::Acquire) == 0);
    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        out.push(
            slot.0
                .into_inner()
                .unwrap_or_else(|| Err(ParError::vanished()))?,
        );
    }
    Ok(out)
}

/// One heterogeneous closure of a join, parked on the caller's stack
/// until a pool thread (or the helping caller itself) runs it.
pub(crate) struct StackJob<R, F> {
    f: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<Result<R, ParError>>>,
    done: AtomicBool,
    chain: mcpat_obs::ScopeChain,
}

// SAFETY: `f`/`result` are touched by exactly one executing thread
// before `done` flips (Release), and by the owner only after it
// observes `done` (Acquire).
unsafe impl<R: Send, F: Send> Sync for StackJob<R, F> {}

impl<R, F> StackJob<R, F>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    pub(crate) fn new(f: F) -> StackJob<R, F> {
        StackJob {
            f: UnsafeCell::new(Some(f)),
            result: UnsafeCell::new(None),
            done: AtomicBool::new(false),
            chain: mcpat_obs::current_chain(),
        }
    }

    fn as_task(&self) -> TaskRef {
        TaskRef {
            data: std::ptr::from_ref(self).cast(),
            exec: exec_stack_job::<R, F>,
        }
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    fn take(self) -> Result<R, ParError> {
        self.result
            .into_inner()
            .unwrap_or_else(|| Err(ParError::vanished()))
    }
}

/// Flips a boolean latch open on drop, then wakes parked threads.
struct OpenFlag<'a> {
    done: &'a AtomicBool,
}

impl Drop for OpenFlag<'_> {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Release);
        signal(shared());
    }
}

unsafe fn exec_stack_job<R, F>(data: *const (), stolen: bool)
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    // SAFETY: `data` points at a live `StackJob` per the submission
    // contract (owner helps until `done` flips).
    let job = unsafe { &*data.cast::<StackJob<R, F>>() };
    // Chain guard before the latch: the latch must stay the final
    // touch of caller memory (see `exec_map_task`).
    let _chain = job.chain.activate();
    if stolen {
        mcpat_obs::record_pool_steal();
    }
    let _latch = OpenFlag { done: &job.done };
    // SAFETY: sole pre-latch accessor of `f` and `result`.
    let f = unsafe { (*job.f.get()).take() };
    if let Some(f) = f {
        let result = crate::catch(f);
        unsafe { *job.result.get() = Some(result) };
    }
}

/// Queues `jobs` quietly and runs `lead` inline, helping until every
/// job's latch opens. The shared skeleton of `join2/4/6`. No lane is
/// woken here: the caller drains its own jobs unless some expensive
/// work (the array optimizer) calls [`wake`] meanwhile.
fn join_with<A, FA>(lead: FA, jobs: &[TaskRef], all_done: &dyn Fn() -> bool) -> Result<A, ParError>
where
    A: Send,
    FA: FnOnce() -> A + Send,
{
    let shared = shared();
    ensure_workers(shared, crate::threads().saturating_sub(1));
    if no_second_lane(shared) {
        note_inline(1 + jobs.len() as u64);
        let lead_result = crate::catch(lead);
        for job in jobs {
            run_task(*job, false);
        }
        return lead_result;
    }
    submit(shared, jobs.iter().copied(), false);
    note_inline(1);
    let lead_result = crate::catch(lead);
    help_until(shared, all_done);
    lead_result
}

pub(crate) fn join2_pooled<A, B, FA, FB>(fa: FA, fb: FB) -> Result<(A, B), ParError>
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    let jb = StackJob::new(fb);
    let a = join_with(fa, &[jb.as_task()], &|| jb.is_done());
    let b = jb.take();
    Ok((a?, b?))
}

pub(crate) fn join4_pooled<A, B, C, D, FA, FB, FC, FD>(
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
    let jb = StackJob::new(fb);
    let jc = StackJob::new(fc);
    let jd = StackJob::new(fd);
    let a = join_with(fa, &[jb.as_task(), jc.as_task(), jd.as_task()], &|| {
        jb.is_done() && jc.is_done() && jd.is_done()
    });
    let (b, c, d) = (jb.take(), jc.take(), jd.take());
    Ok((a?, b?, c?, d?))
}

#[allow(clippy::many_single_char_names)]
pub(crate) fn join6_pooled<A, B, C, D, E, G, FA, FB, FC, FD, FE, FG>(
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
    let jb = StackJob::new(fb);
    let jc = StackJob::new(fc);
    let jd = StackJob::new(fd);
    let je = StackJob::new(fe);
    let jg = StackJob::new(fg);
    let a = join_with(
        fa,
        &[
            jb.as_task(),
            jc.as_task(),
            jd.as_task(),
            je.as_task(),
            jg.as_task(),
        ],
        &|| jb.is_done() && jc.is_done() && jd.is_done() && je.is_done() && jg.is_done(),
    );
    let (b, c, d, e, g) = (jb.take(), jc.take(), jd.take(), je.take(), jg.take());
    Ok((a?, b?, c?, d?, e?, g?))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_monotonic_and_start_consistent() {
        let before = stats();
        note_inline(3);
        let after = stats();
        assert!(after.inline_execs >= before.inline_execs + 3);
        assert!(after.submitted >= before.submitted);
        assert!(after.steals >= before.steals);
    }

    #[test]
    fn pool_worker_flag_is_false_on_external_threads() {
        assert!(!is_pool_worker());
    }
}
