//! # mcpat-obs — the scope chain: span-scoped tracing, metrics and budgets
//!
//! The modeling layers (solve cache, work-stealing pool) maintain
//! process-global monotonic counters that are useful for
//! whole-process dashboards but **wrong** for per-call attribution:
//! two concurrent `Processor::build` calls differencing the same global
//! counter each see the other's traffic. This crate provides the scoped
//! alternative, and the one thread-local **scope chain** that carries
//! both of a build's contexts — who gets billed, and when to stop:
//!
//! * [`Collector`] — a cheap-to-clone, thread-safe bag of counters.
//!   [`Collector::enter`] pushes it onto the chain; every event
//!   recorded while the chain is active bills *every* collector on the
//!   chain, so nested scopes (a build inside an exploration) each see
//!   exactly the traffic that happened inside them.
//! * [`guard::Budget`] — a deadline and cancel flag.
//!   [`guard::Budget::enter`] pushes it onto the same chain;
//!   [`guard::check`] walks only the budget frames, and events never
//!   bill them. See [`guard`].
//! * [`ScopeChain`] / [`current_chain`] — a `Send + Sync` snapshot of
//!   the chain, captured when work is handed to another thread (the
//!   `mcpat-par` pool captures it at task submission). Activating the
//!   chain on the executing thread makes stolen work bill the
//!   *submitting* scope, not the thief, and honor the submitter's
//!   budgets.
//! * Event seams — [`record_solve`], [`record_pool_submitted`],
//!   [`record_pool_steal`], [`record_pool_inline`] — called by
//!   `mcpat-array`'s memo cache and `mcpat-par`'s pool next to their
//!   global counters.
//! * Allocation attribution — [`CountingAlloc`] is a `GlobalAlloc`
//!   that counts the **calling thread's** heap allocations. A binary
//!   installs it with `#[global_allocator]` (the `mcpat` CLI and daemon,
//!   benchline and the allocation tests do). Each thread's count is
//!   flushed to its active chain at every chain switch, so allocations
//!   bill the scope that was active when they happened, on whichever
//!   thread they happened. Without it installed, `allocs` reads 0.
//! * Structured spans — [`span`] records component path, wall time,
//!   cache outcome and relaxation events into every enclosing
//!   collector, but **only** when tracing is enabled via
//!   [`set_tracing`]; when disabled (the default) a span is a single
//!   relaxed atomic load. [`Trace`] bundles the span list with counter
//!   totals and exports it as JSON (through `serde_json`) for
//!   `--trace FILE`.
//!
//! Scope guards are `!Send` and must drop in LIFO order (ordinary Rust
//! scoping guarantees this); the chain itself is a persistent linked
//! list of `Arc` nodes, so capturing it is O(1).

use serde_json::json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

pub mod guard;

/// Counter totals observed by one [`Collector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Solve-cache hits billed to this scope.
    pub solve_cache_hits: u64,
    /// Solve-cache misses (full solves) billed to this scope.
    pub solve_cache_misses: u64,
    /// Solve-cache entries evicted (CLOCK cap) while this scope was
    /// active — nonzero means the working set exceeds the cache cap.
    pub solve_cache_evictions: u64,
    /// Tasks submitted to the pool from inside this scope.
    pub pool_submitted: u64,
    /// Pool tasks submitted by this scope that another worker stole.
    pub pool_steals: u64,
    /// Closures this scope ran inline instead of submitting.
    pub pool_inline: u64,
    /// Heap allocations billed to this scope (0 unless the binary
    /// installs [`CountingAlloc`] as its global allocator).
    pub allocs: u64,
}

/// One completed [`span`]: a named phase with wall time and the cache /
/// relaxation outcome observed while it was open.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Component path, e.g. `build.core`.
    pub path: String,
    /// Wall-clock duration of the span, seconds.
    pub wall_s: f64,
    /// Solve-cache hits observed inside the span.
    pub solve_cache_hits: u64,
    /// Solve-cache misses observed inside the span.
    pub solve_cache_misses: u64,
    /// Heap allocations observed inside the span (0 unless the binary
    /// installs [`CountingAlloc`]).
    pub allocs: u64,
    /// Relaxation events noted via [`SpanGuard::note_relaxations`].
    pub relaxations: u64,
}

#[derive(Default)]
struct Inner {
    solve_cache_hits: AtomicU64,
    solve_cache_misses: AtomicU64,
    solve_cache_evictions: AtomicU64,
    pool_submitted: AtomicU64,
    pool_steals: AtomicU64,
    pool_inline: AtomicU64,
    allocs: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// A scoped counter bag. Clones share the same counters.
#[derive(Clone, Default)]
pub struct Collector {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl Collector {
    /// A fresh collector with all counters at zero.
    #[must_use]
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Pushes this collector onto the current thread's scope chain.
    /// Until the returned guard drops, every event recorded on this
    /// thread — and on any pool worker executing tasks submitted from
    /// inside the scope — bills this collector (and every outer one).
    /// The scope's own chain node is billed to the enclosing scope.
    #[must_use]
    pub fn enter(&self) -> ScopeGuard {
        push(Frame::Collector(self.clone()))
    }

    /// Current counter totals.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let i = &self.inner;
        Snapshot {
            solve_cache_hits: i.solve_cache_hits.load(Ordering::Relaxed),
            solve_cache_misses: i.solve_cache_misses.load(Ordering::Relaxed),
            solve_cache_evictions: i.solve_cache_evictions.load(Ordering::Relaxed),
            pool_submitted: i.pool_submitted.load(Ordering::Relaxed),
            pool_steals: i.pool_steals.load(Ordering::Relaxed),
            pool_inline: i.pool_inline.load(Ordering::Relaxed),
            allocs: i.allocs.load(Ordering::Relaxed),
        }
    }

    /// The spans recorded inside this scope plus the counter totals.
    /// Spans are only recorded while [`set_tracing`]`(true)` is active.
    #[must_use]
    pub fn trace(&self) -> Trace {
        let spans = self
            .inner
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        Trace {
            spans,
            totals: self.snapshot(),
        }
    }

    fn push_span(&self, rec: SpanRecord) {
        self.inner
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(rec);
    }
}

/// What one chain frame holds: a collector to bill, or a budget to
/// check.
enum Frame {
    Collector(Collector),
    Budget(guard::Budget),
}

struct Node {
    frame: Frame,
    /// Whether a budget frame sits at this node or any parent, so a
    /// checkpoint on a chain with no budget never walks it.
    budgeted: bool,
    parent: Option<Arc<Node>>,
}

thread_local! {
    static HEAD: Cell<Option<Arc<Node>>> = const { Cell::new(None) };
    /// Allocations [`CountingAlloc`] saw on this thread since the last
    /// [`flush_allocs`].
    static UNFLUSHED_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` on the current thread's chain head.
fn with_head<R>(f: impl FnOnce(Option<&Arc<Node>>) -> R) -> R {
    HEAD.with(|h| {
        let head = h.take();
        let r = f(head.as_ref());
        h.set(head);
        r
    })
}

fn chain_head() -> Option<Arc<Node>> {
    with_head(|head| head.cloned())
}

/// Installs `head` as the current thread's chain until the returned
/// guard drops. Allocation deltas are flushed on both switches so they
/// bill the right scope.
fn switch_to(head: Option<Arc<Node>>) -> ScopeGuard {
    flush_allocs();
    ScopeGuard {
        prev: HEAD.with(|h| h.replace(head)),
        _not_send: PhantomData,
    }
}

fn nodes(head: Option<&Arc<Node>>) -> impl Iterator<Item = &Node> {
    std::iter::successors(head.map(|n| &**n), |n| n.parent.as_deref())
}

/// The collectors on a chain, innermost first.
fn collectors(head: Option<&Arc<Node>>) -> impl Iterator<Item = &Collector> {
    nodes(head).filter_map(|n| match &n.frame {
        Frame::Collector(c) => Some(c),
        Frame::Budget(_) => None,
    })
}

/// The budgets on a chain, innermost first; stops at the first node
/// with no budget at or below it.
fn budgets(head: Option<&Arc<Node>>) -> impl Iterator<Item = &guard::Budget> {
    nodes(head)
        .take_while(|n| n.budgeted)
        .filter_map(|n| match &n.frame {
            Frame::Budget(b) => Some(b),
            Frame::Collector(_) => None,
        })
}

/// Applies `f` to every collector on the current thread's chain.
fn bill(f: impl Fn(&Inner)) {
    with_head(|head| collectors(head).for_each(|c| f(&c.inner)));
}

/// Pushes `frame` onto the current thread's chain until the returned
/// guard drops. The node is allocated before the switch, so it bills
/// the enclosing scope.
fn push(frame: Frame) -> ScopeGuard {
    let parent = chain_head();
    let budgeted = matches!(frame, Frame::Budget(_)) || parent.as_ref().is_some_and(|p| p.budgeted);
    switch_to(Some(Arc::new(Node {
        frame,
        budgeted,
        parent,
    })))
}

/// Drop guard returned by [`Collector::enter`], [`guard::Budget::enter`]
/// and [`ScopeChain::activate`]: restores the previous chain on drop.
/// `!Send`; drop in LIFO order (ordinary scoping).
pub struct ScopeGuard {
    prev: Option<Arc<Node>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        flush_allocs();
        HEAD.with(|h| h.set(self.prev.take()));
    }
}

/// A `Send + Sync` snapshot of a thread's scope chain — collectors and
/// budgets alike — captured with [`current_chain`] when work is handed
/// to another thread.
#[derive(Clone, Default)]
pub struct ScopeChain {
    head: Option<Arc<Node>>,
}

// No unsafe impls: Arc<Node> is Send + Sync because collectors and
// budgets hold only atomics, a Mutex and plain data.
impl ScopeChain {
    /// Installs this chain on the current thread until the guard drops,
    /// restoring whatever chain was active before. Allocation deltas
    /// are flushed on both switches so they bill the right scope.
    #[must_use]
    pub fn activate(&self) -> ScopeGuard {
        switch_to(self.head.clone())
    }
}

/// The scope chain active on the current thread (empty if none).
#[must_use]
pub fn current_chain() -> ScopeChain {
    ScopeChain { head: chain_head() }
}

// ---------------------------------------------------------------------------
// Event seams (called by mcpat-array's memo cache and mcpat-par's pool).
// ---------------------------------------------------------------------------

/// Bills one solve-cache lookup outcome to the active scope chain.
pub fn record_solve(hit: bool) {
    bill(|i| {
        if hit {
            i.solve_cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            i.solve_cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Bills `n` solve-cache evictions to the active scope chain (the memo
/// cache calls this when the CLOCK cap forces entries out).
pub fn record_solve_evictions(n: u64) {
    if n > 0 {
        bill(|i| {
            i.solve_cache_evictions.fetch_add(n, Ordering::Relaxed);
        });
    }
}

/// Bills `n` pool task submissions to the active scope chain.
pub fn record_pool_submitted(n: u64) {
    if n > 0 {
        bill(|i| {
            i.pool_submitted.fetch_add(n, Ordering::Relaxed);
        });
    }
}

/// Bills one steal to the active scope chain. The pool activates the
/// *submitter's* captured chain before calling this, so the steal bills
/// the scope that submitted the task, not the thief's own scope.
pub fn record_pool_steal() {
    bill(|i| {
        i.pool_steals.fetch_add(1, Ordering::Relaxed);
    });
}

/// Bills `n` inline (non-submitted) closure executions to the active
/// scope chain.
pub fn record_pool_inline(n: u64) {
    if n > 0 {
        bill(|i| {
            i.pool_inline.fetch_add(n, Ordering::Relaxed);
        });
    }
}

// ---------------------------------------------------------------------------
// Allocation attribution.
// ---------------------------------------------------------------------------

/// The workspace's counting allocator: delegates every operation to
/// [`System`] and counts each allocation (a `realloc` counts as one)
/// against the calling thread. Install it with
/// `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`
/// and entered collectors report real `allocs`.
pub struct CountingAlloc;

fn count_alloc() {
    // `try_with` shrugs off TLS teardown instead of panicking; the
    // const-initialized cell never allocates.
    let _ = UNFLUSHED_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
}

// SAFETY: every operation is delegated to `System` with the caller's
// arguments unchanged; the counter update neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Bills the allocations this thread made since the last flush to the
/// chain that was active while they happened, and resets the count.
/// Called automatically at every chain switch; call it manually before
/// snapshotting a collector that is still entered on the current thread.
pub fn flush_allocs() {
    let n = UNFLUSHED_ALLOCS.try_with(|c| c.replace(0)).unwrap_or(0);
    if n > 0 {
        bill(|i| {
            i.allocs.fetch_add(n, Ordering::Relaxed);
        });
    }
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

static TRACING: AtomicBool = AtomicBool::new(false);

/// Globally enables or disables span recording. Scoped *counters* are
/// always on; spans are the opt-in part. Enabling tracing must not
/// change any model output (asserted in `tests/perf_identity.rs`).
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently enabled.
#[must_use]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Opens a named span. When tracing is disabled this is one relaxed
/// atomic load and the guard is inert. When enabled, the span gets an
/// ephemeral [`Collector`] on the scope chain; on drop a [`SpanRecord`]
/// is appended to every collector that encloses the span.
#[must_use]
pub fn span(path: &str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard { active: None };
    }
    let collector = Collector::new();
    let scope = push(Frame::Collector(collector.clone()));
    SpanGuard {
        active: Some(ActiveSpan {
            path: path.to_owned(),
            start: Instant::now(),
            collector,
            scope,
            relaxations: Cell::new(0),
        }),
    }
}

struct ActiveSpan {
    path: String,
    start: Instant,
    collector: Collector,
    scope: ScopeGuard,
    relaxations: Cell<u64>,
}

/// Drop guard returned by [`span`]. `!Send` (it may hold a
/// [`ScopeGuard`]); drop in LIFO order.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Notes `n` relaxation events (solver fallbacks, degraded clock
    /// targets) against this span. Inert when tracing is disabled.
    pub fn note_relaxations(&self, n: u64) {
        if let Some(active) = &self.active {
            active
                .relaxations
                .set(active.relaxations.get().saturating_add(n));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        drop(active.scope);
        let snap = active.collector.snapshot();
        let rec = SpanRecord {
            path: active.path,
            wall_s: active.start.elapsed().as_secs_f64(),
            solve_cache_hits: snap.solve_cache_hits,
            solve_cache_misses: snap.solve_cache_misses,
            allocs: snap.allocs,
            relaxations: active.relaxations.get(),
        };
        // Every enclosing collector gets the record: the build's own
        // collector exports it via `trace()`, and an outer benchmark
        // scope can summarize spans across many builds.
        with_head(|head| collectors(head).for_each(|c| c.push_span(rec.clone())));
    }
}

// ---------------------------------------------------------------------------
// Trace export.
// ---------------------------------------------------------------------------

/// A completed trace: the spans recorded inside one collector scope
/// plus that scope's counter totals.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Spans in completion order (children before parents).
    pub spans: Vec<SpanRecord>,
    /// Counter totals for the whole scope.
    pub totals: Snapshot,
}

impl Trace {
    /// Serializes the trace as a stable, self-describing JSON document
    /// (`schema: "mcpat-trace-v1"`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let t = self.totals;
        let spans: Vec<serde_json::Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "path": s.path,
                    "wall_s": s.wall_s,
                    "solve_cache_hits": s.solve_cache_hits,
                    "solve_cache_misses": s.solve_cache_misses,
                    "allocs": s.allocs,
                    "relaxations": s.relaxations,
                })
            })
            .collect();
        let doc = json!({
            "schema": "mcpat-trace-v1",
            "totals": {
                "solve_cache_hits": t.solve_cache_hits,
                "solve_cache_misses": t.solve_cache_misses,
                "solve_cache_evictions": t.solve_cache_evictions,
                "pool_submitted": t.pool_submitted,
                "pool_steals": t.pool_steals,
                "pool_inline": t.pool_inline,
                "allocs": t.allocs,
            },
            "spans": spans,
        });
        let mut out = serde_json::to_string_pretty(&doc).unwrap_or_default();
        out.push('\n');
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use guard::{Budget, GuardError};
    use std::sync::Mutex as StdMutex;
    use std::time::Duration;

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    // Tests in this module mutate the process-wide tracing flag and the
    // (thread-local) chain; serialize them.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn scopes_nest_bill_and_restore() {
        let _l = lock();
        let outer = Collector::new();
        let inner = Collector::new();
        let outer_budget = Budget::unbounded();
        {
            let _o = outer.enter();
            let _ob = outer_budget.enter();
            record_solve(false);
            let inner_budget = Budget::with_deadline(Duration::from_secs(3600));
            {
                let _i = inner.enter();
                let _ib = inner_budget.enter();
                assert!(guard::check().is_ok());
                guard::note_candidate();
                record_solve(true);
                record_pool_inline(2);
            }
            // Inner popped; outer still records.
            guard::note_candidate();
            record_pool_submitted(3);
            // The inner budget saw only the note made while it was active.
            assert_eq!(inner_budget.progress().candidates_done, 1);
        }
        assert!(chain_head().is_none());
        assert_eq!(outer_budget.progress().candidates_done, 2);
        let o = outer.snapshot();
        let i = inner.snapshot();
        assert_eq!(o.solve_cache_misses, 1);
        assert_eq!(o.solve_cache_hits, 1);
        assert_eq!(o.pool_inline, 2);
        assert_eq!(o.pool_submitted, 3);
        assert_eq!(i.solve_cache_misses, 0);
        assert_eq!(i.solve_cache_hits, 1);
        assert_eq!(i.pool_inline, 2);
        assert_eq!(i.pool_submitted, 0);
    }

    #[test]
    fn events_outside_any_scope_are_dropped() {
        let _l = lock();
        let c = Collector::new();
        record_solve(true);
        record_pool_steal();
        assert_eq!(c.snapshot(), Snapshot::default());
    }

    #[test]
    fn captured_chain_bills_and_checks_from_another_thread() {
        let _l = lock();
        let c = Collector::new();
        let b = Budget::unbounded();
        let chain = {
            let _s = c.enter();
            let _b = b.enter();
            current_chain()
        };
        // The scopes have exited on this thread, but the captured chain
        // still routes events recorded by the "worker" and carries the
        // budget.
        let b2 = b.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let _g = chain.activate();
                record_pool_steal();
                record_solve(false);
                assert!(guard::check().is_ok());
                guard::note_candidate();
                b2.cancel();
                assert!(matches!(guard::check(), Err(GuardError::Cancelled { .. })));
            });
        });
        let snap = c.snapshot();
        assert_eq!(snap.pool_steals, 1);
        assert_eq!(snap.solve_cache_misses, 1);
        assert_eq!(b.progress().candidates_done, 1);
        assert!(chain_head().is_none());
    }

    fn head() -> Option<*const Node> {
        chain_head().as_ref().map(Arc::as_ptr)
    }

    #[test]
    fn mixed_chain_bills_collectors_and_checks_budgets_on_any_thread() {
        let _l = lock();
        let (outer, inner) = (Collector::new(), Collector::new());
        // Trips at every checkpoint, so a failed check shows the walk
        // reached the budget.
        let budget = Budget::with_deadline(Duration::ZERO);
        // Under a span atop collector → budget → collector: one miss,
        // one check, and the head restored when the span closes.
        let under_a_span = || {
            let before = head();
            let sp = span("mixed");
            record_solve(false);
            let tripped = guard::check();
            assert!(matches!(tripped, Err(GuardError::DeadlineExceeded { .. })));
            drop(sp);
            assert_eq!(head(), before);
        };
        set_tracing(true);
        let chain = {
            let mut heads = vec![head()];
            let o = outer.enter();
            heads.push(head());
            let b = budget.enter();
            heads.push(head());
            let i = inner.enter();
            under_a_span();
            let chain = current_chain();
            for guard in [i, b, o] {
                drop(guard);
                assert_eq!(head(), heads.pop().flatten());
            }
            chain
        };
        assert!(guard::check().is_ok());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let g = chain.activate();
                under_a_span();
                drop(g);
                assert_eq!(head(), None);
            });
        });
        set_tracing(false);
        // Each thread's miss and span billed both collectors.
        for c in [&outer, &inner] {
            let trace = c.trace();
            assert_eq!(trace.totals.solve_cache_misses, 2);
            assert_eq!(trace.spans.len(), 2);
            assert!(trace.spans.iter().all(|s| s.solve_cache_misses == 1));
        }
        // No event billed the budget frame: it counts only guard notes.
        assert_eq!(budget.progress(), guard::Progress::default());
    }

    #[test]
    fn spans_are_inert_when_tracing_is_disabled() {
        let _l = lock();
        set_tracing(false);
        let c = Collector::new();
        {
            let _s = c.enter();
            let sp = span("build.core");
            sp.note_relaxations(5);
            drop(sp);
        }
        assert!(c.trace().spans.is_empty());
    }

    #[test]
    fn spans_record_path_counters_and_relaxations() {
        let _l = lock();
        let c = Collector::new();
        set_tracing(true);
        {
            let _s = c.enter();
            let sp = span("build.l2");
            record_solve(false);
            record_solve(true);
            sp.note_relaxations(2);
            drop(sp);
            // A solve after the span closed must not appear in it.
            record_solve(false);
        }
        set_tracing(false);
        let trace = c.trace();
        assert_eq!(trace.spans.len(), 1);
        let s = &trace.spans[0];
        assert_eq!(s.path, "build.l2");
        assert_eq!(s.solve_cache_hits, 1);
        assert_eq!(s.solve_cache_misses, 1);
        assert_eq!(s.relaxations, 2);
        assert!(s.wall_s >= 0.0);
        assert_eq!(trace.totals.solve_cache_misses, 2);
    }

    #[test]
    fn nested_spans_propagate_to_all_ancestors() {
        let _l = lock();
        let c = Collector::new();
        set_tracing(true);
        {
            let _s = c.enter();
            let outer = span("build");
            {
                let _inner = span("build.core");
                record_solve(false);
            }
            drop(outer);
        }
        set_tracing(false);
        let trace = c.trace();
        let paths: Vec<&str> = trace.spans.iter().map(|s| s.path.as_str()).collect();
        // Children complete first; both land on the root collector.
        assert_eq!(paths, ["build.core", "build"]);
        assert_eq!(trace.spans[1].solve_cache_misses, 1);
    }

    #[test]
    fn trace_json_is_well_formed_and_escaped() {
        let _l = lock();
        // Every control character, both JSON metacharacters, the line
        // separator U+2028 and non-ASCII text.
        let mut path: String = (0u32..0x20).filter_map(char::from_u32).collect();
        path.push_str("a\"b\\c \u{2028} é 中 🦀");
        let trace = Trace {
            spans: vec![SpanRecord {
                path: path.clone(),
                wall_s: 0.25,
                solve_cache_hits: 1,
                solve_cache_misses: 2,
                allocs: 3,
                relaxations: 4,
            }],
            totals: Snapshot {
                solve_cache_hits: 1,
                solve_cache_misses: 2,
                solve_cache_evictions: 3,
                pool_submitted: 4,
                pool_steals: 5,
                pool_inline: 6,
                allocs: 7,
            },
        };
        let doc: serde_json::Value = serde_json::from_str(&trace.to_json()).unwrap();
        let num = |v: &serde_json::Value, key: &str| v.get(key).and_then(serde_json::Value::as_u64);
        assert_eq!(
            doc.get("schema").and_then(serde_json::Value::as_str),
            Some("mcpat-trace-v1")
        );
        let totals = doc.get("totals").unwrap();
        let keys: Vec<&str> = totals
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "solve_cache_hits",
                "solve_cache_misses",
                "solve_cache_evictions",
                "pool_submitted",
                "pool_steals",
                "pool_inline",
                "allocs"
            ]
        );
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(num(totals, key), Some(i as u64 + 1), "{key}");
        }
        let spans = doc
            .get("spans")
            .and_then(serde_json::Value::as_seq)
            .unwrap();
        assert_eq!(spans.len(), 1);
        let span = &spans[0];
        assert_eq!(
            span.get("path").and_then(serde_json::Value::as_str),
            Some(path.as_str())
        );
        assert_eq!(
            span.get("wall_s").and_then(serde_json::Value::as_f64),
            Some(0.25)
        );
        assert_eq!(num(span, "solve_cache_hits"), Some(1));
        assert_eq!(num(span, "solve_cache_misses"), Some(2));
        assert_eq!(num(span, "allocs"), Some(3));
        assert_eq!(num(span, "relaxations"), Some(4));
        assert_eq!(span.as_map().map(<[_]>::len), Some(6));

        let empty: serde_json::Value = serde_json::from_str(&Trace::default().to_json()).unwrap();
        assert_eq!(
            empty.get("spans").and_then(serde_json::Value::as_seq),
            Some(&[][..])
        );
    }

    #[test]
    fn allocations_bill_the_entered_scope_on_any_thread() {
        let _l = lock();
        let c = Collector::new();
        // Allocations outside every scope bill nobody.
        drop(std::hint::black_box(vec![0u8; 64]));
        assert_eq!(c.snapshot().allocs, 0);
        let chain = {
            let _s = c.enter();
            drop(std::hint::black_box(vec![0u8; 64]));
            let mut v: Vec<u64> = Vec::with_capacity(1);
            v.extend(0..64); // grows by realloc
            drop(std::hint::black_box(v));
            current_chain()
        };
        let here = c.snapshot().allocs;
        assert!(here >= 3, "alloc + alloc + realloc, got {here}");
        // A worker running under the captured chain bills the same
        // collector; its allocations outside the chain do not.
        std::thread::scope(|scope| {
            scope.spawn(move || {
                drop(std::hint::black_box(vec![0u8; 64]));
                let _g = chain.activate();
                drop(std::hint::black_box(vec![0u8; 64]));
            });
        });
        assert_eq!(c.snapshot().allocs, here + 1);
    }

    #[test]
    fn clones_share_counters() {
        let _l = lock();
        let a = Collector::new();
        let b = a.clone();
        {
            let _s = a.enter();
            record_pool_inline(7);
        }
        assert_eq!(b.snapshot().pool_inline, 7);
    }
}
