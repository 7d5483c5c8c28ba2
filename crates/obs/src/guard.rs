//! Deadlines and cooperative cancellation.
//!
//! The modeling stack is embedded in outer control loops (design-space
//! exploration, DVFS governors, the `mcpat-serve` daemon) that need
//! predictable *worst-case* latency, not just good medians. This
//! module provides the resource-governance primitive those loops share:
//! a cheap-clone [`Budget`] handle carrying an optional deadline and a
//! cooperative cancel flag.
//!
//! Budgets ride the crate's one scope chain next to the collectors:
//! [`Budget::enter`] pushes a budget frame, and the
//! [`ScopeChain`](crate::ScopeChain) the `mcpat-par` pool captures at
//! submission carries it to whichever worker runs the task. Every
//! long-running loop in the stack calls the free function [`check`] at
//! its checkpoints; when no budget is on the chain the call is a single
//! thread-local load, and benchline gates a fully live chain (an
//! entered unbounded budget, every checkpoint walking it) at ≤ 3% of a
//! cold build (~1% measured; the array solver checks once per outer
//! cell of its sweep).
//!
//! Exceeding a budget yields a typed [`GuardError`] carrying
//! partial-progress metadata ([`Progress`]: candidates completed, spans
//! finished). Checkpoints are *cooperative*: nothing is interrupted
//! mid-expression, so an aborted build leaves zero poisoned state —
//! the pool keeps serving and the solve cache only ever contains
//! fully-materialized entries (budget errors are never cached).
//!
//! Cancellation has two scopes: [`Budget::cancel`] flips one handle's
//! flag, and [`cancel_all`] bumps a process-global generation that
//! every *live* budget observes (a budget created **after** the bump is
//! unaffected). `cancel_all` is a single lock-free `fetch_add`, safe to
//! call from a signal handler — the CLI's `--cancel-on-signal` does
//! exactly that.

use crate::{budgets, push, with_head, Frame, ScopeGuard};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Partial-progress metadata attached to every [`GuardError`]: how far
/// the failing scope got before the budget tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Progress {
    /// Candidates (array partition blocks, exploration configs,
    /// bisection probes) completed under this budget.
    pub candidates_done: u64,
    /// Build spans (validate/core/l2/...) finished under this budget.
    pub spans_done: u64,
}

/// A budget violation, raised by [`check`] at a cooperative checkpoint.
///
/// `Clone + PartialEq` so the error can ride inside the existing typed
/// error enums (`ArrayError`, `McpatError`) unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardError {
    /// The budget's deadline passed.
    DeadlineExceeded {
        /// The configured deadline, in microseconds.
        budget_us: u64,
        /// Wall time elapsed when the checkpoint fired, in microseconds.
        elapsed_us: u64,
        /// Progress at the moment the budget tripped.
        progress: Progress,
    },
    /// The budget was cancelled ([`Budget::cancel`] or [`cancel_all`]).
    Cancelled {
        /// Progress at the moment the budget tripped.
        progress: Progress,
    },
}

impl GuardError {
    /// The progress metadata, whichever variant.
    #[must_use]
    pub fn progress(&self) -> Progress {
        match self {
            GuardError::DeadlineExceeded { progress, .. } | GuardError::Cancelled { progress } => {
                *progress
            }
        }
    }

    /// A stable machine-readable name for the violation variant — the
    /// `error.kind` vocabulary the serve daemon's wire protocol and
    /// other tooling match on, kept independent of the `Display` text.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            GuardError::DeadlineExceeded { .. } => "DeadlineExceeded",
            GuardError::Cancelled { .. } => "Cancelled",
        }
    }
}

impl std::fmt::Display for GuardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardError::DeadlineExceeded {
                budget_us,
                elapsed_us,
                progress,
            } => write!(
                f,
                "deadline exceeded: {elapsed_us} us elapsed against a {budget_us} us budget \
                 ({} candidate(s), {} span(s) completed)",
                progress.candidates_done, progress.spans_done
            ),
            GuardError::Cancelled { progress } => write!(
                f,
                "cancelled ({} candidate(s), {} span(s) completed)",
                progress.candidates_done, progress.spans_done
            ),
        }
    }
}

impl std::error::Error for GuardError {}

/// Process-global cancel generation. [`cancel_all`] bumps it; a budget
/// snapshots it at creation and considers itself cancelled once the
/// global value moves past the snapshot.
static CANCEL_GENERATION: AtomicU64 = AtomicU64::new(0);

/// Cancels every budget currently alive in the process (budgets created
/// afterwards are unaffected). Lock-free and async-signal-safe — the
/// CLI's `--cancel-on-signal` calls this from a SIGINT/SIGTERM handler.
pub fn cancel_all() {
    CANCEL_GENERATION.fetch_add(1, Ordering::SeqCst);
}

struct Inner {
    started: Instant,
    deadline: Option<Instant>,
    budget_us: u64,
    cancelled: AtomicBool,
    /// [`CANCEL_GENERATION`] at creation; a later global bump cancels us.
    cancel_snapshot: u64,
    candidates_done: AtomicU64,
    spans_done: AtomicU64,
    /// Chaos-testing hook: when > 0, the countdown decrements on every
    /// [`Budget::check_self`]; hitting zero flips the cancel flag. Lets
    /// tests cancel deterministically at the Nth checkpoint.
    cancel_after_checks: AtomicU64,
}

/// A cheap-clone (one `Arc`) resource budget: optional deadline and
/// cooperative cancel flag, plus progress counters. Clones share all
/// state.
#[derive(Clone)]
pub struct Budget {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Budget")
            .field("deadline_us", &self.inner.budget_us)
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

impl Budget {
    /// A budget with an optional deadline; `None` means
    /// cancellation-only.
    fn new(deadline: Option<Duration>) -> Budget {
        let started = Instant::now();
        let budget_us = deadline.map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        Budget {
            inner: Arc::new(Inner {
                started,
                deadline: deadline.and_then(|d| started.checked_add(d)),
                budget_us,
                cancelled: AtomicBool::new(false),
                cancel_snapshot: CANCEL_GENERATION.load(Ordering::SeqCst),
                candidates_done: AtomicU64::new(0),
                spans_done: AtomicU64::new(0),
                cancel_after_checks: AtomicU64::new(0),
            }),
        }
    }

    /// A budget with no deadline — still cancellable (per-handle or via
    /// [`cancel_all`]).
    #[must_use]
    pub fn unbounded() -> Budget {
        Budget::new(None)
    }

    /// A budget that trips [`GuardError::DeadlineExceeded`] once `d`
    /// wall time has elapsed.
    #[must_use]
    pub fn with_deadline(d: Duration) -> Budget {
        Budget::new(Some(d))
    }

    /// Flips this budget's (and all its clones') cancel flag.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// True if cancelled per-handle or by a [`cancel_all`] issued after
    /// this budget was created.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
            || CANCEL_GENERATION.load(Ordering::SeqCst) > self.inner.cancel_snapshot
    }

    /// Progress recorded so far ([`note_candidate`] / [`note_span`]).
    #[must_use]
    pub fn progress(&self) -> Progress {
        Progress {
            candidates_done: self.inner.candidates_done.load(Ordering::Relaxed),
            spans_done: self.inner.spans_done.load(Ordering::Relaxed),
        }
    }

    /// Chaos-testing hook: cancel this budget at its `n`-th
    /// [`check_self`](Budget::check_self) call (0 disarms). Lets the
    /// chaos harness cancel deterministically at a randomized
    /// checkpoint without timing races.
    #[doc(hidden)]
    // lint: allow(L013, the chaos tests cancel at a randomized checkpoint with it)
    pub fn cancel_after_checks(&self, n: u64) {
        self.inner.cancel_after_checks.store(n, Ordering::SeqCst);
    }

    /// Checks this budget alone (cancel flag, then deadline). Most code
    /// should call the free [`check`], which walks the whole active
    /// chain.
    ///
    /// # Errors
    ///
    /// The corresponding [`GuardError`] when a limit has been exceeded.
    pub fn check_self(&self) -> Result<(), GuardError> {
        let armed = self.inner.cancel_after_checks.load(Ordering::SeqCst);
        if armed > 0
            && self
                .inner
                .cancel_after_checks
                .fetch_sub(1, Ordering::SeqCst)
                == 1
        {
            self.cancel();
        }
        if self.is_cancelled() {
            return Err(GuardError::Cancelled {
                progress: self.progress(),
            });
        }
        if let Some(deadline) = self.inner.deadline {
            let now = Instant::now();
            if now >= deadline {
                let elapsed_us = u64::try_from(now.duration_since(self.inner.started).as_micros())
                    .unwrap_or(u64::MAX);
                return Err(GuardError::DeadlineExceeded {
                    budget_us: self.inner.budget_us,
                    elapsed_us,
                    progress: self.progress(),
                });
            }
        }
        Ok(())
    }

    /// Pushes this budget onto the calling thread's scope chain; the
    /// guard pops it on drop. Guards are `!Send` and must drop in LIFO
    /// order (enforced by scoping, exactly like collector scopes).
    #[must_use]
    pub fn enter(&self) -> ScopeGuard {
        push(Frame::Budget(self.clone()))
    }
}

/// The checkpoint every long-running loop calls: checks every budget on
/// the calling thread's chain, innermost first. When no budget is
/// active this is a single thread-local load; with an entered unbounded
/// budget the full chain walk is benchline-gated at ≤ 3% of a cold chip
/// build (~1% measured).
///
/// # Errors
///
/// The first [`GuardError`] raised by any budget on the chain.
pub fn check() -> Result<(), GuardError> {
    with_head(|head| budgets(head).try_for_each(Budget::check_self))
}

/// Records one completed candidate (partition block, exploration
/// config, bisection probe) on every budget in the active chain.
pub fn note_candidate() {
    note_candidates(1);
}

/// Records `n` completed candidates at once — the array solver bills
/// each outer cell's batch after sweeping it.
pub fn note_candidates(n: u64) {
    with_head(|head| {
        for b in budgets(head) {
            b.inner.candidates_done.fetch_add(n, Ordering::Relaxed);
        }
    });
}

/// Records one finished build span on every budget in the active chain.
pub fn note_span() {
    with_head(|head| {
        for b in budgets(head) {
            b.inner.spans_done.fetch_add(1, Ordering::Relaxed);
        }
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn no_budget_means_check_passes() {
        assert!(check().is_ok());
        assert!(crate::chain_head().is_none());
    }

    #[test]
    fn deadline_trips_and_reports_progress() {
        let b = Budget::with_deadline(Duration::from_micros(0));
        let _scope = b.enter();
        note_candidate();
        note_candidate();
        note_span();
        std::thread::sleep(Duration::from_millis(1));
        let err = check().unwrap_err();
        match err {
            GuardError::DeadlineExceeded { progress, .. } => {
                assert_eq!(progress.candidates_done, 2);
                assert_eq!(progress.spans_done, 1);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn cancel_trips_all_clones() {
        let b = Budget::unbounded();
        let clone = b.clone();
        let _scope = clone.enter();
        assert!(check().is_ok());
        b.cancel();
        assert!(matches!(check(), Err(GuardError::Cancelled { .. })));
    }

    #[test]
    fn batched_notes_count_every_candidate_on_every_budget() {
        let outer = Budget::unbounded();
        let inner = Budget::unbounded();
        {
            let _o = outer.enter();
            let _i = inner.enter();
            note_candidates(7);
            note_candidates(0);
            note_candidate();
        }
        assert_eq!(inner.progress().candidates_done, 8);
        assert_eq!(outer.progress().candidates_done, 8);
        // With no budget active a batch is a no-op.
        note_candidates(5);
        assert_eq!(outer.progress().candidates_done, 8);
    }

    #[test]
    fn cancel_after_checks_fires_at_nth_checkpoint() {
        let b = Budget::unbounded();
        b.cancel_after_checks(3);
        let _scope = b.enter();
        assert!(check().is_ok());
        assert!(check().is_ok());
        assert!(matches!(check(), Err(GuardError::Cancelled { .. })));
    }

    #[test]
    fn errors_render_and_compare() {
        let p = Progress {
            candidates_done: 4,
            spans_done: 2,
        };
        let e = GuardError::Cancelled { progress: p };
        assert_eq!(e, e.clone());
        assert!(e.to_string().contains("4 candidate(s)"), "{e}");
        let d = GuardError::DeadlineExceeded {
            budget_us: 100,
            elapsed_us: 250,
            progress: p,
        };
        assert!(d.to_string().contains("250 us"), "{d}");
        assert_eq!(d.progress(), p);
    }
}
