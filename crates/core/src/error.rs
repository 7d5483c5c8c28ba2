//! Top-level error type.

use mcpat_array::ArrayError;
use mcpat_diag::{AtPath, Diagnostic, Diagnostics};
use mcpat_guard::GuardError;
use std::fmt;

/// Errors produced while building or evaluating a processor model.
///
/// Every variant is *located*: validation failures carry the complete
/// [`Diagnostics`] pass (all findings, each with its component path),
/// and solver failures and budget trips carry the path where they
/// happened. Each failure has exactly one representation — a budget
/// trip is always [`McpatError::Budget`], wherever it fired — and one
/// class, [`McpatError::kind`].
#[derive(Debug, Clone, PartialEq)]
pub enum McpatError {
    /// The configuration failed validation. Holds **every** error and
    /// warning found, not just the first.
    Invalid(Diagnostics),
    /// A storage array — located by its component path, e.g.
    /// `core.lsu.dcache-data` — could not be solved. Never holds
    /// [`ArrayError::Budget`]: a trip inside the solver converts to
    /// [`McpatError::Budget`] at the array's path.
    Array(AtPath<ArrayError>),
    /// A resource budget (deadline or cooperative cancellation — see
    /// [`mcpat_guard`]) tripped at the named build stage or array.
    /// Carries partial-progress metadata; the build leaves no poisoned
    /// state behind and can simply be retried.
    Budget(AtPath<GuardError>),
}

impl McpatError {
    /// A single-finding validation error at `path` (convenience for
    /// call sites that detect one problem outside a full pass).
    pub fn config(path: impl Into<String>, message: impl Into<String>) -> McpatError {
        let mut d = Diagnostics::new();
        d.error(path, message);
        McpatError::Invalid(d)
    }

    /// The budget violation behind this error, if a deadline or
    /// cancellation is what stopped the build.
    #[must_use]
    pub fn guard_error(&self) -> Option<&GuardError> {
        match self {
            McpatError::Budget(e) => Some(&e.source),
            McpatError::Invalid(_) | McpatError::Array(_) => None,
        }
    }

    /// The failure class: `InvalidConfig`, `Infeasible`, or the
    /// budget's [`GuardError::kind`]. This is the serve daemon's wire
    /// `error.kind` and picks the `mcpat` CLI's exit code.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            McpatError::Invalid(_) => "InvalidConfig",
            McpatError::Array(_) => "Infeasible",
            McpatError::Budget(e) => e.source.kind(),
        }
    }

    /// Every finding this error carries, as a flat list (an `Array` or
    /// `Budget` error becomes one error-severity finding at its path).
    #[must_use]
    pub fn findings(&self) -> Vec<Diagnostic> {
        match self {
            McpatError::Invalid(d) => d.clone().into_vec(),
            McpatError::Array(e) => {
                vec![Diagnostic::error(e.path.clone(), e.source.to_string())]
            }
            McpatError::Budget(e) => {
                vec![Diagnostic::error(e.path.clone(), e.source.to_string())]
            }
        }
    }
}

impl fmt::Display for McpatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McpatError::Invalid(d) => {
                write!(
                    f,
                    "invalid configuration ({} error{}):\n{d}",
                    d.error_count(),
                    if d.error_count() == 1 { "" } else { "s" }
                )
            }
            McpatError::Array(e) => write!(f, "array solver: {e}"),
            McpatError::Budget(e) => write!(f, "budget: {e}"),
        }
    }
}

impl std::error::Error for McpatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            McpatError::Invalid(_) => None,
            McpatError::Array(e) => Some(e),
            McpatError::Budget(e) => Some(e),
        }
    }
}

impl From<AtPath<GuardError>> for McpatError {
    fn from(e: AtPath<GuardError>) -> McpatError {
        McpatError::Budget(e)
    }
}

/// A budget trip inside the solver becomes [`McpatError::Budget`] at the
/// array's path; every other solver failure stays [`McpatError::Array`].
impl From<AtPath<ArrayError>> for McpatError {
    fn from(e: AtPath<ArrayError>) -> McpatError {
        match e.source {
            ArrayError::Budget { reason, .. } => McpatError::Budget(AtPath::new(e.path, reason)),
            source => McpatError::Array(AtPath::new(e.path, source)),
        }
    }
}

impl From<Diagnostics> for McpatError {
    fn from(d: Diagnostics) -> McpatError {
        McpatError::Invalid(d)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn display_lists_every_finding() {
        let mut d = Diagnostics::new();
        d.error("num_cores", "zero cores");
        d.error("clock_hz", "must be positive");
        let e = McpatError::Invalid(d);
        let text = e.to_string();
        assert!(text.contains("2 errors"), "{text}");
        assert!(text.contains("num_cores"), "{text}");
        assert!(text.contains("clock_hz"), "{text}");
    }

    #[test]
    fn array_errors_convert_with_their_path() {
        let ae = ArrayError::DegenerateSpec { name: "x".into() };
        let e: McpatError = AtPath::new("l2.tag", ae.clone()).into();
        assert_eq!(e, McpatError::Array(AtPath::new("l2.tag", ae)));
        assert!(e.to_string().contains("l2.tag"));
    }

    #[test]
    fn budget_errors_locate_and_expose_the_guard_reason() {
        let ge = GuardError::Cancelled {
            progress: mcpat_guard::Progress::default(),
        };
        let e: McpatError = AtPath::new("build.core", ge.clone()).into();
        assert_eq!(e.guard_error(), Some(&ge));
        assert!(e.to_string().contains("build.core"));
        assert_eq!(e.findings().len(), 1);
        assert_eq!(e.findings()[0].path, "build.core");

        // A trip inside the solver converts to the same variant, at the
        // array's path.
        let ae = ArrayError::Budget {
            name: "dcache".into(),
            reason: ge.clone(),
        };
        let e: McpatError = AtPath::new("core.lsu.dcache", ae).into();
        assert_eq!(
            e,
            McpatError::Budget(AtPath::new("core.lsu.dcache", ge.clone()))
        );
        assert_eq!(e.guard_error(), Some(&ge));
        assert!(McpatError::config("x", "y").guard_error().is_none());
    }

    #[test]
    fn kind_names_each_failure_class() {
        assert_eq!(McpatError::config("x", "y").kind(), "InvalidConfig");
        let ae = ArrayError::DegenerateSpec { name: "x".into() };
        assert_eq!(
            McpatError::Array(AtPath::new("l2", ae)).kind(),
            "Infeasible"
        );
        let progress = mcpat_guard::Progress::default();
        let cancelled: McpatError = AtPath::new("build", GuardError::Cancelled { progress }).into();
        assert_eq!(cancelled.kind(), "Cancelled");
        let late = GuardError::DeadlineExceeded {
            budget_us: 1,
            elapsed_us: 2,
            progress,
        };
        let late: McpatError = AtPath::new("build", late).into();
        assert_eq!(late.kind(), "DeadlineExceeded");
    }

    #[test]
    fn findings_flatten_both_variants() {
        let e = McpatError::config("a.b", "broken");
        assert_eq!(e.findings().len(), 1);
        assert_eq!(e.findings()[0].path, "a.b");
        let ae = ArrayError::DegenerateSpec { name: "x".into() };
        let e = McpatError::Array(AtPath::new("mc", ae));
        assert_eq!(e.findings()[0].path, "mc");
    }
}
