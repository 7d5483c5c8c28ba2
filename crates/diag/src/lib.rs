//! Structured diagnostics for the modeling stack.
//!
//! Every validation and build step in the workspace reports problems as
//! [`Diagnostic`]s: a severity, a *component path* naming the exact knob
//! or unit involved (`core[0].icache.tag_array`), and a human-readable
//! message. A [`Diagnostics`] pass collects **all** findings instead of
//! stopping at the first, so one run of `--validate` shows everything
//! that needs fixing.
//!
//! Errors raised mid-build (after validation) carry their location via
//! [`AtPath`], a thin wrapper that pairs any error with the component
//! path it came from; [`ResultExt::at`] attaches the path at the call
//! site.
//!
//! ```
//! use mcpat_diag::Diagnostics;
//!
//! let mut diags = Diagnostics::new();
//! diags.require_positive("core.clock_hz", "clock", f64::NAN);
//! diags.warning("core.vdd_scale", "0.31 is at the edge of the model's fit range");
//! assert!(diags.has_errors());
//! assert_eq!(diags.warning_count(), 1);
//! ```

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The model can still be built; the result deserves scrutiny.
    Warning,
    /// The configuration or model is unusable as given.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding: severity, component path, message.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Dotted component path, e.g. `core[0].icache.tag_array`.
    /// Empty means "the configuration as a whole".
    pub path: String,
    /// Human-readable description of the problem.
    pub message: String,
}

impl Diagnostic {
    /// An error finding at `path`.
    pub fn error(path: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            path: path.into(),
            message: message.into(),
        }
    }

    /// A warning finding at `path`.
    pub fn warning(path: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            path: path.into(),
            message: message.into(),
        }
    }

    /// Re-roots the path under `prefix` (`prefix.path`).
    #[must_use]
    pub fn under(mut self, prefix: &str) -> Diagnostic {
        self.path = join_path(prefix, &self.path);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}: {}", self.severity, self.message)
        } else {
            write!(f, "{}: {}: {}", self.severity, self.path, self.message)
        }
    }
}

/// Joins two path segments, tolerating either being empty.
#[must_use]
pub fn join_path(prefix: &str, rest: &str) -> String {
    match (prefix.is_empty(), rest.is_empty()) {
        (true, _) => rest.to_owned(),
        (_, true) => prefix.to_owned(),
        _ => format!("{prefix}.{rest}"),
    }
}

/// An accumulating collection of findings — the result of a validation
/// pass. Unlike a `Result`, it keeps going after the first error so the
/// caller sees the complete picture.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    #[must_use]
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Records an error at `path`.
    pub fn error(&mut self, path: impl Into<String>, message: impl Into<String>) {
        self.items.push(Diagnostic::error(path, message));
    }

    /// Records a warning at `path`.
    pub fn warning(&mut self, path: impl Into<String>, message: impl Into<String>) {
        self.items.push(Diagnostic::warning(path, message));
    }

    /// Appends a prebuilt finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// Absorbs `other` with every path re-rooted under `prefix`
    /// (used when a sub-config validates itself with relative paths).
    pub fn merge_under(&mut self, prefix: &str, other: Diagnostics) {
        self.items
            .extend(other.items.into_iter().map(|d| d.under(prefix)));
    }

    /// Errors unless `v` is finite and strictly positive.
    pub fn require_positive(&mut self, path: impl Into<String>, label: &str, v: f64) -> bool {
        if v.is_finite() && v > 0.0 {
            true
        } else {
            self.error(
                path,
                format!("{label} must be positive and finite, got {v}"),
            );
            false
        }
    }

    /// Errors unless `v` is finite and non-negative.
    pub fn require_nonnegative(&mut self, path: impl Into<String>, label: &str, v: f64) -> bool {
        if v.is_finite() && v >= 0.0 {
            true
        } else {
            self.error(
                path,
                format!("{label} must be non-negative and finite, got {v}"),
            );
            false
        }
    }

    /// True if any finding is an [`Severity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// True if nothing was recorded at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total findings recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Number of errors.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warnings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// All findings in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// `Ok(self)` when there are no errors (warnings may remain),
    /// `Err(self)` otherwise.
    ///
    /// # Errors
    ///
    /// Returns the collection itself when it contains at least one error.
    pub fn into_result(self) -> Result<Diagnostics, Diagnostics> {
        if self.has_errors() {
            Err(self)
        } else {
            Ok(self)
        }
    }

    /// Consumes into the raw finding list.
    #[must_use]
    pub fn into_vec(self) -> Vec<Diagnostic> {
        self.items
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a> IntoIterator for &'a Diagnostics {
    type Item = &'a Diagnostic;
    type IntoIter = std::slice::Iter<'a, Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl FromIterator<Diagnostic> for Diagnostics {
    fn from_iter<I: IntoIterator<Item = Diagnostic>>(iter: I) -> Diagnostics {
        Diagnostics {
            items: iter.into_iter().collect(),
        }
    }
}

/// An error `source` located at component `path`.
///
/// Build steps deeper in the stack return plain error types; callers
/// attach the path as the error bubbles up ([`ResultExt::at`]), and
/// outer layers extend it ([`AtPath::under`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtPath<E> {
    /// Dotted component path, e.g. `l2[1].tag_array`.
    pub path: String,
    /// The underlying error.
    pub source: E,
}

impl<E> AtPath<E> {
    /// Wraps `source` with its component path.
    pub fn new(path: impl Into<String>, source: E) -> AtPath<E> {
        AtPath {
            path: path.into(),
            source,
        }
    }

    /// Re-roots the path under `prefix`.
    #[must_use]
    pub fn under(mut self, prefix: &str) -> AtPath<E> {
        self.path = join_path(prefix, &self.path);
        self
    }
}

impl<E: fmt::Display> fmt::Display for AtPath<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            self.source.fmt(f)
        } else {
            write!(f, "{}: {}", self.path, self.source)
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for AtPath<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Attaches component paths to `Result` errors.
pub trait ResultExt<T, E> {
    /// Wraps the error, if any, with the component path it came from.
    ///
    /// # Errors
    ///
    /// Propagates the original error wrapped in [`AtPath`].
    fn at(self, path: impl Into<String>) -> Result<T, AtPath<E>>;
}

impl<T, E> ResultExt<T, E> for Result<T, E> {
    fn at(self, path: impl Into<String>) -> Result<T, AtPath<E>> {
        self.map_err(|e| AtPath::new(path, e))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn collects_multiple_findings() {
        let mut d = Diagnostics::new();
        d.error("a", "first");
        d.warning("b", "second");
        d.error("c.d", "third");
        assert_eq!(d.len(), 3);
        assert_eq!(d.error_count(), 2);
        assert_eq!(d.warning_count(), 1);
        assert!(d.has_errors());
    }

    #[test]
    fn numeric_checks_catch_non_finite() {
        let mut d = Diagnostics::new();
        assert!(!d.require_positive("y", "y", 0.0));
        assert!(!d.require_positive("y", "y", f64::INFINITY));
        assert!(!d.require_nonnegative("z", "z", -1.0));
        assert!(d.require_nonnegative("z", "z", 0.0));
        assert_eq!(d.error_count(), 3);
    }

    #[test]
    fn merge_under_prefixes_paths() {
        let mut inner = Diagnostics::new();
        inner.error("icache.size", "zero");
        inner.error("", "whole thing");
        let mut outer = Diagnostics::new();
        outer.merge_under("core[0]", inner);
        let paths: Vec<&str> = outer.iter().map(|d| d.path.as_str()).collect();
        assert_eq!(paths, ["core[0].icache.size", "core[0]"]);
    }

    #[test]
    fn into_result_splits_on_errors() {
        let mut warn_only = Diagnostics::new();
        warn_only.warning("w", "take care");
        assert!(warn_only.clone().into_result().is_ok());
        warn_only.error("e", "broken");
        assert!(warn_only.into_result().is_err());
    }

    #[test]
    fn display_formats_one_per_line() {
        let mut d = Diagnostics::new();
        d.error("core.clock_hz", "must be positive");
        d.warning("", "global note");
        let text = d.to_string();
        assert_eq!(
            text,
            "error: core.clock_hz: must be positive\nwarning: global note"
        );
    }

    #[test]
    fn at_path_wraps_and_nests() {
        #[derive(Debug, PartialEq)]
        struct Boom;
        impl fmt::Display for Boom {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("boom")
            }
        }
        let r: Result<(), Boom> = Err(Boom);
        let e = r.at("tag_array").unwrap_err();
        assert_eq!(e.path, "tag_array");
        let e = e.under("l2[1]");
        assert_eq!(e.path, "l2[1].tag_array");
        assert_eq!(e.to_string(), "l2[1].tag_array: boom");
    }

    #[test]
    fn severity_orders_error_above_warning() {
        assert!(Severity::Error > Severity::Warning);
    }
}
