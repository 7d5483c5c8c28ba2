//! The cross-crate call graph: budget-checkpoint reachability and
//! public-API reachability.
//!
//! Built from per-file function summaries (name, enclosing impl type,
//! call sites), the graph answers two questions. For L013: *which fns
//! does a walk from the entry points reach?* (see
//! [`CallGraph::reachable`]). For L012: *starting
//! from this call, can execution reach an `mcpat-guard` checkpoint
//! within a bounded number of frames?* PR 6 wired checkpoints into
//! every long path; L008 could only see a checkpoint spelled out in
//! the loop body itself, which forced audited allows on every loop
//! whose callee checkpoints internally (`Processor::build`, the array
//! solver). Reachability retires those.
//!
//! Resolution is name-based — the linter has no type information — but
//! hint-narrowed and *optimistic*:
//!
//! 1. A path call `Type::f(...)` prefers functions in an `impl Type`;
//!    a path call `mcpat_xyz::f(...)` prefers functions in crate `xyz`.
//! 2. A bare or method call prefers candidates in the calling crate,
//!    then falls back to the whole workspace.
//! 3. A call reaches a checkpoint if **any** candidate does.
//!
//! Optimism keeps false positives down (the lint gate runs at zero
//! findings); the single-file fixtures exercise the precise behavior.
//! Test functions are never candidates — a test helper sharing a
//! production name must not vouch for reachability.

use std::collections::{BTreeMap, VecDeque};

/// Checkpoint idents that satisfy budget reachability when called:
/// the `mcpat_guard` entry points and the crate-local wrappers that
/// forward to them.
pub const BUDGET_CHECKS: &[&str] = &["check", "check_self", "budget_check", "checkpoint"];

/// Maximum frames between a loop body and a checkpoint for L012 to
/// accept it: the loop's own call is frame 1, so a chain
/// `loop → build → build_inner → check()` resolves at depth 3.
pub const MAX_CHECKPOINT_DEPTH: usize = 4;

/// One call site as the graph sees it: the callee's final segment plus
/// any leading path segments (hints for resolution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallRef {
    /// Final path segment (`build`, `check`).
    pub name: String,
    /// Leading segments of a path call (`Processor::build` →
    /// `["Processor"]`); empty for bare and method calls.
    pub path: Vec<String>,
}

impl CallRef {
    /// Whether this call *is* a checkpoint invocation, directly: the
    /// name is one of [`BUDGET_CHECKS`] (optionally qualified through
    /// `mcpat_guard`). Matches L008's historical syntactic test, so a
    /// crate-local wrapper named `checkpoint` still counts.
    #[must_use]
    pub fn is_checkpoint(&self) -> bool {
        BUDGET_CHECKS.contains(&self.name.as_str())
    }
}

/// One function node contributed by a file summary.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Owning crate (directory name under `crates/`).
    pub crate_name: String,
    /// Workspace-relative file.
    pub file: String,
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type, if associated.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the fn lives in a test region (never a candidate).
    pub is_test: bool,
    /// Whether the fn is declared plain `pub` (L013's subject).
    pub public: bool,
    /// Whether this is an entry point: a binary's `main` or any fn of
    /// a root-only source (examples, perfbench).
    pub entry: bool,
    /// Whether L013's walk starts here: an entry point or a trait item.
    pub root: bool,
    /// Every call expression in the body.
    pub calls: Vec<CallRef>,
}

/// The workspace call graph with checkpoint depths precomputed.
#[derive(Debug, Default)]
pub struct CallGraph {
    nodes: Vec<FnNode>,
    /// name → indices of non-test nodes bearing it.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Minimum frames from this node's entry to a checkpoint call:
    /// `Some(0)` when the body calls one directly, `Some(1)` when a
    /// callee does, … `None` when no checkpoint is reachable at all.
    depth: Vec<Option<usize>>,
}

/// Normalizes a crate-path segment to the workspace directory name:
/// `mcpat_guard` / `mcpat-guard` → `guard`, `mcpat` → `core` (the
/// umbrella modeling crate lives in `crates/core`).
fn crate_of_segment(seg: &str) -> Option<&str> {
    let norm = seg
        .strip_prefix("mcpat_")
        .or_else(|| seg.strip_prefix("mcpat-"));
    match norm {
        Some(rest) => Some(rest),
        None if seg == "mcpat" => Some("core"),
        None => None,
    }
}

impl CallGraph {
    /// Builds the graph and runs the checkpoint-depth fixed point.
    #[must_use]
    pub fn build(nodes: Vec<FnNode>) -> CallGraph {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            if !n.is_test {
                by_name.entry(n.name.clone()).or_default().push(i);
            }
        }
        let mut graph = CallGraph {
            depth: vec![None; nodes.len()],
            nodes,
            by_name,
        };

        // Seed: bodies that call a checkpoint directly.
        for (i, n) in graph.nodes.iter().enumerate() {
            if n.calls.iter().any(CallRef::is_checkpoint) {
                if let Some(d) = graph.depth.get_mut(i) {
                    *d = Some(0);
                }
            }
        }

        // Fixed point over callee depths. Depths only decrease and are
        // bounded by MAX_CHECKPOINT_DEPTH, so this terminates after at
        // most that many sweeps.
        for _ in 0..MAX_CHECKPOINT_DEPTH {
            let mut changed = false;
            for i in 0..graph.nodes.len() {
                let current = graph.depth.get(i).copied().flatten();
                if current == Some(0) {
                    continue;
                }
                let calls = graph
                    .nodes
                    .get(i)
                    .map(|n| n.calls.clone())
                    .unwrap_or_default();
                let from_crate = graph
                    .nodes
                    .get(i)
                    .map(|n| n.crate_name.clone())
                    .unwrap_or_default();
                let mut best = current;
                for call in &calls {
                    for cand in graph.resolve(Some(&from_crate), call) {
                        if let Some(d) = graph.depth.get(cand).copied().flatten() {
                            let through = d.saturating_add(1);
                            if through < MAX_CHECKPOINT_DEPTH && best.is_none_or(|b| through < b) {
                                best = Some(through);
                            }
                        }
                    }
                }
                if best != current {
                    if let Some(d) = graph.depth.get_mut(i) {
                        *d = best;
                    }
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        graph
    }

    /// All nodes (for reporting).
    #[must_use]
    pub fn nodes(&self) -> &[FnNode] {
        &self.nodes
    }

    /// Candidate node indices for a call. Empty when the callee is
    /// opaque (closure parameters, std/vendored functions).
    ///
    /// Called from a crate, the binding is hint-narrowed per the
    /// module docs. With `from_crate: None` it is the over-approximation
    /// L013 walks: only an impl-type hint narrows, and otherwise every
    /// fn bearing the name is a candidate, since a re-export
    /// (`mcpat::tech::…`) or an unknown receiver type may name any of
    /// them.
    #[must_use]
    pub fn resolve(&self, from_crate: Option<&str>, call: &CallRef) -> Vec<usize> {
        let Some(all) = self.by_name.get(&call.name) else {
            return Vec::new();
        };
        // Path hints: `Type::f` narrows by impl type, `mcpat_xyz::f`
        // narrows by crate.
        if let Some(last) = call.path.last() {
            let by_impl: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&i| {
                    self.nodes
                        .get(i)
                        .is_some_and(|n| n.impl_type.as_deref() == Some(last.as_str()))
                })
                .collect();
            if !by_impl.is_empty() {
                return by_impl;
            }
            let crate_hint = call.path.first().and_then(|s| crate_of_segment(s));
            if let (Some(crate_name), Some(_)) = (crate_hint, from_crate) {
                let by_crate: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&i| {
                        self.nodes
                            .get(i)
                            .is_some_and(|n| n.crate_name == crate_name)
                    })
                    .collect();
                if !by_crate.is_empty() {
                    return by_crate;
                }
            }
        }
        // Same-crate preference, then the whole workspace.
        let Some(from_crate) = from_crate else {
            return all.clone();
        };
        let same: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| {
                self.nodes
                    .get(i)
                    .is_some_and(|n| n.crate_name == from_crate)
            })
            .collect();
        if same.is_empty() {
            all.clone()
        } else {
            same
        }
    }

    /// Which nodes a breadth-first walk from the roots reaches over
    /// [`CallGraph::resolve`]'s type-unknown binding, by node index.
    /// A fn reached only from itself or from tests stays unreached.
    #[must_use]
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen: Vec<bool> = self.nodes.iter().map(|n| n.root && !n.is_test).collect();
        let mut queue: VecDeque<usize> = (0..seen.len())
            .filter(|&i| seen.get(i).copied().unwrap_or(false))
            .collect();
        while let Some(i) = queue.pop_front() {
            let Some(node) = self.nodes.get(i) else {
                continue;
            };
            for call in &node.calls {
                for cand in self.resolve(None, call) {
                    if let Some(flag) = seen.get_mut(cand).filter(|f| !**f) {
                        *flag = true;
                        queue.push_back(cand);
                    }
                }
            }
        }
        seen
    }

    /// Minimum checkpoint depth of a node, when reachable.
    #[must_use]
    pub fn checkpoint_depth(&self, node: usize) -> Option<usize> {
        self.depth.get(node).copied().flatten()
    }

    /// Whether *invoking* this call can reach a checkpoint within
    /// [`MAX_CHECKPOINT_DEPTH`] frames: the call itself is frame 1.
    /// A direct checkpoint invocation trivially qualifies.
    #[must_use]
    pub fn call_reaches_checkpoint(&self, from_crate: &str, call: &CallRef) -> bool {
        if call.is_checkpoint() {
            return true;
        }
        self.resolve(Some(from_crate), call).iter().any(|&i| {
            self.checkpoint_depth(i)
                .is_some_and(|d| d.saturating_add(1) <= MAX_CHECKPOINT_DEPTH)
        })
    }

    /// Whether the call resolves to at least one known function.
    #[must_use]
    pub fn resolves(&self, from_crate: &str, call: &CallRef) -> bool {
        !self.resolve(Some(from_crate), call).is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn node(crate_name: &str, name: &str, impl_type: Option<&str>, calls: &[&str]) -> FnNode {
        FnNode {
            crate_name: crate_name.to_owned(),
            file: format!("crates/{crate_name}/src/lib.rs"),
            name: name.to_owned(),
            impl_type: impl_type.map(str::to_owned),
            line: 1,
            is_test: false,
            public: true,
            entry: false,
            root: false,
            calls: calls
                .iter()
                .map(|c| CallRef {
                    name: (*c).to_owned(),
                    path: Vec::new(),
                })
                .collect(),
        }
    }

    #[test]
    fn direct_and_transitive_depths() {
        let g = CallGraph::build(vec![
            node("guard", "check", None, &[]),
            node("array", "solve_inner", None, &["check"]),
            node("array", "solve", None, &["solve_inner"]),
            node("core", "build", Some("Processor"), &["solve"]),
            node("circuit", "pure_math", None, &["mul"]),
        ]);
        assert_eq!(g.checkpoint_depth(1), Some(0));
        assert_eq!(g.checkpoint_depth(2), Some(1));
        assert_eq!(g.checkpoint_depth(3), Some(2));
        assert_eq!(g.checkpoint_depth(4), None);
    }

    #[test]
    fn calls_reach_through_the_chain_but_not_past_the_bound() {
        let g = CallGraph::build(vec![
            node("guard", "budget_check", None, &[]),
            node("a", "f1", None, &["budget_check"]),
            node("a", "f2", None, &["f1"]),
            node("a", "f3", None, &["f2"]),
            node("a", "f4", None, &["f3"]),
            node("a", "f5", None, &["f4"]),
        ]);
        let call = |n: &str| CallRef {
            name: n.to_owned(),
            path: Vec::new(),
        };
        assert!(g.call_reaches_checkpoint("a", &call("f1")));
        assert!(g.call_reaches_checkpoint("a", &call("f3")));
        // f5 is 5 frames from the checkpoint: past the bound.
        assert!(!g.call_reaches_checkpoint("a", &call("f5")));
        // Unknown callees are opaque, not reaching.
        assert!(!g.call_reaches_checkpoint("a", &call("mystery")));
        // A literal checkpoint call always qualifies.
        assert!(g.call_reaches_checkpoint("a", &call("check")));
    }

    #[test]
    fn same_crate_candidates_shadow_the_workspace() {
        // `build` in crate "circuit" does NOT checkpoint; the one in
        // crate "core" does. A circuit-crate call must bind locally.
        let g = CallGraph::build(vec![
            node("guard", "check", None, &[]),
            node("circuit", "build", Some("RepeatedWire"), &["mul"]),
            node("core", "build", Some("Processor"), &["check"]),
        ]);
        let bare = CallRef {
            name: String::from("build"),
            path: Vec::new(),
        };
        assert!(!g.call_reaches_checkpoint("circuit", &bare));
        assert!(g.call_reaches_checkpoint("bench", &bare));
        // An impl-type hint overrides crate preference.
        let hinted = CallRef {
            name: String::from("build"),
            path: vec![String::from("Processor")],
        };
        assert!(g.call_reaches_checkpoint("circuit", &hinted));
    }

    #[test]
    fn test_fns_are_never_candidates() {
        let mut helper = node("a", "build", None, &["check"]);
        helper.is_test = true;
        let g = CallGraph::build(vec![node("guard", "check", None, &[]), helper]);
        let call = CallRef {
            name: String::from("build"),
            path: Vec::new(),
        };
        assert!(!g.call_reaches_checkpoint("a", &call));
    }

    #[test]
    fn reachability_walks_from_roots_and_binds_across_crates() {
        let mut main = node("serve", "main", None, &["run"]);
        main.root = true;
        let mut test = node("a", "t", None, &["seam"]);
        test.is_test = true;
        let g = CallGraph::build(vec![
            main,
            // A same-named fn in the caller's crate must not shadow
            // the other crate's: the walk binds every `run`.
            node("serve", "run", None, &["solve"]),
            node("array", "run", None, &["helper"]),
            node("array", "helper", None, &[]),
            node("array", "solve", None, &[]),
            node("array", "countdown", None, &["countdown"]),
            node("a", "seam", None, &[]),
            test,
        ]);
        assert_eq!(
            g.reachable(),
            [true, true, true, true, true, false, false, false]
        );
    }

    #[test]
    fn crate_path_hints_narrow() {
        let g = CallGraph::build(vec![
            node("guard", "enter", None, &["check"]),
            node("obs", "enter", None, &["noop"]),
        ]);
        let hinted = CallRef {
            name: String::from("enter"),
            path: vec![String::from("mcpat_obs")],
        };
        // Narrowed to the obs crate, which does not checkpoint.
        assert!(!g.call_reaches_checkpoint("bench", &hinted));
        let guard_hinted = CallRef {
            name: String::from("enter"),
            path: vec![String::from("mcpat_guard")],
        };
        assert!(g.call_reaches_checkpoint("bench", &guard_hinted));
    }
}
