//! An approximate intra-workspace call graph over [`Tree`] items.
//!
//! Resolution is **name-based and deliberately conservative**: a call
//! to `foo(...)` or `.foo(...)` edges to *every* workspace function
//! named `foo`, regardless of receiver type. Trait-object dispatch,
//! same-name methods on different types and free-fn/method punning all
//! collapse onto the union of candidates. The approximation can only
//! over-report reachability — a seeded panic behind a dynamic call is
//! never missed (the teeth tests below pin exactly that) — at the cost
//! of the occasional extra baseline entry for a function that shares a
//! name with hot-path code.
//!
//! Macro invocations are not call edges (their bodies are opaque at the
//! token level); the panic pass inspects macro *names* directly.

use super::tokentree::CallKind;
use super::{SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// One graph node: a function item in a workspace file.
#[derive(Copy, Clone, Debug)]
pub struct FnRef {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's [`Tree::fns`](super::tokentree::Tree::fns).
    pub item: usize,
}

/// The call graph over every non-test function of a workspace subset.
pub struct CallGraph {
    /// All nodes, in (file, source) order.
    pub nodes: Vec<FnRef>,
    /// `edges[n]` = indices of the nodes `n` may call, deduplicated.
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph over the files of `ws` accepted by `in_scope`
    /// (a predicate on the repo-relative path).
    pub fn build(ws: &Workspace, in_scope: impl Fn(&SourceFile) -> bool) -> CallGraph {
        let mut nodes = Vec::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (fi, f) in ws.files.iter().enumerate() {
            if !in_scope(f) {
                continue;
            }
            for (ii, item) in f.tree.fns.iter().enumerate() {
                if item.in_test {
                    continue;
                }
                by_name.entry(item.name.clone()).or_default().push(nodes.len());
                nodes.push(FnRef { file: fi, item: ii });
            }
        }
        let mut edges = Vec::with_capacity(nodes.len());
        for n in &nodes {
            let f = &ws.files[n.file];
            let item = &f.tree.fns[n.item];
            let mut out: BTreeSet<usize> = BTreeSet::new();
            for call in f.tree.calls_in(item.body.0, item.body.1) {
                if call.kind == CallKind::Macro {
                    continue;
                }
                if let Some(cands) = by_name.get(&call.name) {
                    out.extend(cands.iter().copied());
                }
            }
            edges.push(out.into_iter().collect());
        }
        CallGraph { nodes, edges }
    }

    /// Every node reachable from `roots` (inclusive), breadth-first.
    pub fn reachable(&self, roots: &[usize]) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = roots.iter().copied().collect();
        let mut queue: Vec<usize> = roots.to_vec();
        while let Some(n) = queue.pop() {
            for &m in &self.edges[n] {
                if seen.insert(m) {
                    queue.push(m);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::super::Workspace;
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(files)
    }

    fn graph(ws: &Workspace) -> CallGraph {
        CallGraph::build(ws, |_| true)
    }

    /// The nodes whose bare fn name is `name`.
    fn named(ws: &Workspace, g: &CallGraph, name: &str) -> Vec<usize> {
        let is = |r: &FnRef| ws.files[r.file].tree.fns[r.item].name == name;
        (0..g.nodes.len()).filter(|&n| is(&g.nodes[n])).collect()
    }

    fn reach_quals(ws: &Workspace, g: &CallGraph, roots: &[usize]) -> Vec<String> {
        g.reachable(roots)
            .into_iter()
            .map(|n| {
                let r = g.nodes[n];
                ws.files[r.file].tree.fns[r.item].qual.clone()
            })
            .collect()
    }

    /// Teeth: a panic behind a trait-object call must stay reachable.
    /// `run` calls `step` through `&dyn Engine`; name-based resolution
    /// must edge to *both* impls, so the panicking one is never missed.
    #[test]
    fn trait_object_dispatch_is_conservative() {
        let w = ws(&[(
            "crates/core/src/x.rs",
            "trait Engine { fn step(&self); }\n\
             struct Safe;\n\
             impl Engine for Safe { fn step(&self) {} }\n\
             struct Bad;\n\
             impl Engine for Bad { fn step(&self) { seeded_panic(); } }\n\
             fn seeded_panic() { panic!(\"seeded\"); }\n\
             fn run(e: &dyn Engine) { e.step(); }\n",
        )]);
        let g = graph(&w);
        let roots = named(&w, &g, "run");
        let reached = reach_quals(&w, &g, &roots);
        assert!(reached.contains(&"Bad::step".to_string()), "{reached:?}");
        assert!(reached.contains(&"Safe::step".to_string()), "{reached:?}");
        assert!(reached.contains(&"seeded_panic".to_string()), "{reached:?}");
    }

    /// Teeth: same-name methods on different types resolve to the
    /// union — a receiver the token layer cannot type still reaches
    /// every candidate, across files.
    #[test]
    fn same_name_methods_across_types_resolve_to_the_union() {
        let w = ws(&[
            (
                "crates/core/src/a.rs",
                "pub struct Table;\n\
                 impl Table { pub fn probe(&self) {} }\n\
                 pub fn drive(t: &Table) { t.probe(); }\n",
            ),
            (
                "crates/mem/src/b.rs",
                "pub struct Cache;\n\
                 impl Cache { pub fn probe(&self) { danger(); } }\n\
                 fn danger() { unreachable!() }\n",
            ),
        ]);
        let g = graph(&w);
        let roots = named(&w, &g, "drive");
        let reached = reach_quals(&w, &g, &roots);
        assert!(reached.contains(&"Cache::probe".to_string()), "{reached:?}");
        assert!(reached.contains(&"danger".to_string()), "{reached:?}");
    }

    /// Test-only fns are not nodes: a helper called solely from
    /// `#[cfg(test)]` code neither roots nor extends reachability.
    #[test]
    fn test_fns_are_excluded() {
        let w = ws(&[(
            "crates/core/src/x.rs",
            "fn live() {}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::live(); }\n}\n",
        )]);
        let g = graph(&w);
        assert_eq!(g.nodes.len(), 1);
        assert!(named(&w, &g, "t").is_empty());
    }

    /// Unreached code stays unreached: reachability is rooted, not
    /// whole-universe.
    #[test]
    fn unrooted_fns_are_not_reachable() {
        let w = ws(&[(
            "crates/core/src/x.rs",
            "fn root() { used(); }\nfn used() {}\nfn dead() { panic!() }\n",
        )]);
        let g = graph(&w);
        let roots = named(&w, &g, "root");
        let reached = reach_quals(&w, &g, &roots);
        assert_eq!(reached, ["root", "used"], "{reached:?}");
    }

    /// Recursion terminates and self-edges are fine.
    #[test]
    fn recursion_is_handled() {
        let w = ws(&[("crates/core/src/x.rs", "fn f(n: u32) { if n > 0 { f(n - 1); } }\n")]);
        let g = graph(&w);
        let roots = named(&w, &g, "f");
        assert_eq!(g.reachable(&roots).len(), 1);
    }
}
