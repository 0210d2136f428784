//! Pass 1: hot-path panic-freedom.
//!
//! Builds the conservative call graph over the hot-path crates
//! (`common`, `core`, `mem`, `sim`, `cpu`), roots it at every registry
//! engine's `Prefetcher` entry points, the `SimMemory`/`MemSystem`
//! entry points and the out-of-order pipeline's `Pipeline::run`, and
//! flags every potentially-panicking construct in a reachable function:
//!
//! * `.unwrap()` / `.expect(..)` (kinds `unwrap`, `expect`)
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!` (kind
//!   `panic`)
//! * slice/array index expressions, which can be out of bounds (kind
//!   `index`)
//! * integer `/` and `%` with a non-literal divisor, which can divide
//!   by zero (kind `div`)
//!
//! The crates that model the machine (`mem`, `core`, `cpu`) are held to
//! more, reachable or not: every `.unwrap()` in their non-test code is
//! a finding (kind `unwrap`), and so is every `.expect(..)` whose
//! message and two preceding lines never say "invariant" (kind
//! `bare-expect`) — an expect must state why it cannot fire.
//!
//! Findings are grouped per (file, function, kind) — the granularity of
//! a `PANICS.toml` baseline entry — so line churn inside a function
//! never invalidates its justification, while a *new* kind of panic
//! sneaking into a clean function always trips the gate.

use super::callgraph::CallGraph;
use super::tokentree::CallKind;
use super::{Finding, Sites, Workspace};

/// The crates whose non-test library code forms the panic universe.
pub const PANIC_CRATES: &[&str] = &["common", "core", "mem", "sim", "cpu"];

/// The crates where any `.unwrap()` or unjustified `.expect()` is a
/// finding, reachable or not.
pub const UNWRAP_CRATES: &[&str] = &["mem", "core", "cpu"];

/// Bare names of the analysis roots: the `Prefetcher` trait surface
/// every registry engine implements, plus the `MemSystem` surface
/// `SimMemory` exposes to the CPU model.
pub const ROOT_METHODS: &[&str] =
    &["tick", "lookup", "train", "quiescent", "load", "store", "fetch", "fetched_load"];

/// Whether the fn `name` in file `rel` is a root: a [`ROOT_METHODS`]
/// name in an engine file of `psb-core` or the memory-system front end,
/// or the pipeline's `run`, which drives every simulated cycle.
fn is_root(rel: &str, name: &str) -> bool {
    match rel {
        "crates/cpu/src/pipeline.rs" => name == "run",
        "crates/sim/src/memsys.rs" => ROOT_METHODS.contains(&name),
        _ => rel.starts_with("crates/core/src/") && ROOT_METHODS.contains(&name),
    }
}

/// What the pass computed, for the report and the gate.
pub struct PanicsReport {
    /// Number of root functions.
    pub roots: usize,
    /// Number of reachable functions (roots included).
    pub reachable: usize,
    /// One finding per (file, fn, kind), source order.
    pub findings: Vec<Finding>,
}

/// Runs the pass over the workspace.
pub fn run(ws: &Workspace) -> PanicsReport {
    let graph = CallGraph::build(ws, |f| PANIC_CRATES.contains(&f.krate.as_str()));
    let roots: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            let f = &ws.files[r.file];
            let item = &f.tree.fns[r.item];
            is_root(&f.rel, &item.name)
        })
        .map(|(n, _)| n)
        .collect();
    let reachable = graph.reachable(&roots);

    let mut sites = Sites::default();
    for &n in &reachable {
        let r = graph.nodes[n];
        let f = &ws.files[r.file];
        let item = &f.tree.fns[r.item];
        let (lo, hi) = item.body;
        let mut add = |kind: &'static str, line: usize| sites.add(&f.rel, &item.qual, kind, line);
        for call in f.tree.calls_in(lo, hi) {
            match (call.kind, call.name.as_str()) {
                (CallKind::Method, "unwrap") => add("unwrap", call.line),
                (CallKind::Method, "expect") => add("expect", call.line),
                (CallKind::Macro, "panic" | "unreachable" | "todo" | "unimplemented") => {
                    add("panic", call.line)
                }
                _ => {}
            }
        }
        for tok in f.tree.index_sites_in(lo, hi) {
            add("index", f.tree.toks[tok].line);
        }
        for tok in f.tree.div_sites_in(lo, hi) {
            add("div", f.tree.toks[tok].line);
        }
    }

    // Reachable or not: the crates that model the machine never unwrap.
    for f in ws.files.iter().filter(|f| UNWRAP_CRATES.contains(&f.krate.as_str())) {
        for call in f.tree.calls_in(0, f.tree.toks.len()) {
            if call.kind != CallKind::Method || f.tree.toks[call.tok].in_test {
                continue;
            }
            let justified = || {
                let near = f.tree.lines_text(call.line.saturating_sub(2), call.line);
                near.to_ascii_lowercase().contains("invariant")
            };
            match call.name.as_str() {
                "unwrap" => sites.add_tok(f, call.tok, "unwrap"),
                "expect" if !justified() => sites.add_tok(f, call.tok, "bare-expect"),
                _ => {}
            }
        }
    }

    PanicsReport { roots: roots.len(), reachable: reachable.len(), findings: sites.group("panics") }
}

#[cfg(test)]
mod tests {
    use super::super::Workspace;
    use super::*;

    /// Teeth: a seeded unwrap reachable from `tick` through two layers
    /// of calls is found, with the right id and line.
    #[test]
    fn seeded_reachable_unwrap_is_found() {
        let w = Workspace::from_sources(&[(
            "crates/core/src/predictor/x.rs",
            "impl Engine {\n\
                 fn tick(&mut self) { self.advance(); }\n\
                 fn advance(&mut self) { helper(self.v); }\n\
             }\n\
             fn helper(v: Option<u32>) -> u32 { v.unwrap() }\n",
        )]);
        let r = run(&w);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        let f = &r.findings[0];
        assert_eq!(f.id, "panics:crates/core/src/predictor/x.rs:helper:unwrap");
        assert_eq!(f.lines, [5]);
    }

    /// Teeth: an unreachable panic is NOT flagged — the pass is rooted.
    #[test]
    fn unreachable_panics_are_not_flagged() {
        let w = Workspace::from_sources(&[(
            "crates/core/src/x.rs",
            "impl E { fn tick(&mut self) {} }\n\
             fn cold_constructor() { assert_helper(); }\n\
             fn assert_helper() { panic!(\"construction-time\"); }\n",
        )]);
        let r = run(&w);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    /// Index expressions and integer division in a reachable fn are
    /// flagged with their own kinds; float division is not.
    #[test]
    fn index_and_div_kinds_fire() {
        let w = Workspace::from_sources(&[(
            "crates/core/src/x.rs",
            "impl Cache {\n\
                 fn lookup(&self, i: usize, d: u64) -> u64 {\n\
                     let x = self.sets[i];\n\
                     let _f = x as f64 / 2.0;\n\
                     x / d\n\
                 }\n\
             }\n",
        )]);
        let r = run(&w);
        let kinds: Vec<&str> = r.findings.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, ["index", "div"], "{:?}", r.findings);
    }

    /// Roots outside root files do not root the graph: a `tick` in the
    /// workloads crate is not a hot-path entry point.
    #[test]
    fn root_names_outside_root_files_do_not_root() {
        let w = Workspace::from_sources(&[(
            "crates/sim/src/sweep.rs",
            "fn tick() { boom(); }\nfn boom() { panic!() }\n",
        )]);
        let r = run(&w);
        assert_eq!(r.roots, 0);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    /// The pipeline's `run` is a root, and only that: its other fns are
    /// reached through it, and a `run` elsewhere in the crate is not one.
    /// The unreachable `unwrap` in `fetch` is still a finding: in `cpu`
    /// every `.unwrap()` is.
    #[test]
    fn the_pipeline_run_is_a_root() {
        let w = Workspace::from_sources(&[
            (
                "crates/cpu/src/pipeline.rs",
                "impl Pipeline {\n\
                     fn run(&mut self) { self.issue(); }\n\
                     fn issue(&mut self) { self.rob[0].go(); }\n\
                     fn fetch(&mut self) { self.q.pop().unwrap(); }\n\
                 }\n",
            ),
            ("crates/cpu/src/other.rs", "fn run() { boom(); }\nfn boom() { panic!() }\n"),
        ]);
        let r = run(&w);
        assert_eq!(r.roots, 1);
        let ids: Vec<&str> = r.findings.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "panics:crates/cpu/src/pipeline.rs:Pipeline::issue:index",
                "panics:crates/cpu/src/pipeline.rs:Pipeline::fetch:unwrap",
            ]
        );
    }

    /// Panic macros in all four spellings map to kind `panic`, and
    /// several sites of one kind in one fn fold into one finding.
    #[test]
    fn panic_macros_fold_into_one_finding_per_fn() {
        let w = Workspace::from_sources(&[(
            "crates/core/src/x.rs",
            "fn quiescent() -> bool {\n\
                 if bad() { panic!(\"a\") }\n\
                 if worse() { unreachable!() }\n\
                 true\n\
             }\n\
             fn bad() -> bool { false }\nfn worse() -> bool { false }\n",
        )]);
        let r = run(&w);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].kind, "panic");
        assert_eq!(r.findings[0].lines, [2, 3]);
    }

    /// In `mem`, `core` and `cpu` every `.unwrap()` is a finding,
    /// reachable or not, grouped under its fn (or its file, outside one).
    #[test]
    fn unwrap_fires_in_hot_path_non_test_code() {
        let w = Workspace::from_sources(&[(
            "crates/mem/src/mshr.rs",
            "fn cold(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n\
             static S: u32 = Some(1).unwrap();\n",
        )]);
        let got: Vec<(String, Vec<usize>)> =
            run(&w).findings.into_iter().map(|f| (f.id, f.lines)).collect();
        assert_eq!(
            got,
            [
                ("panics:crates/mem/src/mshr.rs:cold:unwrap".to_string(), vec![2]),
                ("panics:crates/mem/src/mshr.rs::unwrap".to_string(), vec![4]),
            ]
        );
    }

    #[test]
    fn unwrap_silent_outside_hot_path_crates_tests_strings_and_unwrap_or() {
        let quiet = [
            ("crates/workloads/src/gen.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n"),
            ("crates/mem/src/a.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n"),
            ("crates/mem/src/b.rs", "fn f() -> &'static str { \".unwrap()\" } // x.unwrap()\n"),
            (
                "crates/mem/src/c.rs",
                "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n",
            ),
        ];
        let r = run(&Workspace::from_sources(&quiet));
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        // Code after a test module is checked again.
        let after = "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n\
                     pub fn hot(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let r = run(&Workspace::from_sources(&[("crates/mem/src/x.rs", after)]));
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].lines, [6]);
    }

    /// An `.expect()` must say "invariant" in its message or the two
    /// lines above; otherwise it is kind `bare-expect`, reachable or not.
    #[test]
    fn expect_requires_invariant_justification() {
        let ids = |src: &str| -> Vec<String> {
            let w = Workspace::from_sources(&[("crates/core/src/x.rs", src)]);
            run(&w).findings.into_iter().map(|f| f.id).collect()
        };
        let bare = "fn f(x: Option<u32>) -> u32 {\n    x.expect(\"present\")\n}\n";
        assert_eq!(ids(bare), ["panics:crates/core/src/x.rs:f:bare-expect"]);
        let justified = "fn f(x: Option<u32>) -> u32 {\n    \
                         // Invariant: caller checked is_some().\n    \
                         x.expect(\"checked by caller\")\n}\n";
        assert!(ids(justified).is_empty());
        let in_message =
            "fn f(x: Option<u32>) -> u32 {\n    x.expect(\"invariant: caller checked\")\n}\n";
        assert!(ids(in_message).is_empty());
    }
}
