//! Pass 2: static lock-order.
//!
//! Extracts every `.lock()` acquisition in the threaded crates
//! (`model`, `sim`, `bench`), assigns it a **lock class**
//! `{crate}/{receiver}` (so `self.state.lock()` in psb-model is
//! `model/state`), computes how long each guard is *held* —
//!
//! * a `let`-bound guard lives to the end of its enclosing block,
//! * a temporary (`self.state.lock().unwrap().push(x)`) dies at the
//!   end of its statement —
//!
//! and records an order edge `A -> B` whenever `B` is acquired while
//! `A` is held, either directly or through a call chain (a transitive
//! acquisition-set fixpoint over the conservative call graph). A cycle
//! in the resulting class graph is a potential deadlock and **fails the
//! run outright** — lock inversions are never baselineable, unlike
//! panic findings.
//!
//! `.wait()` on a condvar is recorded but creates no edges: waiting
//! releases and re-acquires the *same* lock, which cannot invert an
//! order. A `self.lock()` call (no field receiver) is treated as a call
//! to a locking helper — the KeyedOnce pattern — and resolves through
//! the call graph to the helper's acquisition set.

use super::callgraph::CallGraph;
use super::tokentree::{CallKind, Tree, NO_MATCH};
use super::Workspace;
use crate::lexer::Kind;
use std::collections::{BTreeMap, BTreeSet};

/// The crates whose locking code forms the analysis universe.
pub const LOCK_CRATES: &[&str] = &["model", "sim", "bench"];

/// One direct lock acquisition inside a function body.
#[derive(Clone, Debug)]
pub struct Acquisition {
    /// Lock class `{crate}/{receiver}`.
    pub class: String,
    /// Significant-token index of the `lock` method name.
    pub tok: usize,
    /// 1-based source line.
    pub line: usize,
    /// Token range over which the guard is held (inclusive).
    pub hold: (usize, usize),
}

/// One lock-order edge with provenance.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Held class.
    pub from: String,
    /// Class acquired under it.
    pub to: String,
    /// Repo-relative file of the outer acquisition.
    pub file: String,
    /// Line of the *inner* acquisition or the mediating call.
    pub line: usize,
    /// `Some(callee)` when the edge is call-mediated.
    pub via: Option<String>,
}

/// What the pass computed.
pub struct LocksReport {
    /// Every lock class seen.
    pub classes: BTreeSet<String>,
    /// Deduplicated order edges (first provenance kept).
    pub edges: Vec<Edge>,
    /// Condvar wait sites (informational).
    pub waits: usize,
    /// Cycles in the class graph, each a closed class path. Non-empty
    /// means the gate fails.
    pub cycles: Vec<Vec<String>>,
}

/// Runs the pass over the workspace.
pub fn run(ws: &Workspace) -> LocksReport {
    let graph = CallGraph::build(ws, |f| LOCK_CRATES.contains(&f.krate.as_str()));

    // Per node: direct acquisitions, wait count, and the call sites that
    // remain once acquisition/wait method names are excluded (those
    // must not resolve to helper fns that happen to be named `lock`).
    let mut acqs: Vec<Vec<Acquisition>> = Vec::with_capacity(graph.nodes.len());
    let mut calls: Vec<Vec<(String, usize, usize)>> = Vec::with_capacity(graph.nodes.len());
    let mut waits = 0usize;
    for n in &graph.nodes {
        let f = &ws.files[n.file];
        let item = &f.tree.fns[n.item];
        let (lo, hi) = item.body;
        let mut direct = Vec::new();
        let mut kept = Vec::new();
        for call in f.tree.calls_in(lo, hi) {
            if call.kind == CallKind::Macro {
                continue;
            }
            if call.kind == CallKind::Method && call.name == "wait" {
                waits += 1;
                continue;
            }
            if call.kind == CallKind::Method && call.name == "lock" {
                if let Some(recv) = field_receiver(&f.tree, call.tok) {
                    let hold = hold_range(&f.tree, call.tok, lo, hi);
                    direct.push(Acquisition {
                        class: format!("{}/{recv}", f.krate),
                        tok: call.tok,
                        line: call.line,
                        hold,
                    });
                    continue; // not a call edge
                }
                // `self.lock()` / bare `lock()`: a helper call — keep it
                // as a call site so the fixpoint pulls in the helper's
                // own acquisitions.
            }
            kept.push((call.name, call.tok, call.line));
        }
        acqs.push(direct);
        calls.push(kept);
    }

    // Transitive acquisition sets: star[n] = classes fn n may acquire,
    // directly or through any call chain.
    let mut star: Vec<BTreeSet<String>> =
        acqs.iter().map(|a| a.iter().map(|q| q.class.clone()).collect()).collect();
    loop {
        let mut changed = false;
        for n in 0..star.len() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for (name, _, _) in &calls[n] {
                for &callee in graph.named(name) {
                    if callee != n {
                        add.extend(star[callee].iter().cloned());
                    }
                }
            }
            for c in add {
                changed |= star[n].insert(c);
            }
        }
        if !changed {
            break;
        }
    }

    // Order edges: for each held guard, everything acquired inside its
    // hold range — direct nested acquisitions and call-mediated ones.
    let mut classes: BTreeSet<String> = BTreeSet::new();
    let mut edges: Vec<Edge> = Vec::new();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut push = |edges: &mut Vec<Edge>, e: Edge| {
        if seen.insert((e.from.clone(), e.to.clone())) {
            edges.push(e);
        }
    };
    for (n, node) in graph.nodes.iter().enumerate() {
        let f = &ws.files[node.file];
        for a in &acqs[n] {
            classes.insert(a.class.clone());
            for b in &acqs[n] {
                if b.tok > a.tok && b.tok <= a.hold.1 {
                    push(
                        &mut edges,
                        Edge {
                            from: a.class.clone(),
                            to: b.class.clone(),
                            file: f.rel.clone(),
                            line: b.line,
                            via: None,
                        },
                    );
                }
            }
            for (name, tok, line) in &calls[n] {
                if *tok <= a.tok || *tok > a.hold.1 {
                    continue;
                }
                let mut inner: BTreeSet<String> = BTreeSet::new();
                for &callee in graph.named(name) {
                    if callee != n {
                        inner.extend(star[callee].iter().cloned());
                    }
                }
                for to in inner {
                    push(
                        &mut edges,
                        Edge {
                            from: a.class.clone(),
                            to,
                            file: f.rel.clone(),
                            line: *line,
                            via: Some(name.clone()),
                        },
                    );
                }
            }
        }
    }
    for e in &edges {
        classes.insert(e.to.clone());
    }

    let cycles = find_cycles(&classes, &edges);
    LocksReport { classes, edges, waits, cycles }
}

/// The field receiver of a `.lock()` method call at `name_tok`, when
/// there is one: `self.state.lock()` -> `state`, `ctl.lock()` -> `ctl`,
/// `self.inner().lock()` -> `inner`. `self.lock()` and bare forms
/// return `None` (helper call, not a direct acquisition).
fn field_receiver(tree: &Tree, name_tok: usize) -> Option<String> {
    let r = name_tok.checked_sub(2)?;
    if !tree.is_punct(name_tok - 1, ".") {
        return None;
    }
    match tree.toks[r].kind {
        Kind::Ident if tree.is_ident(r, "self") => None,
        Kind::Ident => Some(tree.text(r).to_string()),
        Kind::Punct if tree.text(r) == ")" => {
            // Method-call receiver: take the method's own name.
            let open = tree.match_of[r];
            if open != NO_MATCH && open >= 1 && tree.toks[open - 1].kind == Kind::Ident {
                Some(tree.text(open - 1).to_string())
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The token range over which the guard produced at `call_tok` is held.
fn hold_range(tree: &Tree, call_tok: usize, body_lo: usize, body_hi: usize) -> (usize, usize) {
    let start = stmt_start(tree, call_tok, body_lo);
    let end = if tree.is_ident(start, "let") {
        block_end(tree, call_tok, body_hi)
    } else {
        stmt_end(tree, call_tok, body_hi)
    };
    (call_tok, end)
}

/// Walks backward from `from` to the start of its statement, jumping
/// over closed delimiter groups.
fn stmt_start(tree: &Tree, from: usize, body_lo: usize) -> usize {
    let mut j = from;
    while j > body_lo {
        let p = j - 1;
        if tree.toks[p].kind == Kind::Punct {
            match tree.text(p) {
                ")" | "]" | "}" => {
                    let m = tree.match_of[p];
                    if m != NO_MATCH && m < p {
                        j = m;
                        continue;
                    }
                    return j;
                }
                ";" | "{" | "(" | "[" => return j,
                _ => {}
            }
        }
        j = p;
    }
    j
}

/// Walks forward from `from` to the end of its statement (the next `;`
/// at this nesting level, or the enclosing block's `}`).
fn stmt_end(tree: &Tree, from: usize, body_hi: usize) -> usize {
    let mut j = from;
    while j <= body_hi {
        if tree.toks[j].kind == Kind::Punct {
            match tree.text(j) {
                "(" | "[" | "{" => {
                    let m = tree.match_of[j];
                    if m != NO_MATCH && m > j {
                        j = m;
                    }
                }
                ";" | "}" => return j,
                _ => {}
            }
        }
        j += 1;
    }
    body_hi
}

/// Walks forward from `from` to the `}` closing the enclosing block.
fn block_end(tree: &Tree, from: usize, body_hi: usize) -> usize {
    let mut j = from;
    while j <= body_hi {
        if tree.toks[j].kind == Kind::Punct {
            match tree.text(j) {
                "(" | "[" | "{" => {
                    let m = tree.match_of[j];
                    if m != NO_MATCH && m > j {
                        j = m;
                    }
                }
                "}" => return j,
                _ => {}
            }
        }
        j += 1;
    }
    body_hi
}

/// Finds cycles in the class digraph by depth-first search. Each cycle
/// is reported once as the class path along its back edge.
fn find_cycles(classes: &BTreeSet<String>, edges: &[Edge]) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str()).or_default().push(e.to.as_str());
    }
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut done: BTreeSet<&str> = BTreeSet::new();
    for start in classes {
        let mut path: Vec<&str> = Vec::new();
        let mut on_path: BTreeSet<&str> = BTreeSet::new();
        dfs(start.as_str(), &adj, &mut path, &mut on_path, &mut done, &mut cycles);
    }
    cycles.sort();
    cycles.dedup();
    cycles
}

fn dfs<'a>(
    v: &'a str,
    adj: &BTreeMap<&str, Vec<&'a str>>,
    path: &mut Vec<&'a str>,
    on_path: &mut BTreeSet<&'a str>,
    done: &mut BTreeSet<&'a str>,
    cycles: &mut Vec<Vec<String>>,
) {
    if done.contains(v) {
        return;
    }
    path.push(v);
    on_path.insert(v);
    for &w in adj.get(v).map(Vec::as_slice).unwrap_or(&[]) {
        if on_path.contains(w) {
            // Back edge: the cycle is the path suffix from w, rotated to
            // start at its lexicographically smallest class so duplicate
            // discoveries dedup.
            let pos = path.iter().position(|&x| x == w).unwrap_or(0);
            let mut cycle: Vec<String> = path[pos..].iter().map(|s| s.to_string()).collect();
            let min = cycle
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.cmp(b))
                .map(|(i, _)| i)
                .unwrap_or(0);
            cycle.rotate_left(min);
            cycles.push(cycle);
        } else {
            dfs(w, adj, path, on_path, done, cycles);
        }
    }
    on_path.remove(v);
    path.pop();
    done.insert(v);
}

#[cfg(test)]
mod tests {
    use super::super::Workspace;
    use super::*;

    /// Consistent A-then-B ordering across two fns: edges, no cycle.
    #[test]
    fn consistent_order_has_no_cycle() {
        let w = Workspace::from_sources(&[(
            "crates/model/src/x.rs",
            "impl S {\n\
                 fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
                 fn g(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
             }\n",
        )]);
        let r = run(&w);
        assert_eq!(r.edges.len(), 1, "{:?}", r.edges);
        assert_eq!(r.edges[0].from, "model/alpha");
        assert_eq!(r.edges[0].to, "model/beta");
        assert!(r.cycles.is_empty(), "{:?}", r.cycles);
    }

    /// Teeth: a seeded inversion (A->B in one fn, B->A in another) is a
    /// cycle.
    #[test]
    fn seeded_inversion_is_a_cycle() {
        let w = Workspace::from_sources(&[(
            "crates/model/src/x.rs",
            "impl S {\n\
                 fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
                 fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }\n\
             }\n",
        )]);
        let r = run(&w);
        assert_eq!(r.cycles.len(), 1, "{:?}", r.cycles);
        assert_eq!(r.cycles[0], ["model/alpha", "model/beta"]);
    }

    /// Teeth: a call-mediated inversion is found through the
    /// acquisition-set fixpoint, across crates.
    #[test]
    fn call_mediated_inversion_is_a_cycle() {
        let w = Workspace::from_sources(&[
            (
                "crates/sim/src/x.rs",
                "impl P {\n\
                     fn publish(&self) { let s = self.slot.lock(); self.deep_notify(); }\n\
                     fn deep_notify(&self) { notify_all(); }\n\
                 }\n\
                 pub fn grab_slot() { let s = SLOTS.slot.lock(); }\n",
            ),
            (
                "crates/model/src/y.rs",
                "fn notify_all() { let st = GLOBAL.state.lock(); }\n\
                 fn drain() { let st = GLOBAL.state.lock(); grab_slot(); }\n",
            ),
        ]);
        let r = run(&w);
        assert!(
            r.cycles
                .iter()
                .any(|c| c.contains(&"sim/slot".to_string())
                    && c.contains(&"model/state".to_string())),
            "{:?}",
            r.cycles
        );
        let via: Vec<_> = r.edges.iter().filter(|e| e.via.is_some()).collect();
        assert!(!via.is_empty(), "call-mediated edge expected: {:?}", r.edges);
    }

    /// A temporary guard dies at its statement: no edge to the next
    /// statement's acquisition.
    #[test]
    fn temporary_guard_does_not_span_statements() {
        let w = Workspace::from_sources(&[(
            "crates/sim/src/x.rs",
            "impl S {\n\
                 fn f(&self) {\n\
                     self.alpha.lock().unwrap().push(1);\n\
                     self.beta.lock().unwrap().push(2);\n\
                 }\n\
             }\n",
        )]);
        let r = run(&w);
        assert!(r.edges.is_empty(), "{:?}", r.edges);
        assert_eq!(r.classes.len(), 2);
    }

    /// A let-bound guard holds to the end of its block and orders a
    /// later acquisition.
    #[test]
    fn let_bound_guard_spans_its_block() {
        let w = Workspace::from_sources(&[(
            "crates/sim/src/x.rs",
            "impl S {\n\
                 fn f(&self) {\n\
                     let g = self.alpha.lock();\n\
                     self.beta.lock().unwrap().push(2);\n\
                 }\n\
             }\n",
        )]);
        let r = run(&w);
        assert_eq!(r.edges.len(), 1, "{:?}", r.edges);
        assert_eq!((r.edges[0].from.as_str(), r.edges[0].to.as_str()), ("sim/alpha", "sim/beta"));
    }

    /// `.wait()` is not an acquisition and makes no edges — the sched
    /// pattern `let st = self.state.lock(); self.cv.wait(st)` is clean.
    #[test]
    fn condvar_wait_makes_no_edges() {
        let w = Workspace::from_sources(&[(
            "crates/model/src/x.rs",
            "impl S {\n\
                 fn park(&self) { let st = self.state.lock(); let st = self.cv.wait(st); }\n\
             }\n",
        )]);
        let r = run(&w);
        assert!(r.edges.is_empty(), "{:?}", r.edges);
        assert_eq!(r.waits, 1);
        assert!(r.cycles.is_empty());
    }

    /// The KeyedOnce pattern: `self.lock()` resolves through the call
    /// graph to the helper's acquisition, creating a mediated edge.
    #[test]
    fn self_lock_helper_resolves_through_the_call_graph() {
        let w = Workspace::from_sources(&[(
            "crates/model/src/x.rs",
            "impl Cache {\n\
                 fn lock(&self) { let m = self.map.lock(); }\n\
                 fn busy(&self) { let g = self.gate.lock(); self.lock(); }\n\
             }\n",
        )]);
        let r = run(&w);
        assert_eq!(r.edges.len(), 1, "{:?}", r.edges);
        assert_eq!(r.edges[0].from, "model/gate");
        assert_eq!(r.edges[0].to, "model/map");
        assert_eq!(r.edges[0].via.as_deref(), Some("lock"));
    }

    /// A double acquisition of the same class under itself is a
    /// self-cycle (std mutexes are not re-entrant).
    #[test]
    fn reentrant_acquisition_is_a_self_cycle() {
        let w = Workspace::from_sources(&[(
            "crates/model/src/x.rs",
            "impl S { fn f(&self) { let a = self.alpha.lock(); let b = self.alpha.lock(); } }\n",
        )]);
        let r = run(&w);
        assert_eq!(r.cycles, [["model/alpha"]], "{:?}", r.cycles);
    }
}
