//! Pass 2: cast/unit safety.
//!
//! The address (`Addr`) and cycle newtypes exist so raw `u64`s never
//! carry unit meaning around the workspace. Two constructs erode that
//! boundary and are flagged outside the annotated boundary files
//! (`crates/common/src/addr.rs`, `crates/common/src/cycle.rs`, where
//! the newtypes themselves live):
//!
//! * **Truncating casts** (kind `trunc`): an `as` cast to a narrower
//!   integer type (`usize`, `u32`, …, `i8`) applied in address/cycle
//!   context — the few preceding tokens mention the unit vocabulary
//!   (`addr`, `pc`, `cycle`, `block`, …) or a `.raw()` extraction.
//!   Silent truncation of a 64-bit address is exactly the bug class the
//!   newtypes were introduced to kill.
//! * **Raw-unit arithmetic** (kind `raw`): a `.raw()` call whose result
//!   immediately feeds an arithmetic operator or another `as` cast —
//!   unit-typed math should happen on the newtype (which checks
//!   alignment and wrap), not on the escaped integer.
//!
//! A third kind runs in every crate with no file exempt, the newtypes'
//! own helpers included:
//!
//! * **Address arithmetic** (kind `addr-arith`): a line that mentions an
//!   address (an identifier containing `addr`, a standalone `pc`, or a
//!   `.raw()` accessor) and does `wrapping_add`/`wrapping_sub`, or an
//!   `as u64` cast next to a binary `+`/`-`. Callers go through
//!   `Addr::offset`/`Addr::delta`, so overflow semantics live in one
//!   place; those helpers are baseline entries.
//!
//! Findings are grouped per (file, fn, kind) like the panic pass and
//! gated against the same committed baseline; a justified boundary
//! (e.g. an arena index derived from a set-mapped PC) earns a reasoned
//! entry, an accidental one earns a fix.

use super::tokentree::{CallKind, Tree, NO_MATCH};
use super::{Finding, Sites, SourceFile, Workspace};
use crate::lexer::Kind;
use std::collections::BTreeMap;

/// The crates whose code is checked.
pub const CAST_CRATES: &[&str] = &["common", "core", "mem", "sim"];

/// Files allowed to handle raw units: the newtype definitions.
pub const BOUNDARY_FILES: &[&str] = &["crates/common/src/addr.rs", "crates/common/src/cycle.rs"];

/// Narrower-than-`u64` integer targets whose `as` casts can truncate.
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "usize", "i8", "i16", "i32", "isize"];

/// Identifier vocabulary marking address/cycle context.
const UNIT_VOCAB: &[&str] =
    &["addr", "address", "vaddr", "paddr", "pc", "cycle", "cycles", "block", "line_addr", "raw"];

/// How many significant tokens before an `as` to scan for vocabulary.
const LOOKBACK: usize = 6;

/// What the pass computed.
pub struct CastsReport {
    /// Functions scanned.
    pub scanned: usize,
    /// One finding per (file, fn, kind), source order.
    pub findings: Vec<Finding>,
}

/// Runs the pass over the workspace.
pub fn run(ws: &Workspace) -> CastsReport {
    let mut sites = Sites::default();
    let mut scanned = 0usize;
    for f in &ws.files {
        addr_arith(f, &mut sites);
        if !CAST_CRATES.contains(&f.krate.as_str()) || BOUNDARY_FILES.contains(&f.rel.as_str()) {
            continue;
        }
        for item in f.tree.fns.iter().filter(|item| !item.in_test) {
            scanned += 1;
            let (lo, hi) = item.body;
            for i in trunc_sites(&f.tree, lo, hi) {
                sites.add(&f.rel, &item.qual, "trunc", f.tree.toks[i].line);
            }
            for i in raw_arith_sites(&f.tree, lo, hi) {
                sites.add(&f.rel, &item.qual, "raw", f.tree.toks[i].line);
            }
        }
    }
    CastsReport { scanned, findings: sites.group("casts") }
}

/// Per-line evidence for kind `addr-arith`.
#[derive(Default)]
struct AddrLine {
    /// The last `wrapping_*` or `as u64` token, which places the site
    /// in a fn.
    tok: usize,
    /// An identifier containing `addr`, a standalone `pc`, or `.raw()`.
    mentions: bool,
    /// A `wrapping_add(`/`wrapping_sub(` call.
    wrapping: bool,
    /// An `as u64` cast.
    cast: bool,
    /// A binary `+` or `-` (the previous token ends a value).
    arith: bool,
}

/// Identifiers after which a `+`/`-` is a unary sign, not arithmetic.
const UNARY_CONTEXT: [&str; 8] =
    ["return", "if", "else", "match", "in", "break", "continue", "while"];

/// Kind `addr-arith`, line by line over the non-test tokens of `f`.
fn addr_arith(f: &SourceFile, sites: &mut Sites) {
    let tree = &f.tree;
    let mut lines: BTreeMap<usize, AddrLine> = BTreeMap::new();
    for (i, t) in tree.toks.iter().enumerate().filter(|(_, t)| !t.in_test) {
        let st = lines.entry(t.line).or_default();
        let called = i + 1 < tree.toks.len() && tree.is_punct(i + 1, "(");
        match t.kind {
            Kind::Ident => {
                let name = tree.text(i);
                st.mentions |= name.to_ascii_lowercase().contains("addr")
                    || name.eq_ignore_ascii_case("pc")
                    || (called && name == "raw" && i >= 1 && tree.is_punct(i - 1, "."));
                let wrapping = called && matches!(name, "wrapping_add" | "wrapping_sub");
                let cast = name == "as" && i + 1 < tree.toks.len() && tree.is_ident(i + 1, "u64");
                if wrapping || cast {
                    st.tok = i;
                }
                st.wrapping |= wrapping;
                st.cast |= cast;
            }
            Kind::Punct if matches!(tree.text(i), "+" | "-") && i >= 1 => {
                st.arith |= match tree.toks[i - 1].kind {
                    Kind::Ident => !UNARY_CONTEXT.contains(&tree.text(i - 1)),
                    Kind::Number => true,
                    Kind::Punct => matches!(tree.text(i - 1), ")" | "]" | "?"),
                    _ => false,
                };
            }
            _ => {}
        }
    }
    for st in lines.values() {
        if st.mentions && (st.wrapping || (st.cast && st.arith)) {
            sites.add_tok(f, st.tok, "addr-arith");
        }
    }
}

/// Token indices of `as` keywords casting unit-context values to a
/// narrower integer type within `[lo, hi]`.
fn trunc_sites(tree: &Tree, lo: usize, hi: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for i in tree.span(lo, hi) {
        if !tree.is_ident(i, "as") {
            continue;
        }
        let Some(next) = tree.toks.get(i + 1) else { continue };
        if next.kind != Kind::Ident || !NARROW_INTS.contains(&tree.text(i + 1)) {
            continue;
        }
        let from = i.saturating_sub(LOOKBACK).max(lo);
        let in_unit_context = (from..i).any(|j| {
            tree.toks[j].kind == Kind::Ident
                && UNIT_VOCAB.contains(&tree.text(j).to_ascii_lowercase().as_str())
        });
        if in_unit_context {
            out.push(i);
        }
    }
    out
}

/// Token indices of `.raw()` calls whose result immediately feeds
/// arithmetic or an `as` cast within `[lo, hi]`.
fn raw_arith_sites(tree: &Tree, lo: usize, hi: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for call in tree.calls_in(lo, hi) {
        if call.kind != CallKind::Method || call.name != "raw" {
            continue;
        }
        // `.raw ( )` — find the close paren, then look at what follows.
        let open = call.tok + 1;
        if open >= tree.toks.len() || !tree.is_punct(open, "(") {
            continue;
        }
        let close = tree.match_of[open];
        if close == NO_MATCH {
            continue;
        }
        let Some(after) = tree.toks.get(close + 1) else { continue };
        let feeds_arith = match after.kind {
            Kind::Punct => {
                matches!(tree.text(close + 1), "+" | "-" | "*" | "/" | "%" | "<<" | ">>")
            }
            Kind::Ident => tree.text(close + 1) == "as",
            _ => false,
        };
        // Also catch the operand position: `x + a.raw()`.
        let before_recv = receiver_start(tree, call.tok).and_then(|s| s.checked_sub(1));
        let preceded_by_arith = before_recv.is_some_and(|p| {
            tree.toks[p].kind == Kind::Punct
                && matches!(tree.text(p), "+" | "-" | "*" | "/" | "%" | "<<" | ">>")
        });
        if feeds_arith || preceded_by_arith {
            out.push(call.tok);
        }
    }
    out
}

/// The first token of the receiver chain of the method call at
/// `name_tok`: walks `a.b.c` / `f(x).c` chains backward.
fn receiver_start(tree: &Tree, name_tok: usize) -> Option<usize> {
    let mut j = name_tok.checked_sub(1)?; // the `.`
    if !tree.is_punct(j, ".") {
        return None;
    }
    loop {
        let p = j.checked_sub(1)?;
        match tree.toks[p].kind {
            Kind::Ident | Kind::Number => {
                j = p;
                let Some(pp) = p.checked_sub(1) else { return Some(j) };
                if tree.is_punct(pp, ".") {
                    j = pp;
                    continue;
                }
                return Some(j);
            }
            Kind::Punct if matches!(tree.text(p), ")" | "]") => {
                let m = tree.match_of[p];
                if m == NO_MATCH {
                    return Some(p);
                }
                j = m;
                let Some(pp) = m.checked_sub(1) else { return Some(j) };
                if tree.toks[pp].kind == Kind::Ident {
                    j = pp;
                    let Some(ppp) = pp.checked_sub(1) else { return Some(j) };
                    if tree.is_punct(ppp, ".") {
                        j = ppp;
                        continue;
                    }
                }
                return Some(j);
            }
            _ => return Some(j),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::Workspace;
    use super::*;

    fn kinds_and_lines(w: &Workspace) -> Vec<(String, Vec<usize>)> {
        run(w).findings.into_iter().map(|f| (f.id, f.lines)).collect()
    }

    /// Teeth: the stride-table pattern `(pc.raw() >> 2) as usize` is
    /// flagged as both a raw-arith site and a truncating cast.
    #[test]
    fn stride_set_mapping_is_flagged() {
        let w = Workspace::from_sources(&[(
            "crates/core/src/predictor/x.rs",
            "impl T {\n\
                 fn set_of(&self, pc: Addr) -> usize {\n\
                     (pc.raw() >> 2) as usize & self.mask\n\
                 }\n\
             }\n",
        )]);
        let got = kinds_and_lines(&w);
        let ids: Vec<&str> = got.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "casts:crates/core/src/predictor/x.rs:T::set_of:raw",
                "casts:crates/core/src/predictor/x.rs:T::set_of:trunc",
            ],
            "{got:?}"
        );
    }

    /// A widening cast (`u32 as u64`) and a unit-free narrowing cast
    /// (`len as u32`) are both clean.
    #[test]
    fn widening_and_unit_free_casts_are_clean() {
        let w = Workspace::from_sources(&[(
            "crates/mem/src/x.rs",
            "fn f(n: u32, len: usize) -> u64 {\n\
                 let wide = n as u64;\n\
                 let small = len as u32;\n\
                 wide + small as u64\n\
             }\n",
        )]);
        assert!(kinds_and_lines(&w).is_empty(), "{:?}", run(&w).findings);
    }

    /// `.raw()` used for display or comparison (no arithmetic) is not
    /// flagged — only escaped-unit *math* is.
    #[test]
    fn raw_without_arithmetic_is_clean() {
        let w = Workspace::from_sources(&[(
            "crates/sim/src/x.rs",
            "fn f(a: Addr, b: Addr) -> bool {\n\
                 log(a.raw());\n\
                 a.raw() == b.raw()\n\
             }\n\
             fn log(_: u64) {}\n",
        )]);
        assert!(kinds_and_lines(&w).is_empty(), "{:?}", run(&w).findings);
    }

    /// Operand position is caught too: `base + off.raw()`.
    #[test]
    fn raw_as_right_operand_is_flagged() {
        let w = Workspace::from_sources(&[(
            "crates/sim/src/x.rs",
            "fn f(base: u64, off: Addr) -> u64 { base + off.raw() }\n",
        )]);
        let got = kinds_and_lines(&w);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].0, "casts:crates/sim/src/x.rs:f:raw");
    }

    /// The boundary files themselves are exempt: the newtype may
    /// manipulate its own representation.
    #[test]
    fn boundary_files_are_exempt() {
        let w = Workspace::from_sources(&[(
            "crates/common/src/addr.rs",
            "impl Addr {\n\
                 fn block_index(self) -> usize { (self.raw() >> 6) as usize }\n\
             }\n",
        )]);
        assert!(kinds_and_lines(&w).is_empty(), "{:?}", run(&w).findings);
    }

    /// Crates outside the cast universe (xtask-adjacent tooling) are
    /// not scanned.
    #[test]
    fn out_of_scope_crates_are_not_scanned() {
        let w = Workspace::from_sources(&[(
            "crates/bench/src/x.rs",
            "fn f(pc: u64) -> usize { pc as usize }\n",
        )]);
        let r = run(&w);
        assert_eq!(r.scanned, 0);
        assert!(r.findings.is_empty());
    }

    /// Kind `addr-arith` runs in every crate, with no file exempt: the
    /// `Addr` helpers themselves are baseline entries.
    #[test]
    fn addr_arith_fires_on_wrapping_and_cast_sums_in_every_crate() {
        let w = Workspace::from_sources(&[
            (
                "crates/common/src/addr.rs",
                "impl Addr {\n    fn offset(self, d: i64) -> Addr {\n        \
                 Addr(self.0.wrapping_add(d as u64))\n    }\n}\n",
            ),
            (
                "crates/core/src/x.rs",
                "fn f(base_addr: u64, delta: i64) -> u64 {\n    \
                                      base_addr + delta as u64 + 4\n}\n",
            ),
            (
                "crates/workloads/src/serial.rs",
                "fn f(pc: u64, prev_pc: u64) -> u64 {\n    \
                                                pc.wrapping_sub(prev_pc)\n}\n",
            ),
        ]);
        assert_eq!(
            kinds_and_lines(&w),
            [
                ("casts:crates/common/src/addr.rs:Addr::offset:addr-arith".to_string(), vec![3]),
                ("casts:crates/core/src/x.rs:f:addr-arith".to_string(), vec![2]),
                ("casts:crates/workloads/src/serial.rs:f:addr-arith".to_string(), vec![2]),
            ]
        );
    }

    #[test]
    fn addr_arith_ignores_non_address_math_comments_strings_tests_and_unary_signs() {
        let w = Workspace::from_sources(&[
            ("crates/common/src/rng.rs", "fn f(z: u64) -> u64 { z.wrapping_add(0x9e37) }\n"),
            (
                "crates/cpu/src/a.rs",
                "// pc.wrapping_add(4) would be wrong\n/* pc.wrapping_add(4) */\n\
                 const S: &str = \"pc.wrapping_add(4)\";\n",
            ),
            (
                "crates/cpu/src/b.rs",
                "fn f(addr_delta: i64) -> i64 { return -addr_delta as u64 as i64; }\n",
            ),
            (
                "crates/cpu/src/c.rs",
                "#[cfg(test)]\nmod tests {\n    fn t(pc: u64) { pc.wrapping_add(4); }\n}\n",
            ),
        ]);
        assert!(kinds_and_lines(&w).is_empty(), "{:?}", run(&w).findings);
    }
}
