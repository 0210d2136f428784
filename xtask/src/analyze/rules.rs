//! Pass 4: source rules.
//!
//! Five checks on the token tree, which already drops comments and
//! string bodies and marks test code, so none of them fires on prose, a
//! string literal or a test:
//!
//! * `hashmap-report` — `HashMap` in a `stats.rs`/`report.rs` file feeds
//!   figure output in nondeterministic iteration order; use `BTreeMap`
//!   or sort before emitting.
//! * `println` — `println!`/`print!`/`eprintln!`/`eprint!` in library
//!   code (`crates/*/src`, outside `src/bin`). Human-readable output
//!   belongs in the binaries or the report/obs layer, so figure scripts
//!   never scrape stray prints out of stdout.
//! * `determinism` — `Instant::now`, `SystemTime` or `UNIX_EPOCH` in a
//!   simulation-result crate: host wall-clock must never reach a result
//!   artifact, which has to be byte-identical across `--threads` counts.
//! * `sync-shims` — a `std::thread` path, or a `std::sync` path naming a
//!   primitive the `psb_model` shims replace, in a model-checked crate,
//!   grouped imports (`use std::{sync::Mutex, thread}`) included. An
//!   import of `std::sync` itself or a glob over it fires too, since a
//!   later `sync::Mutex` or bare `Mutex` no longer starts at `std`.
//!   Concurrency there goes through the shims so `cargo xtask model`
//!   explores the code production runs.
//! * `missing-docs` — a `pub` item with neither a doc comment nor a
//!   `#[doc …]` attribute, in a crate whose root declares
//!   `#![warn(missing_docs)]`. `pub use` and `pub(crate)` are exempt.
//!   rustc's own lint skips a `pub fn` in a private module; this does not.
//!
//! Each site is a finding under its enclosing fn (the empty name at item
//! level), gated against `PANICS.toml` like every other pass.

use super::tokentree::{Tree, NO_MATCH};
use super::{Finding, Sites, Workspace};
use crate::lexer::Kind;
use std::collections::BTreeSet;

/// Crates whose library code feeds simulation results.
pub const DETERMINISTIC_CRATES: &[&str] = &["sim", "core", "mem", "cpu", "workloads"];

/// Crates whose concurrency runs under the model checker.
pub const MODEL_CHECKED_CRATES: &[&str] = &["sim", "workloads"];

/// `std::sync` items that have a `psb_model` shim, matched within a path
/// segment (so `AtomicU64` counts). `Arc` is exempt: it is pure
/// reference counting with no blocking or ordering decisions to explore.
const SHIMMED_SYNC: [&str; 10] = [
    "Mutex", "RwLock", "OnceLock", "Once", "Condvar", "Barrier", "mpsc", "atomic", "Atomic",
    "LazyLock",
];

/// The item keywords after `pub` that need docs.
const DOC_ITEMS: [&str; 9] =
    ["fn", "struct", "enum", "trait", "type", "const", "static", "mod", "unsafe"];

/// Console-output macros.
const PRINTS: [&str; 4] = ["println", "print", "eprintln", "eprint"];

/// Runs the pass over the workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let documented = documented_crates(ws);
    let mut sites = Sites::default();
    for f in &ws.files {
        let tree = &f.tree;
        let name = f.rel.rsplit('/').next().unwrap_or("");
        let maps = name == "stats.rs" || name == "report.rs";
        let library = f.rel.starts_with("crates/") && !f.rel.contains("/src/bin/");
        let clocks = DETERMINISTIC_CRATES.contains(&f.krate.as_str());
        let shims = MODEL_CHECKED_CRATES.contains(&f.krate.as_str());
        let docs = documented.contains(src_dir(&f.rel));
        let len = tree.toks.len();
        for i in (0..len).filter(|&i| !tree.toks[i].in_test && tree.toks[i].kind == Kind::Ident) {
            let t = tree.text(i);
            let next = |k: usize, p: &str| i + k < len && tree.text(i + k) == p;
            if maps && t.contains("HashMap") {
                sites.add_tok(f, i, "hashmap-report");
            }
            let opens = i + 2 < len && matches!(tree.text(i + 2), "(" | "[" | "{");
            if library && PRINTS.contains(&t) && next(1, "!") && opens {
                sites.add_tok(f, i, "println");
            }
            let now = t == "Instant" && next(1, "::") && next(2, "now");
            if clocks && (now || t.contains("SystemTime") || t.contains("UNIX_EPOCH")) {
                sites.add_tok(f, i, "determinism");
            }
            if shims && t == "std" && next(1, "::") {
                let mut paths = Vec::new();
                leaf_paths(tree, i + 2, Vec::new(), &mut paths);
                for (segs, tok) in paths {
                    let raw = match segs.as_slice() {
                        ["thread", ..] | ["sync"] | ["sync", "self"] => true,
                        ["sync", rest @ ..] => {
                            rest.iter().any(|s| SHIMMED_SYNC.iter().any(|p| s.contains(p)))
                        }
                        _ => false,
                    };
                    if raw {
                        sites.add_tok(f, tok, "sync-shims");
                    }
                }
            }
            let item = i + 1 < len && DOC_ITEMS.contains(&tree.text(i + 1));
            if docs && t == "pub" && item && !has_docs(tree, i) {
                sites.add_tok(f, i, "missing-docs");
            }
        }
    }
    sites.group("rules")
}

/// Collects the leaf paths of the use tree or path whose first segment
/// is token `i`, each with the token of its last segment:
/// `{sync::Mutex, thread}` yields `sync::Mutex` and `thread`.
fn leaf_paths<'t>(
    tree: &'t Tree,
    mut i: usize,
    mut segs: Vec<&'t str>,
    out: &mut Vec<(Vec<&'t str>, usize)>,
) {
    let mut last = i;
    while i < tree.toks.len() {
        if tree.is_punct(i, "{") && tree.match_of[i] != NO_MATCH {
            let close = tree.match_of[i];
            let mut j = i + 1;
            while j < close {
                leaf_paths(tree, j, segs.clone(), out);
                while j < close && !tree.is_punct(j, ",") {
                    let m = tree.match_of[j];
                    j = if m != NO_MATCH && m > j { m + 1 } else { j + 1 };
                }
                j += 1;
            }
            return;
        }
        if tree.toks[i].kind != Kind::Ident {
            break;
        }
        segs.push(tree.text(i));
        last = i;
        if !(i + 1 < tree.toks.len() && tree.is_punct(i + 1, "::")) {
            break;
        }
        i += 2;
    }
    if !segs.is_empty() {
        out.push((segs, last));
    }
}

/// Whether the item whose `pub` is token `i` carries a doc comment or a
/// `#[doc …]` attribute, looking back over its outer attributes.
fn has_docs(tree: &Tree, mut i: usize) -> bool {
    loop {
        if tree.toks[i].doc {
            return true;
        }
        let Some(close) = i.checked_sub(1).filter(|&c| tree.is_punct(c, "]")) else {
            return false;
        };
        let open = tree.match_of[close];
        if open == NO_MATCH || open == 0 || !tree.is_punct(open - 1, "#") {
            return false;
        }
        if tree.is_ident(open + 1, "doc") {
            return true;
        }
        i = open - 1;
    }
}

/// The `src/` directory a file belongs to: `crates/x/src/`,
/// `xtask/src/` or `src/`.
fn src_dir(rel: &str) -> &str {
    match rel.find("/src/") {
        Some(k) if !rel.starts_with("src/") => &rel[..k + 5],
        _ => "src/",
    }
}

/// The `src/` directories of crates whose root (`lib.rs`, else
/// `main.rs`) declares `#![warn(missing_docs)]` or
/// `#![deny(missing_docs)]`.
fn documented_crates(ws: &Workspace) -> BTreeSet<&str> {
    let root_of = |dir: &str| {
        ["lib.rs", "main.rs"]
            .into_iter()
            .find_map(|n| ws.files.iter().find(|f| f.rel.strip_prefix(dir) == Some(n)))
    };
    let opts_in = |t: &Tree| {
        (0..t.toks.len().saturating_sub(5)).any(|i| {
            t.is_punct(i, "#")
                && t.is_punct(i + 1, "!")
                && t.is_punct(i + 2, "[")
                && (t.is_ident(i + 3, "warn") || t.is_ident(i + 3, "deny"))
                && t.is_punct(i + 4, "(")
                && t.is_ident(i + 5, "missing_docs")
        })
    };
    let dirs: BTreeSet<&str> = ws.files.iter().map(|f| src_dir(&f.rel)).collect();
    dirs.into_iter().filter(|d| root_of(d).is_some_and(|f| opts_in(&f.tree))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the pass over one fixture file, beside a crate root that
    /// opts `crates/common` into `missing-docs`; returns ids and lines.
    fn found(rel: &str, src: &str) -> Vec<(String, Vec<usize>)> {
        let lib = ("crates/common/src/lib.rs", "#![warn(missing_docs)]\n");
        run(&Workspace::from_sources(&[lib, (rel, src)]))
            .into_iter()
            .map(|f| (f.id, f.lines))
            .collect()
    }

    /// Asserts each `(file, source)` fixture yields exactly the findings
    /// `want`, written `fn:kind`, and none once it is test code.
    fn expect(cases: &[(&str, &str, &[&str])]) {
        for &(rel, src, want) in cases {
            let prefix = format!("rules:{rel}:");
            let got: Vec<String> =
                found(rel, src).into_iter().map(|(id, _)| id.replacen(&prefix, "", 1)).collect();
            assert_eq!(got, want, "{rel}: {src:?}");
            let test_mod = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
            assert!(found(rel, &test_mod).is_empty(), "{rel}: {test_mod:?}");
        }
    }

    #[test]
    fn hashmap_fires_only_in_stats_or_report_files() {
        let src = "use std::collections::HashMap;\n";
        expect(&[
            ("crates/sim/src/stats.rs", src, &[":hashmap-report"]),
            ("crates/obs/src/report.rs", src, &[":hashmap-report"]),
            ("crates/sim/src/memsys.rs", src, &[]),
            ("crates/sim/src/stats.rs", "// a HashMap\nconst S: &str = \"HashMap\";\n", &[]),
        ]);
    }

    #[test]
    fn println_fires_in_library_crate_code() {
        let got = found("crates/sim/src/memsys.rs", "pub fn noisy() {\n    println!(\"hi\");\n}\n");
        assert_eq!(got, [("rules:crates/sim/src/memsys.rs:noisy:println".to_string(), vec![2])]);
        expect(&[("crates/obs/src/x.rs", "fn f() { eprint!(\"x\") }\n", &["f:println"])]);
    }

    #[test]
    fn println_silent_in_binaries_comments_and_strings() {
        let src = "pub fn noisy() { println!(\"hi\"); eprint!(\"x\"); }\n";
        expect(&[
            ("src/bin/psbsim.rs", src, &[]),
            ("crates/sim/src/bin/tool.rs", src, &[]),
            ("xtask/src/main.rs", src, &[]),
            (
                "crates/sim/src/lib.rs",
                "//! println!(\"doc\");\nconst S: &str = \"print!(1)\";\n",
                &[],
            ),
        ]);
    }

    #[test]
    fn determinism_fires_on_wall_clock_in_result_crates() {
        expect(&[
            (
                "crates/sim/src/runner.rs",
                "fn f() { std::time::Instant::now(); }\n",
                &["f:determinism"],
            ),
            ("crates/core/src/x.rs", "fn g() { let t = SystemTime::now(); }\n", &["g:determinism"]),
        ]);
    }

    #[test]
    fn determinism_silent_outside_result_crates_and_in_comments() {
        let src = "fn f() { let start = std::time::Instant::now(); }\n";
        expect(&[
            ("crates/obs/src/trace.rs", src, &[]),
            ("src/bin/psbsweep.rs", src, &[]),
            ("crates/sim/src/x.rs", "// Instant::now()\nconst S: &str = \"SystemTime\";\n", &[]),
        ]);
    }

    #[test]
    fn sync_shims_fires_on_raw_std_primitives() {
        expect(&[
            ("crates/sim/src/pool.rs", "use std::sync::Mutex;\n", &[":sync-shims"]),
            ("crates/workloads/src/c.rs", "use std::sync::{Arc, OnceLock};\n", &[":sync-shims"]),
            ("crates/sim/src/x.rs", "fn f() { std::thread::spawn(|| {}); }\n", &["f:sync-shims"]),
        ]);
    }

    /// A glob or module import hides the primitive's name from the
    /// path rooted at `std`, so the import itself is the site.
    #[test]
    fn sync_shims_fires_on_glob_and_module_imports() {
        let module = "use std::sync;\nfn f(m: &sync::Mutex<u8>) {}\n";
        expect(&[
            ("crates/sim/src/pool.rs", "use std::sync::*;\n", &[":sync-shims"]),
            ("crates/sim/src/x.rs", module, &[":sync-shims"]),
            ("crates/workloads/src/c.rs", "use std::sync::{self, Arc};\n", &[":sync-shims"]),
        ]);
        let got = found("crates/sim/src/pool.rs", "use std::{\n    sync,\n    thread,\n};\n");
        assert_eq!(got, [("rules:crates/sim/src/pool.rs::sync-shims".to_string(), vec![2, 3])]);
    }

    /// A grouped import rooted at `std` names both modules only inside
    /// the braces; the text `std::sync` never appears.
    #[test]
    fn sync_shims_expands_grouped_std_imports() {
        let got =
            found("crates/sim/src/pool.rs", "use std::{\n    sync::Mutex,\n    thread,\n};\n");
        assert_eq!(got, [("rules:crates/sim/src/pool.rs::sync-shims".to_string(), vec![2, 3])]);
    }

    #[test]
    fn sync_shims_exempts_arc_shims_and_other_crates() {
        expect(&[
            (
                "crates/workloads/src/c.rs",
                "use std::sync::Arc;\nuse std::{fmt, sync::Arc as A};\n",
                &[],
            ),
            (
                "crates/sim/src/pool.rs",
                "use psb_model::sync::{mpsc, Mutex};\nuse psb_model::thread;\n",
                &[],
            ),
            ("crates/mem/src/x.rs", "use std::sync::Mutex;\n", &[]),
        ]);
    }

    #[test]
    fn missing_docs_fires_on_undocumented_pub_item() {
        expect(&[
            ("crates/common/src/x.rs", "pub fn frob() {}\n", &[":missing-docs"]),
            // `//!` documents the module, not the item.
            ("crates/common/src/x.rs", "//! Module docs.\npub struct Frob;\n", &[":missing-docs"]),
            (
                "crates/common/src/x.rs",
                "impl T {\n    /// Doc.\n    pub fn a() {}\n    pub const fn b() {}\n}\n",
                &[":missing-docs"],
            ),
        ]);
    }

    /// Doc comments above attributes count, and so does a `#[doc]`
    /// attribute — which the line-based walk once skipped as an
    /// ordinary attribute.
    #[test]
    fn missing_docs_accepts_doc_comments_and_doc_attributes() {
        expect(&[
            ("crates/common/src/x.rs", "/// Frobnicates.\n#[inline]\npub fn frob() {}\n", &[]),
            ("crates/common/src/x.rs", "#[doc = \"Frobnicates.\"]\npub fn frob() {}\n", &[]),
            (
                "crates/common/src/x.rs",
                "/** Frob. */\n#[derive(Clone)]\n#[inline]\npub struct Frob;\n",
                &[],
            ),
        ]);
    }

    #[test]
    fn missing_docs_exempts_reexports_restricted_visibility_and_other_crates() {
        expect(&[
            (
                "crates/common/src/x.rs",
                "pub use crate::foo::Bar;\npub(crate) fn helper() {}\n",
                &[],
            ),
            ("crates/common/src/x.rs", "struct S {\n    pub field: u32,\n}\n", &[]),
            ("crates/bench/src/x.rs", "pub fn f() {}\n", &[]),
        ]);
    }
}
