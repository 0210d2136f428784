//! `cargo xtask analyze` — token-tree semantic analysis over the whole
//! workspace, the repository's one static checker.
//!
//! Three passes, all built on the shared [`crate::lexer`] and the
//! [`tokentree`] layer (no rustc, no syn — xtask stays zero-dep and
//! offline):
//!
//! 1. [`panics`] — hot-path panic-freedom: an approximate call graph
//!    rooted at the prefetcher-engine and memory-system entry points,
//!    flagging every reachable `unwrap`/`expect`/`panic!`/indexing/
//!    division site, plus every `.unwrap()` and unjustified `.expect()`
//!    in the crates that model the machine.
//! 2. [`casts`] — cast/unit safety: truncating `as` casts and raw-unit
//!    arithmetic outside the `Addr`/cycle newtype boundary, and raw
//!    address arithmetic anywhere.
//! 3. [`rules`] — source rules: report determinism, console output,
//!    host clocks, the model-checker shims, locks outside `psb-model`
//!    and xtask, and public docs.
//!
//! Every finding is a `<pass>:<file>:<fn>:<kind>` group of sites (see
//! [`Sites::group`]) gated against one committed allow-list,
//! `PANICS.toml` (schema `psb-analyze-v1`, `[[allow]]` stanzas with
//! mandatory reasons — same discipline as `MUTANTS.toml`). New findings
//! fail the run with paste-ready stanzas, and so does a stale entry, so
//! no excuse outlives the code it excuses.
//!
//! `--report FILE` writes the same findings and verdict as a
//! `psb-analyze-v1` JSON report.

pub mod callgraph;
pub mod casts;
pub mod panics;
pub mod rules;
pub mod tokentree;

use crate::baseline::{self, BaselineFile};
use psb_obs::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tokentree::Tree;

/// The report/baseline schema identifier.
pub const SCHEMA: &str = "psb-analyze-v1";

/// Default baseline file name at the repo root.
pub const BASELINE_FILE: &str = "PANICS.toml";

/// One parsed workspace source file.
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    /// Short crate name (`crates/<name>/…`), `xtask`, or `root`.
    pub krate: String,
    /// The token tree.
    pub tree: Tree,
}

/// Every parsed source file of the workspace.
pub struct Workspace {
    /// Files in path order.
    pub files: Vec<SourceFile>,
}

/// One gateable finding: a (file, function, kind) group of sites.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Stable baseline ID: `<pass>:<file>:<qual>:<kind>`.
    pub id: String,
    /// Repo-relative file.
    pub file: String,
    /// Qualified function name (`Type::name` or bare name; empty for a
    /// site outside any fn).
    pub qual: String,
    /// Site kind within the pass (`unwrap`, `index`, `trunc`, …).
    pub kind: &'static str,
    /// 1-based lines of the individual sites, sorted, deduplicated.
    pub lines: Vec<usize>,
}

/// Finding sites keyed by (file, fn, kind) — the granularity of a
/// baseline entry, so line churn inside a function never invalidates
/// its justification — each with its lines.
#[derive(Default)]
pub struct Sites(BTreeMap<(String, String, &'static str), Vec<usize>>);

impl Sites {
    /// Records one site of `kind` at `line` in fn `qual` of `file`.
    pub fn add(&mut self, file: &str, qual: &str, kind: &'static str, line: usize) {
        self.0.entry((file.to_string(), qual.to_string(), kind)).or_default().push(line);
    }

    /// Records a site at token `tok` of `f`, under its innermost
    /// enclosing fn (the empty name outside every fn).
    pub fn add_tok(&mut self, f: &SourceFile, tok: usize, kind: &'static str) {
        self.add(&f.rel, f.tree.enclosing_fn(tok), kind, f.tree.toks[tok].line);
    }

    /// One `<pass>:<file>:<fn>:<kind>` finding per group, in source order.
    pub fn group(self, pass: &str) -> Vec<Finding> {
        let mut findings: Vec<Finding> = self
            .0
            .into_iter()
            .map(|((file, qual, kind), mut lines)| {
                lines.sort_unstable();
                lines.dedup();
                Finding { id: format!("{pass}:{file}:{qual}:{kind}"), file, qual, kind, lines }
            })
            .collect();
        // Stable, so ties keep the map's (fn, kind) order.
        findings.sort_by(|a, b| (&a.file, a.lines.first()).cmp(&(&b.file, b.lines.first())));
        findings
    }
}

impl Workspace {
    /// Builds a workspace from in-memory `(path, source)` pairs — the
    /// fixture entry point every pass test uses.
    #[cfg(test)]
    pub fn from_sources(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files
                .iter()
                .map(|(rel, source)| SourceFile {
                    rel: rel.to_string(),
                    krate: krate_of(rel),
                    tree: Tree::parse(source),
                })
                .collect(),
        }
    }

    /// Loads and parses every `src/**/*.rs` of every workspace crate.
    pub fn load(root: &Path) -> Workspace {
        let mut files = Vec::new();
        for crate_dir in crate::crate_dirs(root) {
            for file in crate::rust_files(&crate_dir.join("src")) {
                let Ok(source) = std::fs::read_to_string(&file) else {
                    continue;
                };
                let rel =
                    file.strip_prefix(root).unwrap_or(&file).to_string_lossy().replace('\\', "/");
                files.push(SourceFile { krate: krate_of(&rel), rel, tree: Tree::parse(&source) });
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Workspace { files }
    }
}

/// The short crate name of a repo-relative path.
fn krate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        (Some("xtask"), _) => "xtask".to_string(),
        _ => "root".to_string(),
    }
}

/// Which passes a run executes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Pass {
    /// Hot-path panic-freedom.
    Panics,
    /// Cast/unit safety.
    Casts,
    /// Source rules.
    Rules,
}

impl Pass {
    /// All passes, in run order.
    pub const ALL: [Pass; 3] = [Pass::Panics, Pass::Casts, Pass::Rules];

    /// The CLI / finding-ID name.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Panics => "panics",
            Pass::Casts => "casts",
            Pass::Rules => "rules",
        }
    }

    fn parse(s: &str) -> Option<Pass> {
        Pass::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// Everything one analysis run computed — separated from the CLI so the
/// gate logic is testable on fixture workspaces.
pub struct Outcome {
    /// Pass 1 results, when run.
    pub panics: Option<panics::PanicsReport>,
    /// Pass 2 results, when run.
    pub casts: Option<casts::CastsReport>,
    /// Pass 3 findings, when run.
    pub rules: Option<Vec<Finding>>,
    /// Findings not covered by the baseline (gate failures).
    pub new: Vec<Finding>,
    /// Findings covered by the baseline.
    pub baselined: usize,
    /// Baseline IDs (of executed passes) with no matching finding (gate
    /// failures: an excuse must not outlive the code it excuses).
    pub stale: Vec<String>,
}

impl Outcome {
    /// True when the gate passes: no new findings and no stale entries.
    pub fn ok(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }
}

/// Runs `passes` over `ws` and gates their findings against `baseline`.
pub fn evaluate(ws: &Workspace, passes: &[Pass], baseline: &BaselineFile) -> Outcome {
    let panics = passes.contains(&Pass::Panics).then(|| panics::run(ws));
    let casts = passes.contains(&Pass::Casts).then(|| casts::run(ws));
    let rules = passes.contains(&Pass::Rules).then(|| rules::run(ws));

    let findings: Vec<&Finding> = panics
        .iter()
        .flat_map(|p| p.findings.iter())
        .chain(casts.iter().flat_map(|c| c.findings.iter()))
        .chain(rules.iter().flatten())
        .collect();
    let ids: BTreeSet<&str> = findings.iter().map(|f| f.id.as_str()).collect();
    let mut new = Vec::new();
    let mut baselined = 0usize;
    for f in &findings {
        if baseline.entries.contains_key(&f.id) {
            baselined += 1;
        } else {
            new.push((*f).clone());
        }
    }
    // A baseline entry is stale only when the pass that owns it ran and
    // did not produce it — a casts-only run must not call panic entries
    // stale.
    let ran: Vec<&str> = passes.iter().map(|p| p.name()).collect();
    let stale: Vec<String> = baseline
        .entries
        .keys()
        .filter(|id| {
            ran.iter().any(|p| id.starts_with(&format!("{p}:"))) && !ids.contains(id.as_str())
        })
        .cloned()
        .collect();
    Outcome { panics, casts, rules, new, baselined, stale }
}

/// `cargo xtask analyze` entry point.
pub fn analyze(args: &[String]) -> ExitCode {
    let Some(opts) = Opts::parse(args) else {
        eprintln!(
            "usage: cargo xtask analyze [--pass panics|casts|rules] [--baseline FILE] \
             [--report FILE]"
        );
        return ExitCode::from(2);
    };
    let root = crate::repo_root();
    let baseline = match BaselineFile::load(&opts.baseline, SCHEMA, "allow") {
        Ok(b) => b,
        Err(e) => {
            eprintln!("xtask analyze: baseline: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ws = Workspace::load(&root);
    println!(
        "xtask analyze: {} file(s), passes: {}",
        ws.files.len(),
        opts.passes.iter().map(|p| p.name()).collect::<Vec<_>>().join(", ")
    );
    let out = evaluate(&ws, &opts.passes, &baseline);

    if let Some(p) = &out.panics {
        println!(
            "xtask analyze: panics: {} root(s), {} reachable fn(s), {} finding(s)",
            p.roots,
            p.reachable,
            p.findings.len()
        );
    }
    if let Some(c) = &out.casts {
        println!(
            "xtask analyze: casts: {} fn(s) scanned, {} finding(s)",
            c.scanned,
            c.findings.len()
        );
    }
    if let Some(r) = &out.rules {
        println!("xtask analyze: rules: {} finding(s)", r.len());
    }
    if out.baselined > 0 {
        println!("xtask analyze: {} finding(s) covered by the baseline", out.baselined);
    }
    for id in &out.stale {
        eprintln!("xtask analyze: stale baseline entry {id} (no such finding) — remove it");
    }
    if !out.new.is_empty() {
        eprintln!();
        eprintln!(
            "xtask analyze: {} new finding(s) — fix them or add justified entries to {}:",
            out.new.len(),
            opts.baseline.display()
        );
        eprintln!();
        for f in &out.new {
            let lines: Vec<String> = f.lines.iter().map(|l| l.to_string()).collect();
            eprintln!("# {} line(s) {}", f.file, lines.join(", "));
            eprintln!("{}", baseline::stanza("allow", &f.id, "TODO: why this cannot fire"));
        }
    }

    if let Some(path) = &opts.report {
        let json = report_json(&ws, &opts.passes, &out);
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("xtask analyze: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("xtask analyze: report written to {}", path.display());
    }

    if out.ok() {
        println!("xtask analyze: ok");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask analyze: FAIL");
        ExitCode::FAILURE
    }
}

struct Opts {
    passes: Vec<Pass>,
    baseline: PathBuf,
    report: Option<PathBuf>,
}

impl Opts {
    fn parse(args: &[String]) -> Option<Opts> {
        let mut passes = Vec::new();
        let mut baseline = None;
        let mut report = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--pass" => {
                    let p = Pass::parse(it.next()?)?;
                    if !passes.contains(&p) {
                        passes.push(p);
                    }
                }
                "--baseline" => baseline = Some(PathBuf::from(it.next()?)),
                "--report" => report = Some(PathBuf::from(it.next()?)),
                _ => return None,
            }
        }
        if passes.is_empty() {
            passes = Pass::ALL.to_vec();
        }
        Some(Opts {
            passes,
            baseline: baseline.unwrap_or_else(|| crate::repo_root().join(BASELINE_FILE)),
            report,
        })
    }
}

/// Builds the `psb-analyze-v1` report.
fn report_json(ws: &Workspace, passes: &[Pass], out: &Outcome) -> Json {
    let finding_json = |f: &Finding, baselined: bool| {
        Json::obj([
            ("id", Json::str(&*f.id)),
            ("file", Json::str(&*f.file)),
            ("fn", Json::str(&*f.qual)),
            ("kind", Json::str(f.kind)),
            ("lines", Json::arr(f.lines.iter().map(|&l| Json::u64(l as u64)))),
            ("baselined", Json::Bool(baselined)),
        ])
    };
    let is_new = |f: &Finding| out.new.iter().any(|n| n.id == f.id);
    let mut fields: Vec<(&str, Json)> = vec![
        ("schema", Json::str(SCHEMA)),
        ("passes", Json::arr(passes.iter().map(|p| Json::str(p.name())))),
        ("files", Json::u64(ws.files.len() as u64)),
    ];
    if let Some(p) = &out.panics {
        fields.push((
            "panics",
            Json::obj([
                ("roots", Json::u64(p.roots as u64)),
                ("reachable", Json::u64(p.reachable as u64)),
                ("findings", Json::arr(p.findings.iter().map(|f| finding_json(f, !is_new(f))))),
            ]),
        ));
    }
    if let Some(c) = &out.casts {
        fields.push((
            "casts",
            Json::obj([
                ("scanned", Json::u64(c.scanned as u64)),
                ("findings", Json::arr(c.findings.iter().map(|f| finding_json(f, !is_new(f))))),
            ]),
        ));
    }
    if let Some(r) = &out.rules {
        fields.push((
            "rules",
            Json::obj([("findings", Json::arr(r.iter().map(|f| finding_json(f, !is_new(f)))))]),
        ));
    }
    fields.push(("new", Json::u64(out.new.len() as u64)));
    fields.push(("baselined", Json::u64(out.baselined as u64)));
    fields.push(("stale", Json::arr(out.stale.iter().map(|s| Json::str(&**s)))));
    fields.push(("ok", Json::Bool(out.ok())));
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEEDED_PANIC: (&str, &str) = (
        "crates/core/src/x.rs",
        "impl E {\n    fn tick(&mut self) { step(self.v); }\n}\n\
         fn step(v: Option<u32>) -> u32 { v.unwrap() }\n",
    );

    fn base(entries: &[(&str, &str)]) -> BaselineFile {
        let mut text = format!("schema = \"{SCHEMA}\"\n");
        for (id, reason) in entries {
            text.push_str(&baseline::stanza("allow", id, reason));
        }
        BaselineFile::parse(&text, SCHEMA, "allow").unwrap()
    }

    /// Teeth: a seeded defect with an empty baseline fails the gate.
    #[test]
    fn seeded_defect_fails_the_gate() {
        let ws = Workspace::from_sources(&[SEEDED_PANIC]);
        let out = evaluate(&ws, &Pass::ALL, &BaselineFile::default());
        assert!(!out.ok());
        assert_eq!(out.new.len(), 1);
        assert_eq!(out.new[0].id, "panics:crates/core/src/x.rs:step:unwrap");
    }

    /// The same defect with a justified baseline entry passes, and the
    /// entry is not stale.
    #[test]
    fn baselined_finding_passes_the_gate() {
        let ws = Workspace::from_sources(&[SEEDED_PANIC]);
        let b = base(&[("panics:crates/core/src/x.rs:step:unwrap", "fixture invariant")]);
        let out = evaluate(&ws, &Pass::ALL, &b);
        assert!(out.ok(), "{:?}", out.new);
        assert_eq!(out.baselined, 1);
        assert!(out.stale.is_empty(), "{:?}", out.stale);
    }

    /// An entry with no matching finding is stale and fails the gate —
    /// but only when its pass actually ran.
    #[test]
    fn stale_entries_are_scoped_to_executed_passes() {
        let ws = Workspace::from_sources(&[("crates/core/src/x.rs", "fn quiet() {}\n")]);
        let b = base(&[("panics:crates/core/src/x.rs:gone:unwrap", "was fixed")]);
        let out = evaluate(&ws, &Pass::ALL, &b);
        assert_eq!(out.stale, ["panics:crates/core/src/x.rs:gone:unwrap"]);
        assert!(!out.ok(), "a stale entry fails the gate");
        let casts_only = evaluate(&ws, &[Pass::Casts], &b);
        assert!(casts_only.stale.is_empty(), "{:?}", casts_only.stale);
    }

    /// Teeth: a seeded truncating cast fails via the casts pass.
    #[test]
    fn seeded_cast_defect_fails_the_gate() {
        let ws = Workspace::from_sources(&[(
            "crates/mem/src/x.rs",
            "fn set_of(addr: u64) -> usize { addr as usize }\n",
        )]);
        let out = evaluate(&ws, &[Pass::Casts], &BaselineFile::default());
        assert_eq!(out.new.len(), 1, "{:?}", out.new);
        assert_eq!(out.new[0].id, "casts:crates/mem/src/x.rs:set_of:trunc");
        assert!(!out.ok());
    }

    /// The report round-trips through the psb-obs parser and carries
    /// the gate verdict.
    #[test]
    fn report_round_trips_and_carries_the_verdict() {
        let ws = Workspace::from_sources(&[SEEDED_PANIC]);
        let out = evaluate(&ws, &Pass::ALL, &BaselineFile::default());
        let text = report_json(&ws, &Pass::ALL, &out).to_string();
        let back = psb_obs::json::parse(&text).unwrap();
        assert_eq!(back.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(back.get("ok"), Some(&Json::Bool(false)));
        let findings =
            back.get("panics").and_then(|p| p.get("findings")).and_then(Json::as_arr).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].get("baselined"), Some(&Json::Bool(false)));
    }

    /// Every pass runs cleanly over a file with no tokens and over one
    /// that holds only comments.
    #[test]
    fn every_pass_survives_empty_and_comment_only_files() {
        let ws = Workspace::from_sources(&[
            ("crates/core/src/empty.rs", ""),
            ("crates/sim/src/stats.rs", "//! println!(\"x\"); HashMap a / b\n/* x.unwrap() */\n"),
        ]);
        let out = evaluate(&ws, &Pass::ALL, &BaselineFile::default());
        assert!(out.ok() && out.baselined == 0, "{:?}", out.new);
    }

    /// Teeth: each seeded source-rule defect fails the gate on its own
    /// via the rules pass: console output in a library crate, and a
    /// shim `Mutex` in the simulator.
    #[test]
    fn seeded_rule_defect_fails_the_gate() {
        let gate = "static GATE: psb_model::sync::Mutex<u8> = psb_model::sync::Mutex::new(0);\n";
        for (rel, src, id) in [
            ("crates/obs/src/x.rs", "fn f() { println!(\"x\"); }\n", "f:println"),
            ("crates/sim/src/ci_seeded_defect.rs", gate, ":lock"),
        ] {
            let out = evaluate(
                &Workspace::from_sources(&[(rel, src)]),
                &[Pass::Rules],
                &BaselineFile::default(),
            );
            let ids: Vec<&str> = out.new.iter().map(|f| f.id.as_str()).collect();
            assert_eq!(ids, [format!("rules:{rel}:{id}")]);
            assert!(!out.ok());
        }
    }

    /// Crate names derive from the path layout.
    #[test]
    fn krate_names_follow_the_layout() {
        assert_eq!(krate_of("crates/core/src/lib.rs"), "core");
        assert_eq!(krate_of("xtask/src/main.rs"), "xtask");
        assert_eq!(krate_of("src/main.rs"), "root");
    }
}
