//! `cargo xtask` — workspace automation, pure std so it runs offline.
//!
//! Subcommands:
//!
//! * `lint` — run `cargo fmt --check` and `cargo clippy -- -D warnings`
//!   when those components are installed, then always run the
//!   crate-layering checker (see [`layering`]) and every `analyze` pass.
//!   Exits nonzero on any finding, so it works as a CI gate.
//! * `model` — build the workspace with `--cfg psb_model` and run the
//!   concurrency model-checker suites (`tests/model.rs` in `psb-model`,
//!   `psb-sim` and `psb-workloads`): the sweep worker pool and the trace
//!   cache are explored across thousands of thread interleavings,
//!   failing with a replayable schedule string on any deadlock, lost
//!   update or panic. Tune with `PSB_MODEL_DFS` / `PSB_MODEL_RANDOM` /
//!   `PSB_MODEL_PREEMPTIONS` / `PSB_MODEL_SEED`; pin one interleaving
//!   with `PSB_MODEL_REPLAY=<schedule>`.
//! * `validate-artifacts <file>...` — parse each emitted JSON artifact
//!   (`psb-run-v1` reports, Chrome traces, `psb-bench-v1` results) and
//!   check its shape, so CI catches a malformed writer before a human
//!   loads the file into Perfetto or a plotting script.
//! * `bench-gate` — re-run the micro benches and fail if any row
//!   regressed beyond a tolerance against the committed
//!   `BENCH_psb.json` baseline (see [`benchgate`]).
//! * `mutants` — mutation-test the hot-path files against the committed
//!   `MUTANTS.toml` survivor baseline (see [`mutants`]).
//! * `analyze` — the static checker: hot-path panic-freedom, static
//!   lock-order, cast/unit safety and the source rules, gated against
//!   `PANICS.toml`, the one allow-list (see [`analyze`]). It needs no
//!   toolchain component.

mod analyze;
mod baseline;
mod benchgate;
mod layering;
mod lexer;
mod mutants;
mod validate;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// One subcommand: its name, the argument synopsis shown in the usage
/// line, the indented help lines, and the handler. The dispatch match
/// and the usage text used to be maintained separately and drifted (the
/// same class of bug as the psbsim `usage()` drift fixed in PR 4); this
/// table is now the single source of truth for both.
struct Cmd {
    name: &'static str,
    synopsis: &'static str,
    help: &'static [&'static str],
    run: fn(&[String]) -> ExitCode,
}

const COMMANDS: &[Cmd] = &[
    Cmd {
        name: "lint",
        synopsis: "",
        help: &[
            "run fmt + clippy (when available), the crate-layering",
            "checker and every analyze pass",
        ],
        run: lint,
    },
    Cmd {
        name: "model",
        synopsis: "[TESTARGS...]",
        help: &[
            "run the concurrency model checker (--cfg psb_model)",
            "over the sweep pool and trace cache; extra args go",
            "to the test binaries (e.g. --nocapture)",
        ],
        run: model,
    },
    Cmd {
        name: "validate-artifacts",
        synopsis: "FILE...",
        help: &[
            "parse and shape-check emitted JSON artifacts",
            "(run reports, Chrome traces, bench results)",
        ],
        run: validate::validate_artifacts,
    },
    Cmd {
        name: "bench-gate",
        synopsis: "[--tolerance FRACTION] [--baseline FILE]",
        help: &[
            "re-run the micro benches and fail on regressions",
            "beyond --tolerance (fraction, default 0.25) against",
            "the committed BENCH_psb.json (or --baseline FILE)",
        ],
        run: benchgate::bench_gate,
    },
    Cmd {
        name: "mutants",
        synopsis: "[--crate NAME] [--filter SUBSTR] [--sample N] [--seed S] [--timeout SECS] [--jobs N] [--list] [--baseline FILE] [--report FILE]",
        help: &[
            "mutation-test the hot-path files of psb-core/psb-mem/psb-cpu:",
            "generate mutants, run the kill suite per mutant in a",
            "scratch workspace, and fail on any survivor missing",
            "from the committed MUTANTS.toml baseline",
            "  --crate NAME      restrict to one crate (psb-core | psb-mem | psb-cpu)",
            "  --filter SUBSTR   keep only mutants whose id contains SUBSTR (repeatable)",
            "  --sample N        seeded sample of N mutants (CI smoke mode)",
            "  --seed S          sample seed (default 1)",
            "  --timeout SECS    per-mutant kill-suite timeout (default 300)",
            "  --jobs N          parallel workers (default: min(4, cores))",
            "  --list            print the mutant table without running",
            "  --baseline FILE   survivor baseline (default MUTANTS.toml)",
            "  --report FILE     write a psb-mutants-v1 JSON report",
        ],
        run: mutants::mutants,
    },
    Cmd {
        name: "analyze",
        synopsis: "[--pass panics|locks|casts|rules] [--baseline FILE] [--report FILE]",
        help: &[
            "token-tree static analysis over the workspace:",
            "hot-path panic-freedom (call graph rooted at the",
            "engine/memory entry points), static lock-order",
            "(fails on cycles), cast/unit safety and the source",
            "rules; findings gate against the committed PANICS.toml",
            "  --pass NAME       run one pass (repeatable; default all)",
            "  --baseline FILE   finding baseline (default PANICS.toml)",
            "  --report FILE     write a psb-analyze-v1 JSON report",
        ],
        run: analyze::analyze,
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    if matches!(cmd, "" | "help" | "--help" | "-h") {
        return usage(if cmd.is_empty() { 2 } else { 0 });
    }
    let Some(c) = COMMANDS.iter().find(|c| c.name == cmd) else {
        eprintln!("xtask: unknown subcommand {cmd:?}");
        return usage(2);
    };
    let rest = &args[1..];
    // Every subcommand accepts --help, handled here so a handler cannot
    // forget it.
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: cargo xtask {} {}", c.name, c.synopsis);
        for line in c.help {
            println!("  {line}");
        }
        return ExitCode::SUCCESS;
    }
    (c.run)(rest)
}

/// Prints the usage text — synopsis line and per-command help — derived
/// entirely from [`COMMANDS`].
fn usage(code: u8) -> ExitCode {
    let synopsis: Vec<String> = COMMANDS
        .iter()
        .map(|c| {
            if c.synopsis.is_empty() {
                c.name.to_string()
            } else {
                format!("{} {}", c.name, c.synopsis)
            }
        })
        .collect();
    eprintln!("usage: cargo xtask <{}>", synopsis.join(" | "));
    eprintln!();
    for c in COMMANDS {
        let mut first = true;
        for line in c.help {
            if first && !line.starts_with("  ") {
                eprintln!("  {:<19} {line}", c.name);
                first = false;
            } else {
                eprintln!("  {:<19} {line}", "");
            }
        }
    }
    eprintln!();
    eprintln!("every subcommand also accepts --help");
    ExitCode::from(code)
}

/// Repo root: the parent of the directory containing this crate.
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().expect("xtask always lives one level below the repo root").to_path_buf()
}

fn lint(args: &[String]) -> ExitCode {
    if let Some(a) = args.first() {
        eprintln!("xtask lint: unexpected argument {a:?}");
        return usage(2);
    }
    let root = repo_root();
    let fmt = ["fmt", "--all", "--check"];
    let clippy = ["clippy", "--workspace", "--all-targets", "--", "-D", "warnings"];
    let mut ok = run_toolchain_pass(&root, "rustfmt", &["fmt", "--version"], &fmt);
    ok &= run_toolchain_pass(&root, "clippy", &["clippy", "--version"], &clippy);

    let layering = layering::check_layering(&root);
    for f in &layering {
        println!("{f}");
    }
    if layering.is_empty() {
        println!("xtask lint: crate layering clean");
    } else {
        eprintln!("xtask lint: {} layering finding(s)", layering.len());
        ok = false;
    }
    ok &= analyze::analyze(&[]) == ExitCode::SUCCESS;
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The model-checked packages: the checker itself (self-tests including
/// a seeded-bug detection test), the sweep worker pool and the shared
/// trace cache.
const MODEL_PACKAGES: [&str; 3] = ["psb-model", "psb-sim", "psb-workloads"];

/// `cargo xtask model` — run the `tests/model.rs` suites under
/// `--cfg psb_model`, serializing test execution (the scheduler uses
/// process-global state, one exploration at a time).
fn model(extra: &[String]) -> ExitCode {
    let root = repo_root();
    let mut rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !rustflags.split_whitespace().any(|f| f == "psb_model") {
        rustflags.push_str(" --cfg psb_model");
    }
    let mut cmd = Command::new("cargo");
    cmd.arg("test");
    for p in MODEL_PACKAGES {
        cmd.args(["-p", p]);
    }
    cmd.args(["--test", "model", "--", "--test-threads=1"]);
    cmd.args(extra);
    cmd.env("RUSTFLAGS", rustflags.trim()).current_dir(&root);
    println!("xtask model: exploring interleavings (RUSTFLAGS=--cfg psb_model)");
    match cmd.status() {
        Ok(s) if s.success() => {
            println!("xtask model: all model suites clean");
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!(
                "xtask model: violation found — rerun the printed schedule with \
                 PSB_MODEL_REPLAY=<schedule> cargo xtask model -- --nocapture"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask model: could not spawn cargo: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one `cargo <tool>` pass if the component is installed; returns
/// false only when the tool ran and failed. A missing component is a
/// warning, not a failure — offline containers often lack rustup.
fn run_toolchain_pass(root: &Path, name: &str, probe: &[&str], args: &[&str]) -> bool {
    let available = Command::new("cargo")
        .args(probe)
        .current_dir(root)
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    if !available {
        eprintln!("xtask lint: {name} not installed, skipping");
        return true;
    }
    println!("xtask lint: running cargo {}", args.join(" "));
    let status = Command::new("cargo").args(args).current_dir(root).status();
    match status {
        Ok(s) if s.success() => true,
        Ok(_) => {
            eprintln!("xtask lint: cargo {} failed", args.join(" "));
            false
        }
        Err(e) => {
            eprintln!("xtask lint: could not spawn cargo: {e}");
            false
        }
    }
}

/// Every crate directory in the workspace: the root package, all
/// `crates/*`, and xtask itself.
fn crate_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.to_path_buf(), root.join("xtask")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                dirs.push(p);
            }
        }
    }
    dirs.sort();
    dirs
}

/// All `.rs` files below `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}
