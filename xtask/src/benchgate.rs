//! `cargo xtask bench-gate` — micro-benchmark regression gate.
//!
//! Loads the committed `BENCH_psb.json` baseline, re-runs the workspace
//! micro benches (`cargo bench -p psb-bench`) into a temporary artifact
//! via `PSB_BENCH_OUT`, and fails if any micro row's `ns_per_iter`
//! regressed beyond the tolerance (default 25%, `--tolerance 0.25`).
//! [`load_rows`] is the strict reader of a `psb-bench-v1` artifact: a
//! row it cannot read is an error, never a bench that goes ungated.
//!
//! The measurement budget follows `PSB_BENCH_MS`, so CI can run a fast
//! smoke gate (`PSB_BENCH_MS=5 cargo xtask bench-gate --tolerance 3.0`)
//! that exercises the plumbing without flaking on shared runners.

use psb_obs::json::{self, Json};
use std::path::Path;
use std::process::{Command, ExitCode};

/// One comparable row: a bench name and its nanoseconds per iteration.
#[derive(Clone, Debug, PartialEq)]
struct Row {
    name: String,
    ns: f64,
}

/// Outcome of comparing one baseline row against the fresh run.
#[derive(Clone, Debug, PartialEq)]
enum Verdict {
    /// Within tolerance (including improvements).
    Ok { ratio: f64 },
    /// Slower than `baseline * (1 + tolerance)`.
    Regressed { ratio: f64 },
    /// Present in the baseline but absent from the fresh run — a bench
    /// silently disappearing would hide regressions, so this fails too.
    Missing,
}

/// Entry point for the subcommand.
pub fn bench_gate(args: &[String]) -> ExitCode {
    let mut tolerance = 0.25f64;
    let mut baseline_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse().ok()) else {
                    eprintln!("bench-gate: --tolerance needs a number (fraction, e.g. 0.25)");
                    return ExitCode::from(2);
                };
                tolerance = v;
            }
            "--baseline" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("bench-gate: --baseline needs a file path");
                    return ExitCode::from(2);
                };
                baseline_path = Some(v.clone());
            }
            other => {
                eprintln!("bench-gate: unknown argument {other:?}");
                eprintln!("usage: cargo xtask bench-gate [--tolerance FRACTION] [--baseline FILE]");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    let root = crate::repo_root();
    let baseline_file =
        baseline_path.map(std::path::PathBuf::from).unwrap_or_else(|| root.join("BENCH_psb.json"));
    let baseline = match load_rows(&baseline_file) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench-gate: cannot load baseline {}: {e}", baseline_file.display());
            return ExitCode::FAILURE;
        }
    };

    // Fresh numbers go to a temp artifact so the committed baseline is
    // never touched, whatever the budget.
    let fresh_file =
        std::env::temp_dir().join(format!("psb_bench_gate_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&fresh_file);
    println!(
        "bench-gate: running cargo bench -p psb-bench (PSB_BENCH_OUT={})",
        fresh_file.display()
    );
    let status = Command::new("cargo")
        .args(["bench", "-p", "psb-bench"])
        .env("PSB_BENCH_OUT", &fresh_file)
        .current_dir(&root)
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(_) => {
            eprintln!("bench-gate: cargo bench failed");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("bench-gate: could not spawn cargo: {e}");
            return ExitCode::FAILURE;
        }
    }
    let fresh = match load_rows(&fresh_file) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench-gate: cannot load fresh results {}: {e}", fresh_file.display());
            return ExitCode::FAILURE;
        }
    };
    let _ = std::fs::remove_file(&fresh_file);

    let verdicts = compare(&baseline, &fresh, tolerance);
    print_table(&baseline, &fresh, &verdicts, tolerance);

    let regressed: Vec<&str> = baseline
        .iter()
        .zip(&verdicts)
        .filter(|(_, v)| !matches!(v, Verdict::Ok { .. }))
        .map(|(b, _)| b.name.as_str())
        .collect();
    if regressed.is_empty() {
        println!(
            "bench-gate: all {} micro bench(es) within {:.0}% of the baseline",
            baseline.len(),
            tolerance * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench-gate: {} bench(es) failed the gate: {}",
            regressed.len(),
            regressed.join(", ")
        );
        ExitCode::FAILURE
    }
}

/// Reads the `results` rows of a `psb-bench-v1` artifact, naming the
/// first row without a string `name` and a numeric `ns_per_iter`.
fn load_rows(path: &Path) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("psb-bench-v1") {
        return Err("not a psb-bench-v1 artifact".to_string());
    }
    let rows = doc.get("results").and_then(Json::as_arr).ok_or("no `results` array")?;
    let row = |(i, r): (usize, &Json)| {
        let name = r.get("name").and_then(Json::as_str);
        match (name, r.get("ns_per_iter").and_then(Json::as_f64)) {
            (Some(name), Some(ns)) => Ok(Row { name: name.to_owned(), ns }),
            _ => Err(format!("results[{i}] needs a string `name` and a numeric `ns_per_iter`")),
        }
    };
    rows.iter().enumerate().map(row).collect()
}

/// Compares each baseline row against the fresh run; order follows the
/// baseline. Fresh-only rows (newly added benches) carry no verdict —
/// they cannot regress against nothing.
fn compare(baseline: &[Row], fresh: &[Row], tolerance: f64) -> Vec<Verdict> {
    baseline
        .iter()
        .map(|b| match fresh.iter().find(|f| f.name == b.name) {
            None => Verdict::Missing,
            Some(f) => {
                let ratio = if b.ns > 0.0 { f.ns / b.ns } else { f64::INFINITY };
                if ratio > 1.0 + tolerance {
                    Verdict::Regressed { ratio }
                } else {
                    Verdict::Ok { ratio }
                }
            }
        })
        .collect()
}

fn print_table(baseline: &[Row], fresh: &[Row], verdicts: &[Verdict], tolerance: f64) {
    println!();
    println!("{:<28} {:>12} {:>12} {:>8}  verdict", "bench", "before", "after", "delta");
    for (b, v) in baseline.iter().zip(verdicts) {
        match v {
            Verdict::Missing => {
                println!("{:<28} {:>12.1} {:>12} {:>8}  MISSING", b.name, b.ns, "-", "-");
            }
            Verdict::Ok { ratio } | Verdict::Regressed { ratio } => {
                let after = fresh.iter().find(|f| f.name == b.name).map_or(0.0, |f| f.ns);
                let verdict = if matches!(v, Verdict::Regressed { .. }) {
                    format!("REGRESSED (> +{:.0}%)", tolerance * 100.0)
                } else {
                    "ok".to_string()
                };
                println!(
                    "{:<28} {:>12.1} {:>12.1} {:>+7.1}%  {verdict}",
                    b.name,
                    b.ns,
                    after,
                    (ratio - 1.0) * 100.0
                );
            }
        }
    }
    for f in fresh {
        if !baseline.iter().any(|b| b.name == f.name) {
            println!("{:<28} {:>12} {:>12.1} {:>8}  new (no baseline)", f.name, "-", f.ns, "-");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, ns: f64) -> Row {
        Row { name: name.to_owned(), ns }
    }

    #[test]
    fn within_tolerance_passes() {
        let baseline = vec![row("a", 100.0), row("b", 50.0)];
        let fresh = vec![row("a", 120.0), row("b", 30.0)];
        let v = compare(&baseline, &fresh, 0.25);
        assert!(matches!(v[0], Verdict::Ok { .. }), "{v:?}");
        assert!(matches!(v[1], Verdict::Ok { .. }), "speedups always pass: {v:?}");
    }

    #[test]
    fn beyond_tolerance_regresses() {
        let baseline = vec![row("a", 100.0)];
        let fresh = vec![row("a", 126.0)];
        let v = compare(&baseline, &fresh, 0.25);
        assert!(matches!(v[0], Verdict::Regressed { ratio } if (ratio - 1.26).abs() < 1e-9));
        // The same numbers pass a looser smoke tolerance.
        let v = compare(&baseline, &fresh, 3.0);
        assert!(matches!(v[0], Verdict::Ok { .. }));
    }

    #[test]
    fn missing_bench_fails_the_gate() {
        let baseline = vec![row("a", 100.0)];
        let v = compare(&baseline, &[], 0.25);
        assert_eq!(v, vec![Verdict::Missing]);
    }

    #[test]
    fn new_benches_carry_no_verdict() {
        let baseline = vec![row("a", 100.0)];
        let fresh = vec![row("a", 100.0), row("brand_new", 7.0)];
        let v = compare(&baseline, &fresh, 0.25);
        assert_eq!(v.len(), 1, "only baseline rows are judged");
    }

    #[test]
    fn baseline_rows_parse_and_an_unreadable_row_is_refused() {
        let dir = std::env::temp_dir().join("psb_bench_gate_parse_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let good = r#"{"schema":"psb-bench-v1","results":[
            {"name":"a","ns_per_iter":12.5,"iters":100},
            {"name":"b","ns_per_iter":3.0,"iters":64}]}"#;
        std::fs::write(&path, good).unwrap();
        assert_eq!(load_rows(&path).unwrap(), vec![row("a", 12.5), row("b", 3.0)]);
        for bad in [good.replace("3.0", "\"3.0\""), good.replace(r#""name":"b","#, "")] {
            std::fs::write(&path, bad).unwrap();
            assert!(load_rows(&path).unwrap_err().starts_with("results[1] "));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let dir = std::env::temp_dir().join("psb_bench_gate_schema_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        std::fs::write(&path, r#"{"schema":"psb-run-v1"}"#).unwrap();
        assert!(load_rows(&path).unwrap_err().contains("not a psb-bench-v1"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
