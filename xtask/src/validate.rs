//! `cargo xtask validate-artifacts` — offline shape checks for every
//! JSON artifact the workspace emits.
//!
//! Each file is parsed with the workspace's own [`psb_obs::json`]
//! parser, sniffed by its top-level keys, and checked against the
//! matching schema:
//!
//! * `psb-run-v1` — `psbsim --json`: aggregate stats, lifecycle
//!   counts, epochs, metrics registry.
//! * Chrome trace — `psbsim --trace-out`: a `traceEvents` array whose
//!   entries carry the keys Perfetto requires per phase.
//! * `psb-bench-v1` — the bench harness's `BENCH_psb.json`.
//! * `psb-sweep-v1` — `psbsweep --json`: one entry per grid cell with
//!   the cell's coordinates, its commit cap if it has one, and aggregate
//!   statistics.
//! * `psb-analyze-v1` — `cargo xtask analyze --report`: per-pass
//!   finding lists (panic-freedom, lock-order, cast safety, source
//!   rules), the baseline accounting, and the gate verdict — which must
//!   agree with the finding lists and stale entries it summarizes.

use psb_obs::json::{self, Json};
use std::process::ExitCode;

/// Entry point for the subcommand: validate every path given.
pub fn validate_artifacts(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("usage: cargo xtask validate-artifacts FILE...");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for path in paths {
        match validate_file(path) {
            Ok(what) => println!("{path}: ok ({what})"),
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Parses one file and dispatches on its sniffed kind. Returns a short
/// human-readable description of what was validated.
fn validate_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("psb-run-v1") => validate_run(&doc),
        Some("psb-bench-v1") => validate_bench(&doc),
        Some("psb-sweep-v1") => validate_sweep(&doc),
        Some("psb-analyze-v1") => validate_analyze(&doc),
        Some(other) => Err(format!("unknown schema {other:?}")),
        None if doc.get("traceEvents").is_some() => validate_trace(&doc),
        None => Err("no `schema` key and no `traceEvents`: not a known artifact".to_string()),
    }
}

fn require<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing key `{key}`"))
}

fn require_u64(doc: &Json, key: &str) -> Result<u64, String> {
    require(doc, key)?.as_u64().ok_or_else(|| format!("`{key}` is not an unsigned integer"))
}

fn validate_run(doc: &Json) -> Result<String, String> {
    let agg = require(doc, "aggregate")?;
    let cycles = require_u64(agg, "cycles")?;
    if cycles == 0 {
        return Err("aggregate.cycles is zero — empty run?".to_string());
    }
    require(agg, "ipc")?.as_f64().ok_or("aggregate.ipc is not a number")?;
    for section in ["l1d", "l1i", "l2", "prefetch", "dtlb", "bus"] {
        require(agg, section)?;
    }
    // Lifecycle is either null (no obs attached) or carries the
    // used / evicted-unused / late accounting.
    let lifecycle = require(doc, "lifecycle")?;
    if !matches!(lifecycle, Json::Null) {
        for key in ["predicted", "issued", "filled", "used", "used_late", "evicted_unused"] {
            require_u64(lifecycle, key)?;
        }
    }
    let epochs = require(doc, "epochs")?.as_arr().ok_or("`epochs` is not an array")?;
    for (i, e) in epochs.iter().enumerate() {
        let start = require_u64(e, "start").map_err(|m| format!("epochs[{i}]: {m}"))?;
        let end = require_u64(e, "end").map_err(|m| format!("epochs[{i}]: {m}"))?;
        if end <= start {
            return Err(format!("epochs[{i}]: end {end} <= start {start}"));
        }
    }
    require(doc, "metrics")?;
    Ok(format!("run report, {} epoch(s)", epochs.len()))
}

fn validate_trace(doc: &Json) -> Result<String, String> {
    let events = require(doc, "traceEvents")?.as_arr().ok_or("`traceEvents` is not an array")?;
    for (i, e) in events.iter().enumerate() {
        let ph = require(e, "ph")
            .and_then(|p| p.as_str().ok_or_else(|| "`ph` is not a string".to_string()))
            .map_err(|m| format!("traceEvents[{i}]: {m}"))?;
        let needed: &[&str] = match ph {
            // Complete events also need a duration; counters a ts.
            "X" => &["name", "pid", "tid", "ts", "dur"],
            "i" | "C" => &["name", "pid", "tid", "ts"],
            "M" => &["name", "pid", "tid"],
            other => return Err(format!("traceEvents[{i}]: unexpected phase {other:?}")),
        };
        for key in needed {
            require(e, key).map_err(|m| format!("traceEvents[{i}] (ph {ph}): {m}"))?;
        }
    }
    Ok(format!("chrome trace, {} event(s)", events.len()))
}

fn validate_bench_rows(doc: &Json, key: &str, required: bool) -> Result<usize, String> {
    let rows = match doc.get(key) {
        Some(v) => v.as_arr().ok_or_else(|| format!("`{key}` is not an array"))?,
        None if required => return Err(format!("missing key `{key}`")),
        // `runs` only exists in artifacts written after the micro /
        // whole-run schema split; older files stay valid.
        None => return Ok(0),
    };
    for (i, r) in rows.iter().enumerate() {
        require(r, "name")
            .and_then(|n| n.as_str().ok_or_else(|| "`name` is not a string".to_string()))
            .map_err(|m| format!("{key}[{i}]: {m}"))?;
        require(r, "ns_per_iter")
            .and_then(|n| n.as_f64().ok_or_else(|| "`ns_per_iter` is not a number".to_string()))
            .map_err(|m| format!("{key}[{i}]: {m}"))?;
        require_u64(r, "iters").map_err(|m| format!("{key}[{i}]: {m}"))?;
    }
    Ok(rows.len())
}

fn validate_bench(doc: &Json) -> Result<String, String> {
    let micro = validate_bench_rows(doc, "results", true)?;
    let runs = validate_bench_rows(doc, "runs", false)?;
    Ok(format!("bench results, {micro} micro entry(ies), {runs} run entry(ies)"))
}

fn validate_sweep(doc: &Json) -> Result<String, String> {
    let cells = require(doc, "cells")?.as_arr().ok_or("`cells` is not an array")?;
    for (i, c) in cells.iter().enumerate() {
        require(c, "benchmark")
            .and_then(|b| b.as_str().ok_or_else(|| "`benchmark` is not a string".to_string()))
            .map_err(|m| format!("cells[{i}]: {m}"))?;
        require(c, "config")
            .and_then(|b| b.as_str().ok_or_else(|| "`config` is not a string".to_string()))
            .map_err(|m| format!("cells[{i}]: {m}"))?;
        require_u64(c, "scale").map_err(|m| format!("cells[{i}]: {m}"))?;
        // A capped cell records its cap; a whole-trace cell has none.
        if c.get("max_commits").is_some() {
            require_u64(c, "max_commits").map_err(|m| format!("cells[{i}]: {m}"))?;
        }
        let agg = require(c, "aggregate").map_err(|m| format!("cells[{i}]: {m}"))?;
        let cycles = require_u64(agg, "cycles").map_err(|m| format!("cells[{i}]: {m}"))?;
        if cycles == 0 {
            return Err(format!("cells[{i}]: aggregate.cycles is zero — empty cell?"));
        }
        require(agg, "ipc")
            .and_then(|v| v.as_f64().ok_or_else(|| "`ipc` is not a number".to_string()))
            .map_err(|m| format!("cells[{i}]: {m}"))?;
    }
    Ok(format!("sweep report, {} cell(s)", cells.len()))
}

/// Validates a `psb-analyze-v1` report: pass list, per-pass finding
/// shapes, baseline accounting, and that the `ok` verdict agrees with
/// the data (a report claiming `ok` may carry no new findings, no stale
/// baseline entries and no lock cycles).
fn validate_analyze(doc: &Json) -> Result<String, String> {
    let passes = require(doc, "passes")?.as_arr().ok_or("`passes` is not an array")?;
    for (i, p) in passes.iter().enumerate() {
        match p.as_str() {
            Some("panics" | "locks" | "casts" | "rules") => {}
            Some(other) => return Err(format!("passes[{i}]: unknown pass {other:?}")),
            None => return Err(format!("passes[{i}] is not a string")),
        }
    }
    if passes.is_empty() {
        return Err("`passes` is empty — the report validates nothing".to_string());
    }
    require_u64(doc, "files")?;

    let check_findings = |section: &Json, key: &str| -> Result<usize, String> {
        let findings = require(section, "findings")?.as_arr().ok_or("not an array")?;
        for (i, f) in findings.iter().enumerate() {
            for k in ["id", "file", "fn", "kind"] {
                require(f, k)
                    .and_then(|v| v.as_str().map(drop).ok_or_else(|| format!("`{k}` not a string")))
                    .map_err(|m| format!("{key}.findings[{i}]: {m}"))?;
            }
            let lines = require(f, "lines")
                .and_then(|v| v.as_arr().ok_or_else(|| "`lines` is not an array".to_string()))
                .map_err(|m| format!("{key}.findings[{i}]: {m}"))?;
            if lines.is_empty() {
                return Err(format!("{key}.findings[{i}]: empty `lines`"));
            }
            if !matches!(f.get("baselined"), Some(Json::Bool(_))) {
                return Err(format!("{key}.findings[{i}]: `baselined` is not a bool"));
            }
        }
        Ok(findings.len())
    };

    let mut total_findings = 0usize;
    if let Some(p) = doc.get("panics") {
        require_u64(p, "roots").map_err(|m| format!("panics: {m}"))?;
        require_u64(p, "reachable").map_err(|m| format!("panics: {m}"))?;
        total_findings += check_findings(p, "panics")?;
    }
    let mut cycles = 0usize;
    if let Some(l) = doc.get("locks") {
        require(l, "classes")?.as_arr().ok_or("locks.classes is not an array")?;
        let edges = require(l, "edges")?.as_arr().ok_or("locks.edges is not an array")?;
        for (i, e) in edges.iter().enumerate() {
            for k in ["from", "to", "file"] {
                require(e, k)
                    .and_then(|v| v.as_str().map(drop).ok_or_else(|| format!("`{k}` not a string")))
                    .map_err(|m| format!("locks.edges[{i}]: {m}"))?;
            }
            require_u64(e, "line").map_err(|m| format!("locks.edges[{i}]: {m}"))?;
        }
        require_u64(l, "waits").map_err(|m| format!("locks: {m}"))?;
        cycles = require(l, "cycles")?.as_arr().ok_or("locks.cycles is not an array")?.len();
    }
    if let Some(c) = doc.get("casts") {
        require_u64(c, "scanned").map_err(|m| format!("casts: {m}"))?;
        total_findings += check_findings(c, "casts")?;
    }
    if let Some(r) = doc.get("rules") {
        total_findings += check_findings(r, "rules")?;
    }

    let new = require_u64(doc, "new")?;
    require_u64(doc, "baselined")?;
    let stale = require(doc, "stale")?.as_arr().ok_or("`stale` is not an array")?.len();
    let ok = match require(doc, "ok")? {
        Json::Bool(b) => *b,
        _ => return Err("`ok` is not a bool".to_string()),
    };
    if ok && (new > 0 || stale > 0 || cycles > 0) {
        return Err(format!(
            "verdict says ok but the report carries {new} new finding(s), {stale} stale \
             entr(ies) and {cycles} cycle(s)"
        ));
    }
    Ok(format!(
        "analyze report, {} pass(es), {total_findings} finding(s), {new} new, verdict {}",
        passes.len(),
        if ok { "ok" } else { "FAIL" },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_report_shape_is_enforced() {
        let good = r#"{"schema":"psb-run-v1","benchmark":"health","prefetcher":"x",
            "aggregate":{"cycles":100,"ipc":0.5,"l1d":{},"l1i":{},"l2":{},
                         "prefetch":{},"dtlb":{},"bus":{}},
            "lifecycle":null,"epochs":[{"start":0,"end":10}],"metrics":null}"#;
        let doc = json::parse(good).unwrap();
        assert!(validate_run(&doc).is_ok());

        let bad = json::parse(&good.replace("\"end\":10", "\"end\":0")).unwrap();
        assert!(validate_run(&bad).unwrap_err().contains("end 0 <= start 0"));
    }

    #[test]
    fn trace_requires_phase_keys() {
        let good = r#"{"traceEvents":[
            {"ph":"M","name":"thread_name","pid":1,"tid":0,"args":{"name":"sb-0"}},
            {"ph":"X","name":"prefetch","pid":1,"tid":0,"ts":5,"dur":10}]}"#;
        assert!(validate_trace(&json::parse(good).unwrap()).is_ok());

        let missing_dur = r#"{"traceEvents":[{"ph":"X","name":"p","pid":1,"tid":0,"ts":5}]}"#;
        let err = validate_trace(&json::parse(missing_dur).unwrap()).unwrap_err();
        assert!(err.contains("dur"), "{err}");
    }

    #[test]
    fn bench_results_are_checked() {
        let good = r#"{"schema":"psb-bench-v1","results":[
            {"name":"a","ns_per_iter":12.5,"iters":100}]}"#;
        assert!(validate_bench(&json::parse(good).unwrap()).is_ok());

        let bad = r#"{"schema":"psb-bench-v1","results":[{"name":"a"}]}"#;
        assert!(validate_bench(&json::parse(bad).unwrap()).is_err());
    }

    #[test]
    fn bench_runs_section_is_optional_but_checked() {
        // Post-split artifacts carry whole-run rows under `runs`.
        let split = r#"{"schema":"psb-bench-v1",
            "results":[{"name":"a","ns_per_iter":12.5,"iters":100}],
            "runs":[{"name":"Base","ns_per_iter":1.0e8,"iters":1}]}"#;
        let desc = validate_bench(&json::parse(split).unwrap()).unwrap();
        assert!(desc.contains("1 micro"), "{desc}");
        assert!(desc.contains("1 run"), "{desc}");

        let bad_runs = r#"{"schema":"psb-bench-v1","results":[],"runs":[{"name":"Base"}]}"#;
        let err = validate_bench(&json::parse(bad_runs).unwrap()).unwrap_err();
        assert!(err.contains("runs[0]"), "{err}");
    }

    #[test]
    fn sweep_cells_are_checked() {
        let good = r#"{"schema":"psb-sweep-v1","cells":[
            {"benchmark":"health","config":"Base","scale":1,
             "aggregate":{"cycles":100,"ipc":0.5}}]}"#;
        assert!(validate_sweep(&json::parse(good).unwrap()).is_ok());

        let zero = json::parse(&good.replace("\"cycles\":100", "\"cycles\":0")).unwrap();
        assert!(validate_sweep(&zero).unwrap_err().contains("cycles is zero"));

        let bad = r#"{"schema":"psb-sweep-v1","cells":[{"benchmark":"health"}]}"#;
        let err = validate_sweep(&json::parse(bad).unwrap()).unwrap_err();
        assert!(err.contains("config"), "{err}");

        let capped = good.replace("\"scale\":1,", "\"scale\":1,\"max_commits\":200000,");
        assert!(validate_sweep(&json::parse(&capped).unwrap()).is_ok());
        let bad_cap = json::parse(&capped.replace("200000", "\"all\"")).unwrap();
        let err = validate_sweep(&bad_cap).unwrap_err();
        assert!(err.contains("cells[0]: `max_commits` is not an unsigned integer"), "{err}");
    }

    #[test]
    fn analyze_reports_are_checked_and_verdict_must_agree() {
        let good = r#"{"schema":"psb-analyze-v1","passes":["panics","locks","casts","rules"],
            "files":10,
            "panics":{"roots":2,"reachable":20,"findings":[
                {"id":"panics:a.rs:F::f:index","file":"a.rs","fn":"F::f","kind":"index",
                 "lines":[4,9],"baselined":true}]},
            "locks":{"classes":["sim/state"],"edges":[
                {"from":"sim/state","to":"sim/slot","file":"b.rs","line":7,"via":"publish"}],
                "waits":1,"cycles":[]},
            "casts":{"scanned":50,"findings":[]},
            "rules":{"findings":[
                {"id":"rules:c.rs:g:println","file":"c.rs","fn":"g","kind":"println",
                 "lines":[2],"baselined":true}]},
            "new":0,"baselined":2,"stale":[],"ok":true}"#;
        let desc = validate_analyze(&json::parse(good).unwrap()).unwrap();
        assert!(desc.contains("4 pass(es), 2 finding(s)"), "{desc}");
        assert!(desc.contains("verdict ok"), "{desc}");

        // A verdict that disagrees with its own counts is corruption:
        // new findings and stale entries both fail the gate.
        let lying = good.replace("\"new\":0", "\"new\":3");
        let err = validate_analyze(&json::parse(&lying).unwrap()).unwrap_err();
        assert!(err.contains("says ok"), "{err}");
        let stale = good.replace("\"stale\":[]", "\"stale\":[\"rules:gone.rs::println\"]");
        let err = validate_analyze(&json::parse(&stale).unwrap()).unwrap_err();
        assert!(err.contains("1 stale"), "{err}");
        let failed = stale.replace("\"ok\":true", "\"ok\":false");
        assert!(validate_analyze(&json::parse(&failed).unwrap()).is_ok());

        // Findings must carry the full shape, in every pass's section.
        let bad = good.replace("\"kind\":\"index\",", "");
        let err = validate_analyze(&json::parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("kind"), "{err}");
        let bad = good.replace("\"lines\":[2]", "\"lines\":[]");
        let err = validate_analyze(&json::parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("rules.findings[0]"), "{err}");

        // Unknown pass names are rejected.
        let odd = good.replace("\"panics\",", "\"vibes\",");
        assert!(validate_analyze(&json::parse(&odd).unwrap()).unwrap_err().contains("vibes"));
    }

    #[test]
    fn sniffing_rejects_unknown_documents() {
        let doc = json::parse(r#"{"hello":1}"#).unwrap();
        assert!(doc.get("schema").is_none());
        // validate_file goes through the filesystem; exercise the sniff
        // logic by writing a temp file.
        let path = std::env::temp_dir().join("xtask_validate_unknown.json");
        std::fs::write(&path, r#"{"hello":1}"#).unwrap();
        let err = validate_file(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("not a known artifact"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
