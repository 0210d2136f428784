//! Minimal wall-clock microbenchmark harness, pure std.
//!
//! Replaces the external criterion dependency so the bench targets
//! build and run offline: `cargo bench -p psb-bench` executes each
//! `[[bench]]` binary's `main`, which calls [`bench`] per measurement.
//! Numbers are indicative (no outlier rejection), which is all the
//! repo needs for before/after comparisons on one machine.
//!
//! Every measurement is also recorded in a process-wide collector;
//! call [`write_json`] at the end of `main` to merge the results into
//! the workspace's `BENCH_psb.json` (schema `psb-bench-v1`, emitted
//! through the same [`psb_obs::Json`] writer as the run artifacts).

use psb_obs::{json, Json};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchResult {
    /// Benchmark name, unique per measurement.
    pub name: String,
    /// Mean wall-clock nanoseconds per iteration of the final batch.
    pub ns_per_iter: f64,
    /// Iterations in the final (timed) batch — an exact count, taken
    /// straight from the loop bound.
    pub iters: u64,
}

impl BenchResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name.as_str())),
            ("ns_per_iter", Json::f64(self.ns_per_iter)),
            ("iters", Json::u64(self.iters)),
        ])
    }
}

/// Process-wide result collector, merged by name so re-running a
/// measurement in one process keeps the latest number. Micro rows and
/// whole-run rows are kept apart: they land in different artifact
/// sections so a regression gate can apply a tight tolerance to the
/// micro numbers without tripping over 100 ms-scale run rows.
static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());

/// Process-wide collector for whole-run rows (see [`bench_run`]).
static RUNS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());

/// Artifact file name; [`write_json_default`] puts it at the workspace
/// root regardless of the working directory `cargo bench` picked.
pub const BENCH_JSON: &str = "BENCH_psb.json";

/// Side artifact used when the measurement budget is below the default:
/// short-budget numbers are too noisy to overwrite the committed
/// baseline, but are still useful to inspect after a CI smoke run.
pub const BENCH_SMOKE_JSON: &str = "BENCH_psb.smoke.json";

/// The default per-measurement budget in milliseconds; results measured
/// below this are quarantined to [`BENCH_SMOKE_JSON`].
pub const DEFAULT_BUDGET_MS: u64 = 200;

/// Target wall-clock time for one measurement in milliseconds. Override
/// with the `PSB_BENCH_MS` environment variable (e.g. `PSB_BENCH_MS=5`
/// for a smoke run in CI).
fn budget_ms() -> u64 {
    std::env::var("PSB_BENCH_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_BUDGET_MS)
        .max(1)
}

/// Target wall-clock time for one measurement.
fn budget() -> Duration {
    Duration::from_millis(budget_ms())
}

/// Measure `f` by doubling the batch size until the batch fills the
/// time budget, then report nanoseconds per iteration. The timed loop
/// is allocation-free — a plain counted loop around `f` — so the
/// iteration count divides out nothing but the workload itself.
pub fn bench(name: &str, f: impl FnMut()) -> BenchResult {
    bench_per(name, 1, f)
}

/// [`bench`] for an `f` that does `units` units of work per call (say,
/// simulated cycles): reports nanoseconds per unit, and the units timed
/// as the iteration count.
pub fn bench_per(name: &str, units: u64, mut f: impl FnMut()) -> BenchResult {
    let budget = budget();
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= budget || iters >= 1 << 32 {
            let iters = iters.saturating_mul(units.max(1));
            let ns = elapsed.as_nanos() as f64 / iters as f64;
            println!("{name:<32} {ns:>12.1} ns/iter  ({iters} iters)");
            let result = BenchResult { name: name.to_owned(), ns_per_iter: ns, iters };
            record(result.clone());
            return result;
        }
        // Aim straight for the budget once we have a signal; otherwise
        // keep doubling from the cold start.
        let grown = if elapsed.as_nanos() > 0 {
            let scale = budget.as_nanos() as f64 / elapsed.as_nanos() as f64;
            ((iters as f64 * scale * 1.2) as u64).max(iters * 2)
        } else {
            iters * 4
        };
        iters = grown.min(1 << 32);
    }
}

/// Times one whole-system run per call of `f` — no doubling-batch
/// search, a single timed invocation — and records it in the `runs`
/// section of the artifact. Use for ~100 ms-scale end-to-end rows that
/// would otherwise pollute the micro `results` a regression gate
/// applies a per-cent tolerance to.
pub fn bench_run(name: &str, mut f: impl FnMut()) -> BenchResult {
    let start = Instant::now();
    f();
    let ns = start.elapsed().as_nanos() as f64;
    println!("{name:<32} {ns:>12.1} ns/run");
    let result = BenchResult { name: name.to_owned(), ns_per_iter: ns, iters: 1 };
    upsert(&RUNS, result.clone());
    result
}

/// Print a group header so bench output stays scannable.
pub fn group(name: &str) {
    println!("\n== {name} ==");
}

fn upsert(collector: &Mutex<Vec<BenchResult>>, result: BenchResult) {
    let mut all = collector.lock().unwrap_or_else(|e| e.into_inner());
    match all.iter_mut().find(|b| b.name == result.name) {
        Some(existing) => *existing = result,
        None => all.push(result),
    }
}

fn record(result: BenchResult) {
    upsert(&RESULTS, result);
}

/// A copy of every micro result recorded so far in this process.
pub fn results() -> Vec<BenchResult> {
    RESULTS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// A copy of every whole-run result recorded so far in this process.
pub fn run_results() -> Vec<BenchResult> {
    RUNS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

fn result_from_json(v: &Json) -> Option<BenchResult> {
    Some(BenchResult {
        name: v.get("name")?.as_str()?.to_owned(),
        ns_per_iter: v.get("ns_per_iter")?.as_f64()?,
        iters: v.get("iters")?.as_u64()?,
    })
}

/// Serializes micro `results` and whole-run `runs` rows as a
/// `psb-bench-v1` document.
pub fn results_json(results: &[BenchResult], runs: &[BenchResult]) -> Json {
    Json::obj([
        ("schema", Json::str("psb-bench-v1")),
        ("results", Json::arr(results.iter().map(BenchResult::to_json))),
        ("runs", Json::arr(runs.iter().map(BenchResult::to_json))),
    ])
}

fn load_section(doc: &Json, key: &str) -> Vec<BenchResult> {
    doc.get(key)
        .and_then(Json::as_arr)
        .map(|items| items.iter().filter_map(result_from_json).collect())
        .unwrap_or_default()
}

/// Merges this process's results into the JSON artifact at `path`
/// (usually [`BENCH_JSON`]): existing entries with the same name are
/// replaced, everything else is preserved, so the three bench binaries
/// build up one file across invocations. Micro and whole-run rows are
/// kept in their own sections; a row moving between sections (e.g. a
/// pre-split artifact holding run rows under `results`) is migrated
/// rather than duplicated.
pub fn write_json(path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    let path = path.as_ref();
    let doc = std::fs::read_to_string(path).ok().and_then(|text| json::parse(&text).ok());
    let mut merged = doc.as_ref().map(|d| load_section(d, "results")).unwrap_or_default();
    let mut merged_runs = doc.as_ref().map(|d| load_section(d, "runs")).unwrap_or_default();
    for r in results() {
        merged_runs.retain(|b| b.name != r.name);
        match merged.iter_mut().find(|b| b.name == r.name) {
            Some(existing) => *existing = r,
            None => merged.push(r),
        }
    }
    for r in run_results() {
        merged.retain(|b| b.name != r.name);
        match merged_runs.iter_mut().find(|b| b.name == r.name) {
            Some(existing) => *existing = r,
            None => merged_runs.push(r),
        }
    }
    std::fs::write(path, results_json(&merged, &merged_runs).to_string())
}

/// Chooses the artifact file for this process's measurement conditions:
/// an explicit destination wins, a sub-default budget is quarantined to
/// the smoke side file, and only a full-budget run may touch the
/// committed [`BENCH_JSON`]. Pure so the policy is unit-testable.
fn artifact_name(out_override: Option<&str>, budget_ms: u64) -> std::path::PathBuf {
    match out_override {
        Some(path) if !path.is_empty() => std::path::PathBuf::from(path),
        _ if budget_ms < DEFAULT_BUDGET_MS => std::path::PathBuf::from(BENCH_SMOKE_JSON),
        _ => std::path::PathBuf::from(BENCH_JSON),
    }
}

/// [`write_json`] to the artifact the current conditions allow:
/// `PSB_BENCH_OUT` (when set) names the destination outright; otherwise
/// a `PSB_BENCH_MS` below the 200 ms default redirects to
/// [`BENCH_SMOKE_JSON`] so CI smoke runs can never clobber the
/// committed baseline with noisy short-budget numbers. Relative names
/// resolve at the workspace root (two levels up from this crate's
/// manifest). Returns the path written.
pub fn write_json_default() -> std::io::Result<std::path::PathBuf> {
    let out = std::env::var("PSB_BENCH_OUT").ok();
    let name = artifact_name(out.as_deref(), budget_ms());
    let path = if name.is_absolute() {
        name
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../").join(name)
    };
    write_json(&path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_exact_iteration_count() {
        let r = bench("micro_test_counter", || {
            std::hint::black_box(1 + 1);
        });
        assert!(r.iters >= 1);
        assert!(r.ns_per_iter >= 0.0);
        assert!(results().iter().any(|b| b.name == "micro_test_counter"));
    }

    #[test]
    fn bench_per_divides_by_the_units_of_work() {
        let r = bench_per("micro_test_units", 1000, || {
            std::hint::black_box(1 + 1);
        });
        assert_eq!(r.iters % 1000, 0);
        assert!(results().iter().any(|b| b.name == "micro_test_units"));
    }

    #[test]
    fn results_json_round_trips_and_merges() {
        let a = BenchResult { name: "a".into(), ns_per_iter: 12.5, iters: 1000 };
        let b = BenchResult { name: "b".into(), ns_per_iter: 3.0, iters: 64 };
        let r = BenchResult { name: "Base".into(), ns_per_iter: 1.0e8, iters: 1 };
        let doc = results_json(&[a.clone(), b.clone()], std::slice::from_ref(&r));
        let back = json::parse(&doc.to_string()).unwrap();
        assert_eq!(back.get("schema").and_then(Json::as_str), Some("psb-bench-v1"));
        let items = back.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(result_from_json(&items[0]), Some(a));
        assert_eq!(result_from_json(&items[1]), Some(b));
        let runs = back.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(result_from_json(&runs[0]), Some(r));
    }

    #[test]
    fn sub_default_budget_is_quarantined_to_the_smoke_file() {
        // The committed artifact is only writable at the full default
        // budget; anything shorter (e.g. PSB_BENCH_MS=5 in CI) must land
        // in the side file, and an explicit destination always wins.
        assert_eq!(artifact_name(None, DEFAULT_BUDGET_MS), std::path::Path::new(BENCH_JSON));
        assert_eq!(artifact_name(None, DEFAULT_BUDGET_MS + 300), std::path::Path::new(BENCH_JSON));
        assert_eq!(artifact_name(None, 5), std::path::Path::new(BENCH_SMOKE_JSON));
        assert_eq!(
            artifact_name(None, DEFAULT_BUDGET_MS - 1),
            std::path::Path::new(BENCH_SMOKE_JSON)
        );
        assert_eq!(artifact_name(Some("/tmp/x.json"), 5), std::path::Path::new("/tmp/x.json"));
        assert_eq!(artifact_name(Some(""), 5), std::path::Path::new(BENCH_SMOKE_JSON));
    }

    #[test]
    fn write_json_migrates_run_rows_out_of_results() {
        // A pre-split artifact kept whole-run rows in `results`; merging
        // a fresh run row with the same name must move it to `runs`
        // without duplicating it.
        let dir = std::env::temp_dir().join("psb_bench_migrate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        std::fs::write(
            &path,
            r#"{"schema":"psb-bench-v1","results":[
                {"name":"micro_a","ns_per_iter":10.0,"iters":100},
                {"name":"run_row","ns_per_iter":9.9e7,"iters":1}]}"#,
        )
        .unwrap();
        upsert(&RUNS, BenchResult { name: "run_row".into(), ns_per_iter: 1.0e8, iters: 1 });
        write_json(&path).unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .filter_map(|r| Some(r.get("name")?.as_str()?.to_owned()))
                .collect()
        };
        assert!(names("results").contains(&"micro_a".to_owned()));
        assert!(!names("results").contains(&"run_row".to_owned()), "row must migrate");
        assert_eq!(names("runs").iter().filter(|n| *n == "run_row").count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
        RUNS.lock().unwrap_or_else(|e| e.into_inner()).retain(|b| b.name != "run_row");
    }
}
