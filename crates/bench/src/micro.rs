//! Minimal wall-clock microbenchmark harness, pure std.
//!
//! Replaces the external criterion dependency so the bench targets
//! build and run offline: `cargo bench -p psb-bench` executes each
//! `[[bench]]` binary's `main`, which calls [`bench`] per measurement.
//! Numbers are indicative (no outlier rejection), which is all the
//! repo needs for before/after comparisons on one machine.
//!
//! Every measurement is also recorded in a collector; call
//! [`write_json`] at the end of `main` to merge the results into the
//! workspace's `BENCH_psb.json` (schema `psb-bench-v1`, emitted through
//! the same [`psb_obs::Json`] writer as the run artifacts).

use psb_obs::{json, Json};
use std::cell::RefCell;
use std::io;
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

thread_local! {
    /// The result collector, merged by name so re-running a measurement
    /// keeps the latest number. Every bench binary measures on its main
    /// thread, so that thread's collector holds every row it writes.
    static RESULTS: RefCell<Vec<BenchResult>> = const { RefCell::new(Vec::new()) };
}

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
            RESULTS.with_borrow_mut(|all| upsert(all, result.clone()));
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

/// Print a group header so bench output stays scannable.
pub fn group(name: &str) {
    println!("\n== {name} ==");
}

fn upsert(all: &mut Vec<BenchResult>, result: BenchResult) {
    match all.iter_mut().find(|b| b.name == result.name) {
        Some(existing) => *existing = result,
        None => all.push(result),
    }
}

fn result_from_json(v: &Json) -> Option<BenchResult> {
    Some(BenchResult {
        name: v.get("name")?.as_str()?.to_owned(),
        ns_per_iter: v.get("ns_per_iter")?.as_f64()?,
        iters: v.get("iters")?.as_u64()?,
    })
}

/// Every row of a `psb-bench-v1` document, or what makes it unreadable.
fn read_rows(text: &str) -> Result<Vec<BenchResult>, String> {
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("psb-bench-v1") {
        return Err("not a psb-bench-v1 artifact".to_string());
    }
    let rows = doc.get("results").and_then(Json::as_arr).ok_or("no `results` array")?;
    let row = |(i, r)| {
        result_from_json(r).ok_or_else(|| {
            format!("results[{i}] needs a string `name`, numeric `ns_per_iter` and integer `iters`")
        })
    };
    rows.iter().enumerate().map(row).collect()
}

/// Merges this thread's results into the JSON artifact at `path`
/// (usually [`BENCH_JSON`]): existing entries with the same name are
/// replaced, everything else is preserved, so the bench binaries build
/// up one file across invocations. A missing file starts empty; a file
/// that cannot be read as `psb-bench-v1` rows is an error, and the file
/// is left as it was.
pub fn write_json(path: impl AsRef<std::path::Path>) -> io::Result<()> {
    let path = path.as_ref();
    let refuse = |kind, why: String| io::Error::new(kind, format!("{}: {why}", path.display()));
    let mut merged = match std::fs::read_to_string(path) {
        Ok(text) => read_rows(&text).map_err(|why| refuse(io::ErrorKind::InvalidData, why))?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(refuse(e.kind(), e.to_string())),
    };
    RESULTS.with_borrow(|fresh| fresh.iter().for_each(|r| upsert(&mut merged, r.clone())));
    let rows = Json::arr(merged.iter().map(BenchResult::to_json));
    let doc = Json::obj([("schema", Json::str("psb-bench-v1")), ("results", rows)]);
    std::fs::write(path, doc.to_string())
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
        assert!(RESULTS.with_borrow(|all| all.iter().any(|b| b.name == "micro_test_counter")));
    }

    #[test]
    fn bench_per_divides_by_the_units_of_work() {
        let r = bench_per("micro_test_units", 1000, || {
            std::hint::black_box(1 + 1);
        });
        assert_eq!(r.iters % 1000, 0);
        assert!(RESULTS.with_borrow(|all| all.iter().any(|b| b.name == "micro_test_units")));
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
    fn write_json_merges_rows_and_leaves_a_corrupt_artifact_untouched() {
        let path = std::env::temp_dir().join(format!("psb_bench_{}.json", std::process::id()));
        let fresh = BenchResult { name: "fresh".into(), ns_per_iter: 1.0, iters: 4 };
        let kept = BenchResult { name: "kept".into(), ns_per_iter: 2.5, iters: 8 };
        RESULTS.with_borrow_mut(|all| upsert(all, fresh.clone()));
        let good =
            r#"{"schema":"psb-bench-v1","results":[{"name":"kept","ns_per_iter":2.5,"iters":8}]}"#;
        let stringly = good.replace("2.5", "\"2.5\"");
        for (text, why) in [
            (r#"{"schema":"#, "invalid JSON"),
            (r#"{"schema":"psb-run-v1"}"#, "not a psb-bench-v1"),
            (stringly.as_str(), "results[0]"),
        ] {
            std::fs::write(&path, text).unwrap();
            let err = write_json(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            let msg = err.to_string();
            assert!(msg.contains(why) && msg.contains(&*path.to_string_lossy()), "{msg}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "a refused file changed");
        }
        let written = || read_rows(&std::fs::read_to_string(&path).unwrap());
        std::fs::write(&path, good).unwrap();
        write_json(&path).unwrap();
        assert_eq!(written(), Ok(vec![kept, fresh.clone()]));
        std::fs::remove_file(&path).unwrap();
        write_json(&path).unwrap();
        assert_eq!(written(), Ok(vec![fresh]));
        std::fs::remove_file(&path).unwrap();
    }
}
