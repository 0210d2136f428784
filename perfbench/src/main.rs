//! `psb-perfbench` — the repository benchmark: end-to-end host time of
//! whole simulator runs, and a per-layer ledger of where that time goes.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <shootout|stall|observed|all> [--seed N] [--seconds N] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --bless
//! ```
//!
//! Every workload is a closed batch of simulation cells generated in one
//! process. `--trace 0` repeats the batch for about `--seconds` and prints
//! the end-to-end metrics; `--trace 1` runs the batch once untraced and once
//! through the layer ledger (see `ledger.rs`) and prints the per-layer
//! metrics. The last stdout line is one JSON object. `--workload all` runs
//! each workload in a child process of its own. `--bless` rewrites
//! `perfbench/expected.json` from the current simulator.
//!
//! The seed only permutes cell order: the trace generators are fixed-seed,
//! so simulated results never depend on it, and outputs are checked by
//! (benchmark, engine, scale) key.

mod expect;
mod ledger;
mod span;

use expect::{bless_entry, fnv1a, ExpectedSet, ObsDigest};
use ledger::{full_obs, ledger_cell, CellLedger, ClockCost};
use psb_common::SplitMix64;
use psb_obs::Json;
use psb_sim::{
    json_report, run_ordered_tracked, shootout_cells, try_run_sweep_with, MachineConfig, MemLog,
    PrefetcherKind, SimStats, Simulation, SweepCell,
};
use psb_workloads::{clear_trace_cache, Benchmark};
use span::Span;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["shootout", "stall", "observed"];
/// How many times set-up (trace generation) is repeated; the median counts.
const SETUP_REPS: usize = 11;
const SHOOTOUT_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/shootout.json");
const EXPECTED_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 55.0, trace: false, bless: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.bless && args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {} or all", WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// A workload: cells run back to back over a pool of `workers`.
struct Workload {
    cells: Vec<SweepCell>,
    workers: usize,
    /// Cells run with the full observability stack and render their
    /// psb-run-v1 report and Chrome trace in memory.
    observed: bool,
}

impl Workload {
    /// The named workload with its cells permuted by `seed`.
    fn new(name: &str, seed: u64) -> Workload {
        let on = |benches: [Benchmark; 2], kind: PrefetcherKind, scale: u32| {
            let config = MachineConfig::baseline().with_prefetcher(kind);
            benches.map(|b| SweepCell::new(b, config, scale)).to_vec()
        };
        let mut w = match name {
            // The ROADMAP's grid: every engine, and the only pool workload.
            "shootout" => {
                Workload { cells: shootout_cells(&Benchmark::ALL, 1), workers: 2, observed: false }
            }
            // Pipeline-bound: most cycles commit nothing, the engine idles.
            "stall" => Workload {
                cells: on([Benchmark::Sis, Benchmark::Health], PrefetcherKind::None, 2),
                workers: 1,
                observed: false,
            },
            // The instrumented path, which turns off the quiescent skip.
            _ => Workload {
                cells: on(
                    [Benchmark::Health, Benchmark::Turb3d],
                    PrefetcherKind::PsbConfPriority,
                    1,
                ),
                workers: 1,
                observed: true,
            },
        };
        SplitMix64::new(seed).shuffle(&mut w.cells);
        w
    }

    /// The distinct traces the cells read, in benchmark order.
    fn traces(&self) -> Vec<(Benchmark, u32)> {
        let mut t: Vec<_> = self.cells.iter().map(|c| (c.bench, c.scale)).collect();
        t.sort();
        t.dedup();
        t
    }
}

/// What an observed cell rendered.
struct Rendered {
    digest: ObsDigest,
    trace_bytes: usize,
    render_s: f64,
    /// Seconds spent digesting the output, which the pass wall excludes.
    check_s: f64,
}

/// One cell's outcome in a pass; `stats` is `None` when it panicked.
/// `secs` is the cell's simulate time, rendering excluded.
struct CellRun {
    cell: usize,
    stats: Option<SimStats>,
    secs: f64,
    rendered: Option<Rendered>,
}

struct Pass {
    wall: f64,
    runs: Vec<CellRun>,
}

/// Runs every cell once. Instrumented cells run one after another; the
/// others go through the sweep pool, and a panicking cell is recorded
/// as failed while the rest of the grid runs again without it.
fn run_pass(w: &Workload, observed: bool) -> Pass {
    let start = Instant::now();
    let runs = if observed {
        w.cells.iter().enumerate().map(|(i, c)| run_observed(i, c)).collect()
    } else {
        let mut pending: Vec<usize> = (0..w.cells.len()).collect();
        let mut runs = Vec::new();
        loop {
            let batch: Vec<SweepCell> = pending.iter().map(|&i| w.cells[i]).collect();
            match try_run_sweep_with(&batch, w.workers, None, |_| {}) {
                Ok(outcomes) => {
                    runs.extend(pending.iter().zip(outcomes).map(|(&cell, o)| CellRun {
                        cell,
                        stats: Some(o.stats),
                        secs: o.wall_micros as f64 / 1e6,
                        rendered: None,
                    }));
                    break runs;
                }
                Err(e) => {
                    eprintln!("{e}");
                    let cell = pending.remove(e.index);
                    runs.push(CellRun { cell, stats: None, secs: 0.0, rendered: None });
                }
            }
        }
    };
    let check_s: f64 = runs.iter().filter_map(|r| Some(r.rendered.as_ref()?.check_s)).sum();
    Pass { wall: start.elapsed().as_secs_f64() - check_s, runs }
}

/// Runs one cell with the full observability stack, then renders its
/// psb-run-v1 report and Chrome trace in memory.
fn run_observed(index: usize, cell: &SweepCell) -> CellRun {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        let obs = full_obs();
        let trace = cell.bench.shared_trace(cell.scale);
        let stats = Simulation::new_shared(cell.config, trace, cell.max_commits)
            .with_obs(obs.clone())
            .with_event_log(MemLog::shared_ring(1000))
            .run();
        let sim_secs = start.elapsed().as_secs_f64();
        let render = Instant::now();
        let report = json_report(cell.bench.name(), &cell.label(), &stats, Some(&obs)).to_string();
        let trace = obs.trace_json().unwrap_or(Json::Null);
        let events = trace.get("traceEvents").and_then(Json::as_arr).map_or(0, <[Json]>::len);
        let trace = trace.to_string();
        let render_s = render.elapsed().as_secs_f64();
        let check = Instant::now();
        let digest = ObsDigest { trace_events: events as u64, digest: fnv1a(&[&report, &trace]) };
        let check_s = check.elapsed().as_secs_f64();
        (stats, sim_secs, Rendered { digest, trace_bytes: trace.len(), render_s, check_s })
    }));
    match out {
        Ok((stats, secs, rendered)) => {
            CellRun { cell: index, stats: Some(stats), secs, rendered: Some(rendered) }
        }
        Err(_) => CellRun { cell: index, stats: None, secs: 0.0, rendered: None },
    }
}

/// Checks every run of a pass; returns how many cells failed.
fn check_pass(w: &Workload, expected: &ExpectedSet, pass: &Pass) -> u64 {
    let mut failed = 0;
    for run in &pass.runs {
        let cell = &w.cells[run.cell];
        let verdict = match &run.stats {
            None => Err(format!("{}/{}: panicked", cell.bench.name(), cell.label())),
            Some(stats) => expected.check(cell, stats, run.rendered.as_ref().map(|r| r.digest)),
        };
        if let Err(e) = verdict {
            eprintln!("output check failed: {e}");
            failed += 1;
        }
    }
    failed
}

/// Times trace generation `SETUP_REPS` times from a cold trace cache and
/// leaves the cache warm. Returns each repetition's seconds and the
/// instructions generated per repetition.
fn setup(w: &Workload) -> (Vec<f64>, u64) {
    let mut secs = Vec::new();
    let mut insts = 0;
    for _ in 0..SETUP_REPS {
        clear_trace_cache();
        let start = Instant::now();
        insts = w.traces().iter().map(|&(b, s)| b.shared_trace(s).len() as u64).sum();
        secs.push(start.elapsed().as_secs_f64());
    }
    (secs, insts)
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v.get(rank.saturating_sub(1)).copied().unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The expected outputs of a workload.
fn expected_for(name: &str) -> Result<ExpectedSet, String> {
    let path = if name == "shootout" { SHOOTOUT_JSON } else { EXPECTED_JSON };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    ExpectedSet::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// A finished run: correctness, cell counts and named metrics.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<28} {value:>16.6} {unit}");
        }
        let metrics = self.metrics.iter().map(|&(name, value, unit)| {
            (name, Json::obj([("value", Json::f64(value)), ("unit", Json::str(unit))]))
        });
        let doc = Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::u64(self.attempted)),
            ("failed", Json::u64(self.failed)),
            ("metrics", Json::obj(metrics)),
        ]);
        println!("{doc}");
    }
}

/// The geometric-mean IPC gain, in percent, of ConfAlloc-Priority over
/// Base across the pointer-based benchmarks (the paper's Fig. 5 headline).
fn psb_speedup_pct(ipc: impl Fn(Benchmark, PrefetcherKind) -> Option<f64>) -> Option<f64> {
    let mut log_sum = 0.0;
    for b in Benchmark::POINTER_BASED {
        let gain = ipc(b, PrefetcherKind::PsbConfPriority)? / ipc(b, PrefetcherKind::None)?;
        log_sum += gain.ln();
    }
    Some(((log_sum / Benchmark::POINTER_BASED.len() as f64).exp() - 1.0) * 100.0)
}

/// `--trace 0`: repeats the batch for about `seconds`.
fn end_to_end(name: &str, args: &Args) -> Result<Report, String> {
    let expected = expected_for(name)?;
    let w = Workload::new(name, args.seed);
    let (setup_secs, _) = setup(&w);
    let mut walls = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut first: Option<Pass> = None;
    let start = Instant::now();
    loop {
        let pass = run_pass(&w, w.observed);
        attempted += pass.runs.len() as u64;
        failed += check_pass(&w, &expected, &pass);
        walls.push(pass.wall);
        first.get_or_insert(pass);
        // Another pass only if it ends at most half a pass past the
        // deadline: the pass count is `seconds / pass` rounded.
        if start.elapsed().as_secs_f64() + median(&walls) / 2.0 > args.seconds {
            break;
        }
    }
    eprintln!("{name}: pass walls (s) {walls:.3?}");
    let first = first.expect("invariant: the loop runs at least one pass");
    let stats: Vec<(&SweepCell, &SimStats)> =
        first.runs.iter().filter_map(|r| Some((&w.cells[r.cell], r.stats.as_ref()?))).collect();
    let committed: u64 = stats.iter().map(|(_, s)| s.cpu.committed).sum();
    let cycles: u64 = stats.iter().map(|(_, s)| s.cpu.cycles).sum();
    let mut headline_ok = true;
    if name == "shootout" {
        let measured = psb_speedup_pct(|b, k| {
            let (_, s) = stats.iter().find(|(c, _)| c.bench == b && c.config.prefetcher == k)?;
            Some(s.ipc())
        });
        let committed_value = psb_speedup_pct(|b, k| {
            let cell = SweepCell::new(b, MachineConfig::baseline().with_prefetcher(k), 1);
            Some(expected.get(&cell)?.ipc())
        });
        println!("psb_speedup_pct {measured:?} (results/shootout.json: {committed_value:?})");
        headline_ok = measured.is_some() && measured == committed_value;
    }
    let wall_s = median(&walls);
    Ok(Report {
        correct: failed == 0 && headline_ok,
        attempted,
        failed,
        metrics: vec![
            ("wall_s", wall_s, "s"),
            ("sim_mips", ratio(committed as f64 / 1e6, wall_s), "MIPS"),
            ("setup_s", median(&setup_secs), "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
            ("pass_share", ratio((attempted - failed) as f64, attempted as f64), "ratio"),
            ("sim_cycles", cycles as f64, "cycles"),
        ],
    })
}

/// `--trace 1`: one untraced pass, then the layer ledger over the same
/// cells. Refuses the ledger (reports it incorrect) unless every traced
/// and replayed cell reproduces the untraced statistics.
/// The spans go to a file when the run ends.
fn layers(name: &str, args: &Args) -> Result<Report, String> {
    let expected = expected_for(name)?;
    let w = Workload::new(name, args.seed);
    let epoch = Instant::now();
    let mut spans = Vec::new();

    let start = Instant::now();
    let (setup_secs, insts) = setup(&w);
    spans.push(Span::new("setup", "run", 0, epoch, start));

    let start = Instant::now();
    let pass = run_pass(&w, w.observed);
    spans.push(Span::new("untraced_pass", "run", 0, epoch, start));
    let mut failed = check_pass(&w, &expected, &pass);
    let mut attempted = pass.runs.len() as u64;

    // The same cells with obs off, for the observability overhead.
    let obs_off_wall = if w.observed {
        let start = Instant::now();
        let off = run_pass(&w, false);
        spans.push(Span::new("obs_off_pass", "run", 0, epoch, start));
        off.wall
    } else {
        pass.wall
    };

    // Render time: observed cells render inside the pass; for the rest,
    // time rendering each cell's psb-run-v1 report.
    let mut untraced: Vec<Option<SimStats>> = vec![None; w.cells.len()];
    let mut cell_secs = Vec::new();
    let mut render_s = 0.0;
    let (mut trace_events, mut trace_bytes) = (0, 0);
    let start = Instant::now();
    for run in pass.runs {
        cell_secs.push(run.secs);
        let cell = &w.cells[run.cell];
        match (&run.rendered, &run.stats) {
            (Some(r), _) => {
                render_s += r.render_s;
                trace_events += r.digest.trace_events;
                trace_bytes += r.trace_bytes;
            }
            (None, Some(stats)) => {
                let t = Instant::now();
                let text = json_report(cell.bench.name(), &cell.label(), stats, None).to_string();
                std::hint::black_box(text);
                render_s += t.elapsed().as_secs_f64();
            }
            (None, None) => {}
        }
        untraced[run.cell] = run.stats;
    }
    spans.push(Span::new("render", "run", 0, epoch, start));

    let clock = ClockCost::measure();
    let start = Instant::now();
    let jobs: Vec<(usize, SimStats)> =
        untraced.iter().enumerate().filter_map(|(i, s)| Some((i, s.clone()?))).collect();
    let ledgers: Vec<CellLedger> = run_ordered_tracked(
        &jobs,
        w.workers,
        |worker, _, (i, stats)| {
            ledger_cell(&w.cells[*i], w.observed, stats, clock, epoch, worker + 1)
        },
        |_, _| {},
    )
    .map_err(|p| format!("ledger cell {} panicked: {}", p.index, p.message))?;
    spans.push(Span::new("ledger", "run", 0, epoch, start));
    attempted += ledgers.len() as u64;
    for l in &ledgers {
        if let Some(m) = &l.mismatch {
            eprintln!("ledger refused: {m}");
            failed += 1;
        }
        spans.extend(l.spans.iter().cloned());
    }

    let sum = |f: &dyn Fn(&CellLedger) -> f64| ledgers.iter().map(f).sum::<f64>();
    let cycles = sum(&|l| l.stats.cpu.cycles as f64);
    let pf_issued = sum(&|l| l.stats.prefetch.issued as f64);
    let sb_lookups = sum(&|l| l.stats.prefetch.lookups as f64);
    let record_ns = sum(&|l| l.record_ns);
    let untraced_ns = cell_secs.iter().sum::<f64>() * 1e9;
    let trace_s = median(&setup_secs);
    let metrics = vec![
        ("workloads.trace_s", trace_s, "s"),
        ("workloads.ns_per_inst", ratio(trace_s * 1e9, insts as f64), "ns"),
        ("cpu.ns_per_cycle", ratio(sum(&|l| l.cpu_ns), cycles), "ns"),
        ("cpu.share", ratio(sum(&|l| l.cpu_ns), record_ns), "ratio"),
        ("cpu.no_commit_cycle_share", ratio(sum(&|l| l.no_commit_cycles as f64), cycles), "ratio"),
        ("cpu.cycles", cycles, "count"),
        ("cpu.committed", sum(&|l| l.stats.cpu.committed as f64), "count"),
        ("mem.ns_per_cycle", ratio(sum(&|l| l.mem_ns), cycles), "ns"),
        ("mem.calls_per_cycle", ratio(sum(&|l| l.mem_calls as f64), cycles), "count"),
        (
            "mem.l1d_miss_rate",
            ratio(sum(&|l| l.stats.l1d.misses as f64), sum(&|l| l.stats.l1d.accesses() as f64)),
            "ratio",
        ),
        (
            "mem.l2_miss_rate",
            ratio(
                sum(&|l| l.stats.lower.l2_misses as f64),
                sum(&|l| (l.stats.lower.l2_hits + l.stats.lower.l2_misses) as f64),
            ),
            "ratio",
        ),
        (
            "mem.avg_load_latency_cyc",
            ratio(
                sum(&|l| l.stats.cpu.load_latency.sum() as f64),
                sum(&|l| l.stats.cpu.load_latency.count() as f64),
            ),
            "cycles",
        ),
        ("mem.l1_l2_bus_pct", 100.0 * ratio(sum(&|l| l.stats.l1_l2_busy as f64), cycles), "%"),
        ("core.ns_per_cycle", ratio(sum(&|l| l.core_ns), cycles), "ns"),
        ("core.tick_share", ratio(sum(&|l| l.engine_ticks as f64), cycles), "ratio"),
        ("core.pf_accuracy", ratio(sum(&|l| l.stats.prefetch.used as f64), pf_issued), "ratio"),
        ("core.pf_issued", pf_issued, "count"),
        ("core.sb_hit_rate", ratio(sum(&|l| l.stats.prefetch.hits as f64), sb_lookups), "ratio"),
        ("core.sb_lookups", sb_lookups, "count"),
        ("sim.cell_s_p50", percentile(&cell_secs, 50.0), "s"),
        ("sim.cell_s_p86", percentile(&cell_secs, 86.0), "s"),
        ("sim.pool_util", ratio(cell_secs.iter().sum(), w.workers as f64 * pass.wall), "ratio"),
        ("obs.overhead_ratio", ratio(pass.wall, obs_off_wall), "ratio"),
        ("obs.render_s", render_s, "s"),
        ("obs.trace_events", trace_events as f64, "count"),
        ("obs.trace_mb", trace_bytes as f64 / 1e6, "MB"),
        ("ledger.overhead_ratio", ratio(record_ns, untraced_ns), "ratio"),
    ];
    let path = spans_path(name);
    let written = std::fs::create_dir_all(path.parent().unwrap_or(".".as_ref()))
        .and_then(|()| std::fs::write(&path, span::to_json(&spans).to_string()));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    Ok(Report { correct: failed == 0, attempted, failed, metrics })
}

/// Where the span file goes: the build directory `CARGO_TARGET_DIR` names, or
/// `.bench_build` under the working directory.
fn spans_path(workload: &str) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    std::path::Path::new(&dir).join(format!("perfbench-spans-{workload}.json"))
}

/// `--bless`: runs `stall` and `observed` once and rewrites their
/// expected outputs.
fn bless() -> Result<(), String> {
    let mut entries = Vec::new();
    for name in ["stall", "observed"] {
        let w = Workload::new(name, 0);
        for run in run_pass(&w, w.observed).runs {
            let cell = &w.cells[run.cell];
            let stats = run.stats.ok_or_else(|| format!("{}: cell panicked", cell.bench))?;
            entries.push(bless_entry(cell, &stats, run.rendered.map(|r| r.digest)));
        }
    }
    let doc = Json::obj([("schema", Json::str("psb-sweep-v1")), ("cells", Json::arr(entries))]);
    std::fs::write(EXPECTED_JSON, format!("{doc}\n")).map_err(|e| format!("{EXPECTED_JSON}: {e}"))
}

/// `--workload all`: each workload in a child process of its own, so
/// none inherits another's peak resident memory.
fn run_all() -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for name in WORKLOADS {
        let mut argv: Vec<String> = std::env::args().skip(1).collect();
        let at = argv.iter().position(|a| a == "--workload").expect("invariant: parsed");
        argv[at + 1] = name.to_owned();
        println!("== {name}");
        let status = std::process::Command::new(&exe)
            .args(&argv)
            .status()
            .map_err(|e| format!("{name}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.bless {
        bless().map(|()| true)
    } else if args.workload == "all" {
        run_all()
    } else if args.trace {
        layers(&args.workload, &args).map(|report| {
            report.print();
            true
        })
    } else {
        end_to_end(&args.workload, &args).map(|report| {
            report.print();
            true
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
