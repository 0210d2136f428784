//! `psbsweep` — the parallel sweep front end: a (benchmark × prefetcher
//! × L1D-geometry) grid fanned out over a worker pool with shared-trace
//! caching.
//!
//! ```text
//! psbsweep [OPTIONS]
//!
//! OPTIONS:
//!   --bench LIST       comma-separated benchmarks, or `all`
//!                      (health burg deltablue gs sis turb3d) [default: all]
//!                      (`--benches` is accepted as an alias)
//!   --prefetcher LIST  comma-separated registry names, `paper` (the six
//!                      Figure-5 configs) or `all` (every registered
//!                      engine)                         [default: paper]
//!                      (`--prefetchers` is accepted as an alias)
//!   --l1d LIST         comma-separated geometries: 32k4 | 32k2 | 16k4
//!                                                   [default: 32k4]
//!   --scale N          trace scale, at least 1       [default: 1]
//!   --max N            commit at most N instructions per cell
//!   --threads N        worker threads (0 = one per core) [default: 0]
//!   --csv              emit machine-readable CSV instead of a table
//!   --json FILE        write the merged psb-sweep-v1 artifact
//!   --quiet            suppress per-cell progress lines
//! ```
//!
//! Output rows follow grid (submission) order — benchmark-major, then
//! prefetcher, then geometry — and are bit-identical for every
//! `--threads` value; only the wall-clock changes. When the grid
//! includes the `none` baseline, a per-row `speedup` column reports each
//! cell's IPC gain over the same benchmark/geometry/scale baseline.

use psb::mem::CacheConfig;
use psb::sim::{
    f2, pct, read_sweep_report, sweep_report, try_run_sweep_with, MachineConfig, PrefetcherKind,
    SimStats, SweepCell, Table,
};
use psb::workloads::Benchmark;
use std::io::Write;

/// The registry's engine names, for help text that cannot drift from
/// the engines actually registered.
fn kind_names() -> String {
    let names: Vec<&str> = PrefetcherKind::ALL.iter().map(|k| k.cli_name()).collect();
    names.join(" ")
}

fn usage() -> ! {
    eprintln!(
        "usage: psbsweep [--bench LIST|all] [--prefetcher LIST|paper|all] \
         [--l1d LIST] [--scale N] [--max N] [--threads N] [--csv] \
         [--json FILE] [--quiet]\n\
         kinds: {}\n\
         benchmarks: health burg deltablue gs sis turb3d\n\
         l1d geometries: 32k4 32k2 16k4",
        kind_names()
    );
    std::process::exit(2);
}

/// Exits with a message naming `path` when an I/O step on it failed.
fn or_exit<T>(path: &str, result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    })
}

/// Creates (or truncates) `path` for writing after the sweep.
fn create_file(path: String) -> (String, std::fs::File) {
    let file = or_exit(&path, std::fs::File::create(&path));
    (path, file)
}

fn parse_benches(spec: &str) -> Vec<Benchmark> {
    if spec == "all" {
        return Benchmark::ALL.to_vec();
    }
    spec.split(',')
        .map(|name| {
            name.parse().unwrap_or_else(|e| {
                eprintln!("psbsweep: {e}");
                usage()
            })
        })
        .collect()
}

fn parse_kinds(spec: &str) -> Vec<PrefetcherKind> {
    match spec {
        "paper" => PrefetcherKind::PAPER.to_vec(),
        "all" => PrefetcherKind::ALL.to_vec(),
        _ => spec
            .split(',')
            .map(|name| {
                name.parse().unwrap_or_else(|e| {
                    eprintln!("psbsweep: {e}");
                    usage()
                })
            })
            .collect(),
    }
}

fn parse_geometries(spec: &str) -> Vec<CacheConfig> {
    spec.split(',')
        .map(|name| match name {
            "32k4" => CacheConfig::l1d_32k_4way(),
            "32k2" => CacheConfig::l1d_32k_2way(),
            "16k4" => CacheConfig::l1d_16k_4way(),
            other => {
                eprintln!("psbsweep: unknown l1d geometry `{other}` (expected 32k4, 32k2, 16k4)");
                usage()
            }
        })
        .collect()
}

/// Index of the `none`-prefetcher cell sharing `cell`'s benchmark,
/// geometry and scale, for the speedup column.
fn baseline_index(cells: &[SweepCell], cell: &SweepCell) -> Option<usize> {
    cells.iter().position(|c| {
        c.bench == cell.bench
            && c.scale == cell.scale
            && c.config.mem.l1d == cell.config.mem.l1d
            && c.config.prefetcher == PrefetcherKind::None
    })
}

fn main() {
    let mut benches = Benchmark::ALL.to_vec();
    let mut kinds = PrefetcherKind::PAPER.to_vec();
    let mut geometries = vec![CacheConfig::l1d_32k_4way()];
    let mut scale = std::num::NonZeroU32::MIN;
    let mut max = u64::MAX;
    let mut threads = 0usize;
    let mut csv = false;
    let mut json_out: Option<String> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--bench" | "--benches" => {
                benches = parse_benches(&args.next().unwrap_or_else(|| usage()))
            }
            "--prefetcher" | "--prefetchers" => {
                kinds = parse_kinds(&args.next().unwrap_or_else(|| usage()))
            }
            "--l1d" => geometries = parse_geometries(&args.next().unwrap_or_else(|| usage())),
            "--scale" => {
                scale = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--max" => max = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()),
            "--threads" => {
                threads = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--csv" => csv = true,
            "--json" => json_out = Some(args.next().unwrap_or_else(|| usage())),
            "--quiet" => quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("psbsweep: unknown argument `{other}`");
                usage()
            }
        }
    }
    if benches.is_empty() || kinds.is_empty() || geometries.is_empty() {
        eprintln!("psbsweep: empty grid");
        usage()
    }

    // Grid order: benchmark-major, then prefetcher, then geometry — the
    // submission order the output keeps regardless of worker scheduling.
    let mut cells = Vec::new();
    for &bench in &benches {
        for &kind in &kinds {
            for &l1d in &geometries {
                let config = MachineConfig::baseline().with_prefetcher(kind).with_l1d(l1d);
                cells.push(SweepCell::new(bench, config, scale.get()).with_max_commits(max));
            }
        }
    }

    // Create the artifact file before sweeping, so a bad path fails
    // before the grid runs rather than after it.
    let json_file = json_out.map(create_file);

    let obs = psb::obs::Obs::new();
    eprintln!(
        "sweeping {} cells ({} benchmarks x {} configs)...",
        cells.len(),
        benches.len(),
        kinds.len() * geometries.len()
    );
    let start = std::time::Instant::now();
    let mut cell_micros: u64 = 0;
    let sweep = try_run_sweep_with(&cells, threads, Some(&obs), |p| {
        if !quiet {
            eprintln!(
                "[{}/{}] {}/{} done in {:.2}s",
                p.done,
                p.total,
                p.cell.bench.name(),
                p.cell.label(),
                p.wall_micros as f64 / 1e6
            );
        }
        cell_micros += p.wall_micros;
    });
    // A panicking cell must not exit zero with partial output (or no
    // output at all): name the cell — benchmark, config label, scale —
    // and fail loudly so scripts and CI catch it.
    let outcomes = sweep.unwrap_or_else(|e| {
        eprintln!("psbsweep: {e}");
        std::process::exit(1);
    });

    let wall = start.elapsed().as_secs_f64();
    eprintln!(
        "sweep finished in {wall:.2}s wall ({:.2}s of cell work, {} workers)",
        cell_micros as f64 / 1e6,
        obs.counter("sweep.workers").get()
    );

    let doc = sweep_report(&cells, &outcomes).to_string();
    if let Some((path, mut file)) = json_file {
        or_exit(&path, file.write_all(doc.as_bytes()));
        eprintln!("wrote sweep artifact to {path}");
    }

    let entries = read_sweep_report(&doc).unwrap_or_else(|e| {
        eprintln!("psbsweep: {e}");
        std::process::exit(1);
    });
    let ipc_of = |i: usize| entries[i].num("ipc").unwrap_or(0.0);
    let speedups: Vec<Option<f64>> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let b = baseline_index(&cells, cell)
                .filter(|&b| cells[b].config.prefetcher != cell.config.prefetcher)?;
            let base = ipc_of(b);
            Some(if base == 0.0 { 0.0 } else { (ipc_of(i) / base - 1.0) * 100.0 })
        })
        .collect();

    if csv {
        println!("benchmark,config,scale,speedup_pct,{}", SimStats::CSV_HEADER);
        for ((cell, outcome), speedup) in cells.iter().zip(&outcomes).zip(&speedups) {
            println!(
                "{},{},{},{},{}",
                cell.bench.name(),
                cell.label(),
                cell.scale,
                speedup.map_or_else(String::new, |s| format!("{s:.4}")),
                outcome.stats.csv_row()
            );
        }
        return;
    }

    let mut t = Table::new(
        ["benchmark", "config", "IPC", "L1D MR", "ld-lat", "L1-L2 bus", "pf acc", "speedup"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    // Rows render from the cells' psb-sweep-v1 entries, through the one
    // reader the figure views use.
    for (entry, speedup) in entries.iter().zip(&speedups) {
        let num = |path| entry.num(path).unwrap_or(0.0);
        t.row(vec![
            entry.benchmark.clone(),
            entry.config.clone(),
            f2(num("ipc")),
            f2(num("l1d.miss_rate")),
            f2(num("avg_load_latency")),
            pct(num("bus.l1_l2_util_pct")),
            pct(num("prefetch.accuracy") * 100.0),
            speedup.map_or_else(|| "-".to_owned(), |s| format!("{s:+.1}%")),
        ]);
    }
    print!("{t}");
}
