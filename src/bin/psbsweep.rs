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
//!   --journal FILE     append a psb-sweep-journal-v1 record per
//!                      completed cell (fsync'd; crash-safe)
//!   --resume FILE      replay completed cells from FILE's journal and
//!                      run only the missing ones (appends to FILE)
//!   --serve ADDR       serve GET /progress, /metrics and /report over
//!                      HTTP on ADDR (e.g. 127.0.0.1:9090) while the
//!                      sweep runs
//!   --quiet            suppress per-cell progress lines
//! ```
//!
//! Output rows follow grid (submission) order — benchmark-major, then
//! prefetcher, then geometry — and are bit-identical for every
//! `--threads` value; only the wall-clock changes. When the grid
//! includes the `none` baseline, a per-row `speedup` column reports each
//! cell's IPC gain over the same benchmark/geometry/scale baseline.
//!
//! A killed `--journal` run loses nothing: `--resume` replays every
//! journaled cell from disk and the final artifact is byte-identical to
//! an uninterrupted run (the journal stores rendered entry *text*,
//! spliced verbatim — see `psb::sim::journal`).

use psb::mem::CacheConfig;
use psb::obs::prometheus;
use psb::serve::{Published, Route, Server};
use psb::sim::{
    f2, pct, read_sweep_report, run_journaled, sweep_report_from_texts, try_run_sweep_tracked,
    MachineConfig, PrefetcherKind, SimStats, SweepCell, SweepTracker, Table,
};
use psb::workloads::Benchmark;

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
         [--json FILE] [--journal FILE] [--resume FILE] [--serve ADDR] [--quiet]\n\
         kinds: {}\n\
         benchmarks: health burg deltablue gs sis turb3d\n\
         l1d geometries: 32k4 32k2 16k4",
        kind_names()
    );
    std::process::exit(2);
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

/// The live `/report` body: a `psb-sweep-v1` document flagged
/// `"partial":true`, carrying only the cells completed so far in grid
/// order. The flag flips off (and every cell appears) when the sweep
/// finishes.
fn partial_report(completed: &[Option<String>]) -> String {
    let mut out = String::from("{\"schema\":\"psb-sweep-v1\",\"partial\":true,\"cells\":[");
    let mut first = true;
    for entry in completed.iter().flatten() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(entry);
    }
    out.push_str("]}");
    out
}

/// The `--serve` plane: an HTTP server plus the two documents the sweep
/// republishes as cells complete (`/progress` updates itself through
/// the tracker's handle).
struct Serving {
    server: Server,
    metrics: Published<String>,
    report: Published<String>,
}

fn start_serving(addr: &str, tracker: &SweepTracker, obs: &psb::obs::Obs) -> Serving {
    // Register the sweep's instruments now (at zero) so the very first
    // `/metrics` poll — possibly before any cell completes — already
    // carries them instead of an empty registry.
    obs.counter("sweep.cells_total");
    obs.counter("sweep.cells_completed");
    obs.counter("sweep.workers");
    obs.hist("sweep.cell_micros");
    let metrics = Published::new(prometheus::render(&obs.registry_snapshot()));
    let report = Published::new(partial_report(&[]));
    let server = Server::bind(
        addr,
        vec![
            Route::new("/progress", "application/json", tracker.handle()),
            Route::new("/metrics", "text/plain; version=0.0.4", metrics.clone()),
            Route::new("/report", "application/json", report.clone()),
        ],
    )
    .unwrap_or_else(|e| {
        eprintln!("psbsweep: cannot serve on {addr}: {e}");
        std::process::exit(1);
    });
    eprintln!("serving /progress /metrics /report on http://{}/", server.local_addr());
    Serving { server, metrics, report }
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
    let mut journal: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut serve_addr: Option<String> = None;
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
            "--journal" => journal = Some(args.next().unwrap_or_else(|| usage())),
            "--resume" => resume = Some(args.next().unwrap_or_else(|| usage())),
            "--serve" => serve_addr = Some(args.next().unwrap_or_else(|| usage())),
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
    if journal.is_some() && resume.is_some() {
        eprintln!("psbsweep: --journal starts a fresh journal, --resume continues one; pick one");
        usage()
    }
    if csv && resume.is_some() {
        // Replayed cells exist only as rendered psb-sweep-v1 entries;
        // the 21-column CSV needs the raw counters a journal drops.
        eprintln!("psbsweep: --csv is unavailable with --resume (use the --json artifact)");
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

    let obs = psb::obs::Obs::new();
    let tracker = SweepTracker::new(cells.len());
    let serving = serve_addr.as_deref().map(|addr| start_serving(addr, &tracker, &obs));

    eprintln!(
        "sweeping {} cells ({} benchmarks x {} configs)...",
        cells.len(),
        benches.len(),
        kinds.len() * geometries.len()
    );
    let start = std::time::Instant::now();

    // Per-cell results, filled as cells complete (in either mode):
    // rendered entry texts for the artifact and the serve plane, full
    // stats where the cell actually ran in this process.
    let mut completed: Vec<Option<String>> = vec![None; cells.len()];
    let mut stats_by_cell: Vec<Option<SimStats>> = vec![None; cells.len()];
    let mut cell_micros: u64 = 0;

    let entry_texts: Vec<String> = {
        let republish = |completed: &[Option<String>]| {
            if let Some(s) = &serving {
                s.metrics.publish(prometheus::render(&obs.registry_snapshot()));
                s.report.publish(partial_report(completed));
            }
        };
        let journal_path = journal.as_deref().or(resume.as_deref());
        let result = if let Some(path) = journal_path {
            run_journaled(
                &cells,
                threads,
                Some(&obs),
                std::path::Path::new(path),
                resume.is_some(),
                Some(&tracker),
                |e| {
                    if !quiet {
                        if e.replayed {
                            eprintln!(
                                "[{}/{}] {}/{} replayed from journal",
                                e.done,
                                e.total,
                                e.cell.bench.name(),
                                e.cell.label()
                            );
                        } else {
                            eprintln!(
                                "[{}/{}] {}/{} done in {:.2}s",
                                e.done,
                                e.total,
                                e.cell.bench.name(),
                                e.cell.label(),
                                e.wall_micros as f64 / 1e6
                            );
                        }
                    }
                    cell_micros += e.wall_micros;
                    stats_by_cell[e.index] = e.stats.cloned();
                    completed[e.index] = Some(e.entry_text.to_string());
                    republish(&completed);
                },
            )
            .map_err(|e| e.to_string())
        } else {
            let sweep =
                try_run_sweep_tracked(&cells, threads, Some(&obs), Some(&tracker), None, |p| {
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
                    completed[p.index] =
                        Some(psb::sim::sweep_cell_entry(p.cell, p.stats).to_string());
                    stats_by_cell[p.index] = Some(p.stats.clone());
                    republish(&completed);
                });
            match sweep {
                Ok(_) => Ok(completed
                    .iter()
                    .map(|e| e.clone().expect("invariant: every cell completed"))
                    .collect()),
                Err(e) => Err(e.to_string()),
            }
        };
        // A panicking cell must not exit zero with partial output (or no
        // output at all): name the cell — benchmark, config label, scale
        // — and fail loudly so scripts and CI catch it.
        match result {
            Ok(texts) => texts,
            Err(e) => {
                eprintln!("psbsweep: {e}");
                std::process::exit(1);
            }
        }
    };

    let wall = start.elapsed().as_secs_f64();
    eprintln!(
        "sweep finished in {wall:.2}s wall ({:.2}s of cell work, {} workers)",
        cell_micros as f64 / 1e6,
        obs.counter("sweep.workers").get()
    );

    let final_doc = sweep_report_from_texts(&entry_texts);
    if let Some(s) = &serving {
        // The last `/report` body anyone polls is the complete,
        // non-partial artifact.
        s.report.publish(final_doc.clone());
        s.metrics.publish(prometheus::render(&obs.registry_snapshot()));
    }
    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, &final_doc) {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote sweep artifact to {path}");
    }

    let entries = read_sweep_report(&final_doc).unwrap_or_else(|e| {
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
        for ((i, cell), speedup) in cells.iter().enumerate().zip(&speedups) {
            let stats = stats_by_cell[i]
                .as_ref()
                .expect("invariant: --csv is rejected when cells can replay without stats");
            println!(
                "{},{},{},{},{}",
                cell.bench.name(),
                cell.label(),
                cell.scale,
                speedup.map_or_else(String::new, |s| format!("{s:.4}")),
                stats.csv_row()
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
    // Rows render from the cells' psb-sweep-v1 entries, the only numbers
    // a cell replayed from a journal has.
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

    if let Some(s) = serving {
        s.server.shutdown();
    }
}
