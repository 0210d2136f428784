//! `psbsim` — the command-line front end to the simulator.
//!
//! ```text
//! psbsim [OPTIONS] <benchmark>
//!
//! ARGS:
//!   <benchmark>      health | burg | deltablue | gs | sis | turb3d
//!                    (also accepted as `--bench <benchmark>`)
//!
//! OPTIONS:
//!   --prefetcher X   any engine registered in psb-core (run with
//!                    `--help` for the live list: none, sequential,
//!                    pangloss, dspatch, conf-priority, ...)
//!                                             [default: conf-priority]
//!   --l1d X          32k4 | 32k2 | 16k4       [default: 32k4]
//!   --no-dis         disable perfect store-set disambiguation
//!   --scale N        trace scale, at least 1  [default: 1]
//!   --max N          commit at most N instructions
//!   --compare        also run the no-prefetch baseline and report speedup
//!   --dump FILE      write the generated trace (PSBT format) and exit
//!   --load FILE      simulate a previously dumped trace instead of
//!                    generating one (benchmark argument not needed)
//!   --victim N       add an N-entry victim cache beside the L1D
//!   --csv            emit machine-readable CSV instead of a table
//!   --log N          print the first N memory events (debug/teaching)
//!   --log-last N     print the last N memory events (ring buffer)
//!   --json FILE      write the psb-run-v1 JSON artifact (aggregate
//!                    stats, lifecycle counts, epochs, metrics)
//!   --trace-out FILE write a Chrome trace-event file (load it in
//!                    Perfetto / chrome://tracing; one track per
//!                    stream buffer)
//!   --interval N     sample the interval time series every N cycles
//!                    (recorded into the --json artifact)
//!   --serve ADDR     serve GET /progress, /metrics and /report over
//!                    HTTP on ADDR (e.g. 127.0.0.1:9090) while the
//!                    simulation runs; implies --interval 100000 when
//!                    no interval is given (epoch closes drive the
//!                    live updates)
//! ```

use psb::cpu::Disambiguation;
use psb::mem::CacheConfig;
use psb::obs::{prometheus, Json};
use psb::serve::{Published, Route, Server};
use psb::sim::{f2, pct, MachineConfig, PrefetcherKind, SimStats, Simulation, SweepTracker, Table};
use psb::workloads::Benchmark;

fn usage() -> ! {
    let kinds: Vec<&str> = PrefetcherKind::ALL.iter().map(|k| k.cli_name()).collect();
    eprintln!(
        "usage: psbsim [--prefetcher KIND] [--l1d GEOM] [--no-dis] \
         [--scale N] [--max N] [--compare] [--dump FILE] [--load FILE] \
         [--victim N] [--csv] [--log N] [--log-last N] [--json FILE] \
         [--trace-out FILE] [--interval N] [--serve ADDR] \
         [--bench NAME | <benchmark>]\n\
         kinds: {}\n\
         benchmarks: health burg deltablue gs sis turb3d\n\
         l1d geometries: 32k4 32k2 16k4",
        kinds.join(" ")
    );
    std::process::exit(2);
}

/// Writes `contents` to `path`, exiting with a message on failure.
fn write_file(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    }
}

fn report(label: &str, s: &SimStats) -> Vec<String> {
    vec![
        label.to_owned(),
        f2(s.ipc()),
        f2(s.l1d_miss_rate()),
        f2(s.avg_load_latency()),
        pct(s.l1_l2_bus_percent()),
        pct(s.prefetch_accuracy() * 100.0),
        format!("{}", s.prefetch.issued),
    ]
}

fn main() {
    let mut bench: Option<Benchmark> = None;
    let mut kind = PrefetcherKind::PsbConfPriority;
    let mut l1d = CacheConfig::l1d_32k_4way();
    let mut dis = Disambiguation::Perfect;
    let mut scale = std::num::NonZeroU32::MIN;
    let mut max = u64::MAX;
    let mut compare = false;
    let mut dump: Option<String> = None;
    let mut load: Option<String> = None;
    let mut victim = 0usize;
    let mut csv = false;
    let mut log_events = 0usize;
    let mut log_last = 0usize;
    let mut json_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut interval: Option<u64> = None;
    let mut serve_addr: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--prefetcher" => {
                kind = match args.next().as_deref().map(str::parse) {
                    Some(Ok(k)) => k,
                    Some(Err(e)) => {
                        eprintln!("psbsim: {e}");
                        usage()
                    }
                    None => usage(),
                }
            }
            "--l1d" => {
                l1d = match args.next().as_deref() {
                    Some("32k4") => CacheConfig::l1d_32k_4way(),
                    Some("32k2") => CacheConfig::l1d_32k_2way(),
                    Some("16k4") => CacheConfig::l1d_16k_4way(),
                    _ => usage(),
                }
            }
            "--no-dis" => dis = Disambiguation::WaitForStores,
            "--scale" => {
                scale = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--max" => max = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()),
            "--compare" => compare = true,
            "--dump" => dump = Some(args.next().unwrap_or_else(|| usage())),
            "--load" => load = Some(args.next().unwrap_or_else(|| usage())),
            "--victim" => {
                victim = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--csv" => csv = true,
            "--log" => {
                log_events = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--log-last" => {
                log_last = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--json" => json_out = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-out" => trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--interval" => {
                interval = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--serve" => serve_addr = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            "--bench" => match args.next().as_deref().map(str::parse) {
                Some(Ok(b)) if bench.is_none() => bench = Some(b),
                _ => usage(),
            },
            // Unknown flags are errors, never benchmark names — a typo
            // like `--pefetcher` must not fall through to trace lookup.
            other if other.starts_with('-') => {
                eprintln!("psbsim: unknown option `{other}`");
                usage()
            }
            other => match other.parse() {
                Ok(b) if bench.is_none() => bench = Some(b),
                Ok(_) => {
                    eprintln!("psbsim: benchmark given more than once");
                    usage()
                }
                Err(e) => {
                    eprintln!("psbsim: {e}");
                    usage()
                }
            },
        }
    }
    // The victim cache backs the L1D; one with more lines than the L1D
    // is not a machine this simulator builds (and its size in bytes can
    // overflow).
    let l1d_lines = l1d.size / l1d.block;
    if u64::try_from(victim).map_or(true, |n| n > l1d_lines) {
        eprintln!("psbsim: --victim {victim} exceeds the L1D's {l1d_lines} lines");
        usage()
    }
    let trace = if let Some(path) = load {
        eprintln!("loading trace from {path}...");
        let file = std::fs::File::open(&path).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        });
        psb::workloads::read_trace(std::io::BufReader::new(file)).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        })
    } else {
        let Some(bench) = bench else { usage() };
        eprintln!("generating {bench} trace (scale {scale})...");
        bench.trace(scale.get())
    };
    if let Some(path) = dump {
        let file = std::fs::File::create(&path).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        });
        psb::workloads::write_trace(std::io::BufWriter::new(file), &trace).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {} instructions to {path}", trace.len());
        return;
    }
    eprintln!("{} instructions; simulating...", trace.len());

    let config = MachineConfig::baseline()
        .with_prefetcher(kind)
        .with_l1d(l1d)
        .with_disambiguation(dis)
        .with_victim_cache(victim);

    // The observability hub rides along on every run; tracing and
    // interval sampling only collect when their flags ask for them.
    // Live serving needs epoch closes to drive its updates, so --serve
    // without --interval samples at a default cadence.
    if serve_addr.is_some() && interval.is_none() {
        interval = Some(100_000);
    }
    let obs = psb::obs::Obs::new();
    if trace_out.is_some() {
        obs.enable_trace(1 << 20);
    }
    if let Some(every) = interval {
        obs.enable_interval(every);
    }
    let log = if log_events > 0 {
        Some(psb::sim::MemLog::shared(log_events))
    } else if log_last > 0 {
        Some(psb::sim::MemLog::shared_ring(log_last))
    } else {
        None
    };

    let bench_label = bench.map_or_else(|| "trace".to_owned(), |b| b.to_string());

    // The --serve plane: a single-cell progress tracker (heartbeats per
    // closed epoch), Prometheus metrics, and a partial psb-run-v1
    // report that fills in when the run completes.
    let serving = serve_addr.as_deref().map(|addr| {
        let tracker = SweepTracker::new(1);
        tracker.begin(1);
        let metrics = Published::new(prometheus::render(&obs.registry_snapshot()));
        let report = Published::new(
            Json::obj(vec![
                ("schema", Json::str("psb-run-v1")),
                ("benchmark", Json::str(&bench_label)),
                ("prefetcher", Json::str(kind.label())),
                ("partial", Json::Bool(true)),
                ("aggregate", Json::Null),
            ])
            .to_string(),
        );
        let server = Server::bind(
            addr,
            vec![
                Route::new("/progress", "application/json", tracker.handle()),
                Route::new("/metrics", "text/plain; version=0.0.4", metrics.clone()),
                Route::new("/report", "application/json", report.clone()),
            ],
        )
        .unwrap_or_else(|e| {
            eprintln!("psbsim: cannot serve on {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!("serving /progress /metrics /report on http://{}/", server.local_addr());
        // Each closed interval epoch beats the tracker (proof of life
        // mid-run) and refreshes the served metrics snapshot.
        let hook_tracker = tracker.clone();
        let hook_metrics = metrics.clone();
        obs.set_epoch_hook(move |obs| {
            hook_tracker.worker_heartbeat(0);
            hook_metrics.publish(prometheus::render(&obs.registry_snapshot()));
        });
        tracker.worker_started(0, 0, &format!("{bench_label}/{}", kind.label()));
        (server, tracker, metrics, report)
    });

    let run_start = std::time::Instant::now();
    let mut sim = Simulation::new(config, trace.clone(), max).with_obs(obs.clone());
    if let Some(log) = &log {
        sim = sim.with_event_log(log.clone());
    }
    let main_stats = sim.run();

    if let Some((_, tracker, metrics, report)) = &serving {
        tracker.worker_finished(0, run_start.elapsed().as_micros() as u64);
        metrics.publish(prometheus::render(&obs.registry_snapshot()));
        let doc = psb::sim::json_report(&bench_label, kind.label(), &main_stats, Some(&obs));
        report.publish(doc.to_string());
    }

    if let Some(path) = &json_out {
        let doc = psb::sim::json_report(&bench_label, kind.label(), &main_stats, Some(&obs));
        write_file(path, &doc.to_string());
        eprintln!("wrote run artifact to {path}");
    }
    if let Some(path) = &trace_out {
        let doc = obs.trace_json().expect("tracing was enabled above");
        write_file(path, &doc.to_string());
        eprintln!("wrote Chrome trace to {path}");
    }

    if csv {
        println!("{}", psb::sim::SimStats::CSV_HEADER);
        println!("{}", main_stats.csv_row());
        return;
    }

    if let Some(log) = &log {
        for e in log.borrow().ordered() {
            println!("{e}");
        }
        return;
    }

    let mut t = Table::new(
        ["config", "IPC", "L1D MR", "ld-lat", "L1-L2 bus", "pf acc", "issued"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    if compare {
        let base = Simulation::new(config.with_prefetcher(PrefetcherKind::None), trace, max).run();
        t.row(report("base", &base));
        t.row(report(kind.label(), &main_stats));
        print!("{t}");
        println!("\nspeedup over base: {}", pct(main_stats.speedup_percent_over(&base)));
    } else {
        t.row(report(kind.label(), &main_stats));
        print!("{t}");
    }
}
