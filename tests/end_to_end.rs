//! Cross-crate integration tests: full traces through the full machine.
//!
//! These use short commit windows so the whole file stays fast in debug
//! builds; the paper-scale runs live in the `psb-bench` binaries.

use psb::sim::{run_sweep, MachineConfig, PrefetcherKind, Simulation, SweepCell};
use psb::workloads::Benchmark;

const WINDOW: u64 = 40_000;

fn run(bench: Benchmark, kind: PrefetcherKind) -> psb::sim::SimStats {
    let cfg = MachineConfig::baseline().with_prefetcher(kind);
    Simulation::new_shared(cfg, bench.shared_trace(1), WINDOW).run()
}

#[test]
fn every_benchmark_completes_on_every_prefetcher() {
    // The full 12-cell grid goes through the sweep work queue: every
    // worker runs against the shared trace cache and the wall-clock is
    // that of the slowest cell, not the sum.
    let cells: Vec<SweepCell> = Benchmark::ALL
        .into_iter()
        .flat_map(|bench| {
            [PrefetcherKind::None, PrefetcherKind::PsbConfPriority].into_iter().map(move |kind| {
                SweepCell::new(bench, MachineConfig::baseline().with_prefetcher(kind), 1)
                    .with_max_commits(WINDOW)
            })
        })
        .collect();
    for (cell, out) in cells.iter().zip(run_sweep(&cells, 0)) {
        let (bench, kind, s) = (cell.bench, cell.config.prefetcher, out.stats);
        assert!(s.cpu.committed >= WINDOW, "{bench}/{kind:?}: {}", s.cpu.committed);
        assert!(s.ipc() > 0.0 && s.ipc() <= 8.0, "{bench}/{kind:?}: ipc {}", s.ipc());
        assert!(s.l1d.accesses() > 0, "{bench}: no memory traffic?");
        assert!(s.cpu.bpred.accuracy() > 0.5, "{bench}: branch accuracy collapsed");
    }
}

#[test]
fn full_simulation_is_deterministic() {
    let a = run(Benchmark::DeltaBlue, PrefetcherKind::PsbConfPriority);
    let b = run(Benchmark::DeltaBlue, PrefetcherKind::PsbConfPriority);
    assert_eq!(a.cpu.cycles, b.cpu.cycles);
    assert_eq!(a.cpu.committed, b.cpu.committed);
    assert_eq!(a.prefetch, b.prefetch);
    assert_eq!(a.l1d, b.l1d);
    assert_eq!(a.l1_l2_busy, b.l1_l2_busy);
}

#[test]
fn psb_beats_base_on_the_flagship_pointer_benchmark() {
    // A longer window than the other tests: the Markov predictor needs a
    // full lap over health's patient lists before the streams pay off.
    let window = 130_000;
    let trace = Benchmark::Health.shared_trace(1);
    let base = Simulation::new_shared(MachineConfig::baseline(), trace.clone(), window).run();
    let psb = Simulation::new_shared(
        MachineConfig::baseline().with_prefetcher(PrefetcherKind::PsbConfPriority),
        trace,
        window,
    )
    .run();
    assert!(
        psb.ipc() > base.ipc() * 1.15,
        "PSB {:.3} should clearly beat base {:.3} on health",
        psb.ipc(),
        base.ipc()
    );
    assert!(psb.prefetch.used > 0);
    assert!(psb.prefetch_accuracy() > 0.3);
}

#[test]
fn psb_matches_stride_on_the_fortran_benchmark() {
    let stride = run(Benchmark::Turb3d, PrefetcherKind::PcStride);
    let psb = run(Benchmark::Turb3d, PrefetcherKind::PsbConfPriority);
    let ratio = psb.ipc() / stride.ipc();
    assert!(
        (0.8..1.25).contains(&ratio),
        "PSB/PC-stride on turb3d should be near 1.0, got {ratio:.3}"
    );
}

#[test]
fn prefetching_reduces_average_load_latency() {
    let base = run(Benchmark::Gs, PrefetcherKind::None);
    let psb = run(Benchmark::Gs, PrefetcherKind::PsbConfPriority);
    assert!(
        psb.avg_load_latency() < base.avg_load_latency(),
        "psb {:.1} vs base {:.1}",
        psb.avg_load_latency(),
        base.avg_load_latency()
    );
    assert!(psb.l1d_miss_rate() <= base.l1d_miss_rate() + 1e-9);
}

#[test]
fn prefetching_consumes_more_bus_bandwidth() {
    let base = run(Benchmark::Burg, PrefetcherKind::None);
    let psb = run(Benchmark::Burg, PrefetcherKind::PsbConfPriority);
    assert!(
        psb.l1_l2_bus_percent() > base.l1_l2_bus_percent(),
        "prefetch traffic must show up on the bus"
    );
}

#[test]
fn disambiguation_policies_order_correctly() {
    use psb::cpu::Disambiguation;
    let trace = Benchmark::DeltaBlue.shared_trace(1);
    let perfect = Simulation::new_shared(MachineConfig::baseline(), trace.clone(), WINDOW).run();
    let nodis = Simulation::new_shared(
        MachineConfig::baseline().with_disambiguation(Disambiguation::WaitForStores),
        trace,
        WINDOW,
    )
    .run();
    assert!(
        perfect.ipc() >= nodis.ipc() * 0.999,
        "perfect store sets must not lose: {} vs {}",
        perfect.ipc(),
        nodis.ipc()
    );
}

#[test]
fn smaller_cache_misses_more() {
    use psb::mem::CacheConfig;
    let trace = Benchmark::Health.shared_trace(1);
    let big = Simulation::new_shared(MachineConfig::baseline(), trace.clone(), WINDOW).run();
    let small = Simulation::new_shared(
        MachineConfig::baseline().with_l1d(CacheConfig::l1d_16k_4way()),
        trace,
        WINDOW,
    )
    .run();
    assert!(
        small.l1d_miss_rate() >= big.l1d_miss_rate(),
        "16K cache should miss at least as often as 32K"
    );
}

#[test]
fn custom_engine_injection_works() {
    use psb::core::{PsbPrefetcher, SbConfig};
    let cfg = MachineConfig::baseline();
    let s = Simulation::new_shared(cfg, Benchmark::DeltaBlue.shared_trace(1), WINDOW)
        .with_engine(Box::new(PsbPrefetcher::psb(SbConfig::psb_conf_priority())))
        .run();
    assert!(s.prefetch.issued > 0);
}

#[test]
fn event_log_records_the_access_mix() {
    use psb::sim::{MemEventKind, MemLog};
    let log = MemLog::shared(500);
    let cfg = MachineConfig::baseline().with_prefetcher(PrefetcherKind::PsbConfPriority);
    let _ = Simulation::new_shared(cfg, Benchmark::Health.shared_trace(1), 60_000)
        .with_event_log(log.clone())
        .run();
    let l = log.borrow();
    assert!(l.is_full(), "a 60k-instruction run must produce 500 events");
    let kinds: std::collections::HashSet<_> = l.events().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&MemEventKind::L1Hit));
    assert!(kinds.contains(&MemEventKind::DemandMemory));
    assert!(kinds.contains(&MemEventKind::Prefetch));
    // Events are in nondecreasing demand order per source, and every
    // ready time is at/after its request.
    for e in l.events() {
        assert!(e.ready >= e.cycle, "{e}");
    }
}

#[test]
fn trace_serialization_round_trips_through_the_simulator() {
    let trace = Benchmark::Gs.shared_trace(1);
    let mut buf = Vec::new();
    psb::workloads::write_trace(&mut buf, &trace).unwrap();
    let back = psb::workloads::read_trace(&buf[..]).unwrap();
    let a = Simulation::new_shared(MachineConfig::baseline(), trace, 30_000).run();
    let b = Simulation::new(MachineConfig::baseline(), back, 30_000).run();
    assert_eq!(a.cpu.cycles, b.cpu.cycles, "serialized trace must simulate identically");
}

#[test]
fn readme_engine_table_matches_the_registry() {
    // README's "Prefetcher engines" table is hand-written prose; this
    // keeps it honest against the psb-core registry. Every registered
    // engine must appear as a `` `name` `` table row, in registry
    // order, with paper-grid rows (and only those) starred.
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md next to Cargo.toml");
    let rows: Vec<&str> =
        readme.lines().filter(|l| l.starts_with("| `") && l.contains(" | ")).collect();
    assert_eq!(
        rows.len(),
        psb::core::ENGINES.len(),
        "README engine table must have one row per registered engine"
    );
    for (row, engine) in rows.iter().zip(psb::core::ENGINES) {
        let cell = row.trim_start_matches("| ").split(" | ").next().unwrap();
        assert_eq!(
            cell.trim_end_matches(" ★"),
            format!("`{}`", engine.name),
            "README row order must match the registry: {row}"
        );
        assert_eq!(
            cell.ends_with('★'),
            engine.paper,
            "{}: ★ marks exactly the paper-grid engines",
            engine.name
        );
    }
}

#[test]
fn registry_engines_run_end_to_end() {
    // One short window through the full machine for the two engines new
    // to the registry: they must produce traffic and stay deterministic.
    for kind in [PrefetcherKind::Pangloss, PrefetcherKind::Dspatch] {
        let a = run(Benchmark::Health, kind);
        let b = run(Benchmark::Health, kind);
        assert!(a.cpu.committed >= WINDOW, "{kind:?} completes");
        assert!(a.prefetch.issued > 0, "{kind:?} must issue prefetches on health");
        assert_eq!(a.cpu.cycles, b.cpu.cycles, "{kind:?} must be deterministic");
        assert_eq!(a.prefetch, b.prefetch, "{kind:?} must be deterministic");
    }
}

#[test]
fn fetch_directed_prefetcher_runs_end_to_end() {
    let s = run(Benchmark::Turb3d, PrefetcherKind::FetchDirected);
    assert!(s.prefetch.issued > 0, "fetch sightings must trigger prefetches");
    let base = run(Benchmark::Turb3d, PrefetcherKind::None);
    assert!(s.ipc() > base.ipc(), "fetch-directed must help the strided benchmark");
}

#[test]
fn psbsim_rejects_a_victim_cache_it_cannot_build() {
    // Unchecked, the first size overflowed the allocator and the second
    // wrapped to zero bytes: both panicked. Anything above the L1D's
    // 1,024 lines is a usage error.
    for n in ["18446744073709551615", "576460752303423488", "1025"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_psbsim"))
            .args(["--victim", n, "--max", "1000", "health"])
            .output()
            .expect("psbsim starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--victim {n}: {stderr}");
        assert!(!stderr.contains("panicked"), "--victim {n}: {stderr}");
        assert!(stderr.contains("usage: psbsim"), "--victim {n}: {stderr}");
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_psbsim"))
        .args(["--victim", "1024", "--max", "1000", "health"])
        .output()
        .expect("psbsim starts");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn psbsim_and_psbsweep_reject_a_zero_scale() {
    // Every trace generator runs scale 0 as scale 1, so accepting it
    // recorded `"scale":0` next to scale-1 numbers.
    let runs = [
        (env!("CARGO_BIN_EXE_psbsim"), &["--scale", "0", "--max", "1000", "health"][..]),
        (
            env!("CARGO_BIN_EXE_psbsweep"),
            &["--bench", "health", "--prefetchers", "none", "--scale", "0", "--max", "1000"],
        ),
    ];
    for (bin, args) in runs {
        let out = std::process::Command::new(bin).args(args).output().expect("the CLI starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} printed a result");
    }
}

#[test]
fn psbsim_load_rejects_a_bad_memory_op() {
    // A zero size byte, a range past u64::MAX and an access that is not
    // naturally aligned used to decode and simulate; each now fails the
    // load before simulating, naming the instruction. The aligned case
    // keeps its loads in program order, so only the alignment is wrong.
    use psb::common::Addr;
    use psb::cpu::{DynInst, Reg};
    let load =
        |pc, addr, size| DynInst::load(Addr::new(pc), Reg::new(1), None, Addr::new(addr), size);
    for (name, trace, msg) in [
        ("size", [load(0x400, 0x1000, 8), load(0x400, 0x1008, 0)], "instruction 1: memory size 0"),
        (
            "wrap",
            [load(0x400, 0x1000, 8), load(0x400, u64::MAX - 3, 8)],
            "instruction 1: 8-byte access",
        ),
        (
            "align",
            [load(0x400, 0x1000, 8), load(0x404, 0x103c, 8)],
            "instruction 1: 8-byte access at 0x103c is not aligned",
        ),
    ] {
        let path = std::env::temp_dir().join(format!("psb-{name}-{}.psbt", std::process::id()));
        let mut buf = Vec::new();
        psb::workloads::write_trace(&mut buf, &trace).expect("writes to a Vec");
        std::fs::write(&path, buf).expect("temp file is writable");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_psbsim"))
            .arg("--load")
            .arg(&path)
            .output()
            .expect("psbsim starts");
        std::fs::remove_file(&path).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(msg), "{name}: {stderr}");
        assert!(!stderr.contains("simulating"), "{name}: {stderr}");
    }
}

#[test]
fn psbsim_load_rejects_a_trace_out_of_program_order() {
    // Instruction 1 must sit at 0x404, where the ALU op at 0x400 falls
    // through to; a decodable archive that breaks that used to simulate.
    use psb::common::Addr;
    use psb::cpu::{DynInst, Reg};
    let alu = |pc| DynInst::alu(Addr::new(pc), Reg::new(1), None, None);
    let path = std::env::temp_dir().join(format!("psb-order-{}.psbt", std::process::id()));
    let mut buf = Vec::new();
    psb::workloads::write_trace(&mut buf, &[alu(0x400), alu(0x800), alu(0x804)])
        .expect("writes to a Vec");
    std::fs::write(&path, buf).expect("temp file is writable");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_psbsim"))
        .arg("--load")
        .arg(&path)
        .output()
        .expect("psbsim starts");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("instruction 1: "), "{stderr}");
    assert!(!stderr.contains("simulating"), "{stderr}");
}

#[test]
fn psbsim_and_psbsweep_fail_on_an_unwritable_path_before_simulating() {
    // A path in a missing directory cannot be created. The CLIs used to
    // find that out only after the whole run.
    let path = std::env::temp_dir().join(format!("psb-missing-{}/out.json", std::process::id()));
    let path = path.to_str().expect("temp paths are UTF-8");
    let runs = [
        (env!("CARGO_BIN_EXE_psbsim"), vec!["--json", path, "--max", "1000", "health"]),
        (env!("CARGO_BIN_EXE_psbsim"), vec!["--trace-out", path, "--max", "1000", "health"]),
        (
            env!("CARGO_BIN_EXE_psbsweep"),
            vec!["--bench", "health", "--prefetchers", "none", "--max", "1000", "--json", path],
        ),
    ];
    for (bin, args) in runs {
        let out = std::process::Command::new(bin).args(&args).output().expect("the CLI starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(path), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("simulating"), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("sweeping"), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed a result");
    }
}

#[test]
fn psbsim_artifacts_match_the_library() {
    let obs = psb::obs::Obs::new();
    obs.enable_trace(1 << 20);
    obs.enable_interval(1000);
    let cfg = MachineConfig::baseline().with_prefetcher(PrefetcherKind::PsbConfPriority);
    let stats =
        Simulation::new(cfg, Benchmark::Health.trace(1), 20_000).with_obs(obs.clone()).run();
    let dir = std::env::temp_dir();
    let report = dir.join(format!("psbsim-report-{}.json", std::process::id()));
    let trace = dir.join(format!("psbsim-trace-{}.json", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_psbsim"))
        .args(["--bench", "health", "--max", "20000", "--interval", "1000", "--json"])
        .arg(&report)
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .expect("psbsim starts");
    let written = [&report, &trace].map(|path| {
        let text = std::fs::read_to_string(path);
        std::fs::remove_file(path).ok();
        text
    });
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let [report, trace] = written.map(|text| text.expect("psbsim wrote the file"));
    let want = psb::sim::json_report("health", "ConfAlloc-Priority", &stats, Some(&obs));
    assert!(report == want.to_string(), "--json differs");
    let want = obs.trace_json().expect("tracing is enabled");
    assert!(trace == want.to_string(), "--trace-out differs");
}

#[test]
fn psbsweep_artifacts_match_the_library() {
    let cells: Vec<SweepCell> = [Benchmark::Turb3d, Benchmark::DeltaBlue]
        .into_iter()
        .flat_map(|bench| {
            [PrefetcherKind::None, PrefetcherKind::PsbConfPriority].into_iter().map(move |kind| {
                SweepCell::new(bench, MachineConfig::baseline().with_prefetcher(kind), 1)
                    .with_max_commits(20_000)
            })
        })
        .collect();
    let outcomes = run_sweep(&cells, 1);
    let path = std::env::temp_dir().join(format!("psb-sweep-{}.json", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_psbsweep"))
        .args(["--bench", "turb3d,deltablue", "--prefetchers", "none,conf-priority"])
        .args(["--max", "20000", "--threads", "2", "--quiet", "--csv", "--json"])
        .arg(&path)
        .output()
        .expect("psbsweep starts");
    let json = std::fs::read_to_string(&path);
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let want = psb::sim::sweep_report(&cells, &outcomes).to_string();
    assert!(json.expect("psbsweep wrote its --json file") == want, "--json differs");
    let stdout = String::from_utf8(out.stdout).expect("CSV is UTF-8");
    let rows: Vec<&str> = stdout.lines().skip(1).collect();
    assert_eq!(rows.len(), cells.len(), "{stdout}");
    for ((row, cell), outcome) in rows.iter().zip(&cells).zip(&outcomes) {
        assert!(row.starts_with(&format!("{},{},", cell.bench.name(), cell.label())), "{row}");
        assert!(row.ends_with(&format!(",{}", outcome.stats.csv_row())), "{row}");
    }
}
