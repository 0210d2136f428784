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
