//! Differential test for the quiescence skip-ahead fast path.
//!
//! [`SimMemory::tick`] skips the per-cycle prefetcher dispatch once the
//! engine reports [`psb_core::Prefetcher::quiescent`], resuming on the
//! next lookup, allocation or fetch. The claim is cycle-exactness: the
//! skip must be an *externally unobservable* optimization. This test
//! runs every benchmark twice — once normally, once under the supported
//! forced-tick switch ([`Simulation::with_forced_ticks`], equivalently
//! the `PSB_FORCE_TICK` environment variable used by the mutation kill
//! suite) — and requires the full `psb-run-v1` reports to be
//! byte-identical.

use psb_sim::{json_report, MachineConfig, PrefetcherKind, Simulation};
use psb_workloads::Benchmark;
use std::sync::Mutex;

/// Serializes tests that read or write `PSB_FORCE_TICK`: the variable is
/// process-global and `SimMemory` samples it at construction, so a fast
/// (unforced) run must never be built while another test holds the
/// switch on.
static ENV_LOCK: Mutex<()> = Mutex::new(());

const BENCHMARKS: [Benchmark; 6] = [
    Benchmark::Health,
    Benchmark::Burg,
    Benchmark::DeltaBlue,
    Benchmark::Gs,
    Benchmark::Sis,
    Benchmark::Turb3d,
];

#[test]
fn skip_ahead_is_cycle_exact_on_every_benchmark() {
    let _env = ENV_LOCK.lock().unwrap();
    let kind = PrefetcherKind::PsbConfPriority;
    let window = 40_000u64;
    for bench in BENCHMARKS {
        let trace = bench.trace(1);
        let cfg = MachineConfig::baseline().with_prefetcher(kind);
        let fast = Simulation::new(cfg, trace.clone(), window).run();
        let forced = Simulation::new(cfg, trace, window).with_forced_ticks().run();
        let fast_json = json_report(bench.name(), kind.cli_name(), &fast, None).to_string();
        let forced_json = json_report(bench.name(), kind.cli_name(), &forced, None).to_string();
        assert_eq!(
            fast_json, forced_json,
            "{bench:?}: skipping quiescent ticks changed the run report"
        );
    }
}

#[test]
fn skip_ahead_is_cycle_exact_across_engines() {
    // Every registry engine answers `quiescent()` its own way: NoPrefetch
    // is always quiescent, the stream-buffer engines go idle in bursts,
    // and the five buffer-based engines idle whenever their shared
    // pending queue is empty.
    let _env = ENV_LOCK.lock().unwrap();
    let window = 40_000u64;
    for kind in PrefetcherKind::ALL {
        let trace = Benchmark::DeltaBlue.trace(1);
        let cfg = MachineConfig::baseline().with_prefetcher(kind);
        let fast = Simulation::new(cfg, trace.clone(), window).run();
        let forced = Simulation::new(cfg, trace, window).with_forced_ticks().run();
        let fast_json = json_report("deltablue", kind.cli_name(), &fast, None).to_string();
        let forced_json = json_report("deltablue", kind.cli_name(), &forced, None).to_string();
        assert_eq!(fast_json, forced_json, "{kind:?}: skip-ahead changed the run report");
    }
}

#[test]
fn force_tick_env_switch_is_cycle_exact() {
    // The kill suite reaches the switch through the environment (it
    // cannot edit call sites), so prove that path too: a run built with
    // PSB_FORCE_TICK=1 in the environment matches the unforced report.
    let _env = ENV_LOCK.lock().unwrap();
    let kind = PrefetcherKind::PsbConfPriority;
    let trace = Benchmark::Health.trace(1);
    let cfg = MachineConfig::baseline().with_prefetcher(kind);
    let fast = Simulation::new(cfg, trace.clone(), 40_000).run();
    std::env::set_var("PSB_FORCE_TICK", "1");
    let forced = Simulation::new(cfg, trace, 40_000).run();
    std::env::remove_var("PSB_FORCE_TICK");
    let fast_json = json_report("health", kind.cli_name(), &fast, None).to_string();
    let forced_json = json_report("health", kind.cli_name(), &forced, None).to_string();
    assert_eq!(fast_json, forced_json, "PSB_FORCE_TICK changed the run report");
}
