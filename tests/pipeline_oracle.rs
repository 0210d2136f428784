//! The pipeline oracle on real traces: the scan-based reference pipeline
//! (`crates/cpu/tests/reference`) and the real one run every benchmark's
//! trace under every registry engine against the full memory system,
//! and must agree on the CPU, L1D and prefetcher statistics.
//!
//! Each run covers a bounded commit window from the middle of the
//! scale-1 trace, so the whole grid stays fast in debug builds.

#[path = "../crates/cpu/tests/reference/mod.rs"]
mod reference;

use psb::cpu::{Disambiguation, Pipeline};
use psb::sim::{MachineConfig, PrefetcherKind, SimMemory};
use psb::workloads::Benchmark;

/// Instructions committed per run.
const WINDOW: u64 = 1_000;

#[test]
fn pipeline_matches_reference_on_every_benchmark_and_engine() {
    let mut configs: Vec<MachineConfig> =
        PrefetcherKind::ALL.map(|kind| MachineConfig::baseline().with_prefetcher(kind)).into();
    configs.push(
        MachineConfig::baseline()
            .with_prefetcher(PrefetcherKind::PsbConfPriority)
            .with_disambiguation(Disambiguation::WaitForStores),
    );
    for bench in Benchmark::ALL {
        let trace = bench.shared_trace(1);
        let window = &trace[trace.len() / 2..];
        for config in &configs {
            let (mut want_mem, mut got_mem) = (SimMemory::new(config), SimMemory::new(config));
            let want = reference::Pipeline::new(config.cpu).run(
                window.iter().copied(),
                &mut want_mem,
                WINDOW,
            );
            let got = Pipeline::new(config.cpu).run(window.iter().copied(), &mut got_mem, WINDOW);
            let what =
                format!("{bench}/{}/{:?}", config.prefetcher.label(), config.cpu.disambiguation);
            assert!(got.committed >= WINDOW, "{what}: the window must fill");
            assert_eq!(got, want, "{what}: cpu stats");
            assert_eq!(got_mem.l1d().stats(), want_mem.l1d().stats(), "{what}: l1d stats");
            let (got_pf, want_pf) = (got_mem.prefetcher().stats(), want_mem.prefetcher().stats());
            assert_eq!(got_pf, want_pf, "{what}: prefetcher stats");
        }
    }
}
