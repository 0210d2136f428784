//! Property-style tests for the out-of-order pipeline: pseudo-random
//! well-formed traces must commit completely, in bounded time, without
//! deadlock, under both disambiguation policies. Cases come from the
//! shared fixed-seed generator in `tracegen`.

mod tracegen;

use psb_common::SplitMix64;
use psb_cpu::{CpuConfig, Disambiguation, FixedLatencyMemory, Pipeline};
use tracegen::{items, lower, Shapes};

/// Memory slots the generated loads and stores spread over: enough that
/// they rarely alias.
const SLOTS: u64 = 1 << 16;

/// Every well-formed trace commits fully, takes at least the
/// width-limited minimum number of cycles, and never deadlocks —
/// under both disambiguation policies and various load latencies.
#[test]
fn pipeline_commits_everything() {
    let mut meta = SplitMix64::new(0xC3117);
    for case in 0..48 {
        let trace = lower(&items(&mut meta, 200, SLOTS, Shapes::Narrow));
        let n = trace.len() as u64;
        let latency = 1 + meta.below(59);
        let perfect = meta.below(2) == 0;
        let config = CpuConfig::baseline().with_disambiguation(if perfect {
            Disambiguation::Perfect
        } else {
            Disambiguation::WaitForStores
        });
        let mut mem = FixedLatencyMemory::new(latency);
        let stats = Pipeline::new(config).run(trace, &mut mem, u64::MAX);
        assert_eq!(stats.committed, n, "case {case}");
        assert!(stats.cycles >= n / 8, "case {case}: cannot beat the commit width");
        assert!(stats.ipc() <= 8.0 + 1e-9, "case {case}");
        // Accounting adds up.
        let counted = stats.loads + stats.stores + stats.branches;
        assert!(counted <= stats.committed, "case {case}");
        assert_eq!(stats.load_latency.count(), stats.loads, "case {case}");
        assert!(stats.forwarded_loads <= stats.loads, "case {case}");
    }
}

/// Determinism: the same trace and configuration give identical
/// cycle counts.
#[test]
fn pipeline_is_deterministic() {
    let mut meta = SplitMix64::new(0xD37);
    for case in 0..48 {
        let trace = lower(&items(&mut meta, 100, SLOTS, Shapes::Narrow));
        let mut m1 = FixedLatencyMemory::new(7);
        let mut m2 = FixedLatencyMemory::new(7);
        let s1 = Pipeline::new(CpuConfig::baseline()).run(trace.clone(), &mut m1, u64::MAX);
        let s2 = Pipeline::new(CpuConfig::baseline()).run(trace, &mut m2, u64::MAX);
        assert_eq!(s1.cycles, s2.cycles, "case {case}");
        assert_eq!(s1.committed, s2.committed, "case {case}");
        assert_eq!(m1.loads(), m2.loads(), "case {case}");
    }
}

/// Memory latency can only slow the machine down.
#[test]
fn slower_memory_never_speeds_up() {
    let mut meta = SplitMix64::new(0x510);
    for case in 0..48 {
        let trace = lower(&items(&mut meta, 120, SLOTS, Shapes::Narrow));
        let mut fast_mem = FixedLatencyMemory::new(1);
        let mut slow_mem = FixedLatencyMemory::new(80);
        let fast = Pipeline::new(CpuConfig::baseline()).run(trace.clone(), &mut fast_mem, u64::MAX);
        let slow = Pipeline::new(CpuConfig::baseline()).run(trace, &mut slow_mem, u64::MAX);
        assert!(slow.cycles >= fast.cycles, "case {case}");
    }
}
