//! Differential oracle for the out-of-order pipeline.
//!
//! [`reference::Pipeline`] is the scan-based pipeline kept as a
//! test-only reference model (see `reference/mod.rs`). The real
//! [`Pipeline`] and the reference run the same fixed-seed traces from
//! the shared `tracegen` generator, under random core geometries, both
//! disambiguation policies and random commit limits, against a memory
//! system with a pseudo-random load latency of 0–200 cycles per access
//! and random I-cache misses. Every case must give equal [`CpuStats`]
//! and an identical memory-call stream. A second run draws the wide
//! shapes: partially overlapping 1–8-byte accesses, two-source ALU ops
//! and stores with a base register.
//!
//! `FixedLatencyMemory` never stalls fetch, so only a memory like
//! [`JitterMemory`] reaches the I-fetch miss path.

mod reference;
mod tracegen;

use psb_common::{Addr, Cycle, SplitMix64};
use psb_cpu::{CpuConfig, CpuStats, Disambiguation, DynInst, MemSystem, Pipeline};
use tracegen::Shapes;

/// A memory system whose every answer comes from a seeded PRNG: each
/// load takes `0..=max_latency` cycles, and one I-fetch in
/// `imiss_one_in` misses for 1–40 cycles. It counts every call and
/// folds each call's arguments into an order-sensitive digest, so two
/// pipelines that drive it differently disagree.
#[derive(Clone, Debug)]
struct JitterMemory {
    rng: SplitMix64,
    max_latency: u64,
    imiss_one_in: u64,
    calls: Calls,
}

/// Per-kind call counts plus a digest of the whole call stream.
#[derive(Clone, Debug, Default, PartialEq)]
struct Calls {
    loads: u64,
    stores: u64,
    ifetches: u64,
    fetched_loads: u64,
    ticks: u64,
    samples: u64,
    digest: u64,
}

impl Calls {
    fn fold(&mut self, kind: u64, now: Cycle, a: u64, b: u64) {
        for word in [kind, now.raw(), a, b] {
            self.digest = (self.digest ^ word).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
        }
    }
}

impl JitterMemory {
    fn new(seed: u64, max_latency: u64, imiss_one_in: u64) -> Self {
        JitterMemory {
            rng: SplitMix64::new(seed),
            max_latency,
            imiss_one_in,
            calls: Calls::default(),
        }
    }
}

impl MemSystem for JitterMemory {
    fn load(&mut self, now: Cycle, pc: Addr, addr: Addr) -> Cycle {
        self.calls.loads += 1;
        self.calls.fold(1, now, pc.raw(), addr.raw());
        now + self.rng.below(self.max_latency + 1)
    }

    fn store(&mut self, now: Cycle, pc: Addr, addr: Addr) {
        self.calls.stores += 1;
        self.calls.fold(2, now, pc.raw(), addr.raw());
    }

    fn ifetch(&mut self, now: Cycle, pc: Addr) -> Cycle {
        self.calls.ifetches += 1;
        self.calls.fold(3, now, pc.raw(), 0);
        if self.rng.below(self.imiss_one_in) == 0 {
            now + 1 + self.rng.below(40)
        } else {
            now
        }
    }

    fn fetched_load(&mut self, now: Cycle, pc: Addr) {
        self.calls.fetched_loads += 1;
        self.calls.fold(4, now, pc.raw(), 0);
    }

    fn tick(&mut self, now: Cycle) {
        self.calls.ticks += 1;
        self.calls.fold(5, now, 0, 0);
    }

    fn sample(&mut self, now: Cycle, committed: u64) {
        self.calls.samples += 1;
        self.calls.fold(6, now, committed, 0);
    }
}

/// One differential case: a trace, a core, a memory and a commit limit.
struct Case {
    trace: Vec<DynInst>,
    config: CpuConfig,
    mem: JitterMemory,
    max_commits: u64,
}

/// Draws a case. Even cases run the paper's baseline core; odd ones
/// shrink every width, queue and latency so that each structural limit
/// binds somewhere in the suite.
fn case(rng: &mut SplitMix64, index: u64, shapes: Shapes) -> Case {
    let slots = 1 + rng.below(24);
    let trace = tracegen::lower(&tracegen::items(rng, 240, slots, shapes));
    let mut config = CpuConfig::baseline().with_disambiguation(if rng.below(2) == 0 {
        Disambiguation::Perfect
    } else {
        Disambiguation::WaitForStores
    });
    if index % 2 == 1 {
        config.fetch_width = rng.range(1, 9) as usize;
        config.dispatch_width = rng.range(1, 9) as usize;
        config.issue_width = rng.range(1, 9) as usize;
        config.commit_width = rng.range(1, 9) as usize;
        config.rob_size = rng.range(1, 49) as usize;
        config.lsq_size = rng.range(1, 17) as usize;
        config.fetch_queue_size = rng.range(1, 17) as usize;
        config.branches_per_fetch = rng.range(1, 4) as usize;
        config.min_mispredict_penalty = rng.below(13);
        config.redirect_latency = rng.below(5);
        config.store_forward_latency = rng.below(4);
    }
    let max_latency = match rng.below(4) {
        0 => 0,
        1 => rng.below(8),
        _ => rng.below(201),
    };
    let mem = JitterMemory::new(rng.next_u64(), max_latency, rng.range(2, 9));
    let n = trace.len() as u64;
    let max_commits = if rng.below(3) == 0 { rng.range(1, n + 1) } else { u64::MAX };
    Case { trace, config, mem, max_commits }
}

/// Runs `cases` fixed-seed cases through both pipelines.
fn differential(seed: u64, cases: u64, shapes: Shapes) {
    let mut rng = SplitMix64::new(seed);
    for index in 0..cases {
        let Case { trace, config, mem, max_commits } = case(&mut rng, index, shapes);
        let (mut want_mem, mut got_mem) = (mem.clone(), mem);
        let want = reference::Pipeline::new(config).run(trace.clone(), &mut want_mem, max_commits);
        let got: CpuStats = Pipeline::new(config).run(trace, &mut got_mem, max_commits);
        assert_eq!(got, want, "case {index} (seed {seed:#x}): {config:?}");
        assert_eq!(got_mem.calls, want_mem.calls, "case {index} (seed {seed:#x}): memory calls");
    }
}

#[test]
fn pipeline_matches_reference_on_baseline_and_shrunken_cores() {
    differential(0xD1FF, 3000, Shapes::Narrow);
}

#[test]
fn pipeline_matches_reference_on_partial_overlaps_and_two_source_ops() {
    differential(0x0DD5, 10_000, Shapes::Wide);
}

/// The comparator bites: resuming fetch one cycle later after every
/// mispredict must show up in the stats or the memory-call stream.
#[test]
fn teeth_a_one_cycle_later_redirect_is_caught() {
    let mut rng = SplitMix64::new(0x7EE7);
    let trace = tracegen::lower(&tracegen::items(&mut rng, 240, 8, Shapes::Narrow));
    let config = CpuConfig::baseline();
    let later = CpuConfig {
        min_mispredict_penalty: config.min_mispredict_penalty + 1,
        redirect_latency: config.redirect_latency + 1,
        ..config
    };
    let mut want_mem = JitterMemory::new(1, 20, 4);
    let mut got_mem = want_mem.clone();
    let want = reference::Pipeline::new(config).run(trace.clone(), &mut want_mem, u64::MAX);
    let got = Pipeline::new(later).run(trace, &mut got_mem, u64::MAX);
    assert!(want.bpred.mispredictions > 0, "the trace must mispredict");
    assert!(got != want || got_mem.calls != want_mem.calls, "a later redirect went unnoticed");
}
