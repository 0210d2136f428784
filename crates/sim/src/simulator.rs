//! The top-level simulation driver.

use crate::{MachineConfig, SimMemory, SimStats};
use psb_cpu::{DynInst, Pipeline};

/// One configured simulation run: a machine, a trace, and a commit limit.
///
/// # Example
///
/// ```
/// use psb_common::Addr;
/// use psb_cpu::{DynInst, Reg};
/// use psb_sim::{MachineConfig, Simulation};
///
/// let trace: Vec<DynInst> = (0..100)
///     .map(|i| DynInst::alu(Addr::new(0x40_0000 + 4 * i), Reg::new(1), None, None))
///     .collect();
/// let stats = Simulation::new(MachineConfig::baseline(), trace, u64::MAX).run();
/// assert_eq!(stats.cpu.committed, 100);
/// ```
pub struct Simulation {
    config: MachineConfig,
    trace: std::sync::Arc<Vec<DynInst>>,
    max_commits: u64,
    engine: Option<Box<dyn psb_core::Prefetcher>>,
    log: Option<crate::SharedMemLog>,
    obs: Option<psb_obs::Obs>,
    force_tick: bool,
}

impl Simulation {
    /// Creates a run over `trace`, committing at most `max_commits`
    /// instructions (use `u64::MAX` to drain the trace).
    pub fn new(config: MachineConfig, trace: Vec<DynInst>, max_commits: u64) -> Self {
        Simulation::new_shared(config, std::sync::Arc::new(trace), max_commits)
    }

    /// Like [`Simulation::new`], but over a shared trace (see
    /// [`psb_workloads::SharedTrace`](psb_workloads::Benchmark::shared_trace)):
    /// the run reads the instructions in place, so N simulations of one
    /// benchmark share a single generated trace instead of owning N
    /// copies. Results are identical either way.
    pub fn new_shared(
        config: MachineConfig,
        trace: std::sync::Arc<Vec<DynInst>>,
        max_commits: u64,
    ) -> Self {
        Simulation {
            config,
            trace,
            max_commits,
            engine: None,
            log: None,
            obs: None,
            force_tick: false,
        }
    }

    /// Defeats both skips: the prefetcher is ticked every single cycle,
    /// and the pipeline steps through every cycle instead of jumping over
    /// idle ones (see [`SimMemory::set_force_tick`]). Both skips are
    /// exactness-preserving optimizations, so forcing ticks must never
    /// change a report — the differential suites and the mutation kill
    /// suite run under this switch (or the equivalent `PSB_FORCE_TICK`
    /// environment variable) so quiescence bugs cannot hide behind
    /// skipped cycles.
    pub fn with_forced_ticks(mut self) -> Self {
        self.force_tick = true;
        self
    }

    /// Attaches a shared memory event log (see
    /// [`MemLog::shared`](crate::MemLog::shared)); the run records events
    /// into it until it fills.
    pub fn with_event_log(mut self, log: crate::SharedMemLog) -> Self {
        self.log = Some(log);
        self
    }

    /// Attaches an observability hub (see [`psb_obs::Obs`]): the memory
    /// system registers its metrics with it, the hub counts the stream
    /// engine's lifecycle events, and, when the hub has tracing or
    /// interval sampling enabled, it also records a Chrome trace and
    /// per-epoch time series during the run. The caller keeps a clone to
    /// read the results back after [`Simulation::run`].
    pub fn with_obs(mut self, obs: psb_obs::Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Replaces the configured prefetcher with a custom engine, such as a
    /// [`crate::PsbVariant`] the registry does not enumerate.
    pub fn with_engine(mut self, engine: Box<dyn psb_core::Prefetcher>) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Executes the run under the invariant auditor: resets the
    /// thread-local sink, runs, and returns the statistics together with
    /// every cross-layer invariant violation observed by the registered
    /// checkers (see [`psb_check`]). Only available with the `check`
    /// feature; release figure runs never pay for auditing.
    #[cfg(feature = "check")]
    pub fn run_audited(self) -> (SimStats, Vec<psb_check::Violation>) {
        psb_check::reset();
        let stats = self.run();
        (stats, psb_check::take())
    }

    /// Executes the run and collects statistics.
    pub fn run(self) -> SimStats {
        let mut mem = match self.engine {
            Some(engine) => SimMemory::with_engine(&self.config, engine),
            None => SimMemory::new(&self.config),
        };
        if self.force_tick {
            mem.set_force_tick(true);
        }
        if let Some(log) = self.log {
            mem.attach_log(log);
        }
        if let Some(obs) = &self.obs {
            mem.attach_obs(obs);
        }
        // `DynInst` is `Copy`, so feeding the pipeline from the shared
        // trace costs the same element-wise moves a `Vec` drain would.
        let cpu = Pipeline::new(self.config.cpu).run(
            self.trace.iter().copied(),
            &mut mem,
            self.max_commits,
        );
        // Close out the interval time series with a final partial epoch.
        mem.finish_sampling(psb_common::Cycle::new(cpu.cycles), cpu.committed);
        SimStats {
            l1d: mem.l1d().stats(),
            l1i: mem.l1i().stats(),
            lower: mem.lower().stats(),
            prefetch: mem.prefetcher().stats(),
            dtlb: mem.dtlb().stats(),
            l1_l2_busy: mem.lower().l1_l2_bus().busy_cycles(),
            l2_mem_busy: mem.lower().l2_mem_bus().busy_cycles(),
            cpu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrefetcherKind;
    use psb_common::Addr;
    use psb_cpu::Reg;

    /// A pointer-chase microkernel: 1200 nodes (75 KB, 2.3x the L1, and
    /// comfortably inside the 2K-entry Markov table) in shuffled order,
    /// walked repeatedly — the minimal PSB showcase.
    fn chase_trace(laps: usize) -> Vec<DynInst> {
        let mut order: Vec<u64> = (0..1200).collect();
        let mut rng = psb_common::SplitMix64::new(42);
        rng.shuffle(&mut order);
        let mut b = psb_workloads::TraceBuilder::new(Addr::new(0x40_0000));
        for _ in 0..laps {
            for (i, &n) in order.iter().enumerate() {
                b.expect_pc(Addr::new(0x40_0000));
                let node = Addr::new(0x1000_0000 + n * 64);
                b.load(1, Some(1), node);
                b.alu(2, Some(1), None);
                b.alu(3, Some(2), None);
                b.cond(Some(3), i + 1 < order.len(), Addr::new(0x40_0000));
            }
            b.jump(Addr::new(0x40_0000));
        }
        b.finish()
    }

    fn run(kind: PrefetcherKind, trace: Vec<DynInst>) -> SimStats {
        Simulation::new(MachineConfig::baseline().with_prefetcher(kind), trace, u64::MAX).run()
    }

    #[test]
    fn psb_beats_stride_and_base_on_pointer_chase() {
        let t = chase_trace(12);
        let base = run(PrefetcherKind::None, t.clone());
        let stride = run(PrefetcherKind::PcStride, t.clone());
        let psb = run(PrefetcherKind::PsbConfPriority, t);
        assert!(
            psb.ipc() > base.ipc() * 1.1,
            "PSB {:.3} must beat base {:.3} clearly",
            psb.ipc(),
            base.ipc()
        );
        assert!(
            psb.ipc() > stride.ipc() * 1.05,
            "PSB {:.3} must beat PC-stride {:.3} on a pointer chase",
            psb.ipc(),
            stride.ipc()
        );
    }

    #[test]
    fn strided_microkernel_helps_both_prefetchers() {
        // A long strided walk of *dependent* loads (i = a[i] style): the
        // paper's prefetchers pay off when the chain serializes misses.
        let mut b = psb_workloads::TraceBuilder::new(Addr::new(0x40_0000));
        for i in 0..30_000u64 {
            b.expect_pc(Addr::new(0x40_0000));
            b.load(6, Some(6), Addr::new(0x1000_0000 + (i % 8192) * 64));
            b.alu(2, Some(6), None);
            b.alu(3, Some(2), None);
            b.cond(Some(3), true, Addr::new(0x40_0000));
        }
        // Terminate cleanly.
        let mut t = b.finish();
        let n = t.len();
        if let Some(bi) = &mut t[n - 1].branch {
            bi.taken = false;
        }
        let base = run(PrefetcherKind::None, t.clone());
        let stride = run(PrefetcherKind::PcStride, t.clone());
        let psb = run(PrefetcherKind::PsbConfPriority, t);
        assert!(stride.ipc() > base.ipc() * 1.2, "stride {} base {}", stride.ipc(), base.ipc());
        assert!(psb.ipc() > base.ipc() * 1.2, "psb {} base {}", psb.ipc(), base.ipc());
        // And on pure strides they are close.
        let ratio = psb.ipc() / stride.ipc();
        assert!((0.85..1.15).contains(&ratio), "psb/stride = {ratio:.3}");
    }

    #[test]
    fn stats_are_populated() {
        let s = run(PrefetcherKind::PsbConfPriority, chase_trace(4));
        assert!(s.cpu.cycles > 0);
        assert!(s.l1d.accesses() > 0);
        assert!(s.l1d_miss_rate() > 0.0);
        assert!(s.avg_load_latency() > 1.0);
        assert!(s.l1_l2_bus_percent() > 0.0);
        assert!(s.prefetch.issued > 0);
    }

    #[test]
    fn alu_only_trace_is_memory_quiet() {
        let trace: Vec<DynInst> = (0..1000)
            .map(|i| DynInst::alu(Addr::new(0x40_0000 + 4 * (i % 64)), Reg::new(1), None, None))
            .collect();
        let s = run(PrefetcherKind::PsbConfPriority, trace);
        assert_eq!(s.prefetch.issued, 0);
        assert_eq!(s.l1d.accesses(), 0);
        assert!(s.ipc() > 0.5);
    }
}
