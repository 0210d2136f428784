//! The composed memory system presented to the pipeline.

use crate::eventlog::{MemEvent, MemEventKind, MemLog, SharedMemLog};
use crate::MachineConfig;
use psb_common::event::{Emitter, Event};
use psb_common::metrics::Counter;
use psb_common::{Addr, Cycle};
use psb_core::{PrefetchSink, Prefetcher, SbLookup, SharedStreamObs, StreamObs};
use psb_cpu::MemSystem;
use psb_mem::{L1Access, L1Cache, LowerMemory, Tlb};
use psb_obs::{IntervalSample, Obs};
use std::rc::Rc;

/// Every attached subscriber to the event stream — the hub and the
/// event log — behind the one handle the engine and the prefetch path
/// emit into.
#[derive(Clone, Default)]
struct Subscribers {
    obs: Option<Obs>,
    log: Option<SharedMemLog>,
}

impl StreamObs for Subscribers {
    fn emit(&self, event: &Event) {
        if let Some(obs) = &self.obs {
            obs.emit(event);
        }
        if let Some(log) = &self.log {
            log.borrow_mut().emit(event);
        }
    }

    fn interest(&self) -> u32 {
        let log = if self.log.is_some() { MemLog::INTEREST } else { 0 };
        self.obs.as_ref().map_or(0, StreamObs::interest) | log
    }

    fn counter(&self, name: &str) -> Counter {
        self.obs.as_ref().map_or_else(Counter::new, |obs| obs.counter(name))
    }
}

/// The lower world shared by demand misses and prefetches: the L2 +
/// memory system and the data TLB. Split out so the prefetcher can borrow
/// it as its [`PrefetchSink`] while remaining a sibling field.
#[derive(Debug)]
struct Lower {
    lower: LowerMemory,
    dtlb: Tlb,
    l1_block: u64,
    /// The subscribers' handle; the memory system's access records go
    /// through it too.
    events: Emitter,
}

impl PrefetchSink for Lower {
    fn bus_free(&self, now: Cycle) -> bool {
        self.lower.l1_bus_free(now)
    }

    fn fetch(&mut self, now: Cycle, addr: Addr) -> Cycle {
        // The paper only issues prefetches when the L1-L2 bus is free at
        // the start of the cycle; publish the observation so the auditor
        // can catch an engine that fetches over a busy bus.
        #[cfg(feature = "check")]
        psb_check::audit(&psb_check::Snapshot::PrefetchFetch {
            now,
            bus_free: self.lower.l1_bus_free(now),
        });
        // Prefetches carry virtual addresses: translate first. A TLB miss
        // delays the prefetch and warms the TLB (TLB prefetching,
        // Section 4.5).
        let (ready, _) = self.dtlb.translate(now, addr, true);
        let done = self.lower.fetch_block(ready, addr, self.l1_block).ready;
        let kind = MemEventKind::Prefetch;
        self.events.emit(Event::Access(MemEvent { cycle: now, pc: None, addr, ready: done, kind }));
        done
    }
}

/// The full memory system: L1 caches, stream-buffer prefetcher, unified
/// L2, buses, DRAM and D-TLB.
///
/// Implements [`MemSystem`] for the pipeline. The per-access protocol for
/// a demand load mirrors Section 4.1 of the paper:
///
/// 1. The L1 and the stream buffers are probed in parallel (we model the
///    stream-buffer lookup latency as equal to the L1 latency).
/// 2. An L1 miss that hits a stream buffer moves the block into the L1
///    (resident) or hands the tag to an MSHR (in flight).
/// 3. An L1 miss trains the address predictor (the "write-back stage"
///    update; only *primary* misses train, keeping the miss stream
///    clean), and a miss in both structures requests a stream allocation
///    and fetches the block from the lower memory system.
/// 4. If every MSHR is busy, the miss is still served at its ready cycle
///    but its block is never installed; no structural stall is modelled.
pub struct SimMemory {
    l1d: L1Cache,
    l1i: L1Cache,
    inner: Lower,
    prefetcher: Box<dyn Prefetcher>,
    subscribers: Subscribers,
    /// Next cycle the interval sampler is due, or `u64::MAX` when
    /// interval sampling is off — keeps the per-cycle
    /// [`MemSystem::sample`] hook to a single compare.
    next_sample: u64,
    /// Epoch width in cycles (zero when interval sampling is off).
    sample_every: u64,
    /// Cached [`Prefetcher::quiescent`] verdict from the last real tick.
    /// While true, [`MemSystem::tick`] skips the engine's virtual
    /// dispatch entirely: the engine has promised its tick is a no-op
    /// until the next lookup / training / allocation / fetch
    /// observation. [`SimMemory::miss`] clears the flag, and
    /// [`MemSystem::fetched_load`] keeps it only if the engine is still
    /// quiescent after the sighting. While interval sampling is off, the
    /// flag is also the [`MemSystem::idle`] answer that lets the pipeline
    /// jump over cycles in which none of its stages can act.
    pf_idle: bool,
    /// When set, [`Prefetcher::quiescent`] verdicts are ignored: the
    /// engine is ticked every cycle and the memory system never reports
    /// itself idle, so the pipeline steps through every cycle too. Both
    /// skips are optimizations with an exactness claim; forcing every
    /// tick is how the differential suites and the mutation-testing kill
    /// suite pin that claim down. Enabled by [`SimMemory::set_force_tick`]
    /// or the `PSB_FORCE_TICK` environment switch (any value but `0`),
    /// read once at construction so the hot path never touches the
    /// environment.
    force_tick: bool,
}

/// Reads the `PSB_FORCE_TICK` environment switch: set and not `"0"`
/// means every cycle performs a real prefetcher tick.
fn force_tick_env() -> bool {
    std::env::var_os("PSB_FORCE_TICK").is_some_and(|v| !v.is_empty() && v != "0")
}

impl SimMemory {
    /// Builds the memory system described by `config`.
    pub fn new(config: &MachineConfig) -> Self {
        Self::with_engine(config, config.prefetcher.build())
    }

    /// Builds the memory system with a custom prefetch engine (used by
    /// the ablation harness to sweep predictor/scheduler parameters that
    /// [`crate::PrefetcherKind`] does not enumerate).
    pub fn with_engine(config: &MachineConfig, prefetcher: Box<dyn Prefetcher>) -> Self {
        let mem = &config.mem;
        SimMemory {
            l1d: L1Cache::new(mem.l1d, mem.l1_latency, mem.l1d_mshrs)
                .with_victim(config.victim_entries, 1),
            l1i: L1Cache::new(mem.l1i, mem.l1_latency, mem.l1i_mshrs),
            inner: Lower {
                lower: LowerMemory::new(mem),
                dtlb: Tlb::new(
                    mem.dtlb_entries,
                    mem.dtlb_assoc,
                    mem.page_size,
                    mem.dtlb_miss_latency,
                ),
                l1_block: mem.l1d.block,
                events: Emitter::default(),
            },
            prefetcher,
            subscribers: Subscribers::default(),
            next_sample: u64::MAX,
            sample_every: 0,
            pf_idle: false,
            force_tick: force_tick_env(),
        }
    }

    /// Forces a real prefetcher tick every cycle, defeating the
    /// quiescence skip-ahead and the pipeline's idle-cycle skip (see the
    /// `force_tick` field). Programmatic equivalent of the
    /// `PSB_FORCE_TICK` environment switch; forcing must never change
    /// any reported result, and the differential suites assert exactly
    /// that.
    pub fn set_force_tick(&mut self, on: bool) {
        self.force_tick = on;
        self.pf_idle = false;
    }

    /// Attaches a shared event log; demand accesses, prefetches, I-fetch
    /// misses and the fills, late uses and unused evictions of prefetched
    /// blocks are recorded until it fills.
    pub fn attach_log(&mut self, log: SharedMemLog) {
        #[cfg(feature = "check")]
        log.borrow_mut().set_check_skew(self.inner.dtlb.miss_latency());
        self.subscribers.log = Some(log);
        self.subscribe();
    }

    /// Attaches the observability hub: every component registers its
    /// counters/histograms/gauges with the hub's registry, the hub
    /// subscribes to the stream engine's lifecycle events, and
    /// (when the hub has an interval sampler) per-epoch time series are
    /// recorded from [`MemSystem::sample`].
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.l1d.attach_obs(obs.gauge("l1d.mshr.occupancy"), obs.counter("l1d.mshr.full_rejects"));
        self.l1i.attach_obs(obs.gauge("l1i.mshr.occupancy"), obs.counter("l1i.mshr.full_rejects"));
        self.inner.lower.attach_obs(obs);
        if let Some(victim) = self.l1d.victim_mut() {
            victim.attach_obs(obs.counter("victim.rescues"));
        }
        self.subscribers.obs = Some(obs.clone());
        self.subscribe();
        if let Some(every) = obs.interval_every() {
            self.sample_every = every;
            self.next_sample = every;
        }
    }

    /// Hands one handle on every attached subscriber to the engine and
    /// to the prefetch path, which read its interest mask once, here.
    fn subscribe(&mut self) {
        let subscribers: SharedStreamObs = Rc::new(self.subscribers.clone());
        self.prefetcher.attach_obs(&subscribers);
        self.inner.events = Emitter::new(subscribers);
        self.pf_idle = false;
    }

    /// Builds the cumulative counter snapshot the interval sampler
    /// differences into per-epoch rates.
    fn interval_snapshot(&self, cycle: u64, committed: u64) -> IntervalSample {
        let l1d = self.l1d.stats();
        let pf = self.prefetcher.stats();
        IntervalSample {
            cycle,
            committed,
            l1d_accesses: l1d.accesses(),
            l1d_misses: l1d.misses,
            pf_issued: pf.issued,
            pf_used: pf.used,
            l1_l2_busy: self.inner.lower.l1_l2_bus().busy_cycles(),
        }
    }

    /// Flushes a final (possibly partial) epoch at the end of a run so
    /// the time series covers every cycle. No-op when interval sampling
    /// is off.
    pub fn finish_sampling(&mut self, now: Cycle, committed: u64) {
        if self.sample_every == 0 {
            return;
        }
        if let Some(obs) = &self.subscribers.obs {
            obs.interval_record(self.interval_snapshot(now.raw(), committed));
        }
    }

    fn record(&self, cycle: Cycle, pc: Option<Addr>, addr: Addr, ready: Cycle, kind: MemEventKind) {
        self.inner.events.emit(Event::Access(MemEvent { cycle, pc, addr, ready, kind }));
    }

    /// The L1 data cache (for statistics).
    pub fn l1d(&self) -> &L1Cache {
        &self.l1d
    }

    /// The L1 instruction cache (for statistics).
    pub fn l1i(&self) -> &L1Cache {
        &self.l1i
    }

    /// The lower memory system (for statistics).
    pub fn lower(&self) -> &LowerMemory {
        &self.inner.lower
    }

    /// The data TLB (for statistics).
    pub fn dtlb(&self) -> &Tlb {
        &self.inner.dtlb
    }

    /// The prefetch engine (for statistics).
    pub fn prefetcher(&self) -> &dyn Prefetcher {
        self.prefetcher.as_ref()
    }

    /// Handles an L1D miss shared by loads and stores: probe the stream
    /// buffers, then fall back to the lower memory system. Returns the
    /// data-ready cycle. `is_load` gates predictor training/allocation.
    fn miss(&mut self, now: Cycle, pc: Addr, addr: Addr, is_load: bool) -> Cycle {
        // Any miss may wake the prefetcher (a lookup hit frees an entry;
        // an allocation opens a stream): drop the idle-tick shortcut.
        self.pf_idle = false;
        if is_load {
            // Write-back-stage predictor update: primary load misses only.
            self.prefetcher.train(now, pc, addr);
        }
        // Victim cache (when configured): rescue recent conflict evictions
        // before consulting the prefetcher or the lower hierarchy.
        if let Some(ready) = self.l1d.rescue(now, addr) {
            self.record(now, Some(pc), addr, ready, MemEventKind::VictimHit);
            return ready;
        }
        let block = self.l1d.block_of(addr);
        match self.prefetcher.lookup(now, addr) {
            SbLookup::Hit { ready } => {
                if ready <= now {
                    // Resident in a stream buffer: move into the L1.
                    self.l1d.install(addr);
                    let ready = now + self.l1d.latency();
                    self.record(now, Some(pc), addr, ready, MemEventKind::SbHitReady);
                    ready
                } else {
                    // In flight: the tag moves to an MSHR and the data
                    // cache handles the fill when it arrives.
                    let _ = self.l1d.start_fill(block, ready);
                    self.record(now, Some(pc), addr, ready, MemEventKind::SbHitInFlight);
                    ready
                }
            }
            SbLookup::Miss => {
                if is_load {
                    self.prefetcher.allocate(now, pc, addr);
                }
                let completion = self.inner.lower.fetch_block(now, addr, self.inner.l1_block);
                let _ = self.l1d.start_fill(block, completion.ready);
                let kind = if is_load {
                    if completion.l2_hit {
                        MemEventKind::DemandL2
                    } else {
                        MemEventKind::DemandMemory
                    }
                } else {
                    MemEventKind::StoreMiss
                };
                self.record(now, Some(pc), addr, completion.ready, kind);
                completion.ready
            }
        }
    }
}

impl MemSystem for SimMemory {
    fn load(&mut self, now: Cycle, pc: Addr, addr: Addr) -> Cycle {
        let (start, _) = self.inner.dtlb.translate(now, addr, false);
        match self.l1d.lookup(start, addr) {
            L1Access::Hit { ready } => {
                self.record(start, Some(pc), addr, ready, MemEventKind::L1Hit);
                ready
            }
            L1Access::InFlight { ready } => {
                let ready = ready.max(start + self.l1d.latency());
                self.record(start, Some(pc), addr, ready, MemEventKind::L1InFlight);
                ready
            }
            L1Access::Miss => self.miss(start, pc, addr, true),
        }
    }

    fn store(&mut self, now: Cycle, pc: Addr, addr: Addr) {
        let (start, _) = self.inner.dtlb.translate(now, addr, false);
        match self.l1d.lookup(start, addr) {
            L1Access::Hit { .. } | L1Access::InFlight { .. } => {}
            // Write-allocate: the store fetches the block, but commit
            // never waits on it.
            L1Access::Miss => {
                self.miss(start, pc, addr, false);
            }
        }
    }

    fn ifetch(&mut self, now: Cycle, pc: Addr) -> Cycle {
        match self.l1i.lookup(now, pc) {
            L1Access::Hit { .. } => now,
            L1Access::InFlight { ready } => ready,
            L1Access::Miss => {
                let block = self.l1i.block_of(pc);
                let completion = self.inner.lower.fetch_block(now, pc, self.inner.l1_block);
                let _ = self.l1i.start_fill(block, completion.ready);
                self.record(now, None, pc, completion.ready, MemEventKind::IFetchMiss);
                completion.ready
            }
        }
    }

    fn tick(&mut self, now: Cycle) {
        if !self.pf_idle {
            self.prefetcher.tick(now, &mut self.inner);
            self.pf_idle = !self.force_tick && self.prefetcher.quiescent();
        }
    }

    fn sample(&mut self, now: Cycle, committed: u64) {
        let t = now.raw();
        if t < self.next_sample {
            return;
        }
        let snapshot = self.interval_snapshot(t, committed);
        if let Some(obs) = &self.subscribers.obs {
            obs.interval_record(snapshot);
        }
        while self.next_sample <= t {
            self.next_sample += self.sample_every;
        }
    }

    fn fetched_load(&mut self, now: Cycle, pc: Addr) {
        self.prefetcher.observe_fetch(now, pc);
        // Only an engine that queued work on the sighting needs its tick.
        self.pf_idle = self.pf_idle && self.prefetcher.quiescent();
    }

    fn idle(&self) -> bool {
        self.pf_idle && self.sample_every == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrefetcherKind;

    fn memsys(kind: PrefetcherKind) -> SimMemory {
        SimMemory::new(&MachineConfig::baseline().with_prefetcher(kind))
    }

    #[test]
    fn l1i_and_l1d_mshrs_size_independently() {
        // Regression: the i-cache used to be built with `l1d_mshrs`, so
        // the two files could never be sized apart.
        let mut config = MachineConfig::baseline();
        config.mem.l1d_mshrs = 4;
        config.mem.l1i_mshrs = 2;
        let m = SimMemory::new(&config);
        assert_eq!(m.l1d().mshr_capacity(), 4);
        assert_eq!(m.l1i().mshr_capacity(), 2);
    }

    #[test]
    fn cold_load_pays_full_miss_then_hits() {
        let mut m = memsys(PrefetcherKind::None);
        let a = Addr::new(0x1000_0000);
        let r1 = m.load(Cycle::ZERO, Addr::new(0x400), a);
        // TLB miss (30) + L1 bus (4) + L2 (12) + mem bus (16) + DRAM (120).
        assert!(r1 > Cycle::new(150), "{r1:?}");
        let r2 = m.load(r1, Addr::new(0x400), a);
        assert_eq!(r2, r1 + 1, "warm load is an L1 hit");
        assert_eq!(m.l1d().stats().misses, 1);
        assert_eq!(m.l1d().stats().hits, 1);
    }

    #[test]
    fn inflight_load_merges() {
        let mut m = memsys(PrefetcherKind::None);
        let a = Addr::new(0x1000_0000);
        let r1 = m.load(Cycle::ZERO, Addr::new(0x400), a);
        let r2 = m.load(Cycle::new(40), Addr::new(0x404), Addr::new(0x1000_0008));
        assert_eq!(r2, r1, "same block in flight");
        assert_eq!(m.l1d().stats().misses, 2, "in-flight access counts as a miss");
    }

    #[test]
    fn strided_loads_get_prefetched() {
        let mut m = memsys(PrefetcherKind::PcStride);
        let pc = Addr::new(0x400);
        let mut now = Cycle::ZERO;
        let mut miss_latencies = Vec::new();
        // March through 64 blocks with one load PC; the stream buffer
        // should start covering misses after the filter opens.
        for i in 0..64u64 {
            let a = Addr::new(0x1000_0000 + 64 * i);
            let done = m.load(now, pc, a);
            miss_latencies.push(done.since(now));
            now = done + 20; // give the prefetcher bus slack
            for c in 0..20 {
                m.tick(done + c);
            }
        }
        let early: u64 = miss_latencies[..8].iter().sum();
        let late: u64 = miss_latencies[56..].iter().sum();
        assert!(
            late * 3 < early,
            "prefetching must slash late miss latency: early {early}, late {late}"
        );
        assert!(m.prefetcher().stats().used > 20);
    }

    #[test]
    fn stores_allocate_but_do_not_train() {
        let mut m = memsys(PrefetcherKind::PcStride);
        for i in 0..10u64 {
            m.store(Cycle::new(i * 200), Addr::new(0x500), Addr::new(0x2000_0000 + 64 * i));
        }
        // Stores never train or allocate the predictor-side tables.
        assert_eq!(m.prefetcher().stats().allocations, 0);
        assert_eq!(m.prefetcher().stats().alloc_rejected, 0);
    }

    #[test]
    fn ifetch_misses_use_the_shared_bus() {
        let mut m = memsys(PrefetcherKind::None);
        let r = m.ifetch(Cycle::ZERO, Addr::new(0x40_0000));
        assert!(r > Cycle::ZERO, "cold I-miss stalls fetch");
        let r2 = m.ifetch(r, Addr::new(0x40_0000));
        assert_eq!(r2, r, "warm I-fetch is free");
        assert!(m.lower().l1_l2_bus().transactions() >= 1);
    }

    #[test]
    fn a_fetch_sighting_wakes_only_an_engine_it_gives_work() {
        for (kind, wakes) in [(PrefetcherKind::None, false), (PrefetcherKind::FetchDirected, true)]
        {
            let mut m = memsys(kind);
            m.set_force_tick(false);
            let pc = Addr::new(0x400);
            // Misses at a steady stride train fetch-directed's table.
            for i in 0..5u64 {
                m.load(Cycle::new(1000 * i), pc, Addr::new(0x1000_0000 + 64 * i));
            }
            m.tick(Cycle::new(5000));
            assert!(m.idle(), "{kind:?}: training queues nothing");
            m.fetched_load(Cycle::new(5001), pc);
            assert_eq!(m.idle(), !wakes, "{kind:?}");
        }
    }

    #[test]
    fn interval_sampling_and_forced_ticks_keep_the_memory_busy() {
        let mut m = memsys(PrefetcherKind::None);
        m.set_force_tick(false);
        m.tick(Cycle::ZERO);
        assert!(m.idle(), "the null engine is always quiescent");
        m.set_force_tick(true);
        m.tick(Cycle::new(1));
        assert!(!m.idle(), "forced ticks never go idle");
        let mut m = memsys(PrefetcherKind::None);
        m.set_force_tick(false);
        let obs = Obs::new();
        obs.enable_interval(100);
        m.attach_obs(&obs);
        m.tick(Cycle::ZERO);
        assert!(!m.idle(), "a due sample is real work");
    }

    #[test]
    fn tlb_prefetching_warms_translations() {
        let mut m = memsys(PrefetcherKind::PcStride);
        // Train a big stride that crosses pages.
        let pc = Addr::new(0x600);
        let mut now = Cycle::ZERO;
        for i in 0..16u64 {
            let a = Addr::new(0x4000_0000 + 8192 * i);
            let done = m.load(now, pc, a);
            for c in 0..40 {
                m.tick(done + c);
            }
            now = done + 40;
        }
        assert!(m.dtlb().stats().prefetch_misses > 0, "prefetches must walk the TLB");
    }
}
