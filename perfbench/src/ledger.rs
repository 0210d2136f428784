//! The per-layer ledger: splits a cell's host time between the pipeline
//! (`cpu`), the memory hierarchy (`mem`) and the prefetch engine (`core`)
//! from outside the simulator.
//!
//! 1. A recording pass runs the cell through [`Recorder`], a
//!    [`MemSystem`] wrapper around the real [`SimMemory`] that logs every
//!    call and every ready cycle the memory system returns.
//! 2. The pipeline replays against [`ReplayMem`], which serves those ready
//!    cycles back with no memory model behind them; its wall time is the
//!    pipeline's alone. Its `CpuStats` must equal the recorded ones.
//! 3. The recorded call stream drives a fresh `SimMemory` whose engine
//!    sits behind [`TimedEngine`]; every returned ready cycle must equal
//!    the recorded one. Time inside the proxy is `core`, the rest `mem`.

use crate::span::Span;
use psb_common::{Addr, Cycle};
use psb_core::{PrefetchSink, PrefetchStats, Prefetcher, SbLookup, SharedStreamObs};
use psb_cpu::{CpuStats, MemSystem, Pipeline};
use psb_obs::Obs;
use psb_sim::{MemLog, SimMemory, SimStats, SweepCell};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// One recorded call into the memory system.
#[derive(Copy, Clone, Debug)]
enum Call {
    Load {
        now: Cycle,
        pc: Addr,
        addr: Addr,
    },
    Store {
        now: Cycle,
        pc: Addr,
        addr: Addr,
    },
    IFetch {
        now: Cycle,
        pc: Addr,
    },
    FetchedLoad {
        now: Cycle,
        pc: Addr,
    },
    /// `count` consecutive cycles from `start`, each a `tick(t)` followed
    /// by `sample(t, committed)` with no other call between them. Ticks
    /// are implied one per cycle, so a stall of any length is one entry.
    Cycles {
        start: u64,
        count: u64,
        committed: u64,
    },
}

/// Records every call the pipeline makes into the wrapped memory system.
struct Recorder<'a> {
    mem: &'a mut SimMemory,
    calls: Vec<Call>,
    /// Ready cycles returned by `load` and `ifetch`, in call order.
    ready: Vec<Cycle>,
    /// The cycle whose `tick` has been seen but not yet its `sample`.
    ticked: Option<Cycle>,
    last_committed: u64,
    /// Cycles whose `sample` saw the committed count unchanged.
    no_commit_cycles: u64,
}

impl Recorder<'_> {
    /// Every call but `sample` must come outside a tick/sample pair, or
    /// the compact [`Call::Cycles`] encoding would reorder it on replay.
    fn untick(&self) {
        assert!(self.ticked.is_none(), "memory call between tick and sample");
    }
}

impl MemSystem for Recorder<'_> {
    fn load(&mut self, now: Cycle, pc: Addr, addr: Addr) -> Cycle {
        self.untick();
        let ready = self.mem.load(now, pc, addr);
        self.calls.push(Call::Load { now, pc, addr });
        self.ready.push(ready);
        ready
    }

    fn store(&mut self, now: Cycle, pc: Addr, addr: Addr) {
        self.untick();
        self.mem.store(now, pc, addr);
        self.calls.push(Call::Store { now, pc, addr });
    }

    fn ifetch(&mut self, now: Cycle, pc: Addr) -> Cycle {
        self.untick();
        let ready = self.mem.ifetch(now, pc);
        self.calls.push(Call::IFetch { now, pc });
        self.ready.push(ready);
        ready
    }

    fn fetched_load(&mut self, now: Cycle, pc: Addr) {
        self.untick();
        self.mem.fetched_load(now, pc);
        self.calls.push(Call::FetchedLoad { now, pc });
    }

    fn tick(&mut self, now: Cycle) {
        self.untick();
        self.mem.tick(now);
        self.ticked = Some(now);
    }

    fn sample(&mut self, now: Cycle, committed: u64) {
        assert_eq!(self.ticked.take(), Some(now), "sample without its cycle's tick");
        self.mem.sample(now, committed);
        if committed == self.last_committed {
            self.no_commit_cycles += 1;
        }
        self.last_committed = committed;
        let t = now.raw();
        match self.calls.last_mut() {
            Some(Call::Cycles { start, count, committed: c })
                if *start + *count == t && *c == committed =>
            {
                *count += 1
            }
            _ => self.calls.push(Call::Cycles { start: t, count: 1, committed }),
        }
    }
}

/// Serves recorded ready cycles back to the pipeline in call order.
/// `next` ends equal to the recording's length exactly when the pipeline
/// asked for as many values as were recorded.
struct ReplayMem<'a> {
    ready: &'a [Cycle],
    next: usize,
}

impl ReplayMem<'_> {
    fn serve(&mut self) -> Cycle {
        let ready = self.ready.get(self.next).copied().unwrap_or(Cycle::ZERO);
        self.next += 1;
        ready
    }
}

impl MemSystem for ReplayMem<'_> {
    fn load(&mut self, _now: Cycle, _pc: Addr, _addr: Addr) -> Cycle {
        self.serve()
    }

    fn store(&mut self, _now: Cycle, _pc: Addr, _addr: Addr) {}

    fn ifetch(&mut self, _now: Cycle, _pc: Addr) -> Cycle {
        self.serve()
    }
}

/// Host time and call counts collected by a [`TimedEngine`].
#[derive(Debug, Default)]
pub struct EngineClock {
    ns: Cell<u64>,
    calls: Cell<u64>,
    ticks: Cell<u64>,
}

/// A timing proxy for a prefetch engine. It forwards every
/// [`Prefetcher`] method, `quiescent` included: a proxy that answered
/// `quiescent` with the trait's conservative default would tick the engine
/// every cycle and time a different program.
pub struct TimedEngine {
    inner: Box<dyn Prefetcher>,
    clock: Rc<EngineClock>,
}

impl TimedEngine {
    /// Wraps `inner`; its time and calls accumulate in `clock`.
    pub fn new(inner: Box<dyn Prefetcher>, clock: Rc<EngineClock>) -> Self {
        TimedEngine { inner, clock }
    }
}

/// Runs `f`, charging its wall time and one call to `clock`.
fn timed<T>(clock: &EngineClock, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    clock.ns.set(clock.ns.get() + start.elapsed().as_nanos() as u64);
    clock.calls.set(clock.calls.get() + 1);
    out
}

impl Prefetcher for TimedEngine {
    fn lookup(&mut self, now: Cycle, addr: Addr) -> SbLookup {
        timed(&self.clock, || self.inner.lookup(now, addr))
    }

    fn train(&mut self, now: Cycle, pc: Addr, addr: Addr) {
        timed(&self.clock, || self.inner.train(now, pc, addr))
    }

    fn allocate(&mut self, now: Cycle, pc: Addr, addr: Addr) {
        timed(&self.clock, || self.inner.allocate(now, pc, addr))
    }

    fn tick(&mut self, now: Cycle, sink: &mut dyn PrefetchSink) {
        self.clock.ticks.set(self.clock.ticks.get() + 1);
        timed(&self.clock, || self.inner.tick(now, sink))
    }

    fn quiescent(&self) -> bool {
        timed(&self.clock, || self.inner.quiescent())
    }

    fn observe_fetch(&mut self, now: Cycle, pc: Addr) {
        timed(&self.clock, || self.inner.observe_fetch(now, pc))
    }

    fn attach_obs(&mut self, obs: &SharedStreamObs) {
        self.inner.attach_obs(obs)
    }

    fn stats(&self) -> PrefetchStats {
        self.inner.stats()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// What the clock itself costs per [`timed`] call, in nanoseconds.
#[derive(Copy, Clone, Debug)]
pub struct ClockCost {
    /// The part that lands inside the timed region (charged to `core`).
    pub inside: f64,
    /// The whole call, region and bookkeeping.
    pub total: f64,
}

impl ClockCost {
    /// Measures both costs on empty regions; the minimum over batches.
    pub fn measure() -> ClockCost {
        let mut cost = ClockCost { inside: f64::INFINITY, total: f64::INFINITY };
        for _ in 0..20 {
            let clock = EngineClock::default();
            let start = Instant::now();
            for _ in 0..10_000 {
                timed(&clock, || std::hint::black_box(()));
            }
            cost.total = cost.total.min(start.elapsed().as_nanos() as f64 / 10_000.0);
            cost.inside = cost.inside.min(clock.ns.get() as f64 / 10_000.0);
        }
        cost
    }
}

/// The ledger of one cell.
#[derive(Clone, Debug)]
pub struct CellLedger {
    /// Statistics of the recording pass.
    pub stats: SimStats,
    /// Host nanoseconds of the recording pass (the traced run).
    pub record_ns: f64,
    /// Pipeline-only nanoseconds (replay against recorded ready cycles).
    pub cpu_ns: f64,
    /// Memory-hierarchy nanoseconds of the memory replay, engine excluded.
    pub mem_ns: f64,
    /// Prefetch-engine nanoseconds of the memory replay.
    pub core_ns: f64,
    /// Engine ticks reached (not skipped as quiescent).
    pub engine_ticks: u64,
    /// Calls into the memory system other than the per-cycle tick/sample.
    pub mem_calls: u64,
    /// Cycles in which nothing committed.
    pub no_commit_cycles: u64,
    /// The first identity check that failed, if any.
    pub mismatch: Option<String>,
    /// Spans of the three steps, for the span file.
    pub spans: Vec<Span>,
}

/// The hub the `observed` workload attaches: Chrome trace and interval
/// sampling (its cells also carry a `MemLog::shared_ring(1000)` log).
pub fn full_obs() -> Obs {
    let obs = Obs::new();
    obs.enable_trace(1 << 20);
    obs.enable_interval(10_000);
    obs
}

/// The cell's memory system, assembled the way `Simulation::run` does.
fn machine(cell: &SweepCell, engine: Box<dyn Prefetcher>, observed: bool) -> SimMemory {
    let mut mem = SimMemory::with_engine(&cell.config, engine);
    if observed {
        mem.attach_log(MemLog::shared_ring(1000));
        mem.attach_obs(&full_obs());
    }
    mem
}

/// Closes a run the way `Simulation::run` does and collects its statistics.
fn finish(mem: &mut SimMemory, cpu: CpuStats) -> SimStats {
    mem.finish_sampling(Cycle::new(cpu.cycles), cpu.committed);
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

/// Drives `mem` with a recorded call stream; true when every returned
/// ready cycle equals the recorded one.
fn replay(mem: &mut SimMemory, calls: &[Call], ready: &[Cycle]) -> bool {
    let mut expected = ready.iter().copied();
    let mut same = true;
    for &call in calls {
        match call {
            Call::Load { now, pc, addr } => {
                same &= Some(mem.load(now, pc, addr)) == expected.next()
            }
            Call::Store { now, pc, addr } => mem.store(now, pc, addr),
            Call::IFetch { now, pc } => same &= Some(mem.ifetch(now, pc)) == expected.next(),
            Call::FetchedLoad { now, pc } => mem.fetched_load(now, pc),
            Call::Cycles { start, count, committed } => {
                for t in start..start + count {
                    mem.tick(Cycle::new(t));
                    mem.sample(Cycle::new(t), committed);
                }
            }
        }
    }
    same && expected.next().is_none()
}

fn same(a: &impl std::fmt::Debug, b: &impl std::fmt::Debug) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Runs the three ledger steps on `cell` and checks each against
/// `untraced`, the statistics of the same cell run without tracing.
pub fn ledger_cell(
    cell: &SweepCell,
    observed: bool,
    untraced: &SimStats,
    clock: ClockCost,
    epoch: Instant,
    tid: usize,
) -> CellLedger {
    let name = format!("{}/{}", cell.bench.name(), cell.label());
    let trace = cell.bench.shared_trace(cell.scale);
    let mut spans = Vec::new();
    let begin = Instant::now();

    let mut mem = machine(cell, cell.config.prefetcher.build(), observed);
    let mut rec = Recorder {
        mem: &mut mem,
        calls: Vec::new(),
        ready: Vec::new(),
        ticked: None,
        last_committed: 0,
        no_commit_cycles: 0,
    };
    let cpu = Pipeline::new(cell.config.cpu).run(trace.iter().copied(), &mut rec, cell.max_commits);
    let Recorder { calls, ready, no_commit_cycles, .. } = rec;
    let stats = finish(&mut mem, cpu);
    let record_ns = begin.elapsed().as_nanos() as f64;
    drop(mem);
    spans.push(Span::new("record", &name, tid, epoch, begin));

    let start = Instant::now();
    let mut served = ReplayMem { ready: &ready, next: 0 };
    let cpu =
        Pipeline::new(cell.config.cpu).run(trace.iter().copied(), &mut served, cell.max_commits);
    let cpu_ns = start.elapsed().as_nanos() as f64;
    spans.push(Span::new("cpu_replay", &name, tid, epoch, start));

    let engine = Rc::new(EngineClock::default());
    let start = Instant::now();
    let timed_engine = TimedEngine::new(cell.config.prefetcher.build(), engine.clone());
    let mut mem = machine(cell, Box::new(timed_engine), observed);
    let ready_same = replay(&mut mem, &calls, &ready);
    let replay_ns = start.elapsed().as_nanos() as f64;
    spans.push(Span::new("mem_replay", &name, tid, epoch, start));
    let replayed = finish(&mut mem, stats.cpu.clone());
    spans.push(Span::new(&name, "ledger", tid, epoch, begin));

    let mismatch = if !same(&stats, untraced) {
        Some("recorded SimStats differ from the untraced run")
    } else if served.next != ready.len() || !same(&cpu, &stats.cpu) {
        Some("pipeline replay did not reproduce the recorded CpuStats")
    } else if !ready_same {
        Some("memory replay returned a ready cycle that differs from the recording")
    } else if !same(&replayed, untraced) {
        Some("memory replay SimStats differ from the untraced run")
    } else {
        None
    };
    let calls_made = engine.calls.get() as f64;
    let engine_gross = engine.ns.get() as f64;
    CellLedger {
        record_ns,
        cpu_ns,
        mem_ns: replay_ns - engine_gross - calls_made * (clock.total - clock.inside),
        core_ns: engine_gross - calls_made * clock.inside,
        engine_ticks: engine.ticks.get(),
        mem_calls: calls.iter().filter(|c| !matches!(c, Call::Cycles { .. })).count() as u64,
        no_commit_cycles,
        mismatch: mismatch.map(|m| format!("{name}: {m}")),
        spans,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_core::{StreamObs, TestSink};
    use std::cell::RefCell;

    /// An engine that logs which trait methods reached it.
    struct Probe(Rc<RefCell<Vec<&'static str>>>);

    impl Probe {
        fn saw(&self, method: &'static str) {
            self.0.borrow_mut().push(method);
        }
    }

    impl Prefetcher for Probe {
        fn lookup(&mut self, now: Cycle, _addr: Addr) -> SbLookup {
            self.saw("lookup");
            SbLookup::Hit { ready: now + 7 }
        }
        fn train(&mut self, _now: Cycle, _pc: Addr, _addr: Addr) {
            self.saw("train");
        }
        fn allocate(&mut self, _now: Cycle, _pc: Addr, _addr: Addr) {
            self.saw("allocate");
        }
        fn tick(&mut self, now: Cycle, sink: &mut dyn PrefetchSink) {
            self.saw("tick");
            sink.fetch(now, Addr::new(0x40));
        }
        fn quiescent(&self) -> bool {
            self.saw("quiescent");
            true
        }
        fn observe_fetch(&mut self, _now: Cycle, _pc: Addr) {
            self.saw("observe_fetch");
        }
        fn attach_obs(&mut self, _obs: &SharedStreamObs) {
            self.saw("attach_obs");
        }
        fn stats(&self) -> PrefetchStats {
            self.saw("stats");
            PrefetchStats { issued: 3, ..Default::default() }
        }
        fn name(&self) -> &str {
            self.saw("name");
            "probe"
        }
    }

    struct NullObs;

    impl StreamObs for NullObs {}

    #[test]
    fn proxy_forwards_every_method_and_its_result() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let clock = Rc::new(EngineClock::default());
        let mut p = TimedEngine::new(Box::new(Probe(seen.clone())), clock.clone());
        let (now, a) = (Cycle::new(5), Addr::new(0x100));
        let mut sink = TestSink::new(2);
        assert_eq!(p.lookup(now, a), SbLookup::Hit { ready: Cycle::new(12) });
        p.train(now, a, a);
        p.allocate(now, a, a);
        p.tick(now, &mut sink);
        assert!(p.quiescent());
        p.observe_fetch(now, a);
        p.attach_obs(&(Rc::new(NullObs) as SharedStreamObs));
        assert_eq!(p.stats().issued, 3);
        assert_eq!(p.name(), "probe");
        assert_eq!(
            *seen.borrow(),
            [
                "lookup",
                "train",
                "allocate",
                "tick",
                "quiescent",
                "observe_fetch",
                "attach_obs",
                "stats",
                "name"
            ]
        );
        assert_eq!(sink.fetched, [Addr::new(0x40)], "tick reaches the engine with the sink");
        assert_eq!(clock.calls.get(), 6, "the six hot-path methods are timed");
        assert_eq!(clock.ticks.get(), 1);
    }
}
