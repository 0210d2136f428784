//! The out-of-order execution pipeline.
//!
//! A trace-driven model of the paper's 8-way dynamically scheduled
//! processor: fetch (gshare-directed, 2 predictions/cycle, I-cache
//! modeled) → dispatch (rename into a 128-entry ROB with a 64-entry
//! load/store queue) → issue (dataflow order under functional-unit and
//! memory-ordering constraints) → commit.
//!
//! The pipeline replays the *correct-path* dynamic instruction stream
//! produced by a workload generator. Branch mispredictions stall the
//! front end until the branch resolves (minimum 8-cycle penalty), rather
//! than executing a wrong path — see DESIGN.md §4 for why this
//! substitution is sound for the paper's experiments.
//!
//! Scheduling is event-driven, so a cycle costs the work it does, not a
//! ROB scan. An entry waits on its register producers and, for a load,
//! the youngest older store it overlaps, found once at dispatch. Each
//! producer sets its consumers' ready cycle when it issues; issue walks
//! only the age-ordered set of entries whose operands are visible.
//! Results become visible from each entry's own `finish` cycle, and a
//! mispredicted branch fixes the redirect cycle when it issues.

use crate::bpred::{BpredStats, BranchPredictor};
use crate::config::{CpuConfig, Disambiguation};
use crate::fu::FuPool;
use crate::inst::{DynInst, Op, Reg};
use crate::mem_iface::MemSystem;
use psb_common::stats::RunningMean;
use psb_common::{Addr, Cycle};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Results of one pipeline run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CpuStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed branches.
    pub branches: u64,
    /// Loads satisfied by store-to-load forwarding (these never reach the
    /// cache, and per the paper never train the address predictor).
    pub forwarded_loads: u64,
    /// Issue-to-completion latency of every committed load.
    pub load_latency: RunningMean,
    /// Branch-predictor accuracy counters.
    pub bpred: BpredStats,
}

impl CpuStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Fraction of committed instructions that were loads.
    pub fn load_fraction(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.loads as f64 / self.committed as f64
        }
    }

    /// Fraction of committed instructions that were stores.
    pub fn store_fraction(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.stores as f64 / self.committed as f64
        }
    }
}

#[derive(Clone, Debug)]
struct RobEntry {
    inst: DynInst,
    mispredicted: bool,
    /// The cycle the functional unit or memory system delivers the
    /// result; `None` until the entry issues.
    finish: Option<Cycle>,
    issued_at: Cycle,
    forwarded: bool,
    /// For a load: the youngest older store it overlaps, if one was in
    /// the window at dispatch.
    store: Option<u64>,
    /// Producers that have not issued yet.
    waiting_on: u8,
    /// The first cycle the results of every issued producer are visible.
    ready_at: Cycle,
}

impl RobEntry {
    /// The first cycle issue sees the result: `finish`, but never before
    /// the cycle after issue. Commit sees it one cycle later.
    fn done(&self) -> Option<Cycle> {
        self.finish.map(|finish| finish.max(self.issued_at + 1))
    }

    /// The byte range a load or store touches.
    fn mem_range(&self) -> (Addr, u64) {
        let addr = self.inst.mem_addr.expect("invariant: mem ops always carry an address");
        (addr, u64::from(self.inst.mem_size))
    }
}

/// The out-of-order pipeline.
///
/// # Example
///
/// ```
/// use psb_common::Addr;
/// use psb_cpu::{CpuConfig, DynInst, FixedLatencyMemory, Pipeline, Reg};
///
/// // Two independent ALU ops issue together on the 8-wide core.
/// let trace = vec![
///     DynInst::alu(Addr::new(0x1000), Reg::new(1), None, None),
///     DynInst::alu(Addr::new(0x1004), Reg::new(2), None, None),
/// ];
/// let mut mem = FixedLatencyMemory::new(1);
/// let stats = Pipeline::new(CpuConfig::baseline()).run(trace, &mut mem, u64::MAX);
/// assert_eq!(stats.committed, 2);
/// ```
pub struct Pipeline {
    config: CpuConfig,
    bpred: BranchPredictor,
    fu: FuPool,
    rob: VecDeque<RobEntry>,
    head_seq: u64,
    next_seq: u64,
    fetch_queue: VecDeque<(DynInst, bool)>,
    lsq_count: usize,
    last_writer: [Option<u64>; Reg::COUNT],
    // Scheduling state. An unissued entry is in the `consumers` list of
    // each unissued producer, then in `waking` until its operands are
    // visible, then in `ready`, oldest first, until it issues. `consumers`
    // is a ring of at least `rob_size` lists indexed by the low bits of
    // `seq`, so each list is reused by the entries that occupy its slot.
    consumers: Vec<Vec<u64>>,
    waking: BinaryHeap<Reverse<(Cycle, u64)>>,
    ready: Vec<u64>,
    // In-window stores with their byte ranges, and the unissued ones, in
    // age order.
    stores: VecDeque<(u64, Addr, u64)>,
    unissued_stores: VecDeque<u64>,
    // Fetch state. Fetch runs from `fetch_ready`: the end of an I-cache
    // miss, or the redirect, which is `u64::MAX` until the branch issues.
    fetch_ready: Cycle,
    halt_cycle: Cycle,
    last_fetch_block: Option<u64>,
    trace_done: bool,
    now: Cycle,
    stats: CpuStats,
}

impl Pipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: CpuConfig) -> Self {
        Pipeline {
            config,
            bpred: BranchPredictor::new(config.bpred),
            fu: FuPool::paper_baseline(),
            rob: VecDeque::with_capacity(config.rob_size),
            head_seq: 0,
            next_seq: 0,
            fetch_queue: VecDeque::with_capacity(config.fetch_queue_size),
            lsq_count: 0,
            last_writer: [None; Reg::COUNT],
            consumers: vec![Vec::new(); config.rob_size.next_power_of_two()],
            waking: BinaryHeap::new(),
            ready: Vec::new(),
            stores: VecDeque::new(),
            unissued_stores: VecDeque::new(),
            fetch_ready: Cycle::ZERO,
            halt_cycle: Cycle::ZERO,
            last_fetch_block: None,
            trace_done: false,
            now: Cycle::ZERO,
            stats: CpuStats::default(),
        }
    }

    /// Runs the pipeline over `trace` against `mem` until the trace is
    /// drained or `max_commits` instructions have committed. Returns the
    /// accumulated statistics.
    ///
    /// # Panics
    ///
    /// Panics if the machine deadlocks (no commit for 1,000,000 cycles) —
    /// this indicates a bug in a trace generator or memory model, never a
    /// legal simulation outcome.
    pub fn run<I, M>(mut self, trace: I, mem: &mut M, max_commits: u64) -> CpuStats
    where
        I: IntoIterator<Item = DynInst>,
        M: MemSystem,
    {
        let mut trace = trace.into_iter().peekable();
        let mut last_commit_cycle = Cycle::ZERO;

        loop {
            let committed_before = self.stats.committed;
            self.commit(mem);
            self.issue(mem);
            self.dispatch();
            self.fetch(&mut trace, mem);
            mem.tick(self.now);
            mem.sample(self.now, self.stats.committed);

            if self.stats.committed > committed_before {
                last_commit_cycle = self.now;
            }

            let drained = self.trace_done && self.rob.is_empty() && self.fetch_queue.is_empty();
            if drained || self.stats.committed >= max_commits {
                break;
            }

            assert!(
                self.now.since(last_commit_cycle) < 1_000_000,
                "pipeline deadlock at {:?}: rob={}, fq={}, head={:?}",
                self.now,
                self.rob.len(),
                self.fetch_queue.len(),
                self.rob.front().map(|e| (e.inst, e.finish)),
            );
            self.now += 1;
        }

        self.stats.cycles = self.now.raw() + 1;
        self.stats.bpred = self.bpred.stats();
        self.stats
    }

    fn entry(&self, seq: u64) -> Option<&RobEntry> {
        seq.checked_sub(self.head_seq).and_then(|i| self.rob.get(i as usize))
    }

    fn commit<M: MemSystem>(&mut self, mem: &mut M) {
        let mut committed = 0;
        while committed < self.config.commit_width {
            let Some(head) = self.rob.front() else { break };
            // Commit sees a result one cycle after issue does.
            if head.done().is_none_or(|done| done >= self.now) {
                break;
            }
            let e = self.rob.pop_front().expect("invariant: the loop guard saw a front element");
            self.head_seq += 1;
            committed += 1;
            self.stats.committed += 1;
            match e.inst.op {
                Op::Load => {
                    let finish = e.finish.expect("invariant: only issued entries commit");
                    self.stats.loads += 1;
                    self.stats.load_latency.add(finish.since(e.issued_at));
                    if e.forwarded {
                        self.stats.forwarded_loads += 1;
                    }
                    self.lsq_count -= 1;
                }
                Op::Store => {
                    self.stats.stores += 1;
                    self.lsq_count -= 1;
                    self.stores.pop_front();
                    mem.store(self.now, e.inst.pc, e.mem_range().0);
                }
                Op::Branch => self.stats.branches += 1,
                _ => {}
            }
        }
    }

    /// Moves the entries whose operands became visible into the ready
    /// set, then issues ready entries oldest first.
    fn issue<M: MemSystem>(&mut self, mem: &mut M) {
        while self.waking.peek().is_some_and(|&Reverse((at, _))| at <= self.now) {
            let Some(Reverse((_, seq))) = self.waking.pop() else { break };
            let (Ok(at) | Err(at)) = self.ready.binary_search(&seq);
            self.ready.insert(at, seq);
        }
        let mut ready = std::mem::take(&mut self.ready);
        let mut issued = 0;
        ready.retain(|&seq| {
            let issues = issued < self.config.issue_width && self.try_issue(seq, mem);
            issued += usize::from(issues);
            !issues
        });
        self.ready = ready;
    }

    /// Issues the ready entry `seq` if memory ordering and a functional
    /// unit allow it, and wakes its consumers. Returns whether it issued.
    fn try_issue<M: MemSystem>(&mut self, seq: u64, mem: &mut M) -> bool {
        let (now, idx) = (self.now, (seq - self.head_seq) as usize);
        let (inst, store) = (self.rob[idx].inst, self.rob[idx].store);
        // Under NoDis a load also waits for every older store to issue.
        let nodis = self.config.disambiguation == Disambiguation::WaitForStores;
        if inst.op.is_load() && nodis && self.unissued_stores.front().is_some_and(|&s| s < seq) {
            return false;
        }
        let Some(fu_finish) = self.fu.try_issue(inst.op, now) else {
            return false;
        };
        // A store dependence still in the window forwards its data; once
        // it has committed, the load reads the cache.
        let forwarded = store.is_some_and(|s| s >= self.head_seq);
        let finish = match inst.mem_addr {
            _ if forwarded => now + self.config.store_forward_latency,
            Some(addr) if inst.op.is_load() => mem.load(now, inst.pc, addr),
            _ => fu_finish,
        };
        let e = &mut self.rob[idx];
        (e.finish, e.issued_at, e.forwarded) = (Some(finish), now, forwarded);
        let done = e.done().expect("invariant: the entry just issued");
        if e.mispredicted {
            // The only unresolved mispredict: fix the redirect now.
            let earliest = self.halt_cycle + self.config.min_mispredict_penalty;
            self.fetch_ready = earliest.max(done + self.config.redirect_latency);
        }
        if inst.op.is_store() {
            self.unissued_stores.retain(|&s| s != seq);
        }
        let slot = seq as usize & (self.consumers.len() - 1);
        for c in self.consumers[slot].drain(..) {
            let e = &mut self.rob[(c - self.head_seq) as usize];
            e.ready_at = e.ready_at.max(done);
            e.waiting_on -= 1;
            if e.waiting_on == 0 {
                self.waking.push(Reverse((e.ready_at, c)));
            }
        }
        true
    }

    fn dispatch(&mut self) {
        let mut dispatched = 0;
        while dispatched < self.config.dispatch_width {
            let Some(&(inst, _)) = self.fetch_queue.front() else {
                break;
            };
            if self.rob.len() >= self.config.rob_size {
                break;
            }
            if inst.op.is_mem() && self.lsq_count >= self.config.lsq_size {
                break;
            }
            let (inst, mispredicted) = self
                .fetch_queue
                .pop_front()
                .expect("invariant: the loop guard saw a front element");
            let seq = self.next_seq;
            self.next_seq += 1;
            let mut e = RobEntry {
                inst,
                mispredicted,
                finish: None,
                issued_at: Cycle::ZERO,
                forwarded: false,
                store: None,
                waiting_on: 0,
                ready_at: Cycle::ZERO,
            };
            if inst.op.is_mem() {
                self.lsq_count += 1;
                let (addr, size) = e.mem_range();
                if inst.op.is_store() {
                    self.stores.push_back((seq, addr, size));
                    self.unissued_stores.push_back(seq);
                } else {
                    // The youngest older store to the same memory, once.
                    let mut older = self.stores.iter().rev();
                    e.store = older.find(|s| s.1.overlaps(s.2, addr, size)).map(|s| s.0);
                }
            }
            let writer = |r: Option<Reg>| r.and_then(|r| self.last_writer[r.index()]);
            for producer in [writer(inst.src1), writer(inst.src2), e.store].into_iter().flatten() {
                // A committed producer is visible; an issued one from its
                // `done`; an unissued one wakes this entry when it issues.
                match self.entry(producer).map(RobEntry::done) {
                    None => {}
                    Some(Some(done)) => e.ready_at = e.ready_at.max(done),
                    Some(None) => {
                        e.waiting_on += 1;
                        let slot = producer as usize & (self.consumers.len() - 1);
                        self.consumers[slot].push(seq);
                    }
                }
            }
            if e.waiting_on == 0 {
                self.waking.push(Reverse((e.ready_at, seq)));
            }
            if let Some(dst) = inst.dst {
                self.last_writer[dst.index()] = Some(seq);
            }
            self.rob.push_back(e);
            dispatched += 1;
        }
    }

    fn fetch<I, M>(&mut self, trace: &mut std::iter::Peekable<I>, mem: &mut M)
    where
        I: Iterator<Item = DynInst>,
        M: MemSystem,
    {
        if self.now < self.fetch_ready {
            return;
        }

        let mut fetched = 0;
        let mut branches = 0;
        while fetched < self.config.fetch_width
            && self.fetch_queue.len() < self.config.fetch_queue_size
        {
            let Some(peeked) = trace.peek() else {
                self.trace_done = true;
                break;
            };
            if peeked.op == Op::Branch && branches >= self.config.branches_per_fetch {
                break;
            }
            // New I-cache block: model the instruction fetch.
            let block = peeked.pc.raw() / self.config.icache_block.max(1);
            if self.last_fetch_block != Some(block) {
                let ready = mem.ifetch(self.now, peeked.pc);
                if ready > self.now {
                    self.fetch_ready = ready;
                    break;
                }
                self.last_fetch_block = Some(block);
            }

            let inst = trace.next().expect("invariant: peek just returned Some");
            fetched += 1;
            if inst.op.is_load() {
                mem.fetched_load(self.now, inst.pc);
            }
            let mut mispredicted = false;
            let mut ends_group = false;
            if let Some(info) = inst.branch {
                branches += 1;
                let p = self.bpred.predict_and_train(inst.pc, info);
                mispredicted = !p.correct;
                ends_group = info.taken || mispredicted;
            }
            self.fetch_queue.push_back((inst, mispredicted));
            if mispredicted {
                // Halt until the branch issues; the redirect refetches.
                self.fetch_ready = Cycle::new(u64::MAX);
                self.halt_cycle = self.now;
            }
            if ends_group {
                // Taken branch or redirect: the target is fetched anew.
                self.last_fetch_block = None;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BranchInfo, BranchKind};
    use crate::mem_iface::FixedLatencyMemory;
    use psb_common::Addr;

    fn run_trace(trace: Vec<DynInst>, load_latency: u64) -> CpuStats {
        let mut mem = FixedLatencyMemory::new(load_latency);
        Pipeline::new(CpuConfig::baseline()).run(trace, &mut mem, u64::MAX)
    }

    /// A straight-line run of independent ALU ops at the given pc base.
    fn alu_run(base: u64, n: usize) -> Vec<DynInst> {
        (0..n)
            .map(|i| {
                DynInst::alu(Addr::new(base + 4 * i as u64), Reg::new((i % 32) as u8), None, None)
            })
            .collect()
    }

    #[test]
    fn independent_alus_reach_high_ipc() {
        let stats = run_trace(alu_run(0x1000, 4096), 1);
        assert_eq!(stats.committed, 4096);
        // 8-wide machine, no hazards: expect IPC well above 4.
        assert!(stats.ipc() > 4.0, "ipc = {}", stats.ipc());
    }

    #[test]
    fn dependent_chain_is_serialized() {
        // r1 <- r1 chain: one instruction per cycle at best.
        let trace: Vec<DynInst> = (0..1000)
            .map(|i| DynInst::alu(Addr::new(0x1000 + 4 * i), Reg::new(1), Some(Reg::new(1)), None))
            .collect();
        let stats = run_trace(trace, 1);
        assert_eq!(stats.committed, 1000);
        assert!(stats.ipc() <= 1.1, "dependent chain must serialize, ipc = {}", stats.ipc());
        assert!(stats.cycles >= 1000);
    }

    #[test]
    fn load_latency_gates_dependents() {
        // load r1; use r1 -> load r1; ... with 50-cycle loads.
        let mut trace = Vec::new();
        for i in 0..200u64 {
            trace.push(DynInst::load(
                Addr::new(0x1000 + 8 * i),
                Reg::new(1),
                Some(Reg::new(1)),
                Addr::new(0x10_0000 + 64 * i),
                8,
            ));
            trace.push(DynInst::alu(
                Addr::new(0x1000 + 8 * i + 4),
                Reg::new(1),
                Some(Reg::new(1)),
                None,
            ));
        }
        let stats = run_trace(trace, 50);
        assert_eq!(stats.committed, 400);
        // Each iteration costs >= 51 cycles (load 50 + alu 1).
        assert!(stats.cycles >= 200 * 51, "cycles = {}", stats.cycles);
        assert!(stats.load_latency.mean() >= 50.0);
    }

    #[test]
    fn independent_loads_overlap() {
        // 200 independent loads, 50-cycle latency, 4 ld/st units: the
        // machine should overlap them heavily.
        let trace: Vec<DynInst> = (0..200u64)
            .map(|i| {
                DynInst::load(
                    Addr::new(0x1000 + 4 * i),
                    Reg::new((i % 32) as u8),
                    None,
                    Addr::new(0x10_0000 + 64 * i),
                    8,
                )
            })
            .collect();
        let stats = run_trace(trace, 50);
        assert_eq!(stats.loads, 200);
        // Far better than serialized (200 * 50 = 10000 cycles).
        assert!(stats.cycles < 2000, "cycles = {}", stats.cycles);
    }

    #[test]
    fn store_forwarding_shortcuts_memory() {
        // store to X; load from X: load must forward, not pay memory.
        let mut trace = Vec::new();
        for i in 0..100u64 {
            let x = Addr::new(0x20_0000 + 8 * i);
            trace.push(DynInst::store(Addr::new(0x1000 + 8 * i), None, None, x, 8));
            trace.push(DynInst::load(Addr::new(0x1000 + 8 * i + 4), Reg::new(2), None, x, 8));
        }
        let mut mem = FixedLatencyMemory::new(200);
        let stats = Pipeline::new(CpuConfig::baseline()).run(trace, &mut mem, u64::MAX);
        assert_eq!(stats.forwarded_loads, 100);
        assert_eq!(mem.loads(), 0, "forwarded loads must not touch memory");
        assert!(stats.cycles < 2000, "forwarding must avoid the 200-cycle latency");
    }

    #[test]
    fn forwarding_at_the_top_of_the_address_space_does_not_overflow() {
        // Both ranges run past u64::MAX: the overlap test must neither
        // panic nor wrap their ends around to low addresses.
        let x = Addr::new(u64::MAX - 3);
        let trace = vec![
            DynInst::store(Addr::new(0x1000), None, None, x, 8),
            DynInst::load(Addr::new(0x1004), Reg::new(1), None, x, 8),
        ];
        let stats = run_trace(trace, 200);
        assert_eq!(stats.committed, 2);
        assert_eq!(stats.forwarded_loads, 1);
    }

    #[test]
    fn wait_for_stores_is_slower_than_perfect() {
        // Loads independent of many unrelated stores.
        let mut trace = Vec::new();
        for i in 0..300u64 {
            trace.push(DynInst::store(
                Addr::new(0x1000 + 12 * i),
                None,
                Some(Reg::new(3)),
                Addr::new(0x30_0000 + 8 * i),
                8,
            ));
            trace.push(DynInst::load(
                Addr::new(0x1000 + 12 * i + 4),
                Reg::new(1),
                None,
                Addr::new(0x40_0000 + 64 * i),
                8,
            ));
            trace.push(DynInst::alu(
                Addr::new(0x1000 + 12 * i + 8),
                Reg::new(3),
                Some(Reg::new(1)),
                None,
            ));
        }
        let mut mem1 = FixedLatencyMemory::new(30);
        let perfect = Pipeline::new(CpuConfig::baseline()).run(trace.clone(), &mut mem1, u64::MAX);
        let mut mem2 = FixedLatencyMemory::new(30);
        let nodis =
            Pipeline::new(CpuConfig::baseline().with_disambiguation(Disambiguation::WaitForStores))
                .run(trace, &mut mem2, u64::MAX);
        assert!(
            nodis.cycles >= perfect.cycles,
            "NoDis {} must not beat perfect {}",
            nodis.cycles,
            perfect.cycles
        );
    }

    #[test]
    fn mispredicted_branches_cost_cycles() {
        // A loop whose conditional branch at a fixed PC either always
        // falls through (learnable) or flips pseudo-randomly (hopeless).
        // Correct-path layout per iteration:
        //   0x1000 alu
        //   0x1004 cond branch -> 0x100c (taken skips 0x1008)
        //   0x1008 alu                  (not-taken path only)
        //   0x100c jump -> 0x1000
        let mk = |pattern: fn(u64) -> bool| -> Vec<DynInst> {
            let mut v = Vec::new();
            for i in 0..2000u64 {
                let taken = pattern(i);
                v.push(DynInst::alu(Addr::new(0x1000), Reg::new(1), None, None));
                v.push(DynInst::branch(
                    Addr::new(0x1004),
                    None,
                    BranchInfo { kind: BranchKind::Conditional, taken, target: Addr::new(0x100c) },
                ));
                if !taken {
                    v.push(DynInst::alu(Addr::new(0x1008), Reg::new(2), None, None));
                }
                v.push(DynInst::branch(
                    Addr::new(0x100c),
                    None,
                    BranchInfo { kind: BranchKind::Jump, taken: true, target: Addr::new(0x1000) },
                ));
            }
            v
        };
        let easy = run_trace(mk(|_| false), 1);
        // Full-avalanche hash of the iteration index: effectively random.
        // (A plain multiply's top bit is a Sturmian sequence that gshare
        // happily learns.)
        let hard = run_trace(
            mk(|i| {
                let mut z = i.wrapping_add(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                (z ^ (z >> 31)) & 1 != 0
            }),
            1,
        );
        assert!(
            hard.cycles as f64 > easy.cycles as f64 * 1.5,
            "mispredictions must hurt: easy {} vs hard {}",
            easy.cycles,
            hard.cycles
        );
        assert!(hard.bpred.mispredictions > 500, "hard: {:?}", hard.bpred);
        assert!(easy.bpred.mispredictions < 50, "easy: {:?}", easy.bpred);
        assert!(easy.bpred.accuracy() > 0.97);
    }

    #[test]
    fn rob_capacity_limits_outstanding_work() {
        // A single very long load followed by many ALUs: the ROB fills and
        // dispatch stalls until the load completes.
        let mut trace =
            vec![DynInst::load(Addr::new(0x1000), Reg::new(1), None, Addr::new(0x10_0000), 8)];
        trace.extend(alu_run(0x1004, 400));
        let stats = run_trace(trace, 500);
        // The load blocks commit; the 128-entry ROB can absorb only so
        // much, so total time is dominated by the load latency.
        assert!(stats.cycles >= 500, "cycles = {}", stats.cycles);
        assert_eq!(stats.committed, 401);
    }

    #[test]
    fn stats_fractions() {
        let mut trace = alu_run(0x1000, 10);
        trace.push(DynInst::load(Addr::new(0x1028), Reg::new(1), None, Addr::new(0x9000), 8));
        trace.push(DynInst::store(Addr::new(0x102c), None, None, Addr::new(0x9008), 8));
        let stats = run_trace(trace, 1);
        assert_eq!(stats.committed, 12);
        assert!((stats.load_fraction() - 1.0 / 12.0).abs() < 1e-12);
        assert!((stats.store_fraction() - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn max_commits_stops_early() {
        let stats = run_trace_limited(alu_run(0x1000, 1000), 100);
        assert!(stats.committed >= 100 && stats.committed < 1000);
    }

    fn run_trace_limited(trace: Vec<DynInst>, max: u64) -> CpuStats {
        let mut mem = FixedLatencyMemory::new(1);
        Pipeline::new(CpuConfig::baseline()).run(trace, &mut mem, max)
    }

    #[test]
    fn empty_trace_is_fine() {
        let stats = run_trace(Vec::new(), 1);
        assert_eq!(stats.committed, 0);
        assert!(stats.ipc() == 0.0 || stats.cycles <= 1);
    }

    #[test]
    fn ratios_are_exact_and_zero_without_a_denominator() {
        let one = CpuStats { cycles: 1, committed: 1, loads: 1, stores: 1, ..CpuStats::default() };
        assert_eq!((one.ipc(), one.load_fraction(), one.store_fraction()), (1.0, 1.0, 1.0));
        let none = CpuStats::default();
        assert_eq!((none.ipc(), none.load_fraction(), none.store_fraction()), (0.0, 0.0, 0.0));
    }

    /// `n` loads, each dependent on the one before. Under `run_trace` the
    /// first issues at cycle 2 and commits at cycle `latency + 3`.
    fn slow_loads(n: u64) -> Vec<DynInst> {
        (0..n)
            .map(|i| {
                let pc = Addr::new(0x1000 + 4 * i);
                DynInst::load(pc, Reg::new(1), Some(Reg::new(1)), Addr::new(0x8000), 8)
            })
            .collect()
    }

    #[test]
    fn a_commit_gap_just_under_the_deadlock_bound_is_legal() {
        // The first load commits at cycle 1,000,000, the second 999,997
        // cycles later.
        let stats = run_trace(slow_loads(2), 999_997);
        assert_eq!(stats.committed, 2);
        assert_eq!(stats.cycles, 2 * 999_997 + 4);
    }

    #[test]
    #[should_panic(expected = "pipeline deadlock at Cycle(1000000)")]
    fn a_million_cycles_without_a_commit_is_a_deadlock() {
        run_trace(slow_loads(1), 999_998);
    }

    /// A fixed-latency memory that records the cycle each load issues.
    struct LoadClock {
        latency: u64,
        issued: Vec<u64>,
    }

    impl LoadClock {
        fn run(trace: Vec<DynInst>, latency: u64, config: CpuConfig) -> (CpuStats, Vec<u64>) {
            let mut mem = LoadClock { latency, issued: Vec::new() };
            let stats = Pipeline::new(config).run(trace, &mut mem, u64::MAX);
            (stats, mem.issued)
        }
    }

    impl MemSystem for LoadClock {
        fn load(&mut self, now: Cycle, _pc: Addr, _addr: Addr) -> Cycle {
            self.issued.push(now.raw());
            now + self.latency
        }

        fn store(&mut self, _now: Cycle, _pc: Addr, _addr: Addr) {}

        fn ifetch(&mut self, now: Cycle, _pc: Addr) -> Cycle {
            now
        }
    }

    fn load(i: u64, dst: u8, base: Option<u8>, addr: u64) -> DynInst {
        let pc = Addr::new(0x1000 + 4 * i);
        DynInst::load(pc, Reg::new(dst), base.map(Reg::new), Addr::new(addr), 8)
    }

    fn store(i: u64, addr: u64) -> DynInst {
        DynInst::store(Addr::new(0x1000 + 4 * i), None, None, Addr::new(addr), 8)
    }

    #[test]
    fn a_result_is_never_visible_in_its_issue_cycle() {
        // Zero-latency loads finish the cycle they issue, but a dependent
        // load still issues one cycle later: waking never feeds the pass
        // that issued the producer.
        let (stats, issued) = LoadClock::run(slow_loads(5), 0, CpuConfig::baseline());
        assert_eq!(issued, [2, 3, 4, 5, 6]);
        assert_eq!(stats.cycles, 5 + 4);
    }

    #[test]
    fn under_wait_for_stores_a_store_unblocks_a_younger_load_in_its_own_cycle() {
        let trace = vec![store(0, 0x8000), load(1, 1, None, 0x9000)];
        let nodis = CpuConfig::baseline().with_disambiguation(Disambiguation::WaitForStores);
        let (_, issued) = LoadClock::run(trace, 50, nodis);
        assert_eq!(issued, [2], "the load issues in the cycle its older store does");
        // Behind a store whose base register is late, the load waits.
        let mut late = vec![load(0, 3, None, 0xa000)];
        late.push(DynInst::store(Addr::new(0x1004), None, Some(Reg::new(3)), Addr::new(0x8000), 8));
        late.push(load(2, 1, None, 0x9000));
        let (_, issued) = LoadClock::run(late, 50, nodis);
        assert_eq!(issued, [2, 52]);
    }

    #[test]
    fn a_load_whose_store_has_committed_reads_the_cache() {
        // The store commits at cycle 4; the load's base arrives at 102.
        let x = 0x8000;
        let trace = vec![store(0, x), load(1, 1, None, 0x9000), load(2, 2, Some(1), x)];
        let (stats, issued) = LoadClock::run(trace, 100, CpuConfig::baseline());
        assert_eq!((stats.forwarded_loads, issued), (0, vec![2, 102]));
        // With its base ready, the same load forwards from the store.
        let trace = vec![store(0, x), load(1, 1, None, 0x9000), load(2, 2, None, x)];
        let (stats, issued) = LoadClock::run(trace, 100, CpuConfig::baseline());
        assert_eq!((stats.forwarded_loads, issued), (1, vec![2]));
    }

    #[test]
    fn both_sources_may_name_one_producer() {
        let alu = |src2| DynInst::alu(Addr::new(0x1004), Reg::new(2), Some(Reg::new(1)), src2);
        let one = run_trace(vec![load(0, 1, None, 0x8000), alu(None)], 50);
        let two = run_trace(vec![load(0, 1, None, 0x8000), alu(Some(Reg::new(1)))], 50);
        // The load issues at 2 and is visible at 52; the ALU op commits
        // at 54.
        assert_eq!((one.cycles, two.cycles), (55, 55));
    }

    #[test]
    fn a_zero_icache_block_does_not_divide_by_zero() {
        let config = CpuConfig { icache_block: 0, ..CpuConfig::baseline() };
        let (stats, _) = LoadClock::run(alu_run(0x1000, 64), 1, config);
        assert_eq!(stats.committed, 64);
    }

    #[test]
    fn a_unit_blocked_entry_does_not_stall_younger_classes() {
        // Three divides want the two integer mul/div units; the third
        // waits, but the younger load still issues in the first cycle.
        let div = |i: u64| DynInst {
            op: Op::IntDiv,
            ..DynInst::alu(Addr::new(0x1000 + 4 * i), Reg::new(i as u8), None, None)
        };
        let trace = vec![div(0), div(1), div(2), load(3, 9, None, 0x8000)];
        let (stats, issued) = LoadClock::run(trace, 1, CpuConfig::baseline());
        assert_eq!(issued, [2]);
        // The third divide issues when a unit frees at 14, done at 26.
        assert_eq!(stats.cycles, 28);
    }
}
