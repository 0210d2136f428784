//! Differential oracle for the out-of-order pipeline.
//!
//! [`reference::Pipeline`] is the pipeline as it stood before its
//! writeback stage was deleted: a per-cycle pass flipped each ROB entry
//! from `Executing` to `Done`, and fetch tracked a mispredict halt with
//! separate flags. It is kept verbatim as a test-only reference model.
//! The real [`Pipeline`] and the reference run the same fixed-seed
//! traces from the shared `tracegen` generator, under random core
//! geometries, both disambiguation policies and random commit limits,
//! against a memory system with a pseudo-random load latency of 0–200
//! cycles per access and random I-cache misses. Every case must give
//! equal [`CpuStats`] and an identical memory-call stream.
//!
//! `FixedLatencyMemory` never stalls fetch, so only a memory like
//! [`JitterMemory`] reaches the I-fetch miss path.

mod tracegen;

use psb_common::{Addr, Cycle, SplitMix64};
use psb_cpu::{CpuConfig, CpuStats, Disambiguation, DynInst, MemSystem, Pipeline};

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
fn case(rng: &mut SplitMix64, index: u64) -> Case {
    let slots = 1 + rng.below(24);
    let trace = tracegen::lower(&tracegen::items(rng, 240, slots));
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
fn differential(seed: u64, cases: u64) {
    let mut rng = SplitMix64::new(seed);
    for index in 0..cases {
        let Case { trace, config, mem, max_commits } = case(&mut rng, index);
        let (mut want_mem, mut got_mem) = (mem.clone(), mem);
        let want = reference::Pipeline::new(config).run(trace.clone(), &mut want_mem, max_commits);
        let got: CpuStats = Pipeline::new(config).run(trace, &mut got_mem, max_commits);
        assert_eq!(got, want, "case {index} (seed {seed:#x}): {config:?}");
        assert_eq!(got_mem.calls, want_mem.calls, "case {index} (seed {seed:#x}): memory calls");
    }
}

#[test]
fn pipeline_matches_reference_on_baseline_and_shrunken_cores() {
    differential(0xD1FF, 3000);
}

/// The comparator bites: resuming fetch one cycle later after every
/// mispredict must show up in the stats or the memory-call stream.
#[test]
fn teeth_a_one_cycle_later_redirect_is_caught() {
    let mut rng = SplitMix64::new(0x7EE7);
    let trace = tracegen::lower(&tracegen::items(&mut rng, 240, 8));
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

mod reference {
    use psb_common::Cycle;
    use psb_cpu::{
        BranchPredictor, CpuConfig, CpuStats, Disambiguation, DynInst, FuPool, MemSystem, Op, Reg,
    };
    use std::collections::VecDeque;

    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    enum EntryState {
        /// In the ROB, waiting for operands / resources.
        Dispatched,
        /// Executing; result available at `finish`.
        Executing { finish: Cycle },
        /// Complete; result was available at `finish`.
        Done { finish: Cycle },
    }

    #[derive(Clone, Debug)]
    struct RobEntry {
        inst: DynInst,
        state: EntryState,
        /// Producer sequence numbers for the register sources.
        deps: [Option<u64>; 2],
        mispredicted: bool,
        issued_at: Cycle,
        forwarded: bool,
    }

    /// What gates a load's issue this cycle.
    enum LoadGate {
        /// An ordering constraint is unresolved; retry later.
        Wait,
        /// Forward from an in-window store.
        Forward,
        /// Access the cache hierarchy.
        Cache,
    }

    /// The pipeline with its writeback stage, as the simulator shipped it.
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
        // Fetch state.
        fetch_halted: bool,
        halt_cycle: Cycle,
        resume_at: Option<Cycle>,
        ifetch_ready: Cycle,
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
                fetch_halted: false,
                halt_cycle: Cycle::ZERO,
                resume_at: None,
                ifetch_ready: Cycle::ZERO,
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
                self.writeback();
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
                    self.rob.front().map(|e| (e.inst, e.state)),
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

        /// True if the value produced by `seq` is available at `now`.
        /// Committed producers are always ready.
        fn value_ready(&self, seq: u64) -> bool {
            match self.entry(seq) {
                None => true,
                Some(e) => matches!(e.state, EntryState::Done { finish } if finish <= self.now),
            }
        }

        fn deps_ready(&self, idx: usize) -> bool {
            self.rob[idx].deps.iter().flatten().all(|&seq| self.value_ready(seq))
        }

        /// Decides whether the load at ROB index `idx` may issue, and how.
        fn load_gate(&self, idx: usize) -> LoadGate {
            let load_addr =
                self.rob[idx].inst.mem_addr.expect("invariant: mem ops always carry an address");
            let load_size = self.rob[idx].inst.mem_size as u64;
            let overlap = |e: &RobEntry| {
                let sa = e.inst.mem_addr.expect("invariant: mem ops always carry an address");
                let ss = e.inst.mem_size as u64;
                sa.raw() < load_addr.raw() + load_size && load_addr.raw() < sa.raw() + ss
            };

            match self.config.disambiguation {
                Disambiguation::Perfect => {
                    // Youngest older store to the same memory, if any.
                    for e in self.rob.iter().take(idx).rev() {
                        if e.inst.op.is_store() && overlap(e) {
                            return match e.state {
                                EntryState::Done { finish } if finish <= self.now => {
                                    LoadGate::Forward
                                }
                                _ => LoadGate::Wait,
                            };
                        }
                    }
                    LoadGate::Cache
                }
                Disambiguation::WaitForStores => {
                    let mut forward_candidate = None;
                    for e in self.rob.iter().take(idx) {
                        if !e.inst.op.is_store() {
                            continue;
                        }
                        if matches!(e.state, EntryState::Dispatched) {
                            return LoadGate::Wait;
                        }
                        if overlap(e) {
                            forward_candidate = Some(e.state);
                        }
                    }
                    match forward_candidate {
                        Some(EntryState::Done { finish }) if finish <= self.now => {
                            LoadGate::Forward
                        }
                        Some(_) => LoadGate::Wait,
                        None => LoadGate::Cache,
                    }
                }
            }
        }

        fn commit<M: MemSystem>(&mut self, mem: &mut M) {
            let mut committed = 0;
            while committed < self.config.commit_width {
                let Some(head) = self.rob.front() else { break };
                let EntryState::Done { finish } = head.state else {
                    break;
                };
                if finish > self.now {
                    break;
                }
                let e =
                    self.rob.pop_front().expect("invariant: the loop guard saw a front element");
                self.head_seq += 1;
                committed += 1;
                self.stats.committed += 1;
                match e.inst.op {
                    Op::Load => {
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
                        let addr =
                            e.inst.mem_addr.expect("invariant: mem ops always carry an address");
                        mem.store(self.now, e.inst.pc, addr);
                    }
                    Op::Branch => self.stats.branches += 1,
                    _ => {}
                }
            }
        }

        fn writeback(&mut self) {
            let now = self.now;
            let mut resolved_mispredict = None;
            for e in &mut self.rob {
                if let EntryState::Executing { finish } = e.state {
                    if finish <= now {
                        e.state = EntryState::Done { finish };
                        if e.mispredicted {
                            resolved_mispredict = Some(finish);
                        }
                    }
                }
            }
            if let Some(finish) = resolved_mispredict {
                debug_assert!(self.fetch_halted);
                let earliest = self.halt_cycle + self.config.min_mispredict_penalty;
                let redirect = finish.max(now) + self.config.redirect_latency;
                self.resume_at = Some(earliest.max(redirect));
            }
        }

        fn issue<M: MemSystem>(&mut self, mem: &mut M) {
            let mut issued = 0;
            let mut idx = 0;
            while idx < self.rob.len() && issued < self.config.issue_width {
                if self.rob[idx].state != EntryState::Dispatched || !self.deps_ready(idx) {
                    idx += 1;
                    continue;
                }
                let inst = self.rob[idx].inst;
                let finish = match inst.op {
                    Op::Load => match self.load_gate(idx) {
                        LoadGate::Wait => {
                            idx += 1;
                            continue;
                        }
                        LoadGate::Forward => match self.fu.try_issue(Op::Load, self.now) {
                            Some(_) => {
                                self.rob[idx].forwarded = true;
                                self.now + self.config.store_forward_latency
                            }
                            None => {
                                idx += 1;
                                continue;
                            }
                        },
                        LoadGate::Cache => match self.fu.try_issue(Op::Load, self.now) {
                            Some(_) => {
                                let addr = inst
                                    .mem_addr
                                    .expect("invariant: mem ops always carry an address");
                                mem.load(self.now, inst.pc, addr)
                            }
                            None => {
                                idx += 1;
                                continue;
                            }
                        },
                    },
                    op => match self.fu.try_issue(op, self.now) {
                        Some(finish) => finish,
                        None => {
                            idx += 1;
                            continue;
                        }
                    },
                };
                self.rob[idx].state = EntryState::Executing { finish };
                self.rob[idx].issued_at = self.now;
                issued += 1;
                idx += 1;
            }
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
                let dep_of = |r: Option<Reg>| r.and_then(|r| self.last_writer[r.index()]);
                let deps = [dep_of(inst.src1), dep_of(inst.src2)];
                if let Some(dst) = inst.dst {
                    self.last_writer[dst.index()] = Some(seq);
                }
                if inst.op.is_mem() {
                    self.lsq_count += 1;
                }
                self.rob.push_back(RobEntry {
                    inst,
                    state: EntryState::Dispatched,
                    deps,
                    mispredicted,
                    issued_at: Cycle::ZERO,
                    forwarded: false,
                });
                dispatched += 1;
            }
        }

        fn fetch<I, M>(&mut self, trace: &mut std::iter::Peekable<I>, mem: &mut M)
        where
            I: Iterator<Item = DynInst>,
            M: MemSystem,
        {
            if self.fetch_halted {
                match self.resume_at {
                    Some(at) if self.now >= at => {
                        self.fetch_halted = false;
                        self.resume_at = None;
                        self.last_fetch_block = None;
                    }
                    _ => return,
                }
            }
            if self.now < self.ifetch_ready {
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
                let block = peeked.pc.raw() / self.config.icache_block;
                if self.last_fetch_block != Some(block) {
                    let ready = mem.ifetch(self.now, peeked.pc);
                    if ready > self.now {
                        self.ifetch_ready = ready;
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
                    self.fetch_halted = true;
                    self.halt_cycle = self.now;
                    self.resume_at = None;
                    break;
                }
                if ends_group {
                    // Taken branch: the target is fetched next cycle.
                    self.last_fetch_block = None;
                    break;
                }
            }
        }
    }
}
