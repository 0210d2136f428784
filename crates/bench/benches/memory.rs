//! Microbenchmarks: memory-hierarchy component throughput, and the
//! composed memory system replaying a recorded pipeline call stream.

use psb_bench::micro::{bench, bench_per, group};
use psb_common::{Addr, Cycle, SplitMix64};
use psb_cpu::{MemSystem, Pipeline};
use psb_mem::{Bus, Cache, CacheConfig, L1Cache, LowerMemory, MemConfig, Tlb};
use psb_sim::{MachineConfig, PrefetcherKind, SimMemory};
use psb_workloads::Benchmark;
use std::hint::black_box;

fn bench_cache() {
    let mut cache = Cache::new(CacheConfig::l1d_32k_4way());
    for i in 0..1024u64 {
        cache.insert(Addr::new(i * 32));
    }
    let mut i = 0u64;
    bench("l1d_access_hit", || {
        i = (i + 1) % 1024;
        black_box(cache.access(black_box(Addr::new(i * 32))));
    });

    let mut cache = Cache::new(CacheConfig::l1d_32k_4way());
    let mut rng = SplitMix64::new(3);
    bench("l1d_insert_evict", || {
        black_box(cache.insert(Addr::new(rng.below(1 << 24) * 32)));
    });
}

fn bench_bus_and_lower() {
    let mut bus = Bus::new(8);
    let mut now = Cycle::ZERO;
    bench("bus_acquire", || {
        now += 1;
        black_box(bus.acquire(now, 32));
    });

    let mut lower = LowerMemory::new(&MemConfig::baseline());
    let mut rng = SplitMix64::new(4);
    let mut now = Cycle::ZERO;
    bench("lower_fetch_block", || {
        // The arrival interval must exceed the per-miss bus occupancy
        // (~16 cycles for a 64 B block) or the in-flight map grows
        // without bound and the measurement becomes a function of how
        // many iterations ran, not of per-fetch cost.
        now += 64;
        let addr = Addr::new(rng.below(1 << 22) * 32);
        black_box(lower.fetch_block(now, addr, 32));
    });
}

fn bench_l1_and_tlb() {
    let mut l1 = L1Cache::new(CacheConfig::l1d_32k_4way(), 1, 16);
    for i in 0..512u64 {
        l1.install(Addr::new(i * 32));
    }
    let mut now = Cycle::ZERO;
    let mut i = 0u64;
    bench("l1cache_lookup", || {
        now += 1;
        i = (i + 1) % 1024; // half hits, half misses
        black_box(l1.lookup(now, Addr::new(i * 32)));
    });

    let mut tlb = Tlb::new(128, 4, 8192, 30);
    let mut rng = SplitMix64::new(5);
    let mut now = Cycle::ZERO;
    bench("tlb_translate", || {
        now += 1;
        let addr = Addr::new(rng.below(256) * 8192);
        black_box(tlb.translate(now, addr, false));
    });
}

/// One [`MemSystem`] call, as `Pipeline::run` made it.
#[derive(Copy, Clone, Debug)]
enum Call {
    Load(Cycle, Addr, Addr),
    Store(Cycle, Addr, Addr),
    IFetch(Cycle, Addr),
    FetchedLoad(Cycle, Addr),
    Tick(Cycle),
    Sample(Cycle, u64),
}

/// Forwards every call to the wrapped memory system and logs it.
struct Recorder {
    mem: SimMemory,
    calls: Vec<Call>,
}

impl MemSystem for Recorder {
    fn load(&mut self, now: Cycle, pc: Addr, addr: Addr) -> Cycle {
        self.calls.push(Call::Load(now, pc, addr));
        self.mem.load(now, pc, addr)
    }

    fn store(&mut self, now: Cycle, pc: Addr, addr: Addr) {
        self.calls.push(Call::Store(now, pc, addr));
        self.mem.store(now, pc, addr);
    }

    fn ifetch(&mut self, now: Cycle, pc: Addr) -> Cycle {
        self.calls.push(Call::IFetch(now, pc));
        self.mem.ifetch(now, pc)
    }

    fn fetched_load(&mut self, now: Cycle, pc: Addr) {
        self.calls.push(Call::FetchedLoad(now, pc));
        self.mem.fetched_load(now, pc);
    }

    fn tick(&mut self, now: Cycle) {
        self.calls.push(Call::Tick(now));
        self.mem.tick(now);
    }

    fn sample(&mut self, now: Cycle, committed: u64) {
        self.calls.push(Call::Sample(now, committed));
        self.mem.sample(now, committed);
    }
}

/// Drives `mem` through a recorded call stream.
fn replay(mem: &mut SimMemory, calls: &[Call]) {
    for &call in calls {
        match call {
            Call::Load(now, pc, addr) => {
                black_box(mem.load(now, pc, addr));
            }
            Call::Store(now, pc, addr) => mem.store(now, pc, addr),
            Call::IFetch(now, pc) => {
                black_box(mem.ifetch(now, pc));
            }
            Call::FetchedLoad(now, pc) => mem.fetched_load(now, pc),
            Call::Tick(now) => mem.tick(now),
            Call::Sample(now, committed) => mem.sample(now, committed),
        }
    }
}

/// The whole memory system (L1s, engine, L2, buses, DRAM and D-TLB) in
/// host nanoseconds per simulated cycle. The calls are recorded once,
/// from the pipeline running a fixed window of the scale-1 health trace
/// under conf-priority; each timed iteration replays them into a fresh
/// `SimMemory`, so the pipeline's own cost is left out.
fn bench_simmemory() {
    let config = MachineConfig::baseline().with_prefetcher(PrefetcherKind::PsbConfPriority);
    let trace = Benchmark::Health.trace(1);
    let mut rec = Recorder { mem: SimMemory::new(&config), calls: Vec::new() };
    let cycles = Pipeline::new(config.cpu).run(trace.iter().copied(), &mut rec, 20_000).cycles;
    let calls = rec.calls;
    bench_per("simmemory_replay", cycles, || {
        let mut mem = SimMemory::new(&config);
        replay(&mut mem, black_box(&calls));
        black_box(&mem);
    });
    println!("(basis: {} calls, {cycles} simulated cycles per iter)", calls.len());
}

fn main() {
    group("memory");
    bench_cache();
    bench_bus_and_lower();
    bench_l1_and_tlb();
    bench_simmemory();
    if let Err(e) = psb_bench::micro::write_json_default() {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
