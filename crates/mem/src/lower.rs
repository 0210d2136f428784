//! The composed L2 + main-memory system behind the L1 caches.

use crate::{Bus, Cache, MemConfig, Mshr, ThroughputPipe};
use psb_common::{Addr, Cycle};

/// Result of fetching one block from the lower memory system.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// Cycle at which the block is available at the L1 boundary.
    pub ready: Cycle,
    /// Whether the L2 satisfied the request without going to memory.
    pub l2_hit: bool,
}

/// Counters for the lower memory system.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LowerStats {
    /// L2 accesses that hit.
    pub l2_hits: u64,
    /// L2 accesses that missed and went to memory (or merged with an
    /// outstanding fetch).
    pub l2_misses: u64,
}

impl LowerStats {
    /// L2 miss rate in `[0, 1]`.
    pub fn l2_miss_rate(&self) -> f64 {
        let n = self.l2_hits + self.l2_misses;
        if n == 0 {
            0.0
        } else {
            self.l2_misses as f64 / n as f64
        }
    }
}

/// Everything below the L1 caches: the L1↔L2 bus, the pipelined unified
/// L2, the L2↔memory bus and DRAM.
///
/// Both demand misses and stream-buffer prefetches are served through
/// [`LowerMemory::fetch_block`], so they naturally contend for the same
/// bus bandwidth — the effect at the heart of the paper's Figure 9.
/// Demand priority is enforced by the caller: the prefetch engines only
/// issue when [`LowerMemory::l1_bus_free`] reports the bus idle at the
/// start of the cycle.
///
/// Timing model for one L1 block fetch submitted at cycle *t*:
///
/// 1. The L1↔L2 bus is occupied for `ceil(block / 8)` cycles starting at
///    `max(t, bus free)`; this single occupancy stands for both the
///    request and the fill transfer (SimpleScalar's bus model).
/// 2. The L2 pipeline is accessed when the request arrives; an L2 hit is
///    ready `l2_latency` cycles later.
/// 3. An L2 miss additionally occupies the L2↔memory bus for
///    `ceil(l2_block / 4)` cycles and pays the 120-cycle DRAM latency.
///    Concurrent requests for the same L2 block merge onto one fetch.
///
/// With the baseline parameters an uncontended L1 miss that hits in L2
/// costs 4 + 12 = 16 cycles; a full miss to DRAM costs 4 + 12 + 16 + 120 =
/// 152 cycles.
#[derive(Clone, Debug)]
pub struct LowerMemory {
    l2: Cache,
    l2_pipe: ThroughputPipe,
    l1_l2_bus: Bus,
    l2_mem_bus: Bus,
    mem_latency: u64,
    /// Outstanding DRAM fetches by L2 block, for merge: an MSHR file
    /// with no register limit.
    in_flight: Mshr,
    stats: LowerStats,
}

impl LowerMemory {
    /// Builds the lower memory system from a configuration.
    pub fn new(config: &MemConfig) -> Self {
        LowerMemory {
            l2: Cache::new(config.l2),
            l2_pipe: ThroughputPipe::new(config.l2_latency, config.l2_pipeline_depth),
            l1_l2_bus: Bus::new(config.l1_l2_bytes_per_cycle),
            l2_mem_bus: Bus::new(config.l2_mem_bytes_per_cycle),
            mem_latency: config.mem_latency,
            in_flight: Mshr::new(usize::MAX),
            stats: LowerStats::default(),
        }
    }

    /// Attaches observability to both buses: each gets a queue-delay
    /// histogram from the hub's registry.
    pub fn attach_obs(&mut self, obs: &psb_obs::Obs) {
        self.l1_l2_bus.attach_obs(obs.hist("bus.l1_l2.queue_delay"));
        self.l2_mem_bus.attach_obs(obs.hist("bus.l2_mem.queue_delay"));
    }

    /// True if the L1↔L2 bus is idle at `now` — the paper's gating
    /// condition for issuing a prefetch.
    pub fn l1_bus_free(&self, now: Cycle) -> bool {
        self.l1_l2_bus.is_free(now)
    }

    /// Fetches the block of `l1_block_bytes` containing `addr`, submitted
    /// at `now`. Returns when the data reaches the L1 boundary and whether
    /// the L2 hit.
    pub fn fetch_block(&mut self, now: Cycle, addr: Addr, l1_block_bytes: u64) -> Completion {
        // Drop completed in-flight records lazily.
        self.in_flight.drain_ready(now);

        let (_, request_at_l2) = self.l1_l2_bus.acquire(now, l1_block_bytes);
        let l2_block = addr.block(self.l2.block_size());
        let l2_done = self.l2_pipe.access(request_at_l2);

        // A block whose DRAM fetch is still outstanding must not be
        // treated as an L2 hit even though its tag is installed eagerly.
        if let Some(pending) = self.in_flight.lookup(l2_block) {
            self.stats.l2_misses += 1;
            self.l2.access_block(l2_block);
            return Completion { ready: pending.max(l2_done), l2_hit: false };
        }

        if self.l2.access_block(l2_block) {
            self.stats.l2_hits += 1;
            return Completion { ready: l2_done, l2_hit: true };
        }

        self.stats.l2_misses += 1;
        let ready = {
            let l2_bytes = self.l2.block_size();
            let (mem_start, _) = self.l2_mem_bus.acquire(l2_done, l2_bytes);
            let ready = mem_start + self.mem_latency + self.l2_mem_bus.transfer_cycles(l2_bytes);
            // Nothing merged above, and the table has no register limit,
            // so this allocation always succeeds.
            let _ = self.in_flight.allocate(l2_block, ready);
            // Install the tag eagerly; the in-flight table carries the timing.
            self.l2.insert_block(l2_block);
            ready
        };
        Completion { ready, l2_hit: false }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> LowerStats {
        self.stats
    }

    /// The L1↔L2 bus (for utilization reporting).
    pub fn l1_l2_bus(&self) -> &Bus {
        &self.l1_l2_bus
    }

    /// The L2↔memory bus (for utilization reporting).
    pub fn l2_mem_bus(&self) -> &Bus {
        &self.l2_mem_bus
    }

    /// Direct read-only access to the L2 tag array.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower() -> LowerMemory {
        LowerMemory::new(&MemConfig::baseline())
    }

    #[test]
    fn cold_miss_goes_to_dram() {
        let mut m = lower();
        let c = m.fetch_block(Cycle::ZERO, Addr::new(0x8000), 32);
        assert!(!c.l2_hit);
        // 4 (L1 bus) + 12 (L2) + 16 (mem bus) + 120 (DRAM) = 152.
        assert_eq!(c.ready, Cycle::new(152));
        assert_eq!(m.stats().l2_misses, 1);
    }

    #[test]
    fn second_access_hits_l2() {
        let mut m = lower();
        let first = m.fetch_block(Cycle::ZERO, Addr::new(0x8000), 32);
        let c = m.fetch_block(first.ready, Addr::new(0x8000), 32);
        assert!(c.l2_hit);
        assert_eq!(c.ready.since(first.ready), 4 + 12);
        assert_eq!(m.stats().l2_hits, 1);
    }

    #[test]
    fn adjacent_l1_blocks_share_l2_block() {
        let mut m = lower();
        // 0x8000 and 0x8020 are distinct 32B blocks in one 64B L2 block.
        let a = m.fetch_block(Cycle::ZERO, Addr::new(0x8000), 32);
        let b = m.fetch_block(Cycle::new(1), Addr::new(0x8020), 32);
        assert!(!a.l2_hit);
        // The second request merges with the outstanding DRAM fetch: it is
        // still a miss timing-wise and completes when the first fill does.
        assert!(!b.l2_hit, "in-flight block must not count as an L2 hit");
        assert_eq!(b.ready, a.ready);
        assert_eq!(m.l2_mem_bus().transactions(), 1, "only one DRAM fetch");
    }

    #[test]
    fn bus_contention_serializes_misses() {
        let mut m = lower();
        let a = m.fetch_block(Cycle::ZERO, Addr::new(0x10000), 32);
        let b = m.fetch_block(Cycle::ZERO, Addr::new(0x20000), 32);
        // Both go to DRAM; the L2<->memory bus serializes them by a full
        // 64B transfer (16 cycles at 4 B/cycle).
        assert_eq!(b.ready.since(a.ready), 16);
        assert_eq!(m.l1_l2_bus().busy_cycles(), 8);
    }

    #[test]
    fn l1_bus_free_gating() {
        let mut m = lower();
        assert!(m.l1_bus_free(Cycle::ZERO));
        m.fetch_block(Cycle::ZERO, Addr::new(0x100), 32);
        assert!(!m.l1_bus_free(Cycle::new(3)));
        assert!(m.l1_bus_free(Cycle::new(4)));
    }

    #[test]
    fn in_flight_entries_expire() {
        let mut m = lower();
        let c = m.fetch_block(Cycle::ZERO, Addr::new(0x8000), 32);
        // Long after completion, the same L2 block is a plain hit.
        let later = c.ready + 1000;
        let d = m.fetch_block(later, Addr::new(0x8020), 32);
        assert!(d.l2_hit);
    }

    #[test]
    fn stats_rates() {
        let mut m = lower();
        m.fetch_block(Cycle::ZERO, Addr::new(0x8000), 32);
        let t = Cycle::new(500);
        m.fetch_block(t, Addr::new(0x8000), 32);
        assert_eq!(m.stats().l2_miss_rate(), 0.5);
    }
}
