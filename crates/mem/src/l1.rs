//! First-level cache with miss tracking.

use crate::{Cache, CacheConfig, CacheStats, Mshr, MshrError, VictimCache};
use psb_common::{Addr, BlockAddr, Cycle};

/// Outcome of an L1 lookup.
///
/// The paper defines a cache miss as "an access to a cache block which is
/// not currently resident in the cache, i.e. accesses to in-flight data
/// count as cache misses" — hence the three-way split.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum L1Access {
    /// The block is resident; data available at `ready`.
    Hit {
        /// Completion cycle (lookup latency after the access).
        ready: Cycle,
    },
    /// The block is being filled by an earlier miss; counted as a miss,
    /// but no new request is needed.
    InFlight {
        /// Cycle the outstanding fill completes.
        ready: Cycle,
    },
    /// The block is neither resident nor in flight; the caller must fetch
    /// it (from a stream buffer or the lower memory system).
    Miss,
}

/// An L1 cache: tag array + MSHRs + the paper's miss accounting, and
/// optionally a victim cache that receives every block it evicts.
///
/// The L1 does not know where fills come from — the simulator routes a
/// miss to the victim cache ([`L1Cache::rescue`]), the stream buffers
/// and/or [`LowerMemory`](crate::LowerMemory) and then calls
/// [`L1Cache::start_fill`] (asynchronous fill through the MSHRs) or
/// [`L1Cache::install`] (immediate move, used when a stream buffer
/// already holds the block).
///
/// # Example
///
/// ```
/// use psb_common::{Addr, Cycle};
/// use psb_mem::{CacheConfig, L1Access, L1Cache};
///
/// let mut l1 = L1Cache::new(CacheConfig::l1d_32k_4way(), 1, 16);
/// assert_eq!(l1.lookup(Cycle::ZERO, Addr::new(0x40)), L1Access::Miss);
/// l1.start_fill(l1.block_of(Addr::new(0x40)), Cycle::new(152)).unwrap();
/// // While in flight, later accesses are "in-flight misses":
/// match l1.lookup(Cycle::new(10), Addr::new(0x44)) {
///     L1Access::InFlight { ready } => assert_eq!(ready, Cycle::new(152)),
///     other => panic!("unexpected {other:?}"),
/// }
/// // After completion the fill drains into the tag array:
/// assert!(matches!(l1.lookup(Cycle::new(200), Addr::new(0x40)), L1Access::Hit { .. }));
/// ```
#[derive(Clone, Debug)]
pub struct L1Cache {
    cache: Cache,
    mshr: Mshr,
    latency: u64,
    stats: CacheStats,
    victim: Option<VictimCache>,
}

impl L1Cache {
    /// Creates an L1 with the given geometry, hit `latency`, and number of
    /// MSHRs.
    pub fn new(config: CacheConfig, latency: u64, mshrs: usize) -> Self {
        L1Cache {
            cache: Cache::new(config),
            mshr: Mshr::new(mshrs),
            latency,
            stats: CacheStats::default(),
            victim: None,
        }
    }

    /// Adds a fully-associative victim cache of `entries` blocks that
    /// costs `latency` extra cycles on a hit; zero `entries` adds none.
    ///
    /// # Panics
    ///
    /// Panics if the victim cache's size in bytes overflows a `u64`.
    pub fn with_victim(mut self, entries: usize, latency: u64) -> Self {
        self.victim = (entries > 0).then(|| VictimCache::new(entries, self.block_size(), latency));
        self
    }

    /// The victim cache, if configured (for attaching observability).
    pub fn victim_mut(&mut self) -> Option<&mut VictimCache> {
        self.victim.as_mut()
    }

    /// Attaches observability handles to the MSHR file: occupancy gauge
    /// and full-reject counter (named by the caller, e.g.
    /// `l1d.mshr.occupancy`).
    pub fn attach_obs(&mut self, occupancy: psb_obs::Gauge, full_rejects: psb_obs::Counter) {
        self.mshr.attach_obs(occupancy, full_rejects);
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.cache.block_size()
    }

    /// The block containing `addr`.
    pub fn block_of(&self, addr: Addr) -> BlockAddr {
        self.cache.block_of(addr)
    }

    /// Moves fills that completed by `now` from the MSHRs into the tag
    /// array. Called implicitly by [`L1Cache::lookup`]; exposed for the
    /// simulator's per-cycle housekeeping.
    pub fn drain(&mut self, now: Cycle) {
        for block in self.mshr.drain_ready(now) {
            let evicted = self.cache.insert_block(block);
            self.spill(evicted);
        }
    }

    /// Passes an evicted block to the victim cache, if there is one.
    fn spill(&mut self, evicted: Option<BlockAddr>) {
        if let (Some(block), Some(victim)) = (evicted, &mut self.victim) {
            victim.fill(block);
        }
    }

    /// Performs a demand access at `now`, updating LRU state and the
    /// hit/miss statistics.
    pub fn lookup(&mut self, now: Cycle, addr: Addr) -> L1Access {
        self.drain(now);
        let block = self.block_of(addr);
        if self.cache.access_block(block) {
            self.stats.hits += 1;
            L1Access::Hit { ready: now + self.latency }
        } else if let Some(ready) = self.mshr.lookup(block) {
            self.stats.misses += 1;
            L1Access::InFlight { ready }
        } else {
            self.stats.misses += 1;
            L1Access::Miss
        }
    }

    /// Checks residency without touching LRU or statistics.
    pub fn probe(&self, addr: Addr) -> bool {
        self.cache.probe(addr)
    }

    /// True if `block` is resident or in flight (used to suppress
    /// redundant prefetches).
    pub fn covers_block(&self, block: BlockAddr) -> bool {
        self.cache.probe_block(block) || self.mshr.contains(block)
    }

    /// Starts an asynchronous fill of `block` completing at `ready`.
    ///
    /// # Errors
    ///
    /// Returns [`MshrError::Full`] if no MSHR is free, and the block is
    /// not filled. Nothing retries it: the simulator still serves the
    /// miss at its ready cycle, but the block is never installed, so the
    /// next access misses again. No structural stall is modelled.
    pub fn start_fill(&mut self, block: BlockAddr, ready: Cycle) -> Result<(), MshrError> {
        self.mshr.allocate(block, ready)
    }

    /// Immediately installs the block containing `addr` (a move from a
    /// stream buffer). The evicted block, if any, goes to the victim
    /// cache.
    pub fn install(&mut self, addr: Addr) {
        let evicted = self.cache.insert(addr);
        self.spill(evicted);
    }

    /// Probes the victim cache, if configured, after a miss on `addr` at
    /// `now`. A hit moves the block back into this cache and returns when
    /// its data is ready: the hit latency plus the victim cache's.
    pub fn rescue(&mut self, now: Cycle, addr: Addr) -> Option<Cycle> {
        let victim = self.victim.as_mut()?;
        if !victim.probe(addr) {
            return None;
        }
        let ready = now + self.latency + victim.latency();
        self.install(addr);
        // The rescued block now lives here; the probe must have removed
        // it from the victim cache (exclusivity).
        #[cfg(feature = "check")]
        if let Some(victim) = &self.victim {
            let block = self.block_of(addr);
            victim.audit_exclusive(now, block, self.covers_block(block));
        }
        Some(ready)
    }

    /// True if every MSHR is occupied.
    pub fn mshrs_full(&self) -> bool {
        self.mshr.is_full()
    }

    /// Number of fills currently outstanding.
    pub fn fills_in_flight(&self) -> usize {
        self.mshr.in_flight()
    }

    /// Total number of MSHRs (the miss-parallelism bound).
    pub fn mshr_capacity(&self) -> usize {
        self.mshr.capacity()
    }

    /// Hit/miss statistics (in-flight accesses counted as misses).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The L1 hit latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> L1Cache {
        L1Cache::new(CacheConfig::new(1024, 2, 32), 1, 4)
    }

    #[test]
    fn miss_fill_hit_lifecycle() {
        let mut c = l1();
        let a = Addr::new(0x200);
        assert_eq!(c.lookup(Cycle::ZERO, a), L1Access::Miss);
        c.start_fill(c.block_of(a), Cycle::new(50)).unwrap();
        assert_eq!(c.lookup(Cycle::new(10), a), L1Access::InFlight { ready: Cycle::new(50) });
        assert_eq!(c.lookup(Cycle::new(50), a), L1Access::Hit { ready: Cycle::new(51) });
        // Two misses (cold + in-flight), one hit.
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn install_is_immediate() {
        let mut c = l1();
        let a = Addr::new(0x400);
        c.install(a);
        assert!(matches!(c.lookup(Cycle::ZERO, a), L1Access::Hit { .. }));
    }

    #[test]
    fn covers_block_sees_inflight_and_resident() {
        let mut c = l1();
        let a = Addr::new(0x600);
        let b = c.block_of(a);
        assert!(!c.covers_block(b));
        c.start_fill(b, Cycle::new(100)).unwrap();
        assert!(c.covers_block(b));
        c.drain(Cycle::new(100));
        assert!(c.covers_block(b));
        assert_eq!(c.fills_in_flight(), 0);
    }

    #[test]
    fn mshr_capacity_limits_fills() {
        let mut c = l1();
        for i in 0..4u64 {
            c.start_fill(BlockAddr(100 + i), Cycle::new(1000)).unwrap();
        }
        assert!(c.mshrs_full());
        assert_eq!(c.start_fill(BlockAddr(999), Cycle::new(1000)), Err(MshrError::Full));
    }

    #[test]
    fn evictions_go_straight_to_the_victim_cache() {
        // 16 sets of 2 ways: blocks 0, 16 and 32 share set 0.
        let mut c = l1().with_victim(2, 1);
        c.install(Addr::new(0));
        c.install(Addr::new(16 * 32));
        c.install(Addr::new(32 * 32)); // evicts block 0
        assert!(!c.probe(Addr::new(0)));
        // A rescue costs the hit latency plus the victim cache's, and
        // moves the block back (evicting block 16 in turn).
        assert_eq!(c.rescue(Cycle::new(7), Addr::new(0)), Some(Cycle::new(9)));
        assert!(c.probe(Addr::new(0)));
        assert_eq!(c.rescue(Cycle::new(8), Addr::new(0)), None, "the rescue removed it");
        assert_eq!(c.rescue(Cycle::new(9), Addr::new(16 * 32)), Some(Cycle::new(11)));
        // Fills drained from the MSHRs evict into the victim cache too:
        // block 48 displaces block 0, the set's LRU line.
        c.start_fill(BlockAddr(48), Cycle::new(20)).unwrap();
        c.drain(Cycle::new(20));
        assert!(c.victim_mut().expect("configured").contains(BlockAddr(0)));
    }

    #[test]
    fn without_a_victim_cache_nothing_is_rescued() {
        let mut c = l1().with_victim(0, 1);
        assert!(c.victim_mut().is_none(), "zero entries adds no victim cache");
        c.install(Addr::new(0));
        c.install(Addr::new(16 * 32));
        c.install(Addr::new(32 * 32));
        assert_eq!(c.rescue(Cycle::ZERO, Addr::new(0)), None);
    }

    #[test]
    fn probe_neutral() {
        let mut c = l1();
        let a = Addr::new(0x40);
        c.install(a);
        let before = c.stats();
        assert!(c.probe(a));
        assert!(!c.probe(Addr::new(0x4000)));
        assert_eq!(c.stats(), before);
    }
}
