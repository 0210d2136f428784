//! A victim cache.
//!
//! The paper's introduction lists victim caches alongside multi-level
//! caches and prefetching as the standard miss-latency reducers; this
//! implementation lets the simulator quantify how far a victim cache
//! gets on the same workloads (the `ablate_victim` view) — spoiler: it recovers
//! conflict misses, which the paper's pointer chases have few of.

use crate::{Cache, CacheConfig};
use psb_common::{Addr, BlockAddr};
use psb_obs::Counter;

/// Statistics for a victim cache.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct VictimStats {
    /// Probes after an L1 miss.
    pub probes: u64,
    /// Probes that found the block (rescued conflict misses).
    pub hits: u64,
    /// Blocks inserted (L1 evictions).
    pub fills: u64,
}

impl VictimStats {
    /// Hit rate over probes.
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.hits as f64 / self.probes as f64
        }
    }
}

/// A small fully-associative cache holding the L1's most recent victims
/// (Jouppi 1990, the same paper that introduced stream buffers).
///
/// On an L1 miss the victim cache is probed; a hit swaps the block back
/// toward the L1 for a small fixed penalty instead of a trip down the
/// hierarchy.
///
/// # Example
///
/// ```
/// use psb_common::{Addr, BlockAddr};
/// use psb_mem::VictimCache;
///
/// let mut v = VictimCache::new(4, 32, 1);
/// v.fill(BlockAddr(7));                 // an L1 eviction
/// assert!(v.probe(Addr::new(7 * 32)));  // rescued
/// assert!(!v.probe(Addr::new(9 * 32)));
/// ```
#[derive(Clone, Debug)]
pub struct VictimCache {
    cache: Cache,
    latency: u64,
    stats: VictimStats,
    /// Live rescue counter, when attached.
    obs_rescues: Option<Counter>,
}

impl VictimCache {
    /// Creates a fully-associative victim cache of `entries` blocks of
    /// `block` bytes, with `latency` extra cycles on a hit.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero, `block` is not a power of two, or the
    /// size in bytes overflows a `u64`.
    pub fn new(entries: usize, block: u64, latency: u64) -> Self {
        let size = (entries as u64).checked_mul(block).unwrap_or_else(|| {
            panic!("a {entries}-entry victim cache of {block} B blocks overflows u64")
        });
        VictimCache {
            cache: Cache::new(CacheConfig::new(size, entries, block)),
            latency,
            stats: VictimStats::default(),
            obs_rescues: None,
        }
    }

    /// Attaches a counter incremented on every rescued conflict miss.
    pub fn attach_obs(&mut self, rescues: Counter) {
        self.obs_rescues = Some(rescues);
    }

    /// Probes for the block containing `addr` after an L1 miss; a hit
    /// removes the block (it moves back to the L1).
    pub fn probe(&mut self, addr: Addr) -> bool {
        self.stats.probes += 1;
        if self.cache.probe(addr) {
            self.stats.hits += 1;
            if let Some(c) = &self.obs_rescues {
                c.inc();
            }
            self.cache.invalidate(addr);
            true
        } else {
            false
        }
    }

    /// Accepts a block evicted from the L1.
    pub fn fill(&mut self, block: BlockAddr) {
        self.stats.fills += 1;
        self.cache.insert_block(block);
    }

    /// True if the victim cache currently holds `block` (non-mutating,
    /// no statistics side effects).
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.cache.probe_block(block)
    }

    /// Publishes an exclusivity observation to the invariant auditor: a
    /// block must never be resident here and in the L1 at once. The
    /// caller (who owns the L1) supplies `in_l1`.
    #[cfg(feature = "check")]
    pub fn audit_exclusive(&self, now: psb_common::Cycle, block: BlockAddr, in_l1: bool) {
        psb_check::audit(&psb_check::Snapshot::Victim {
            now,
            block,
            in_l1,
            in_victim: self.contains(block),
        });
    }

    /// The extra hit latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> VictimStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescues_recent_victims() {
        let mut v = VictimCache::new(2, 32, 1);
        v.fill(BlockAddr(1));
        v.fill(BlockAddr(2));
        assert!(v.probe(Addr::new(32)));
        assert!(v.probe(Addr::new(64)));
        // Hits remove: the second probe of block 1 misses.
        assert!(!v.probe(Addr::new(32)));
        assert_eq!(v.stats().hits, 2);
        assert_eq!(v.stats().probes, 3);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut v = VictimCache::new(2, 32, 1);
        v.fill(BlockAddr(1));
        v.fill(BlockAddr(2));
        v.fill(BlockAddr(3)); // evicts 1
        assert!(!v.probe(Addr::new(32)));
        assert!(v.probe(Addr::new(96)));
        assert_eq!(v.stats().fills, 3);
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn an_oversized_victim_cache_is_refused_not_wrapped() {
        // 2^59 entries of 32 B is 2^64 bytes: unchecked, the size wraps
        // to zero.
        VictimCache::new(1 << 59, 32, 1);
    }

    #[test]
    fn hit_rate_math() {
        let mut v = VictimCache::new(4, 32, 2);
        assert_eq!(v.stats().hit_rate(), 0.0);
        v.fill(BlockAddr(5));
        v.probe(Addr::new(5 * 32));
        v.probe(Addr::new(6 * 32));
        assert_eq!(v.stats().hit_rate(), 0.5);
        assert_eq!(v.latency(), 2);
    }
}
