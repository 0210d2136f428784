//! Set-associative tag array with true-LRU replacement.

use crate::CacheConfig;
use psb_common::{Addr, BlockAddr};

/// Hit/miss counters for one cache.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit a resident block.
    pub hits: u64,
    /// Accesses that missed (including accesses to in-flight blocks, which
    /// the caller records here per the paper's miss definition).
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in `[0, 1]`; 0.0 when no accesses occurred.
    pub fn miss_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.misses as f64 / n as f64
        }
    }
}

/// A set-associative cache tag array with true-LRU replacement.
///
/// Only tags are modeled — a timing simulator never needs the data bytes.
/// The cache is deliberately policy-free: it does not know about MSHRs,
/// buses or latencies; those compose around it.
///
/// # Example
///
/// ```
/// use psb_common::Addr;
/// use psb_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::l1d_32k_4way());
/// assert!(!c.access(Addr::new(0x1000)));   // cold miss
/// c.insert(Addr::new(0x1000));
/// assert!(c.access(Addr::new(0x1010)));    // same 32B block: hit
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// Per-line tag, one flat arena indexed `set * assoc + way`.
    tags: Box<[u64]>,
    /// Per-line last-use stamp; `0` means the line is invalid (the global
    /// stamp pre-increments, so a valid line's stamp is always nonzero).
    /// Packing validity into the stamp keeps the LRU victim scan a plain
    /// unsigned minimum: invalid ways carry stamp 0 and win automatically.
    stamps: Box<[u64]>,
    num_sets: u64,
    /// `log2(num_sets)` when the set count is a power of two (every
    /// standard geometry), replacing `%` / `/` with mask/shift.
    set_shift: Option<u32>,
    stamp: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        let lines = (num_sets as usize) * config.assoc;
        Cache {
            config,
            tags: vec![0; lines].into_boxed_slice(),
            stamps: vec![0; lines].into_boxed_slice(),
            num_sets,
            set_shift: num_sets.is_power_of_two().then(|| num_sets.trailing_zeros()),
            stamp: 0,
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.config.block
    }

    /// Returns the block containing `addr`.
    pub fn block_of(&self, addr: Addr) -> BlockAddr {
        addr.block(self.config.block)
    }

    fn set_and_tag(&self, block: BlockAddr) -> (usize, u64) {
        match self.set_shift {
            Some(shift) => (((block.0 & (self.num_sets - 1)) as usize), block.0 >> shift),
            None => ((block.0 % self.num_sets) as usize, block.0 / self.num_sets),
        }
    }

    fn ways(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.config.assoc;
        base..base + self.config.assoc
    }

    /// Checks residency without updating LRU state (a snoop).
    pub fn probe(&self, addr: Addr) -> bool {
        self.probe_block(self.block_of(addr))
    }

    /// Block-granularity [`Cache::probe`].
    pub fn probe_block(&self, block: BlockAddr) -> bool {
        let (set, tag) = self.set_and_tag(block);
        self.ways(set).any(|i| self.stamps[i] != 0 && self.tags[i] == tag)
    }

    /// Accesses `addr`: returns `true` on hit and promotes the block to
    /// most-recently-used. A miss changes nothing (fills are explicit via
    /// [`Cache::insert`]).
    pub fn access(&mut self, addr: Addr) -> bool {
        self.access_block(self.block_of(addr))
    }

    /// Block-granularity [`Cache::access`].
    pub fn access_block(&mut self, block: BlockAddr) -> bool {
        let (set, tag) = self.set_and_tag(block);
        self.stamp += 1;
        for i in self.ways(set) {
            if self.stamps[i] != 0 && self.tags[i] == tag {
                self.stamps[i] = self.stamp;
                return true;
            }
        }
        false
    }

    /// Installs the block containing `addr`, evicting the LRU way if the
    /// set is full. Returns the evicted block, if any.
    pub fn insert(&mut self, addr: Addr) -> Option<BlockAddr> {
        self.insert_block(self.block_of(addr))
    }

    /// Block-granularity [`Cache::insert`]. Inserting a resident block just
    /// refreshes its LRU position.
    pub fn insert_block(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        let (set, tag) = self.set_and_tag(block);
        self.stamp += 1;

        // Already resident: refresh.
        for i in self.ways(set) {
            if self.stamps[i] != 0 && self.tags[i] == tag {
                self.stamps[i] = self.stamp;
                return None;
            }
        }

        // LRU victim: the minimum stamp. Invalid ways carry stamp 0, so
        // they win over any valid line automatically, and the strict `<`
        // keeps the first minimum — the same way the branchy
        // prefer-invalid scan used to choose.
        let mut slot = 0;
        let mut oldest = u64::MAX;
        for i in self.ways(set) {
            if self.stamps[i] < oldest {
                oldest = self.stamps[i];
                slot = i;
            }
        }
        let evicted_tag = (oldest != 0).then(|| self.tags[slot]);
        self.tags[slot] = tag;
        self.stamps[slot] = self.stamp;
        evicted_tag.map(|t| match self.set_shift {
            Some(shift) => BlockAddr((t << shift) | set as u64),
            // Tag/set recomposition, not pointer math.
            None => BlockAddr(t * self.num_sets + set as u64),
        })
    }

    /// Removes the block containing `addr` if resident; returns whether it
    /// was resident.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let (set, tag) = self.set_and_tag(self.block_of(addr));
        for i in self.ways(set) {
            if self.stamps[i] != 0 && self.tags[i] == tag {
                self.stamps[i] = 0;
                return true;
            }
        }
        false
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.stamps.iter().filter(|&&s| s != 0).count()
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.tags.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 32B blocks = 128 B.
        Cache::new(CacheConfig::new(128, 2, 32))
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut c = tiny();
        let a = Addr::new(0x100);
        assert!(!c.access(a));
        assert!(c.insert(a).is_none());
        assert!(c.access(a));
        assert!(c.probe(a));
    }

    #[test]
    fn same_block_aliases() {
        let mut c = tiny();
        c.insert(Addr::new(0x100));
        assert!(c.access(Addr::new(0x11f))); // last byte of same block
        assert!(!c.access(Addr::new(0x120))); // next block
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // These three map to the same set (set = block % 2): choose blocks
        // 0, 2, 4 (even => set 0).
        let a = BlockAddr(0);
        let b = BlockAddr(2);
        let d = BlockAddr(4);
        c.insert_block(a);
        c.insert_block(b);
        // Touch a so b becomes LRU.
        assert!(c.access_block(a));
        let evicted = c.insert_block(d);
        assert_eq!(evicted, Some(b));
        assert!(c.probe_block(a));
        assert!(c.probe_block(d));
        assert!(!c.probe_block(b));
    }

    #[test]
    fn insert_resident_refreshes_lru() {
        let mut c = tiny();
        let a = BlockAddr(0);
        let b = BlockAddr(2);
        let d = BlockAddr(4);
        c.insert_block(a);
        c.insert_block(b);
        assert!(c.insert_block(a).is_none()); // refresh, no eviction
        assert_eq!(c.insert_block(d), Some(b)); // b is now LRU
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        let a = BlockAddr(0);
        let b = BlockAddr(2);
        let d = BlockAddr(4);
        c.insert_block(a);
        c.insert_block(b);
        assert!(c.probe_block(a)); // probe must NOT refresh a
        assert_eq!(c.insert_block(d), Some(a));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        let a = Addr::new(0x40);
        c.insert(a);
        assert!(c.invalidate(a));
        assert!(!c.probe(a));
        assert!(!c.invalidate(a));
    }

    #[test]
    fn occupancy_counts() {
        let mut c = tiny();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.capacity_lines(), 4);
        c.insert_block(BlockAddr(0));
        c.insert_block(BlockAddr(1));
        c.insert_block(BlockAddr(2));
        assert_eq!(c.occupancy(), 3);
    }

    #[test]
    fn evicted_block_address_round_trips() {
        // Fill a set completely, then overflow it; the evicted block must
        // map back to the same set.
        let mut c = Cache::new(CacheConfig::new(1024, 2, 32)); // 16 sets
        let s = 5u64;
        let b0 = BlockAddr(s);
        let b1 = BlockAddr(s + 16);
        let b2 = BlockAddr(s + 32);
        c.insert_block(b0);
        c.insert_block(b1);
        let ev = c.insert_block(b2).expect("must evict");
        assert_eq!(ev, b0);
        assert_eq!(ev.0 % 16, s);
    }

    #[test]
    fn stats_helpers() {
        let mut s = CacheStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert_eq!(s.accesses(), 4);
        assert_eq!(s.miss_rate(), 0.25);
    }

    #[test]
    fn odd_set_count_fallback_round_trips_evictions() {
        // CacheConfig::new rejects non-power-of-two set counts, but the
        // cache itself supports them through the `%`/`/` fallback; build
        // the config literally to pin that path. 3 sets, direct-mapped.
        let mut c = Cache::new(CacheConfig { size: 96, assoc: 1, block: 32 });
        let b = BlockAddr(7); // set 1, tag 2
        c.insert_block(b);
        assert!(c.probe_block(b));
        assert!(!c.probe_block(BlockAddr(10))); // set 1, tag 3: must miss
        let ev = c.insert_block(BlockAddr(16)); // set 1, tag 5: evicts 7
        assert_eq!(ev, Some(b));
    }
}
