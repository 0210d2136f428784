//! Data TLB: translation timing over virtual page numbers.

use crate::{Cache, CacheConfig};
use psb_common::{Addr, Cycle};

/// TLB hit/miss counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations that hit.
    pub hits: u64,
    /// Translations that missed and paid the walk penalty.
    pub misses: u64,
    /// Misses triggered by prefetch translations (a subset of `misses`);
    /// these are the paper's "TLB prefetching" events.
    pub prefetch_misses: u64,
}

/// A set-associative data TLB over virtual page numbers.
///
/// The predictors in this reproduction predict the *virtual* address
/// stream, exactly as in the paper ("we store the virtual effective
/// address of a load in our predictor, \[so\] we need to translate this to a
/// physical address before we access memory"). A prefetch therefore
/// performs a TLB access and, on a miss, a page walk plus replacement —
/// which doubles as TLB prefetching for the later demand access.
///
/// The TLB models only the timing of translation. Caches are indexed by
/// virtual address, so no physical page is ever assigned (see DESIGN.md
/// §4).
///
/// # Example
///
/// ```
/// use psb_common::{Addr, Cycle};
/// use psb_mem::Tlb;
///
/// let mut tlb = Tlb::new(128, 4, 8192, 30);
/// let (ready, hit) = tlb.translate(Cycle::ZERO, Addr::new(0x1234), false);
/// assert!(!hit);                       // cold miss pays the walk
/// assert_eq!(ready, Cycle::new(30));
/// let (ready, hit) = tlb.translate(ready, Addr::new(0x1234), false);
/// assert!(hit);
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: Cache,
    page_size: u64,
    miss_latency: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with `entries` slots of associativity `assoc` over
    /// pages of `page_size` bytes, with a miss penalty of `miss_latency`
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::new`]).
    pub fn new(entries: usize, assoc: usize, page_size: u64, miss_latency: u64) -> Self {
        // Reuse the cache tag array: one "byte" per page, block size 1.
        let config = CacheConfig::new(entries as u64, assoc, 1);
        Tlb { entries: Cache::new(config), page_size, miss_latency, stats: TlbStats::default() }
    }

    /// Translates the page containing `addr` at `now`.
    ///
    /// Returns `(ready, hit)`: the cycle at which the translation is
    /// available, and whether it hit. A miss installs the entry, so a
    /// prefetch miss (`is_prefetch = true`) leaves the translation warm for
    /// the demand access that follows.
    pub fn translate(&mut self, now: Cycle, addr: Addr, is_prefetch: bool) -> (Cycle, bool) {
        let vpn = addr.page(self.page_size);
        let key = Addr::new(vpn.0);
        if self.entries.access(key) {
            self.stats.hits += 1;
            (now, true)
        } else {
            self.stats.misses += 1;
            if is_prefetch {
                self.stats.prefetch_misses += 1;
            }
            self.entries.insert(key);
            (now + self.miss_latency, false)
        }
    }

    /// The miss penalty in cycles.
    pub fn miss_latency(&self) -> u64 {
        self.miss_latency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(16, 4, 8192, 30)
    }

    #[test]
    fn miss_then_hit() {
        let mut t = tlb();
        let (r1, h1) = t.translate(Cycle::ZERO, Addr::new(0x100), false);
        assert!(!h1);
        assert_eq!(r1, Cycle::new(30));
        let (r2, h2) = t.translate(Cycle::new(40), Addr::new(0x1fff), false);
        assert!(h2, "same page must hit");
        assert_eq!(r2, Cycle::new(40));
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn prefetch_miss_warms_demand() {
        let mut t = tlb();
        let (_, hit) = t.translate(Cycle::ZERO, Addr::new(0x4000), true);
        assert!(!hit);
        assert_eq!(t.stats().prefetch_misses, 1);
        let (_, hit) = t.translate(Cycle::new(50), Addr::new(0x4008), false);
        assert!(hit, "prefetch translation must warm the TLB");
    }

    #[test]
    fn capacity_eviction_causes_repeat_miss() {
        let mut t = Tlb::new(2, 2, 8192, 30); // 2 entries total
        t.translate(Cycle::ZERO, Addr::new(0), false);
        t.translate(Cycle::ZERO, Addr::new(8192), false);
        t.translate(Cycle::ZERO, Addr::new(2 * 8192), false); // evicts page 0
        let (_, hit) = t.translate(Cycle::ZERO, Addr::new(0), false);
        assert!(!hit);
        assert_eq!(t.stats().misses, 4);
    }
}
