//! Pangloss: a compressed frequency-based Markov chain prefetcher over
//! page-local block deltas (Papaphilippou, Kelly & Luk,
//! arXiv:1906.00877).
//!
//! Pangloss approximates a Markov chain whose *nodes are deltas*, not
//! addresses: the transition "after stepping `d1` blocks the stream
//! stepped `d2` blocks" is far denser than an address-indexed table, so
//! a few kilobytes cover access patterns an address Markov table of the
//! same size cannot. Two structures implement it:
//!
//! * a **page table** remembering, per recently-touched page, the last
//!   missed block and the delta that reached it (the chain's current
//!   node), and
//! * a **delta table** — the Markov chain itself — mapping a previous
//!   delta to a handful of successor deltas with small frequency
//!   counters. When a counter saturates, every counter in the row is
//!   halved: old evidence decays but relative order survives, which is
//!   the paper's "compressed" frequency encoding (it also keeps the
//!   counters narrow, bounding storage).
//!
//! Prediction walks the chain: from the just-observed delta, repeatedly
//! take the most frequent successor (subject to a confidence floor) and
//! prefetch the block it lands on, up to a fixed degree, never crossing
//! the page boundary. Like the repo's other demand-based engines,
//! prefetched blocks stage in a small LRU buffer rather than the cache.
//!
//! # Example
//!
//! ```
//! use psb_common::{Addr, Cycle};
//! use psb_core::{PanglossPrefetcher, Prefetcher, SbLookup, TestSink};
//!
//! let mut pg = PanglossPrefetcher::baseline();
//! let mut sink = TestSink::new(1);
//! // A repeating +2-block walk inside one page trains the chain...
//! for i in 0..4u64 {
//!     pg.train(Cycle::ZERO, Addr::new(0x400), Addr::new(0x10_0000 + 64 * i));
//! }
//! for c in 1..8 {
//!     pg.tick(Cycle::new(c), &mut sink);
//! }
//! // ...and the next step of the walk is already staged:
//! assert!(matches!(pg.lookup(Cycle::new(9), Addr::new(0x10_0100)), SbLookup::Hit { .. }));
//! ```

use crate::demand::PrefetchBuffer;
use crate::prefetcher::{PrefetchSink, PrefetchStats, Prefetcher, SbLookup};
use crate::registry::EngineDescriptor;
use psb_common::{Addr, BlockAddr, Cycle};

/// The registry row for the baseline Pangloss configuration.
pub(crate) const DESCRIPTOR: EngineDescriptor = EngineDescriptor {
    name: "pangloss",
    label: "Pangloss",
    paper: false,
    build: || Box::new(PanglossPrefetcher::baseline()),
};

/// One tracked page: the chain's position within it.
#[derive(Copy, Clone, Debug)]
struct PageEntry {
    page: u64,
    /// Last missed block of the page.
    last_block: BlockAddr,
    /// Delta (in blocks) that reached `last_block`, or `NO_DELTA` when
    /// the page has seen only one miss.
    last_delta: i32,
    lru: u64,
    valid: bool,
}

/// Sentinel for "no previous delta recorded yet".
const NO_DELTA: i32 = i32::MIN;

/// One successor candidate in a delta-table row.
#[derive(Copy, Clone, Debug, Default)]
struct Successor {
    /// Successor delta in blocks (0 = empty slot; a zero block delta
    /// never occurs, consecutive misses to one block are one miss).
    to: i32,
    /// Saturating frequency counter.
    count: u8,
}

/// The compressed frequency-based Markov chain prefetcher.
#[derive(Clone, Debug)]
pub struct PanglossPrefetcher {
    /// Delta table: row per possible previous delta, `ways` successor
    /// candidates each. Indexed directly by `delta + blocks_per_page`.
    rows: Vec<Successor>,
    pages: Vec<PageEntry>,
    buffer: PrefetchBuffer,
    block: u64,
    /// Blocks per page (power of two): deltas live in
    /// `-(bpp-1) ..= bpp-1`.
    blocks_per_page: i32,
    ways: usize,
    degree: usize,
    stamp: u64,
    stats: PrefetchStats,
}

/// Frequency ceiling: reaching it halves the whole row (5-bit counters
/// in the paper's table; the decay keeps them narrow).
const COUNT_MAX: u8 = 31;

impl PanglossPrefetcher {
    /// The baseline configuration: 64 tracked pages of 8 KB, 32-byte
    /// blocks (256 blocks/page), 4 successor candidates per delta,
    /// prefetch degree 4, 32-entry staging buffer.
    pub fn baseline() -> Self {
        PanglossPrefetcher::new(8192, 32, 64, 4, 4, 32)
    }

    /// Creates a Pangloss prefetcher.
    ///
    /// # Panics
    ///
    /// Panics when `page`/`block` are not powers of two, when `block`
    /// does not divide `page`, or when any capacity is zero.
    pub fn new(
        page: u64,
        block: u64,
        page_entries: usize,
        ways: usize,
        degree: usize,
        buffer: usize,
    ) -> Self {
        assert!(page.is_power_of_two() && block.is_power_of_two(), "pow2 page/block required");
        assert!(block < page, "a page must span several blocks");
        assert!(page_entries > 0 && ways > 0 && degree > 0, "zero-sized Pangloss structure");
        let blocks_per_page = (page / block) as i32;
        PanglossPrefetcher {
            // Rows for deltas -(bpp-1) ..= bpp-1, indexed by delta + bpp.
            rows: vec![Successor::default(); (2 * blocks_per_page as usize + 1) * ways],
            pages: vec![
                PageEntry {
                    page: 0,
                    last_block: BlockAddr(0),
                    last_delta: NO_DELTA,
                    lru: 0,
                    valid: false
                };
                page_entries
            ],
            buffer: PrefetchBuffer::new(buffer),
            block,
            blocks_per_page,
            ways,
            degree,
            stamp: 0,
            stats: PrefetchStats::default(),
        }
    }

    /// The delta-table row for a previous delta.
    fn row(&self, delta: i32) -> &[Successor] {
        let i = (delta + self.blocks_per_page) as usize * self.ways;
        &self.rows[i..i + self.ways]
    }

    fn row_mut(&mut self, delta: i32) -> &mut [Successor] {
        let i = (delta + self.blocks_per_page) as usize * self.ways;
        &mut self.rows[i..i + self.ways]
    }

    /// Records the transition `from → to` with saturation-halving decay.
    fn record(&mut self, from: i32, to: i32) {
        let row = self.row_mut(from);
        if let Some(s) = row.iter_mut().find(|s| s.to == to) {
            s.count += 1;
            if s.count >= COUNT_MAX {
                for s in row {
                    s.count /= 2;
                }
            }
        } else {
            // Replace the least frequent candidate (empty slots have
            // count 0 and lose every comparison).
            let weakest = row
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.count)
                .map(|(i, _)| i)
                .expect("invariant: ways > 0 keeps rows non-empty");
            row[weakest] = Successor { to, count: 1 };
        }
    }

    /// The most frequent successor of `from`, if it clears the
    /// confidence floor (strictly more than its fair share of the row's
    /// total evidence — the paper's 1/3-ish threshold at our ways).
    fn best_successor(&self, from: i32) -> Option<i32> {
        let row = self.row(from);
        let total: u32 = row.iter().map(|s| s.count as u32).sum();
        let best = row.iter().max_by_key(|s| s.count)?;
        (best.count >= 2 && best.count as u32 * self.ways as u32 > total).then_some(best.to)
    }

    /// Queues a prefetch unless the block is already staged or queued.
    fn enqueue(&mut self, block: BlockAddr) {
        self.stats.predictions += 1;
        if !self.buffer.enqueue(block) {
            self.stats.suppressed += 1;
        }
    }

    /// Walks the chain from `(block, delta)` and queues up to `degree`
    /// in-page prefetches.
    fn predict_from(&mut self, mut block: BlockAddr, mut delta: i32) {
        let bpp = self.blocks_per_page as u64;
        let page = block.0 / bpp;
        for _ in 0..self.degree {
            let Some(next) = self.best_successor(delta) else { break };
            let target = block.offset(next as i64);
            if target.0 / bpp != page {
                break; // Pangloss never follows the chain off the page.
            }
            self.enqueue(target);
            block = target;
            delta = next;
        }
    }

    /// Finds the page-table way holding `page`, if tracked.
    fn page_slot(&self, page: u64) -> Option<usize> {
        self.pages.iter().position(|e| e.valid && e.page == page)
    }
}

impl Prefetcher for PanglossPrefetcher {
    fn lookup(&mut self, now: Cycle, addr: Addr) -> SbLookup {
        self.buffer.lookup(now, addr.block(self.block), &mut self.stats)
    }

    fn train(&mut self, _now: Cycle, _pc: Addr, addr: Addr) {
        let block = addr.block(self.block);
        let page = block.0 / self.blocks_per_page as u64;
        self.stamp += 1;
        match self.page_slot(page) {
            Some(i) => {
                let e = &mut self.pages[i];
                let delta = block.delta(e.last_block) as i32;
                if delta == 0 {
                    e.lru = self.stamp;
                    return; // same block again: no chain step
                }
                let prev = e.last_delta;
                e.last_block = block;
                e.last_delta = delta;
                e.lru = self.stamp;
                if prev != NO_DELTA {
                    self.record(prev, delta);
                }
                self.predict_from(block, delta);
            }
            None => {
                let victim = self
                    .pages
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| (e.valid, e.lru))
                    .map(|(i, _)| i)
                    .expect("invariant: page_entries > 0 keeps the table non-empty");
                self.pages[victim] = PageEntry {
                    page,
                    last_block: block,
                    last_delta: NO_DELTA,
                    lru: self.stamp,
                    valid: true,
                };
            }
        }
    }

    fn allocate(&mut self, _now: Cycle, _pc: Addr, _addr: Addr) {}

    fn tick(&mut self, now: Cycle, sink: &mut dyn PrefetchSink) {
        self.buffer.issue(now, sink, self.block, &mut self.stats);
    }

    fn quiescent(&self) -> bool {
        // With nothing queued, `tick` can neither issue nor change a
        // counter; only `lookup`/`train` (both reached through the
        // simulator's miss path, which drops the idle shortcut) refill
        // the queue.
        self.buffer.quiescent()
    }

    fn stats(&self) -> PrefetchStats {
        self.stats
    }

    fn name(&self) -> &str {
        "pangloss"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetcher::TestSink;

    fn drain(p: &mut PanglossPrefetcher, sink: &mut TestSink, from: u64, cycles: u64) {
        for c in from..from + cycles {
            p.tick(Cycle::new(c), sink);
        }
    }

    #[test]
    fn constant_stride_chain_prefetches_ahead() {
        let mut pg = PanglossPrefetcher::baseline();
        let mut sink = TestSink::new(1);
        // +2 blocks (64 bytes) per miss, in one page.
        for i in 0..4u64 {
            pg.train(Cycle::ZERO, Addr::new(0x400), Addr::new(0x10_0000 + 64 * i));
        }
        drain(&mut pg, &mut sink, 1, 8);
        // After the third identical delta the chain predicts onward:
        // 0x10_00c0 + 64, +128, ...
        assert!(sink.fetched.contains(&Addr::new(0x10_0100)), "fetched: {:?}", sink.fetched);
        assert!(matches!(pg.lookup(Cycle::new(20), Addr::new(0x10_0100)), SbLookup::Hit { .. }));
        assert!(pg.stats().issued >= 1);
    }

    #[test]
    fn chain_walk_reaches_degree_deep() {
        let mut pg = PanglossPrefetcher::baseline();
        let mut sink = TestSink::new(1);
        // Strong +1-block chain: every step's successor is +1 again.
        for i in 0..12u64 {
            pg.train(Cycle::ZERO, Addr::new(0), Addr::new(0x20_0000 + 32 * i));
        }
        sink.fetched.clear();
        pg.buffer.pending().clear();
        pg.train(Cycle::ZERO, Addr::new(0), Addr::new(0x20_0000 + 32 * 12));
        drain(&mut pg, &mut sink, 1, 8);
        // Degree-4 chain: the next four blocks queued in one shot.
        let expected: Vec<Addr> = (13..17).map(|i| Addr::new(0x20_0000 + 32 * i)).collect();
        assert_eq!(sink.fetched, expected);
    }

    #[test]
    fn alternating_deltas_learn_both_transitions() {
        let mut pg = PanglossPrefetcher::baseline();
        let mut sink = TestSink::new(1);
        // Walk +3, +5, +3, +5 ... blocks: after +3 comes +5 and vice
        // versa, so each prediction follows the alternation.
        let mut block = 0u64;
        for i in 0..9 {
            block += if i % 2 == 0 { 3 } else { 5 };
            pg.train(Cycle::ZERO, Addr::new(0), Addr::new(0x40_0000 + 32 * block));
        }
        pg.buffer.pending().clear();
        sink.fetched.clear();
        // The tenth step is +5 (i = 9); after a +5 the chain expects +3.
        block += 5;
        pg.train(Cycle::ZERO, Addr::new(0), Addr::new(0x40_0000 + 32 * block));
        let next = Addr::new(0x40_0000 + 32 * (block + 3));
        drain(&mut pg, &mut sink, 1, 6);
        assert!(sink.fetched.contains(&next), "fetched: {:?}", sink.fetched);
    }

    #[test]
    fn never_prefetches_across_the_page_boundary() {
        let mut pg = PanglossPrefetcher::baseline();
        let mut sink = TestSink::new(1);
        // +32-block strides march toward the top of an 8 KB page.
        let base = 0x30_0000u64; // page-aligned
        for i in 0..8u64 {
            pg.train(Cycle::ZERO, Addr::new(0), Addr::new(base + i * 32 * 32));
        }
        drain(&mut pg, &mut sink, 1, 32);
        assert!(
            sink.fetched.iter().all(|a| a.raw() < base + 8192),
            "no fetch may leave the page: {:?}",
            sink.fetched
        );
    }

    #[test]
    fn saturation_halves_the_row_but_keeps_the_order() {
        let mut pg = PanglossPrefetcher::baseline();
        // Drive one transition to saturation, with a weak competitor.
        pg.record(4, 8);
        for _ in 0..COUNT_MAX {
            pg.record(4, 2);
        }
        let row = pg.row(4);
        let strong = row.iter().find(|s| s.to == 2).unwrap();
        let weak = row.iter().find(|s| s.to == 8).unwrap();
        assert!(strong.count < COUNT_MAX, "decay must have halved the row");
        assert!(strong.count > weak.count, "relative frequency order survives decay");
        assert_eq!(pg.best_successor(4), Some(2));
    }

    #[test]
    fn low_confidence_rows_stay_silent() {
        let mut pg = PanglossPrefetcher::baseline();
        // Four successors with equal evidence: no candidate clears the
        // fair-share confidence floor.
        for to in [1, 2, 3, 5] {
            pg.record(7, to);
            pg.record(7, to);
        }
        assert_eq!(pg.best_successor(7), None);
    }

    #[test]
    fn pages_are_tracked_independently() {
        let mut pg = PanglossPrefetcher::baseline();
        let mut sink = TestSink::new(1);
        // Interleave two pages with different strides; each page's chain
        // stays coherent (the delta table is shared, the positions are
        // per page).
        for i in 0..6u64 {
            pg.train(Cycle::ZERO, Addr::new(0), Addr::new(0x10_0000 + 64 * i));
            pg.train(Cycle::ZERO, Addr::new(0), Addr::new(0x50_0000 + 96 * i));
        }
        drain(&mut pg, &mut sink, 1, 40);
        assert!(sink.fetched.contains(&Addr::new(0x10_0000 + 64 * 6)));
        assert!(sink.fetched.contains(&Addr::new(0x50_0000 + 96 * 6)));
    }

    #[test]
    fn quiescent_exactly_when_queue_is_empty() {
        let mut pg = PanglossPrefetcher::baseline();
        assert!(pg.quiescent(), "fresh engine has nothing to do");
        for i in 0..4u64 {
            pg.train(Cycle::ZERO, Addr::new(0), Addr::new(0x60_0000 + 64 * i));
        }
        assert!(!pg.quiescent(), "queued predictions demand ticks");
        let mut sink = TestSink::new(1);
        drain(&mut pg, &mut sink, 1, 16);
        assert!(pg.quiescent(), "drained queue goes idle again");
        // And while quiescent, a tick is externally unobservable.
        let before = (pg.stats(), sink.fetched.len());
        pg.tick(Cycle::new(99), &mut sink);
        assert_eq!((pg.stats(), sink.fetched.len()), before);
    }

    #[test]
    fn bus_gating_respected() {
        let mut pg = PanglossPrefetcher::baseline();
        let mut sink = TestSink::new(1);
        sink.bus_is_free = false;
        for i in 0..4u64 {
            pg.train(Cycle::ZERO, Addr::new(0), Addr::new(0x70_0000 + 64 * i));
        }
        drain(&mut pg, &mut sink, 1, 8);
        assert_eq!(pg.stats().issued, 0);
        sink.bus_is_free = true;
        drain(&mut pg, &mut sink, 9, 1);
        assert_eq!(pg.stats().issued, 1);
    }

    #[test]
    fn duplicate_predictions_are_suppressed() {
        let mut pg = PanglossPrefetcher::baseline();
        let mut sink = TestSink::new(1);
        for i in 0..8u64 {
            pg.train(Cycle::ZERO, Addr::new(0), Addr::new(0x80_0000 + 64 * i));
            pg.tick(Cycle::new(i), &mut sink);
        }
        assert!(pg.stats().suppressed > 0, "re-predicted staged blocks must be suppressed");
        let uniq: std::collections::HashSet<&Addr> = sink.fetched.iter().collect();
        assert_eq!(uniq.len(), sink.fetched.len(), "no block fetched twice: {:?}", sink.fetched);
    }

    #[test]
    #[should_panic(expected = "zero-sized Pangloss structure")]
    fn zero_degree_panics() {
        PanglossPrefetcher::new(8192, 32, 64, 4, 0, 32);
    }

    #[test]
    #[should_panic(expected = "pow2 page/block required")]
    fn non_pow2_page_panics() {
        PanglossPrefetcher::new(5000, 32, 64, 4, 4, 32);
    }

    #[test]
    #[should_panic(expected = "a page must span several blocks")]
    fn block_equal_to_page_panics() {
        PanglossPrefetcher::new(32, 32, 64, 4, 4, 32);
    }

    #[test]
    #[should_panic(expected = "zero-sized Pangloss structure")]
    fn zero_page_entries_panics() {
        PanglossPrefetcher::new(8192, 32, 0, 4, 4, 32);
    }

    #[test]
    #[should_panic(expected = "zero-sized Pangloss structure")]
    fn zero_ways_panics() {
        PanglossPrefetcher::new(8192, 32, 64, 0, 4, 32);
    }

    #[test]
    fn minimal_configuration_constructs() {
        let pg = PanglossPrefetcher::new(8192, 32, 1, 1, 1, 1);
        assert_eq!((pg.pages.len(), pg.ways, pg.degree), (1, 1, 1));
    }

    #[test]
    fn baseline_configuration_is_pinned() {
        let pg = PanglossPrefetcher::baseline();
        assert_eq!(pg.pages.len(), 64);
        assert_eq!((pg.ways, pg.degree), (4, 4));
        assert_eq!(pg.block, 32);
        assert_eq!(pg.blocks_per_page, 256);
        assert_eq!(pg.rows.len(), (2 * 256 + 1) * 4);
        assert_eq!(pg.buffer.capacity(), 32);
        // The fresh state is fully zeroed: page slots invalid with
        // cleared fields, the delta table empty, the LRU clock at 0.
        assert_eq!(pg.stamp, 0);
        for e in &pg.pages {
            assert!(!e.valid);
            assert_eq!((e.page, e.last_block.0, e.last_delta, e.lru), (0, 0, NO_DELTA, 0));
        }
        assert!(pg.rows.iter().all(|s| s.to == 0 && s.count == 0));
    }

    #[test]
    fn saturation_boundary_is_exact() {
        let mut pg = PanglossPrefetcher::baseline();
        let count = |pg: &PanglossPrefetcher| {
            pg.row(1).iter().find(|s| s.to == 2).map(|s| s.count).unwrap_or(0)
        };
        for _ in 0..30 {
            pg.record(1, 2);
        }
        assert_eq!(count(&pg), 30, "30 observations stay below the ceiling of 31");
        pg.record(1, 2);
        assert_eq!(count(&pg), 15, "reaching the ceiling halves the count");
    }

    #[test]
    fn confidence_floor_needs_two_observations() {
        let mut pg = PanglossPrefetcher::baseline();
        pg.record(3, 7);
        assert_eq!(pg.best_successor(3), None, "a single observation is not confidence");
        pg.record(3, 7);
        assert_eq!(pg.best_successor(3), Some(7));
    }

    #[test]
    fn every_prediction_is_counted() {
        let mut pg = PanglossPrefetcher::baseline();
        pg.enqueue(BlockAddr(40));
        pg.enqueue(BlockAddr(40));
        let s = pg.stats();
        assert_eq!((s.predictions, s.suppressed), (2, 1));
        assert_eq!(pg.buffer.pending().len(), 1, "the duplicate must not queue");
    }

    #[test]
    fn lookup_stats_count_misses_and_hits() {
        let mut pg = PanglossPrefetcher::baseline();
        let mut sink = TestSink::new(1);
        assert!(matches!(pg.lookup(Cycle::new(1), Addr::new(0x1000)), SbLookup::Miss));
        let s = pg.stats();
        assert_eq!((s.lookups, s.hits, s.used), (1, 0, 0));
        pg.buffer.pending().push_back(Addr::new(0x2000).block(32));
        pg.tick(Cycle::new(2), &mut sink);
        assert!(matches!(pg.lookup(Cycle::new(3), Addr::new(0x2000)), SbLookup::Hit { .. }));
        let s = pg.stats();
        assert_eq!((s.lookups, s.hits, s.used), (2, 1, 1));
    }

    #[test]
    fn reused_page_survives_lru_eviction() {
        let mut pg = PanglossPrefetcher::new(8192, 32, 2, 4, 4, 32);
        pg.train(Cycle::ZERO, Addr::new(0), Addr::new(0x10_0000)); // A
        pg.train(Cycle::ZERO, Addr::new(0), Addr::new(0x20_0000)); // B
        pg.train(Cycle::ZERO, Addr::new(0), Addr::new(0x10_0020)); // refresh A
        pg.train(Cycle::ZERO, Addr::new(0), Addr::new(0x30_0000)); // evicts B, the true LRU
        assert!(pg.page_slot(0x10_0000 / 8192).is_some(), "refreshed page was evicted");
        assert!(pg.page_slot(0x20_0000 / 8192).is_none(), "stale page was kept");
    }

    #[test]
    fn repeated_block_is_not_a_chain_step() {
        let mut pg = PanglossPrefetcher::baseline();
        pg.train(Cycle::ZERO, Addr::new(0), Addr::new(0x10_0000));
        pg.train(Cycle::ZERO, Addr::new(0), Addr::new(0x10_0060)); // +3 blocks
        pg.train(Cycle::ZERO, Addr::new(0), Addr::new(0x10_0060)); // same block: no step
        pg.train(Cycle::ZERO, Addr::new(0), Addr::new(0x10_00c0)); // +3 again
        assert!(pg.row(0).iter().all(|s| s.count == 0), "a zero delta entered the chain");
        let learned = pg.row(3).iter().find(|s| s.to == 3).expect("the +3 after +3 transition");
        assert_eq!(learned.count, 1);
    }
}
