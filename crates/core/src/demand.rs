//! Demand-based prefetchers from the paper's Section 3 ("Hardware
//! Prefetching Models") — implemented as comparison points beyond the
//! paper's own figures.
//!
//! * [`NextLinePrefetcher`] — Smith's Next Line Prefetching: an access
//!   that misses (or hits a prefetched line for the first time) triggers
//!   a prefetch of the next sequential block.
//! * [`DemandMarkovPrefetcher`] — the Markov prefetcher of Joseph &
//!   Grunwald: a cache miss indexes a Markov table for the addresses
//!   that followed it before, prefetching up to `ways` successors into a
//!   prefetch buffer, then idling until the next miss ("They do not use
//!   the predicted addresses to re-index into the table"). Two-bit
//!   accuracy counters disable transitions that keep prefetching dead
//!   data.
//!
//! Both engines share the same [`Prefetcher`] interface as the stream
//! buffers, so the simulator can compare all models head-to-head. They,
//! the fetch-directed engine, Pangloss and DSPatch all stage prefetches
//! through one [`PrefetchBuffer`], which owns their pending queue and
//! their issue step.

use crate::prefetcher::{PrefetchSink, PrefetchStats, Prefetcher, SbLookup};
use psb_common::{Addr, BlockAddr, Cycle, SatCounter};
use std::collections::VecDeque;

/// One slot of a prefetch buffer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct PbEntry {
    block: BlockAddr,
    ready: Cycle,
    lru: u64,
}

/// A small fully-associative prefetch buffer with LRU replacement, as
/// used by the demand-based schemes (prefetched data is staged here, not
/// in the cache, to avoid pollution), fed by a queue of blocks waiting
/// for the bus. Shared with the fetch-directed engine and the demand-side
/// engines under `predictor/` (Pangloss, DSPatch).
#[derive(Clone, Debug)]
pub(crate) struct PrefetchBuffer {
    entries: Vec<PbEntry>,
    /// Blocks waiting for a free bus, oldest first; never one that is
    /// already staged or queued.
    pending: VecDeque<BlockAddr>,
    capacity: usize,
    stamp: u64,
}

impl PrefetchBuffer {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "prefetch buffer needs at least one entry");
        PrefetchBuffer {
            entries: Vec::with_capacity(capacity),
            pending: VecDeque::new(),
            capacity,
            stamp: 0,
        }
    }

    /// Queues `block` for prefetch unless it is already staged or queued.
    /// Returns whether it was queued.
    pub(crate) fn enqueue(&mut self, block: BlockAddr) -> bool {
        let fresh = !self.contains(block) && !self.pending.contains(&block);
        if fresh {
            self.pending.push_back(block);
        }
        fresh
    }

    /// True if [`PrefetchBuffer::issue`] cannot act until a block is
    /// queued: the owning engine's `tick` is then a no-op.
    pub(crate) fn quiescent(&self) -> bool {
        self.pending.is_empty()
    }

    /// Probes for `block` after an L1 miss. A hit takes the block out of
    /// the buffer (it moves into the cache) and counts as a used prefetch.
    pub(crate) fn lookup(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        stats: &mut PrefetchStats,
    ) -> SbLookup {
        stats.lookups += 1;
        let Some(e) = self.take(block) else {
            return SbLookup::Miss;
        };
        stats.hits += 1;
        stats.used += 1;
        SbLookup::Hit { ready: e.ready.max(now) }
    }

    /// The shared issue step: if the bus is free at `now`, fetches the
    /// oldest queued block (of `block_size` bytes) into the buffer and
    /// counts it as issued. Returns the issued block and the unused block
    /// it evicted, if any.
    pub(crate) fn issue(
        &mut self,
        now: Cycle,
        sink: &mut dyn PrefetchSink,
        block_size: u64,
        stats: &mut PrefetchStats,
    ) -> Option<(BlockAddr, Option<BlockAddr>)> {
        if !sink.bus_free(now) {
            return None;
        }
        let block = self.pending.pop_front()?;
        let ready = sink.fetch(now, block.base(block_size));
        stats.issued += 1;
        Some((block, self.insert(block, ready)))
    }

    fn contains(&self, block: BlockAddr) -> bool {
        self.entries.iter().any(|e| e.block == block)
    }

    /// The configured number of slots (not the current occupancy).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The pending queue, for tests that inspect or reset it.
    #[cfg(test)]
    pub(crate) fn pending(&mut self) -> &mut VecDeque<BlockAddr> {
        &mut self.pending
    }

    /// Removes and returns the entry for `block`, if present (a hit moves
    /// the block into the cache).
    fn take(&mut self, block: BlockAddr) -> Option<PbEntry> {
        let idx = self.entries.iter().position(|e| e.block == block)?;
        Some(self.entries.swap_remove(idx))
    }

    /// Inserts a block; returns the evicted (unused) block, if any.
    fn insert(&mut self, block: BlockAddr, ready: Cycle) -> Option<BlockAddr> {
        self.stamp += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.block == block) {
            e.lru = self.stamp;
            return None;
        }
        let entry = PbEntry { block, ready, lru: self.stamp };
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
            None
        } else {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .expect("invariant: capacity > 0 keeps the entry list non-empty");
            let evicted = std::mem::replace(&mut self.entries[victim], entry);
            Some(evicted.block)
        }
    }
}

/// Smith's Next Line Prefetching, staged through a prefetch buffer.
///
/// A demand miss queues a prefetch of the next sequential block; using a
/// prefetched block queues the block after it, so sequential walks chain.
///
/// # Example
///
/// ```
/// use psb_common::{Addr, Cycle};
/// use psb_core::{NextLinePrefetcher, Prefetcher, SbLookup, TestSink};
///
/// let mut nlp = NextLinePrefetcher::new(32, 16);
/// let mut sink = TestSink::new(1);
/// nlp.train(Cycle::ZERO, Addr::new(0x400), Addr::new(0x1000)); // miss
/// nlp.tick(Cycle::new(1), &mut sink);
/// // The next block was prefetched:
/// assert!(matches!(nlp.lookup(Cycle::new(5), Addr::new(0x1020)), SbLookup::Hit { .. }));
/// ```
#[derive(Clone, Debug)]
pub struct NextLinePrefetcher {
    buffer: PrefetchBuffer,
    block: u64,
    stats: PrefetchStats,
}

/// Block size of [`NextLinePrefetcher::baseline`], matching the
/// machine's 32-byte L1 lines.
pub const NEXT_LINE_BASELINE_BLOCK: u64 = 32;

/// Prefetch-buffer capacity of [`NextLinePrefetcher::baseline`]: the
/// 16-entry staging buffer used by the demand-based comparison points.
pub const NEXT_LINE_BASELINE_CAPACITY: usize = 16;

impl NextLinePrefetcher {
    /// The baseline configuration the registry builds: 32-byte blocks
    /// (the machine's L1 line size) staged through a 16-entry buffer,
    /// matching [`DemandMarkovPrefetcher::baseline`]'s buffer.
    pub fn baseline() -> Self {
        NextLinePrefetcher::new(NEXT_LINE_BASELINE_BLOCK, NEXT_LINE_BASELINE_CAPACITY)
    }

    /// Creates a next-line prefetcher for `block`-byte lines with a
    /// `capacity`-entry prefetch buffer.
    pub fn new(block: u64, capacity: usize) -> Self {
        assert!(block.is_power_of_two(), "block size must be a power of two");
        NextLinePrefetcher {
            buffer: PrefetchBuffer::new(capacity),
            block,
            stats: PrefetchStats::default(),
        }
    }
}

impl Prefetcher for NextLinePrefetcher {
    fn lookup(&mut self, now: Cycle, addr: Addr) -> SbLookup {
        let block = addr.block(self.block);
        let found = self.buffer.lookup(now, block, &mut self.stats);
        if found != SbLookup::Miss {
            // Using a prefetched line chains the next one (the tag bit
            // flipping to zero in Smith's scheme).
            self.buffer.enqueue(block.offset(1));
        }
        found
    }

    fn train(&mut self, _now: Cycle, _pc: Addr, addr: Addr) {
        // Every demand miss requests the next sequential block.
        self.buffer.enqueue(addr.block(self.block).offset(1));
    }

    fn allocate(&mut self, _now: Cycle, _pc: Addr, _addr: Addr) {}

    fn tick(&mut self, now: Cycle, sink: &mut dyn PrefetchSink) {
        self.buffer.issue(now, sink, self.block, &mut self.stats);
    }

    fn quiescent(&self) -> bool {
        self.buffer.quiescent()
    }

    fn stats(&self) -> PrefetchStats {
        self.stats
    }

    fn name(&self) -> &str {
        "next-line"
    }
}

/// One Markov-table entry: up to `W` successor blocks with accuracy
/// counters.
#[derive(Clone, Debug)]
struct DmEntry {
    tag: u64,
    successors: Vec<(BlockAddr, SatCounter)>,
    valid: bool,
}

/// The demand-based Markov prefetcher of Joseph & Grunwald.
///
/// On a cache miss, the miss address indexes a first-order Markov table
/// whose entries record the addresses that followed it before; the
/// enabled successors are prefetched into a buffer, and the engine idles
/// until the next miss. Per-successor two-bit counters implement their
/// "accuracy based adaptivity": a prefetch discarded unused increments
/// its counter, a used one decrements it, and a set sign bit disables
/// the transition (it keeps being trained so it can re-enable).
#[derive(Clone, Debug)]
pub struct DemandMarkovPrefetcher {
    table: Vec<DmEntry>,
    buffer: PrefetchBuffer,
    /// Where each buffered block came from, to credit accuracy:
    /// (prefetched block, table index, successor slot).
    provenance: Vec<(BlockAddr, usize, usize)>,
    last_miss: Option<BlockAddr>,
    block: u64,
    ways: usize,
    stats: PrefetchStats,
}

impl DemandMarkovPrefetcher {
    /// A contemporary configuration: 1K-entry table, 2 successors per
    /// entry, 16-entry prefetch buffer, 32-byte blocks.
    pub fn baseline() -> Self {
        DemandMarkovPrefetcher::new(1024, 2, 16, 32)
    }

    /// Creates a prefetcher with `entries` table slots of `ways`
    /// successors, a `capacity`-entry buffer, over `block`-byte lines.
    pub fn new(entries: usize, ways: usize, capacity: usize, block: u64) -> Self {
        assert!(entries > 0 && ways > 0, "zero-sized Markov prefetcher");
        DemandMarkovPrefetcher {
            table: vec![DmEntry { tag: 0, successors: Vec::new(), valid: false }; entries],
            buffer: PrefetchBuffer::new(capacity),
            provenance: Vec::new(),
            last_miss: None,
            block,
            ways,
            stats: PrefetchStats::default(),
        }
    }

    fn index(&self, block: BlockAddr) -> (usize, u64) {
        let n = self.table.len() as u64;
        (((block.0 ^ (block.0 >> 11)) % n) as usize, block.0 / n)
    }

    fn credit(&mut self, block: BlockAddr, used: bool) {
        if let Some(pos) = self.provenance.iter().position(|(b, _, _)| *b == block) {
            let (_, idx, slot) = self.provenance.swap_remove(pos);
            if let Some((_, counter)) = self.table[idx].successors.get_mut(slot) {
                if used {
                    counter.dec();
                } else {
                    counter.inc();
                }
            }
        }
    }
}

impl Prefetcher for DemandMarkovPrefetcher {
    fn lookup(&mut self, now: Cycle, addr: Addr) -> SbLookup {
        let block = addr.block(self.block);
        let found = self.buffer.lookup(now, block, &mut self.stats);
        if found != SbLookup::Miss {
            self.credit(block, true);
        }
        found
    }

    fn train(&mut self, _now: Cycle, _pc: Addr, addr: Addr) {
        let block = addr.block(self.block);

        // Record the transition last_miss -> block.
        if let Some(prev) = self.last_miss {
            let (idx, tag) = self.index(prev);
            let e = &mut self.table[idx];
            if !e.valid || e.tag != tag {
                *e = DmEntry { tag, successors: Vec::new(), valid: true };
            }
            if let Some(pos) = e.successors.iter().position(|(b, _)| *b == block) {
                // Move to front (most recent successor first).
                let s = e.successors.remove(pos);
                e.successors.insert(0, s);
            } else {
                e.successors.insert(0, (block, SatCounter::new(3)));
                e.successors.truncate(self.ways);
            }
        }
        self.last_miss = Some(block);

        // Fan out prefetches for the enabled successors of this miss.
        let (idx, tag) = self.index(block);
        let e = &self.table[idx];
        if e.valid && e.tag == tag {
            // Sign bit clear = enabled.
            for (next, _) in e.successors.iter().filter(|(_, c)| !c.is_high()) {
                self.buffer.enqueue(*next);
            }
        }
    }

    fn allocate(&mut self, _now: Cycle, _pc: Addr, _addr: Addr) {}

    fn tick(&mut self, now: Cycle, sink: &mut dyn PrefetchSink) {
        let Some((block, evicted)) = self.buffer.issue(now, sink, self.block, &mut self.stats)
        else {
            return;
        };
        if let Some(evicted) = evicted {
            self.credit(evicted, false); // discarded without use
        }
        // Remember which transition produced this prefetch for crediting.
        let source = self.last_miss.and_then(|prev| {
            let (idx, tag) = self.index(prev);
            let e = &self.table[idx];
            (e.valid && e.tag == tag)
                .then(|| e.successors.iter().position(|(b, _)| *b == block).map(|s| (idx, s)))
                .flatten()
        });
        if let Some((idx, slot)) = source {
            self.provenance.push((block, idx, slot));
            if self.provenance.len() > 64 {
                self.provenance.remove(0);
            }
        }
    }

    fn quiescent(&self) -> bool {
        self.buffer.quiescent()
    }

    fn stats(&self) -> PrefetchStats {
        self.stats
    }

    fn name(&self) -> &str {
        "demand-markov"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetcher::TestSink;

    fn drain(p: &mut dyn Prefetcher, sink: &mut TestSink, from: u64, cycles: u64) {
        for c in from..from + cycles {
            p.tick(Cycle::new(c), sink);
        }
    }

    #[test]
    fn nlp_chains_sequential_blocks() {
        let mut nlp = NextLinePrefetcher::new(32, 16);
        let mut sink = TestSink::new(1);
        nlp.train(Cycle::ZERO, Addr::new(0), Addr::new(0x1000));
        drain(&mut nlp, &mut sink, 1, 4);
        assert_eq!(sink.fetched, vec![Addr::new(0x1020)]);
        // Using the prefetched block chains the next one.
        assert!(matches!(nlp.lookup(Cycle::new(10), Addr::new(0x1020)), SbLookup::Hit { .. }));
        drain(&mut nlp, &mut sink, 11, 4);
        assert_eq!(sink.fetched.last(), Some(&Addr::new(0x1040)));
        assert_eq!(nlp.stats().used, 1);
    }

    #[test]
    fn nlp_respects_bus_gating() {
        let mut nlp = NextLinePrefetcher::new(32, 16);
        let mut sink = TestSink::new(1);
        sink.bus_is_free = false;
        nlp.train(Cycle::ZERO, Addr::new(0), Addr::new(0x2000));
        drain(&mut nlp, &mut sink, 1, 8);
        assert!(sink.fetched.is_empty());
        sink.bus_is_free = true;
        drain(&mut nlp, &mut sink, 9, 2);
        assert_eq!(nlp.stats().issued, 1);
    }

    #[test]
    fn nlp_misses_nonsequential() {
        let mut nlp = NextLinePrefetcher::new(32, 16);
        let mut sink = TestSink::new(1);
        nlp.train(Cycle::ZERO, Addr::new(0), Addr::new(0x1000));
        drain(&mut nlp, &mut sink, 1, 4);
        assert_eq!(nlp.lookup(Cycle::new(9), Addr::new(0x9000)), SbLookup::Miss);
    }

    #[test]
    fn demand_markov_replays_transitions() {
        let mut dm = DemandMarkovPrefetcher::baseline();
        let mut sink = TestSink::new(1);
        let (a, b) = (Addr::new(0x10_0000), Addr::new(0x25_0040));
        // Teach A -> B.
        dm.train(Cycle::ZERO, Addr::new(0), a);
        dm.train(Cycle::ZERO, Addr::new(0), b);
        // Next miss on A prefetches B.
        dm.train(Cycle::new(10), Addr::new(0), a);
        drain(&mut dm, &mut sink, 11, 4);
        assert_eq!(sink.fetched, vec![b.block_base(32)]);
        assert!(matches!(dm.lookup(Cycle::new(20), b), SbLookup::Hit { .. }));
    }

    #[test]
    fn demand_markov_idles_between_misses() {
        let mut dm = DemandMarkovPrefetcher::baseline();
        let mut sink = TestSink::new(1);
        // Blocks 128, 384 and 768: distinct table indices (no aliasing).
        let (a, b, c) = (Addr::new(0x1000), Addr::new(0x3000), Addr::new(0x6000));
        for _ in 0..2 {
            for x in [a, b, c] {
                dm.train(Cycle::ZERO, Addr::new(0), x);
            }
        }
        // Flush any prefetches queued during training.
        drain(&mut dm, &mut sink, 1, 20);
        sink.fetched.clear();
        // Miss on A: B (A's successor) is available — but there is no
        // chaining to C without a further miss.
        dm.train(Cycle::new(50), Addr::new(0), a);
        drain(&mut dm, &mut sink, 51, 10);
        assert!(matches!(dm.lookup(Cycle::new(70), b), SbLookup::Hit { .. }));
        assert!(
            !sink.fetched.contains(&c.block_base(32)),
            "no chained prefetch of C: {:?}",
            sink.fetched
        );
    }

    #[test]
    fn demand_markov_tracks_multiple_successors() {
        let mut dm = DemandMarkovPrefetcher::baseline();
        let mut sink = TestSink::new(1);
        let a = Addr::new(0x1000);
        // A is followed by B sometimes and C other times (non-aliasing
        // table slots).
        for succ in [0x3000u64, 0x6000, 0x3000, 0x6000] {
            dm.train(Cycle::ZERO, Addr::new(0), a);
            dm.train(Cycle::ZERO, Addr::new(0), Addr::new(succ));
        }
        drain(&mut dm, &mut sink, 1, 20);
        dm.train(Cycle::new(90), Addr::new(0), a);
        drain(&mut dm, &mut sink, 91, 10);
        // Both recorded successors of A are now staged in the buffer.
        assert!(matches!(dm.lookup(Cycle::new(110), Addr::new(0x3000)), SbLookup::Hit { .. }));
        assert!(matches!(dm.lookup(Cycle::new(111), Addr::new(0x6000)), SbLookup::Hit { .. }));
    }

    #[test]
    fn demand_markov_adaptivity_disables_dead_transitions() {
        let mut dm = DemandMarkovPrefetcher::new(1024, 1, 2, 32);
        let mut sink = TestSink::new(1);
        let a = Addr::new(0x1000);
        let dead = Addr::new(0x5000);
        dm.train(Cycle::ZERO, Addr::new(0), a);
        dm.train(Cycle::ZERO, Addr::new(0), dead);
        // Repeatedly prefetch `dead` without using it; evictions from the
        // tiny buffer increment its counter until it is disabled.
        let mut now = 10;
        for i in 0..6u64 {
            dm.train(Cycle::new(now), Addr::new(0), a);
            drain(&mut dm, &mut sink, now + 1, 3);
            // Force eviction by filling the 2-entry buffer with other
            // misses' prefetches.
            dm.train(Cycle::new(now + 4), Addr::new(0), Addr::new(0x8000 + i * 0x40));
            dm.train(Cycle::new(now + 5), Addr::new(0), Addr::new(0x9000 + i * 0x40));
            drain(&mut dm, &mut sink, now + 6, 4);
            now += 20;
        }
        let before = sink.fetched.len();
        dm.train(Cycle::new(now), Addr::new(0), a);
        drain(&mut dm, &mut sink, now + 1, 3);
        let new: Vec<&Addr> = sink.fetched[before..].iter().collect();
        assert!(
            !new.contains(&&dead.block_base(32)),
            "disabled transition must stop prefetching: {new:?}"
        );
    }

    #[test]
    fn nlp_baseline_pins_block_and_capacity() {
        // The registry's next-line row must keep building the historical
        // configuration: 32-byte blocks, 16-entry buffer. (These used to
        // be magic numbers inlined at the `PrefetcherKind::build` call
        // site — the same bug class as PR 4's stray priority cap.)
        assert_eq!(NEXT_LINE_BASELINE_BLOCK, 32);
        assert_eq!(NEXT_LINE_BASELINE_CAPACITY, 16);
        let nlp = NextLinePrefetcher::baseline();
        assert_eq!(nlp.block, 32);
        assert_eq!(nlp.buffer.capacity, 16);
    }

    #[test]
    fn prefetch_buffer_queues_each_block_once() {
        let mut pb = PrefetchBuffer::new(2);
        assert!(pb.quiescent());
        assert!(pb.enqueue(BlockAddr(1)));
        assert!(!pb.enqueue(BlockAddr(1)), "already queued");
        assert!(pb.enqueue(BlockAddr(2)));
        assert!(!pb.quiescent());
        let mut sink = TestSink::new(5);
        let mut stats = PrefetchStats::default();
        sink.bus_is_free = false;
        assert_eq!(pb.issue(Cycle::new(1), &mut sink, 32, &mut stats), None, "bus busy");
        sink.bus_is_free = true;
        assert_eq!(pb.issue(Cycle::new(2), &mut sink, 32, &mut stats), Some((BlockAddr(1), None)));
        assert!(!pb.enqueue(BlockAddr(1)), "already staged");
        assert_eq!(pb.issue(Cycle::new(3), &mut sink, 32, &mut stats), Some((BlockAddr(2), None)));
        assert!(pb.quiescent());
        assert_eq!(pb.issue(Cycle::new(4), &mut sink, 32, &mut stats), None, "nothing queued");
        assert_eq!(sink.fetched, vec![Addr::new(32), Addr::new(64)]);
        assert_eq!(stats.issued, 2);
        // A third block evicts the least recently staged one, unused.
        pb.enqueue(BlockAddr(3));
        assert_eq!(
            pb.issue(Cycle::new(5), &mut sink, 32, &mut stats),
            Some((BlockAddr(3), Some(BlockAddr(1))))
        );
        // A hit returns the later of now and the fill, and counts a use.
        assert_eq!(
            pb.lookup(Cycle::new(6), BlockAddr(3), &mut stats),
            SbLookup::Hit { ready: Cycle::new(10) }
        );
        assert_eq!(
            pb.lookup(Cycle::new(20), BlockAddr(2), &mut stats),
            SbLookup::Hit { ready: Cycle::new(20) }
        );
        assert_eq!(pb.lookup(Cycle::new(21), BlockAddr(2), &mut stats), SbLookup::Miss);
        assert_eq!((stats.lookups, stats.hits, stats.used), (3, 2, 2));
    }

    #[test]
    fn nlp_and_demand_markov_are_quiescent_exactly_when_nothing_is_queued() {
        let engines: [Box<dyn Prefetcher>; 2] = [
            Box::new(NextLinePrefetcher::baseline()),
            Box::new(DemandMarkovPrefetcher::baseline()),
        ];
        for mut p in engines {
            assert!(p.quiescent(), "{}: a fresh engine has nothing to do", p.name());
            // A, B, A: next-line queues A+1 and B+1; Markov queues B, the
            // successor it recorded for A.
            for a in [0x1000u64, 0x3000, 0x1000] {
                p.train(Cycle::ZERO, Addr::new(0), Addr::new(a));
            }
            assert!(!p.quiescent(), "{}: queued prefetches demand ticks", p.name());
            let mut sink = TestSink::new(1);
            drain(p.as_mut(), &mut sink, 1, 8);
            assert!(p.quiescent(), "{}: a drained queue goes idle", p.name());
            let before = (p.stats(), sink.fetched.len());
            p.tick(Cycle::new(99), &mut sink);
            assert_eq!((p.stats(), sink.fetched.len()), before, "{}", p.name());
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_buffer_panics() {
        PrefetchBuffer::new(0);
    }

    #[test]
    fn a_one_entry_buffer_keeps_the_newest_prefetch() {
        let mut pb = PrefetchBuffer::new(1);
        assert_eq!(pb.insert(BlockAddr(1), Cycle::ZERO), None);
        assert_eq!(pb.insert(BlockAddr(2), Cycle::ZERO), Some(BlockAddr(1)));
        assert!(pb.contains(BlockAddr(2)));
    }

    #[test]
    fn demand_markov_baseline_pins_its_geometry() {
        let dm = DemandMarkovPrefetcher::baseline();
        assert_eq!((dm.table.len(), dm.ways, dm.buffer.capacity(), dm.block), (1024, 2, 16, 32));
    }

    #[test]
    #[should_panic(expected = "zero-sized Markov prefetcher")]
    fn demand_markov_rejects_an_empty_table() {
        DemandMarkovPrefetcher::new(0, 2, 16, 32);
    }

    #[test]
    #[should_panic(expected = "zero-sized Markov prefetcher")]
    fn demand_markov_rejects_zero_ways() {
        DemandMarkovPrefetcher::new(1024, 0, 16, 32);
    }

    #[test]
    fn demand_markov_one_entry_table_holds_one_transition() {
        // With one slot, every transition is recorded over the last; a
        // block missed twice in a row predicts itself.
        let mut dm = DemandMarkovPrefetcher::new(1, 1, 4, 32);
        let mut sink = TestSink::new(1);
        let a = Addr::new(0x1000);
        dm.train(Cycle::ZERO, Addr::new(0), a);
        dm.train(Cycle::ZERO, Addr::new(0), a);
        drain(&mut dm, &mut sink, 1, 2);
        assert_eq!(sink.fetched, vec![a]);
    }

    #[test]
    fn demand_markov_aliased_entries_replace_each_other() {
        // Blocks 0 and 2049 share table slot 0 ((b ^ b >> 11) % 1024)
        // under different tags; X and Y sit in slots of their own.
        let block = |b: u64| Addr::new(b * 32);
        let (a, b, x, y) = (block(0), block(2049), block(300), block(600));
        let mut dm = DemandMarkovPrefetcher::baseline();
        let mut sink = TestSink::new(1);
        // Teach A -> X, then B -> Y, which takes the shared slot.
        for m in [a, x, b, y] {
            dm.train(Cycle::ZERO, Addr::new(0), m);
        }
        // A miss on B queues Y. The miss on A that follows records B -> A
        // under B's tag and finds no entry of its own, so X is never
        // prefetched, and Y, queued by B, carries no provenance of A's.
        dm.train(Cycle::new(10), Addr::new(0), b);
        dm.train(Cycle::new(10), Addr::new(0), a);
        drain(&mut dm, &mut sink, 11, 4);
        assert_eq!(sink.fetched, vec![y]);
        assert!(dm.provenance.is_empty(), "{:?}", dm.provenance);
    }

    #[test]
    fn demand_markov_moves_a_repeated_successor_to_the_front() {
        // Two ways: A is followed by B, C, B again, then D. Move-to-front
        // keeps [D, B]; C, the least recent, is dropped.
        let mut dm = DemandMarkovPrefetcher::baseline();
        let a = Addr::new(0x1000);
        let (b, c, d) = (Addr::new(0x3000), Addr::new(0x6000), Addr::new(0x9000));
        for succ in [b, c, b, d] {
            dm.train(Cycle::ZERO, Addr::new(0), a);
            dm.train(Cycle::ZERO, Addr::new(0), succ);
        }
        let (idx, _) = dm.index(a.block(32));
        let kept: Vec<BlockAddr> = dm.table[idx].successors.iter().map(|(s, _)| *s).collect();
        assert_eq!(kept, vec![d.block(32), b.block(32)]);
    }

    #[test]
    fn demand_markov_credits_a_used_prefetch() {
        let mut dm = DemandMarkovPrefetcher::baseline();
        let mut sink = TestSink::new(1);
        let (a, b) = (Addr::new(0x1000), Addr::new(0x3000));
        for m in [a, b, a] {
            dm.train(Cycle::ZERO, Addr::new(0), m);
        }
        drain(&mut dm, &mut sink, 1, 4);
        assert_eq!(dm.provenance.len(), 1, "the prefetch of B remembers A -> B");
        assert!(matches!(dm.lookup(Cycle::new(9), b), SbLookup::Hit { .. }));
        assert!(dm.provenance.is_empty(), "using B credits and forgets it");
        assert_eq!(dm.lookup(Cycle::new(10), Addr::new(0x7000)), SbLookup::Miss);
    }

    #[test]
    fn demand_markov_counters_disable_at_two_and_saturate_at_three() {
        let mut dm = DemandMarkovPrefetcher::baseline();
        let (a, x) = (Addr::new(0x1000), Addr::new(0x3000));
        dm.train(Cycle::ZERO, Addr::new(0), a);
        dm.train(Cycle::ZERO, Addr::new(0), x);
        let (idx, _) = dm.index(a.block(32));
        let discard_or_use = |dm: &mut DemandMarkovPrefetcher, used: bool| {
            dm.provenance.push((x.block(32), idx, 0));
            dm.credit(x.block(32), used);
            dm.table[idx].successors[0].1
        };
        assert!(!discard_or_use(&mut dm, false).is_high(), "one discard keeps A -> X");
        assert!(discard_or_use(&mut dm, false).is_high(), "two discards disable it");
        assert_eq!(discard_or_use(&mut dm, false).get(), 3, "the counter saturates at 3");
        assert!(discard_or_use(&mut dm, true).is_high(), "from 3, one use is not enough");
        assert!(!discard_or_use(&mut dm, true).is_high(), "a second use re-enables it");
    }

    #[test]
    fn demand_markov_provenance_keeps_the_newest_64() {
        // Blocks below 1024 index their own slots with tag 0: A_i = i is
        // followed by B_i = 512 + i, and the 128-entry buffer evicts none
        // of the 70 prefetches of B_i.
        let mut dm = DemandMarkovPrefetcher::new(1024, 2, 128, 32);
        let mut sink = TestSink::new(1);
        for i in 0..70u64 {
            let (a, b) = (Addr::new(i * 32), Addr::new((512 + i) * 32));
            for m in [a, b, a] {
                dm.train(Cycle::new(i), Addr::new(0), m);
            }
            dm.tick(Cycle::new(i), &mut sink);
        }
        assert_eq!(dm.stats().issued, 70);
        assert_eq!(dm.provenance.len(), 64);
        assert_eq!(dm.provenance[0].0, BlockAddr(512 + 6), "the oldest six were dropped");
    }

    #[test]
    fn prefetch_buffer_lru_eviction() {
        let mut pb = PrefetchBuffer::new(2);
        assert_eq!(pb.insert(BlockAddr(1), Cycle::ZERO), None);
        assert_eq!(pb.insert(BlockAddr(2), Cycle::ZERO), None);
        // Re-inserting 1 refreshes it; 2 becomes LRU.
        assert_eq!(pb.insert(BlockAddr(1), Cycle::ZERO), None);
        assert_eq!(pb.insert(BlockAddr(3), Cycle::ZERO), Some(BlockAddr(2)));
        assert!(pb.contains(BlockAddr(1)));
        assert!(pb.take(BlockAddr(3)).is_some());
        assert!(!pb.contains(BlockAddr(3)));
    }
}
