//! Fetch-stream data prefetching (Section 3.1 of the paper).
//!
//! Chen & Baer's lookahead-PC family triggers a data prefetch when a load
//! enters the *fetch* stage, using a PC-indexed address predictor trained
//! at write-back: "The LA-PC ... is used to index into an address
//! prediction table to predict data addresses for cache prefetching.
//! Since the LA-PC provided the instruction address stream ahead of the
//! normal fetch engine, they were able to initiate data cache prefetches
//! farther in advance."
//!
//! Our model observes the real fetch stream (the correct-path trace),
//! which is what a lookahead PC converges to between mispredictions; the
//! prefetch lead equals the front-end-to-issue distance. The amount of
//! latency hidden "is dependent upon how far the look-ahead PC can get in
//! front of the execution stream" — which is exactly why the paper builds
//! on stream buffers instead: a fetch-stream prefetcher can never get
//! farther ahead than the fetch unit itself.

use crate::demand::PrefetchBuffer;
use crate::predictor::StrideTable;
use crate::prefetcher::{PrefetchSink, PrefetchStats, Prefetcher, SbLookup};
use psb_common::{Addr, Cycle};

/// A fetch-directed stride prefetcher: loads are looked up in a two-delta
/// stride table the moment they are fetched, and the predicted address is
/// prefetched into a small buffer.
///
/// # Example
///
/// ```
/// use psb_common::{Addr, Cycle};
/// use psb_core::{FetchDirectedPrefetcher, Prefetcher, SbLookup, TestSink};
///
/// let mut fd = FetchDirectedPrefetcher::baseline();
/// let pc = Addr::new(0x400);
/// // Train at "write-back" with a steady stride...
/// for i in 0..4u64 {
///     fd.train(Cycle::ZERO, pc, Addr::new(0x1000 + 64 * i));
/// }
/// // ...then the next fetch of that load prefetches last + stride:
/// fd.observe_fetch(Cycle::new(10), pc);
/// let mut sink = TestSink::new(1);
/// fd.tick(Cycle::new(11), &mut sink);
/// assert!(matches!(fd.lookup(Cycle::new(20), Addr::new(0x1100)), SbLookup::Hit { .. }));
/// ```
#[derive(Clone, Debug)]
pub struct FetchDirectedPrefetcher {
    table: StrideTable,
    buffer: PrefetchBuffer,
    block: u64,
    stats: PrefetchStats,
}

impl FetchDirectedPrefetcher {
    /// The default configuration: the paper's 256-entry 4-way stride
    /// table and a 16-entry prefetch buffer over 32-byte blocks.
    pub fn baseline() -> Self {
        FetchDirectedPrefetcher::new(StrideTable::paper_baseline(), 16, 32)
    }

    /// Creates a prefetcher with the given table, buffer capacity and
    /// block size.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `block` is not a power of two.
    pub fn new(table: StrideTable, capacity: usize, block: u64) -> Self {
        assert!(block.is_power_of_two(), "block size must be a power of two");
        FetchDirectedPrefetcher {
            table,
            buffer: PrefetchBuffer::new(capacity),
            block,
            stats: PrefetchStats::default(),
        }
    }
}

impl Prefetcher for FetchDirectedPrefetcher {
    fn lookup(&mut self, now: Cycle, addr: Addr) -> SbLookup {
        self.buffer.lookup(now, addr.block(self.block), &mut self.stats)
    }

    fn train(&mut self, _now: Cycle, pc: Addr, addr: Addr) {
        let out = self.table.train(pc, addr);
        if !out.cold {
            self.table.confirm(pc, out.stride_correct);
        }
    }

    fn allocate(&mut self, _now: Cycle, _pc: Addr, _addr: Addr) {}

    fn observe_fetch(&mut self, _now: Cycle, pc: Addr) {
        // Predict the load's next address from its table entry and queue
        // a prefetch — the LA-PC trigger.
        let Some(info) = self.table.info(pc, Addr::new(0)) else {
            return;
        };
        if info.confidence == 0 || info.stride == 0 {
            return;
        }
        let predicted = info.last_addr.offset(info.stride).block(self.block);
        if self.buffer.enqueue(predicted) {
            self.stats.predictions += 1;
        }
    }

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
        "fetch-directed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetcher::TestSink;

    fn trained() -> FetchDirectedPrefetcher {
        let mut fd = FetchDirectedPrefetcher::baseline();
        for i in 0..5u64 {
            fd.train(Cycle::ZERO, Addr::new(0x400), Addr::new(0x1_0000 + 64 * i));
        }
        fd
    }

    #[test]
    fn fetch_sighting_triggers_prediction() {
        let mut fd = trained();
        let mut sink = TestSink::new(1);
        fd.observe_fetch(Cycle::new(10), Addr::new(0x400));
        fd.tick(Cycle::new(11), &mut sink);
        // last = 0x1_0100, stride 64 -> prefetch 0x1_0140.
        assert_eq!(sink.fetched, vec![Addr::new(0x1_0140)]);
        assert!(matches!(fd.lookup(Cycle::new(20), Addr::new(0x1_0140)), SbLookup::Hit { .. }));
    }

    #[test]
    fn unknown_or_unconfident_loads_stay_quiet() {
        let mut fd = FetchDirectedPrefetcher::baseline();
        let mut sink = TestSink::new(1);
        fd.observe_fetch(Cycle::ZERO, Addr::new(0x999)); // never trained
                                                         // Trained but erratic: confidence 0.
        let mut x = 7u64;
        for _ in 0..6 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            fd.train(Cycle::ZERO, Addr::new(0x500), Addr::new((x >> 20) & 0xffff_ffe0));
        }
        fd.observe_fetch(Cycle::ZERO, Addr::new(0x500));
        for c in 0..4 {
            fd.tick(Cycle::new(c), &mut sink);
        }
        assert!(sink.fetched.is_empty());
        assert_eq!(fd.stats().issued, 0);
    }

    #[test]
    fn duplicate_sightings_prefetch_once() {
        let mut fd = trained();
        let mut sink = TestSink::new(1);
        fd.observe_fetch(Cycle::new(10), Addr::new(0x400));
        fd.observe_fetch(Cycle::new(10), Addr::new(0x400));
        for c in 11..16 {
            fd.tick(Cycle::new(c), &mut sink);
        }
        assert_eq!(fd.stats().issued, 1);
    }

    #[test]
    fn buffer_hit_consumes_entry() {
        let mut fd = trained();
        let mut sink = TestSink::new(1);
        fd.observe_fetch(Cycle::new(10), Addr::new(0x400));
        fd.tick(Cycle::new(11), &mut sink);
        assert!(matches!(fd.lookup(Cycle::new(20), Addr::new(0x1_0140)), SbLookup::Hit { .. }));
        assert!(matches!(fd.lookup(Cycle::new(21), Addr::new(0x1_0140)), SbLookup::Miss));
    }

    #[test]
    fn quiescent_exactly_when_nothing_is_queued() {
        let mut fd = trained();
        assert!(fd.quiescent(), "training alone queues nothing");
        fd.observe_fetch(Cycle::new(10), Addr::new(0x400));
        assert!(!fd.quiescent(), "a fetch sighting queues a prefetch");
        let mut sink = TestSink::new(1);
        fd.tick(Cycle::new(11), &mut sink);
        assert!(fd.quiescent(), "the issued prefetch empties the queue");
    }

    #[test]
    fn full_buffer_evicts_the_oldest_prefetch() {
        // A 2-entry buffer: the third prefetch replaces the first.
        let mut fd = FetchDirectedPrefetcher::new(StrideTable::paper_baseline(), 2, 32);
        let mut sink = TestSink::new(1);
        for (k, pc) in [0x400u64, 0x500, 0x600].into_iter().enumerate() {
            for i in 0..5u64 {
                fd.train(Cycle::ZERO, Addr::new(pc), Addr::new((k as u64 + 1) * 0x1_0000 + 64 * i));
            }
            fd.observe_fetch(Cycle::new(10), Addr::new(pc));
            fd.tick(Cycle::new(11 + k as u64), &mut sink);
        }
        assert_eq!(fd.stats().issued, 3);
        assert_eq!(fd.lookup(Cycle::new(20), Addr::new(0x1_0140)), SbLookup::Miss);
        assert!(matches!(fd.lookup(Cycle::new(20), Addr::new(0x2_0140)), SbLookup::Hit { .. }));
        assert!(matches!(fd.lookup(Cycle::new(20), Addr::new(0x3_0140)), SbLookup::Hit { .. }));
    }

    #[test]
    fn bus_gating_respected() {
        let mut fd = trained();
        let mut sink = TestSink::new(1);
        sink.bus_is_free = false;
        fd.observe_fetch(Cycle::new(10), Addr::new(0x400));
        for c in 11..20 {
            fd.tick(Cycle::new(c), &mut sink);
        }
        assert_eq!(fd.stats().issued, 0);
        sink.bus_is_free = true;
        fd.tick(Cycle::new(20), &mut sink);
        assert_eq!(fd.stats().issued, 1);
    }
}
