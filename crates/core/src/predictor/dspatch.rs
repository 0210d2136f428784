//! DSPatch: the dual spatial-pattern prefetcher (Bera, Nori, Mutlu &
//! Subramoney, MICRO 2019, arXiv:1910.03075).
//!
//! DSPatch learns, per program-counter, *which blocks of a memory region
//! are touched together* — a bit pattern anchored at the region's first
//! ("trigger") access — and keeps **two** patterns per PC instead of
//! one:
//!
//! * **CovP** (coverage-biased): the bitwise **OR** of every observed
//!   pattern. It over-approximates, trading accuracy for coverage —
//!   the right bias when memory bandwidth is to spare.
//! * **AccP** (accuracy-biased): the bitwise **AND** of every observed
//!   pattern. It under-approximates, prefetching only blocks that were
//!   touched *every* time — the right bias under bandwidth pressure.
//!
//! Each pattern carries a 2-bit quality counter measuring how well its
//! predictions matched the pattern actually observed when the region
//! retired; a pattern whose quality collapses is rebuilt from the most
//! recent observation. The paper modulates the CovP/AccP choice with
//! DRAM bandwidth utilization; this single-core model has no bandwidth
//! signal, so selection is by the quality counters alone (prefer the
//! coverage pattern while it stays accurate enough) — noted in
//! DESIGN.md §17.
//!
//! Two structures implement it: a small **page buffer** accumulating the
//! access pattern of each live region (with the trigger PC and offset),
//! and a PC-indexed **signature pattern table** holding the CovP/AccP
//! pair. Patterns are stored rotated so the trigger offset is bit 0,
//! which lets one program pattern predict regions entered at any offset.
//! Prefetched blocks stage in the shared demand-side LRU buffer.
//!
//! # Example
//!
//! ```
//! use psb_common::{Addr, Cycle};
//! use psb_core::{DspatchPrefetcher, Prefetcher, SbLookup, TestSink};
//!
//! // A single-entry page buffer retires each region at the next trigger.
//! let mut ds = DspatchPrefetcher::new(32, 1, 256, 8, 32);
//! let mut sink = TestSink::new(1);
//! let pc = Addr::new(0x400);
//! // One PC touches blocks {0, 2, 5} of two different regions...
//! for region in [0x10_0000u64, 0x20_0000] {
//!     for off in [0u64, 2, 5] {
//!         ds.train(Cycle::ZERO, pc, Addr::new(region + off * 32));
//!     }
//! }
//! // ...so triggering a third region replays the learned footprint:
//! ds.train(Cycle::ZERO, pc, Addr::new(0x30_0000));
//! for c in 1..8 {
//!     ds.tick(Cycle::new(c), &mut sink);
//! }
//! assert!(matches!(ds.lookup(Cycle::new(9), Addr::new(0x30_0000 + 2 * 32)), SbLookup::Hit { .. }));
//! ```

use crate::demand::PrefetchBuffer;
use crate::prefetcher::{PrefetchSink, PrefetchStats, Prefetcher, SbLookup};
use crate::registry::EngineDescriptor;
use psb_common::{Addr, BlockAddr, Cycle, SatCounter};

/// The registry row for the baseline DSPatch configuration.
pub(crate) const DESCRIPTOR: EngineDescriptor = EngineDescriptor {
    name: "dspatch",
    label: "DSPatch",
    paper: false,
    build: || Box::new(DspatchPrefetcher::baseline()),
};

/// Blocks per region: patterns are `u64` bit maps, one bit per block.
const REGION_BLOCKS: u64 = 64;

/// One live region in the page buffer.
#[derive(Copy, Clone, Debug)]
struct PageBufferEntry {
    /// Region number (block address / [`REGION_BLOCKS`]).
    region: u64,
    /// Accessed-block bit pattern, bit `i` = block `i` of the region.
    pattern: u64,
    /// PC of the region's trigger (first) access.
    trigger_pc: Addr,
    /// Block offset of the trigger access within the region.
    trigger_offset: u32,
    lru: u64,
    valid: bool,
}

/// One signature-pattern-table entry: the dual patterns for a PC.
///
/// Both patterns are *anchored*: rotated right by the trigger offset, so
/// bit 0 is the trigger block and bit `i` is the block `i` after it
/// (wrapping within the region).
#[derive(Clone, Debug)]
struct SptEntry {
    tag: u64,
    /// Coverage-biased pattern (OR of observations).
    covp: u64,
    /// Accuracy-biased pattern (AND of observations).
    accp: u64,
    /// Quality of CovP's last predictions (2-bit saturating).
    covp_quality: SatCounter,
    /// Quality of AccP's last predictions (2-bit saturating).
    accp_quality: SatCounter,
    valid: bool,
}

/// The dual spatial-pattern prefetcher.
#[derive(Clone, Debug)]
pub struct DspatchPrefetcher {
    page_buffer: Vec<PageBufferEntry>,
    spt: Vec<SptEntry>,
    buffer: PrefetchBuffer,
    block: u64,
    degree: usize,
    stamp: u64,
    stats: PrefetchStats,
}

impl DspatchPrefetcher {
    /// The baseline configuration: 32-byte blocks (64-block = 2 KB
    /// regions), 32 live regions, a 256-entry pattern table, prefetch
    /// degree 8, 32-entry staging buffer.
    pub fn baseline() -> Self {
        DspatchPrefetcher::new(32, 32, 256, 8, 32)
    }

    /// Creates a DSPatch prefetcher over `block`-byte lines with
    /// `page_entries` live regions, `spt_entries` pattern-table slots, at
    /// most `degree` prefetches per trigger, and a `buffer`-entry staging
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics when `block` is not a power of two or any capacity is zero.
    pub fn new(
        block: u64,
        page_entries: usize,
        spt_entries: usize,
        degree: usize,
        buffer: usize,
    ) -> Self {
        assert!(block.is_power_of_two(), "block size must be a power of two");
        assert!(page_entries > 0 && spt_entries > 0 && degree > 0, "zero-sized DSPatch structure");
        DspatchPrefetcher {
            page_buffer: vec![
                PageBufferEntry {
                    region: 0,
                    pattern: 0,
                    trigger_pc: Addr::new(0),
                    trigger_offset: 0,
                    lru: 0,
                    valid: false
                };
                page_entries
            ],
            spt: vec![
                SptEntry {
                    tag: 0,
                    covp: 0,
                    accp: 0,
                    covp_quality: SatCounter::with_value(3, 2),
                    accp_quality: SatCounter::with_value(3, 2),
                    valid: false
                };
                spt_entries
            ],
            buffer: PrefetchBuffer::new(buffer),
            block,
            degree,
            stamp: 0,
            stats: PrefetchStats::default(),
        }
    }

    /// Pattern-table index and tag for a PC (XOR-folded, as markov.rs).
    fn spt_index(&self, pc: Addr) -> (usize, u64) {
        let h = pc.raw() ^ (pc.raw() >> 11) ^ (pc.raw() >> 22);
        let n = self.spt.len() as u64;
        ((h % n) as usize, h / n)
    }

    /// Retires a closed region: folds its observed pattern into the
    /// trigger PC's dual patterns and scores the previous predictions.
    fn close_region(&mut self, e: PageBufferEntry) {
        // Anchor at the trigger: rotate so the trigger block is bit 0.
        let observed = e.pattern.rotate_right(e.trigger_offset);
        let (idx, tag) = self.spt_index(e.trigger_pc);
        let s = &mut self.spt[idx];
        if !s.valid || s.tag != tag {
            *s = SptEntry {
                tag,
                covp: observed,
                accp: observed,
                // A brand-new pattern starts weakly confident, the
                // bimodal convention.
                covp_quality: SatCounter::with_value(3, 2),
                accp_quality: SatCounter::with_value(3, 2),
                valid: true,
            };
            return;
        }
        // Score each pattern against what the region actually touched:
        // good when at least half of its predicted blocks were used.
        for (pattern, quality) in [(s.covp, &mut s.covp_quality), (s.accp, &mut s.accp_quality)] {
            let predicted = (pattern & !1).count_ones();
            let used = (pattern & !1 & observed).count_ones();
            if predicted == 0 || used * 2 >= predicted {
                quality.inc();
            } else {
                quality.dec();
            }
        }
        // A collapsed pattern is rebuilt from the latest observation
        // instead of dragging stale bits along (the paper's pattern
        // reset), with its confidence restored to weakly-high;
        // otherwise apply the dual bias updates.
        if s.covp_quality.get() == 0 {
            s.covp = observed;
            s.covp_quality.set(2);
        } else {
            s.covp |= observed;
        }
        if s.accp_quality.get() == 0 {
            s.accp = observed;
            s.accp_quality.set(2);
        } else {
            s.accp &= observed;
        }
    }

    /// Queues the learned footprint for a freshly triggered region.
    fn predict(&mut self, pc: Addr, region: u64, trigger_offset: u32) {
        let (idx, tag) = self.spt_index(pc);
        let s = &self.spt[idx];
        if !s.valid || s.tag != tag {
            return;
        }
        // Dual-pattern selection: coverage while it stays accurate
        // enough, accuracy once CovP's quality drops (the paper would
        // also consult DRAM bandwidth headroom here).
        let pattern = if s.covp_quality.is_high() || s.covp_quality.get() >= s.accp_quality.get() {
            s.covp
        } else {
            s.accp
        };
        let region_base = BlockAddr(region * REGION_BLOCKS);
        let mut queued = 0;
        // Bit i of the anchored pattern = the block i after the trigger
        // (wrapping within the region); walk outward from the trigger.
        for i in 1..REGION_BLOCKS as u32 {
            if queued >= self.degree {
                break;
            }
            if pattern & (1u64 << i) == 0 {
                continue;
            }
            let offset = (trigger_offset + i) % REGION_BLOCKS as u32;
            let target = region_base.offset(offset as i64);
            self.stats.predictions += 1;
            if self.buffer.enqueue(target) {
                queued += 1;
            } else {
                self.stats.suppressed += 1;
            }
        }
    }
}

impl Prefetcher for DspatchPrefetcher {
    fn lookup(&mut self, now: Cycle, addr: Addr) -> SbLookup {
        self.buffer.lookup(now, addr.block(self.block), &mut self.stats)
    }

    fn train(&mut self, _now: Cycle, pc: Addr, addr: Addr) {
        let block = addr.block(self.block);
        let region = block.0 / REGION_BLOCKS;
        let offset = (block.0 % REGION_BLOCKS) as u32;
        self.stamp += 1;
        if let Some(e) = self.page_buffer.iter_mut().find(|e| e.valid && e.region == region) {
            e.pattern |= 1u64 << offset;
            e.lru = self.stamp;
            return;
        }
        // Region trigger: retire the LRU region, predict, then track.
        let victim = self
            .page_buffer
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.valid, e.lru))
            .map(|(i, _)| i)
            .expect("invariant: page_entries > 0 keeps the page buffer non-empty");
        let evicted = self.page_buffer[victim];
        if evicted.valid {
            self.close_region(evicted);
        }
        self.predict(pc, region, offset);
        self.page_buffer[victim] = PageBufferEntry {
            region,
            pattern: 1u64 << offset,
            trigger_pc: pc,
            trigger_offset: offset,
            lru: self.stamp,
            valid: true,
        };
    }

    fn allocate(&mut self, _now: Cycle, _pc: Addr, _addr: Addr) {}

    fn tick(&mut self, now: Cycle, sink: &mut dyn PrefetchSink) {
        self.buffer.issue(now, sink, self.block, &mut self.stats);
    }

    fn quiescent(&self) -> bool {
        // An empty queue makes `tick` an observable no-op; only the
        // miss path (`lookup`/`train`), which clears the simulator's
        // idle shortcut first, can refill it.
        self.buffer.quiescent()
    }

    fn stats(&self) -> PrefetchStats {
        self.stats
    }

    fn name(&self) -> &str {
        "dspatch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetcher::TestSink;

    fn drain(ds: &mut DspatchPrefetcher, sink: &mut TestSink, from: u64, cycles: u64) {
        for c in from..from + cycles {
            ds.tick(Cycle::new(c), sink);
        }
    }

    /// Touch blocks `offs` of the region at `base` (region-aligned).
    fn touch(ds: &mut DspatchPrefetcher, pc: Addr, base: u64, offs: &[u64]) {
        for &o in offs {
            ds.train(Cycle::ZERO, pc, Addr::new(base + o * 32));
        }
    }

    #[test]
    fn learned_footprint_replays_on_new_region() {
        let mut ds = DspatchPrefetcher::baseline();
        let mut sink = TestSink::new(1);
        let pc = Addr::new(0x400);
        touch(&mut ds, pc, 0x10_0000, &[0, 2, 5]);
        touch(&mut ds, pc, 0x20_0000, &[0, 2, 5]);
        // Patterns fold into the SPT only when a region retires from the
        // 32-entry page buffer, so drive enough further regions to evict
        // the two above.
        for r in 0..33u64 {
            touch(&mut ds, pc, 0x100_0000 + r * 2048, &[0, 2, 5]);
        }
        ds.buffer.pending().clear();
        // Now the SPT knows {+2, +5}; a fresh trigger replays it.
        ds.train(Cycle::ZERO, pc, Addr::new(0x30_0000));
        drain(&mut ds, &mut sink, 1, 8);
        assert!(sink.fetched.contains(&Addr::new(0x30_0000 + 2 * 32)), "{:?}", sink.fetched);
        assert!(sink.fetched.contains(&Addr::new(0x30_0000 + 5 * 32)), "{:?}", sink.fetched);
        assert!(matches!(
            ds.lookup(Cycle::new(20), Addr::new(0x30_0000 + 2 * 32)),
            SbLookup::Hit { .. }
        ));
    }

    #[test]
    fn anchoring_translates_patterns_to_any_trigger_offset() {
        let mut ds = DspatchPrefetcher::new(32, 1, 256, 8, 32);
        let mut sink = TestSink::new(1);
        let pc = Addr::new(0x8000);
        // Single-entry page buffer: every new region retires the last.
        // Learn the footprint {trigger, trigger+3} from offset-0 regions.
        touch(&mut ds, pc, 0x10_0000, &[0, 3]);
        touch(&mut ds, pc, 0x20_0000, &[0, 3]);
        touch(&mut ds, pc, 0x30_0000, &[0, 3]);
        ds.buffer.pending().clear();
        // Enter a region at offset 10: the anchored pattern predicts
        // offset 13 — translation, not absolute bit replay.
        ds.train(Cycle::ZERO, pc, Addr::new(0x40_0000 + 10 * 32));
        drain(&mut ds, &mut sink, 1, 4);
        assert!(sink.fetched.contains(&Addr::new(0x40_0000 + 13 * 32)), "{:?}", sink.fetched);
    }

    #[test]
    fn covp_unions_and_accp_intersects() {
        let mut ds = DspatchPrefetcher::new(32, 1, 256, 8, 32);
        let pc = Addr::new(0x100);
        // Region A touches {0,1,2}; region B {0,2,4}; C retires B.
        touch(&mut ds, pc, 0x10_0000, &[0, 1, 2]);
        touch(&mut ds, pc, 0x20_0000, &[0, 2, 4]);
        touch(&mut ds, pc, 0x30_0000, &[0]);
        let (idx, _) = ds.spt_index(pc);
        let s = &ds.spt[idx];
        assert_eq!(s.covp, 0b10111, "CovP is the union of observations");
        assert_eq!(s.accp, 0b00101, "AccP is the intersection");
    }

    #[test]
    fn collapsed_covp_is_rebuilt_from_latest_observation() {
        let mut ds = DspatchPrefetcher::new(32, 1, 256, 8, 32);
        let pc = Addr::new(0x200);
        // First region sets a wide pattern; later regions touch only the
        // trigger, so CovP keeps predicting dead blocks and its quality
        // drains to zero — then the pattern resets to the observation.
        touch(&mut ds, pc, 0x10_0000, &[0, 1, 2, 3, 4, 5, 6, 7]);
        for r in 1..8u64 {
            touch(&mut ds, pc, 0x10_0000 + r * 2048, &[0]);
        }
        let (idx, _) = ds.spt_index(pc);
        let s = &ds.spt[idx];
        assert_eq!(s.covp, 1, "collapsed CovP rebuilt from the latest observation");
    }

    #[test]
    fn pattern_conflict_on_spt_tag_mismatch_resets_entry() {
        let mut ds = DspatchPrefetcher::new(32, 1, 4, 8, 32);
        // Two PCs that alias the same 4-entry SPT slot with different
        // tags: the second evicts the first's patterns.
        let (idx_a, _) = ds.spt_index(Addr::new(0x0));
        let pc_b = (1..)
            .map(|i| Addr::new(i * 4 * 0x1000))
            .find(|pc| {
                ds.spt_index(*pc).0 == idx_a && ds.spt_index(*pc).1 != ds.spt_index(Addr::new(0)).1
            })
            .unwrap();
        // Establish a *valid* entry for PC A first (several closes), so
        // the reset below exercises the tag-mismatch arm, not the
        // invalid-entry arm.
        touch(&mut ds, Addr::new(0), 0x10_0000, &[0, 1]);
        touch(&mut ds, Addr::new(0), 0x20_0000, &[0, 1]); // retires A's first region
        touch(&mut ds, Addr::new(0), 0x30_0000, &[0, 1]); // retires A's second
        assert!(ds.spt[idx_a].valid);
        touch(&mut ds, pc_b, 0x40_0000, &[0, 5]); // retires A's third
        touch(&mut ds, pc_b, 0x50_0000, &[0]); // retires B's region under B's tag
        let s = &ds.spt[idx_a];
        assert_eq!(s.covp, 0b100001, "aliasing PC replaced the entry, not merged into it");
        assert_eq!(s.accp, 0b100001);
        // A full reset also restores the weakly-confident 2-of-3 quality.
        assert_eq!((s.covp_quality.get(), s.covp_quality.max()), (2, 3));
        assert_eq!((s.accp_quality.get(), s.accp_quality.max()), (2, 3));
    }

    #[test]
    fn degree_caps_prefetches_per_trigger() {
        let mut ds = DspatchPrefetcher::new(32, 1, 256, 4, 32);
        let mut sink = TestSink::new(1);
        let pc = Addr::new(0x300);
        let all: Vec<u64> = (0..32).collect();
        touch(&mut ds, pc, 0x10_0000, &all);
        touch(&mut ds, pc, 0x20_0000, &all);
        touch(&mut ds, pc, 0x30_0000, &all);
        ds.buffer.pending().clear();
        ds.train(Cycle::ZERO, pc, Addr::new(0x50_0000));
        assert_eq!(ds.buffer.pending().len(), 4, "degree bounds the burst");
        drain(&mut ds, &mut sink, 1, 16);
        // Nearest blocks after the trigger come first.
        assert_eq!(sink.fetched, (1..5).map(|i| Addr::new(0x50_0000 + i * 32)).collect::<Vec<_>>());
    }

    #[test]
    fn quiescent_exactly_when_queue_is_empty() {
        let mut ds = DspatchPrefetcher::new(32, 1, 256, 8, 32);
        assert!(ds.quiescent(), "fresh engine has nothing to do");
        let pc = Addr::new(0x700);
        touch(&mut ds, pc, 0x10_0000, &[0, 1]);
        touch(&mut ds, pc, 0x20_0000, &[0, 1]);
        touch(&mut ds, pc, 0x30_0000, &[0]);
        assert!(!ds.quiescent(), "queued predictions demand ticks");
        let mut sink = TestSink::new(1);
        drain(&mut ds, &mut sink, 1, 16);
        assert!(ds.quiescent(), "drained queue goes idle again");
        let before = (ds.stats(), sink.fetched.len());
        ds.tick(Cycle::new(99), &mut sink);
        assert_eq!((ds.stats(), sink.fetched.len()), before, "idle tick is unobservable");
    }

    #[test]
    fn bus_gating_respected() {
        let mut ds = DspatchPrefetcher::new(32, 1, 256, 8, 32);
        let mut sink = TestSink::new(1);
        sink.bus_is_free = false;
        let pc = Addr::new(0x900);
        touch(&mut ds, pc, 0x10_0000, &[0, 2]);
        touch(&mut ds, pc, 0x20_0000, &[0, 2]);
        touch(&mut ds, pc, 0x30_0000, &[0]);
        drain(&mut ds, &mut sink, 1, 8);
        assert_eq!(ds.stats().issued, 0);
        sink.bus_is_free = true;
        drain(&mut ds, &mut sink, 9, 1);
        assert_eq!(ds.stats().issued, 1);
    }

    #[test]
    #[should_panic(expected = "zero-sized DSPatch structure")]
    fn zero_degree_panics() {
        DspatchPrefetcher::new(32, 32, 256, 0, 32);
    }

    #[test]
    #[should_panic(expected = "zero-sized DSPatch structure")]
    fn zero_page_entries_panics() {
        DspatchPrefetcher::new(32, 0, 256, 8, 32);
    }

    #[test]
    #[should_panic(expected = "zero-sized DSPatch structure")]
    fn zero_spt_entries_panics() {
        DspatchPrefetcher::new(32, 32, 0, 8, 32);
    }

    #[test]
    fn minimal_configuration_constructs() {
        let ds = DspatchPrefetcher::new(32, 1, 1, 1, 1);
        assert_eq!((ds.page_buffer.len(), ds.spt.len(), ds.degree), (1, 1, 1));
    }

    #[test]
    fn baseline_configuration_is_pinned() {
        let ds = DspatchPrefetcher::baseline();
        assert_eq!(ds.page_buffer.len(), 32);
        assert_eq!(ds.spt.len(), 256);
        assert_eq!(ds.degree, 8);
        assert_eq!(ds.block, 32);
        assert_eq!(ds.buffer.capacity(), 32);
        // The fresh state is fully zeroed, with every invalid SPT slot
        // carrying the weakly-confident 2-of-3 bimodal quality.
        assert_eq!(ds.stamp, 0);
        for e in &ds.page_buffer {
            assert!(!e.valid);
            assert_eq!(
                (e.region, e.pattern, e.trigger_pc.raw(), e.trigger_offset, e.lru),
                (0, 0, 0, 0, 0)
            );
        }
        for s in &ds.spt {
            assert!(!s.valid);
            assert_eq!((s.tag, s.covp, s.accp), (0, 0, 0));
            assert_eq!((s.covp_quality.get(), s.covp_quality.max()), (2, 3));
            assert_eq!((s.accp_quality.get(), s.accp_quality.max()), (2, 3));
        }
    }

    #[test]
    fn regions_span_64_blocks_and_triggers_anchor_the_pattern() {
        let mut ds = DspatchPrefetcher::new(32, 1, 256, 8, 32);
        let pc = Addr::new(0x500);
        // Offsets 0 and 63 land in one region: one live entry, both bits.
        touch(&mut ds, pc, 0x10_0000, &[0, 63]);
        let e = &ds.page_buffer[0];
        assert!(e.valid);
        assert_eq!(e.region, 0x10_0000 / 32 / 64);
        assert_eq!(e.pattern, 1 | 1 << 63);
        assert_eq!(e.trigger_offset, 0);
        // A non-zero trigger offset seeds the new entry's bit map.
        ds.train(Cycle::ZERO, pc, Addr::new(0x20_0000 + 10 * 32));
        let e = &ds.page_buffer[0];
        assert_eq!(e.pattern, 1 << 10);
        assert_eq!(e.trigger_offset, 10);
    }

    #[test]
    fn spt_hash_xor_folds_the_pc() {
        let ds = DspatchPrefetcher::baseline();
        for pc in [0x1234_5678_9abcu64, 0xdead_beef_0042, 0x7f0f_3355_aa11] {
            let h = pc ^ (pc >> 11) ^ (pc >> 22);
            assert_eq!(ds.spt_index(Addr::new(pc)), ((h % 256) as usize, h / 256));
        }
    }

    #[test]
    fn quality_counters_score_each_retired_region() {
        let mut ds = DspatchPrefetcher::new(32, 1, 256, 8, 32);
        let pc = Addr::new(0x100);
        let q = |ds: &DspatchPrefetcher| {
            let (idx, _) = ds.spt_index(pc);
            let s = &ds.spt[idx];
            (s.covp_quality.get(), s.accp_quality.get())
        };
        let entry = |ds: &DspatchPrefetcher| {
            let (idx, _) = ds.spt_index(pc);
            (ds.spt[idx].covp, ds.spt[idx].accp)
        };
        let wide: Vec<u64> = (0..8).collect();
        touch(&mut ds, pc, 0x10_0000, &wide);
        touch(&mut ds, pc, 0x20_0000, &wide); // closes r1: fresh entry
        assert_eq!(q(&ds), (2, 2), "a fresh entry starts weakly confident");
        // r2 fully used both patterns' 7 predictions: both inc.
        touch(&mut ds, pc, 0x30_0000, &[0, 1, 2, 3, 4]);
        assert_eq!(q(&ds), (3, 3));
        // r3 used 4 of 7: exactly half rounds in the pattern's favor.
        touch(&mut ds, pc, 0x40_0000, &[0, 2, 4, 6]);
        assert_eq!(q(&ds), (3, 3));
        // r4 used 3 of CovP's 7 (dec) but 2 of AccP's 4 (the >= boundary
        // holds: inc).
        touch(&mut ds, pc, 0x50_0000, &[0]);
        assert_eq!(q(&ds), (2, 3));
        assert_eq!(entry(&ds), (0xFF, 0b10101));
        // r5 was trigger-only: both over-predicted, both dec.
        touch(&mut ds, pc, 0x60_0000, &[0]);
        assert_eq!(q(&ds), (1, 2));
        assert_eq!(entry(&ds), (0xFF, 1), "one bad region does not yet reset CovP");
        // r6 trigger-only again: CovP collapses to 0 and is rebuilt from
        // the observation; AccP now predicts nothing, which scores as
        // vacuously right.
        touch(&mut ds, pc, 0x70_0000, &[0]);
        assert_eq!(q(&ds), (2, 3));
        assert_eq!(entry(&ds), (1, 1), "collapsed CovP rebuilt from the last observation");
    }

    #[test]
    fn collapsed_accp_is_rebuilt_from_latest_observation() {
        let mut ds = DspatchPrefetcher::new(32, 1, 256, 8, 32);
        let pc = Addr::new(0x200);
        touch(&mut ds, pc, 0x10_0000, &[0, 1, 2, 3, 4]);
        touch(&mut ds, pc, 0x20_0000, &[0, 1, 5]); // closes r1: fresh entry
        touch(&mut ds, pc, 0x30_0000, &[0, 5]); // closes r2: AccP dec, narrows to {0,1}
        touch(&mut ds, pc, 0x40_0000, &[0]); // closes r3: AccP's {1} unused -> collapse
        let (idx, _) = ds.spt_index(pc);
        let s = &ds.spt[idx];
        assert_eq!(s.accp, 0b100001, "collapsed AccP rebuilt from the latest observation");
        assert_eq!(s.accp_quality.get(), 2, "the rebuild restores weak confidence");
    }

    #[test]
    fn tag_mismatch_predicts_nothing() {
        let mut ds = DspatchPrefetcher::new(32, 1, 4, 8, 32);
        let (idx_a, _) = ds.spt_index(Addr::new(0x0));
        let pc_b = (1..)
            .map(|i| Addr::new(i * 4 * 0x1000))
            .find(|pc| {
                ds.spt_index(*pc).0 == idx_a && ds.spt_index(*pc).1 != ds.spt_index(Addr::new(0)).1
            })
            .unwrap();
        touch(&mut ds, Addr::new(0), 0x10_0000, &[0, 3]);
        touch(&mut ds, Addr::new(0), 0x20_0000, &[0, 3]); // A's entry goes valid
        ds.buffer.pending().clear();
        // B aliases the slot under a different tag: its trigger must not
        // replay A's footprint.
        ds.train(Cycle::ZERO, pc_b, Addr::new(0x30_0000));
        assert!(
            ds.buffer.pending().is_empty(),
            "mismatched tag replayed a pattern: {:?}",
            ds.buffer.pending()
        );
    }

    #[test]
    fn covp_wins_quality_ties_over_accp() {
        let mut ds = DspatchPrefetcher::new(32, 1, 256, 8, 32);
        let pc = Addr::new(0x600);
        touch(&mut ds, pc, 0x10_0000, &[0, 1]);
        touch(&mut ds, pc, 0x20_0000, &[0, 2]); // closes r1: fresh {0,1} entry
        ds.buffer.pending().clear();
        // Closing r2 decs both qualities to 1 (the {+1} prediction went
        // unused), widens CovP to {0,1,2} and narrows AccP to {0}. The
        // tie at low quality must still pick the coverage pattern.
        ds.train(Cycle::ZERO, pc, Addr::new(0x30_0000));
        let (idx, _) = ds.spt_index(pc);
        let s = &ds.spt[idx];
        assert_eq!((s.covp_quality.get(), s.accp_quality.get()), (1, 1));
        assert_eq!((s.covp, s.accp), (0b111, 0b001));
        let want: Vec<BlockAddr> =
            [1u64, 2].iter().map(|i| BlockAddr(0x30_0000 / 32 + i)).collect();
        let got: Vec<BlockAddr> = ds.buffer.pending().iter().copied().collect();
        assert_eq!(got, want, "the quality tie must replay CovP");
    }

    #[test]
    fn repeated_triggers_suppress_queued_duplicates() {
        let mut ds = DspatchPrefetcher::new(32, 1, 256, 8, 32);
        let pc = Addr::new(0x700);
        touch(&mut ds, pc, 0x10_0000, &[0, 3]);
        touch(&mut ds, pc, 0x20_0000, &[0, 3]); // closes r1: entry {0,3}
        ds.buffer.pending().clear();
        ds.stats = PrefetchStats::default();
        touch(&mut ds, pc, 0x40_0000, &[0, 3]); // predicts +3, then touches it
        touch(&mut ds, pc, 0x50_0000, &[0, 3]); // evicts, predicts +3 again
        ds.train(Cycle::ZERO, pc, Addr::new(0x40_0000)); // re-trigger: +3 still queued
        let s = ds.stats();
        assert_eq!((s.predictions, s.suppressed), (3, 1));
        let uniq: std::collections::HashSet<_> = ds.buffer.pending().iter().collect();
        assert_eq!(
            uniq.len(),
            ds.buffer.pending().len(),
            "duplicate queued: {:?}",
            ds.buffer.pending()
        );
    }

    #[test]
    fn lookup_stats_count_misses_and_hits() {
        let mut ds = DspatchPrefetcher::baseline();
        let mut sink = TestSink::new(1);
        assert!(matches!(ds.lookup(Cycle::new(1), Addr::new(0x1000)), SbLookup::Miss));
        let s = ds.stats();
        assert_eq!((s.lookups, s.hits, s.used), (1, 0, 0));
        ds.buffer.pending().push_back(Addr::new(0x2000).block(32));
        ds.tick(Cycle::new(2), &mut sink);
        assert!(matches!(ds.lookup(Cycle::new(3), Addr::new(0x2000)), SbLookup::Hit { .. }));
        let s = ds.stats();
        assert_eq!((s.lookups, s.hits, s.used), (2, 1, 1));
    }

    #[test]
    fn reused_region_survives_lru_eviction() {
        let mut ds = DspatchPrefetcher::new(32, 2, 256, 8, 32);
        let pc = Addr::new(0x800);
        touch(&mut ds, pc, 0x10_0000, &[0]); // A
        touch(&mut ds, pc, 0x20_0000, &[0]); // B
        touch(&mut ds, pc, 0x10_0000, &[1]); // refresh A
        touch(&mut ds, pc, 0x30_0000, &[0]); // evicts B, the true LRU
        let regions: Vec<u64> =
            ds.page_buffer.iter().filter(|e| e.valid).map(|e| e.region).collect();
        assert!(regions.contains(&(0x10_0000 / 32 / 64)), "refreshed region evicted: {regions:?}");
        assert!(!regions.contains(&(0x20_0000 / 32 / 64)), "stale region kept: {regions:?}");
    }
}
