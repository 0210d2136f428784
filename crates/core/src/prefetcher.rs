//! The prefetcher interface between the stream-buffer engines and the
//! surrounding simulator.

use psb_common::{Addr, Cycle};

/// Result of probing the stream buffers on an L1 miss.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SbLookup {
    /// A stream buffer holds (or is fetching) the block. `ready` is when
    /// the data is available at the L1 boundary: the current cycle for a
    /// resident block (it "is moved into the data cache"), or the fill
    /// completion time for an in-flight block (the tag "is moved into a
    /// data cache MSHR").
    Hit {
        /// Data-available cycle.
        ready: Cycle,
    },
    /// No stream buffer covers the block; the miss proceeds to the lower
    /// memory system (and may trigger a stream-buffer allocation).
    Miss,
}

/// Counters reported by every prefetcher.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// L1-miss probes of the stream buffers.
    pub lookups: u64,
    /// Probes that hit a stream buffer (resident or in flight).
    pub hits: u64,
    /// Prefetches sent to the memory system.
    pub issued: u64,
    /// Issued prefetches whose data was consumed by the processor.
    pub used: u64,
    /// Predictions discarded because the block was already tracked by a
    /// stream buffer (the non-overlapping-streams check).
    pub suppressed: u64,
    /// Predictions generated (including suppressed ones).
    pub predictions: u64,
    /// Stream (re)allocations performed.
    pub allocations: u64,
    /// Allocation requests rejected by the active filter.
    pub alloc_rejected: u64,
}

impl PrefetchStats {
    /// Prefetch accuracy: "the number of prefetches used divided by the
    /// number of prefetches made" (Figure 6). 0.0 when nothing issued.
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.used as f64 / self.issued as f64
        }
    }

    /// Fraction of stream-buffer probes that hit.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// The memory system as seen by a prefetch engine.
///
/// Implemented by the full simulator over its TLB + lower memory system;
/// tests use [`TestSink`].
pub trait PrefetchSink {
    /// True if the L1↔L2 bus is idle at the start of this cycle — the
    /// paper's gating condition for issuing a prefetch.
    fn bus_free(&self, now: Cycle) -> bool;

    /// Issues a prefetch of the cache block containing `addr` (a virtual
    /// address; the implementation performs TLB translation). Returns the
    /// cycle the data arrives at the stream buffer.
    fn fetch(&mut self, now: Cycle, addr: Addr) -> Cycle;
}

/// A hardware prefetcher driven by the simulator.
///
/// Call order within one simulated cycle: any number of
/// [`Prefetcher::lookup`] / [`Prefetcher::train`] /
/// [`Prefetcher::allocate`] calls from the pipeline's memory accesses,
/// then exactly one [`Prefetcher::tick`].
pub trait Prefetcher {
    /// Probes the stream buffers for the block containing `addr` after an
    /// L1 miss. A hit frees the entry for a new prediction.
    fn lookup(&mut self, now: Cycle, addr: Addr) -> SbLookup;

    /// Trains the address predictor on a load L1 miss (write-back stage).
    /// Store-forwarded loads must not be reported.
    fn train(&mut self, now: Cycle, pc: Addr, addr: Addr);

    /// Requests a stream allocation for a load that missed both the L1
    /// and the stream buffers. Subject to the allocation filter; also
    /// drives priority aging.
    fn allocate(&mut self, now: Cycle, pc: Addr, addr: Addr);

    /// Advances the engine by one cycle: promotes arrived fills, makes at
    /// most one prediction (the shared predictor port) and issues at most
    /// one prefetch (if the bus is free).
    fn tick(&mut self, now: Cycle, sink: &mut dyn PrefetchSink);

    /// True if [`Prefetcher::tick`] is guaranteed to be an externally
    /// observable no-op until the next [`Prefetcher::lookup`],
    /// [`Prefetcher::train`], [`Prefetcher::allocate`] or
    /// [`Prefetcher::observe_fetch`] call — no prediction can be made,
    /// no prefetch can be issued, and no counter or event can change.
    /// (Next-line, demand-Markov, Pangloss and DSPatch refill their queue
    /// in `train`.) The simulator uses this to skip the per-cycle virtual
    /// dispatch while the engine is idle. The conservative default says
    /// "never", which is always sound.
    fn quiescent(&self) -> bool {
        false
    }

    /// Observes a load entering the *fetch* stage (its address is not yet
    /// known). Only fetch-stream prefetchers react; the default is a
    /// no-op.
    fn observe_fetch(&mut self, now: Cycle, pc: Addr) {
        let _ = (now, pc);
    }

    /// Attaches an observability sink: the engine registers its metric
    /// handles and starts reporting prefetch-lifecycle events through
    /// `obs`. The default ignores the sink (e.g. [`NoPrefetch`]).
    fn attach_obs(&mut self, obs: &crate::SharedStreamObs) {
        let _ = obs;
    }

    /// Accumulated statistics.
    fn stats(&self) -> PrefetchStats;

    /// Human-readable configuration name (for reports).
    fn name(&self) -> &str;
}

/// The no-prefetching baseline: every probe misses, nothing is issued.
#[derive(Clone, Debug, Default)]
pub struct NoPrefetch {
    stats: PrefetchStats,
}

impl NoPrefetch {
    /// Creates the null prefetcher.
    pub fn new() -> Self {
        NoPrefetch::default()
    }
}

impl Prefetcher for NoPrefetch {
    fn lookup(&mut self, _now: Cycle, _addr: Addr) -> SbLookup {
        self.stats.lookups += 1;
        SbLookup::Miss
    }

    fn train(&mut self, _now: Cycle, _pc: Addr, _addr: Addr) {}

    fn allocate(&mut self, _now: Cycle, _pc: Addr, _addr: Addr) {}

    fn tick(&mut self, _now: Cycle, _sink: &mut dyn PrefetchSink) {}

    fn quiescent(&self) -> bool {
        // `tick` is unconditionally empty.
        true
    }

    fn stats(&self) -> PrefetchStats {
        self.stats
    }

    fn name(&self) -> &str {
        "none"
    }
}

/// A test double for [`PrefetchSink`]: fixed latency, always-free (or
/// never-free) bus, and a log of fetched addresses.
#[derive(Clone, Debug)]
pub struct TestSink {
    /// Latency from issue to arrival.
    pub latency: u64,
    /// Whether the bus reports free.
    pub bus_is_free: bool,
    /// Every address fetched, in order.
    pub fetched: Vec<Addr>,
}

impl TestSink {
    /// Creates a sink with the given prefetch latency and a free bus.
    pub fn new(latency: u64) -> Self {
        TestSink { latency, bus_is_free: true, fetched: Vec::new() }
    }
}

impl PrefetchSink for TestSink {
    fn bus_free(&self, _now: Cycle) -> bool {
        self.bus_is_free
    }

    fn fetch(&mut self, now: Cycle, addr: Addr) -> Cycle {
        self.fetched.push(addr);
        now + self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_prefetch_always_misses() {
        let mut p = NoPrefetch::new();
        assert_eq!(p.lookup(Cycle::ZERO, Addr::new(0x100)), SbLookup::Miss);
        p.train(Cycle::ZERO, Addr::new(0), Addr::new(0x100));
        p.allocate(Cycle::ZERO, Addr::new(0), Addr::new(0x100));
        let mut sink = TestSink::new(10);
        p.tick(Cycle::ZERO, &mut sink);
        assert!(sink.fetched.is_empty());
        assert_eq!(p.stats().lookups, 1);
        assert_eq!(p.stats().issued, 0);
        assert_eq!(p.name(), "none");
    }

    #[test]
    fn stats_ratios() {
        let s = PrefetchStats { lookups: 10, hits: 4, issued: 8, used: 4, ..Default::default() };
        assert_eq!(s.accuracy(), 0.5);
        assert_eq!(s.hit_rate(), 0.4);
        let zero = PrefetchStats::default();
        assert_eq!(zero.accuracy(), 0.0);
        assert_eq!(zero.hit_rate(), 0.0);
    }

    #[test]
    fn test_sink_records_fetches() {
        let mut sink = TestSink::new(7);
        assert!(sink.bus_free(Cycle::ZERO));
        assert_eq!(sink.fetch(Cycle::new(3), Addr::new(0x40)), Cycle::new(10));
        assert_eq!(sink.fetched, vec![Addr::new(0x40)]);
        sink.bus_is_free = false;
        assert!(!sink.bus_free(Cycle::ZERO));
    }
}
