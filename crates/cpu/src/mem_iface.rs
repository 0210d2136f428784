//! The pipeline's view of the memory system.

use psb_common::{Addr, Cycle};

/// The memory system as seen by the pipeline.
///
/// The CPU model is memory-system agnostic: the full simulator implements
/// this trait with L1 caches, stream buffers and the lower memory system;
/// unit tests use [`FixedLatencyMemory`].
pub trait MemSystem {
    /// A demand load by the instruction at `pc` to `addr`, issued at
    /// `now`. Returns the cycle the data is available to dependents.
    fn load(&mut self, now: Cycle, pc: Addr, addr: Addr) -> Cycle;

    /// A committed store by the instruction at `pc` to `addr`. Stores
    /// update cache state and consume bandwidth but nothing waits on them.
    fn store(&mut self, now: Cycle, pc: Addr, addr: Addr);

    /// An instruction fetch touching the block containing `pc`. Returns
    /// the cycle the block is available (equal to `now` on an L1I hit).
    fn ifetch(&mut self, now: Cycle, pc: Addr) -> Cycle;

    /// Notification that a *load* instruction at `pc` entered the fetch
    /// stage. Fetch-stream prefetchers (Section 3.1 of the paper: Chen &
    /// Baer's lookahead-PC family) use this early sighting to predict and
    /// prefetch the load's address long before it issues. Default: no-op.
    fn fetched_load(&mut self, now: Cycle, pc: Addr) {
        let _ = (now, pc);
    }

    /// Per-cycle housekeeping, called once per simulated cycle after the
    /// pipeline stages. The full simulator uses this to run the prefetch
    /// engines.
    fn tick(&mut self, now: Cycle) {
        let _ = now;
    }

    /// Observability sampling point, called once per simulated cycle
    /// right after [`MemSystem::tick`] with the committed-instruction
    /// count (which only the pipeline knows). The full simulator uses
    /// this to drive interval time series; the default no-op compiles
    /// away under static dispatch.
    fn sample(&mut self, now: Cycle, committed: u64) {
        let _ = (now, committed);
    }

    /// True if [`MemSystem::tick`] and [`MemSystem::sample`] are no-ops
    /// until the pipeline's next `load`, `store`, `ifetch` or
    /// `fetched_load` call. The pipeline then skips the cycles in which
    /// none of its stages can act. The default says "never", which is
    /// always sound.
    fn idle(&self) -> bool {
        false
    }
}

/// A memory system with a fixed load latency and instant fetches — the
/// null substrate for pipeline unit tests.
///
/// # Example
///
/// ```
/// use psb_common::{Addr, Cycle};
/// use psb_cpu::{FixedLatencyMemory, MemSystem};
///
/// let mut mem = FixedLatencyMemory::new(3);
/// assert_eq!(mem.load(Cycle::new(10), Addr::new(0), Addr::new(0x100)), Cycle::new(13));
/// ```
#[derive(Clone, Debug)]
pub struct FixedLatencyMemory {
    load_latency: u64,
    loads: u64,
    stores: u64,
}

impl FixedLatencyMemory {
    /// Creates a memory with the given load latency in cycles.
    pub fn new(load_latency: u64) -> Self {
        FixedLatencyMemory { load_latency, loads: 0, stores: 0 }
    }

    /// Number of loads serviced.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Number of stores received.
    pub fn stores(&self) -> u64 {
        self.stores
    }
}

impl MemSystem for FixedLatencyMemory {
    fn load(&mut self, now: Cycle, _pc: Addr, _addr: Addr) -> Cycle {
        self.loads += 1;
        now + self.load_latency
    }

    fn store(&mut self, _now: Cycle, _pc: Addr, _addr: Addr) {
        self.stores += 1;
    }

    fn ifetch(&mut self, now: Cycle, _pc: Addr) -> Cycle {
        now
    }

    fn idle(&self) -> bool {
        // `tick` and `sample` are the trait's no-ops.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency_counts_traffic() {
        let mut m = FixedLatencyMemory::new(5);
        assert_eq!(m.load(Cycle::ZERO, Addr::new(0), Addr::new(8)), Cycle::new(5));
        m.store(Cycle::ZERO, Addr::new(4), Addr::new(16));
        assert_eq!(m.loads(), 1);
        assert_eq!(m.stores(), 1);
        assert_eq!(m.ifetch(Cycle::new(9), Addr::new(0)), Cycle::new(9));
        assert!(m.idle());
    }
}
