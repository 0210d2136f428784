//! Miss status holding registers.

use psb_common::{BlockAddr, Cycle};
use psb_obs::{Counter, Gauge};

/// Why an MSHR allocation failed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MshrError {
    /// All registers are occupied. The caller decides what a refused miss
    /// costs; the simulator serves it without installing its block.
    Full,
}

impl std::fmt::Display for MshrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MshrError::Full => write!(f, "all miss status holding registers are occupied"),
        }
    }
}

impl std::error::Error for MshrError {}

/// Stands in for "no fill pending" in the earliest-ready cache.
const NEVER: Cycle = Cycle::new(u64::MAX);

/// A file of miss status holding registers.
///
/// Each entry records one in-flight cache block and the cycle at which its
/// fill completes. Secondary misses to the same block merge into the
/// existing entry ([`Mshr::lookup`] returns the pending completion time).
/// The owner drains completed entries with [`Mshr::drain_ready`], inserting
/// the returned blocks into its cache. The file caches its earliest
/// completion cycle, so a drain with nothing due is one compare.
///
/// # Example
///
/// ```
/// use psb_common::{BlockAddr, Cycle};
/// use psb_mem::Mshr;
///
/// let mut m = Mshr::new(4);
/// m.allocate(BlockAddr(7), Cycle::new(100)).expect("a register is free for this block");
/// assert_eq!(m.lookup(BlockAddr(7)), Some(Cycle::new(100)));
/// let done = m.drain_ready(Cycle::new(100));
/// assert_eq!(done, vec![BlockAddr(7)]);
/// assert_eq!(m.lookup(BlockAddr(7)), None);
/// ```
#[derive(Clone, Debug)]
pub struct Mshr {
    capacity: usize,
    /// In-flight blocks and their completion cycles, unordered.
    pending: Vec<(BlockAddr, Cycle)>,
    /// The earliest completion cycle in `pending`, or [`NEVER`].
    next_ready: Cycle,
    /// Occupancy sampled after every allocation, when attached.
    obs_occupancy: Option<Gauge>,
    /// Allocations rejected because every register was busy.
    obs_full_rejects: Option<Counter>,
}

impl Mshr {
    /// Creates a file with `capacity` registers; `usize::MAX` makes a
    /// table with no register limit.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an MSHR file needs at least one register");
        Mshr {
            capacity,
            pending: Vec::new(),
            next_ready: NEVER,
            obs_occupancy: None,
            obs_full_rejects: None,
        }
    }

    /// Attaches observability handles: `occupancy` is sampled after each
    /// successful allocation, `full_rejects` counts allocations refused
    /// because the file was full.
    pub fn attach_obs(&mut self, occupancy: Gauge, full_rejects: Counter) {
        self.obs_occupancy = Some(occupancy);
        self.obs_full_rejects = Some(full_rejects);
    }

    /// Returns the completion time of an in-flight block, if any.
    pub fn lookup(&self, block: BlockAddr) -> Option<Cycle> {
        self.pending.iter().find(|(b, _)| *b == block).map(|&(_, ready)| ready)
    }

    /// True if `block` is currently in flight.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.pending.iter().any(|(b, _)| *b == block)
    }

    /// Allocates a register for `block`, completing at `ready`.
    ///
    /// If the block is already in flight this merges (keeping the earlier
    /// completion time) and costs no new register.
    ///
    /// # Errors
    ///
    /// Returns [`MshrError::Full`] when no register is free.
    pub fn allocate(&mut self, block: BlockAddr, ready: Cycle) -> Result<(), MshrError> {
        if let Some((_, existing)) = self.pending.iter_mut().find(|(b, _)| *b == block) {
            *existing = (*existing).min(ready);
            self.next_ready = self.next_ready.min(ready);
            return Ok(());
        }
        if self.is_full() {
            if let Some(c) = &self.obs_full_rejects {
                c.inc();
            }
            return Err(MshrError::Full);
        }
        self.pending.push((block, ready));
        self.next_ready = self.next_ready.min(ready);
        if let Some(g) = &self.obs_occupancy {
            g.sample(self.pending.len() as u64);
        }
        #[cfg(feature = "check")]
        self.audit(ready);
        Ok(())
    }

    /// Publishes the register file to the invariant auditor (duplicate
    /// blocks, capacity bound).
    #[cfg(feature = "check")]
    fn audit(&self, now: Cycle) {
        psb_check::audit(&psb_check::Snapshot::Mshr {
            now,
            capacity: self.capacity,
            blocks: self.pending.iter().map(|&(b, _)| b).collect(),
        });
    }

    /// Removes and returns every block whose fill has completed by `now`,
    /// in deterministic (completion time, block) order.
    pub fn drain_ready(&mut self, now: Cycle) -> Vec<BlockAddr> {
        let mut done = Vec::new();
        if now >= self.next_ready {
            let mut next_ready = NEVER;
            self.pending.retain(|&(block, ready)| {
                if ready <= now {
                    done.push((ready, block));
                } else {
                    next_ready = next_ready.min(ready);
                }
                ready > now
            });
            self.next_ready = next_ready;
            done.sort_unstable();
            #[cfg(feature = "check")]
            self.audit(now);
        }
        done.into_iter().map(|(_, b)| b).collect()
    }

    /// Number of occupied registers.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// True if no register is free.
    pub fn is_full(&self) -> bool {
        self.pending.len() >= self.capacity
    }

    /// Total number of registers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_lookup_drain() {
        let mut m = Mshr::new(2);
        m.allocate(BlockAddr(1), Cycle::new(10)).expect("a register is free for this block");
        m.allocate(BlockAddr(2), Cycle::new(20)).expect("a register is free for this block");
        assert!(m.is_full());
        assert_eq!(m.lookup(BlockAddr(1)), Some(Cycle::new(10)));
        assert_eq!(m.drain_ready(Cycle::new(5)), vec![]);
        assert_eq!(m.drain_ready(Cycle::new(15)), vec![BlockAddr(1)]);
        assert_eq!(m.in_flight(), 1);
        assert_eq!(m.drain_ready(Cycle::new(25)), vec![BlockAddr(2)]);
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn full_rejects() {
        let mut m = Mshr::new(1);
        m.allocate(BlockAddr(1), Cycle::new(10)).expect("a register is free for this block");
        assert_eq!(m.allocate(BlockAddr(2), Cycle::new(10)), Err(MshrError::Full));
        // Same block merges even when full.
        assert_eq!(m.allocate(BlockAddr(1), Cycle::new(30)), Ok(()));
    }

    #[test]
    fn merge_keeps_earlier_completion() {
        let mut m = Mshr::new(4);
        m.allocate(BlockAddr(9), Cycle::new(50)).expect("a register is free for this block");
        m.allocate(BlockAddr(9), Cycle::new(40)).expect("a register is free for this block");
        assert_eq!(m.lookup(BlockAddr(9)), Some(Cycle::new(40)));
        m.allocate(BlockAddr(9), Cycle::new(60)).expect("a register is free for this block");
        assert_eq!(m.lookup(BlockAddr(9)), Some(Cycle::new(40)));
        assert_eq!(m.in_flight(), 1);
    }

    #[test]
    fn drain_order_is_deterministic() {
        let mut m = Mshr::new(8);
        m.allocate(BlockAddr(5), Cycle::new(10)).expect("a register is free for this block");
        m.allocate(BlockAddr(3), Cycle::new(10)).expect("a register is free for this block");
        m.allocate(BlockAddr(4), Cycle::new(9)).expect("a register is free for this block");
        assert_eq!(m.drain_ready(Cycle::new(10)), vec![BlockAddr(4), BlockAddr(3), BlockAddr(5)]);
    }

    #[test]
    fn obs_handles_track_occupancy_and_rejects() {
        let mut m = Mshr::new(2);
        let g = Gauge::new();
        let c = Counter::new();
        m.attach_obs(g.clone(), c.clone());
        m.allocate(BlockAddr(1), Cycle::new(10)).expect("register free");
        m.allocate(BlockAddr(2), Cycle::new(10)).expect("register free");
        assert_eq!(m.allocate(BlockAddr(3), Cycle::new(10)), Err(MshrError::Full));
        // Merges cost no register and are not re-sampled.
        m.allocate(BlockAddr(1), Cycle::new(5)).expect("merge");
        assert_eq!(g.snapshot().max(), Some(2));
        assert_eq!(g.snapshot().samples(), 2);
        assert_eq!(c.get(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn zero_capacity_panics() {
        Mshr::new(0);
    }

    #[test]
    fn drain_refreshes_the_earliest_ready_cycle() {
        let mut m = Mshr::new(4);
        m.allocate(BlockAddr(1), Cycle::new(10)).expect("register free");
        m.allocate(BlockAddr(2), Cycle::new(20)).expect("register free");
        assert_eq!(m.drain_ready(Cycle::new(9)), vec![]);
        assert_eq!(m.drain_ready(Cycle::new(15)), vec![BlockAddr(1)]);
        // The survivor's cycle, not a stale or reset one, gates the next
        // drain.
        assert_eq!(m.drain_ready(Cycle::new(19)), vec![]);
        assert_eq!(m.drain_ready(Cycle::new(20)), vec![BlockAddr(2)]);
        // An empty file lets nothing through until the next allocation.
        m.allocate(BlockAddr(3), Cycle::new(18)).expect("register free");
        assert_eq!(m.drain_ready(Cycle::new(18)), vec![BlockAddr(3)]);
    }

    #[test]
    fn merging_to_an_earlier_cycle_lowers_the_gate() {
        let mut m = Mshr::new(2);
        m.allocate(BlockAddr(1), Cycle::new(50)).expect("register free");
        assert_eq!(m.drain_ready(Cycle::new(30)), vec![]);
        m.allocate(BlockAddr(1), Cycle::new(30)).expect("merge");
        assert_eq!(m.drain_ready(Cycle::new(30)), vec![BlockAddr(1)]);
        assert!(!m.contains(BlockAddr(1)));
    }

    #[test]
    fn an_unbounded_file_never_fills() {
        let mut m = Mshr::new(usize::MAX);
        for b in 0..1000 {
            m.allocate(BlockAddr(b), Cycle::new(b)).expect("no register limit");
        }
        assert!(!m.is_full());
        assert_eq!(m.in_flight(), 1000);
        assert_eq!(m.drain_ready(Cycle::new(1)), vec![BlockAddr(0), BlockAddr(1)]);
    }
}
