//! Memory event logging for debugging and teaching.
//!
//! When enabled, the memory system records how each access was served —
//! L1 hit, stream-buffer hit, victim rescue, demand fetch, prefetch —
//! and what became of each prefetched block — filled, used late, evicted
//! unused — up to a capacity, so a user can watch the prefetcher run
//! ahead of a pointer chase cycle by cycle (`psbsim --log N`). The log
//! subscribes to the event stream ([`psb_common::event`]) and writes
//! lines in the order the events happen.

use psb_common::event::{Event, EventKind};
pub use psb_common::event::{MemEvent, MemEventKind};
use std::cell::RefCell;
use std::rc::Rc;

/// Retention policy for a [`MemLog`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Retention {
    /// Keep the first `capacity` events, then stop recording — good for
    /// watching a run start up (`psbsim --log N`).
    KeepFirst,
    /// Keep the *last* `capacity` events in a ring, overwriting the
    /// oldest — good for seeing what led up to the end of a run without
    /// unbounded memory.
    KeepLast,
}

/// A bounded event recorder, shared between the memory system's
/// components via [`SharedMemLog`].
#[derive(Debug)]
pub struct MemLog {
    events: Vec<MemEvent>,
    capacity: usize,
    retention: Retention,
    /// Next overwrite slot in [`Retention::KeepLast`] mode.
    head: usize,
    /// Total events submitted, including those dropped or overwritten.
    submitted: u64,
    /// A late use, held until the line of the access that consumed it.
    late: Option<MemEvent>,
    /// Cycle stamp of the most recently recorded event. The invariant
    /// auditor compares against this rather than `events.last()` because
    /// ring mode rotates storage order away from record order.
    #[cfg(feature = "check")]
    last_recorded: Option<psb_common::Cycle>,
    /// Allowed backward cycle skew between consecutive entries, published
    /// to the invariant auditor: demand events are stamped after address
    /// translation, so a TLB miss can push one ahead of later same-cycle
    /// submissions by up to the TLB miss penalty.
    #[cfg(feature = "check")]
    check_skew: u64,
}

/// The shared handle the simulator components write through.
pub type SharedMemLog = Rc<RefCell<MemLog>>;

impl MemLog {
    fn with_retention(capacity: usize, retention: Retention) -> SharedMemLog {
        Rc::new(RefCell::new(MemLog {
            events: Vec::new(),
            capacity,
            retention,
            head: 0,
            submitted: 0,
            late: None,
            #[cfg(feature = "check")]
            last_recorded: None,
            #[cfg(feature = "check")]
            check_skew: 0,
        }))
    }

    /// Creates a log keeping the first `capacity` events.
    pub fn shared(capacity: usize) -> SharedMemLog {
        Self::with_retention(capacity, Retention::KeepFirst)
    }

    /// Creates a log keeping the *last* `capacity` events (a ring buffer
    /// that overwrites the oldest entry once full).
    pub fn shared_ring(capacity: usize) -> SharedMemLog {
        Self::with_retention(capacity, Retention::KeepLast)
    }

    /// Declares the backward cycle skew the auditor should tolerate
    /// between consecutive entries (the owning memory system sets this to
    /// its TLB miss penalty when it attaches the log).
    #[cfg(feature = "check")]
    pub fn set_check_skew(&mut self, skew: u64) {
        self.check_skew = skew;
    }

    /// The event kinds the log prints.
    pub(crate) const INTEREST: u32 = EventKind::Access.bit()
        | EventKind::Filled.bit()
        | EventKind::Evicted.bit()
        | EventKind::Used.bit();

    /// Writes the line for `event`, if it prints one. A stream-buffer
    /// lookup reports a late use before the memory system knows how the
    /// access resolved, so the `pf-late` line follows the access line.
    pub(crate) fn emit(&mut self, event: &Event) {
        let line = |cycle, addr, kind| MemEvent { cycle, pc: None, addr, ready: cycle, kind };
        match *event {
            Event::Access(access) => {
                self.record(access);
                if let Some(late) = self.late.take() {
                    self.record(late);
                }
            }
            Event::Filled { cycle, block, .. } => {
                self.record(line(cycle, block, MemEventKind::PrefetchFilled));
            }
            Event::Evicted { cycle, block, .. } => {
                self.record(line(cycle, block, MemEventKind::PrefetchEvictedUnused));
            }
            Event::Used { cycle, block, late_by: 1.., .. } => {
                self.late = Some(line(cycle, block, MemEventKind::PrefetchLate));
            }
            _ => {}
        }
    }

    /// Records an event, subject to the retention policy.
    pub fn record(&mut self, event: MemEvent) {
        self.submitted += 1;
        if self.capacity == 0 {
            return;
        }
        let keep = match self.retention {
            Retention::KeepFirst => self.events.len() < self.capacity,
            Retention::KeepLast => true,
        };
        if !keep {
            return;
        }
        #[cfg(feature = "check")]
        {
            psb_check::audit(&psb_check::Snapshot::Event {
                prev_cycle: self.last_recorded.unwrap_or(event.cycle),
                cycle: event.cycle,
                ready: Some(event.ready),
                slack: self.check_skew,
            });
            self.last_recorded = Some(event.cycle);
        }
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            // Ring mode, saturated: overwrite the oldest entry. Plain
            // wrap-around comparison instead of `%` keeps the recording
            // hot path free of a division (and its zero-divisor panic
            // class — capacity >= 1 is already guarded above).
            self.events[self.head] = event;
            self.head = if self.head + 1 == self.capacity { 0 } else { self.head + 1 };
        }
    }

    /// The recorded events in *storage* order. In keep-first mode this is
    /// record order; in ring mode use [`MemLog::ordered`] for record
    /// order once the ring has wrapped.
    pub fn events(&self) -> &[MemEvent] {
        &self.events
    }

    /// The recorded events in record (chronological-submission) order,
    /// un-rotating the ring when necessary.
    pub fn ordered(&self) -> Vec<MemEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }

    /// Total events submitted, including any dropped (keep-first) or
    /// overwritten (ring).
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// True once the capacity is exhausted. A keep-first log stops
    /// recording at this point; a ring starts overwriting.
    pub fn is_full(&self) -> bool {
        self.events.len() >= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_common::{Addr, Cycle};

    fn ev(cycle: u64, kind: MemEventKind) -> MemEvent {
        MemEvent {
            cycle: Cycle::new(cycle),
            pc: Some(Addr::new(0x400)),
            addr: Addr::new(0x1000),
            ready: Cycle::new(cycle + 4),
            kind,
        }
    }

    #[test]
    fn capacity_bounds_recording() {
        let log = MemLog::shared(2);
        log.borrow_mut().record(ev(1, MemEventKind::L1Hit));
        log.borrow_mut().record(ev(2, MemEventKind::Prefetch));
        log.borrow_mut().record(ev(3, MemEventKind::DemandMemory));
        let l = log.borrow();
        assert_eq!(l.events().len(), 2);
        assert!(l.is_full());
        assert_eq!(l.events()[1].kind, MemEventKind::Prefetch);
    }

    #[test]
    fn display_is_informative() {
        let s = ev(42, MemEventKind::SbHitReady).to_string();
        assert!(s.contains("cy42"));
        assert!(s.contains("sb-hit"));
        assert!(s.contains("pc=0x400"));
        assert!(s.contains("(+4)"));
    }

    #[test]
    fn all_kinds_have_labels() {
        for k in [
            MemEventKind::L1Hit,
            MemEventKind::L1InFlight,
            MemEventKind::SbHitReady,
            MemEventKind::SbHitInFlight,
            MemEventKind::VictimHit,
            MemEventKind::DemandL2,
            MemEventKind::DemandMemory,
            MemEventKind::StoreMiss,
            MemEventKind::Prefetch,
            MemEventKind::IFetchMiss,
            MemEventKind::PrefetchFilled,
            MemEventKind::PrefetchEvictedUnused,
            MemEventKind::PrefetchLate,
        ] {
            assert!(!k.to_string().is_empty());
        }
    }

    #[test]
    fn ring_keeps_last_n_in_order() {
        let log = MemLog::shared_ring(3);
        for c in 1..=5u64 {
            log.borrow_mut().record(ev(c, MemEventKind::L1Hit));
        }
        let l = log.borrow();
        assert_eq!(l.submitted(), 5);
        assert!(l.is_full());
        let cycles: Vec<u64> = l.ordered().iter().map(|e| e.cycle.raw()).collect();
        assert_eq!(cycles, vec![3, 4, 5], "ring keeps the most recent events");
        // Storage order has rotated, but nothing is lost.
        assert_eq!(l.events().len(), 3);
    }

    #[test]
    fn ordered_matches_events_before_wrap() {
        let log = MemLog::shared_ring(4);
        log.borrow_mut().record(ev(1, MemEventKind::Prefetch));
        log.borrow_mut().record(ev(2, MemEventKind::PrefetchFilled));
        let l = log.borrow();
        assert_eq!(l.ordered(), l.events().to_vec());
    }

    #[test]
    fn zero_capacity_counts_but_stores_nothing() {
        let log = MemLog::shared_ring(0);
        log.borrow_mut().record(ev(1, MemEventKind::L1Hit));
        assert_eq!(log.borrow().submitted(), 1);
        assert!(log.borrow().events().is_empty());
    }

    #[test]
    fn lifecycle_events_print_in_order_with_late_use_after_its_access() {
        let shared = MemLog::shared(16);
        let mut log = shared.borrow_mut();
        let (cycle, block) = (Cycle::new(7), Addr::new(0x1000));
        let used = |late_by| Event::Used { cycle, buffer: 0, block, late_by };
        log.emit(&Event::Filled { cycle, buffer: 0, block });
        log.emit(&used(0));
        log.emit(&used(5));
        log.emit(&Event::Predicted { cycle, buffer: 0, block });
        assert_eq!(log.events().len(), 1, "on-time uses and predictions print nothing");
        log.emit(&Event::Access(ev(7, MemEventKind::SbHitInFlight)));
        log.emit(&Event::Evicted { cycle, buffer: 1, block });
        let kinds: Vec<_> = log.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                MemEventKind::PrefetchFilled,
                MemEventKind::SbHitInFlight,
                MemEventKind::PrefetchLate,
                MemEventKind::PrefetchEvictedUnused,
            ]
        );
        assert_eq!(log.events()[2].addr, block);
    }
}
