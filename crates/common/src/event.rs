//! The prefetch event stream.
//!
//! Every step of a prefetch's life — predicted, issued, filled, used,
//! raced by the demand stream, thrown away unused — and every memory
//! access the event log prints is one plain-data [`Event`]. Subscribers
//! implement one sink trait, [`StreamObs`]: the `psb-obs` hub turns
//! events into lifecycle counters and Chrome-trace records, and the
//! simulator's memory log turns them into log lines, in the order they
//! happen. Emitters hold an [`Emitter`], which reads the sink's
//! [`StreamObs::interest`] mask once at attach time: a kind outside the
//! mask is never built, and with nothing attached every emission site
//! is one branch.

use crate::metrics::Counter;
use crate::{Addr, Cycle};
use std::fmt;
use std::rc::Rc;

/// One event in the stream. Lifecycle variants name the stream buffer
/// and the base address of the block; [`Event::Access`] is a memory
/// access as the event log prints it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Stream buffer `buffer` exists; sent once per buffer at attach.
    Buffer {
        /// The buffer's index.
        buffer: usize,
    },
    /// A stream buffer was (re)allocated to the stream of the load at
    /// `pc`. `displaced` counts the fetched blocks it threw away unused.
    Allocated {
        /// When.
        cycle: Cycle,
        /// Which buffer.
        buffer: usize,
        /// The allocating load.
        pc: Addr,
        /// The predictor's confidence in the stream.
        confidence: u64,
        /// Fetched blocks thrown away unused.
        displaced: u64,
    },
    /// One block thrown away unused at reallocation: the per-block
    /// detail behind [`Event::Allocated`]'s `displaced`.
    Evicted {
        /// When.
        cycle: Cycle,
        /// Which buffer.
        buffer: usize,
        /// The block's base address.
        block: Addr,
    },
    /// A prediction was accepted into a stream-buffer entry.
    Predicted {
        /// When.
        cycle: Cycle,
        /// Which buffer.
        buffer: usize,
        /// The block's base address.
        block: Addr,
    },
    /// A prefetch was issued; its data arrives at `ready`.
    Issued {
        /// When.
        cycle: Cycle,
        /// Which buffer.
        buffer: usize,
        /// The block's base address.
        block: Addr,
        /// When the data arrives.
        ready: Cycle,
    },
    /// A prefetched block arrived in its buffer.
    Filled {
        /// When.
        cycle: Cycle,
        /// Which buffer.
        buffer: usize,
        /// The block's base address.
        block: Addr,
    },
    /// A demand access consumed a prefetched block.
    Used {
        /// When.
        cycle: Cycle,
        /// Which buffer.
        buffer: usize,
        /// The block's base address.
        block: Addr,
        /// Fill latency the access still had to wait out; zero for a
        /// block that had arrived, nonzero for a late prefetch.
        late_by: u64,
    },
    /// A demand miss reached a predicted entry before its prefetch was
    /// issued; the entry is freed and the miss goes to the L2.
    Raced {
        /// When.
        cycle: Cycle,
        /// Which buffer.
        buffer: usize,
        /// The block's base address.
        block: Addr,
    },
    /// A buffer's entry counts and priority, sampled after a change.
    Occupancy {
        /// When.
        cycle: Cycle,
        /// Which buffer.
        buffer: usize,
        /// Entries holding an arrived block.
        ready: u64,
        /// Entries with a prefetch in flight.
        in_flight: u64,
        /// The buffer's priority counter.
        priority: u64,
    },
    /// A memory access, as the event log prints it.
    Access(MemEvent),
}

/// The kind of an [`Event`]; each has one [`EventKind::bit`] in an
/// interest mask.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// [`Event::Buffer`].
    Buffer,
    /// [`Event::Allocated`].
    Allocated,
    /// [`Event::Evicted`].
    Evicted,
    /// [`Event::Predicted`].
    Predicted,
    /// [`Event::Issued`].
    Issued,
    /// [`Event::Filled`].
    Filled,
    /// [`Event::Used`].
    Used,
    /// [`Event::Raced`].
    Raced,
    /// [`Event::Occupancy`].
    Occupancy,
    /// [`Event::Access`].
    Access,
}

impl EventKind {
    /// This kind's bit in an interest mask.
    pub const fn bit(self) -> u32 {
        1 << self as u32
    }
}

impl Event {
    /// This event's kind.
    pub const fn kind(&self) -> EventKind {
        match self {
            Event::Buffer { .. } => EventKind::Buffer,
            Event::Allocated { .. } => EventKind::Allocated,
            Event::Evicted { .. } => EventKind::Evicted,
            Event::Predicted { .. } => EventKind::Predicted,
            Event::Issued { .. } => EventKind::Issued,
            Event::Filled { .. } => EventKind::Filled,
            Event::Used { .. } => EventKind::Used,
            Event::Raced { .. } => EventKind::Raced,
            Event::Occupancy { .. } => EventKind::Occupancy,
            Event::Access(_) => EventKind::Access,
        }
    }
}

/// A subscriber to the event stream.
///
/// Every method has a default, so an empty impl is a complete sink: it
/// takes every kind and ignores it.
pub trait StreamObs {
    /// Receives one event. Emitters skip the kinds outside
    /// [`StreamObs::interest`], but a sink shared behind a fan-out may
    /// still be handed them and ignores what it does not use.
    fn emit(&self, event: &Event) {
        let _ = event;
    }

    /// The kinds this sink wants, as [`EventKind::bit`]s. Emitters read
    /// it once, at attach time. The default is every kind.
    fn interest(&self) -> u32 {
        u32::MAX
    }

    /// A counter handle for `name`. The default hands back a detached
    /// counter that counts into the void.
    fn counter(&self, name: &str) -> Counter {
        let _ = name;
        Counter::new()
    }
}

impl fmt::Debug for dyn StreamObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("dyn StreamObs")
    }
}

/// A shared, cheaply cloneable sink handle. `Rc` (not `Arc`): sinks are
/// single-threaded by design, one per sweep worker.
pub type SharedStreamObs = Rc<dyn StreamObs>;

/// An attached sink with its interest mask, read once at attach time.
/// The detached default wants nothing, so until something is attached
/// each emission site costs one branch.
#[derive(Clone, Debug, Default)]
pub struct Emitter {
    sink: Option<SharedStreamObs>,
    interest: u32,
}

impl Emitter {
    /// Attaches `sink`.
    pub fn new(sink: SharedStreamObs) -> Emitter {
        Emitter { interest: sink.interest(), sink: Some(sink) }
    }

    /// True once a sink is attached.
    pub fn is_attached(&self) -> bool {
        self.sink.is_some()
    }

    /// True when the sink wants events of `kind`.
    #[inline]
    pub fn wants(&self, kind: EventKind) -> bool {
        self.interest & kind.bit() != 0
    }

    /// Hands `event` to the sink if it wants the kind.
    #[inline]
    pub fn emit(&self, event: Event) {
        if self.wants(event.kind()) {
            if let Some(sink) = &self.sink {
                sink.emit(&event);
            }
        }
    }
}

/// How a memory access was resolved, or which lifecycle step a log line
/// reports.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum MemEventKind {
    /// Demand load hit the L1.
    L1Hit,
    /// Demand access merged with an in-flight fill.
    L1InFlight,
    /// Demand miss found the block resident in a stream/prefetch buffer.
    SbHitReady,
    /// Demand miss found the block in flight to a stream/prefetch buffer.
    SbHitInFlight,
    /// Demand miss rescued by the victim cache.
    VictimHit,
    /// Demand miss fetched from the L2.
    DemandL2,
    /// Demand miss fetched from main memory.
    DemandMemory,
    /// Store miss (write-allocate fetch, nothing waits on it).
    StoreMiss,
    /// Prefetch issued by the prefetch engine.
    Prefetch,
    /// Instruction-fetch miss.
    IFetchMiss,
    /// Prefetched block arrived in its stream buffer ([`Event::Filled`]).
    PrefetchFilled,
    /// Prefetched block was displaced by a stream reallocation before any
    /// demand access touched it, a wasted prefetch ([`Event::Evicted`]).
    PrefetchEvictedUnused,
    /// Demand access consumed a prefetch that was still in flight: the
    /// prefetch was useful but late ([`Event::Used`] with `late_by > 0`).
    PrefetchLate,
}

impl fmt::Display for MemEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemEventKind::L1Hit => "l1-hit",
            MemEventKind::L1InFlight => "l1-inflight",
            MemEventKind::SbHitReady => "sb-hit",
            MemEventKind::SbHitInFlight => "sb-inflight",
            MemEventKind::VictimHit => "victim-hit",
            MemEventKind::DemandL2 => "demand-l2",
            MemEventKind::DemandMemory => "demand-mem",
            MemEventKind::StoreMiss => "store-miss",
            MemEventKind::Prefetch => "prefetch",
            MemEventKind::IFetchMiss => "ifetch-miss",
            MemEventKind::PrefetchFilled => "pf-filled",
            MemEventKind::PrefetchEvictedUnused => "pf-evicted",
            MemEventKind::PrefetchLate => "pf-late",
        };
        f.write_str(s)
    }
}

/// One line of the memory event log.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemEvent {
    /// Cycle the access was made.
    pub cycle: Cycle,
    /// PC of the instruction, when applicable.
    pub pc: Option<Addr>,
    /// The accessed (or prefetched) address.
    pub addr: Addr,
    /// Cycle the data is available.
    pub ready: Cycle,
    /// How it resolved.
    pub kind: MemEventKind,
}

impl fmt::Display for MemEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cy{:<8} {:<12} addr={:<12}", self.cycle.raw(), self.kind, self.addr)?;
        if let Some(pc) = self.pc {
            write!(f, " pc={pc}")?;
        }
        write!(f, " ready=cy{} (+{})", self.ready.raw(), self.ready.since(self.cycle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Records every event it is handed.
    #[derive(Default)]
    struct Tape(RefCell<Vec<Event>>);

    impl StreamObs for Tape {
        fn emit(&self, event: &Event) {
            self.0.borrow_mut().push(*event);
        }
        fn interest(&self) -> u32 {
            EventKind::Used.bit() | EventKind::Access.bit()
        }
    }

    fn use_event(late_by: u64) -> Event {
        Event::Used { cycle: Cycle::new(9), buffer: 1, block: Addr::new(0x40), late_by }
    }

    #[test]
    fn kinds_have_distinct_bits() {
        let bits = [
            EventKind::Buffer,
            EventKind::Allocated,
            EventKind::Evicted,
            EventKind::Predicted,
            EventKind::Issued,
            EventKind::Filled,
            EventKind::Used,
            EventKind::Raced,
            EventKind::Occupancy,
            EventKind::Access,
        ]
        .map(EventKind::bit);
        let all = bits.iter().fold(0, |m, b| m | b);
        assert_eq!(all.count_ones() as usize, bits.len());
        assert_eq!(use_event(0).kind(), EventKind::Used);
    }

    #[test]
    fn emitter_delivers_only_wanted_kinds() {
        let tape = Rc::new(Tape::default());
        let emitter = Emitter::new(tape.clone());
        assert!(emitter.is_attached());
        assert!(emitter.wants(EventKind::Used) && !emitter.wants(EventKind::Filled));
        emitter.emit(Event::Buffer { buffer: 0 });
        emitter.emit(use_event(3));
        assert_eq!(*tape.0.borrow(), [use_event(3)]);
    }

    #[test]
    fn detached_emitter_and_default_sink_are_silent() {
        let detached = Emitter::default();
        assert!(!detached.is_attached() && !detached.wants(EventKind::Used));
        detached.emit(use_event(0));

        struct Null;
        impl StreamObs for Null {}
        let null: SharedStreamObs = Rc::new(Null);
        assert_eq!(null.interest(), u32::MAX, "an empty impl takes every kind");
        null.emit(&use_event(0));
        let c = null.counter("anything");
        c.inc();
        assert_eq!(c.get(), 1, "detached counters still count locally");
        assert_eq!(format!("{:?}", &*null), "dyn StreamObs");
    }
}
