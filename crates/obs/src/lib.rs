//! `psb-obs` — the simulator's observability layer.
//!
//! A zero-dependency crate providing:
//!
//! * [`metrics`] — a registry of named counters, log2 histograms and
//!   sampled gauges behind cheap cloneable handles,
//! * [`lifecycle`] — prefetch-lifecycle accounting (predicted → issued →
//!   filled → used / used late / evicted unused, or raced),
//! * [`interval`] — per-epoch IPC / miss-rate / accuracy / bus-utilization
//!   time series,
//! * [`trace`] — Chrome trace-event output loadable in Perfetto, one
//!   thread track per stream buffer,
//! * [`json`] — the hand-rolled JSON tree, serializer and parser that
//!   all machine-readable artifacts go through.
//!
//! The [`Obs`] hub ties these together behind one cloneable handle that
//! the simulator owns. It subscribes to the prefetch event stream
//! ([`psb_common::event`]) and hands pre-fetched metrics to the
//! predictors, MSHRs, buses and victim cache. Components hold an
//! `Option` of a metric and emitters a detached event handle, so a run
//! without observability attached pays one branch per would-be event.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Per-epoch interval time series (IPC, miss rate, accuracy, bus).
pub mod interval;
/// Hand-rolled JSON tree, serializer and parser.
pub mod json;
/// Prefetch-lifecycle accounting.
pub mod lifecycle;
/// Named counters, log2 histograms and sampled gauges.
pub mod metrics;
/// Chrome trace-event sink (Perfetto-loadable).
pub mod trace;

pub use interval::{Epoch, IntervalSample, IntervalSampler};
pub use json::Json;
pub use lifecycle::LifecycleStats;
pub use metrics::{Counter, Gauge, Hist, Registry};
pub use trace::TraceSink;

use psb_common::event::{Event, EventKind, StreamObs};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug)]
struct ObsCore {
    registry: Registry,
    lifecycle: LifecycleStats,
    trace: Option<TraceSink>,
    interval: Option<IntervalSampler>,
}

/// The central observability handle.
///
/// Cloning is cheap (one `Rc`); all clones share the same registry,
/// lifecycle counters, trace sink and interval sampler. Every method is
/// safe to call whether or not tracing / interval sampling is enabled —
/// disabled sinks simply ignore the call.
///
/// # Example
///
/// ```
/// use psb_common::event::{Event, StreamObs};
/// use psb_common::{Addr, Cycle};
/// use psb_obs::Obs;
///
/// let obs = Obs::new();
/// obs.enable_trace(1 << 16);
/// obs.enable_interval(10_000);
/// let (buffer, block) = (0, Addr::new(0x4000));
/// obs.emit(&Event::Predicted { cycle: Cycle::new(100), buffer, block });
/// obs.emit(&Event::Issued { cycle: Cycle::new(101), buffer, block, ready: Cycle::new(140) });
/// obs.emit(&Event::Used { cycle: Cycle::new(150), buffer, block, late_by: 0 });
/// let life = obs.lifecycle_json();
/// assert_eq!(life.get("used").and_then(|v| v.as_u64()), Some(1));
/// ```
#[derive(Clone, Debug)]
pub struct Obs {
    inner: Rc<RefCell<ObsCore>>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// Creates a hub with an empty registry and no trace/interval sinks.
    pub fn new() -> Obs {
        Obs {
            inner: Rc::new(RefCell::new(ObsCore {
                registry: Registry::new(),
                lifecycle: LifecycleStats::default(),
                trace: None,
                interval: None,
            })),
        }
    }

    // ---- configuration -------------------------------------------------

    /// Turns on Chrome-trace collection, keeping at most `capacity`
    /// events.
    pub fn enable_trace(&self, capacity: usize) {
        self.inner.borrow_mut().trace = Some(TraceSink::new(capacity));
    }

    /// Turns on interval sampling with epochs of `every` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `every` is 0.
    pub fn enable_interval(&self, every: u64) {
        self.inner.borrow_mut().interval = Some(IntervalSampler::new(every));
    }

    /// Epoch length of the interval sampler, if one is enabled.
    pub fn interval_every(&self) -> Option<u64> {
        self.inner.borrow().interval.as_ref().map(IntervalSampler::every)
    }

    // ---- registry ------------------------------------------------------

    /// A counter handle for `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.borrow_mut().registry.counter(name)
    }

    /// A histogram handle for `name`, created on first use.
    pub fn hist(&self, name: &str) -> Hist {
        self.inner.borrow_mut().registry.hist(name)
    }

    /// A gauge handle for `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.borrow_mut().registry.gauge(name)
    }

    /// Sets counter `name` to an absolute value (end-of-run imports).
    pub fn record(&self, name: &str, value: u64) {
        self.inner.borrow_mut().registry.record(name, value);
    }

    // ---- interval sampling ---------------------------------------------

    /// Feeds the interval sampler one cumulative snapshot (no-op when
    /// sampling is disabled).
    pub fn interval_record(&self, cum: IntervalSample) {
        if let Some(s) = self.inner.borrow_mut().interval.as_mut() {
            s.record(cum);
        }
    }

    // ---- draining / output ---------------------------------------------

    /// Copies out the aggregate lifecycle counters.
    pub fn lifecycle_stats(&self) -> LifecycleStats {
        self.inner.borrow().lifecycle.clone()
    }

    /// Serializes the lifecycle counters.
    pub fn lifecycle_json(&self) -> Json {
        self.inner.borrow().lifecycle.to_json()
    }

    /// Serializes the metrics registry.
    pub fn registry_json(&self) -> Json {
        self.inner.borrow().registry.to_json()
    }

    /// Serializes the interval series (empty array when disabled).
    pub fn epochs_json(&self) -> Json {
        match self.inner.borrow().interval.as_ref() {
            Some(s) => s.to_json(),
            None => Json::arr([]),
        }
    }

    /// Serializes the Chrome trace, if tracing was enabled.
    pub fn trace_json(&self) -> Option<Json> {
        self.inner.borrow().trace.as_ref().map(TraceSink::to_json)
    }
}

/// The hub subscribes to the prefetch event stream: lifecycle events
/// feed the counters, and with tracing on the trace sink keeps them to
/// render as Chrome-trace records, one track per stream buffer.
impl StreamObs for Obs {
    fn emit(&self, event: &Event) {
        let mut core = self.inner.borrow_mut();
        let core = &mut *core;
        let life = &mut core.lifecycle;
        match *event {
            Event::Allocated { displaced, .. } => {
                life.streams_allocated += 1;
                life.evicted_unused += displaced;
            }
            Event::Predicted { .. } => life.predicted += 1,
            Event::Issued { .. } => life.issued += 1,
            Event::Filled { .. } => life.filled += 1,
            Event::Used { late_by, .. } => {
                life.used += 1;
                if late_by > 0 {
                    life.used_late += 1;
                    life.late_cycles.add(late_by);
                }
            }
            Event::Raced { .. } => life.demand_raced += 1,
            _ => {}
        }
        if let Some(t) = core.trace.as_mut() {
            t.record(event);
        }
    }

    /// Every kind but accesses; the kinds only the trace shows are
    /// wanted only while tracing.
    fn interest(&self) -> u32 {
        let traced =
            EventKind::Buffer.bit() | EventKind::Evicted.bit() | EventKind::Occupancy.bit();
        let all = !EventKind::Access.bit();
        if self.inner.borrow().trace.is_some() {
            all
        } else {
            all & !traced
        }
    }

    fn counter(&self, name: &str) -> Counter {
        Obs::counter(self, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_common::{Addr, Cycle};

    fn at(cycle: u64) -> Cycle {
        Cycle::new(cycle)
    }

    fn use_event(cycle: u64, block: u64, late_by: u64) -> Event {
        Event::Used { cycle: at(cycle), buffer: 2, block: Addr::new(block), late_by }
    }

    #[test]
    fn clones_share_state() {
        let a = Obs::new();
        let b = a.clone();
        a.emit(&Event::Predicted { cycle: at(1), buffer: 0, block: Addr::new(0x100) });
        b.emit(&Event::Predicted { cycle: at(2), buffer: 1, block: Addr::new(0x200) });
        assert_eq!(a.lifecycle_stats().predicted, 2);
    }

    #[test]
    fn late_use_counts() {
        let obs = Obs::new();
        obs.emit(&use_event(50, 0x40, 12));
        obs.emit(&use_event(60, 0x80, 0));
        let s = obs.lifecycle_stats();
        assert_eq!(s.used, 2);
        assert_eq!(s.used_late, 1);
        assert_eq!(s.late_cycles.mean(), 12.0);
    }

    #[test]
    fn every_lifecycle_event_lands_in_its_counter() {
        let obs = Obs::new();
        let (buffer, block) = (0, Addr::new(0x40));
        for event in [
            Event::Allocated {
                cycle: at(1),
                buffer,
                pc: Addr::new(0x400),
                confidence: 3,
                displaced: 2,
            },
            Event::Predicted { cycle: at(2), buffer, block },
            Event::Issued { cycle: at(3), buffer, block, ready: at(13) },
            Event::Filled { cycle: at(13), buffer, block },
            Event::Raced { cycle: at(14), buffer, block },
        ] {
            obs.emit(&event);
        }
        let s = obs.lifecycle_stats();
        assert_eq!((s.streams_allocated, s.evicted_unused), (1, 2));
        assert_eq!((s.predicted, s.issued, s.filled, s.demand_raced), (1, 1, 1, 1));
    }

    #[test]
    fn interest_adds_the_traced_kinds_while_tracing() {
        let obs = Obs::new();
        let traced =
            EventKind::Buffer.bit() | EventKind::Evicted.bit() | EventKind::Occupancy.bit();
        let counted = obs.interest();
        for kind in [EventKind::Allocated, EventKind::Predicted, EventKind::Issued] {
            assert_ne!(counted & kind.bit(), 0, "{kind:?}");
        }
        for kind in [EventKind::Filled, EventKind::Used, EventKind::Raced] {
            assert_ne!(counted & kind.bit(), 0, "{kind:?}");
        }
        assert_eq!(counted & (traced | EventKind::Access.bit()), 0);
        obs.enable_trace(64);
        assert_eq!(obs.interest(), counted | traced);
    }

    #[test]
    fn trace_disabled_events_only_count() {
        let obs = Obs::new();
        let (buffer, block) = (0, Addr::new(0x40));
        obs.emit(&Event::Issued { cycle: at(10), buffer, block, ready: at(50) });
        obs.emit(&Event::Occupancy { cycle: at(10), buffer, ready: 1, in_flight: 1, priority: 3 });
        assert!(obs.trace_json().is_none());
        assert_eq!(obs.lifecycle_stats().issued, 1);
    }

    #[test]
    fn trace_records_complete_event_for_issue() {
        let obs = Obs::new();
        obs.enable_trace(64);
        obs.emit(&Event::Buffer { buffer: 3 });
        obs.emit(&Event::Issued {
            cycle: at(10),
            buffer: 3,
            block: Addr::new(0x40),
            ready: at(46),
        });
        let json = obs.trace_json().unwrap();
        let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let name = events[0].get("args").and_then(|a| a.get("name")).and_then(Json::as_str);
        assert_eq!(name, Some("stream-buffer-3"));
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("dur").and_then(Json::as_u64), Some(36));
        assert_eq!(events[1].get("tid").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn interval_plumbs_through_hub() {
        let obs = Obs::new();
        assert_eq!(obs.interval_every(), None);
        obs.enable_interval(500);
        assert_eq!(obs.interval_every(), Some(500));
        obs.interval_record(IntervalSample { cycle: 500, committed: 250, ..Default::default() });
        let epochs = obs.epochs_json();
        let arr = epochs.as_arr().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("ipc").and_then(Json::as_f64), Some(0.5));
    }
}
