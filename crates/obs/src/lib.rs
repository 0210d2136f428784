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
/// Prometheus text-exposition rendering of registry snapshots.
pub mod prometheus;
/// Chrome trace-event sink (Perfetto-loadable).
pub mod trace;

pub use interval::{Epoch, IntervalSample, IntervalSampler};
pub use json::Json;
pub use lifecycle::LifecycleStats;
pub use metrics::{Counter, Gauge, Hist, Registry, RegistrySnapshot};
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
    epoch_hook: Rc<RefCell<Option<EpochHook>>>,
}

/// A callback fired after every closed interval epoch (see
/// [`Obs::set_epoch_hook`]). Boxed so the hub stays `Debug`.
struct EpochHook(Box<dyn FnMut(&Obs)>);

impl std::fmt::Debug for EpochHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EpochHook(..)")
    }
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
            epoch_hook: Rc::new(RefCell::new(None)),
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
    /// sampling is disabled). When the sample closes an epoch, the
    /// epoch hook (if any) fires after all internal borrows are
    /// released, so the hook may freely call back into the hub.
    pub fn interval_record(&self, cum: IntervalSample) {
        let closed_epoch = {
            let mut core = self.inner.borrow_mut();
            match core.interval.as_mut() {
                Some(s) => {
                    let before = s.epochs().len();
                    s.record(cum);
                    s.epochs().len() > before
                }
                None => false,
            }
        };
        if closed_epoch {
            self.fire_epoch_hook();
        }
    }

    /// Registers a callback fired once per closed interval epoch, with
    /// every internal borrow released — the hook may read any snapshot
    /// accessor on the hub it is handed. Live-serving front ends hang
    /// their periodic publication here (`psbsim --serve`). Replaces any
    /// previous hook; clones of the hub share one hook.
    pub fn set_epoch_hook(&self, hook: impl FnMut(&Obs) + 'static) {
        *self.epoch_hook.borrow_mut() = Some(EpochHook(Box::new(hook)));
    }

    /// Runs the epoch hook, tolerating a hook that replaces itself.
    fn fire_epoch_hook(&self) {
        let taken = self.epoch_hook.borrow_mut().take();
        if let Some(mut hook) = taken {
            (hook.0)(self);
            let mut slot = self.epoch_hook.borrow_mut();
            if slot.is_none() {
                *slot = Some(hook);
            }
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

    /// A consistent, `Send`-able copy of the metrics registry — the
    /// handoff type for a serving thread (see [`Registry::snapshot`]).
    pub fn registry_snapshot(&self) -> metrics::RegistrySnapshot {
        self.inner.borrow().registry.snapshot()
    }

    /// A consistent, `Send`-able copy of the closed interval epochs
    /// (empty when sampling is disabled); never exposes a torn row the
    /// way reading through a live borrow mid-`record` could.
    pub fn epochs_snapshot(&self) -> Vec<Epoch> {
        match self.inner.borrow().interval.as_ref() {
            Some(s) => s.snapshot(),
            None => Vec::new(),
        }
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
/// feed the counters, and with tracing on they also become Chrome-trace
/// records on one track per stream buffer.
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
            trace_event(t, event);
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

/// Writes the Chrome-trace record of `event`: an `X` span per prefetch
/// in flight, instants for the other lifecycle steps, a counter track
/// for occupancy and a named track per stream buffer.
fn trace_event(t: &mut TraceSink, event: &Event) {
    match *event {
        Event::Buffer { buffer } => {
            t.thread_name(buffer as u64, &format!("stream-buffer-{buffer}"));
        }
        Event::Allocated { cycle, buffer, pc, confidence, displaced } => t.instant(
            "alloc",
            "stream",
            buffer as u64,
            cycle.raw(),
            &[("pc", pc.raw()), ("confidence", confidence), ("displaced", displaced)],
        ),
        Event::Evicted { cycle, buffer, block } => {
            let args = [("block", block.raw())];
            t.instant("evicted-unused", "prefetch", buffer as u64, cycle.raw(), &args);
        }
        Event::Predicted { cycle, buffer, block } => {
            t.instant(
                "predicted",
                "prefetch",
                buffer as u64,
                cycle.raw(),
                &[("block", block.raw())],
            );
        }
        Event::Issued { cycle, buffer, block, ready } => t.complete(
            "prefetch",
            "prefetch",
            buffer as u64,
            cycle.raw(),
            ready.raw().saturating_sub(cycle.raw()),
            &[("block", block.raw())],
        ),
        Event::Used { cycle, buffer, block, late_by } => {
            let args = [("block", block.raw()), ("late_by", late_by)];
            t.instant("used", "demand", buffer as u64, cycle.raw(), &args);
        }
        Event::Raced { cycle, buffer, block } => {
            let args = [("block", block.raw())];
            t.instant("demand-raced", "demand", buffer as u64, cycle.raw(), &args);
        }
        Event::Occupancy { cycle, buffer, ready, in_flight, priority } => t.counter(
            "occupancy",
            buffer as u64,
            cycle.raw(),
            &[("ready", ready), ("in_flight", in_flight), ("priority", priority)],
        ),
        Event::Filled { .. } | Event::Access(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_common::{Addr, Cycle};
    use std::cell::Cell;

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
    fn epoch_hook_fires_per_closed_epoch_and_may_reenter() {
        let obs = Obs::new();
        obs.enable_interval(100);
        let fired = Rc::new(Cell::new(0u32));
        let seen_epochs = Rc::new(Cell::new(0usize));
        let f = fired.clone();
        let s = seen_epochs.clone();
        obs.set_epoch_hook(move |hub: &Obs| {
            f.set(f.get() + 1);
            // Re-entering the hub from the hook must not panic on a
            // RefCell borrow — this is the serving publish path.
            s.set(hub.epochs_snapshot().len());
            let _ = hub.registry_snapshot();
        });
        obs.interval_record(IntervalSample { cycle: 100, committed: 10, ..Default::default() });
        obs.interval_record(IntervalSample { cycle: 200, committed: 30, ..Default::default() });
        // A record that closes no epoch must not fire the hook.
        obs.interval_record(IntervalSample { cycle: 200, committed: 30, ..Default::default() });
        assert_eq!(fired.get(), 2);
        assert_eq!(seen_epochs.get(), 2);
    }

    #[test]
    fn epoch_hook_absent_or_sampling_disabled_is_a_noop() {
        let obs = Obs::new();
        // No sampler: nothing to close, nothing to fire.
        obs.set_epoch_hook(|_| panic!("must not fire without a sampler"));
        obs.interval_record(IntervalSample { cycle: 50, committed: 5, ..Default::default() });
        // Sampler without a hook: records fine.
        let plain = Obs::new();
        plain.enable_interval(10);
        plain.interval_record(IntervalSample { cycle: 10, committed: 1, ..Default::default() });
        assert_eq!(plain.epochs_snapshot().len(), 1);
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
