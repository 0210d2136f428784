//! The metrics registry: named counters, log2-bucketed histograms and
//! sampled gauges behind cheap cloneable handles.
//!
//! Components that want to report a metric ask the [`Registry`] for a
//! handle once, at attach time, and then update the handle on the hot
//! path — an `Rc<Cell<u64>>` increment for counters, a `RefCell` borrow
//! for histograms and gauges. Components that are never attached pay
//! nothing: their `Option<Counter>` fields stay `None`.
//!
//! # Example
//!
//! ```
//! use psb_obs::metrics::Registry;
//!
//! let mut reg = Registry::new();
//! let hits = reg.counter("l1d.victim.rescues");
//! hits.inc();
//! hits.add(2);
//! assert_eq!(hits.get(), 3);
//! // Asking again for the same name returns the same underlying cell.
//! assert_eq!(reg.counter("l1d.victim.rescues").get(), 3);
//! let json = reg.to_json();
//! assert!(json.get("counters").is_some());
//! ```

use crate::json::Json;
use psb_common::stats::{GaugeStats, Log2Histogram};

// The handle types live in psb-common so core crates can report metrics
// without depending on this hub; re-exported here to keep existing
// `psb_obs::metrics::{Counter, Hist, Gauge}` paths working.
pub use psb_common::metrics::{Counter, Gauge, Hist};

/// A named, insertion-ordered collection of metric handles.
///
/// Registering the same name twice returns a handle to the same metric,
/// so independent components can share a series without coordination.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Vec<(String, Counter)>,
    hists: Vec<(String, Hist)>,
    gauges: Vec<(String, Gauge)>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A counter handle for `name`, created on first use.
    pub fn counter(&mut self, name: &str) -> Counter {
        if let Some((_, c)) = self.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::new();
        self.counters.push((name.to_string(), c.clone()));
        c
    }

    /// A histogram handle for `name`, created on first use.
    pub fn hist(&mut self, name: &str) -> Hist {
        if let Some((_, h)) = self.hists.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Hist::new();
        self.hists.push((name.to_string(), h.clone()));
        h
    }

    /// A gauge handle for `name`, created on first use.
    pub fn gauge(&mut self, name: &str) -> Gauge {
        if let Some((_, g)) = self.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge::new();
        self.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// Sets a counter to an absolute value — used to import end-of-run
    /// aggregates from components that keep their own plain stats.
    pub fn record(&mut self, name: &str, value: u64) {
        let c = self.counter(name);
        c.add(value.saturating_sub(c.get()));
    }

    /// Number of registered metrics across all kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.hists.len() + self.gauges.len()
    }

    /// True if nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes every metric, in registration order.
    pub fn to_json(&self) -> Json {
        let counters =
            Json::obj(self.counters.iter().map(|(n, c)| (n.clone(), Json::u64(c.get()))));
        let hists =
            Json::obj(self.hists.iter().map(|(n, h)| (n.clone(), hist_json(&h.snapshot()))));
        let gauges =
            Json::obj(self.gauges.iter().map(|(n, g)| (n.clone(), gauge_json(&g.snapshot()))));
        Json::obj([("counters", counters), ("histograms", hists), ("gauges", gauges)])
    }
}

fn hist_json(snap: &Log2Histogram) -> Json {
    let buckets = Json::arr(snap.nonzero_buckets().map(|(i, count)| {
        let (lo, hi) = Log2Histogram::bucket_range(i);
        Json::obj([("lo", Json::u64(lo)), ("hi", Json::u64(hi)), ("count", Json::u64(count))])
    }));
    Json::obj([
        ("total", Json::u64(snap.total())),
        ("mean", Json::f64(snap.mean())),
        ("max", Json::u64(snap.max().unwrap_or(0))),
        ("buckets", buckets),
    ])
}

fn gauge_json(snap: &GaugeStats) -> Json {
    Json::obj([
        ("last", Json::u64(snap.last().unwrap_or(0))),
        ("min", Json::u64(snap.min().unwrap_or(0))),
        ("max", Json::u64(snap.max().unwrap_or(0))),
        ("mean", Json::f64(snap.mean())),
        ("samples", Json::u64(snap.samples())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let mut reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn registry_json_is_insertion_ordered() {
        let mut reg = Registry::new();
        reg.counter("zeta").add(1);
        reg.counter("alpha").add(2);
        let json = reg.to_json();
        let Json::Obj(ref sections) = json else { panic!("expected object") };
        assert_eq!(sections[0].0, "counters");
        let counters = json.get("counters").unwrap();
        let Json::Obj(pairs) = counters else { panic!("expected object") };
        assert_eq!(pairs[0].0, "zeta");
        assert_eq!(pairs[1].0, "alpha");
    }

    #[test]
    fn hist_json_has_bucket_ranges() {
        let mut reg = Registry::new();
        let h = reg.hist("delay");
        h.observe(5);
        h.observe(6);
        let json = reg.to_json();
        let b = json.get("histograms").and_then(|h| h.get("delay")).unwrap();
        assert_eq!(b.get("total").and_then(Json::as_u64), Some(2));
        let buckets = b.get("buckets").and_then(Json::as_arr).unwrap();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].get("lo").and_then(Json::as_u64), Some(4));
        assert_eq!(buckets[0].get("hi").and_then(Json::as_u64), Some(7));
        assert_eq!(buckets[0].get("count").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn gauge_json_reports_extremes() {
        let mut reg = Registry::new();
        let g = reg.gauge("mshr");
        g.sample(3);
        g.sample(1);
        let json = reg.to_json();
        let v = json.get("gauges").and_then(|g| g.get("mshr")).unwrap();
        assert_eq!(v.get("last").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("max").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("samples").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn record_sets_absolute_value() {
        let mut reg = Registry::new();
        reg.record("total", 10);
        reg.record("total", 25);
        assert_eq!(reg.counter("total").get(), 25);
    }
}
