//! Host-time spans recorded around the benchmark's calls into each layer,
//! kept in memory and written as one Chrome trace-event file at the end.

use psb_obs::Json;
use std::time::Instant;

/// One finished span: `[start, start + dur)` in microseconds since the
/// benchmark's epoch, on thread `tid`, caused by the span named `parent`.
#[derive(Clone, Debug)]
pub struct Span {
    name: String,
    parent: String,
    tid: usize,
    start_us: f64,
    dur_us: f64,
}

impl Span {
    /// A span from `start` until now.
    pub fn new(name: &str, parent: &str, tid: usize, epoch: Instant, start: Instant) -> Span {
        Span {
            name: name.to_owned(),
            parent: parent.to_owned(),
            tid,
            start_us: start.duration_since(epoch).as_secs_f64() * 1e6,
            dur_us: start.elapsed().as_secs_f64() * 1e6,
        }
    }
}

/// Renders `spans` as a Chrome trace-event document.
pub fn to_json(spans: &[Span]) -> Json {
    let events = spans.iter().map(|s| {
        Json::obj([
            ("name", Json::str(&s.name)),
            ("ph", Json::str("X")),
            ("ts", Json::f64(s.start_us)),
            ("dur", Json::f64(s.dur_us)),
            ("pid", Json::u64(1)),
            ("tid", Json::u64(s.tid as u64)),
            ("args", Json::obj([("parent", Json::str(&s.parent))])),
        ])
    });
    Json::obj([("traceEvents", Json::arr(events)), ("displayTimeUnit", Json::str("ms"))])
}
