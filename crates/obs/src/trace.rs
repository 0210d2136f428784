//! Chrome trace-event output (the JSON object format Perfetto loads).
//!
//! The sink keeps the prefetch [`Event`]s it is sent, as plain `Copy`
//! data, and renders each one to its Chrome record only in
//! [`TraceSink::to_json`], as `{"traceEvents": [...]}`. Timestamps are
//! simulated cycles reported in the format's microsecond field, so one
//! trace microsecond equals one simulated cycle. Each stream buffer gets
//! its own thread track (`tid`), named by the standard `M` (metadata)
//! record that [`Event::Buffer`] becomes.
//!
//! Event phases used here:
//!
//! * `X` — complete event with a duration (a prefetch in flight),
//! * `i` — instant event (a demand hit, an eviction),
//! * `C` — counter event (occupancy, priority over time),
//! * `M` — metadata (thread names).
//!
//! # Example
//!
//! ```
//! use psb_common::event::Event;
//! use psb_common::{Addr, Cycle};
//! use psb_obs::trace::TraceSink;
//!
//! let mut t = TraceSink::new(1024);
//! let (buffer, block) = (0, Addr::new(0x40));
//! t.record(&Event::Buffer { buffer });
//! t.record(&Event::Issued { cycle: Cycle::new(100), buffer, block, ready: Cycle::new(145) });
//! t.record(&Event::Used { cycle: Cycle::new(150), buffer, block, late_by: 0 });
//! let json = t.to_json();
//! assert_eq!(json.get("traceEvents").and_then(|e| e.as_arr()).map(|a| a.len()), Some(3));
//! ```

use crate::json::Json;
use psb_common::event::Event;

/// The process id every event reports; the trace models one simulator.
pub const PID: u64 = 1;

/// A bounded sink of Chrome trace events.
///
/// Events past the capacity are dropped (the drop count is reported in
/// the serialized metadata) so tracing a long run cannot exhaust memory.
#[derive(Debug)]
pub struct TraceSink {
    events: Vec<Event>,
    capacity: usize,
    dropped: u64,
}

impl TraceSink {
    /// Creates a sink that keeps at most `capacity` events.
    pub fn new(capacity: usize) -> TraceSink {
        TraceSink { events: Vec::new(), capacity, dropped: 0 }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped after the sink filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Keeps `event` for the trace. [`Event::Filled`] and
    /// [`Event::Access`] have no Chrome record: they are not kept and
    /// count toward neither the capacity nor the drops.
    pub fn record(&mut self, event: &Event) {
        if matches!(event, Event::Filled { .. } | Event::Access(_)) {
            return;
        }
        if self.events.len() >= self.capacity {
            self.dropped += 1;
        } else {
            self.events.push(*event);
        }
    }

    /// Serializes the trace as a Chrome trace-event JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("traceEvents", Json::arr(self.events.iter().map(chrome_record))),
            ("displayTimeUnit", Json::str("ms")),
            (
                "otherData",
                Json::obj([
                    ("clock", Json::str("1 trace us = 1 simulated cycle")),
                    ("dropped_events", Json::u64(self.dropped)),
                ]),
            ),
        ])
    }
}

/// The Chrome record of `event`: an `X` span per prefetch in flight,
/// instants for the other lifecycle steps, a counter track for
/// occupancy and a named track per stream buffer.
fn chrome_record(event: &Event) -> Json {
    match *event {
        Event::Buffer { buffer } => Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::u64(PID)),
            ("tid", Json::u64(buffer as u64)),
            ("args", Json::obj([("name", Json::str(format!("stream-buffer-{buffer}")))])),
        ]),
        Event::Allocated { cycle, buffer, pc, confidence, displaced } => instant(
            "alloc",
            "stream",
            buffer,
            cycle.raw(),
            &[("pc", pc.raw()), ("confidence", confidence), ("displaced", displaced)],
        ),
        Event::Evicted { cycle, buffer, block } => {
            instant("evicted-unused", "prefetch", buffer, cycle.raw(), &[("block", block.raw())])
        }
        Event::Predicted { cycle, buffer, block } => {
            instant("predicted", "prefetch", buffer, cycle.raw(), &[("block", block.raw())])
        }
        Event::Issued { cycle, buffer, block, ready } => Json::obj([
            ("name", Json::str("prefetch")),
            ("cat", Json::str("prefetch")),
            ("ph", Json::str("X")),
            ("ts", Json::u64(cycle.raw())),
            ("dur", Json::u64(ready.raw().saturating_sub(cycle.raw()))),
            ("pid", Json::u64(PID)),
            ("tid", Json::u64(buffer as u64)),
            ("args", args(&[("block", block.raw())])),
        ]),
        Event::Used { cycle, buffer, block, late_by } => {
            let fields = [("block", block.raw()), ("late_by", late_by)];
            instant("used", "demand", buffer, cycle.raw(), &fields)
        }
        Event::Raced { cycle, buffer, block } => {
            instant("demand-raced", "demand", buffer, cycle.raw(), &[("block", block.raw())])
        }
        Event::Occupancy { cycle, buffer, ready, in_flight, priority } => Json::obj([
            ("name", Json::str("occupancy")),
            ("ph", Json::str("C")),
            ("ts", Json::u64(cycle.raw())),
            ("pid", Json::u64(PID)),
            ("tid", Json::u64(buffer as u64)),
            ("args", args(&[("ready", ready), ("in_flight", in_flight), ("priority", priority)])),
        ]),
        // `record` keeps neither kind.
        Event::Filled { .. } | Event::Access(_) => Json::Null,
    }
}

/// An instant record (`i`) on the track of `buffer` at cycle `ts`.
fn instant(name: &str, cat: &str, buffer: usize, ts: u64, fields: &[(&str, u64)]) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("cat", Json::str(cat)),
        ("ph", Json::str("i")),
        ("s", Json::str("t")),
        ("ts", Json::u64(ts)),
        ("pid", Json::u64(PID)),
        ("tid", Json::u64(buffer as u64)),
        ("args", args(fields)),
    ])
}

fn args(fields: &[(&str, u64)]) -> Json {
    Json::obj(fields.iter().map(|&(k, v)| (k, Json::u64(v))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use psb_common::event::{MemEvent, MemEventKind};
    use psb_common::{Addr, Cycle};

    fn at(cycle: u64) -> Cycle {
        Cycle::new(cycle)
    }

    /// One event of every traced kind on stream buffer 7.
    fn one_of_each() -> [Event; 8] {
        let (buffer, block) = (7, Addr::new(0x1f40));
        [
            Event::Buffer { buffer },
            Event::Allocated {
                cycle: at(120),
                buffer,
                pc: Addr::new(0x40_1a2c),
                confidence: 3,
                displaced: 2,
            },
            Event::Evicted { cycle: at(120), buffer, block: Addr::new(0x7fff_ffc0) },
            Event::Predicted { cycle: at(121), buffer, block },
            Event::Issued { cycle: at(122), buffer, block, ready: at(158) },
            Event::Used { cycle: at(150), buffer, block, late_by: 8 },
            Event::Raced { cycle: at(151), buffer, block: Addr::new(0x1f80) },
            Event::Occupancy { cycle: at(152), buffer, ready: 1, in_flight: 2, priority: 5 },
        ]
    }

    /// Each traced kind renders byte for byte the record the sink
    /// rendered when it built its JSON at `emit` time.
    #[test]
    fn every_traced_kind_renders_its_golden_record() {
        let mut t = TraceSink::new(16);
        for e in one_of_each() {
            t.record(&e);
        }
        let golden = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":7,"args":{"name":"stream-buffer-7"}},"#,
            r#"{"name":"alloc","cat":"stream","ph":"i","s":"t","ts":120,"pid":1,"tid":7,"#,
            r#""args":{"pc":4201004,"confidence":3,"displaced":2}},"#,
            r#"{"name":"evicted-unused","cat":"prefetch","ph":"i","s":"t","ts":120,"pid":1,"#,
            r#""tid":7,"args":{"block":2147483584}},"#,
            r#"{"name":"predicted","cat":"prefetch","ph":"i","s":"t","ts":121,"pid":1,"tid":7,"#,
            r#""args":{"block":8000}},"#,
            r#"{"name":"prefetch","cat":"prefetch","ph":"X","ts":122,"dur":36,"pid":1,"tid":7,"#,
            r#""args":{"block":8000}},"#,
            r#"{"name":"used","cat":"demand","ph":"i","s":"t","ts":150,"pid":1,"tid":7,"#,
            r#""args":{"block":8000,"late_by":8}},"#,
            r#"{"name":"demand-raced","cat":"demand","ph":"i","s":"t","ts":151,"pid":1,"tid":7,"#,
            r#""args":{"block":8064}},"#,
            r#"{"name":"occupancy","ph":"C","ts":152,"pid":1,"tid":7,"#,
            r#""args":{"ready":1,"in_flight":2,"priority":5}}],"#,
            r#""displayTimeUnit":"ms","#,
            r#""otherData":{"clock":"1 trace us = 1 simulated cycle","dropped_events":0}}"#,
        );
        assert_eq!(t.to_json().to_string(), golden);
    }

    #[test]
    fn filled_and_access_are_neither_kept_nor_dropped() {
        let (buffer, block) = (0, Addr::new(0x40));
        let access = MemEvent {
            cycle: at(5),
            pc: None,
            addr: block,
            ready: at(9),
            kind: MemEventKind::DemandL2,
        };
        let mut t = TraceSink::new(1);
        t.record(&Event::Buffer { buffer });
        for _ in 0..3 {
            t.record(&Event::Filled { cycle: at(4), buffer, block });
            t.record(&Event::Access(access));
        }
        assert_eq!((t.len(), t.dropped()), (1, 0));
        t.record(&Event::Predicted { cycle: at(6), buffer, block });
        assert_eq!((t.len(), t.dropped()), (1, 1));
    }

    /// A prefetch lifecycle on one buffer track must round-trip through
    /// the parser and carry the fields Perfetto requires (name, ph, ts,
    /// pid, tid; dur for `X`).
    #[test]
    fn trace_is_well_formed() {
        let mut t = TraceSink::new(16);
        for e in one_of_each() {
            t.record(&e);
        }
        let back = parse(&t.to_json().to_string()).expect("trace must re-parse");
        let events = back.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
        assert_eq!(events.len(), 8);
        for e in events {
            assert!(e.get("name").and_then(Json::as_str).is_some(), "every event has a name");
            let ph = e.get("ph").and_then(Json::as_str).expect("every event has a phase");
            assert!(e.get("pid").and_then(Json::as_u64).is_some());
            assert!(e.get("tid").and_then(Json::as_u64).is_some());
            if ph != "M" {
                assert!(e.get("ts").and_then(Json::as_u64).is_some(), "{ph} event has ts");
            }
            if ph == "X" {
                assert!(e.get("dur").and_then(Json::as_u64).is_some(), "X event has dur");
            }
        }
    }

    #[test]
    fn sink_caps_and_counts_drops() {
        let mut t = TraceSink::new(2);
        for i in 0..5 {
            t.record(&Event::Predicted { cycle: at(i), buffer: 0, block: Addr::new(0x40) });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let json = t.to_json();
        let meta = json.get("otherData").unwrap();
        assert_eq!(meta.get("dropped_events").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn empty_sink_serializes() {
        let t = TraceSink::new(8);
        assert!(t.is_empty());
        let text = t.to_json().to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back.get("traceEvents").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
    }
}
