//! Microbenchmark: the Chrome trace, in host nanoseconds per prefetch
//! event, from `Obs::emit` with tracing on to the rendered JSON text.
//!
//! The event mix follows a health run under ConfAlloc-Priority, where
//! occupancy samples, predictions and issues dominate the trace: every
//! prefetch is predicted, issued, filled and sampled twice; two in three
//! are used (some late) and the third is evicted unused; a stream is
//! reallocated every 32 prefetches and a demand races one in 16.
//! `Filled` is counted by the hub but is not a trace record.

use psb_bench::micro::{bench_per, group};
use psb_common::event::{Event, StreamObs};
use psb_common::{Addr, Cycle};
use psb_obs::Obs;
use std::hint::black_box;

/// Stream buffers in the baseline machine.
const BUFFERS: u64 = 8;

/// Prefetches in one iteration's event stream.
const PREFETCHES: u64 = 1024;

fn lifecycle_events() -> Vec<Event> {
    let mut out: Vec<Event> =
        (0..BUFFERS as usize).map(|buffer| Event::Buffer { buffer }).collect();
    for i in 0..PREFETCHES {
        let buffer = (i % BUFFERS) as usize;
        let at = |k: u64| Cycle::new(40 * i + k);
        let block = Addr::new(0x1000_0000 + 64 * i);
        if i % 32 == 0 {
            let pc = Addr::new(0x40_0000 + 4 * i);
            out.push(Event::Allocated { cycle: at(0), buffer, pc, confidence: 3, displaced: 1 });
        }
        let occupancy = |k, ready, in_flight| Event::Occupancy {
            cycle: at(k),
            buffer,
            ready,
            in_flight,
            priority: i % 16,
        };
        out.push(Event::Predicted { cycle: at(1), buffer, block });
        out.push(Event::Issued { cycle: at(2), buffer, block, ready: at(38) });
        out.push(occupancy(2, 1, 1));
        out.push(Event::Filled { cycle: at(38), buffer, block });
        out.push(occupancy(38, 2, 0));
        if i % 3 == 2 {
            out.push(Event::Evicted { cycle: at(39), buffer, block });
        } else {
            out.push(Event::Used { cycle: at(39), buffer, block, late_by: i % 4 * 5 });
        }
        if i % 16 == 7 {
            out.push(Event::Raced { cycle: at(39), buffer, block: block.offset(64) });
        }
    }
    out
}

fn main() {
    group("obs");
    let events = lifecycle_events();
    bench_per("obs_trace_event", events.len() as u64, || {
        let obs = Obs::new();
        obs.enable_trace(1 << 20);
        for event in &events {
            obs.emit(black_box(event));
        }
        black_box(obs.trace_json().map(|trace| trace.to_string()));
    });
    println!("(basis: {} events sent per iter)", events.len());
    if let Err(e) = psb_bench::micro::write_json_default() {
        eprintln!("{}: {e}", psb_bench::micro::BENCH_JSON);
    }
}
