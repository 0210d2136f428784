//! Microbenchmark: the out-of-order pipeline on its own, in host
//! nanoseconds per simulated cycle.
//!
//! The trace stalls like the pointer-chasing benchmarks do. Each loop
//! iteration starts with a load that depends on the previous iteration's
//! load, then a second dependent load, so against a 120-cycle memory the
//! 128-entry ROB fills behind them and most cycles commit nothing. A
//! scheduler whose cost follows the ROB's occupancy rather than the work
//! done shows up here first.

use psb_bench::micro::{bench_per, group};
use psb_common::Addr;
use psb_cpu::{BranchInfo, BranchKind, CpuConfig, DynInst, FixedLatencyMemory, Pipeline, Reg};
use std::hint::black_box;

/// Instructions per loop iteration.
const BODY: u64 = 16;

/// `iterations` passes over a 16-instruction loop body: a chained load,
/// two ALU ops and a second dependent load, a store and a load that
/// forwards from it, eight independent ALU ops, a counter update and
/// the loop-closing jump.
fn stall_trace(iterations: u64) -> Vec<DynInst> {
    let r = Reg::new;
    let mut out = Vec::new();
    for i in 0..iterations {
        let pc = |k: u64| Addr::new(0x40_0000 + 4 * k);
        let node = Addr::new(0x1000_0000 + 64 * ((i * 7919) % 4096));
        let slot = Addr::new(0x2000_0000 + 8 * (i % 64));
        out.push(DynInst::load(pc(0), r(1), Some(r(1)), node, 8));
        out.push(DynInst::alu(pc(1), r(2), Some(r(1)), None));
        out.push(DynInst::alu(pc(2), r(3), Some(r(2)), Some(r(1))));
        out.push(DynInst::load(pc(3), r(4), Some(r(3)), node.offset(8), 8));
        out.push(DynInst::store(pc(4), Some(r(4)), None, slot, 8));
        out.push(DynInst::load(pc(5), r(6), None, slot, 8));
        for k in 6..14 {
            let dst = r(2 + k as u8);
            out.push(DynInst::alu(pc(k), dst, Some(dst), None));
        }
        out.push(DynInst::alu(pc(14), r(7), Some(r(7)), None));
        let back = BranchInfo { kind: BranchKind::Jump, taken: true, target: pc(0) };
        out.push(DynInst::branch(pc(BODY - 1), None, back));
    }
    out
}

fn run(trace: &[DynInst]) -> u64 {
    let mut mem = FixedLatencyMemory::new(120);
    Pipeline::new(CpuConfig::baseline()).run(trace.iter().copied(), &mut mem, u64::MAX).cycles
}

fn main() {
    group("pipeline");
    let trace = stall_trace(256);
    let cycles = run(&trace);
    bench_per("pipeline_stall_cycle", cycles, || {
        black_box(run(black_box(&trace)));
    });
    println!("(basis: {} instructions, {cycles} simulated cycles per iter)", trace.len());
    if let Err(e) = psb_bench::micro::write_json_default() {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
