//! `health` — a hierarchical health-care system simulator (Olden suite).
//!
//! The model: a four-level, four-ary tree of villages, each holding a
//! linked list of patients allocated in shuffled heap order. Every
//! simulated day walks every village's patient list (a serialized pointer
//! chase — each node's address is loaded from the previous node), treats
//! patients, and occasionally transfers one up to the parent village,
//! slowly mutating the lists.
//!
//! What this preserves from the real benchmark: an L1-thrashing linked
//! data structure (~220 KB) traversed repeatedly in a stable but
//! non-strided order — the miss stream a Markov predictor captures and a
//! stride predictor cannot.

use crate::heap::SyntheticHeap;
use crate::trace::TraceBuilder;
use psb_common::{Addr, SplitMix64};
use psb_cpu::DynInst;

/// Code layout (all in one I-cache-friendly 4 KB region).
const DAY: Addr = Addr::new(0x40_0000);
const VILLAGE: Addr = Addr::new(0x40_0040);
const PLOOP: Addr = Addr::new(0x40_0080);
/// Instruction inside the patient loop that the transfer path rejoins.
const PCONT: Addr = Addr::new(0x40_00a8);
/// Per-village scratch state (hot, L1-resident).
const SCRATCH: Addr = Addr::new(0x2000_1000);
const XFER: Addr = Addr::new(0x40_0100);
const VEND: Addr = Addr::new(0x40_0140);

const VILLAGE_LEVELS: usize = 4;
const PATIENT_BYTES: u64 = 64;

struct Village {
    header: Addr,
    parent: Option<usize>,
    patients: Vec<Addr>,
}

/// Generates the `health` trace. `scale` multiplies the number of
/// simulated days (the data footprint is fixed).
pub fn trace(scale: u32) -> Vec<DynInst> {
    let scale = scale.max(1);
    let mut heap = SyntheticHeap::new(Addr::new(0x1000_0000), 0x48_4541); // "HEA"
    let mut rng = SplitMix64::new(2001);

    // Build the village tree: 1 + 4 + 16 + 64 villages.
    let mut villages: Vec<Village> = Vec::new();
    let headers = heap.alloc_array(85, 64);
    let mut idx = 0;
    let mut level_start = vec![0usize];
    for level in 0..VILLAGE_LEVELS {
        let count = 4usize.pow(level as u32);
        for i in 0..count {
            let parent = (level > 0).then(|| level_start[level - 1] + i / 4);
            villages.push(Village { header: headers[idx], parent, patients: Vec::new() });
            idx += 1;
        }
        level_start.push(idx);
    }
    // Patients: more in the leaves, allocated shuffled so list order is
    // decoupled from address order.
    // ~1700 patients x 64 B ≈ 109 KB: several times the 32 KB L1, and a
    // miss working set the 2K-entry Markov table can actually cover (as
    // the paper's programs' hot structures do — Figure 4).
    let mut all_patients = heap.alloc_shuffled(1700, PATIENT_BYTES);
    for (i, v) in villages.iter_mut().enumerate() {
        let n = if i == 0 { 12 } else { 14 + (i % 13) };
        for _ in 0..n {
            if let Some(p) = all_patients.pop() {
                v.patients.push(p);
            }
        }
    }

    let target = 300_000usize * scale as usize;
    let mut b = TraceBuilder::new(DAY);
    let mut pending_transfers: Vec<(usize, usize)> = Vec::new();

    'days: loop {
        b.expect_pc(DAY);
        // Day prologue.
        b.alu(6, None, None);
        b.alu(7, Some(6), None);
        b.store(Some(7), None, Addr::new(0x2000_0000)); // day counter
        b.jump(VILLAGE);

        for v in 0..villages.len() {
            b.expect_pc(VILLAGE);
            // Village prologue: load the header (array-strided).
            b.load(2, Some(6), villages[v].header);
            b.alu(3, Some(2), None);
            b.alu(6, Some(6), None);
            let empty = villages[v].patients.is_empty();
            // Skip empty villages straight to the epilogue.
            b.cond(Some(3), empty, VEND);
            if !empty {
                b.jump(PLOOP);
                let count = villages[v].patients.len();
                for (i, &node) in villages[v].patients.clone().iter().enumerate() {
                    b.expect_pc(PLOOP);
                    // Treat the patient: data load, local bookkeeping in
                    // the (hot, L1-resident) village scratch area, result
                    // write-back, and the chase load.
                    b.load(2, Some(1), node.offset(8));
                    b.load(5, Some(6), SCRATCH.offset((v % 16) as i64 * 8));
                    b.alu(3, Some(2), Some(5));
                    b.alu(3, Some(3), Some(3));
                    b.store(Some(3), Some(1), node.offset(24));
                    b.store(Some(3), Some(6), SCRATCH.offset((v % 16) as i64 * 8));
                    b.alu(4, Some(3), None);
                    b.load(1, Some(1), node);
                    b.alu(4, Some(4), None);
                    // Rare transfer to the parent village.
                    let do_transfer =
                        villages[v].parent.is_some() && count > 4 && i > 0 && rng.chance(1, 64);
                    b.cond(Some(4), do_transfer, XFER);
                    if do_transfer {
                        b.expect_pc(XFER);
                        let parent = villages[v].parent.expect("checked");
                        b.store(Some(3), Some(1), node.offset(16));
                        b.store(Some(4), None, villages[parent].header.offset(24));
                        b.alu(5, Some(4), None);
                        b.jump(PCONT);
                        pending_transfers.push((v, i));
                    }
                    b.expect_pc(PCONT);
                    b.alu(5, Some(4), None);
                    let more = i + 1 < count;
                    b.cond(Some(6), more, PLOOP);
                }
                // Fallthrough after the last patient.
                b.jump(VEND);
            }
            b.expect_pc(VEND);
            // Village epilogue.
            b.alu(8, Some(3), None);
            b.store(Some(8), None, villages[v].header.offset(32));
            let last = v + 1 == villages.len();
            b.cond(Some(6), !last, VILLAGE);
            if last {
                // Apply the day's transfers to the model (lists mutate
                // between days, so the miss stream drifts slowly).
                pending_transfers.sort_by(|a, b| b.cmp(a));
                pending_transfers.dedup_by_key(|&mut (v, _)| v);
                for (v, i) in pending_transfers.drain(..) {
                    if i < villages[v].patients.len() {
                        let node = villages[v].patients.remove(i);
                        let parent = villages[v].parent.expect("transfers need parents");
                        villages[parent].patients.push(node);
                    }
                }
                if b.len() >= target {
                    b.jump(DAY); // halt at a day boundary
                    break 'days;
                }
                b.jump(DAY);
            }
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{validate_trace, TraceMix};

    #[test]
    fn trace_is_control_flow_consistent() {
        let t = trace(1);
        validate_trace(&t).unwrap();
    }

    #[test]
    fn trace_is_deterministic() {
        assert_eq!(trace(1).len(), trace(1).len());
        let a = trace(1);
        let b = trace(1);
        assert_eq!(&a[..200], &b[..200]);
    }

    #[test]
    fn mix_is_pointer_heavy() {
        let t = trace(1);
        let mix = TraceMix::of(&t);
        assert!(mix.load_fraction() > 0.18, "loads {:.3}", mix.load_fraction());
        assert!(mix.load_fraction() < 0.40);
        assert!(mix.store_fraction() > 0.02);
        assert!(mix.store_fraction() < 0.20);
    }

    #[test]
    fn scale_grows_the_trace() {
        assert!(trace(2).len() > trace(1).len());
        assert!(trace(1).len() >= 300_000);
    }

    #[test]
    fn chase_loads_are_serialized() {
        // The pointer-chase load (dst r1, src r1) must be common.
        let t = trace(1);
        let chase = t
            .iter()
            .filter(|i| {
                i.op.is_load()
                    && i.dst == Some(psb_cpu::Reg::new(1))
                    && i.src1 == Some(psb_cpu::Reg::new(1))
            })
            .count();
        let loads = TraceMix::of(&t).loads;
        assert!(chase * 4 > loads, "chase loads {chase} should be a large share of {loads}");
    }

    #[test]
    fn footprint_fits_markov_deltas() {
        // All data addresses within a ~1 MB window keeps block deltas
        // inside 16 bits.
        let t = trace(1);
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for i in &t {
            if let Some(a) = i.mem_addr {
                // Heap region only (globals at 0x2000_0000 are scalars).
                if (0x1000_0000..0x1100_0000).contains(&a.raw()) {
                    lo = lo.min(a.raw());
                    hi = hi.max(a.raw());
                }
            }
        }
        assert!(hi - lo < 1024 * 1024, "span {} too wide", hi - lo);
    }
}
