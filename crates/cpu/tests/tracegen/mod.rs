//! Pseudo-random well-formed traces for the pipeline suites, generated
//! from fixed seeds with the workspace PRNG so every suite runs offline.
//! Shared by `properties.rs` and `differential.rs`.

use psb_common::{Addr, SplitMix64};
use psb_cpu::{BranchInfo, BranchKind, DynInst, Op, Reg};

/// One abstract instruction choice; lowered to a consistent trace.
#[derive(Clone, Debug)]
pub enum Item {
    Alu { dst: u8, src: u8 },
    Fp { op: u8, dst: u8, src: u8 },
    Load { dst: u8, base: u8, slot: u16 },
    Store { data: u8, slot: u16 },
    CondBranch { taken: bool },
}

/// One item; loads and stores pick one of `slots` 8-byte slots, so a
/// small `slots` makes stores and loads alias often.
fn item(rng: &mut SplitMix64, slots: u64) -> Item {
    match rng.below(5) {
        0 => Item::Alu { dst: rng.below(32) as u8, src: rng.below(32) as u8 },
        1 => {
            Item::Fp { op: rng.below(6) as u8, dst: rng.below(32) as u8, src: rng.below(32) as u8 }
        }
        2 => Item::Load {
            dst: rng.below(32) as u8,
            base: rng.below(32) as u8,
            slot: rng.below(slots) as u16,
        },
        3 => Item::Store { data: rng.below(32) as u8, slot: rng.below(slots) as u16 },
        _ => Item::CondBranch { taken: rng.below(2) == 0 },
    }
}

/// Between 1 and `max - 1` items over `slots` memory slots (at most
/// 2^16).
pub fn items(rng: &mut SplitMix64, max: u64, slots: u64) -> Vec<Item> {
    let n = 1 + rng.below(max - 1);
    (0..n).map(|_| item(rng, slots)).collect()
}

/// Lowers abstract items to a control-flow-consistent trace: every branch
/// jumps forward by 8 bytes (skipping one padding ALU when taken).
pub fn lower(items: &[Item]) -> Vec<DynInst> {
    let mut pc = Addr::new(0x10_0000);
    let mut out = Vec::new();
    for it in items {
        match *it {
            Item::Alu { dst, src } => {
                out.push(DynInst::alu(pc, Reg::new(dst), Some(Reg::new(src)), None));
                pc = pc.offset(4);
            }
            Item::Fp { op, dst, src } => {
                let op = match op % 6 {
                    0 => Op::FpAdd,
                    1 => Op::FpMult,
                    2 => Op::FpDiv,
                    3 => Op::IntMult,
                    4 => Op::IntDiv,
                    _ => Op::IntAlu,
                };
                out.push(DynInst {
                    pc,
                    op,
                    dst: Some(Reg::new(dst)),
                    src1: Some(Reg::new(src)),
                    src2: None,
                    mem_addr: None,
                    mem_size: 0,
                    branch: None,
                });
                pc = pc.offset(4);
            }
            Item::Load { dst, base, slot } => {
                let addr = Addr::new(0x20_0000 + slot as u64 * 8);
                out.push(DynInst::load(pc, Reg::new(dst), Some(Reg::new(base)), addr, 8));
                pc = pc.offset(4);
            }
            Item::Store { data, slot } => {
                let addr = Addr::new(0x20_0000 + slot as u64 * 8);
                out.push(DynInst::store(pc, Some(Reg::new(data)), None, addr, 8));
                pc = pc.offset(4);
            }
            Item::CondBranch { taken } => {
                let target = pc.offset(8);
                out.push(DynInst::branch(
                    pc,
                    Some(Reg::new(1)),
                    BranchInfo { kind: BranchKind::Conditional, taken, target },
                ));
                if taken {
                    pc = target;
                } else {
                    pc = pc.offset(4);
                    out.push(DynInst::alu(pc, Reg::new(0), None, None));
                    pc = pc.offset(4);
                }
            }
        }
    }
    out
}
