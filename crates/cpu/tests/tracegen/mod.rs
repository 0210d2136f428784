//! Pseudo-random well-formed traces for the pipeline suites, generated
//! from fixed seeds with the workspace PRNG so every suite runs offline.
//! Shared by `properties.rs` and `differential.rs`.

use psb_common::{Addr, SplitMix64};
use psb_cpu::{BranchInfo, BranchKind, DynInst, Op, Reg};

/// Which instruction shapes the generator draws. Both draw the same
/// item mix; `Narrow` draws exactly the random numbers it always has, so
/// existing seeds keep their traces.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Shapes {
    /// Aligned 8-byte accesses, one-source ALU ops and stores without a
    /// base register.
    Narrow,
    /// Also 1-, 2-, 4- and 8-byte accesses at byte offsets inside a slot
    /// (so accesses overlap partially), two-source ALU ops that sometimes
    /// name one register twice, and stores with an optional base
    /// register.
    Wide,
}

/// One abstract instruction choice; lowered to a consistent trace.
#[derive(Clone, Debug)]
pub enum Item {
    Alu { dst: u8, src: u8, src2: Option<u8> },
    Fp { op: u8, dst: u8, src: u8 },
    Load { dst: u8, base: u8, at: Access },
    Store { data: u8, base: Option<u8>, at: Access },
    CondBranch { taken: bool },
}

/// Where a load or store goes: `size` bytes at byte `offset` of an
/// 8-byte `slot`, never crossing the slot's end.
#[derive(Copy, Clone, Debug)]
pub struct Access {
    pub slot: u16,
    pub offset: u8,
    pub size: u8,
}

impl Access {
    /// One of `slots` slots; `Wide` also draws the size and offset.
    fn draw(rng: &mut SplitMix64, slots: u64, shapes: Shapes) -> Access {
        let slot = rng.below(slots) as u16;
        if shapes == Shapes::Narrow {
            return Access { slot, offset: 0, size: 8 };
        }
        let size = 1u8 << rng.below(4);
        let offset = rng.below(u64::from(9 - size)) as u8;
        Access { slot, offset, size }
    }

    fn addr(self) -> Addr {
        Addr::new(0x20_0000 + u64::from(self.slot) * 8 + u64::from(self.offset))
    }
}

/// One item; loads and stores pick one of `slots` 8-byte slots, so a
/// small `slots` makes stores and loads alias often.
fn item(rng: &mut SplitMix64, slots: u64, shapes: Shapes) -> Item {
    let wide = shapes == Shapes::Wide;
    match rng.below(5) {
        0 => {
            let (dst, src) = (rng.below(32) as u8, rng.below(32) as u8);
            let src2 = match wide.then(|| rng.below(3)) {
                None | Some(0) => None,
                Some(1) => Some(src),
                _ => Some(rng.below(32) as u8),
            };
            Item::Alu { dst, src, src2 }
        }
        1 => {
            Item::Fp { op: rng.below(6) as u8, dst: rng.below(32) as u8, src: rng.below(32) as u8 }
        }
        2 => Item::Load {
            dst: rng.below(32) as u8,
            base: rng.below(32) as u8,
            at: Access::draw(rng, slots, shapes),
        },
        3 => {
            let data = rng.below(32) as u8;
            let at = Access::draw(rng, slots, shapes);
            let base = (wide && rng.below(2) == 0).then(|| rng.below(32) as u8);
            Item::Store { data, base, at }
        }
        _ => Item::CondBranch { taken: rng.below(2) == 0 },
    }
}

/// Between 1 and `max - 1` items over `slots` memory slots (at most
/// 2^16).
pub fn items(rng: &mut SplitMix64, max: u64, slots: u64, shapes: Shapes) -> Vec<Item> {
    let n = 1 + rng.below(max - 1);
    (0..n).map(|_| item(rng, slots, shapes)).collect()
}

/// Lowers abstract items to a control-flow-consistent trace: every branch
/// jumps forward by 8 bytes (skipping one padding ALU when taken).
pub fn lower(items: &[Item]) -> Vec<DynInst> {
    let mut pc = Addr::new(0x10_0000);
    let mut out = Vec::new();
    let reg = |r: u8| Reg::new(r);
    for it in items {
        match *it {
            Item::Alu { dst, src, src2 } => {
                out.push(DynInst::alu(pc, reg(dst), Some(reg(src)), src2.map(reg)));
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
                    dst: Some(reg(dst)),
                    src1: Some(reg(src)),
                    src2: None,
                    mem_addr: None,
                    mem_size: 0,
                    branch: None,
                });
                pc = pc.offset(4);
            }
            Item::Load { dst, base, at } => {
                out.push(DynInst::load(pc, reg(dst), Some(reg(base)), at.addr(), at.size));
                pc = pc.offset(4);
            }
            Item::Store { data, base, at } => {
                out.push(DynInst::store(pc, Some(reg(data)), base.map(reg), at.addr(), at.size));
                pc = pc.offset(4);
            }
            Item::CondBranch { taken } => {
                let target = pc.offset(8);
                out.push(DynInst::branch(
                    pc,
                    Some(reg(1)),
                    BranchInfo { kind: BranchKind::Conditional, taken, target },
                ));
                if taken {
                    pc = target;
                } else {
                    pc = pc.offset(4);
                    out.push(DynInst::alu(pc, reg(0), None, None));
                    pc = pc.offset(4);
                }
            }
        }
    }
    out
}
