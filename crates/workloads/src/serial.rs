//! Compact binary serialization for instruction traces.
//!
//! Traces are deterministic, but regenerating a long one takes time and a
//! downstream user may want to archive or exchange the exact instruction
//! stream of an experiment. The format is a tight varint encoding
//! (program counters are mostly `pc + 4`, so delta coding shrinks them to
//! one byte each); a 300k-instruction trace lands around 1–2 MB.
//!
//! # Format (`PSBT` version 1)
//!
//! ```text
//! magic  "PSBT"  4 bytes
//! version u8     = 1
//! count  varint  number of instructions
//! per instruction:
//!   op+flags u8          op in low 4 bits; bits 4..7 = has_dst,
//!                        has_src1, has_src2, has_branch
//!   pc       varint      zigzag delta from previous instruction's pc
//!   dst/src1/src2 u8     only the present ones
//!   mem      (loads/stores) varint zigzag addr delta from previous
//!            mem addr, then u8 size
//!   branch   (branches) u8 kind+taken, varint zigzag target delta
//! ```
//!
//! # Example
//!
//! ```
//! use psb_workloads::{read_trace, write_trace, Benchmark};
//!
//! let trace = Benchmark::Turb3d.trace(1);
//! let mut buf = Vec::new();
//! write_trace(&mut buf, &trace).unwrap();
//! assert_eq!(read_trace(&buf[..]).unwrap(), trace);
//! ```

use psb_common::Addr;
use psb_cpu::{BranchInfo, BranchKind, DynInst, Op, Reg};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"PSBT";
const VERSION: u8 = 1;

fn op_code(op: Op) -> u8 {
    match op {
        Op::IntAlu => 0,
        Op::IntMult => 1,
        Op::IntDiv => 2,
        Op::FpAdd => 3,
        Op::FpMult => 4,
        Op::FpDiv => 5,
        Op::Load => 6,
        Op::Store => 7,
        Op::Branch => 8,
    }
}

fn op_from(code: u8) -> io::Result<Op> {
    Ok(match code {
        0 => Op::IntAlu,
        1 => Op::IntMult,
        2 => Op::IntDiv,
        3 => Op::FpAdd,
        4 => Op::FpMult,
        5 => Op::FpDiv,
        6 => Op::Load,
        7 => Op::Store,
        8 => Op::Branch,
        c => return Err(bad(format!("unknown opcode {c}"))),
    })
}

fn kind_code(k: BranchKind) -> u8 {
    match k {
        BranchKind::Conditional => 0,
        BranchKind::Jump => 1,
        BranchKind::Call => 2,
        BranchKind::Return => 3,
        BranchKind::Indirect => 4,
    }
}

fn kind_from(code: u8) -> io::Result<BranchKind> {
    Ok(match code {
        0 => BranchKind::Conditional,
        1 => BranchKind::Jump,
        2 => BranchKind::Call,
        3 => BranchKind::Return,
        4 => BranchKind::Indirect,
        c => return Err(bad(format!("unknown branch kind {c}"))),
    })
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_varint(w: &mut impl Write, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint(r: &mut impl Read) -> io::Result<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let mut byte = [0u8];
        r.read_exact(&mut byte)?;
        v |= ((byte[0] & 0x7f) as u64) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(bad("varint too long".into()))
}

/// Serializes a trace to `w`.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_trace(mut w: impl Write, trace: &[DynInst]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    write_varint(&mut w, trace.len() as u64)?;
    let mut prev_pc = Addr::new(0);
    let mut prev_mem = Addr::new(0);
    for inst in trace {
        let mut head = op_code(inst.op);
        head |= (inst.dst.is_some() as u8) << 4;
        head |= (inst.src1.is_some() as u8) << 5;
        head |= (inst.src2.is_some() as u8) << 6;
        head |= (inst.branch.is_some() as u8) << 7;
        w.write_all(&[head])?;
        write_varint(&mut w, zigzag(inst.pc.delta(prev_pc)))?;
        prev_pc = inst.pc;
        for r in [inst.dst, inst.src1, inst.src2].into_iter().flatten() {
            w.write_all(&[r.0])?;
        }
        if inst.op.is_mem() {
            let addr = inst.mem_addr.ok_or_else(|| bad("memory op without address".into()))?;
            write_varint(&mut w, zigzag(addr.delta(prev_mem)))?;
            prev_mem = addr;
            w.write_all(&[inst.mem_size])?;
        }
        if let Some(b) = inst.branch {
            w.write_all(&[kind_code(b.kind) | ((b.taken as u8) << 4)])?;
            write_varint(&mut w, zigzag(b.target.delta(inst.pc)))?;
        }
    }
    Ok(())
}

/// Deserializes a trace from `r`.
///
/// # Errors
///
/// Returns `InvalidData` on a malformed stream (bad magic, version,
/// opcode or truncation) or a memory op whose size is not 1, 2, 4 or 8
/// bytes or whose byte range wraps past `u64::MAX`, naming the
/// instruction's index. Propagates reader I/O errors.
pub fn read_trace(mut r: impl Read) -> io::Result<Vec<DynInst>> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a PSBT trace".into()));
    }
    let mut version = [0u8];
    r.read_exact(&mut version)?;
    if version[0] != VERSION {
        return Err(bad(format!("unsupported trace version {}", version[0])));
    }
    let count = read_varint(&mut r)? as usize;
    let mut out = Vec::with_capacity(count.min(1 << 24));
    let mut prev_pc = Addr::new(0);
    let mut prev_mem = Addr::new(0);
    for index in 0..count {
        let mut head = [0u8];
        r.read_exact(&mut head)?;
        let op = op_from(head[0] & 0x0f)?;
        let pc = prev_pc.offset(unzigzag(read_varint(&mut r)?));
        prev_pc = pc;
        let mut reg = |present: bool| -> io::Result<Option<Reg>> {
            if !present {
                return Ok(None);
            }
            let mut b = [0u8];
            r.read_exact(&mut b)?;
            if (b[0] as usize) >= Reg::COUNT {
                return Err(bad(format!("register {} out of range", b[0])));
            }
            Ok(Some(Reg::new(b[0])))
        };
        let dst = reg(head[0] & 0x10 != 0)?;
        let src1 = reg(head[0] & 0x20 != 0)?;
        let src2 = reg(head[0] & 0x40 != 0)?;
        let (mem_addr, mem_size) = if op.is_mem() {
            let addr = prev_mem.offset(unzigzag(read_varint(&mut r)?));
            prev_mem = addr;
            let mut size = [0u8];
            r.read_exact(&mut size)?;
            let size = size[0];
            if !matches!(size, 1 | 2 | 4 | 8) {
                return Err(bad(format!(
                    "instruction {index}: memory size {size} is not 1, 2, 4 or 8"
                )));
            }
            if addr.raw().checked_add(u64::from(size) - 1).is_none() {
                return Err(bad(format!(
                    "instruction {index}: {size}-byte access at {addr} wraps past the address space"
                )));
            }
            (Some(addr), size)
        } else {
            (None, 0)
        };
        let branch = if head[0] & 0x80 != 0 {
            let mut kb = [0u8];
            r.read_exact(&mut kb)?;
            let kind = kind_from(kb[0] & 0x0f)?;
            let taken = kb[0] & 0x10 != 0;
            let target = pc.offset(unzigzag(read_varint(&mut r)?));
            Some(BranchInfo { kind, taken, target })
        } else {
            None
        };
        out.push(DynInst { pc, op, dst, src1, src2, mem_addr, mem_size, branch });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    #[test]
    fn round_trips_every_benchmark() {
        for b in [Benchmark::Health, Benchmark::Sis] {
            let trace = b.trace(1);
            let mut buf = Vec::new();
            write_trace(&mut buf, &trace).unwrap();
            let back = read_trace(&buf[..]).unwrap();
            assert_eq!(back, trace, "{b}");
            // Compact: well under 8 bytes per instruction.
            assert!(
                buf.len() < trace.len() * 8,
                "{b}: {} bytes for {} insts",
                buf.len(),
                trace.len()
            );
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert_eq!(read_trace(&buf[..]).unwrap(), Vec::new());
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&b"NOPE\x01\x00"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_bad_version() {
        let err = read_trace(&b"PSBT\x09\x00"[..]).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn rejects_truncation() {
        let trace = Benchmark::Turb3d.trace(1);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace[..100]).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_trace(&buf[..]).is_err());
    }

    fn load(addr: u64) -> DynInst {
        DynInst::load(Addr::new(0x400), Reg::new(1), None, Addr::new(addr), 8)
    }

    fn encode(trace: &[DynInst]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(&mut buf, trace).unwrap();
        buf
    }

    #[test]
    fn rejects_a_memory_size_other_than_1_2_4_or_8() {
        // A trace that ends in a load ends in that load's size byte.
        let mut buf = encode(&[load(0x1000), load(0x1008)]);
        for size in [1u8, 2, 4, 8] {
            *buf.last_mut().unwrap() = size;
            assert_eq!(read_trace(&buf[..]).unwrap()[1].mem_size, size);
        }
        for size in [0u8, 3, 16, 255] {
            *buf.last_mut().unwrap() = size;
            let err = read_trace(&buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains("instruction 1") && msg.contains(&format!("size {size}")),
                "{msg}"
            );
        }
    }

    #[test]
    fn rejects_an_access_that_wraps_past_the_address_space() {
        assert!(read_trace(&encode(&[load(u64::MAX - 7)])[..]).is_ok(), "last byte is u64::MAX");
        let err = read_trace(&encode(&[load(0x40), load(u64::MAX - 6)])[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("instruction 1") && msg.contains("wraps"), "{msg}");
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut &buf[..]).unwrap(), v);
        }
    }
}
