//! `turb3d` — an isotropic-turbulence (SPEC95 FORTRAN) analog: the
//! stride-friendly control case.
//!
//! The model performs stencil-style passes over three 24³ double-precision
//! grids (≈110 KB each), sweeping along the x, y and z axes in turn. The
//! three phases produce unit-block, 192-byte and 4608-byte strides —
//! exactly the access patterns a PC-stride stream buffer captures, which
//! is why the paper expects PSB ≈ PC-stride here ("our PSB architecture
//! achieves basically the same performance as the PC-stride
//! architecture").

use crate::heap::SyntheticHeap;
use crate::trace::TraceBuilder;
use psb_common::Addr;
use psb_cpu::{DynInst, Op};

const TURB: Addr = Addr::new(0x45_0000);
const XLOOP: Addr = Addr::new(0x45_0040);
const YLOOP: Addr = Addr::new(0x45_0080);
const ZLOOP: Addr = Addr::new(0x45_00c0);

const N: usize = 24;

/// Element visit order for each sweep axis (flattened (z,y,x) storage).
fn order(axis: usize) -> Vec<usize> {
    let mut v = Vec::with_capacity(N * N * N);
    match axis {
        0 => {
            // x innermost: consecutive addresses.
            for z in 0..N {
                for y in 0..N {
                    for x in 0..N {
                        v.push((z * N + y) * N + x);
                    }
                }
            }
        }
        1 => {
            // y innermost: stride N elements.
            for z in 0..N {
                for x in 0..N {
                    for y in 0..N {
                        v.push((z * N + y) * N + x);
                    }
                }
            }
        }
        _ => {
            // z innermost: stride N*N elements.
            for y in 0..N {
                for x in 0..N {
                    for z in 0..N {
                        v.push((z * N + y) * N + x);
                    }
                }
            }
        }
    }
    v
}

/// Generates the `turb3d` trace. `scale` multiplies the number of
/// timesteps.
pub fn trace(scale: u32) -> Vec<DynInst> {
    let scale = scale.max(1);
    let mut heap = SyntheticHeap::new(Addr::new(0x1000_0000), 0x54_5552); // "TUR"
    let grid_bytes = (N * N * N * 8) as u64;
    let u = heap.alloc(grid_bytes);
    let v = heap.alloc(grid_bytes);
    let w = heap.alloc(grid_bytes);
    let scratch = heap.alloc(512);

    let orders = [order(0), order(1), order(2)];
    let loops = [XLOOP, YLOOP, ZLOOP];

    let target = 300_000usize * scale as usize;
    let mut b = TraceBuilder::new(TURB);

    'steps: loop {
        b.expect_pc(TURB);
        b.alu(6, None, None);
        b.store(Some(6), None, Addr::new(0x2000_0400));
        b.jump(XLOOP);

        for phase in 0..3 {
            let head = loops[phase];
            let ord = &orders[phase];
            for (i, &idx) in ord.iter().enumerate() {
                b.expect_pc(head);
                let off = idx as i64 * 8;
                // Two strided grid streams (distinct load PCs, as the
                // real code reads several arrays per element) plus a hot
                // 512-byte pencil accumulator.
                let pencil = scratch.offset((i as i64 % 64) * 8);
                b.load(2, Some(6), u.offset(off));
                b.load(3, Some(6), v.offset(off));
                b.load(4, Some(6), pencil);
                b.op(Op::FpMult, 5, Some(2), Some(3));
                b.op(Op::FpAdd, 5, Some(5), Some(4));
                b.store(Some(5), Some(6), pencil);
                // Periodically flush a result line to the output grid.
                let flush = i % 8 == 7;
                b.cond(Some(5), !flush, head.offset(0x24));
                if flush {
                    b.store(Some(5), Some(6), w.offset(off));
                    b.op(Op::FpMult, 4, Some(4), Some(5));
                }
                b.expect_pc(head.offset(0x24));
                b.alu(6, Some(6), None);
                b.cond(Some(6), i + 1 < ord.len(), head);
            }
            // Phase epilogue: fall through to the next phase head.
            match phase {
                0 => b.jump(YLOOP),
                1 => b.jump(ZLOOP),
                _ => {
                    if b.len() >= target {
                        b.jump(TURB);
                        break 'steps;
                    }
                    b.jump(TURB);
                }
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
    fn phases_have_the_expected_strides() {
        let t = trace(1);
        let loads_at = |pc: Addr| -> Vec<u64> {
            t.iter()
                .filter(|i| i.op.is_load() && i.pc == pc)
                .map(|i| i.mem_addr.unwrap().raw())
                .take(200)
                .collect()
        };
        let x = loads_at(XLOOP);
        assert!(x.windows(2).all(|w| w[1] - w[0] == 8), "x sweep is unit stride");
        let y = loads_at(YLOOP);
        let y_strided = y.windows(2).filter(|w| w[1].wrapping_sub(w[0]) == (N as u64) * 8).count();
        assert!(y_strided * 25 > y.len() * 23, "y sweep strides {} bytes", N * 8);
        let z = loads_at(ZLOOP);
        let z_stride = (N * N * 8) as u64;
        let z_strided = z.windows(2).filter(|w| w[1].wrapping_sub(w[0]) == z_stride).count();
        assert!(z_strided * 25 > z.len() * 23, "z sweep strides {z_stride} bytes");
    }

    #[test]
    fn fortran_like_mix() {
        let mix = TraceMix::of(&trace(1));
        assert!(mix.load_fraction() > 0.2, "loads {:.3}", mix.load_fraction());
        assert!(mix.store_fraction() > 0.1);
        assert!(mix.fp as f64 / mix.total as f64 > 0.2, "fp-heavy");
    }

    #[test]
    fn branches_are_highly_biased() {
        let t = trace(1);
        let (mut taken, mut total) = (0u64, 0u64);
        for i in &t {
            if let Some(bi) = i.branch {
                total += 1;
                taken += bi.taken as u64;
            }
        }
        assert!(taken as f64 / total as f64 > 0.9, "loop back-edges dominate");
    }

    #[test]
    fn determinism() {
        let a = trace(1);
        let b = trace(1);
        assert_eq!(a.len(), b.len());
        assert_eq!(&a[..100], &b[..100]);
    }
}
