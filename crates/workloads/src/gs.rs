//! `gs` — a Ghostscript (PostScript → JPEG) analog.
//!
//! The model alternates three phases per output band, mirroring the real
//! interpreter's behaviour:
//!
//! 1. **Raster**: strided read-modify-write sweeps over a 64 KB band
//!    buffer (stride-predictor food, FP blending ops).
//! 2. **Display list**: a pointer chase over ~1200 shuffled graphics
//!    objects (Markov-predictor food).
//! 3. **Glyph cache**: hash-scattered loads over a 48 KB region (noise —
//!    trains confidence down for those PCs).
//!
//! What this preserves: a *mixed* workload where neither predictor wins
//! alone and useless prefetches are possible, so confidence filtering
//! shows moderate (not dramatic) gains — as in the paper's Figure 5.

use crate::heap::SyntheticHeap;
use crate::trace::TraceBuilder;
use psb_common::{Addr, SplitMix64};
use psb_cpu::{DynInst, Op};

const BAND: Addr = Addr::new(0x43_0000);
const RASTER: Addr = Addr::new(0x43_0040);
const DLIST: Addr = Addr::new(0x43_0080);
const GLYPH: Addr = Addr::new(0x43_00c0);

const BAND_BYTES: u64 = 64 * 1024;
const DLIST_NODES: usize = 1200;
const GLYPH_BYTES: u64 = 48 * 1024;

/// Generates the `gs` trace. `scale` multiplies the number of bands.
pub fn trace(scale: u32) -> Vec<DynInst> {
    let scale = scale.max(1);
    let mut heap = SyntheticHeap::new(Addr::new(0x1000_0000), 0x47_5320); // "GS "
    let mut rng = SplitMix64::new(1988);

    let band_buf = heap.alloc(BAND_BYTES);
    let dlist = heap.alloc_shuffled(DLIST_NODES, 64);
    let glyphs = heap.alloc(GLYPH_BYTES);

    let target = 300_000usize * scale as usize;
    let mut b = TraceBuilder::new(BAND);

    loop {
        b.expect_pc(BAND);
        b.alu(6, None, None);
        b.store(Some(6), None, Addr::new(0x2000_0200));
        b.jump(RASTER);

        // Phase 1: strided sweep, 64-byte steps (2 blocks per step), with
        // a hot palette lookup per pixel group.
        let steps = (BAND_BYTES / 64) as usize;
        for i in 0..steps {
            b.expect_pc(RASTER);
            let a = band_buf.offset(64 * i as i64);
            b.load(2, Some(6), a);
            b.load(5, Some(2), Addr::new(0x2000_0280).offset((i % 32) as i64 * 8));
            b.op(Op::FpMult, 3, Some(2), Some(5));
            b.op(Op::FpAdd, 4, Some(3), Some(4));
            b.store(Some(4), Some(6), a.offset(8));
            b.alu(6, Some(6), None);
            b.cond(Some(6), i + 1 < steps, RASTER);
        }
        b.jump(DLIST);

        // Phase 2: display-list pointer chase with interpreter state.
        for (i, &node) in dlist.iter().enumerate() {
            b.expect_pc(DLIST);
            b.load(2, Some(1), node.offset(8));
            b.load(1, Some(1), node);
            b.load(5, Some(6), Addr::new(0x2000_0300).offset((i % 8) as i64 * 8));
            b.alu(3, Some(2), Some(5));
            b.alu(4, Some(3), None);
            b.cond(Some(6), i + 1 < dlist.len(), DLIST);
        }
        b.jump(GLYPH);

        // Phase 3: hash-scattered glyph lookups.
        for i in 0..400usize {
            b.expect_pc(GLYPH);
            let slot = glyphs.offset((rng.below(GLYPH_BYTES / 8) * 8) as i64);
            b.load(2, Some(5), slot);
            b.alu(5, Some(2), Some(5));
            b.cond(Some(5), i + 1 < 400, GLYPH);
        }

        if b.len() >= target {
            b.jump(BAND);
            break;
        }
        b.jump(BAND);
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
    fn has_strided_and_chased_and_noisy_loads() {
        let t = trace(1);
        // Raster loads at stride 64 within the band buffer.
        let raster: Vec<u64> = t
            .iter()
            .filter(|i| i.op.is_load() && i.pc == RASTER)
            .map(|i| i.mem_addr.unwrap().raw())
            .take(100)
            .collect();
        assert!(raster.windows(2).all(|w| w[1] - w[0] == 64));

        // Chase loads repeat the same irregular order each band.
        let chase: Vec<u64> = t
            .iter()
            .filter(|i| i.op.is_load() && i.pc == DLIST.offset(4))
            .map(|i| i.mem_addr.unwrap().raw())
            .collect();
        assert!(chase.len() >= 2 * DLIST_NODES);
        assert_eq!(&chase[..DLIST_NODES], &chase[DLIST_NODES..2 * DLIST_NODES]);
        let strided =
            chase[..DLIST_NODES].windows(2).filter(|w| w[1].wrapping_sub(w[0]) == 64).count();
        assert!(strided < DLIST_NODES / 4, "chase must not be strided ({strided})");
    }

    #[test]
    fn mix_has_fp_work() {
        let mix = TraceMix::of(&trace(1));
        assert!(mix.fp > 0);
        assert!(mix.load_fraction() > 0.2);
        assert!(mix.store_fraction() > 0.05);
    }

    #[test]
    fn determinism() {
        let a = trace(1);
        let b = trace(1);
        assert_eq!(a.len(), b.len());
        assert_eq!(&a[..100], &b[..100]);
    }
}
