//! Property-style tests for the shared primitives, driven by the
//! crate's own deterministic PRNG so they run offline with no external
//! test framework. Each test sweeps a few hundred pseudo-random cases
//! from fixed seeds; failures print the derived seed for replay.

use psb_common::stats::{Histogram, RunningMean};
use psb_common::{Addr, BlockAddr, SatCounter, SplitMix64};

const CASES: u64 = 200;

#[test]
fn below_always_in_bounds() {
    let mut meta = SplitMix64::new(0xA11CE);
    for case in 0..CASES {
        let seed = meta.next_u64();
        let bound = meta.next_u64().max(1);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..32 {
            let v = rng.below(bound);
            assert!(v < bound, "case {case}: {v} >= {bound}");
        }
    }
}

#[test]
fn range_always_in_bounds() {
    let mut meta = SplitMix64::new(0xB0B);
    for case in 0..CASES {
        let seed = meta.next_u64();
        let lo = meta.below(1 << 60);
        let span = meta.below(1 << 30).max(1);
        let hi = lo + span;
        let mut rng = SplitMix64::new(seed);
        for _ in 0..16 {
            let v = rng.range(lo, hi);
            assert!((lo..hi).contains(&v), "case {case}: {v} outside [{lo},{hi})");
        }
    }
}

#[test]
fn shuffle_is_permutation() {
    let mut meta = SplitMix64::new(0x5487);
    for case in 0..CASES {
        let seed = meta.next_u64();
        let len = meta.below(200) as usize;
        let mut rng = SplitMix64::new(seed);
        let mut v: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..len).collect::<Vec<_>>(), "case {case}");
    }
}

#[test]
fn sat_counter_always_in_range() {
    let mut meta = SplitMix64::new(0xC0DE);
    for case in 0..CASES {
        let max = meta.below(1000) as u32;
        let ops = meta.below(64);
        let mut c = SatCounter::new(max);
        for _ in 0..ops {
            let up = meta.below(2) == 0;
            let n = meta.below(50) as u32;
            if up {
                c.inc_by(n)
            } else {
                c.dec_by(n)
            }
            assert!(c.get() <= max, "case {case}: {} > {max}", c.get());
        }
    }
}

#[test]
fn addr_block_round_trip() {
    let mut meta = SplitMix64::new(0xB10C);
    for case in 0..CASES {
        let raw = meta.below(1 << 48);
        let shift = 4 + meta.below(8) as u32;
        let block_size = 1u64 << shift;
        let a = Addr::new(raw);
        let b = a.block(block_size);
        let base = b.base(block_size);
        assert!(base.raw() <= raw, "case {case}");
        assert!(raw - base.raw() < block_size, "case {case}");
        assert_eq!(base.block(block_size), b, "case {case}");
    }
}

#[test]
fn addr_delta_offset_inverse() {
    let mut meta = SplitMix64::new(0xDE17A);
    for case in 0..CASES {
        let (a, b) = (meta.below(1 << 62), meta.below(1 << 62));
        let (x, y) = (Addr::new(a), Addr::new(b));
        let d = y.delta(x);
        assert_eq!(x.offset(d), y, "case {case}: {a} -> {b}");
    }
}

#[test]
fn block_delta_offset_inverse() {
    let mut meta = SplitMix64::new(0x0FF5E7);
    for case in 0..CASES {
        let (a, b) = (meta.below(1 << 50), meta.below(1 << 50));
        let (x, y) = (BlockAddr(a), BlockAddr(b));
        assert_eq!(x.offset(y.delta(x)), y, "case {case}: {a} -> {b}");
    }
}

#[test]
fn running_mean_bounded_by_min_max() {
    let mut meta = SplitMix64::new(0x3EA9);
    for case in 0..CASES {
        let n = 1 + meta.below(63);
        let mut m = RunningMean::new();
        for _ in 0..n {
            m.add(meta.below(1 << 40));
        }
        let mean = m.mean();
        let min = m.min().expect("at least one sample added") as f64;
        let max = m.max().expect("at least one sample added") as f64;
        assert!(mean >= min - 1e-9, "case {case}");
        assert!(mean <= max + 1e-9, "case {case}");
        assert_eq!(m.count(), n, "case {case}");
    }
}

#[test]
fn histogram_cdf_monotone() {
    let mut meta = SplitMix64::new(0x41570);
    for case in 0..CASES {
        let n = 1 + meta.below(127);
        let mut h = Histogram::new(32);
        for _ in 0..n {
            h.add(meta.below(40));
        }
        let mut prev = 0.0;
        for i in 0..32 {
            let c = h.cdf(i);
            assert!(c >= prev - 1e-12, "case {case}: cdf must be monotone");
            assert!(c <= 1.0 + 1e-12, "case {case}");
            prev = c;
        }
        assert_eq!(h.total(), n, "case {case}");
    }
}
