//! Microbenchmarks: predictor train/predict throughput.

use psb_bench::micro::{bench, group};
use psb_common::{Addr, Cycle, SplitMix64};
use psb_core::{
    MarkovTable, Prefetcher, PsbPrefetcher, SbConfig, SfmPredictor, StreamPredictor, StreamState,
    StrideTable, TestSink,
};
use std::hint::black_box;

fn bench_stride() {
    let mut table = StrideTable::paper_baseline();
    let mut i = 0u64;
    bench("stride_table_train", || {
        i += 1;
        let pc = Addr::new(0x1000 + (i % 256) * 4);
        let addr = Addr::new(0x10_0000 + i * 64);
        black_box(table.train(black_box(pc), black_box(addr)));
        table.confirm(pc, !i.is_multiple_of(3));
    });
}

fn bench_markov() {
    let mut m = MarkovTable::paper_baseline();
    let mut rng = SplitMix64::new(1);
    bench("markov_update_predict", || {
        let from = psb_common::BlockAddr(rng.below(1 << 20));
        let to = from.offset((rng.below(4096) as i64) - 2048);
        m.update(from, to);
        black_box(m.predict(black_box(from)));
    });
}

fn bench_sfm() {
    let mut sfm = SfmPredictor::paper_baseline();
    let mut rng = SplitMix64::new(2);
    bench("sfm_train", || {
        let pc = Addr::new(0x1000 + rng.below(64) * 4);
        let addr = Addr::new(0x10_0000 + rng.below(8192) * 32);
        sfm.train(black_box(pc), black_box(addr));
    });

    let mut sfm = SfmPredictor::paper_baseline();
    for i in 0..4096u64 {
        sfm.train(Addr::new(0x1000), Addr::new(0x10_0000 + (i % 512) * 160));
    }
    let mut state = StreamState::new(Addr::new(0x1000), Addr::new(0x10_0000), 32);
    bench("sfm_predict", || {
        black_box(sfm.predict(black_box(&mut state)));
    });
}

fn warm_psb() -> PsbPrefetcher {
    let mut psb = PsbPrefetcher::psb(SbConfig::psb_conf_priority());
    // Warm: several active streams.
    for s in 0..8u64 {
        let pc = Addr::new(0x1000 + s * 4);
        for i in 0..6u64 {
            psb.train(Cycle::ZERO, pc, Addr::new(0x10_0000 + s * 0x8000 + i * 64));
        }
        psb.allocate(Cycle::ZERO, pc, Addr::new(0x10_0000 + s * 0x8000 + 0x140));
    }
    psb
}

fn bench_psb_engine() {
    let mut psb = warm_psb();
    let mut sink = TestSink::new(16);
    let mut cycle = 0u64;
    bench("psb_tick", || {
        cycle += 1;
        psb.tick(Cycle::new(cycle), &mut sink);
        // Re-warm periodically so the engine never goes fully idle the
        // way criterion's per-batch setup kept it busy.
        if cycle.is_multiple_of(4096) {
            psb = warm_psb();
            sink.fetched.clear();
        }
    });

    let mut psb = PsbPrefetcher::psb(SbConfig::psb_conf_priority());
    let mut i = 0u64;
    bench("psb_lookup_miss", || {
        i += 1;
        black_box(psb.lookup(Cycle::new(i), Addr::new(0x5000_0000 + i * 32)));
    });
}

fn main() {
    group("predictors");
    bench_stride();
    bench_markov();
    bench_sfm();
    bench_psb_engine();
    if let Err(e) = psb_bench::micro::write_json_default() {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
