//! Shared plumbing for the experiment binaries that regenerate the
//! paper's tables and figures.
//!
//! `views GRID OUTDIR` renders Table 2, Figures 5–9 and the prior-art
//! comparison from a `psb-sweep-v1` grid (see `psb_sim::VIEWS`). The
//! artifacts whose numbers are not all cells of that grid (`fig4`,
//! `fig10`, `fig11` and the `ablate_*` ablations) have a binary each:
//! `cargo run --release -p psb-bench --bin <name> [scale]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Pure-std microbenchmark harness used by the `benches/` binaries.
pub mod micro;

use psb_common::Addr;
use psb_cpu::DynInst;
use psb_mem::{Cache, CacheConfig};
use psb_sim::DEFAULT_SCALE;
use std::ffi::OsString;

/// Parses a figure binary's arguments: none, for [`DEFAULT_SCALE`], or
/// one positive trace scale. Pass a larger scale for longer, steadier
/// runs.
pub fn parse_scale(args: &[OsString]) -> Option<u32> {
    match args {
        [] => Some(DEFAULT_SCALE),
        [s] => s.to_str()?.parse().ok().filter(|&n| n > 0),
        _ => None,
    }
}

/// The trace scale from the command line, or the usage line to print.
pub fn scale_arg() -> Result<u32, String> {
    let mut args = std::env::args_os();
    let bin = args.next().unwrap_or_default();
    parse_scale(&args.collect::<Vec<_>>()).ok_or_else(|| {
        format!("usage: {} [scale]  (a positive trace scale)", bin.to_string_lossy())
    })
}

/// Functionally filters a trace through the baseline L1 data cache and
/// returns the (pc, address) *load miss stream* — the stream every
/// predictor in the paper trains on. Store-forwarded loads cannot be
/// detected functionally, but they are rare in the modeled workloads.
pub fn l1_load_miss_stream(trace: &[DynInst]) -> Vec<(Addr, Addr)> {
    let mut l1 = Cache::new(CacheConfig::l1d_32k_4way());
    let mut misses = Vec::new();
    for inst in trace {
        let Some(addr) = inst.mem_addr else { continue };
        if !l1.access(addr) {
            l1.insert(addr);
            if inst.op.is_load() {
                misses.push((inst.pc, addr));
            }
        }
    }
    misses
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_workloads::Benchmark;

    #[test]
    fn miss_stream_is_a_subset_of_loads() {
        let trace = Benchmark::Turb3d.trace(1);
        let misses = l1_load_miss_stream(&trace);
        let loads = trace.iter().filter(|i| i.op.is_load()).count();
        assert!(!misses.is_empty());
        assert!(misses.len() < loads);
    }

    #[test]
    fn scale_is_absent_or_one_positive_number() {
        let args = |a: &[&str]| a.iter().map(OsString::from).collect::<Vec<_>>();
        assert_eq!(parse_scale(&args(&[])), Some(DEFAULT_SCALE));
        assert_eq!(parse_scale(&args(&["1"])), Some(1));
        assert_eq!(parse_scale(&args(&["3"])), Some(3));
        for bad in [&["abc"][..], &["-1"], &["0"], &[""], &["2", "extra"], &["1.5"]] {
            assert_eq!(parse_scale(&args(bad)), None, "{bad:?}");
        }
    }
}
