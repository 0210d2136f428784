//! Helpers for running benchmark × configuration matrices.

use crate::{MachineConfig, PrefetcherKind, SimStats, Simulation};
use psb_workloads::Benchmark;

/// Default trace scale used by the experiment binaries (≈600k
/// instructions per run — enough for predictor warm-up plus several
/// steady-state laps of every benchmark's data structures).
pub const DEFAULT_SCALE: u32 = 2;

/// Smallest per-benchmark speedup factor admitted into the geometric
/// mean: a cell can lose essentially everything (−100% and below clamps
/// here) without poisoning the aggregate with a zero or negative factor.
const MIN_SPEEDUP_FACTOR: f64 = 1e-6;

/// Runs one (benchmark, machine) point. The trace comes from the shared
/// cache ([`Benchmark::shared_trace`]), so repeated points on one
/// benchmark pay for generation once.
pub fn run_config(bench: Benchmark, config: MachineConfig, scale: u32) -> SimStats {
    Simulation::new_shared(config, bench.shared_trace(scale), u64::MAX).run()
}

/// Runs one (benchmark, prefetcher) point on the baseline machine.
pub fn run_point(bench: Benchmark, kind: PrefetcherKind, scale: u32) -> SimStats {
    run_config(bench, MachineConfig::baseline().with_prefetcher(kind), scale)
}

/// Geometric-mean percent speedup across a set of per-benchmark speedups
/// (how the paper aggregates "average speedup").
///
/// Each speedup is folded in as the factor `1 + s/100`, clamped to a
/// small positive epsilon: a catastrophic cell (s ≤ −100%) contributes
/// an (almost-)total loss instead of a zero or negative factor, whose
/// fractional root would otherwise be `NaN` and poison the aggregate.
pub fn average_speedup_percent(speedups: &[f64]) -> f64 {
    if speedups.is_empty() {
        return 0.0;
    }
    let product: f64 = speedups.iter().map(|s| (1.0 + s / 100.0).max(MIN_SPEEDUP_FACTOR)).product();
    (product.powf(1.0 / speedups.len() as f64) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_speedup_geomean() {
        assert_eq!(average_speedup_percent(&[]), 0.0);
        // 21% and 0%: geomean = sqrt(1.21) - 1 = 10%.
        let avg = average_speedup_percent(&[21.0, 0.0]);
        assert!((avg - 10.0).abs() < 1e-9, "{avg}");
    }

    #[test]
    fn average_speedup_survives_total_losses() {
        // Regression: a speedup at or below −100% used to make the
        // product non-positive and the fractional power NaN.
        for bad in [-100.0, -150.0, -1e6] {
            let avg = average_speedup_percent(&[bad, 10.0]);
            assert!(avg.is_finite(), "speedup {bad} must not poison the mean: {avg}");
            assert!((-100.0..0.0).contains(&avg), "{avg}");
        }
        // A lone catastrophic cell reads as (almost) total loss.
        let lone = average_speedup_percent(&[-250.0]);
        assert!(lone.is_finite() && lone <= -99.9, "{lone}");
        // And ordinary negatives are untouched by the clamp.
        let mild = average_speedup_percent(&[-10.0, -10.0]);
        assert!((mild + 10.0).abs() < 1e-9, "{mild}");
    }

    #[test]
    fn run_point_produces_stats() {
        // Small smoke: cap the cost by using the cheapest benchmark at
        // scale 1 with the null prefetcher.
        let s = run_point(Benchmark::Turb3d, PrefetcherKind::None, 1);
        assert!(s.cpu.committed >= 300_000);
        assert!(s.ipc() > 0.0);
    }
}
