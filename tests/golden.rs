//! The golden gate for `results/`: full scale-1 shootout cells must
//! reproduce their committed `results/shootout.json` entries byte for
//! byte.
//!
//! The committed files under `results/` are the goldens. CI's `golden`
//! job regenerates every one of them and compares; this tier-1 subset
//! runs the no-prefetch baseline, PC-stride and a PSB engine on the
//! strided turb3d, plus the PSB engine on the pointer-chasing burg. A
//! deliberate change to the simulated numbers re-runs the commands in
//! EXPERIMENTS.md, commits their output and says why.

use psb::sim::{run_sweep, sweep_cell_entry, MachineConfig, PrefetcherKind, SweepCell};
use psb::workloads::Benchmark;

const SHOOTOUT: &str = include_str!("../results/shootout.json");

#[test]
fn shootout_cells_reproduce_the_committed_results() {
    let cell =
        |bench, kind| SweepCell::new(bench, MachineConfig::baseline().with_prefetcher(kind), 1);
    let cells = [
        cell(Benchmark::Turb3d, PrefetcherKind::None),
        cell(Benchmark::Turb3d, PrefetcherKind::PcStride),
        cell(Benchmark::Turb3d, PrefetcherKind::PsbConfPriority),
        cell(Benchmark::Burg, PrefetcherKind::PsbConfPriority),
    ];
    for (cell, outcome) in cells.iter().zip(run_sweep(&cells, 2)) {
        let entry = sweep_cell_entry(cell, &outcome.stats).to_string();
        assert!(
            SHOOTOUT.contains(&entry),
            "{}/{} no longer matches results/shootout.json; it now renders\n{entry}",
            cell.bench.name(),
            cell.label(),
        );
    }
}
