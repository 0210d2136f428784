//! The golden gate for `results/`: full sweep cells must reproduce their
//! committed entries byte for byte, and every view must render its
//! committed `results/<name>.txt` from the committed scale-2 grid.
//!
//! The committed files under `results/` are the goldens. CI's `golden`
//! job regenerates every one of them and compares; this tier-1 subset
//! runs the no-prefetch baseline, PC-stride and a PSB engine on the
//! strided turb3d, plus the PSB engine on the pointer-chasing burg, at
//! scale 1 against `results/shootout.json` and at scale 2 against
//! `results/shootout_scale2.json`. At scale 1 it also runs sis, which
//! waits on memory for most of its cycles and so exercises the
//! pipeline's idle-cycle skip most, under no prefetching and under
//! demand-Markov. A deliberate change to the simulated
//! numbers re-runs the commands in EXPERIMENTS.md, commits their output
//! and says why.

use psb::sim::{
    read_sweep_report, run_sweep, sweep_cell_entry, Grid, MachineConfig, PrefetcherKind, SweepCell,
    VIEWS,
};
use psb::workloads::Benchmark;

const SHOOTOUT: &str = include_str!("../results/shootout.json");
const SHOOTOUT_SCALE2: &str = include_str!("../results/shootout_scale2.json");

/// Runs `cells` and requires each one's entry to appear verbatim in `grid`.
fn assert_cells_in(grid: &str, file: &str, cells: &[SweepCell]) {
    for (cell, outcome) in cells.iter().zip(run_sweep(cells, 2)) {
        let entry = sweep_cell_entry(cell, &outcome.stats).to_string();
        assert!(
            grid.contains(&entry),
            "{}/{} no longer matches {file}; it now renders\n{entry}",
            cell.bench.name(),
            cell.label(),
        );
    }
}

fn cell(bench: Benchmark, kind: PrefetcherKind, scale: u32) -> SweepCell {
    SweepCell::new(bench, MachineConfig::baseline().with_prefetcher(kind), scale)
}

#[test]
fn shootout_cells_reproduce_the_committed_results() {
    let cells = [
        cell(Benchmark::Turb3d, PrefetcherKind::None, 1),
        cell(Benchmark::Turb3d, PrefetcherKind::PcStride, 1),
        cell(Benchmark::Turb3d, PrefetcherKind::PsbConfPriority, 1),
        cell(Benchmark::Burg, PrefetcherKind::PsbConfPriority, 1),
        cell(Benchmark::Sis, PrefetcherKind::None, 1),
        cell(Benchmark::Sis, PrefetcherKind::DemandMarkov, 1),
    ];
    assert_cells_in(SHOOTOUT, "results/shootout.json", &cells);
}

#[test]
fn scale2_cells_reproduce_the_committed_grid() {
    let cells = [
        cell(Benchmark::Turb3d, PrefetcherKind::None, 2),
        cell(Benchmark::Turb3d, PrefetcherKind::PsbConfPriority, 2),
        cell(Benchmark::Burg, PrefetcherKind::PsbConfPriority, 2),
    ];
    assert_cells_in(SHOOTOUT_SCALE2, "results/shootout_scale2.json", &cells);
}

#[test]
fn every_view_renders_its_committed_results_file() {
    let grid = read_sweep_report(SHOOTOUT_SCALE2).and_then(Grid::new).expect("a one-scale grid");
    for (name, view) in VIEWS {
        let path = format!("{}/results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect("every view has a results file");
        let rendered = view(&grid).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            rendered == committed,
            "{path} no longer renders from the grid; it now reads\n{rendered}"
        );
    }
}
