//! Parallel (benchmark × machine × scale) sweep harness.
//!
//! The paper's headline results are a grid: six benchmarks times at
//! least six machine configurations (Figures 5–9), more for the
//! geometry sweeps. Running that grid serially regenerates each
//! benchmark's trace once per cell and leaves every core but one idle.
//! This module fixes both:
//!
//! * **Work queue.** [`run_sweep`] fans the cells out across the
//!   ordered worker pool in [`crate::pool`] (one worker per available
//!   core by default). Workers claim cells from a shared atomic cursor,
//!   so the pool stays busy even when cell costs are wildly uneven (a
//!   `sis` run costs ~10× a `turb3d` run at equal scale).
//! * **Trace sharing.** Workers fetch traces through
//!   [`Benchmark::shared_trace`], so N configurations of one benchmark
//!   share a single generated trace instead of regenerating it N times.
//!
//! **Determinism.** Each cell is an isolated, fully deterministic
//! simulation, and results land in a slice slot chosen by the cell's
//! *submission* index — never by completion order. The output of
//! [`run_sweep`] is therefore bit-identical for any worker count,
//! including 1; only the wall-clock (and the [`SweepOutcome::wall_micros`]
//! timings, which are reported for progress display but deliberately
//! kept out of the `psb-sweep-v1` artifact) varies between runs.
//!
//! **Failure.** A panicking cell (a deadlocked or asserting simulation
//! is a bug, never a legal outcome) does not hang or silently kill the
//! sweep: [`try_run_sweep_with`] drains the remaining cells, joins
//! every worker, and returns a [`SweepError`] naming the cell —
//! benchmark, machine label and scale — that died.

use crate::pool::run_ordered_tracked;
use crate::{MachineConfig, PrefetcherKind, SimStats, Simulation};
use psb_core::{AllocFilter, MarkovTable, Prefetcher, PsbPrefetcher, SbConfig};
use psb_core::{Sfm2Predictor, SfmPredictor, StreamEngine, StrideTable};
use psb_cpu::Disambiguation;
use psb_obs::Obs;
use psb_workloads::Benchmark;

/// One point of a sweep grid: a benchmark, a full machine configuration
/// and a trace scale, plus an optional commit cap for test-sized runs.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SweepCell {
    /// The workload.
    pub bench: Benchmark,
    /// The machine to run it on (prefetcher, caches, core).
    pub config: MachineConfig,
    /// Trace scale (see [`Benchmark::trace`]).
    pub scale: u32,
    /// Commit at most this many instructions (`u64::MAX` drains the
    /// trace — the figure-run default).
    pub max_commits: u64,
    /// The engine to run in place of `config.prefetcher`'s, if any.
    pub variant: Option<PsbVariant>,
}

/// A ConfAlloc-Priority stream engine with one design parameter moved
/// off the paper's value (Section 4): the engines the ablation views read.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PsbVariant {
    /// This many stream buffers of this many entries each (paper: 8 × 4).
    Buffers(usize, usize),
    /// This confidence-allocation threshold θ (paper: 1).
    Threshold(u32),
    /// This priority bonus per hit and aging period in misses (paper: 2, 10).
    Priority(u32, u64),
    /// A Markov table of this many entries of this many bits (paper: 2048 × 16).
    Markov(usize, u32),
    /// The second-order Stride-Filtered Markov predictor (paper: first order).
    Order2,
}

impl PsbVariant {
    /// Builds the engine.
    pub fn build(self) -> Box<dyn Prefetcher> {
        let mut config = SbConfig::psb_conf_priority();
        match self {
            PsbVariant::Buffers(buffers, entries) => {
                config.buffers = buffers;
                config.entries_per_buffer = entries;
            }
            PsbVariant::Threshold(t) => config.filter = AllocFilter::Confidence { threshold: t },
            PsbVariant::Priority(bonus, aging) => {
                config.hit_bonus = bonus;
                config.aging_period = aging;
            }
            PsbVariant::Markov(entries, bits) => {
                let markov = MarkovTable::new(entries, bits);
                let sfm = SfmPredictor::new(StrideTable::paper_baseline(), markov, config.block);
                return Box::new(StreamEngine::new(config, sfm, format!("psb-{entries}x{bits}b")));
            }
            PsbVariant::Order2 => {
                let sfm2 = Sfm2Predictor::paper_baseline();
                return Box::new(StreamEngine::new(config, sfm2, "psb-order2".to_owned()));
            }
        }
        Box::new(PsbPrefetcher::psb(config))
    }
}

impl SweepCell {
    /// A cell that drains the whole trace.
    pub fn new(bench: Benchmark, config: MachineConfig, scale: u32) -> Self {
        SweepCell { bench, config, scale, max_commits: u64::MAX, variant: None }
    }

    /// Caps the cell at `max` committed instructions.
    pub fn with_max_commits(mut self, max: u64) -> Self {
        self.max_commits = max;
        self
    }

    /// Runs `variant` in place of the registry engine, under the label of
    /// ConfAlloc-Priority, the engine it varies.
    pub fn with_variant(mut self, variant: PsbVariant) -> Self {
        self.config.prefetcher = PrefetcherKind::PsbConfPriority;
        self.variant = Some(variant);
        self
    }

    /// The name of the machine half of the cell, in CSV rows and grid
    /// entries: the prefetcher's figure label, then a suffix for each
    /// part of the machine that deviates from the paper baseline — the
    /// L1D geometry, no disambiguation, a victim cache and the engine
    /// variant (e.g. `ConfAlloc-Priority/16k4`, `Base/nodis`,
    /// `ConfAlloc-Priority/victim16`, `ConfAlloc-Priority/sb2x4`).
    pub fn label(&self) -> String {
        let (config, base) = (&self.config, MachineConfig::baseline());
        let mut label = config.prefetcher.label().to_owned();
        if config.mem.l1d != base.mem.l1d {
            label += &format!("/{}k{}", config.mem.l1d.size / 1024, config.mem.l1d.assoc);
        }
        if config.cpu.disambiguation == Disambiguation::WaitForStores {
            label += "/nodis";
        }
        if config.victim_entries > 0 {
            label += &format!("/victim{}", config.victim_entries);
        }
        let variant = match self.variant {
            None => String::new(),
            Some(PsbVariant::Buffers(buffers, entries)) => format!("/sb{buffers}x{entries}"),
            Some(PsbVariant::Threshold(theta)) => format!("/theta{theta}"),
            Some(PsbVariant::Priority(bonus, aging)) => format!("/bonus{bonus}-aging{aging}"),
            Some(PsbVariant::Markov(entries, bits)) => format!("/markov{entries}x{bits}"),
            Some(PsbVariant::Order2) => "/order2".to_owned(),
        };
        label + &variant
    }

    fn run(&self) -> SimStats {
        let trace = self.bench.shared_trace(self.scale);
        let sim = Simulation::new_shared(self.config, trace, self.max_commits);
        match self.variant {
            Some(variant) => sim.with_engine(variant.build()),
            None => sim,
        }
        .run()
    }
}

/// The result of one sweep cell.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Full simulation statistics for the cell.
    pub stats: SimStats,
    /// Wall-clock cost of the cell on its worker, in microseconds.
    /// Host-dependent: reported for progress/telemetry, never part of
    /// the deterministic artifact.
    pub wall_micros: u64,
}

/// Completion notification handed to the progress callback of
/// [`run_sweep_with`], in completion order on the coordinating thread.
#[derive(Copy, Clone, Debug)]
pub struct SweepProgress<'a> {
    /// Submission index of the finished cell.
    pub index: usize,
    /// Cells finished so far, counting this one.
    pub done: usize,
    /// Total cells in the sweep.
    pub total: usize,
    /// The finished cell.
    pub cell: &'a SweepCell,
    /// Wall-clock cost of the cell in microseconds.
    pub wall_micros: u64,
}

/// A sweep cell whose simulation panicked, named by benchmark, machine
/// label and scale. `psbsweep --bench <benchmark> --prefetcher <name>
/// --scale <scale>` re-runs a registry cell, where `<name>` is the CLI
/// name of the label's engine (`conf-priority` for `ConfAlloc-Priority`,
/// see [`PrefetcherKind::cli_name`]).
#[derive(Clone, Debug)]
pub struct SweepError {
    /// Submission index of the failing cell.
    pub index: usize,
    /// The cell's workload.
    pub bench: Benchmark,
    /// The cell's machine label (see [`SweepCell::label`]).
    pub label: String,
    /// The cell's trace scale.
    pub scale: u32,
    /// The worker's panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep cell {} ({}/{}, scale {}) panicked: {}",
            self.index,
            self.bench.name(),
            self.label,
            self.scale,
            self.message
        )
    }
}

impl std::error::Error for SweepError {}

/// The paper grid for `benches`: every [`PrefetcherKind::PAPER`]
/// configuration of every benchmark, in Figure 5 order (benchmark-major).
pub fn paper_cells(benches: &[Benchmark], scale: u32) -> Vec<SweepCell> {
    benches
        .iter()
        .flat_map(|&bench| {
            PrefetcherKind::PAPER.into_iter().map(move |kind| {
                SweepCell::new(bench, MachineConfig::baseline().with_prefetcher(kind), scale)
            })
        })
        .collect()
}

/// The shootout grid for `benches`: every engine in the psb-core
/// registry ([`PrefetcherKind::ALL`]) on every benchmark,
/// benchmark-major in registry order. A superset of [`paper_cells`]
/// that puts the paper's grid beside the historical baselines and the
/// modern competitors (Pangloss, DSPatch).
pub fn shootout_cells(benches: &[Benchmark], scale: u32) -> Vec<SweepCell> {
    benches
        .iter()
        .flat_map(|&bench| {
            PrefetcherKind::ALL.into_iter().map(move |kind| {
                SweepCell::new(bench, MachineConfig::baseline().with_prefetcher(kind), scale)
            })
        })
        .collect()
}

/// Resolves a requested worker count: 0 means one worker per available
/// core, and the pool never exceeds the number of cells.
fn effective_threads(requested: usize, cells: usize) -> usize {
    let auto =
        psb_model::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let wanted = if requested == 0 { auto } else { requested };
    wanted.clamp(1, cells.max(1))
}

/// Runs every cell across a worker pool and returns the outcomes in
/// submission order. `threads == 0` uses one worker per available core.
///
/// See [`run_sweep_with`] for progress callbacks and observability.
pub fn run_sweep(cells: &[SweepCell], threads: usize) -> Vec<SweepOutcome> {
    run_sweep_with(cells, threads, None, |_| {})
}

/// [`run_sweep`] with instrumentation: `obs`, when present, receives the
/// per-cell progress counters (`sweep.cells_total` / `sweep.cells_completed`
/// counters and the `sweep.cell_micros` histogram), and `on_done` is
/// invoked once per finished cell, in completion order, on the calling
/// thread — binaries hang their progress output here, keeping the
/// library print-free.
///
/// # Panics
///
/// Panics with the formatted [`SweepError`] when a worker panics; use
/// [`try_run_sweep_with`] to handle that case (and exit non-zero with a
/// message naming the cell, as `psbsweep` does).
pub fn run_sweep_with(
    cells: &[SweepCell],
    threads: usize,
    obs: Option<&Obs>,
    on_done: impl FnMut(SweepProgress<'_>),
) -> Vec<SweepOutcome> {
    try_run_sweep_with(cells, threads, obs, on_done).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_sweep_with`] returning a [`SweepError`] instead of panicking
/// when a cell's simulation panics. The sweep still drains every
/// remaining cell and joins every worker before reporting; with several
/// failures the smallest submission index wins deterministically.
pub fn try_run_sweep_with(
    cells: &[SweepCell],
    threads: usize,
    obs: Option<&Obs>,
    on_done: impl FnMut(SweepProgress<'_>),
) -> Result<Vec<SweepOutcome>, SweepError> {
    sweep_with_runner(cells, threads, obs, on_done, &|cell| cell.run())
}

/// The sweep engine, parameterized over the per-cell runner so tests
/// can inject panicking cells without building a broken simulation.
fn sweep_with_runner(
    cells: &[SweepCell],
    threads: usize,
    obs: Option<&Obs>,
    mut on_done: impl FnMut(SweepProgress<'_>),
    runner: &(dyn Fn(&SweepCell) -> SimStats + Sync),
) -> Result<Vec<SweepOutcome>, SweepError> {
    let total = cells.len();
    if total == 0 {
        return Ok(Vec::new());
    }
    let workers = effective_threads(threads, total);
    if let Some(obs) = obs {
        obs.record("sweep.cells_total", total as u64);
        obs.record("sweep.workers", workers as u64);
    }
    let completed = obs.map(|o| o.counter("sweep.cells_completed"));
    let cell_micros = obs.map(|o| o.hist("sweep.cell_micros"));

    let mut done = 0;
    run_ordered_tracked(
        cells,
        workers,
        |_, _, cell| {
            // Host wall-clock for telemetry only — the timing feeds a
            // progress histogram, never the deterministic artifact.
            let start = std::time::Instant::now();
            let stats = runner(cell);
            let wall_micros = start.elapsed().as_micros() as u64;
            SweepOutcome { stats, wall_micros }
        },
        |index, outcome| {
            if let Some(c) = &completed {
                c.inc();
            }
            if let Some(h) = &cell_micros {
                h.observe(outcome.wall_micros);
            }
            done += 1;
            on_done(SweepProgress {
                index,
                done,
                total,
                cell: &cells[index],
                wall_micros: outcome.wall_micros,
            });
        },
    )
    .map_err(|p| {
        let cell = &cells[p.index];
        SweepError {
            index: p.index,
            bench: cell.bench,
            label: cell.label(),
            scale: cell.scale,
            message: p.message,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap 2×2 grid with a commit cap, for debug-build speed.
    fn small_grid() -> Vec<SweepCell> {
        let mut cells = Vec::new();
        for bench in [Benchmark::Turb3d, Benchmark::DeltaBlue] {
            for kind in [PrefetcherKind::None, PrefetcherKind::PsbConfPriority] {
                cells.push(
                    SweepCell::new(bench, MachineConfig::baseline().with_prefetcher(kind), 1)
                        .with_max_commits(20_000),
                );
            }
        }
        cells
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let cells = small_grid();
        let serial = run_sweep(&cells, 1);
        let parallel = run_sweep(&cells, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.stats.cpu.cycles, b.stats.cpu.cycles);
            assert_eq!(a.stats.cpu.committed, b.stats.cpu.committed);
            assert_eq!(a.stats.prefetch, b.stats.prefetch);
            assert_eq!(a.stats.l1d, b.stats.l1d);
        }
    }

    #[test]
    fn outcomes_land_in_submission_order() {
        let cells = small_grid();
        let outcomes = run_sweep(&cells, 3);
        for (cell, out) in cells.iter().zip(&outcomes) {
            // Re-running any single cell serially reproduces its slot.
            let again = Simulation::new_shared(
                cell.config,
                cell.bench.shared_trace(cell.scale),
                cell.max_commits,
            )
            .run();
            assert_eq!(out.stats.cpu.cycles, again.cpu.cycles);
            assert_eq!(out.stats.prefetch, again.prefetch);
        }
    }

    #[test]
    fn progress_and_obs_counters_cover_every_cell() {
        let cells = small_grid();
        let obs = Obs::new();
        let mut seen = Vec::new();
        let outcomes = run_sweep_with(&cells, 2, Some(&obs), |p| {
            assert_eq!(p.total, cells.len());
            seen.push((p.index, p.done));
        });
        assert_eq!(outcomes.len(), cells.len());
        // Every submission index reported exactly once; `done` counts up.
        let mut indices: Vec<usize> = seen.iter().map(|&(i, _)| i).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..cells.len()).collect::<Vec<_>>());
        assert_eq!(seen.last().map(|&(_, d)| d), Some(cells.len()));
        assert_eq!(obs.counter("sweep.cells_completed").get(), cells.len() as u64);
        assert_eq!(obs.counter("sweep.cells_total").get(), cells.len() as u64);
        assert!(obs.hist("sweep.cell_micros").snapshot().total() >= cells.len() as u64);
    }

    #[test]
    fn empty_grid_is_a_noop() {
        assert!(run_sweep(&[], 4).is_empty());
    }

    #[test]
    fn panicking_cell_reports_bench_label_and_scale() {
        let cells = small_grid();
        let boom: &(dyn Fn(&SweepCell) -> SimStats + Sync) = &|cell| {
            if cell.bench == Benchmark::DeltaBlue
                && cell.config.prefetcher == PrefetcherKind::PsbConfPriority
            {
                panic!("injected cell failure");
            }
            cell.run()
        };
        let err = sweep_with_runner(&cells, 2, None, |_| {}, boom)
            .expect_err("the injected panic must surface");
        assert_eq!(err.index, 3);
        assert_eq!(err.bench, Benchmark::DeltaBlue);
        assert_eq!(err.label, "ConfAlloc-Priority");
        assert_eq!(err.scale, 1);
        assert!(err.message.contains("injected cell failure"), "got: {}", err.message);
        let shown = err.to_string();
        assert!(
            shown.contains("deltablue") && shown.contains("ConfAlloc-Priority"),
            "error display must name the cell: {shown}"
        );
    }

    #[test]
    fn paper_cells_cover_the_grid_in_order() {
        let cells = paper_cells(&[Benchmark::Health, Benchmark::Gs], 2);
        assert_eq!(cells.len(), 12);
        assert_eq!(cells[0].bench, Benchmark::Health);
        assert_eq!(cells[0].config.prefetcher, PrefetcherKind::None);
        assert_eq!(cells[5].config.prefetcher, PrefetcherKind::PsbConfPriority);
        assert_eq!(cells[6].bench, Benchmark::Gs);
        assert!(cells.iter().all(|c| c.scale == 2 && c.max_commits == u64::MAX));
    }

    #[test]
    fn shootout_cells_cover_the_whole_registry() {
        let cells = shootout_cells(&[Benchmark::Health], 1);
        assert_eq!(cells.len(), PrefetcherKind::ALL.len());
        assert!(cells.len() >= 12, "the shootout must carry at least 12 engines");
        // Registry order, including the modern competitors.
        let labels: Vec<&str> = cells.iter().map(|c| c.config.prefetcher.label()).collect();
        assert!(labels.contains(&"Pangloss"));
        assert!(labels.contains(&"DSPatch"));
        // The paper grid is an ordered subgrid of the shootout.
        let paper: Vec<_> = cells
            .iter()
            .map(|c| c.config.prefetcher)
            .filter(|k| PrefetcherKind::PAPER.contains(k))
            .collect();
        assert_eq!(paper, PrefetcherKind::PAPER);
    }

    #[test]
    fn labels_name_prefetcher_and_nonbaseline_geometry() {
        let base = SweepCell::new(
            Benchmark::Health,
            MachineConfig::baseline().with_prefetcher(PrefetcherKind::PsbConfPriority),
            1,
        );
        assert_eq!(base.label(), "ConfAlloc-Priority");
        let small = SweepCell::new(
            Benchmark::Health,
            MachineConfig::baseline().with_l1d(psb_mem::CacheConfig::l1d_16k_4way()),
            1,
        );
        assert_eq!(small.label(), "Base/16k4");
        let nodis = MachineConfig::baseline().with_disambiguation(Disambiguation::WaitForStores);
        let every = nodis.with_l1d(psb_mem::CacheConfig::l1d_32k_2way()).with_victim_cache(16);
        let cell = |config| SweepCell::new(Benchmark::Health, config, 1);
        assert_eq!(cell(nodis).label(), "Base/nodis");
        assert_eq!(cell(every).label(), "Base/32k2/nodis/victim16");
        for (variant, suffix) in [
            (PsbVariant::Buffers(2, 4), "/sb2x4"),
            (PsbVariant::Threshold(0), "/theta0"),
            (PsbVariant::Priority(1, 10), "/bonus1-aging10"),
            (PsbVariant::Markov(256, 16), "/markov256x16"),
            (PsbVariant::Order2, "/order2"),
        ] {
            let label = cell(MachineConfig::baseline()).with_variant(variant).label();
            assert_eq!(label, format!("ConfAlloc-Priority{suffix}"));
        }
    }

    #[test]
    fn variants_at_the_paper_point_run_the_registry_engine() {
        let psb = MachineConfig::baseline().with_prefetcher(PrefetcherKind::PsbConfPriority);
        let registry = SweepCell::new(Benchmark::Turb3d, psb, 1).with_max_commits(50_000);
        let paper = [
            PsbVariant::Buffers(8, 4),
            PsbVariant::Threshold(1),
            PsbVariant::Priority(2, 10),
            PsbVariant::Markov(2048, 16),
        ];
        let cells: Vec<_> =
            [registry].into_iter().chain(paper.map(|v| registry.with_variant(v))).collect();
        let outcomes = run_sweep(&cells, 2);
        let entry = |i: usize| crate::sweep_cell_entry(&registry, &outcomes[i].stats).to_string();
        assert!(outcomes[0].stats.prefetch.issued > 0, "the cell must prefetch");
        for (i, cell) in cells.iter().enumerate().skip(1) {
            assert_eq!(entry(i), entry(0), "{}", cell.label());
        }
    }

    #[test]
    fn effective_threads_clamps_sanely() {
        assert_eq!(effective_threads(3, 100), 3);
        assert_eq!(effective_threads(16, 2), 2);
        assert_eq!(effective_threads(1, 0), 1);
        assert!(effective_threads(0, 100) >= 1);
    }
}
