//! Full-system cycle-level simulator for the PSB reproduction.
//!
//! Wires the out-of-order core (`psb-cpu`), the memory hierarchy
//! (`psb-mem`) and the stream-buffer prefetchers (`psb-core`) into one
//! machine, runs workload traces (`psb-workloads`) through it, and
//! collects every statistic the paper reports.
//!
//! # Example
//!
//! ```no_run
//! use psb_sim::{MachineConfig, PrefetcherKind, Simulation};
//! use psb_workloads::Benchmark;
//!
//! let base = MachineConfig::baseline();
//! let psb = base.with_prefetcher(PrefetcherKind::PsbConfPriority);
//! let trace = Benchmark::DeltaBlue.trace(1);
//!
//! let s0 = Simulation::new(base, trace.clone(), u64::MAX).run();
//! let s1 = Simulation::new(psb, trace, u64::MAX).run();
//! println!("speedup: {:.1}%", s1.speedup_percent_over(&s0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod config;
mod eventlog;
mod experiment;
/// Incremental result journal: crash-safe sweeps with `--resume`.
pub mod journal;
mod memsys;
/// Generic ordered worker pool (model-checked via `cargo xtask model`).
pub mod pool;
/// Live sweep progress tracking for the `--serve` observability plane.
pub mod progress;
mod report;
mod simulator;
mod stats;
/// Parallel sweep harness: deterministic grid runs over a worker pool.
pub mod sweep;
mod views;

pub use artifact::{
    json_report, read_sweep_report, sweep_cell_entry, sweep_report, sweep_report_from_texts,
    GridError, SweepEntry, RUN_SCHEMA, SWEEP_SCHEMA,
};
pub use config::{MachineConfig, ParsePrefetcherError, PrefetcherKind};
pub use eventlog::{MemEvent, MemEventKind, MemLog, SharedMemLog};
pub use experiment::{average_speedup_percent, run_config, run_point, DEFAULT_SCALE};
pub use journal::{read_journal, run_journaled, JournalError, JournalEvent, JOURNAL_SCHEMA};
pub use memsys::SimMemory;
pub use pool::{run_ordered, run_ordered_tracked, PoolPanic};
pub use progress::{SweepTracker, PROGRESS_SCHEMA};
pub use report::{f2, pct, Table};
pub use simulator::Simulation;
pub use stats::SimStats;
pub use sweep::{
    paper_cells, run_sweep, run_sweep_with, shootout_cells, try_run_sweep_tracked,
    try_run_sweep_with, SweepCell, SweepError, SweepOutcome, SweepProgress,
};
pub use views::{machine_banner, Grid, View, VIEWS};
