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
mod memsys;
/// Generic ordered worker pool (model-checked via `cargo xtask model`).
pub mod pool;
mod report;
mod simulator;
mod stats;
/// Parallel sweep harness: deterministic grid runs over a worker pool.
pub mod sweep;
mod views;

pub use artifact::{
    json_report, read_sweep_report, sweep_cell_entry, sweep_report, GridError, SweepEntry,
    RUN_SCHEMA, SWEEP_SCHEMA,
};
pub use config::{MachineConfig, ParsePrefetcherError, PrefetcherKind};
pub use eventlog::{MemEvent, MemEventKind, MemLog, SharedMemLog};
pub use experiment::{average_speedup_percent, DEFAULT_SCALE};
pub use memsys::SimMemory;
pub use pool::{run_ordered_tracked, PoolPanic};
pub use report::{f2, pct, Table};
pub use simulator::Simulation;
pub use stats::SimStats;
pub use sweep::{
    paper_cells, run_sweep, shootout_cells, try_run_sweep_with, PsbVariant, SweepCell, SweepError,
    SweepOutcome, SweepProgress,
};
pub use views::{variant_cells, Grid, View, VIEWS};
